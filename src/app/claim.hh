/**
 * @file
 * Claims: one-line checks on a finished sweep, stated in a sweep
 * file's `[claims]` section (grammar in docs/sweep.md):
 *
 *     [claims]
 *     fastCarriesMore = fast.load > detailed.load
 *     holdsPastPeak = afterPeak(expb.load) >= 0.8 * max(expb.load)
 *     latencyRises = monotone(fig3.latencyMean)
 *     unloaded = "fig3/think=2000".latencyMean <= 28.5
 *
 * `RUN.COLUMN` reads a sweep-CSV column at every point of run RUN
 * and of every run named `RUN/...`; `"LABEL".COLUMN` at the points
 * labelled LABEL. A comparison holds when it holds for every pair
 * of values its two sides read.
 */

#ifndef METRO_APP_CLAIM_HH
#define METRO_APP_CLAIM_HH

#include <string>
#include <vector>

#include "app/knob.hh"
#include "sweep/sweep.hh"

namespace metro
{

/** One side of a comparison: `factor` times what it reads, or the
 *  constant `factor` when it names no run and no label. */
struct ClaimSide
{
    enum class Fn : std::uint8_t
    {
        Each,      ///< every value read
        Max,       ///< the largest
        AfterPeak, ///< the one after the largest (none if it is last)
    };
    Fn fn = Fn::Each;
    double factor = 1.0;
    std::string run;
    std::string label;
    std::size_t column = 0; ///< index into experimentCsvHeader()
};

/** A parsed `name = expression` line of `[claims]`. */
struct Claim
{
    /** Monotone: `monotone(lhs)`, no rhs. */
    enum class Op : std::uint8_t { Lt, Le, Gt, Ge, Eq, Monotone };

    std::string name;
    std::string text;
    unsigned line = 0;
    Op op = Op::Eq;
    ClaimSide lhs, rhs;
};

/** A run name claims can read: a letter, then letters, digits,
 *  '_', '-' or '/'. */
bool isRunName(const std::string &name);

/** Parse one claim line; "" or why it is malformed. */
std::string parseClaim(const TextLine &line, Claim &out);

/** "" or, prefixed with the claim's line, the first side of it
 *  that reads none of `labels`. */
std::string resolveClaim(const Claim &claim,
                         const std::vector<std::string> &labels);

/** A claim's outcome on one sweep. */
struct ClaimVerdict
{
    std::string name;
    bool held = false;
    /** `claim NAME held: EXPR`, or `... MISSED: EXPR (why)`. */
    std::string text;
};

/** Check every claim against the finished sweep, in order. */
std::vector<ClaimVerdict> checkClaims(const std::vector<Claim> &claims,
                                      const SweepResult &sweep);

} // namespace metro

#endif // METRO_APP_CLAIM_HH
