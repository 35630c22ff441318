/**
 * @file
 * The knob table for one simulation run, and the path from it to
 * runnable sweep points.
 *
 * pointKnobs() lists every network, experiment, fault, retry and
 * axis knob. metro_sim accepts each as `--kebab-name=value`, sweep
 * files as `name = value`; both fill the same SweepConfig, which
 * expandPoints() turns into SweepPoints whose builds all go through
 * buildInstance(). Serve, checkpoint, supervisor and output options
 * belong to the command line only (see app/options.hh).
 */

#ifndef METRO_APP_CONFIG_HH
#define METRO_APP_CONFIG_HH

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "app/faultfile.hh"
#include "app/knob.hh"
#include "network/fattree.hh"
#include "network/multibutterfly.hh"
#include "sweep/sweep.hh"

namespace metro
{

/**
 * The network every point of a run builds — a preset or a spec
 * file — plus the retry overrides, faults and diagnosis attached to
 * it. A value type: each point's build captures its own copy.
 */
struct NetworkRecipe
{
    enum class Kind : std::uint8_t
    {
        Fig3,      ///< 64-endpoint, 3-stage radix-4 (paper Figure 3)
        Fig1,      ///< 16-endpoint (paper Figure 1)
        Table32Jr, ///< 32-endpoint METROJR application network
        FatTree,   ///< 16-endpoint binary fat tree
    };
    Kind kind = Kind::Fig3;

    /** Spec file that replaces the preset when set, and its
     *  parsed contents. @{ */
    std::string specPath;
    std::optional<MultibutterflySpec> spec;
    /** @} */

    /** Network seed, and the base seed of every point. */
    std::uint64_t seed = 1;

    /** Applied on top of the preset's or spec's retry config. */
    RetryOverrides retry;

    /** Survivable faults sampled per point, striking at
     *  faultCycle. @{ */
    unsigned routerFaults = 0;
    unsigned linkFaults = 0;
    Cycle faultCycle = 0;
    /** @} */

    /** Fault schedule / campaign file and its parsed contents. @{ */
    std::string faultPath;
    std::optional<FaultFile> faults;
    /** @} */

    /** Attach the online DiagnosisEngine (see src/diag/). */
    bool diagnosis = false;

    /** The multibutterfly this recipe builds, retry overrides
     *  applied; nullopt for the fat tree. */
    std::optional<MultibutterflySpec> multibutterfly() const;

    /** The fat tree this recipe builds, retry overrides applied. */
    FatTreeSpec fatTree() const;

    /** Endpoint count of the network, read off its spec. */
    unsigned numEndpoints() const;

    /** The bare network, without faults or diagnosis. */
    std::unique_ptr<Network> build() const;
};

/** Everything the point knobs set. */
struct SweepConfig
{
    NetworkRecipe network;

    /** Workload settings shared by every point; the axes below
     *  fill in the rest. */
    ExperimentConfig experiment;

    SweepMode mode = SweepMode::Closed;

    /** Load axes: the mode's axis gives one point per value. @{ */
    std::vector<unsigned> think = {0};
    std::vector<double> inject = {0.01};
    std::vector<double> sessionRate = {0.002};
    /** @} */

    /** Policy and process axes (empty = the preset's policy, the
     *  Bernoulli process). With more than one value each point's
     *  label gains a " policy=<name>" / " process=<name>"
     *  suffix. @{ */
    std::vector<BackoffPolicyKind> retryPolicy;
    std::vector<InjectionKind> process;
    /** @} */

    unsigned replicates = 1;

    /** Sweep workers and engine workers per point (0 = one per
     *  core); results are byte-identical at every value. @{ */
    unsigned threads = 1;
    unsigned engineThreads = 1;
    /** @} */
};

/** The point knob table (sweep-file keys; CLI flags in kebab case). */
const std::vector<Knob<SweepConfig>> &pointKnobs();

/**
 * Apply a sweep document's `key = value` lines to `config`. PATH
 * values resolve against `base_dir` unless absolute.
 */
bool applySweepText(const std::string &text, const std::string &base_dir,
                    SweepConfig &config, std::string &error);

/**
 * Build one point's isolated instance: the network, then a
 * FaultInjector (sampled survivable faults plus the fault file's
 * schedule), the fault file's campaign and the DiagnosisEngine, in
 * that order. Everything stochastic seeds from `derived_seed`, so
 * results are invariant under the sweep's thread count.
 */
SweepInstance buildInstance(const NetworkRecipe &recipe,
                            std::uint64_t derived_seed);

/**
 * Validate `config` and expand it into points: policies x
 * processes x load values x replicates, in that nesting order.
 * Returns nullopt and fills `error` on an inconsistent retry
 * config, an invalid workload, or more than 100000 points.
 */
std::optional<std::vector<SweepPoint>>
expandPoints(const SweepConfig &config, std::string &error);

} // namespace metro

#endif // METRO_APP_CONFIG_HH
