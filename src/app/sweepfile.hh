/**
 * @file
 * Text-format sweep specifications: a whole experiment sweep in a
 * small INI-like file (see experiments/fig3_sweep.ini and
 * docs/sweep.md):
 *
 *     topology = fig3        # or: spec = net.spec
 *     mode = closed          # closed|open|session
 *     think = 2000,200,20,0  # one point per value
 *     replicates = 4
 *     seed = 777             # base seed
 *
 * The keys are the point knobs of app/config.hh; each is also a
 * metro_sim flag in kebab case (`messageWords` is
 * `--message-words`). Unknown keys are errors; omitted keys keep
 * their defaults.
 */

#ifndef METRO_APP_SWEEPFILE_HH
#define METRO_APP_SWEEPFILE_HH

#include <optional>
#include <string>
#include <vector>

#include "sweep/sweep.hh"

namespace metro
{

/** A parsed sweep file: the points plus runner defaults. */
struct SweepFile
{
    std::vector<SweepPoint> points;

    /** Worker threads the file asks for (0 = hardware). */
    unsigned threads = 1;

    /** Engine worker threads per instance (0 = hardware). Results
     *  are byte-identical at every value (see sweep/sweep.hh). */
    unsigned engineThreads = 1;
};

/**
 * Parse a sweep document (the file's contents). Returns nullopt
 * and fills `error` (with a line number) on malformed input.
 * @param base_dir directory `spec =` paths are resolved against.
 */
std::optional<SweepFile> parseSweepText(const std::string &text,
                                        std::string &error,
                                        const std::string &base_dir = "");

} // namespace metro

#endif // METRO_APP_SWEEPFILE_HH
