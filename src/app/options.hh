/**
 * @file
 * Command-line options for the metro_sim driver tool.
 *
 * Kept in the library (rather than the tool's main) so option
 * parsing and the experiment runner are unit-testable.
 */

#ifndef METRO_APP_OPTIONS_HH
#define METRO_APP_OPTIONS_HH

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "app/config.hh"
#include "serve/service.hh"
#include "traffic/patterns.hh"

namespace metro
{

/**
 * Parsed command line: the point knobs plus the options only the
 * command line has. Each field below is documented by its row in
 * runKnobs() (`--help` prints them).
 */
struct Options
{
    /** Network, experiment, fault, retry and axis knobs. */
    SweepConfig config;

    /** Output. @{ */
    bool csv = false;
    bool stats = false;
    bool json = false;
    bool timing = false;
    bool metricsJson = false;
    bool dot = false;
    bool help = false;
    std::string traceConnections;
    /** @} */

    /** Applied before the rest of the command line. */
    std::string sweepFile;

    /** The sweep file's runs, each with the command line applied
     *  on top, and its claims. */
    SweepSections sections;

    /** Service mode, checkpoints and maintenance (see
     *  docs/operations.md). @{ */
    bool serve = false;
    Cycle serveCycles = 0;
    Cycle window = 1024;
    std::string checkpointOut;
    Cycle checkpointAt = 0;
    std::string restorePath;
    std::vector<std::string> maintain;
    Cycle checkpointEvery = 0;
    unsigned checkpointKeep = 3;
    bool restoreAuto = false;
    Cycle crashAtCycle = 0;
    Cycle stallAtCycle = 0;
    /** @} */

    /** Watchdog supervision (see serve/supervisor.hh). @{ */
    bool supervise = false;
    unsigned restartBudget = 8;
    std::uint64_t stallTimeoutMs = 30000;
    std::uint64_t restartBackoffMs = 100;
    /** @} */

    /** argv[0] and argv[1..], verbatim: --supervise re-execs the
     *  binary with the supervisor-only flags stripped. @{ */
    std::string exePath;
    std::vector<std::string> rawArgs;
    /** @} */
};

/**
 * The canonical configuration string the checkpoint digest is
 * computed over. Includes everything that shapes the simulation
 * (topology, seed, traffic, faults, retry, serve window and
 * maintenance plan) and deliberately EXCLUDES thread counts —
 * restoring into a different --engine-threads is supported and
 * byte-identical.
 */
std::string canonicalConfigString(const Options &opts);

/**
 * The instance `--serve` runs: the first sweep point's network and
 * extras, one driver per endpoint (closed or open loop, seeded as
 * the experiment runner seeds them), everything a checkpoint covers,
 * and the runner settings. Tests and the checkpoint fuzzer restore
 * into this same shape.
 */
struct ServeSetup
{
    SweepInstance instance;
    std::unique_ptr<DestinationGenerator> dests;
    std::vector<std::unique_ptr<Component>> drivers;
    CheckpointParticipants parts;
    ServeConfig config;
};

/** Build the serve instance for `opts` (fatal on a bad option). */
std::unique_ptr<ServeSetup> buildServeSetup(const Options &opts);

/** The command-line-only knob table. */
const std::vector<Knob<Options>> &runKnobs();

/**
 * Parse argv: `--name=value` for every row of pointKnobs() and
 * runKnobs(), a bare `--name` for switches. A `--sweep-file` is
 * applied first, wherever it appears. On error returns std::nullopt
 * and fills `error` with a message; `--help` sets Options::help.
 */
std::optional<Options> parseOptions(int argc, const char *const *argv,
                                    std::string &error);

/** The usage text shown for --help and on errors, generated from
 *  the knob tables. */
std::string usageText();

/**
 * Run what `options` asks for and return the rendered report. The
 * sweep file's claims are checked against the sweep into
 * `verdicts` when it is given.
 */
std::string runFromOptions(const Options &options,
                           std::vector<ClaimVerdict> *verdicts = nullptr);

/**
 * --supervise entry point: build a SupervisorConfig from the parsed
 * options (exePath + rawArgs) and run the watchdog loop. Returns
 * the process exit code. The caller dispatches here INSTEAD of
 * runFromOptions.
 */
int runSupervisedFromOptions(const Options &options);

} // namespace metro

#endif // METRO_APP_OPTIONS_HH
