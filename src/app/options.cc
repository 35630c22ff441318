#include "app/options.hh"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>

#include <unistd.h>

#include "common/logging.hh"
#include "diag/engine.hh"
#include "fault/campaign.hh"
#include "fault/injector.hh"
#include "obs/tracer.hh"
#include "report/csv.hh"
#include "report/dot.hh"
#include "report/json.hh"
#include "report/stats_dump.hh"
#include "serve/service.hh"
#include "serve/signal.hh"
#include "serve/supervisor.hh"
#include "traffic/drivers.hh"

namespace metro
{

namespace
{

std::vector<Knob<Options>>
makeRunKnobs()
{
    using O = Options;
    Knob<O> maintain;
    maintain.name = "maintain";
    maintain.arg = "R@S+D";
    maintain.help = "drain router R at cycle S, keep it disabled D "
                    "cycles (repeatable, or a comma list)";
    maintain.set = [](O &o, const std::string &value) {
        const auto ops = splitList(value);
        for (const auto &text : ops) {
            MaintenanceOp op;
            if (!parseMaintenanceOp(text, op))
                return std::string("expected ROUTER@START+DURATION");
        }
        o.maintain.insert(o.maintain.end(), ops.begin(), ops.end());
        return std::string();
    };
    maintain.show = [](const O &o) {
        std::string out;
        for (const auto &m : o.maintain)
            out += (out.empty() ? "" : ",") + m;
        return out;
    };
    return {
        boolKnob<O>("csv", METRO_KNOB_FIELD(csv),
                    "emit CSV instead of a table"),
        boolKnob<O>("stats", METRO_KNOB_FIELD(stats),
                    "append router/endpoint statistics to the table"),
        textKnob<O>("sweepFile", METRO_KNOB_FIELD(sweepFile),
                    "apply a sweep spec's keys, then the command line"),
        boolKnob<O>("json", METRO_KNOB_FIELD(json),
                    "emit sweep results as JSON"),
        boolKnob<O>("timing", METRO_KNOB_FIELD(timing),
                    "include wall-clock metadata and the engine "
                    "self-profile in JSON"),
        boolKnob<O>("metricsJson", METRO_KNOB_FIELD(metricsJson),
                    "include per-point metrics blobs (implies --json)"),
        textKnob<O>("traceConnections", METRO_KNOB_FIELD(traceConnections),
                    "write a chrome://tracing JSON of the last point"),
        boolKnob<O>("dot", METRO_KNOB_FIELD(dot),
                    "print the topology as Graphviz DOT"),
        boolKnob<O>("serve", METRO_KNOB_FIELD(serve),
                    "service mode: stream windowed JSONL metric deltas"),
        numKnob<O>("serveCycles", METRO_KNOB_FIELD(serveCycles),
                   "absolute cycle to stop serving at (0 = until "
                   "SIGINT/SIGTERM)"),
        numKnob<O>("window", METRO_KNOB_FIELD(window),
                   "cycles per metrics window", 1),
        textKnob<O>("checkpointOut", METRO_KNOB_FIELD(checkpointOut),
                    "write a checkpoint here (at --checkpoint-at, and on "
                    "SIGINT)"),
        numKnob<O>("checkpointAt", METRO_KNOB_FIELD(checkpointAt),
                   "boundary cycle for the one-shot checkpoint", 1),
        textKnob<O>("restore", METRO_KNOB_FIELD(restorePath),
                    "resume from a checkpoint (same config; "
                    "--engine-threads may differ)"),
        boolKnob<O>("restoreAuto", METRO_KNOB_FIELD(restoreAuto),
                    "resume from the newest valid checkpoint in the "
                    "store"),
        numKnob<O>("checkpointEvery", METRO_KNOB_FIELD(checkpointEvery),
                   "durable checkpoint every N cycles into the store "
                   "rooted at --checkpoint-out", 1),
        numKnob<O>("checkpointKeep", METRO_KNOB_FIELD(checkpointKeep),
                   "checkpoints retained in the store", 1),
        maintain,
        boolKnob<O>("supervise", METRO_KNOB_FIELD(supervise),
                    "run serve in a watched child; restart it from the "
                    "store on crash or stall"),
        numKnob<O>("restartBudget", METRO_KNOB_FIELD(restartBudget),
                   "restarts before giving up"),
        numKnob<O>("stallTimeoutMs", METRO_KNOB_FIELD(stallTimeoutMs),
                   "no-progress deadline before SIGKILL", 1),
        numKnob<O>("restartBackoffMs", METRO_KNOB_FIELD(restartBackoffMs),
                   "crash-loop backoff base"),
        numKnob<O>("crashAtCycle", METRO_KNOB_FIELD(crashAtCycle),
                   "torture harness: abort() at engine cycle N", 1),
        numKnob<O>("stallAtCycle", METRO_KNOB_FIELD(stallAtCycle),
                   "torture harness: hang at engine cycle N", 1),
    };
}

/** The row of `table` spelled `flag` on the command line. */
template <class T>
const Knob<T> *
findFlag(const std::vector<Knob<T>> &table, const std::string &flag)
{
    for (const auto &k : table)
        if (k.cliFlag() == flag)
            return &k;
    return nullptr;
}

/** One usage line per row, with the struct-initializer default. */
template <class T>
void
appendUsage(std::string &out, const std::vector<Knob<T>> &table)
{
    const T defaults{};
    for (const auto &k : table) {
        std::string line = "  " + k.cliFlag();
        if (!k.arg.empty())
            line += "=" + k.arg;
        if (line.size() < 24)
            line.resize(24, ' ');
        else
            line += "\n" + std::string(24, ' ');
        line += k.help;
        const std::string def = k.show(defaults);
        if (!k.arg.empty() && !def.empty())
            line += " (default " + def + ")";
        out += line + "\n";
    }
}

/**
 * Re-run the last sweep point on this thread — same index, so the
 * same derived seed and a bit-identical run — with the connection
 * tracer attached and/or the statistics report taken from the live
 * network. Returns the statistics report ("" unless `stats`).
 */
std::string
rerunLastPoint(const std::vector<SweepPoint> &points, const Options &opts,
               bool stats)
{
    const bool trace = !opts.traceConnections.empty();
    ConnectionTracer tracer;
    std::string report;
    SweepPoint last = points.back();
    last.inspect = [&](Network &net, const ExperimentResult &) {
        if (trace)
            net.engine().removeComponent(&tracer);
        if (stats)
            report = "\n" + networkHealthSummary(net) + "\n" +
                     stageStatsReport(net) + "\n" +
                     endpointStatsReport(net);
    };
    runPoint(last, points.size() - 1, 1, [&](Network &net) {
        if (trace)
            attachTracer(net, tracer);
    });
    if (trace) {
        std::ofstream out(opts.traceConnections, std::ios::binary);
        if (!out)
            METRO_FATAL("--trace-connections: cannot open %s",
                        opts.traceConnections.c_str());
        out << tracer.chromeTraceJson();
    }
    return report;
}

std::vector<SweepPoint>
pointsOrDie(const SweepConfig &config, const SweepSections &sections = {})
{
    std::string error;
    auto points = expandSweep(config, sections, error);
    if (!points.has_value())
        METRO_FATAL("%s", error.c_str());
    return std::move(*points);
}

/**
 * Service mode: one long-lived instance of the first point, every
 * endpoint driven, windowed metric deltas streamed to stdout as
 * JSON lines. See docs/operations.md.
 */
std::string
runServe(const Options &opts)
{
    const auto setup = buildServeSetup(opts);
    Network &net = *setup->instance.network;
    ServiceRunner runner(setup->config, setup->parts);
    runner.setEmitter([](const std::string &line) {
        std::fwrite(line.data(), 1, line.size(), stdout);
        std::fputc('\n', stdout);
        std::fflush(stdout);
    });

    if (!opts.restorePath.empty()) {
        const std::string err =
            runner.restoreFromFile(opts.restorePath);
        if (!err.empty())
            METRO_FATAL("--restore: %s", err.c_str());
    } else if (opts.restoreAuto) {
        bool restored = false;
        const std::string err = runner.restoreFromStore(restored);
        if (!err.empty())
            METRO_FATAL("--restore-auto: %s", err.c_str());
        // An empty (or fully-corrupt) store is a fresh start, not
        // an error: the first supervised child has no history.
    }

    // Supervised children report window-boundary progress into the
    // watchdog's heartbeat pipe.
    if (const char *hb = std::getenv("METRO_HEARTBEAT_FD")) {
        const int fd = std::atoi(hb);
        if (fd > 0) {
            runner.setHeartbeat([fd](Cycle now) {
                char buf[32];
                const int n = std::snprintf(
                    buf, sizeof(buf), "%llu\n",
                    static_cast<unsigned long long>(now));
                if (::write(fd, buf, static_cast<size_t>(n)) < 0) {
                    // Supervisor gone; nothing useful to do.
                }
            });
        }
    }

    const std::string violation =
        runner.run([] { return requestedStop(); });
    if (!violation.empty())
        METRO_FATAL("serve: %s", violation.c_str());

    // Interrupted (SIGINT/SIGTERM): persist a final checkpoint so
    // the operator can resume. A clean --serve-cycles completion
    // must NOT overwrite the one-shot mid-run checkpoint. In store
    // mode the final checkpoint goes into the retention store like
    // every periodic one.
    if (requestedStop() && !opts.checkpointOut.empty()) {
        const std::string err =
            opts.checkpointEvery != 0
                ? runner.checkpointToStore()
                : runner.checkpointToFile(opts.checkpointOut);
        if (!err.empty())
            METRO_FATAL("--checkpoint-out: %s", err.c_str());
    }

    if (opts.metricsJson)
        return metricsJson(net.metricsSnapshot()) + "\n";
    return "";
}

} // namespace

std::unique_ptr<ServeSetup>
buildServeSetup(const Options &opts)
{
    auto setup = std::make_unique<ServeSetup>();
    const SweepPoint point = pointsOrDie(opts.config).front();
    const ExperimentConfig &cfg = point.config;
    setup->instance = point.build(cfg.seed);
    Network &net = *setup->instance.network;
    Engine &engine = net.engine();

    const auto n = static_cast<unsigned>(net.numEndpoints());
    setup->dests = std::make_unique<DestinationGenerator>(
        cfg.pattern, n, cfg.seed ^ 0x77, cfg.hotNode, cfg.hotFraction);
    DriverConfig dcfg;
    dcfg.messageWords = cfg.messageWords;
    dcfg.process = cfg.process;
    dcfg.size = cfg.size;
    dcfg.fanout = cfg.fanout;
    dcfg.classMix = cfg.classMix;
    // stopAt stays kNever: serve runs until stopped, not drained.

    // Same per-endpoint seed derivation as the experiment runner so
    // serve traffic matches a sweep point with the same options.
    CheckpointParticipants &parts = setup->parts;
    parts.net = &net;
    for (unsigned e = 0; e < n; ++e) {
        if (point.mode == SweepMode::Closed) {
            auto d = std::make_unique<ClosedLoopDriver>(
                &net.endpoint(e), setup->dests.get(), dcfg,
                cfg.thinkTime, cfg.seed ^ (0x5151ULL * (e + 1)));
            parts.closedDrivers.push_back(d.get());
            setup->drivers.push_back(std::move(d));
        } else {
            auto d = std::make_unique<OpenLoopDriver>(
                &net.endpoint(e), setup->dests.get(), dcfg,
                cfg.injectProb, cfg.seed ^ (0x7272ULL * (e + 1)));
            parts.openDrivers.push_back(d.get());
            setup->drivers.push_back(std::move(d));
        }
        engine.addComponent(setup->drivers.back().get());
    }
    for (auto &extra : setup->instance.extras) {
        if (auto *p = dynamic_cast<FaultInjector *>(extra.get()))
            parts.injector = p;
        if (auto *p = dynamic_cast<FaultCampaign *>(extra.get()))
            parts.campaign = p;
        if (auto *p = dynamic_cast<DiagnosisEngine *>(extra.get()))
            parts.diagnosis = p;
    }

    if (opts.config.engineThreads != 1)
        engine.setThreads(opts.config.engineThreads);

    ServeConfig &scfg = setup->config;
    scfg.window = opts.window;
    scfg.runCycles = opts.serveCycles;
    scfg.configDigest = checkpointDigest(canonicalConfigString(opts));
    scfg.checkpointOut = opts.checkpointOut;
    scfg.checkpointAt = opts.checkpointAt;
    scfg.checkpointEvery = opts.checkpointEvery;
    scfg.checkpointKeep = opts.checkpointKeep;
    scfg.crashAtCycle = opts.crashAtCycle;
    scfg.stallAtCycle = opts.stallAtCycle;
    for (const auto &text : opts.maintain) {
        MaintenanceOp op;
        if (!parseMaintenanceOp(text, op))
            METRO_FATAL("bad --maintain value: %s", text.c_str());
        scfg.maintenance.push_back(op);
    }
    return setup;
}

const std::vector<Knob<Options>> &
runKnobs()
{
    static const std::vector<Knob<Options>> table = makeRunKnobs();
    return table;
}

std::string
usageText()
{
    std::string out =
        "metro_sim — drive a METRO network simulation\n"
        "\n"
        "usage: metro_sim [options]\n"
        "\n"
        "Simulation knobs (in a --sweep-file, the same names in\n"
        "camelCase: --message-words=8 is messageWords = 8):\n";
    appendUsage(out, pointKnobs());
    out += "\nCommand line only:\n";
    appendUsage(out, runKnobs());
    out += "  --help                this text\n";
    return out;
}

std::optional<Options>
parseOptions(int argc, const char *const *argv, std::string &error)
{
    Options opts;
    // --supervise re-execs the binary with the same arguments, so
    // keep the raw command line around verbatim.
    if (argc > 0) {
        opts.exePath = argv[0];
        opts.rawArgs.assign(argv + 1, argv + argc);
    }

    // A --sweep-file goes first wherever it appears, so the rest of
    // the command line overrides it key by key.
    for (const auto &raw : opts.rawArgs) {
        if (raw.rfind("--sweep-file=", 0) != 0)
            continue;
        const std::string path = raw.substr(13);
        const auto slash = path.find_last_of('/');
        std::string text;
        if (!readTextFile(path, text, error) ||
            !applySweepText(text,
                            slash == std::string::npos
                                ? ""
                                : path.substr(0, slash),
                            opts.config, opts.sections, error)) {
            error = "--sweep-file: " + error;
            return std::nullopt;
        }
    }
    // Point flags apply to the shared keys and again over each run.
    std::vector<std::pair<const Knob<SweepConfig> *, std::string>> flags;
    for (const auto &raw : opts.rawArgs) {
        const auto eq = raw.find('=');
        const std::string flag = raw.substr(0, eq);
        if (flag == "--help") {
            opts.help = true;
            return opts;
        }
        const auto *point = findFlag(pointKnobs(), flag);
        const auto *run = point ? nullptr : findFlag(runKnobs(), flag);
        if (point == nullptr && run == nullptr) {
            error = "unknown option: " + flag;
            return std::nullopt;
        }
        if (eq == std::string::npos && !(point ? point->arg : run->arg)
                                           .empty()) {
            error = flag + " requires a value";
            return std::nullopt;
        }
        // A bare switch means true.
        const std::string value =
            eq == std::string::npos ? "true" : raw.substr(eq + 1);
        const std::string reason = point ? point->set(opts.config, value)
                                         : run->set(opts, value);
        if (!reason.empty()) {
            error = "bad value for " + flag + ": " + value + " (" +
                    reason + ")";
            return std::nullopt;
        }
        if (point != nullptr)
            flags.emplace_back(point, value);
    }
    for (SweepRun &run : opts.sections.runs)
        for (const auto &[knob, value] : flags)
            knob->set(run.config, value);

    // Reject inconsistent retry and workload knobs, and claims that
    // name no point, with a parser-grade message rather than a
    // mid-build assertion.
    if (!expandSweep(opts.config, opts.sections, error).has_value())
        return std::nullopt;
    // Like a fault target, a drained router must exist: the drain
    // would otherwise fail an assertion when its window comes.
    if (!opts.maintain.empty()) {
        const auto routers = opts.config.network.build()->numRouters();
        for (const auto &text : opts.maintain) {
            MaintenanceOp op;
            parseMaintenanceOp(text, op);
            if (op.router >= routers) {
                error = "bad value for --maintain: " + text + " (router " +
                        std::to_string(op.router) +
                        " out of range (the network has " +
                        std::to_string(routers) + " routers))";
                return std::nullopt;
            }
        }
    }
    const std::pair<bool, const char *> conflicts[] = {
        {opts.serve && !opts.sections.runs.empty(),
         "--serve runs one network: drop the sweep file's [run] "
         "sections"},
        {opts.serve && opts.config.mode == SweepMode::Session,
         "--serve does not support --mode=session yet (session drivers "
         "are not checkpointable)"},
        {opts.checkpointEvery != 0 && opts.checkpointOut.empty(),
         "--checkpoint-every requires --checkpoint-out (the store's "
         "base path)"},
        {opts.restoreAuto && opts.checkpointEvery == 0,
         "--restore-auto requires --checkpoint-every (the retention "
         "store)"},
        {opts.restoreAuto && !opts.restorePath.empty(),
         "--restore-auto and --restore are mutually exclusive"},
        {opts.supervise && !opts.serve, "--supervise requires --serve"},
        {opts.supervise && opts.checkpointEvery == 0,
         "--supervise requires --checkpoint-every (crash recovery "
         "needs a checkpoint store)"},
        {(opts.crashAtCycle != 0 || opts.stallAtCycle != 0) &&
             !opts.serve,
         "--crash-at-cycle/--stall-at-cycle require --serve"},
    };
    for (const auto &[conflict, message] : conflicts) {
        if (conflict) {
            error = message;
            return std::nullopt;
        }
    }
    return opts;
}

std::string
canonicalConfigString(const Options &opts)
{
    // Rows that do not shape a serve run's state: thread counts
    // (output is byte-identical at every value), output formats and
    // paths, serve run control, supervisor and torture knobs, and
    // the experiment-window knobs serve ignores (it has no
    // experiment windows, drives every endpoint without replies and
    // runs one instance).
    static const std::set<std::string> outside = {
        "threads", "engineThreads", "csv", "stats", "json", "timing",
        "metricsJson", "dot", "traceConnections", "sweepFile",
        "checkpointOut", "restore", "serve", "serveCycles",
        "checkpointAt", "checkpointEvery", "checkpointKeep",
        "restoreAuto", "supervise", "restartBudget", "stallTimeoutMs",
        "restartBackoffMs", "crashAtCycle", "stallAtCycle", "warmup",
        "measure", "drainMax", "activeFraction", "availabilityWindow",
        "requestReply", "replicates",
    };
    std::string out;
    const auto rows = [&out](const auto &table, const auto &source) {
        for (const auto &k : table)
            if (outside.count(k.name) == 0)
                out += std::string(k.name) + "=" + k.show(source) + "\n";
    };
    rows(pointKnobs(), opts.config);
    rows(runKnobs(), opts);
    return out;
}

int
runSupervisedFromOptions(const Options &opts)
{
    SupervisorConfig cfg;
    cfg.exe = opts.exePath;
    cfg.args = opts.rawArgs;
    cfg.restartBudget = opts.restartBudget;
    cfg.stallTimeoutMs = opts.stallTimeoutMs;
    cfg.backoffBaseMs = opts.restartBackoffMs;
    return runSupervisor(cfg);
}

std::string
runFromOptions(const Options &opts, std::vector<ClaimVerdict> *verdicts)
{
    if (opts.dot) {
        const std::string &spec = opts.config.network.specPath;
        return networkToDot(*opts.config.network.build(),
                            spec.empty() ? "metro" : spec);
    }
    if (opts.serve)
        return runServe(opts);

    const auto points = pointsOrDie(opts.config, opts.sections);
    SweepOptions sopts;
    sopts.threads = opts.config.threads;
    sopts.engineThreads = opts.config.engineThreads;
    sopts.profileEngine = opts.timing;
    sopts.stopRequested = [] { return requestedStop(); };
    const auto sweep = runSweep(points, sopts);
    if (verdicts != nullptr)
        *verdicts = checkClaims(opts.sections.claims, sweep);

    // A sweep file reports the sweep's CSV; the plain command line
    // a table, or with --csv one row per point.
    const bool json = opts.json || opts.metricsJson;
    const bool table = !json && !opts.csv && opts.sweepFile.empty();
    std::string stats;
    if (!points.empty() &&
        (!opts.traceConnections.empty() || (opts.stats && table)))
        stats = rerunLastPoint(points, opts, opts.stats && table);

    if (json)
        return sweepJson(sweep, opts.timing, opts.metricsJson);
    if (!opts.sweepFile.empty())
        return sweepCsv(sweep);

    CsvWriter csv;
    std::ostringstream out;
    if (opts.csv)
        csv.row(experimentCsvHeader());
    else
        out << "metro_sim: "
            << findKnob(pointKnobs(), "mode")->show(opts.config)
            << "-loop "
            << trafficPatternName(opts.config.experiment.pattern)
            << " traffic\n"
            << "  label       load   latency    median       p95  "
               "attempts   blockRate\n";

    for (const auto &p : sweep.points) {
        if (p.skipped)
            continue;
        const ExperimentResult &result = p.result;
        if (opts.csv) {
            csv.row(experimentCsvRow(p.label, result));
        } else {
            char line[160];
            std::snprintf(line, sizeof(line),
                          "  %-10s %6.4f %9.2f %9llu %9llu %9.3f "
                          "%11.4f\n",
                          p.label.c_str(), result.achievedLoad,
                          result.latency.mean(),
                          static_cast<unsigned long long>(
                              result.latency.median()),
                          static_cast<unsigned long long>(
                              result.latency.percentile(95)),
                          result.attempts.mean(),
                          result.blockRate());
            out << line;
        }
    }
    return opts.csv ? csv.str() : out.str() + stats;
}

} // namespace metro
