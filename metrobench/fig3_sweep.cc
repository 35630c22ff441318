/**
 * @file
 * fig3_sweep: the paper's Figure 3 load–latency curve.
 *
 * The fig3 network (64 endpoints, 3 stages), uniform closed-loop
 * traffic of 20-word messages, think times {2000, 500, 100, 20, 0},
 * two replicates each (the settings of experiments/fig3_sweep.ini),
 * run by runSweep on 2 sweep workers with engine threads = 1. One
 * repetition is one whole sweep; every point builds its own network,
 * so set-up is the summed build time of the ten points.
 */

#include <algorithm>

#include "network/presets.hh"
#include "report/json.hh"
#include "sweep/sweep.hh"
#include "workloads.hh"

namespace mb
{

namespace
{

using namespace metro;

const unsigned kThinks[] = {2000, 500, 100, 20, 0};
constexpr unsigned kReplicates = 2;
constexpr unsigned kSweepWorkers = 2;

/**
 * What the benchmark sees of one point from outside runSweep, via
 * the point's build and inspect hooks. Each probe is written only by
 * the worker that runs its point and read after runSweep returns.
 */
struct PointProbe
{
    double buildSeconds = 0.0;
    double builtAt = 0.0;
    Cycle cycles = 0;
    std::uint64_t ticksSkipped = 0;
    std::uint64_t linksFastpathed = 0;
    std::size_t components = 0;
    std::size_t links = 0;
    std::size_t ledger = 0;
    std::string audit;
};

/** The sweep's points; their hooks fill `probes` and hang detail
 *  spans under the span id `*parent` names. */
std::vector<SweepPoint>
makePoints(std::uint64_t seed, std::vector<PointProbe> &probes,
           const std::uint32_t *parent)
{
    std::vector<SweepPoint> points;
    for (const unsigned think : kThinks) {
        for (unsigned rep = 0; rep < kReplicates; ++rep) {
            SweepPoint p;
            p.label = "think=" + std::to_string(think);
            p.replicate = rep;
            p.mode = SweepMode::Closed;
            p.config.messageWords = 20;
            p.config.warmup = 1000;
            p.config.measure = 6000;
            p.config.thinkTime = think;
            p.config.pattern = TrafficPattern::UniformRandom;
            p.config.seed = seed;
            points.push_back(std::move(p));
        }
    }
    probes.assign(points.size(), PointProbe{});
    for (std::size_t i = 0; i < points.size(); ++i) {
        PointProbe *probe = &probes[i];
        points[i].build = [seed, probe, parent](std::uint64_t) {
            Span span("network.buildMultibutterfly", Span::Detail,
                      *parent);
            const double t0 = now();
            SweepInstance instance;
            instance.network = buildMultibutterfly(fig3Spec(seed));
            probe->builtAt = now();
            probe->buildSeconds = probe->builtAt - t0;
            probe->links = instance.network->numLinks();
            return instance;
        };
        points[i].inspect = [probe, parent](Network &net,
                                            const ExperimentResult &) {
            if (Tracer::get().detail())
                Tracer::get().recordSpan("traffic.runClosedLoop",
                                         probe->builtAt, now(),
                                         *parent);
            Span span("sweep.audit", Span::Detail, *parent);
            probe->cycles = net.engine().now();
            probe->ticksSkipped = net.engine().ticksSkipped();
            probe->linksFastpathed = net.engine().linksFastpathed();
            probe->components = net.engine().scheduledCount();
            probe->ledger = net.tracker().size();
            probe->audit = auditLedger(net.tracker());
        };
    }
    return points;
}

/** Simulated counts of one sweep (identical in every repetition). */
void
reportSweepCounts(const SweepResult &res,
                  const std::vector<PointProbe> &probes, Result &out)
{
    double requests = 0, blocks = 0, completed = 0, gaveUp = 0;
    double attempts = 0, resolved = 0, skipped = 0, fastpathed = 0;
    double componentCycles = 0, linkCycles = 0, ledger = 0;
    double latencyMin = 0, latencyMean = 0;
    for (std::size_t i = 0; i < res.points.size(); ++i) {
        const ExperimentResult &r = res.points[i].result;
        const PointProbe &p = probes[i];
        requests += static_cast<double>(r.routerTotals.get("requests"));
        blocks += static_cast<double>(r.routerTotals.get("blocks"));
        completed += static_cast<double>(r.completedMessages);
        gaveUp += static_cast<double>(r.gaveUpMessages);
        attempts += r.attemptsAll.mean() *
                    static_cast<double>(r.attemptsAll.count());
        resolved += static_cast<double>(r.attemptsAll.count());
        skipped += static_cast<double>(p.ticksSkipped);
        fastpathed += static_cast<double>(p.linksFastpathed);
        // runClosedLoop removes its drivers before inspect runs: add
        // back one driver per active endpoint.
        componentCycles +=
            static_cast<double>(p.components + r.activeEndpoints) *
            static_cast<double>(p.cycles);
        linkCycles += static_cast<double>(p.links) *
                      static_cast<double>(p.cycles);
        ledger = std::max(ledger, static_cast<double>(p.ledger));
        if (res.points[i].label == "think=2000" &&
            res.points[i].replicate == 0) {
            latencyMin = r.latency.min();
            latencyMean = r.latency.mean();
        }
    }
    out.set("network.links", static_cast<double>(probes[0].links),
            "count");
    out.set("network.components",
            static_cast<double>(probes[0].components), "count");
    out.set("sim.ticks_skipped", skipped, "count");
    out.set("sim.skip_ratio", skipped / componentCycles, "ratio");
    out.set("sim.links_fastpathed", fastpathed, "count");
    out.set("sim.fastpath_ratio", fastpathed / linkCycles, "ratio");
    out.set("router.requests", requests, "count");
    out.set("router.blocks", blocks, "count");
    out.set("router.block_ratio", requests > 0 ? blocks / requests : 0,
            "ratio");
    out.set("endpoint.msgs_completed", completed, "count");
    out.set("endpoint.attempts_per_msg",
            resolved > 0 ? attempts / resolved : 0, "ratio");
    out.set("endpoint.gave_up", gaveUp, "count");
    out.set("endpoint.ledger_records", ledger, "count");
    out.set("endpoint.unloaded_latency_cycles", latencyMin, "cycles");
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "reference check: think=2000 latency min %.0f, mean "
                  "%.2f cycles (paper: 28-cycle unloaded latency)",
                  latencyMin, latencyMean);
    out.note(buf);
}

} // namespace

void
runFig3Sweep(const RunOptions &opts, Result &out)
{
    std::uint32_t sweepSpan = 0;
    std::vector<PointProbe> probes;
    const std::vector<SweepPoint> points =
        makePoints(opts.seed, probes, &sweepSpan);
    SweepOptions sopts;
    sopts.threads = kSweepWorkers;
    sopts.engineThreads = 1;

    // Runs one sweep and checks it: every point ran and passed the
    // exactly-once ledger audit, and its payload matches the first
    // sweep's. Returns the sweep's wall seconds.
    std::string firstDigest;
    std::vector<double> setups, rates, pointSecs, pointMax, busy;
    std::vector<double> builds;
    const auto sweepOnce = [&]() {
        Span repetition("sweep.repetition");
        SweepResult res;
        double wall = 0;
        {
            Span call("sweep.runSweep");
            sweepSpan = call.id();
            const double t0 = now();
            res = runSweep(points, sopts);
            wall = now() - t0;
        }

        Span check("sweep.check");
        double setup = 0, cycles = 0, busySum = 0, maxPoint = 0;
        for (std::size_t i = 0; i < res.points.size(); ++i) {
            const PointProbe &p = probes[i];
            out.check(!res.points[i].skipped && p.audit.empty(),
                      "fig3_sweep point " + res.points[i].label +
                          " exactly-once audit: " + p.audit);
            setup += p.buildSeconds;
            builds.push_back(p.buildSeconds);
            cycles += static_cast<double>(p.cycles);
            busySum += res.points[i].wallSeconds;
            maxPoint = std::max(maxPoint, res.points[i].wallSeconds);
            pointSecs.push_back(res.points[i].wallSeconds);
        }
        const std::string digest = hex64(
            fnv1a(simulatedOnly(sweepJson(res, false, true))));
        if (firstDigest.empty()) {
            firstDigest = digest;
            reportSweepCounts(res, probes, out);
        } else {
            out.check(digest == firstDigest,
                      "fig3_sweep payload differs between repetitions");
        }
        setups.push_back(setup);
        rates.push_back(cycles / wall);
        pointMax.push_back(maxPoint);
        busy.push_back(busySum / (kSweepWorkers * wall));
        return wall;
    };

    {
        // One untimed sweep first: caches and the allocator warm up,
        // and its payload is the reference the timed ones must match.
        Span warm("warmup", Span::Top);
        sweepOnce();
        setups.clear();
        rates.clear();
        pointSecs.clear();
        pointMax.clear();
        busy.clear();
        builds.clear();
    }
    Repetitions reps;
    {
        Span timed("timed", Span::Top);
        reps = repeatFor(opts, opts.trace ? 2 : 1,
                         [&](unsigned, bool) { return sweepOnce(); });
    }
    out.digest = firstDigest;

    std::vector<double> pointMs;
    for (const double s : pointSecs)
        pointMs.push_back(s * 1e3);
    const Tail t = tail(pointMs);
    out.set("setup_s", median(setups), "s");
    out.set("wall_s", median(reps.all), "s");
    out.set("sim_cycles_per_s", median(rates), "1/s");
    out.set("step_ms_p50", median(pointMs), "ms");
    out.set("step_ms_tail", t.value, "ms");
    out.note(describeTail("sweep point", t, "ms"));
    out.note("repetitions: " + std::to_string(reps.all.size()) +
             " sweeps of " + std::to_string(points.size()) + " points");

    out.set("network.build_s", median(builds), "s");
    out.set("sweep.point_s_p50", median(pointSecs), "s");
    out.set("sweep.point_s_max", median(pointMax), "s");
    out.set("sweep.worker_busy_ratio", median(busy), "ratio");
    out.set("trace.overhead_frac", overheadFrac(reps), "ratio");
}

} // namespace mb
