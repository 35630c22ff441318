/**
 * @file
 * mb1024_saturated: the 1024-endpoint, 5-stage mb1024Spec network,
 * every endpoint a closed-loop driver with think time 0, stepped in
 * fixed 100-cycle chunks by the sharded engine at min(4, nproc)
 * threads. One repetition is a block of 10 chunks (1000 cycles); a
 * fresh instance is built and warmed up every 8 blocks.
 *
 * The output digest is the network's metrics snapshot at cycle 1500
 * (500 warm-up cycles plus the first block). The same instance built
 * and stepped at 1 engine thread must reach the same digest.
 */

#include <algorithm>
#include <memory>

#include "network/presets.hh"
#include "traffic/drivers.hh"
#include "workloads.hh"

namespace mb
{

namespace
{

using namespace metro;

constexpr Cycle kWarmup = 500;
constexpr Cycle kChunk = 100;
constexpr unsigned kChunksPerBlock = 10;
constexpr Cycle kBlock = kChunk * kChunksPerBlock;
constexpr unsigned kSetups = 9;
constexpr unsigned kBlocksPerEpoch = 8;

struct SaturatedNet
{
    std::unique_ptr<Network> net;
    std::unique_ptr<DestinationGenerator> dests;
    std::vector<std::unique_ptr<ClosedLoopDriver>> drivers;
    double buildSeconds = 0.0; ///< buildMultibutterfly alone

    /** Free the instance, drivers first (they point into it). */
    void
    reset()
    {
        drivers.clear();
        dests.reset();
        net.reset();
    }
};

SaturatedNet
buildSaturated(std::uint64_t seed, unsigned threads)
{
    SaturatedNet s;
    {
        Span span("network.buildMultibutterfly");
        const double t0 = now();
        s.net = buildMultibutterfly(mb1024Spec(seed));
        s.buildSeconds = now() - t0;
    }
    Span span("traffic.attachDrivers");
    const auto n = static_cast<NodeId>(s.net->numEndpoints());
    s.dests = std::make_unique<DestinationGenerator>(
        TrafficPattern::UniformRandom, n, seed ^ 0x77);
    DriverConfig dcfg;
    dcfg.messageWords = 20;
    for (NodeId e = 0; e < n; ++e) {
        s.drivers.push_back(std::make_unique<ClosedLoopDriver>(
            &s.net->endpoint(e), s.dests.get(), dcfg, /*think=*/0,
            seed ^ (0x5151ULL * (e + 1))));
        s.net->engine().addComponent(s.drivers.back().get());
    }
    s.net->engine().setThreads(threads);
    return s;
}

/** Digest of the simulated state; also audits the ledger. */
std::string
digestAt(SaturatedNet &s, Result &out, const char *what)
{
    Span span("obs.metricsSnapshot");
    const std::string audit = auditLedger(s.net->tracker());
    out.check(audit.empty(),
              std::string("mb1024 exactly-once audit (") + what +
                  "): " + audit);
    return hex64(fnv1a(
        simulatedOnly(metricsJson(s.net->metricsSnapshot()))));
}

} // namespace

void
runMb1024Saturated(const RunOptions &opts, Result &out)
{
    const unsigned threads = std::min(4u, hardwareThreads());
    // The comparison instance: 1 thread, or 2 on a 1-thread host.
    const unsigned otherThreads = threads == 1 ? 2 : 1;
    out.note("engine threads: " + std::to_string(threads) +
             " (digest re-checked at " + std::to_string(otherThreads) +
             ")");

    SaturatedNet s;
    std::vector<double> setups, builds;
    // Builds a fresh instance: one set-up sample.
    const auto fresh = [&]() {
        s.reset(); // free the previous instance first
        Span one("setup.mb1024");
        const double t0 = now();
        s = buildSaturated(opts.seed, threads);
        setups.push_back(now() - t0);
        builds.push_back(s.buildSeconds);
    };
    const auto warmup = [&]() {
        Span warm("sim.warmup");
        s.net->engine().run(kWarmup);
    };
    {
        Span setup("setup", Span::Top);
        for (unsigned k = 0; k < kSetups; ++k)
            fresh();
        warmup();
    }

    std::vector<double> chunkMs, rates;
    double runSeconds = 0.0, componentTicks = 0.0, parked = 0.0;
    Repetitions reps;
    {
        Span timed("timed", Span::Top);
        reps = repeatFor(opts, 2, [&](unsigned rep, bool) {
            // The ledger never retires records, so a long run would
            // grow memory and per-cycle cost with host speed: every
            // kBlocksPerEpoch blocks start again from a fresh instance
            // (untimed), so every run samples the same states.
            if (rep > 0 && rep % kBlocksPerEpoch == 0) {
                fresh();
                warmup();
            }
            Engine &eng = s.net->engine();
            const double skipped0 =
                static_cast<double>(eng.ticksSkipped());
            const double parked0 =
                static_cast<double>(eng.shardCyclesParked());
            double block = 0.0;
            {
                Span span("sim.block");
                for (unsigned c = 0; c < kChunksPerBlock; ++c) {
                    Span chunk("sim.Engine::run");
                    const double t0 = now();
                    eng.run(kChunk);
                    const double dt = now() - t0;
                    block += dt;
                    chunkMs.push_back(dt * 1e3);
                }
            }
            runSeconds += block;
            rates.push_back(static_cast<double>(kBlock) / block);
            componentTicks +=
                static_cast<double>(eng.scheduledCount() * kBlock) -
                (static_cast<double>(eng.ticksSkipped()) - skipped0);
            parked += static_cast<double>(eng.shardCyclesParked()) -
                      parked0;
            if (rep % kBlocksPerEpoch == 0) {
                // Outside the block's time: the digest at cycle 1500
                // and, once, the simulated counts that go with it.
                const std::string digest = digestAt(s, out, "threads");
                if (rep == 0) {
                    out.digest = digest;
                    reportNetworkCounts(*s.net,
                                        s.net->metricsSnapshot(), out);
                }
                out.check(digest == out.digest,
                          "mb1024 digest differs between instances");
            }
            return block;
        });
    }
    s.reset();

    double t1Rate = 0.0;
    {
        Span check("check", Span::Top);
        SaturatedNet t1 = buildSaturated(opts.seed, otherThreads);
        t1.net->engine().run(kWarmup);
        const double t0 = now();
        {
            Span span("sim.Engine::run");
            t1.net->engine().run(kBlock);
        }
        t1Rate = static_cast<double>(kBlock) / (now() - t0);
        const std::string other = digestAt(t1, out, "comparison");
        out.check(other == out.digest,
                  "mb1024 digest at " + std::to_string(threads) +
                      " engine threads (" + out.digest + ") != at " +
                      std::to_string(otherThreads) + " (" + other + ")");
    }

    const Tail t = tail(chunkMs);
    out.set("setup_s", median(setups), "s");
    out.set("wall_s", median(reps.all), "s");
    out.set("sim_cycles_per_s", median(rates), "1/s");
    out.set("step_ms_p50", median(chunkMs), "ms");
    out.set("step_ms_tail", t.value, "ms");
    out.note(describeTail("100-cycle chunk", t, "ms"));
    out.note("repetitions: " + std::to_string(reps.all.size()) +
             " blocks of " + std::to_string(kBlock) + " cycles");

    out.set("network.build_s", median(builds), "s");
    out.set("sim.run_s", runSeconds, "s");
    out.set("sim.chunk_ms_p50", median(chunkMs), "ms");
    out.set("sim.chunk_ms_tail", t.value, "ms");
    out.set("sim.component_ticks_per_s", componentTicks / runSeconds,
            "1/s");
    out.set("sim.shard_cycles_parked", parked, "count");
    out.set("sim.t1_cycles_per_s", otherThreads == 1 ? t1Rate : 0.0,
            "1/s");
    out.set("sim.parallel_speedup",
            otherThreads == 1 ? median(rates) / t1Rate : 1.0, "ratio");
    out.set("trace.overhead_frac", overheadFrac(reps), "ratio");
}

} // namespace mb
