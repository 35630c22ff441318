/**
 * @file
 * Sharded parallel engine tests.
 *
 * The engine's parallel mode (Engine::setThreads, sim/engine.hh)
 * promises *byte identity*: no observable — wire trace, message
 * ledger, metrics — may depend on the thread count. The property
 * tests here run seeded fault-campaign scenarios at threads
 * {1, 2, 3, 4, 8} and compare everything byte for byte; the
 * structural tests pin down the plan itself (cost-balanced shard
 * cuts, corrupt-link ends kept serial, parked empty shards, plan
 * rebuilds across mid-campaign component removal) through the
 * engine's shard-introspection API, and the self-profile tests hold
 * the engine's phase accounting to its wall time.
 *
 * The whole suite doubles as the METRO_TSAN target (ci/tsan-engine.sh):
 * the saturated soak keeps every worker busy on shared lanes long
 * enough for the race detector to see any unsynchronized access.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "fault/campaign.hh"
#include "fault/injector.hh"
#include "network/fattree.hh"
#include "network/multibutterfly.hh"
#include "network/presets.hh"
#include "report/csv.hh"
#include "report/json.hh"
#include "report/stats_dump.hh"
#include "sweep/sweep.hh"
#include "trace/probe.hh"
#include "traffic/drivers.hh"
#include "traffic/experiment.hh"

namespace metro
{
namespace
{

/** Everything observable about one scenario run, serialized. */
struct Outcome
{
    std::string trace;   ///< formatted wire-trace bytes
    std::string ledger;  ///< per-message tracker state
    std::string metrics; ///< full metrics snapshot delta (JSON)
};

std::string
ledgerDump(const Network &net)
{
    std::ostringstream ledger;
    for (const auto &[id, rec] : net.tracker().all()) {
        ledger << id << " src" << rec.src << " dst" << rec.dest
               << " sub" << rec.submitCycle << " inj"
               << rec.injectCycle << " del" << rec.deliverCycle
               << " ack" << rec.ackCycle << " cmp"
               << rec.completeCycle << " att" << rec.attempts
               << " ok" << rec.succeeded << " gu" << rec.gaveUp
               << "\n";
    }
    return ledger.str();
}

std::string
traceDump(const LinkProbe &probe, Network &net)
{
    EXPECT_EQ(probe.dropped(), 0u) << "probe capacity too small for "
                                      "a byte-exact comparison";
    std::ostringstream trace;
    for (const auto &e : probe.events())
        trace << formatTraceEvent(e, &net.link(e.link)) << "\n";
    return trace.str();
}

/**
 * The headline scenario: fig1 network, closed-loop request-reply
 * traffic on half the endpoints, and a mid-run fault campaign that
 * hits every mutator the shard planner must survive — link
 * deaths/heals, a corrupt spell (which pins the link's wake targets
 * to the serial section, mid-plan), router death/heal, and scan
 * port-disables. Identical to the quiescence-equivalence scenario
 * so the two harnesses cross-check each other.
 */
Outcome
runCampaignScenario(unsigned threads, std::uint64_t seed)
{
    auto spec = fig1Spec(seed);
    spec.niConfig.maxAttempts = 60;
    auto net = buildMultibutterfly(spec);
    net->engine().setThreads(threads);

    LinkProbe probe(1u << 20);
    for (LinkId l = 0; l < net->numLinks(); ++l)
        probe.watch(&net->link(l));
    net->engine().addComponent(&probe);

    FaultInjector injector(net.get());
    const auto link = [&](std::uint64_t k) {
        return static_cast<std::uint32_t>(k % net->numLinks());
    };
    const auto router = [&](std::uint64_t k) {
        return static_cast<std::uint32_t>(k % net->numRouters());
    };
    injector.schedule({
        {300, FaultKind::LinkDead, link(seed), kInvalidPort},
        {340, FaultKind::LinkCorrupt, link(seed + 7), kInvalidPort},
        {520, FaultKind::RouterDead, router(seed + 3), kInvalidPort},
        {700, FaultKind::LinkHeal, link(seed), kInvalidPort},
        {760, FaultKind::LinkHeal, link(seed + 7), kInvalidPort},
        {900, FaultKind::RouterHeal, router(seed + 3), kInvalidPort},
        {1100, FaultKind::ForwardPortOff, router(seed + 5), 0},
        {1160, FaultKind::BackwardPortOff, router(seed + 11), 0},
        {1400, FaultKind::LinkDead, link(seed + 13), kInvalidPort},
        {1900, FaultKind::LinkHeal, link(seed + 13), kInvalidPort},
    });
    net->engine().addComponent(&injector);

    const MetricsRegistry base = net->metricsSnapshot();

    ExperimentConfig cfg;
    cfg.messageWords = 8;
    cfg.warmup = 100;
    cfg.measure = 2500;
    cfg.thinkTime = 300;
    cfg.activeFraction = 0.5;
    cfg.requestReply = true;
    cfg.seed = seed;
    runClosedLoop(*net, cfg);

    // Idle coda: the network goes quiescent, every shard parks, and
    // the bulk skip accounting must equal the serial run's exactly
    // (engine.ticks_skipped is part of the compared snapshot).
    net->engine().run(3000);

    Outcome out;
    out.trace = traceDump(probe, *net);
    out.ledger = ledgerDump(*net);
    out.metrics =
        metricsJson(net->metricsSnapshot().deltaSince(base));
    return out;
}

TEST(Shard, FaultCampaignByteIdenticalAcrossThreadCounts)
{
    for (std::uint64_t seed : {0x5AADULL, 0xF00DULL}) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        const Outcome serial = runCampaignScenario(1, seed);
        for (unsigned threads : {2u, 3u, 4u, 8u}) {
            SCOPED_TRACE("threads " + std::to_string(threads));
            const Outcome parallel =
                runCampaignScenario(threads, seed);
            EXPECT_EQ(serial.trace, parallel.trace);
            EXPECT_EQ(serial.ledger, parallel.ledger);
            EXPECT_EQ(serial.metrics, parallel.metrics);
        }
    }
}

/**
 * The plan is balanced and complete: min(threads, parallel-safe
 * members) shards, each within one member's tick cost of an equal
 * share of the total, covering every parallel-safe component —
 * which, in a plain build without observers or handlers, is every
 * router and endpoint.
 */
void
expectBalancedPlan(Network &net, unsigned threads)
{
    Engine &engine = net.engine();
    engine.setThreads(threads);

    std::size_t parallel_members = 0;
    std::uint64_t total = 0, max_cost = 0;
    for (std::size_t i = 0; i < engine.scheduledCount(); ++i) {
        Component *c = engine.scheduledComponent(i);
        if (engine.shardOf(c) < 0)
            continue; // serial section: probes, monitors
        ++parallel_members;
        total += c->tickCost();
        max_cost = std::max<std::uint64_t>(max_cost, c->tickCost());
    }
    const std::size_t shards =
        std::min<std::size_t>(threads, parallel_members);
    ASSERT_EQ(engine.shardCount(), shards);

    std::size_t sharded = 0;
    for (std::size_t k = 0; k < shards; ++k) {
        EXPECT_GT(engine.shardMembers(k), 0u);
        sharded += engine.shardMembers(k);
        // |cost * shards - total| <= max_cost * shards, in integers.
        const std::uint64_t scaled = engine.shardCost(k) * shards;
        const std::uint64_t gap =
            scaled > total ? scaled - total : total - scaled;
        EXPECT_LE(gap, max_cost * shards)
            << "shard " << k << " costs " << engine.shardCost(k)
            << " of " << total << " over " << shards << " shards";
    }
    EXPECT_EQ(sharded, parallel_members);

    for (RouterId r = 0; r < net.numRouters(); ++r)
        EXPECT_GE(engine.shardOf(&net.router(r)), 0);
    for (NodeId e = 0; e < net.numEndpoints(); ++e)
        EXPECT_GE(engine.shardOf(&net.endpoint(e)), 0);
}

/** A corrupt link's two end components share its corruption PRNG:
 *  the plan keeps them serial while the fault lasts, and the rest
 *  of the plan stays balanced around them. */
void
expectCorruptEndsSerial(Network &net, unsigned threads)
{
    Engine &engine = net.engine();
    engine.setThreads(threads);
    Link &link = net.link(net.numLinks() / 2);
    link.setFault(LinkFault::Corrupt);
    ASSERT_NE(link.wakeA(), nullptr);
    ASSERT_NE(link.wakeB(), nullptr);
    EXPECT_EQ(engine.shardOf(link.wakeA()), -1);
    EXPECT_EQ(engine.shardOf(link.wakeB()), -1);
    std::size_t sharded = 0;
    for (std::size_t k = 0; k < engine.shardCount(); ++k)
        sharded += engine.shardMembers(k);
    EXPECT_EQ(sharded,
              net.numRouters() + net.numEndpoints() - 2);

    link.setFault(LinkFault::None);
    EXPECT_GE(engine.shardOf(link.wakeA()), 0);
    EXPECT_GE(engine.shardOf(link.wakeB()), 0);
}

TEST(Shard, BalancedPartitionMultibutterfly)
{
    for (unsigned threads : {2u, 3u, 4u, 8u}) {
        SCOPED_TRACE("threads " + std::to_string(threads));
        auto net = buildMultibutterfly(fig3Spec(1));
        expectBalancedPlan(*net, threads);
        expectCorruptEndsSerial(*net, threads);
    }
}

TEST(Shard, BalancedPartitionFatTree)
{
    FatTreeSpec spec;
    spec.levels = 4;
    spec.seed = 1;
    for (unsigned threads : {2u, 3u, 4u}) {
        SCOPED_TRACE("threads " + std::to_string(threads));
        auto net = buildFatTree(spec);
        expectBalancedPlan(*net, threads);
        expectCorruptEndsSerial(*net, threads);
    }
}

TEST(Shard, Mb1024PresetBuildsAndPartitions)
{
    auto spec = mb1024Spec(1);
    EXPECT_EQ(spec.numEndpoints, 1024u);
    EXPECT_EQ(spec.stages.size(), 5u);
    auto net = buildMultibutterfly(spec);
    EXPECT_EQ(net->numEndpoints(), 1024u);
    expectBalancedPlan(*net, 4);
    net->engine().run(50); // idle settle under the parallel plan
}

/** More threads than parallel-safe members: one member per shard. */
TEST(Shard, MoreThreadsThanMembersGivesOneShardEach)
{
    auto net = buildMultibutterfly(fig1Spec(1));
    const std::size_t members = net->numRouters() + net->numEndpoints();
    expectBalancedPlan(*net, static_cast<unsigned>(members + 3));
    for (std::size_t k = 0; k < net->engine().shardCount(); ++k)
        EXPECT_EQ(net->engine().shardMembers(k), 1u);
}

TEST(Shard, EmptyShardsParkWithoutDispatch)
{
    auto net = buildMultibutterfly(fig3Spec(2));
    net->engine().setThreads(4);
    net->engine().run(400); // idle: everything sleeps, shards park
    const std::uint64_t parked = net->engine().shardCyclesParked();
    EXPECT_GT(parked, 0u);
    for (std::size_t k = 0; k < net->engine().shardCount(); ++k)
        EXPECT_TRUE(net->engine().shardParked(k));

    // A send into the parked fabric must wake the path end to end
    // (deferred activations cross shard boundaries at the barrier).
    const auto id = net->endpoint(3).send(60, {0x12, 0x34});
    const bool ok = net->engine().runUntil(
        [&] { return net->tracker().record(id).succeeded; }, 3000);
    EXPECT_TRUE(ok) << "message never delivered through a parked "
                       "fabric — a missed cross-shard wake";
}

void
expectConserved(const ExperimentResult &r)
{
    const auto injected = r.metrics.get("words.injected");
    const auto delivered = r.metrics.get("words.delivered");
    const auto block = r.metrics.get("words.discarded.block");
    const auto router = r.metrics.get("words.discarded.router");
    const auto endpoint = r.metrics.get("words.discarded.endpoint");
    const auto inflight = r.metrics.get("words.inflight_at_drain");
    EXPECT_GT(injected, 0u);
    EXPECT_GT(delivered, 0u);
    EXPECT_EQ(injected,
              delivered + block + router + endpoint + inflight)
        << "injected=" << injected << " delivered=" << delivered
        << " block=" << block << " router=" << router
        << " endpoint=" << endpoint << " inflight=" << inflight;
}

TEST(Shard, BoundaryExchangeConservesWordsClosedLoop)
{
    // Every word of every message crosses at least one shard
    // boundary (shard cuts sit between stages, traffic spans all
    // stages), so exact conservation here means boundary lanes
    // deliver each staged word exactly once.
    auto net = buildMultibutterfly(fig3Spec(3));
    net->engine().setThreads(4);
    ExperimentConfig cfg;
    cfg.messageWords = 12;
    cfg.warmup = 100;
    cfg.measure = 1200;
    cfg.drainMax = 20000;
    cfg.thinkTime = 5;
    cfg.requestReply = true;
    cfg.seed = 9;
    expectConserved(runClosedLoop(*net, cfg));
}

/** Engine thread count of one saturated-soak case. */
class ShardSoak : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(ShardSoak, SaturatedSoakConservesWords)
{
    // Open-loop overload: every injector fires nearly every cycle,
    // so all shards stay live and boundary lanes carry contention
    // continuously. Primary target of ci/tsan-engine.sh.
    auto net = buildMultibutterfly(fig3Spec(4));
    net->engine().setThreads(GetParam());
    ExperimentConfig cfg;
    cfg.messageWords = 8;
    cfg.warmup = 100;
    cfg.measure = 1500;
    cfg.drainMax = 30000;
    cfg.injectProb = 0.5;
    cfg.seed = 11;
    expectConserved(runOpenLoop(*net, cfg));
}

INSTANTIATE_TEST_SUITE_P(Threads, ShardSoak,
                         ::testing::Values(2u, 3u, 4u, 8u));

/**
 * Mid-campaign structural surgery: traffic, then a router is
 * *removed from the engine* (not merely marked dead — its shard
 * slice must be rebuilt around the hole), traffic keeps flowing,
 * the router is re-registered, and the network drains. The whole
 * sequence must stay byte-identical to the serial engine.
 */
Outcome
runRemovalScenario(unsigned threads, std::uint64_t seed)
{
    auto spec = fig1Spec(seed);
    spec.niConfig.maxAttempts = 60;
    auto net = buildMultibutterfly(spec);
    net->engine().setThreads(threads);

    LinkProbe probe(1u << 20);
    for (LinkId l = 0; l < net->numLinks(); ++l)
        probe.watch(&net->link(l));
    net->engine().addComponent(&probe);

    const MetricsRegistry base = net->metricsSnapshot();

    const auto burst = [&](std::uint64_t salt) {
        const auto n = static_cast<NodeId>(net->numEndpoints());
        for (NodeId s = 0; s < n; s += 3) {
            NodeId d = static_cast<NodeId>((s * 7 + salt + 5) % n);
            if (d == s)
                d = static_cast<NodeId>((d + 1) % n);
            net->endpoint(s).send(d, {0x3, 0xA, 0x5}, true);
        }
    };

    burst(1);
    net->engine().run(150);

    Component *victim = &net->router(2);
    net->engine().removeComponents({&victim, 1});
    EXPECT_EQ(net->engine().shardOf(victim), -1);

    burst(2);
    net->engine().run(400);

    net->engine().addComponent(victim);
    EXPECT_GE(net->engine().shardOf(victim), 0);

    burst(3);
    net->engine().run(4000); // drain + idle coda

    Outcome out;
    out.trace = traceDump(probe, *net);
    out.ledger = ledgerDump(*net);
    out.metrics =
        metricsJson(net->metricsSnapshot().deltaSince(base));
    return out;
}

TEST(Shard, RemoveRouterMidCampaignStaysByteIdentical)
{
    const std::uint64_t seed = 0xDEADULL;
    const Outcome serial = runRemovalScenario(1, seed);
    for (unsigned threads : {2u, 4u}) {
        SCOPED_TRACE("threads " + std::to_string(threads));
        const Outcome parallel = runRemovalScenario(threads, seed);
        EXPECT_EQ(serial.trace, parallel.trace);
        EXPECT_EQ(serial.ledger, parallel.ledger);
        EXPECT_EQ(serial.metrics, parallel.metrics);
    }
}

/** What a thread-switch run leaves behind, at each phase's end. */
struct SwitchOutcome
{
    std::vector<std::string> metrics; ///< snapshot JSON per phase
    std::string stages;               ///< --stats router/endpoint report
    std::string ledger;
};

/**
 * fig3 under saturating closed-loop request-reply traffic and a
 * stochastic fault campaign (link and router churn, corruption,
 * flaky links), run in phases of `phase_cycles`, switching the
 * engine to `threads[k]` at the start of phase k.
 */
SwitchOutcome
runThreadSwitchScenario(const std::vector<unsigned> &threads)
{
    auto net = buildMultibutterfly(fig3Spec(0x5EED));
    CampaignConfig campaign;
    campaign.linkFailRate = 0.002;
    campaign.linkHealRate = 0.01;
    campaign.routerFailRate = 0.0005;
    campaign.routerHealRate = 0.005;
    campaign.corruptFraction = 0.25;
    campaign.flakyLinks = 2;
    campaign.flakyPeriod = 256;
    campaign.start = 200;
    FaultCampaign faults(net.get(), campaign, 0xCA3);
    net->engine().addComponent(&faults);

    const auto n = static_cast<unsigned>(net->numEndpoints());
    const DestinationGenerator dests(TrafficPattern::UniformRandom, n,
                                     0x77);
    DriverConfig dcfg;
    dcfg.messageWords = 8;
    dcfg.requestReply = true;
    std::vector<std::unique_ptr<ClosedLoopDriver>> drivers;
    for (NodeId e = 0; e < n; ++e) {
        drivers.push_back(std::make_unique<ClosedLoopDriver>(
            &net->endpoint(e), &dests, dcfg, /*think_time=*/0, e + 1));
        net->engine().addComponent(drivers.back().get());
    }

    SwitchOutcome out;
    for (const unsigned t : threads) {
        net->engine().setThreads(t);
        net->engine().run(1500);
        out.metrics.push_back(metricsJson(net->metricsSnapshot()));
    }
    out.stages = stageStatsReport(*net) + endpointStatsReport(*net);
    out.ledger = ledgerDump(*net);
    return out;
}

/**
 * Switching the engine between serial and sharded execution mid-run
 * leaves no trace: routers and endpoints count into their own
 * blocks at every thread count, so nothing is redirected or flushed
 * at a switch, and every phase's snapshot, the stage report and the
 * ledger equal an uninterrupted serial run's.
 */
TEST(EngineThreadSwitch, OneFourOneMidRunMatchesSerialRun)
{
    const SwitchOutcome serial = runThreadSwitchScenario({1, 1, 1});
    const SwitchOutcome switched = runThreadSwitchScenario({1, 4, 1});
    ASSERT_EQ(serial.metrics.size(), switched.metrics.size());
    for (std::size_t k = 0; k < serial.metrics.size(); ++k) {
        SCOPED_TRACE("phase " + std::to_string(k));
        EXPECT_EQ(serial.metrics[k], switched.metrics[k]);
    }
    EXPECT_NE(serial.metrics.back().find("\"campaign.link_failures\""),
              std::string::npos);
    EXPECT_EQ(serial.stages, switched.stages);
    EXPECT_EQ(serial.ledger, switched.ledger);
}

TEST(Shard, SweepReportsInvariantUnderEngineThreads)
{
    const auto makePoints = [] {
        std::vector<SweepPoint> points;
        for (unsigned think : {40u, 10u}) {
            SweepPoint point;
            point.label = "think=" + std::to_string(think);
            point.config.messageWords = 8;
            point.config.warmup = 200;
            point.config.measure = 800;
            point.config.thinkTime = think;
            point.config.seed = 77;
            point.build = [](std::uint64_t) {
                SweepInstance instance;
                instance.network =
                    buildMultibutterfly(fig1Spec(/*seed=*/5));
                return instance;
            };
            points.push_back(std::move(point));
        }
        return points;
    };

    SweepOptions serial;
    serial.threads = 1;
    serial.engineThreads = 1;
    const auto s1 = runSweep(makePoints(), serial);

    SweepOptions parallel;
    parallel.threads = 2;
    parallel.engineThreads = 4;
    const auto s4 = runSweep(makePoints(), parallel);

    EXPECT_EQ(sweepCsv(s1), sweepCsv(s4));
    const auto m1 = sweepJson(s1, /*include_timing=*/false,
                              /*include_metrics=*/true);
    const auto m4 = sweepJson(s4, /*include_timing=*/false,
                              /*include_metrics=*/true);
    EXPECT_EQ(m1, m4);
    EXPECT_NE(m1.find("\"words.injected\""), std::string::npos);
}

/** mb1024 saturated: every endpoint a closed-loop driver with think
 *  time 0. Members are destroyed drivers first (they point into the
 *  network). */
struct SaturatedMb1024
{
    std::unique_ptr<Network> net;
    std::unique_ptr<DestinationGenerator> dests;
    std::vector<std::unique_ptr<ClosedLoopDriver>> drivers;

    explicit SaturatedMb1024(unsigned threads)
        : net(buildMultibutterfly(mb1024Spec(1)))
    {
        const auto n = static_cast<NodeId>(net->numEndpoints());
        dests = std::make_unique<DestinationGenerator>(
            TrafficPattern::UniformRandom, n, 0x77);
        DriverConfig dcfg;
        dcfg.messageWords = 20;
        for (NodeId e = 0; e < n; ++e) {
            drivers.push_back(std::make_unique<ClosedLoopDriver>(
                &net->endpoint(e), dests.get(), dcfg, /*think=*/0,
                0x5151ULL * (e + 1)));
            net->engine().addComponent(drivers.back().get());
        }
        net->engine().setThreads(threads);
    }

    std::string
    snapshot()
    {
        return metricsJson(net->metricsSnapshot());
    }
};

TEST(Shard, Mb1024SaturatedByteIdenticalAtOneAndFourThreads)
{
    SaturatedMb1024 serial(1), sharded(4);
    EXPECT_EQ(sharded.net->engine().shardCount(), 4u);
    serial.net->engine().run(300);
    sharded.net->engine().run(300);
    EXPECT_EQ(serial.snapshot(), sharded.snapshot());
    EXPECT_EQ(ledgerDump(*serial.net), ledgerDump(*sharded.net));
}

TEST(Shard, SelfProfileAccountsForRunWallTime)
{
    constexpr Cycle kCycles = 200;
    SaturatedMb1024 plain(4), profiled(4);
    Engine &engine = profiled.net->engine();
    EXPECT_FALSE(engine.profiling());
    engine.setProfiling(true);

    plain.net->engine().run(kCycles);
    const auto t0 = std::chrono::steady_clock::now();
    engine.run(kCycles);
    const auto wall = std::chrono::duration_cast<
                          std::chrono::nanoseconds>(
                          std::chrono::steady_clock::now() - t0)
                          .count();

    const EngineProfile &p = engine.profile();
    EXPECT_EQ(p.cycles, kCycles);
    EXPECT_GE(static_cast<double>(p.wallNs()),
              0.95 * static_cast<double>(wall))
        << "profiled parts " << p.wallNs() << " ns of " << wall
        << " ns in Engine::run";
    EXPECT_LE(p.wallNs(), static_cast<std::uint64_t>(wall));
    ASSERT_EQ(p.shardNs.size(), 4u);
    for (std::uint64_t ns : p.shardNs)
        EXPECT_GT(ns, 0u);
    // The drivers tick in their endpoints' shards: nothing is left
    // to the serial section.
    EXPECT_EQ(engine.serialMembers(), 0u);
    EXPECT_TRUE(p.serialNs.empty());

    // Profiling is timing only: the simulated state is unchanged.
    EXPECT_EQ(plain.snapshot(), profiled.snapshot());
    EXPECT_EQ(ledgerDump(*plain.net), ledgerDump(*profiled.net));
}

/** One cycle at every thread count: at one thread the run is one
 *  shard stepped on the caller, drivers included, and the same
 *  phases cover it. */
TEST(Shard, SelfProfileAtOneThreadTimesTheSerialLoop)
{
    constexpr Cycle kCycles = 200;
    SaturatedMb1024 plain(1), profiled(1);
    Engine &engine = profiled.net->engine();
    EXPECT_FALSE(engine.profiling());
    engine.setProfiling(true);

    plain.net->engine().run(kCycles);
    const auto t0 = std::chrono::steady_clock::now();
    engine.run(kCycles);
    const auto wall = std::chrono::duration_cast<
                          std::chrono::nanoseconds>(
                          std::chrono::steady_clock::now() - t0)
                          .count();

    const EngineProfile &p = engine.profile();
    EXPECT_EQ(p.cycles, kCycles);
    EXPECT_GE(static_cast<double>(p.wallNs()),
              0.95 * static_cast<double>(wall))
        << "profiled parts " << p.wallNs() << " ns of " << wall
        << " ns in Engine::run";
    EXPECT_LE(p.wallNs(), static_cast<std::uint64_t>(wall));
    ASSERT_EQ(p.shardNs.size(), 1u);
    EXPECT_GT(p.shardNs[0], 0u);
    EXPECT_EQ(engine.serialMembers(), 0u);
    EXPECT_TRUE(p.serialNs.empty());
    EXPECT_EQ(plain.snapshot(), profiled.snapshot());
    EXPECT_EQ(ledgerDump(*plain.net), ledgerDump(*profiled.net));

    engine.setProfiling(false);
    engine.run(10);
    EXPECT_EQ(engine.profile().cycles, kCycles);
    engine.setProfiling(true); // restarts from zero
    EXPECT_EQ(engine.profile().cycles, 0u);
}

} // namespace
} // namespace metro
