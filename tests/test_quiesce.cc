/**
 * @file
 * Quiescence-scheduler equivalence tests.
 *
 * The engine's activity tracking (sim/engine.hh, docs/simulator.md)
 * promises that skipping quiescent components and drained links is
 * *exact*: no observable — wire trace, message ledger, metrics —
 * may differ between the eager loop and the scheduling loop. The
 * property test here runs the same seeded scenario (random closed
 * loop traffic over half the endpoints plus a scripted fault
 * campaign) twice, scheduler off then on, and compares everything
 * byte for byte.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "fault/injector.hh"
#include "network/multibutterfly.hh"
#include "network/presets.hh"
#include "trace/probe.hh"
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
    std::string metrics; ///< metrics delta, engine.* stripped
    std::uint64_t ticksSkipped = 0;
    std::uint64_t linksFastpathed = 0;
};

/**
 * One deterministic scenario: fig1 network, closed-loop
 * request-reply traffic on half the endpoints (the other half stays
 * idle, so the scheduler has something to skip), and a mid-run
 * fault campaign that hits links and routers with every mutator the
 * wakeup protocol must cover — deaths, heals, a corrupt spell, and
 * scan port-disables.
 */
Outcome
runScenario(bool quiesce, std::uint64_t seed,
            unsigned engine_threads = 1)
{
    auto spec = fig1Spec(seed);
    // Faults may orphan destinations for a while; bound the retries
    // so every message resolves inside the drain window.
    spec.niConfig.maxAttempts = 60;
    auto net = buildMultibutterfly(spec);
    net->engine().setQuiescence(quiesce);
    net->engine().setThreads(engine_threads);

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
    cfg.thinkTime = 300;     // idle-heavy: plenty to skip
    cfg.activeFraction = 0.5; // half the endpoints never send
    cfg.requestReply = true;
    cfg.seed = seed;
    runClosedLoop(*net, cfg);

    // Idle coda: the whole network goes quiescent, sleeps (when the
    // scheduler is on), and must account the sleep exactly.
    net->engine().run(3000);

    Outcome out;
    EXPECT_EQ(probe.dropped(), 0u) << "probe capacity too small for "
                                      "a byte-exact comparison";
    std::ostringstream trace;
    for (const auto &e : probe.events())
        trace << formatTraceEvent(e, &net->link(e.link)) << "\n";
    out.trace = trace.str();

    std::ostringstream ledger;
    for (const auto &[id, rec] : net->tracker().all()) {
        ledger << id << " src" << rec.src << " dst" << rec.dest
               << " sub" << rec.submitCycle << " inj"
               << rec.injectCycle << " del" << rec.deliverCycle
               << " ack" << rec.ackCycle << " cmp"
               << rec.completeCycle << " att" << rec.attempts
               << " ok" << rec.succeeded << " gu" << rec.gaveUp
               << "\n";
    }
    out.ledger = ledger.str();

    // The scheduler's own counters legitimately differ between the
    // two modes; strip them before demanding byte equality of the
    // rest (word conservation, connection histograms, per-router
    // occupancy — the occupancy histograms are the sharp check on
    // syncSkipped's zero-sample catch-up).
    const MetricsRegistry delta =
        net->metricsSnapshot().deltaSince(base);
    MetricsRegistry stripped;
    for (const auto &[name, v] : delta.counters()) {
        if (name.rfind("engine.", 0) != 0)
            stripped.counter(name) = v;
    }
    for (const auto &[name, h] : delta.histograms())
        stripped.histogram(name).merge(h);
    out.metrics = metricsJson(stripped);

    out.ticksSkipped = net->engine().ticksSkipped();
    out.linksFastpathed = net->engine().linksFastpathed();
    return out;
}

/** The equivalence must hold at every engine thread count — the
 *  sharded engine (sim/engine.hh) promises scheduling *and*
 *  parallelism are both invisible to every observable. */
class QuiescenceAtThreads
    : public ::testing::TestWithParam<unsigned>
{};

TEST_P(QuiescenceAtThreads, SchedulerIsObservationallyEquivalent)
{
    const unsigned threads = GetParam();
    for (std::uint64_t seed : {0x51ceULL, 0xd0d0ULL}) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        const Outcome eager = runScenario(false, seed);
        const Outcome lazy = runScenario(true, seed, threads);

        // The scheduler must actually have engaged (else this test
        // proves nothing) while the eager run elided nothing.
        EXPECT_EQ(eager.ticksSkipped, 0u);
        EXPECT_EQ(eager.linksFastpathed, 0u);
        EXPECT_GT(lazy.ticksSkipped, 0u);
        EXPECT_GT(lazy.linksFastpathed, 0u);

        EXPECT_EQ(eager.trace, lazy.trace);
        EXPECT_EQ(eager.ledger, lazy.ledger);
        EXPECT_EQ(eager.metrics, lazy.metrics);
    }
}

INSTANTIATE_TEST_SUITE_P(EngineThreads, QuiescenceAtThreads,
                         ::testing::Values(1u, 2u, 4u, 8u));

TEST(Quiescence, IdleNetworkSleepsAndWakesOnSend)
{
    auto net = buildMultibutterfly(fig1Spec(3));
    net->engine().run(200); // settle; everything goes quiescent
    const std::uint64_t skipped_before =
        net->engine().ticksSkipped();
    net->engine().run(500);
    // A fully idle network skips essentially every tick and every
    // link advance.
    EXPECT_GT(net->engine().ticksSkipped(), skipped_before);
    EXPECT_GT(net->engine().linksFastpathed(), 0u);

    // A send into the sleeping fabric must wake the whole path.
    const auto id = net->endpoint(1).send(14, {0x5, 0xB});
    const bool ok = net->engine().runUntil(
        [&] { return net->tracker().record(id).succeeded; }, 2000);
    EXPECT_TRUE(ok) << "message never delivered through a sleeping "
                       "network — a missed wake";
}

TEST(Quiescence, DisabledSchedulerElidesNothing)
{
    auto net = buildMultibutterfly(fig1Spec(4));
    net->engine().setQuiescence(false);
    net->engine().run(400);
    EXPECT_EQ(net->engine().ticksSkipped(), 0u);
    EXPECT_EQ(net->engine().linksFastpathed(), 0u);
}

TEST(Quiescence, RemoveWhileAsleepSyncsSkippedTail)
{
    auto net = buildMultibutterfly(fig1Spec(5));
    net->engine().run(300); // idle network: every router sleeps
    // Routers sample into their own share; a snapshot moves it into
    // the registry after catching up registered sleepers.
    const auto samples = [&] {
        return net->metricsSnapshot()
            .findHistogram("router.0.occupancy")
            ->count();
    };
    ASSERT_EQ(samples(), net->engine().now());
    // Still asleep — every component skips every cycle — so router
    // 0's samples lag again.
    const std::uint64_t skipped = net->engine().ticksSkipped();
    net->engine().run(100);
    ASSERT_EQ(net->engine().ticksSkipped() - skipped,
              100 * (net->numRouters() + net->numCascadeGroups() +
                     net->numEndpoints()));

    // Removing the sleeper must account the skipped tail first (a
    // snapshot only catches up registered sleepers) — an
    // eagerly-ticked quiescent router removed at the same moment
    // would have sampled zero occupancy every cycle.
    Component *victim = &net->router(0);
    net->engine().removeComponents({&victim, 1});
    EXPECT_EQ(samples(), net->engine().now());

    // And reset the wake state: re-registration starts clean — the
    // router ticks, re-sleeps, and stays exactly accountable.
    net->engine().addComponent(&net->router(0));
    net->engine().run(50);
    EXPECT_EQ(samples(), net->engine().now()); // syncStats catches up
}

TEST(Quiescence, RemoveLinksBatchedStopsAdvancing)
{
    Engine engine;
    Link a(0, 2, 2), b(1, 2, 2), c(2, 2, 2);
    engine.addLink(&a);
    engine.addLink(&b);
    engine.addLink(&c);
    a.pushDown(Symbol::data(0x11, 1));
    b.pushDown(Symbol::data(0x22, 2));
    c.pushDown(Symbol::data(0x33, 3));

    Link *victims[] = {&a, &b};
    engine.removeLinks(victims);
    engine.run(2);

    // The removed links froze mid-flight; the survivor delivered.
    EXPECT_EQ(a.headDown().kind, SymbolKind::Empty);
    EXPECT_EQ(b.headDown().kind, SymbolKind::Empty);
    EXPECT_EQ(c.headDown().kind, SymbolKind::Data);
    EXPECT_EQ(c.headDown().value, 0x33u);
}

} // namespace
} // namespace metro
