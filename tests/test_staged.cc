/**
 * @file
 * Drivers in their endpoints' shards, and the staged ledger ids that
 * make it possible (sim/engine.hh, endpoint/interface.hh).
 *
 * While two or more engine shards tick concurrently, a driver's send
 * stages its ledger record, and the phase barrier creates the staged
 * records shard by shard, so ids come out in driver registration
 * order at every thread count. The plan tests pin the layout down:
 * every driver ticks in its endpoint's shard and nothing is left to
 * the serial section, unless a corrupt endpoint link pins an
 * endpoint, which sends its driver and every later one back to the
 * serial section. The StagedIds tests hold the paths that patch a
 * provisional handle — fan-out groups, request-reply, admission
 * sheds, MMPP open-loop and session traffic, and that fallback — to
 * byte identity at threads {1, 2, 3, 4, 8}. The WorkCounts tests
 * gate the quiescence scheduler on exact tick counts, not on times.
 *
 * The Shard and StagedIds tests also run under ThreadSanitizer
 * (ci/tsan-engine.sh).
 */

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "fault/injector.hh"
#include "network/multibutterfly.hh"
#include "network/presets.hh"
#include "report/json.hh"
#include "traffic/drivers.hh"
#include "traffic/experiment.hh"

namespace metro
{
namespace
{

/** Every ledger field a staged send writes or the fold patches, in
 *  id order. */
std::string
ledgerDump(const Network &net)
{
    std::map<std::uint64_t, const MessageRecord *> byId;
    for (const auto &[id, rec] : net.tracker().all())
        byId.emplace(id, &rec);
    std::ostringstream out;
    for (const auto &[id, r] : byId) {
        const MessageRecord &rec = *r;
        out << id << " src" << rec.src << " dst" << rec.dest << " seq"
            << rec.sequence << " words" << rec.payload.size() << " rr"
            << rec.requestReply << " cls"
            << static_cast<unsigned>(rec.trafficClass) << " grp"
            << rec.rpcGroup << "/" << rec.rpcFanout << " sub"
            << rec.submitCycle << " inj" << rec.injectCycle << " del"
            << rec.deliverCycle << " ack" << rec.ackCycle << " cmp"
            << rec.completeCycle << " att" << rec.attempts << " ok"
            << rec.succeeded << " gu" << rec.gaveUp << " shed"
            << rec.shedAdmission << " reply" << rec.reply.size()
            << "\n";
    }
    return out.str();
}

/**
 * Closed-loop drivers send only to an idle endpoint, which starts
 * the message the next cycle: messages with one submit cycle were
 * sent in one cycle, and their ids must rise with the sending
 * driver's registration order (here, the endpoint order), as a
 * serial loop over the drivers hands them out.
 */
void
expectIdsInDriverOrder(const Network &net)
{
    std::map<std::uint64_t, const MessageRecord *> byId;
    for (const auto &[id, rec] : net.tracker().all())
        byId.emplace(id, &rec);
    std::map<Cycle, NodeId> lastSrc;
    for (const auto &[id, rec] : byId) {
        const auto [it, first] =
            lastSrc.emplace(rec->submitCycle, rec->src);
        if (!first) {
            EXPECT_GT(rec->src, it->second)
                << "message " << id << " submitted at "
                << rec->submitCycle;
            it->second = rec->src;
        }
    }
}

using Experiment = ExperimentResult (*)(Network &,
                                        const ExperimentConfig &);

struct Outcome
{
    std::string ledger;
    std::string metrics;
    ExperimentResult result;
};

/** One experiment at `threads` engine threads. `corruptEndpoint`,
 *  when set, corrupts that endpoint's injection link for the middle
 *  of the run. */
Outcome
runAt(unsigned threads, const MultibutterflySpec &spec,
      const ExperimentConfig &cfg, Experiment run,
      int corruptEndpoint = -1)
{
    auto net = buildMultibutterfly(spec);
    net->engine().setThreads(threads);
    FaultInjector injector(net.get());
    if (corruptEndpoint >= 0) {
        for (LinkId l = 0; l < net->numLinks(); ++l) {
            if (net->link(l).wakeA() !=
                &net->endpoint(static_cast<NodeId>(corruptEndpoint)))
                continue;
            injector.schedule({
                {200, FaultKind::LinkCorrupt, l, kInvalidPort},
                {700, FaultKind::LinkHeal, l, kInvalidPort},
            });
            break;
        }
        net->engine().addComponent(&injector);
    }
    Outcome out;
    out.result = run(*net, cfg);
    if (corruptEndpoint >= 0)
        expectIdsInDriverOrder(*net);
    out.ledger = ledgerDump(*net);
    out.metrics = metricsJson(out.result.metrics);
    return out;
}

/** The experiment's ledger and metrics are the same at threads
 *  {2, 3, 4, 8} as at one thread; returns the one-thread result. */
ExperimentResult
expectThreadInvariant(const MultibutterflySpec &spec,
                      const ExperimentConfig &cfg, Experiment run,
                      int corruptEndpoint = -1)
{
    const Outcome serial = runAt(1, spec, cfg, run, corruptEndpoint);
    EXPECT_FALSE(serial.ledger.empty());
    for (unsigned threads : {2u, 3u, 4u, 8u}) {
        SCOPED_TRACE("threads " + std::to_string(threads));
        const Outcome parallel =
            runAt(threads, spec, cfg, run, corruptEndpoint);
        EXPECT_EQ(serial.ledger, parallel.ledger);
        EXPECT_EQ(serial.metrics, parallel.metrics);
    }
    return serial.result;
}

ExperimentConfig
shortRun(std::uint64_t seed)
{
    ExperimentConfig cfg;
    cfg.messageWords = 8;
    cfg.warmup = 100;
    cfg.measure = 900;
    cfg.drainMax = 30000;
    cfg.seed = seed;
    return cfg;
}

TEST(StagedIds, FanOutGroupsByteIdenticalAcrossThreadCounts)
{
    // fanout=3: every group head's id is patched into two later
    // legs at the fold.
    ExperimentConfig cfg = shortRun(11);
    cfg.fanout = 3;
    cfg.thinkTime = 20;
    const ExperimentResult r =
        expectThreadInvariant(fig3Spec(4), cfg, &runClosedLoop);
    EXPECT_GT(r.rpcGroups, 0u);
}

TEST(StagedIds, RequestReplyByteIdenticalAcrossThreadCounts)
{
    ExperimentConfig cfg = shortRun(12);
    cfg.requestReply = true;
    const ExperimentResult r =
        expectThreadInvariant(fig3Spec(5), cfg, &runClosedLoop);
    EXPECT_GT(r.completedMessages, 0u);
}

TEST(StagedIds, AdmissionShedsByteIdenticalAcrossThreadCounts)
{
    // Sheds are staged like any send but never queued: the fold must
    // leave the queue alone for them.
    auto spec = fig3Spec(6);
    spec.niConfig.retry.sendQueueLimit = 2;
    ExperimentConfig cfg = shortRun(13);
    cfg.injectProb = 0.3;
    const ExperimentResult r =
        expectThreadInvariant(spec, cfg, &runOpenLoop);
    EXPECT_GT(r.niTotals.get("admissionSheds"), 0u);
}

TEST(StagedIds, MmppOpenLoopByteIdenticalAcrossThreadCounts)
{
    ExperimentConfig cfg = shortRun(14);
    cfg.injectProb = 0.02;
    cfg.process.kind = InjectionKind::Mmpp;
    const ExperimentResult r =
        expectThreadInvariant(fig3Spec(7), cfg, &runOpenLoop);
    EXPECT_GT(r.completedMessages, 0u);
}

TEST(StagedIds, SessionTrafficByteIdenticalAcrossThreadCounts)
{
    ExperimentConfig cfg = shortRun(15);
    cfg.session.rate = 0.01;
    const ExperimentResult r =
        expectThreadInvariant(fig3Spec(8), cfg, &runSessionLoop);
    EXPECT_GT(r.completedMessages, 0u);
}

TEST(StagedIds, CorruptEndpointLinkByteIdenticalAcrossThreadCounts)
{
    // Mid-run, endpoint 20's driver and every later one tick
    // serially and send inline, after the staged sends of the
    // earlier drivers fold: ids keep the drivers' order.
    ExperimentConfig cfg = shortRun(16);
    cfg.thinkTime = 10;
    const ExperimentResult r = expectThreadInvariant(
        fig3Spec(9), cfg, &runClosedLoop, /*corruptEndpoint=*/20);
    EXPECT_GT(r.completedMessages, 0u);
}

/** Drivers attached to every endpoint of a network. */
struct DrivenNet
{
    std::unique_ptr<Network> net;
    std::unique_ptr<DestinationGenerator> dests;
    std::vector<std::unique_ptr<Component>> drivers;

    DrivenNet(const MultibutterflySpec &spec, bool openLoop,
              unsigned threads)
        : net(buildMultibutterfly(spec))
    {
        const auto n = static_cast<NodeId>(net->numEndpoints());
        dests = std::make_unique<DestinationGenerator>(
            TrafficPattern::UniformRandom, n, 0x77);
        DriverConfig dcfg;
        dcfg.messageWords = 12;
        for (NodeId e = 0; e < n; ++e) {
            if (openLoop)
                drivers.push_back(std::make_unique<OpenLoopDriver>(
                    &net->endpoint(e), dests.get(), dcfg, 0.05,
                    0x5151ULL * (e + 1)));
            else
                drivers.push_back(std::make_unique<ClosedLoopDriver>(
                    &net->endpoint(e), dests.get(), dcfg, 0,
                    0x5151ULL * (e + 1)));
            net->engine().addComponent(drivers.back().get());
        }
        net->engine().setThreads(threads);
    }

    /** Every driver ticks in its endpoint's shard, and the serial
     *  section is empty. */
    void
    expectCoSharded()
    {
        Engine &engine = net->engine();
        EXPECT_EQ(engine.serialMembers(), 0u);
        for (NodeId e = 0; e < drivers.size(); ++e) {
            const int shard = engine.shardOf(&net->endpoint(e));
            EXPECT_GE(shard, 0) << "endpoint " << e;
            EXPECT_EQ(engine.shardOf(drivers[e].get()), shard)
                << "driver " << e;
        }
    }
};

TEST(Shard, DriversTickInTheirEndpointShard)
{
    for (const bool mb1024 : {false, true}) {
        for (const bool openLoop : {false, true}) {
            for (const unsigned threads : {1u, 4u}) {
                SCOPED_TRACE(std::string(mb1024 ? "mb1024" : "fig3") +
                             (openLoop ? " open" : " closed") +
                             " threads " + std::to_string(threads));
                DrivenNet d(mb1024 ? mb1024Spec(1) : fig3Spec(1),
                            openLoop, threads);
                d.expectCoSharded();
                EXPECT_EQ(d.net->engine().shardCount(),
                          std::size_t{threads});
                d.net->engine().run(30);
                d.expectCoSharded();
            }
        }
    }
}

TEST(Shard, CorruptEndpointLinkSendsLaterDriversSerial)
{
    DrivenNet d(fig3Spec(2), /*openLoop=*/false, 4);
    Engine &engine = d.net->engine();
    constexpr NodeId kPinned = 20;
    Link *injection = nullptr;
    for (LinkId l = 0; l < d.net->numLinks(); ++l) {
        if (d.net->link(l).wakeA() == &d.net->endpoint(kPinned))
            injection = &d.net->link(l);
    }
    ASSERT_NE(injection, nullptr);

    injection->setFault(LinkFault::Corrupt);
    // The link's two ends (the endpoint and its first router) plus
    // the pinned endpoint's driver and every driver after it.
    const std::size_t n = d.drivers.size();
    EXPECT_EQ(engine.serialMembers(), 2 + (n - kPinned));
    for (NodeId e = 0; e < n; ++e) {
        const int shard = engine.shardOf(d.drivers[e].get());
        if (e < kPinned) {
            EXPECT_EQ(shard, engine.shardOf(&d.net->endpoint(e)));
        } else {
            EXPECT_EQ(shard, -1) << "driver " << e;
        }
    }

    injection->setFault(LinkFault::None);
    d.expectCoSharded();
}

/** Component ticks run in `cycles` cycles (registered × cycles,
 *  less the scheduler's skips). */
std::uint64_t
ticksRun(Engine &engine, Cycle cycles)
{
    const std::uint64_t skipped0 = engine.ticksSkipped();
    engine.run(cycles);
    return engine.scheduledCount() * cycles -
           (engine.ticksSkipped() - skipped0);
}

TEST(WorkCounts, SchedulerSkipsTicksAtLowLoad)
{
    for (const unsigned threads : {1u, 4u}) {
        SCOPED_TRACE("threads " + std::to_string(threads));
        auto net = buildMultibutterfly(fig3Spec(3));
        net->engine().setThreads(threads);
        ExperimentConfig cfg = shortRun(21);
        cfg.thinkTime = 2000;
        const ExperimentResult r = runClosedLoop(*net, cfg);
        EXPECT_GT(r.metrics.get("engine.ticks_skipped"), 0u);
    }
}

TEST(WorkCounts, ScheduledTicksAtMostEagerTicksAtSaturation)
{
    for (const unsigned threads : {1u, 4u}) {
        SCOPED_TRACE("threads " + std::to_string(threads));
        std::uint64_t ticks[2] = {0, 0};
        std::string ledgers[2];
        for (const bool quiescence : {true, false}) {
            DrivenNet d(fig3Spec(3), /*openLoop=*/false, threads);
            d.net->engine().setQuiescence(quiescence);
            ticks[quiescence] = ticksRun(d.net->engine(), 1500);
            ledgers[quiescence] = ledgerDump(*d.net);
            if (!quiescence) {
                EXPECT_EQ(d.net->engine().ticksSkipped(), 0u);
            }
        }
        EXPECT_LE(ticks[true], ticks[false]);
        EXPECT_EQ(ledgers[true], ledgers[false]);
    }
}

} // namespace
} // namespace metro
