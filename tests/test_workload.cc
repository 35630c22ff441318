/**
 * @file
 * Service-level workload model tests (ROADMAP item 4): injection
 * processes, heavy-tailed message sizes, traffic classes, RPC
 * fan-out groups, the session driver, parse-time knob validation —
 * and the two contracts every new path must keep: byte identity
 * across engine-thread counts and exact word conservation under
 * faults.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "fault/injector.hh"
#include "network/multibutterfly.hh"
#include "network/presets.hh"
#include "report/csv.hh"
#include "report/json.hh"
#include "sweep/sweep.hh"
#include "traffic/drivers.hh"
#include "traffic/experiment.hh"
#include "traffic/patterns.hh"
#include "traffic/process.hh"
#include "traffic/session.hh"

namespace metro
{
namespace
{

TEST(InjectionProcessTest, BernoulliIsBitExactWithAPlainCoin)
{
    // The Bernoulli process must consume exactly one chance() per
    // cycle — the original OpenLoopDriver RNG stream, bit for bit.
    InjectionProcessConfig cfg;
    InjectionProcess process(cfg, 0.3);
    Xoshiro256 a(42), b(42);
    for (int k = 0; k < 20000; ++k)
        ASSERT_EQ(process.step(a), b.chance(0.3)) << "cycle " << k;
    // Same number of draws consumed: the streams stay in lockstep.
    EXPECT_EQ(a.next(), b.next());
}

TEST(InjectionProcessTest, BurstyProcessesHoldTheConfiguredMeanRate)
{
    // OnOff and MMPP reshape arrival correlation, not offered load:
    // the long-run mean must track injectProb.
    const double rate = 0.05;
    const int cycles = 400000;
    for (InjectionKind kind :
         {InjectionKind::OnOff, InjectionKind::Mmpp}) {
        SCOPED_TRACE(injectionKindName(kind));
        InjectionProcessConfig cfg;
        cfg.kind = kind;
        InjectionProcess process(cfg, rate);
        Xoshiro256 rng(7);
        long fires = 0;
        for (int k = 0; k < cycles; ++k)
            fires += process.step(rng) ? 1 : 0;
        const double mean = static_cast<double>(fires) / cycles;
        EXPECT_GT(mean, rate * 0.9);
        EXPECT_LT(mean, rate * 1.1);
    }
}

TEST(InjectionProcessTest, OnOffActuallyBursts)
{
    // With mean dwell 64 on / 192 off, the on/off source must show
    // long silent stretches a Bernoulli source at the same mean
    // rate essentially never produces.
    InjectionProcessConfig cfg;
    cfg.kind = InjectionKind::OnOff;
    InjectionProcess process(cfg, 0.05);
    Xoshiro256 rng(9);
    int longest_gap = 0, gap = 0;
    for (int k = 0; k < 100000; ++k) {
        if (process.step(rng))
            gap = 0;
        else
            longest_gap = std::max(longest_gap, ++gap);
    }
    // P(gap >= 400) for Bernoulli(0.05) is (0.95)^400 ~ 1e-9; an
    // off-dwell of mean 192 cycles makes it routine.
    EXPECT_GT(longest_gap, 400);
}

TEST(MessageSize, FixedDrawsNothingParetoStaysBounded)
{
    MessageSizeConfig fixed;
    Xoshiro256 a(3), b(3);
    EXPECT_EQ(drawMessageWords(fixed, 20, a), 20u);
    EXPECT_EQ(a.next(), b.next()) << "Fixed must not touch the RNG";

    MessageSizeConfig pareto;
    pareto.dist = SizeDist::Pareto;
    pareto.minWords = 4;
    pareto.maxWords = 64;
    pareto.alpha = 1.5;
    Xoshiro256 rng(11);
    double sum = 0.0;
    unsigned over32 = 0;
    const int n = 20000;
    for (int k = 0; k < n; ++k) {
        const unsigned w = drawMessageWords(pareto, 20, rng);
        ASSERT_GE(w, 4u);
        ASSERT_LE(w, 64u);
        sum += w;
        over32 += w > 32 ? 1 : 0;
    }
    // Heavy-tailed: mean far below the support midpoint, yet the
    // tail beyond 32 words is populated.
    EXPECT_LT(sum / n, 16.0);
    EXPECT_GT(over32, 100u);
}

TEST(TrafficClassTest, MixFractionsAreRespectedAndEmptyMixIsFree)
{
    Xoshiro256 a(5), b(5);
    EXPECT_EQ(drawTrafficClass({}, a), 0u);
    EXPECT_EQ(drawTrafficClass({1.0}, a), 0u);
    EXPECT_EQ(a.next(), b.next())
        << "empty/singleton mix must not touch the RNG";

    const std::vector<double> mix = {0.5, 0.25, 0.25};
    Xoshiro256 rng(6);
    int counts[3] = {0, 0, 0};
    const int n = 30000;
    for (int k = 0; k < n; ++k)
        ++counts[drawTrafficClass(mix, rng)];
    EXPECT_NEAR(counts[0] / double(n), 0.50, 0.02);
    EXPECT_NEAR(counts[1] / double(n), 0.25, 0.02);
    EXPECT_NEAR(counts[2] / double(n), 0.25, 0.02);
}

TEST(Diurnal, TriangleWaveShapeAndFlatDefault)
{
    SessionModelConfig s;
    EXPECT_EQ(diurnalFactor(12345, s), 1.0) << "period 0 = flat";
    s.diurnalPeriod = 1000;
    s.diurnalAmplitude = 0.5;
    EXPECT_DOUBLE_EQ(diurnalFactor(0, s), 0.5);    // trough
    EXPECT_DOUBLE_EQ(diurnalFactor(250, s), 1.0);  // rising mean
    EXPECT_DOUBLE_EQ(diurnalFactor(500, s), 1.5);  // peak
    EXPECT_DOUBLE_EQ(diurnalFactor(750, s), 1.0);  // falling mean
    EXPECT_DOUBLE_EQ(diurnalFactor(1000, s), 0.5); // periodic
}

TEST(RpcFanout, LegsGoToDistinctDestinationsAndShareAGroup)
{
    auto net = buildMultibutterfly(fig1Spec(21));
    DestinationGenerator dests(TrafficPattern::UniformRandom, 16,
                               21 ^ 0x77);
    DriverConfig dcfg;
    dcfg.messageWords = 8;
    dcfg.fanout = 3;
    Xoshiro256 rng(17);
    const std::uint64_t first = net->tracker().nextId();
    std::uint64_t submitted = 0;
    for (int k = 0; k < 40; ++k)
        issueRequest(&net->endpoint(5), &dests, dcfg, rng, submitted);
    EXPECT_EQ(submitted, 40u) << "one logical request per fan-out";
    ASSERT_EQ(net->tracker().nextId() - first, 120u);
    // The legs of one request take consecutive ids.
    for (std::uint64_t head = first; head < first + 120; head += 3) {
        std::vector<NodeId> dsts;
        for (std::uint64_t leg = 0; leg < 3; ++leg) {
            const auto &rec = net->tracker().record(head + leg);
            EXPECT_EQ(rec.rpcGroup, head);
            EXPECT_EQ(rec.rpcFanout, 3u);
            EXPECT_TRUE(rec.requestReply)
                << "fan-out legs must be request-reply";
            EXPECT_NE(rec.dest, 5u);
            dsts.push_back(rec.dest);
        }
        std::sort(dsts.begin(), dsts.end());
        EXPECT_EQ(std::unique(dsts.begin(), dsts.end()), dsts.end())
            << "legs must fan out to distinct endpoints";
    }
}

TEST(RpcFanout, ExperimentReportsGroupCompletion)
{
    auto net = buildMultibutterfly(fig1Spec(31));
    ExperimentConfig cfg;
    cfg.messageWords = 8;
    cfg.warmup = 500;
    cfg.measure = 6000;
    cfg.thinkTime = 200;
    cfg.fanout = 3;
    cfg.seed = 31;
    const auto r = runClosedLoop(*net, cfg);
    EXPECT_GT(r.rpcGroups, 0u);
    EXPECT_GT(r.rpcGroupsCompleted, 0u);
    EXPECT_LE(r.rpcGroupsCompleted, r.rpcGroups);
    EXPECT_EQ(r.rpcLatency.count(), r.rpcGroupsCompleted);
    // A group is as slow as its slowest leg: group latency must
    // dominate the per-leg mean.
    EXPECT_GE(r.rpcLatency.mean(), r.latency.mean());
}

TEST(SessionModel, DriverStartsShedsAndRetiresSessions)
{
    auto net = buildMultibutterfly(fig1Spec(41));
    DestinationGenerator dests(TrafficPattern::UniformRandom, 16,
                               41 ^ 0x77);
    DriverConfig dcfg;
    dcfg.messageWords = 8;
    SessionModelConfig scfg;
    scfg.rate = 0.01;
    scfg.requests = 4;
    scfg.gap = 16;
    SessionDriver driver(&net->endpoint(0), &dests, dcfg, scfg, 77);
    net->engine().addComponent(&driver);
    net->engine().run(20000);
    EXPECT_GT(driver.sessionsStarted(), 100u);
    EXPECT_EQ(driver.sessionsShed(), 0u);
    // Every retired session issued exactly `requests` messages.
    EXPECT_GE(driver.submitted(),
              (driver.sessionsStarted() - driver.sessionsLive()) *
                  4u);
    EXPECT_LE(driver.submitted(), driver.sessionsStarted() * 4u);
}

TEST(SessionModel, MaxActiveCapShedsOverload)
{
    auto net = buildMultibutterfly(fig1Spec(43));
    DestinationGenerator dests(TrafficPattern::UniformRandom, 16,
                               43 ^ 0x77);
    DriverConfig dcfg;
    dcfg.messageWords = 8;
    SessionModelConfig scfg;
    scfg.rate = 0.5; // far more arrivals than one slot can hold
    scfg.requests = 64;
    scfg.gap = 64;
    scfg.maxActive = 1;
    SessionDriver driver(&net->endpoint(0), &dests, dcfg, scfg, 79);
    net->engine().addComponent(&driver);
    net->engine().run(4000);
    EXPECT_GT(driver.sessionsShed(), 0u);
    EXPECT_LE(driver.sessionsLive(), 1u);
}

TEST(SessionModel, ExperimentHarnessMeasuresSessionTraffic)
{
    auto net = buildMultibutterfly(fig1Spec(47));
    ExperimentConfig cfg;
    cfg.messageWords = 8;
    cfg.warmup = 500;
    cfg.measure = 8000;
    cfg.seed = 47;
    cfg.session.rate = 0.002;
    cfg.session.requests = 6;
    cfg.session.gap = 24;
    cfg.session.diurnalPeriod = 4000;
    const auto r = runSessionLoop(*net, cfg);
    EXPECT_GT(r.measuredMessages, 0u);
    EXPECT_GT(r.completedMessages, 0u);
    EXPECT_GT(r.achievedLoad, 0.0);
}

TEST(Validation, RejectsOutOfRangeWorkloadKnobs)
{
    ExperimentConfig good;
    EXPECT_EQ(validateExperimentConfig(good, 16), "");

    ExperimentConfig c = good;
    c.messageWords = 0;
    EXPECT_NE(validateExperimentConfig(c, 16), "");

    c = good;
    c.injectProb = 1.5;
    EXPECT_NE(validateExperimentConfig(c, 16), "");

    c = good;
    c.activeFraction = -0.1;
    EXPECT_NE(validateExperimentConfig(c, 16), "");

    c = good;
    c.pattern = TrafficPattern::Hotspot;
    c.hotFraction = 2.0;
    EXPECT_NE(validateExperimentConfig(c, 16), "");

    c = good;
    c.pattern = TrafficPattern::Hotspot;
    c.hotNode = 16;
    EXPECT_NE(validateExperimentConfig(c, 16), "")
        << "hot node must be a valid endpoint";
    EXPECT_EQ(validateExperimentConfig(c, 0), "")
        << "n = 0 skips the network-size checks";

    c = good;
    c.size.dist = SizeDist::Pareto;
    c.size.minWords = 8;
    c.size.maxWords = 4;
    EXPECT_NE(validateExperimentConfig(c, 16), "");

    c = good;
    c.fanout = 16;
    EXPECT_NE(validateExperimentConfig(c, 16), "")
        << "fan-out needs n-1 distinct destinations";

    c = good;
    c.classMix = {0.5, 0.2};
    EXPECT_NE(validateExperimentConfig(c, 16), "")
        << "mix must sum to 1";

    c = good;
    c.session.rate = 1.5;
    EXPECT_NE(validateExperimentConfig(c, 16), "");
}

/** The ISSUE's acceptance bar: per-class SLO columns (and every
 *  other observable) byte-identical across engine-thread counts,
 *  for each new injection process and the session model. */
TEST(WorkloadIdentity, ReportsByteIdenticalAcrossEngineThreads)
{
    const auto makePoints = [] {
        std::vector<SweepPoint> points;
        for (InjectionKind kind :
             {InjectionKind::Bernoulli, InjectionKind::OnOff,
              InjectionKind::Mmpp}) {
            SweepPoint point;
            point.label = std::string("process=") +
                          injectionKindName(kind);
            point.mode = SweepMode::Open;
            point.config.messageWords = 8;
            point.config.warmup = 200;
            point.config.measure = 1500;
            point.config.injectProb = 0.03;
            point.config.seed = 91;
            point.config.process.kind = kind;
            point.config.size.dist = SizeDist::Pareto;
            point.config.size.minWords = 4;
            point.config.size.maxWords = 32;
            point.config.fanout = 2;
            point.config.classMix = {0.7, 0.2, 0.1};
            point.build = [](std::uint64_t) {
                SweepInstance instance;
                instance.network =
                    buildMultibutterfly(fig1Spec(/*seed=*/5));
                return instance;
            };
            points.push_back(std::move(point));
        }
        SweepPoint session;
        session.label = "session";
        session.mode = SweepMode::Session;
        session.config.messageWords = 8;
        session.config.warmup = 200;
        session.config.measure = 1500;
        session.config.seed = 91;
        session.config.session.rate = 0.004;
        session.config.session.diurnalPeriod = 800;
        session.build = [](std::uint64_t) {
            SweepInstance instance;
            instance.network =
                buildMultibutterfly(fig1Spec(/*seed=*/5));
            return instance;
        };
        points.push_back(std::move(session));
        return points;
    };

    SweepOptions serial;
    serial.threads = 1;
    serial.engineThreads = 1;
    const auto s1 = runSweep(makePoints(), serial);
    const auto csv1 = sweepCsv(s1);
    const auto json1 = sweepJson(s1, /*include_timing=*/false,
                                 /*include_metrics=*/true);
    // The per-class SLO and RPC columns must be present.
    EXPECT_NE(csv1.find("c0P99"), std::string::npos);
    EXPECT_NE(csv1.find("c3Goodput"), std::string::npos);
    EXPECT_NE(csv1.find("rpcGroupsCompleted"), std::string::npos);
    EXPECT_NE(json1.find("\"classes\""), std::string::npos);
    EXPECT_NE(json1.find("\"rpcLatencyP99\""), std::string::npos);

    for (unsigned threads : {2u, 4u, 8u}) {
        SCOPED_TRACE("engineThreads " + std::to_string(threads));
        SweepOptions par;
        par.threads = 2;
        par.engineThreads = threads;
        const auto sN = runSweep(makePoints(), par);
        EXPECT_EQ(csv1, sweepCsv(sN));
        EXPECT_EQ(json1, sweepJson(sN, false, true));
    }
}

/** Both word-conservation identities under bursty fan-out traffic
 *  with a mid-run fault campaign (the ISSUE's second acceptance
 *  identity check). */
TEST(WorkloadConservation, HoldsUnderBurstyFanoutWithFaults)
{
    auto spec = fig1Spec(53);
    spec.niConfig.maxAttempts = 60;
    auto net = buildMultibutterfly(spec);

    FaultInjector injector(net.get());
    injector.schedule({
        {600, FaultKind::LinkDead, 3, kInvalidPort},
        {900, FaultKind::RouterDead, 5, kInvalidPort},
        {1600, FaultKind::LinkHeal, 3, kInvalidPort},
        {2200, FaultKind::RouterHeal, 5, kInvalidPort},
    });
    net->engine().addComponent(&injector);

    ExperimentConfig cfg;
    cfg.messageWords = 8;
    cfg.warmup = 300;
    cfg.measure = 4000;
    cfg.injectProb = 0.04;
    cfg.seed = 53;
    cfg.process.kind = InjectionKind::Mmpp;
    cfg.size.dist = SizeDist::Pareto;
    cfg.size.minWords = 4;
    cfg.size.maxWords = 32;
    cfg.fanout = 2;
    const auto r = runOpenLoop(*net, cfg);

    const auto &m = r.metrics;
    EXPECT_GT(m.get("words.injected"), 0u);
    EXPECT_EQ(m.get("words.injected"),
              m.get("words.delivered") +
                  m.get("words.discarded.block") +
                  m.get("words.discarded.router") +
                  m.get("words.discarded.endpoint") +
                  m.get("words.discarded.wire") +
                  m.get("words.inflight_at_drain"));
    EXPECT_EQ(m.get("words.submitted"),
              m.get("words.admitted") +
                  m.get("words.shed.admission"));
}

} // namespace
} // namespace metro
