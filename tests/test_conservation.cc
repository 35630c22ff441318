/**
 * @file
 * Word-conservation invariant property test.
 *
 * In a fault-free, cascade-width-1 network every Data word that an
 * endpoint pushes onto the wire must end up in exactly one bin:
 * delivered to a destination, discarded by a router (connection
 * teardown, BCB reclamation, idle discard), discarded because the
 * connection blocked, discarded at an endpoint (stray words after a
 * reversal), or still sitting on a link lane when the drain window
 * closes. The MetricsRegistry counts each bin at the point of
 * consumption plus an end-of-tick census of unread lane heads, so
 *
 *     words.injected == words.delivered
 *                     + words.discarded.block
 *                     + words.discarded.router
 *                     + words.discarded.endpoint
 *                     + words.inflight_at_drain
 *
 * holds exactly — not statistically — across topologies, load
 * disciplines and protocol options. This test sweeps randomized
 * combinations of both.
 *
 * With faults, dead lanes add the words.discarded.wire bin. The
 * fault-edge tests below drive links through random schedules of
 * dead, corrupt and heal transitions, including two in one cycle in
 * either order, at the lane level, through a serve run cut by a
 * checkpoint, and on the fault-campaign seeds that once broke the
 * identity by one word.
 */

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "app/faultfile.hh"
#include "app/options.hh"
#include "network/multibutterfly.hh"
#include "network/presets.hh"
#include "serve/service.hh"
#include "sim/link.hh"
#include "traffic/experiment.hh"

namespace metro
{
namespace
{

MbStageSpec
stage(const RouterParams &params, unsigned radix, unsigned dilation)
{
    MbStageSpec s;
    s.params = params;
    s.radix = radix;
    s.dilation = dilation;
    return s;
}

MultibutterflySpec
smallSpec(std::vector<MbStageSpec> stages, unsigned endpoints,
          unsigned ports)
{
    MultibutterflySpec spec;
    spec.numEndpoints = endpoints;
    spec.endpointPorts = ports;
    spec.stages = std::move(stages);
    spec.routerIdleTimeout = 4096;
    spec.niConfig.replyTimeout = 512;
    spec.niConfig.maxAttempts = 100000;
    return spec;
}

/** Valid topologies spanning 1–4 stages, radix 2/4/8, dilation 1/2,
 *  1 or 2 endpoint ports, and both router widths. */
std::vector<MultibutterflySpec>
topologyMenu()
{
    const RouterParams jr = RouterParams::metroJr();
    const RouterParams rn = RouterParams::rn1();
    std::vector<MultibutterflySpec> menu;

    menu.push_back(fig1Spec(1)); // 3-stage, 16 endpoints

    auto one_port = fig1Spec(1);
    one_port.endpointPorts = 1;
    menu.push_back(one_port);

    menu.push_back(table32Spec(jr, 1)); // 4-stage, 32 endpoints
    menu.push_back(table32Spec(rn, 1)); // 2-stage, 32 endpoints

    menu.push_back(smallSpec({stage(jr, 4, 1)}, 4, 2));
    menu.push_back(smallSpec({stage(rn, 4, 2)}, 4, 2));
    menu.push_back(
        smallSpec({stage(jr, 2, 2), stage(jr, 2, 2)}, 4, 2));
    return menu;
}

void
expectConserved(const ExperimentResult &r, const std::string &ctx)
{
    const auto injected = r.metrics.get("words.injected");
    const auto delivered = r.metrics.get("words.delivered");
    const auto block = r.metrics.get("words.discarded.block");
    const auto router = r.metrics.get("words.discarded.router");
    const auto endpoint = r.metrics.get("words.discarded.endpoint");
    const auto inflight = r.metrics.get("words.inflight_at_drain");
    EXPECT_GT(injected, 0u) << ctx;
    EXPECT_EQ(injected,
              delivered + block + router + endpoint + inflight)
        << ctx << "\n  injected=" << injected
        << " delivered=" << delivered << " block=" << block
        << " router=" << router << " endpoint=" << endpoint
        << " inflight=" << inflight;
    EXPECT_GT(delivered, 0u) << ctx;
}

TEST(Conservation, HoldsAcrossRandomizedTopologiesAndLoads)
{
    std::mt19937_64 rng(0xC0115EED);
    const auto menu = topologyMenu();

    for (std::size_t iter = 0; iter < 12; ++iter) {
        MultibutterflySpec spec = menu[iter % menu.size()];
        spec.seed = rng();
        spec.fastReclaim = (rng() & 1) != 0;
        spec.randomSelection = (rng() & 1) != 0;
        auto net = buildMultibutterfly(spec);

        ExperimentConfig cfg;
        cfg.seed = rng();
        cfg.messageWords = 4 + static_cast<unsigned>(rng() % 17);
        cfg.warmup = 100;
        cfg.measure = 600;
        cfg.drainMax = 20000;
        cfg.thinkTime = static_cast<unsigned>(rng() % 8);
        cfg.injectProb = 0.02 + 0.0001 * (rng() % 800);

        const bool open = (rng() & 1) != 0;
        const auto r = open ? runOpenLoop(*net, cfg)
                            : runClosedLoop(*net, cfg);

        std::string ctx =
            "iter " + std::to_string(iter) + " (" +
            std::to_string(spec.stages.size()) + " stages, " +
            std::to_string(spec.numEndpoints) + " eps, " +
            (open ? "open" : "closed") +
            (spec.fastReclaim ? ", fastReclaim" : "") + ")";
        expectConserved(r, ctx);
    }
}

TEST(Conservation, HoldsForRequestReplyTraffic)
{
    // Replies reuse the reversed connection: words flow both ways
    // on the same circuit, exercising the endpoint-side discard and
    // delivery paths that one-way traffic cannot.
    std::mt19937_64 rng(0x5EB1CA11);
    for (std::size_t iter = 0; iter < 3; ++iter) {
        auto spec = fig1Spec(rng());
        spec.fastReclaim = (iter & 1) != 0;
        auto net = buildMultibutterfly(spec);

        ExperimentConfig cfg;
        cfg.seed = rng();
        cfg.messageWords = 8;
        cfg.warmup = 100;
        cfg.measure = 800;
        cfg.drainMax = 20000;
        cfg.thinkTime = 5;
        cfg.requestReply = true;

        expectConserved(runClosedLoop(*net, cfg),
                        "request-reply iter " + std::to_string(iter));
    }
}

TEST(Conservation, BackToBackExperimentsEachBalance)
{
    // The per-run delta accounting must make each experiment balance
    // on its own even though the underlying counters are cumulative.
    auto net = buildMultibutterfly(fig1Spec(44));
    ExperimentConfig cfg;
    cfg.messageWords = 8;
    cfg.warmup = 100;
    cfg.measure = 600;
    cfg.drainMax = 20000;
    cfg.thinkTime = 2;
    cfg.seed = 7;
    expectConserved(runClosedLoop(*net, cfg), "first run");
    cfg.seed = 8;
    expectConserved(runClosedLoop(*net, cfg), "second run");
}

/**
 * One link, driven by hand through random fault schedules: every
 * cycle both ends read their heads, pushes arrive, then zero, one or
 * two fault transitions land (readers tick before the fault
 * machinery), then the lanes advance. After a fault-free drain every
 * pushed Data word was either read or charged to the wire exactly
 * once.
 */
TEST(FaultEdges, RandomSameCycleTransitionsConserveLaneWords)
{
    const LinkFault modes[] = {LinkFault::None, LinkFault::Dead,
                               LinkFault::Corrupt};
    for (unsigned trial = 0; trial < 200; ++trial) {
        std::mt19937_64 rng(trial);
        const auto pick = [&rng](unsigned n) {
            return static_cast<unsigned>(rng() % n);
        };
        Link link(0, 1 + pick(4), 1 + pick(4), trial + 1);
        std::uint64_t pushed = 0, read = 0, charged = 0;
        // One cycle; `traffic` false drains: no pushes, and the
        // link heals after the reads.
        const auto cycle = [&](bool traffic) {
            read += link.headDown().kind == SymbolKind::Data;
            read += link.headUp().kind == SymbolKind::Data;
            if (traffic && pick(3) != 0) {
                link.pushDown(Symbol::data(pick(256)));
                ++pushed;
            }
            if (traffic && pick(3) != 0) {
                link.pushUp(Symbol::data(pick(256)));
                ++pushed;
            }
            if (!traffic) {
                link.setFault(LinkFault::None);
            } else if (pick(4) == 0) {
                // One or two transitions, in either order.
                link.setFault(modes[pick(3)]);
                if (pick(2) == 0)
                    link.setFault(modes[pick(3)]);
            }
            link.advance();
            charged += link.laneArena()->takeWireDiscards();
        };
        for (unsigned c = 0; c < 300; ++c)
            cycle(true);
        for (unsigned c = 0; c < 8; ++c)
            cycle(false);
        ASSERT_EQ(link.inFlight(SymbolKind::Data), 0u);
        ASSERT_EQ(pushed, read + charged)
            << "trial " << trial << ": pushed " << pushed << ", read "
            << read << ", charged to the wire " << charged;
    }
}

TEST(FaultEdges, FailThenHealInOneCycleChargesNothing)
{
    Link link(0, 2, 2);
    link.pushDown(Symbol::data(1));
    link.advance();
    link.pushDown(Symbol::data(2));
    link.advance();
    // The reader takes word 1 while the link is healthy; the link
    // then fails and heals before the cycle ends.
    EXPECT_EQ(link.headDown().value, 1u);
    link.setFault(LinkFault::Dead);
    link.setFault(LinkFault::None);
    link.advance();
    EXPECT_EQ(link.laneArena()->takeWireDiscards(), 0u)
        << "word 1 was read; charging it too counts it twice";
    EXPECT_EQ(link.headDown().value, 2u);
}

TEST(FaultEdges, HealThenFailInOneCycleKeepsCharging)
{
    Link link(0, 2, 2);
    link.setFault(LinkFault::Dead);
    link.pushDown(Symbol::data(1));
    link.advance();
    link.pushDown(Symbol::data(2));
    link.advance();
    // The reader sees nothing on the dead link; it heals and fails
    // again before the cycle ends, so word 1 falls off unread.
    EXPECT_EQ(link.headDown().kind, SymbolKind::Empty);
    link.setFault(LinkFault::None);
    link.setFault(LinkFault::Dead);
    link.advance();
    EXPECT_EQ(link.laneArena()->takeWireDiscards(), 1u);
    EXPECT_EQ(link.headDown().kind, SymbolKind::Empty);
    link.advance();
    EXPECT_EQ(link.laneArena()->takeWireDiscards(), 1u);
}

/** Serve `setup` to `until` (after restoring `checkpoint` when one is
 *  given), collecting its window records; `violation` gets run()'s
 *  verdict. */
std::vector<std::string>
serveWindows(ServeSetup &setup, Cycle until, std::string &violation,
             const std::vector<std::uint8_t> &checkpoint = {},
             std::vector<std::uint8_t> *save = nullptr)
{
    std::vector<std::string> lines;
    ServeConfig cfg = setup.config;
    cfg.runCycles = until;
    ServiceRunner runner(cfg, setup.parts);
    runner.setEmitter(
        [&lines](const std::string &line) { lines.push_back(line); });
    if (!checkpoint.empty()) {
        EXPECT_EQ(runner.restoreFromBytes(checkpoint.data(),
                                          checkpoint.size()),
                  "");
    }
    violation = runner.run();
    if (save != nullptr)
        *save = runner.checkpointBytes();
    return lines;
}

/**
 * Random same-cycle dead/corrupt/heal pairs, in both orders, on
 * router-output and injection links of a served fig1 network: both
 * conservation identities hold at every window (ServiceRunner::run
 * checks them), at one and four engine threads, and a run cut by a
 * checkpoint and restored continues the stream byte for byte.
 */
TEST(FaultEdges, SameCycleSchedulesConserveAcrossACheckpointCut)
{
    const char *kinds[] = {"linkDead", "linkCorrupt", "linkHeal"};
    constexpr Cycle kWindow = 256, kCut = 4096, kTotal = 8192;
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        Options opts;
        opts.config.network.kind = NetworkRecipe::Kind::Fig1;
        opts.config.network.seed = seed;
        opts.config.think = {20};
        opts.serve = true;
        opts.window = kWindow;
        const auto links =
            static_cast<unsigned>(opts.config.network.build()->numLinks());
        std::mt19937_64 rng(seed);
        std::string text;
        for (unsigned k = 0; k < 60; ++k) {
            const Cycle at = 200 + rng() % (kTotal - 600);
            const unsigned link = static_cast<unsigned>(rng() % links);
            const auto event = [&](Cycle c, const char *kind) {
                text += "fault = " + std::to_string(c) + " " + kind +
                        " " + std::to_string(link) + "\n";
            };
            event(at, kinds[rng() % 3]);
            event(at, kinds[rng() % 3]);
            event(at + 1 + rng() % 300, "linkHeal");
        }
        std::string error;
        opts.config.network.faultPath = "edges.fault";
        opts.config.network.faults = parseFaultText(text, error);
        ASSERT_EQ(error, "");

        for (unsigned threads : {1u, 4u}) {
            SCOPED_TRACE("seed " + std::to_string(seed) + ", " +
                         std::to_string(threads) + " engine threads");
            opts.config.engineThreads = threads;
            std::string violation;
            auto full = buildServeSetup(opts);
            const auto reference =
                serveWindows(*full, kTotal, violation);
            ASSERT_EQ(violation, "");
            ASSERT_EQ(reference.size(), kTotal / kWindow);

            std::vector<std::uint8_t> checkpoint;
            auto before = buildServeSetup(opts);
            auto resumed =
                serveWindows(*before, kCut, violation, {}, &checkpoint);
            ASSERT_EQ(violation, "");
            auto after = buildServeSetup(opts);
            const auto tail =
                serveWindows(*after, kTotal, violation, checkpoint);
            ASSERT_EQ(violation, "");
            resumed.insert(resumed.end(), tail.begin(), tail.end());
            EXPECT_EQ(resumed, reference);
        }
    }
}

/**
 * The ci/soak-smoke.sh campaign (Poisson link churn with corruption
 * plus two flaky links) on fig3 at think 0 with diagnosis: the churn
 * can fail and heal one link in the same cycle, which broke wire
 * conservation by one word at seed 28 (window 35) and seed 38
 * (window 22).
 */
class CampaignSeed
    : public ::testing::TestWithParam<std::tuple<unsigned, unsigned>>
{
};

TEST_P(CampaignSeed, ServesFortyWindowsConserved)
{
    const auto [seed, threads] = GetParam();
    Options opts;
    opts.config.network.kind = NetworkRecipe::Kind::Fig3;
    opts.config.network.seed = seed;
    opts.config.network.diagnosis = true;
    opts.config.think = {0};
    opts.config.engineThreads = threads;
    opts.serve = true;
    opts.serveCycles = 40 * opts.window;
    std::string error;
    opts.config.network.faultPath = "campaign.fault";
    opts.config.network.faults =
        parseFaultText("linkFailRate = 0.0008\n"
                       "linkHealRate = 0.008\n"
                       "corruptFraction = 0.25\n"
                       "flakyLinks = 2\n"
                       "flakyPeriod = 512\n"
                       "start = 1000\n",
                       error);
    ASSERT_EQ(error, "");
    auto setup = buildServeSetup(opts);
    ServiceRunner runner(setup->config, setup->parts);
    EXPECT_EQ(runner.run(), "");
    EXPECT_EQ(setup->instance.network->engine().now(), opts.serveCycles);
}

INSTANTIATE_TEST_SUITE_P(
    SoakSmoke, CampaignSeed,
    ::testing::Combine(::testing::Values(28u, 38u),
                       ::testing::Values(1u, 4u)),
    [](const auto &info) {
        return "seed" + std::to_string(std::get<0>(info.param)) + "_t" +
               std::to_string(std::get<1>(info.param));
    });

} // namespace
} // namespace metro
