/**
 * @file
 * Fault-diagnosis, self-healing, and fault-campaign tests.
 *
 * The acceptance scenario: on a radix-4/dilation-2 multibutterfly
 * with one LinkDead and one LinkCorrupt interstage wire, the
 * DiagnosisEngine must localize and scan-mask both from failed-
 * attempt evidence alone within a bounded cycle budget, keep zero
 * masks on a fault-free control run, and — after the dead wire
 * heals — detect the heal with a boundary probe and re-enable the
 * port. Stochastic FaultCampaign runs must stay byte-identical
 * across sweep thread counts and preserve the word-conservation
 * and exactly-once invariants while diagnosis actively masks.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "diag/engine.hh"
#include "fault/campaign.hh"
#include "network/multibutterfly.hh"
#include "network/presets.hh"
#include "report/csv.hh"
#include "report/json.hh"
#include "sim/link.hh"
#include "sweep/sweep.hh"
#include "traffic/experiment.hh"

namespace metro
{
namespace
{

/** 16-endpoint, two-stage, radix-4/dilation-2 multibutterfly
 *  (the Figure-3 stage shape at test size). */
MultibutterflySpec
diagSpec(std::uint64_t seed)
{
    RouterParams wide;
    wide.width = 8;
    wide.numForward = 8;
    wide.numBackward = 8;
    wide.maxDilation = 2;

    RouterParams narrow;
    narrow.width = 8;
    narrow.numForward = 4;
    narrow.numBackward = 4;
    narrow.maxDilation = 2;

    MbStageSpec s0;
    s0.params = wide;
    s0.radix = 4;
    s0.dilation = 2;

    MbStageSpec s1;
    s1.params = narrow;
    s1.radix = 4;
    s1.dilation = 1;

    MultibutterflySpec spec;
    spec.numEndpoints = 16;
    spec.endpointPorts = 2;
    spec.stages = {s0, s1};
    spec.routerIdleTimeout = 4096;
    spec.niConfig.replyTimeout = 512;
    spec.niConfig.maxAttempts = 100000;
    spec.seed = seed;
    return spec;
}

/** Interstage (router-backward → router-forward) links. */
std::vector<LinkId>
interstageLinks(Network &net)
{
    std::vector<LinkId> links;
    for (LinkId l = 0; l < net.numLinks(); ++l) {
        const Link &link = net.link(l);
        if (link.endA().kind == AttachKind::RouterBackward &&
            link.endB().kind == AttachKind::RouterForward)
            links.push_back(l);
    }
    return links;
}

/** One all-endpoints wave of short messages, run to resolution. */
void
wave(Network &net, unsigned round)
{
    const auto n = static_cast<NodeId>(net.numEndpoints());
    std::vector<std::uint64_t> ids;
    for (NodeId s = 0; s < n; ++s)
        ids.push_back(net.endpoint(s).send(
            (s + 3 + round) % n, {1, 2, 3, 4}));
    net.engine().runUntil(
        [&] {
            for (auto id : ids) {
                const auto &rec = net.tracker().record(id);
                if (!rec.succeeded && !rec.gaveUp)
                    return false;
            }
            return true;
        },
        20000);
}

void
expectConserved(const MetricsRegistry &m, const std::string &ctx)
{
    const auto injected = m.get("words.injected");
    const auto delivered = m.get("words.delivered");
    const auto block = m.get("words.discarded.block");
    const auto router = m.get("words.discarded.router");
    const auto endpoint = m.get("words.discarded.endpoint");
    const auto wire = m.get("words.discarded.wire");
    const auto inflight = m.get("words.inflight_at_drain");
    EXPECT_GT(injected, 0u) << ctx;
    EXPECT_EQ(injected, delivered + block + router + endpoint +
                            wire + inflight)
        << ctx << "\n  injected=" << injected
        << " delivered=" << delivered << " block=" << block
        << " router=" << router << " endpoint=" << endpoint
        << " wire=" << wire << " inflight=" << inflight;
}

TEST(Diagnosis, LocalizesMasksAndHealsInterstageFaults)
{
    auto net = buildMultibutterfly(diagSpec(11));

    // One dead and one corrupt interstage wire, on different
    // upstream routers so the two diagnoses are independent.
    const auto links = interstageLinks(*net);
    ASSERT_GE(links.size(), 2u);
    const LinkId dead = links.front();
    LinkId corrupt = kInvalidLink;
    for (LinkId l : links)
        if (net->link(l).endA().id != net->link(dead).endA().id) {
            corrupt = l;
            break;
        }
    ASSERT_NE(corrupt, kInvalidLink);
    net->link(dead).setFault(LinkFault::Dead);
    net->link(corrupt).setFault(LinkFault::Corrupt);

    DiagConfig dcfg;
    dcfg.probeInterval = 256;
    DiagnosisEngine diag(net.get(), dcfg);
    net->engine().addComponent(&diag);

    // Drive traffic until both faults are masked (bounded budget).
    for (unsigned w = 0; w < 40 && diag.maskedLinks() < 2; ++w)
        wave(*net, w);
    EXPECT_EQ(diag.maskedLinks(), 2u);
    EXPECT_LT(net->engine().now(), 200000u);
    EXPECT_GE(net->metrics().get("diag.masks"), 2u);
    EXPECT_GE(net->metrics().get("diag.diagnoses"), 2u);
    const auto *ttm =
        net->metrics().findHistogram("diag.time_to_mask");
    ASSERT_NE(ttm, nullptr);
    EXPECT_GT(ttm->mean(), 0.0);

    // The implicated ports really are scan-disabled.
    const auto &da = net->link(dead).endA();
    const auto &db = net->link(dead).endB();
    EXPECT_FALSE(
        net->router(da.id).config().backwardEnabled[da.port]);
    EXPECT_FALSE(
        net->router(db.id).config().forwardEnabled[db.port]);

    // Traffic still flows around the masked wires.
    wave(*net, 100);
    for (const auto &[id, rec] : net->tracker().all()) {
        EXPECT_TRUE(rec.succeeded || !rec.gaveUp) << id;
        EXPECT_LE(rec.deliveredCount, 1u) << id;
    }

    // Heal the dead wire: the periodic boundary probe must notice
    // and re-enable both ports; the corrupt wire stays masked.
    net->link(dead).setFault(LinkFault::None);
    net->engine().run(2 * dcfg.probeInterval + 64);
    EXPECT_EQ(diag.maskedLinks(), 1u);
    EXPECT_GE(net->metrics().get("diag.probe_reenables"), 1u);
    EXPECT_TRUE(
        net->router(da.id).config().backwardEnabled[da.port]);
    EXPECT_TRUE(
        net->router(db.id).config().forwardEnabled[db.port]);
}

TEST(Diagnosis, FaultFreeControlKeepsZeroMasks)
{
    auto net = buildMultibutterfly(diagSpec(12));
    DiagnosisEngine diag(net.get());
    net->engine().addComponent(&diag);

    for (unsigned w = 0; w < 10; ++w)
        wave(*net, w);

    // Congestion noise must never be mistaken for a fault: no mask
    // survives (a probe-refuted diagnosis would be counted as a
    // false positive, a kept one as a mask — both must be zero).
    EXPECT_EQ(diag.maskedLinks(), 0u);
    EXPECT_EQ(net->metrics().get("diag.masks"), 0u);
    EXPECT_EQ(net->metrics().get("diag.false_positive_masks"), 0u);
}

/** Sweep points running a stochastic campaign + diagnosis, with
 *  everything random derived from the point's derived seed. */
std::vector<SweepPoint>
campaignPoints()
{
    std::vector<SweepPoint> points;
    for (unsigned rep = 0; rep < 2; ++rep) {
        SweepPoint p;
        p.label = "campaign";
        p.replicate = rep;
        p.mode = SweepMode::Closed;
        p.config.messageWords = 6;
        p.config.warmup = 200;
        p.config.measure = 2500;
        p.config.drainMax = 40000;
        p.config.thinkTime = 2;
        p.config.availabilityWindow = 500;
        p.config.seed = 777; // base seed; runner derives per point
        p.build = [](std::uint64_t derived_seed) {
            SweepInstance inst;
            inst.network = buildMultibutterfly(fig1Spec(9));
            CampaignConfig camp;
            camp.linkFailRate = 0.002;
            camp.linkHealRate = 0.01;
            camp.corruptFraction = 0.5;
            camp.flakyLinks = 1;
            camp.flakyPeriod = 400;
            camp.start = 100;
            camp.stop = 2200; // heal everything before the drain
            auto campaign = std::make_unique<FaultCampaign>(
                inst.network.get(), camp, derived_seed ^ 0xCA3);
            inst.network->engine().addComponent(campaign.get());
            inst.extras.push_back(std::move(campaign));
            DiagConfig dcfg;
            dcfg.probeInterval = 512;
            auto diag = std::make_unique<DiagnosisEngine>(
                inst.network.get(), dcfg);
            inst.network->engine().addComponent(diag.get());
            inst.extras.push_back(std::move(diag));
            return inst;
        };
        points.push_back(std::move(p));
    }
    return points;
}

TEST(Diagnosis, CampaignSweepIsThreadCountInvariant)
{
    const auto points = campaignPoints();

    SweepOptions one;
    one.threads = 1;
    SweepOptions eight;
    eight.threads = 8;
    const auto a = runSweep(points, one);
    const auto b = runSweep(points, eight);

    // Byte-identical reports — fault arrivals, diagnosis actions
    // and the availability metric all derive from the point seed,
    // never from thread schedule.
    const std::string csv = sweepCsv(a);
    EXPECT_EQ(csv, sweepCsv(b));
    EXPECT_EQ(sweepJson(a, false, true), sweepJson(b, false, true));

    EXPECT_NE(csv.find("availability"), std::string::npos);
    EXPECT_NE(csv.find("timeToMaskMean"), std::string::npos);
    EXPECT_NE(csv.find("diagMasks"), std::string::npos);
    for (const auto &pr : a.points) {
        EXPECT_GT(pr.result.availabilityWindows, 0u);
        EXPECT_GE(pr.result.availability, 0.0);
        EXPECT_LE(pr.result.availability, 1.0);
    }
}

TEST(Diagnosis, ConservationAndExactlyOnceUnderCampaign)
{
    auto net = buildMultibutterfly(fig1Spec(31));

    CampaignConfig camp;
    camp.linkFailRate = 0.002;
    camp.linkHealRate = 0.01;
    camp.routerFailRate = 0.0005;
    camp.routerHealRate = 0.01;
    camp.corruptFraction = 0.3;
    camp.flakyLinks = 1;
    camp.flakyPeriod = 512;
    camp.start = 500;
    camp.stop = 6500; // heal everything before the drain
    FaultCampaign campaign(net.get(), camp, 0xFEED);
    net->engine().addComponent(&campaign);

    DiagConfig dcfg;
    dcfg.probeInterval = 512;
    DiagnosisEngine diag(net.get(), dcfg);
    net->engine().addComponent(&diag);

    ExperimentConfig cfg;
    cfg.messageWords = 8;
    cfg.warmup = 500;
    cfg.measure = 6000;
    cfg.drainMax = 60000;
    cfg.thinkTime = 4;
    cfg.seed = 99;
    const auto r = runClosedLoop(*net, cfg);

    // The campaign really did something.
    EXPECT_GT(r.metrics.get("campaign.link_failures") +
                  r.metrics.get("campaign.flaky_toggles"),
              0u);

    // Every word is accounted for and no message is delivered
    // twice, even with wires and routers flapping mid-connection
    // and the diagnosis engine masking ports underneath traffic.
    expectConserved(r.metrics, "campaign run");
    EXPECT_EQ(r.unresolvedMessages, 0u);
    EXPECT_EQ(r.gaveUpMessages, 0u);
    for (const auto &[id, rec] : net->tracker().all())
        EXPECT_LE(rec.deliveredCount, 1u) << id;
}

TEST(RecvWatchdog, HalfOpenIncomingStreamResetsPort)
{
    auto spec = fig1Spec(21);
    spec.niConfig.recvTimeout = 200;
    auto net = buildMultibutterfly(spec);

    // A long message so the source is still streaming when the
    // path dies: the destination's receive port is left latched
    // onto a half-open stream that will never finish.
    std::vector<Word> payload(300, 0xA); // fits the 4-bit channel
    const auto id = net->endpoint(0).send(9, payload);
    net->engine().run(60);
    for (RouterId r : net->routersInStage(0))
        net->router(r).setDead(true);

    // Only the watchdog can free the port (the Drop of the aborted
    // attempt dies inside the dead stage). It must fire within
    // recvTimeout of the stream going quiet.
    net->engine().runUntil(
        [&] {
            return net->endpoint(9).counters().get("recvTimeouts") >
                   0;
        },
        2000);
    EXPECT_GE(net->endpoint(9).counters().get("recvTimeouts"), 1u);
    EXPECT_FALSE(net->tracker().record(id).succeeded);

    // Heal; the source's retry must find a fresh, un-wedged
    // receive port and deliver exactly once.
    for (RouterId r : net->routersInStage(0))
        net->router(r).setDead(false);
    const bool resolved = net->engine().runUntil(
        [&] {
            const auto &rec = net->tracker().record(id);
            return rec.succeeded || rec.gaveUp;
        },
        100000);
    ASSERT_TRUE(resolved);
    EXPECT_TRUE(net->tracker().record(id).succeeded);
    EXPECT_EQ(net->tracker().record(id).deliveredCount, 1u);

    // Quiesce, then check nothing leaked from the conservation
    // ledger: the words the watchdog threw away were counted as
    // delivered wire words when they arrived.
    net->engine().run(8000);
    const auto m = net->metricsSnapshot();
    EXPECT_EQ(m.get("words.injected"),
              m.get("words.delivered") +
                  m.get("words.discarded.block") +
                  m.get("words.discarded.router") +
                  m.get("words.discarded.endpoint") +
                  m.get("words.discarded.wire"));
}

} // namespace
} // namespace metro
