/**
 * @file
 * Fault-injector tests: scheduled events fire at the right cycle,
 * survivable fault sampling preserves connectivity, healing works,
 * and the end-to-end system recovers from each fault kind.
 */

#include <gtest/gtest.h>

#include "fault/injector.hh"
#include "network/analysis.hh"
#include "network/presets.hh"

namespace metro
{
namespace
{

TEST(FaultInjector, EventsFireAtTheScheduledCycle)
{
    auto net = buildMultibutterfly(fig1Spec(1));
    FaultInjector injector(net.get());
    injector.schedule({10, FaultKind::RouterDead, 0, kInvalidPort});
    injector.schedule({20, FaultKind::RouterHeal, 0, kInvalidPort});
    net->engine().addComponent(&injector);

    net->engine().run(10);
    EXPECT_FALSE(net->router(0).dead());
    net->engine().run(1);
    EXPECT_TRUE(net->router(0).dead());
    EXPECT_EQ(injector.applied(), 1u);
    net->engine().run(10);
    EXPECT_FALSE(net->router(0).dead());
    EXPECT_EQ(injector.applied(), 2u);
}

TEST(FaultInjector, AppliesEveryKind)
{
    auto net = buildMultibutterfly(fig1Spec(2));
    FaultInjector injector(net.get());
    injector.schedule({1, FaultKind::LinkDead, 3, kInvalidPort});
    injector.schedule({1, FaultKind::LinkCorrupt, 4, kInvalidPort});
    injector.schedule({1, FaultKind::RouterMisroute, 2,
                       kInvalidPort});
    injector.schedule({1, FaultKind::ForwardPortOff, 5, 1});
    injector.schedule({1, FaultKind::BackwardPortOff, 5, 2});
    net->engine().addComponent(&injector);
    net->engine().run(3);

    EXPECT_EQ(net->link(3).fault(), LinkFault::Dead);
    EXPECT_EQ(net->link(4).fault(), LinkFault::Corrupt);
    EXPECT_FALSE(net->router(5).config().forwardEnabled[1]);
    EXPECT_FALSE(net->router(5).config().backwardEnabled[2]);
    injector.schedule({5, FaultKind::LinkHeal, 3, kInvalidPort});
    net->engine().run(5);
    EXPECT_EQ(net->link(3).fault(), LinkFault::None);
}

TEST(FaultInjector, SurvivableSampleKeepsConnectivity)
{
    const auto spec = fig3Spec(3);
    auto net = buildMultibutterfly(spec);
    const auto events = sampleSurvivableFaults(
        *net, /*routers=*/4, /*links=*/12, /*at=*/0,
        /*seed=*/11);
    EXPECT_EQ(events.size(), 16u);

    FaultInjector injector(net.get());
    injector.schedule(events);
    net->engine().addComponent(&injector);
    net->engine().run(1);
    EXPECT_TRUE(allPairsConnected(*net, spec));
    EXPECT_GT(minPathsOverPairs(*net, spec), 0u);
    EXPECT_LT(minPathsOverPairs(*net, spec), 8u);
}

TEST(FaultInjector, SamplingIsDeterministic)
{
    const auto spec = fig3Spec(4);
    auto net = buildMultibutterfly(spec);
    const auto a =
        sampleSurvivableFaults(*net, 3, 5, 100, 7);
    const auto b =
        sampleSurvivableFaults(*net, 3, 5, 100, 7);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t k = 0; k < a.size(); ++k) {
        EXPECT_EQ(a[k].target, b[k].target);
        EXPECT_EQ(a[k].kind, b[k].kind);
        EXPECT_EQ(a[k].at, 100u);
    }
}

TEST(FaultInjector, TrialApplicationIsReverted)
{
    const auto spec = fig3Spec(5);
    auto net = buildMultibutterfly(spec);
    sampleSurvivableFaults(*net, 4, 8, 0, 9);
    // Nothing stays faulted after sampling.
    for (RouterId r = 0; r < net->numRouters(); ++r)
        EXPECT_FALSE(net->router(r).dead());
    for (LinkId l = 0; l < net->numLinks(); ++l)
        EXPECT_EQ(net->link(l).fault(), LinkFault::None);
}

TEST(FaultInjector, CorruptLinkCaughtByChecksumEndToEnd)
{
    const auto spec = fig1Spec(6);
    auto net = buildMultibutterfly(spec);
    // Corrupt one interstage link; messages crossing it are NACKed
    // and retried onto other paths; everything still delivers.
    for (LinkId l = 0; l < net->numLinks(); ++l) {
        Link &link = net->link(l);
        if (link.endA().kind == AttachKind::RouterBackward &&
            link.endB().kind == AttachKind::RouterForward) {
            link.setFault(LinkFault::Corrupt);
            break;
        }
    }
    std::vector<std::uint64_t> ids;
    for (NodeId s = 0; s < 16; ++s)
        ids.push_back(
            net->endpoint(s).send((s + 5) % 16, {1, 2, 3, 4}));
    net->engine().runUntil(
        [&] {
            for (auto id : ids) {
                const auto &rec = net->tracker().record(id);
                if (!rec.succeeded && !rec.gaveUp)
                    return false;
            }
            return true;
        },
        50000);
    for (auto id : ids) {
        const auto &rec = net->tracker().record(id);
        EXPECT_TRUE(rec.succeeded) << "message " << id;
        EXPECT_EQ(rec.deliveredCount, 1u);
    }
}

} // namespace
} // namespace metro
