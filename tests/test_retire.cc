/**
 * @file
 * Ledger retirement in serve mode (serve/service.cc,
 * endpoint/message.hh).
 *
 * The protocol is source-responsible: once a message resolves and
 * its last symbols drain, nothing in the fabric names it again, so
 * ServiceRunner retires resolved records at window boundaries and
 * serve state stays O(live). These tests pin the three promises:
 * the ledger and the checkpoint stop growing with run length, every
 * retiring record passes the exactly-once audit (a breach stops
 * serve), and a lookup of a retired id is a hard error instead of a
 * silent "unknown".
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "app/options.hh"
#include "endpoint/message.hh"
#include "network/analysis.hh"
#include "network/fattree.hh"
#include "network/multibutterfly.hh"
#include "network/presets.hh"
#include "serve/checkpoint.hh"
#include "serve/service.hh"

namespace metro
{
namespace
{

Options
serveOptions(NetworkRecipe::Kind kind, unsigned think)
{
    Options opts;
    opts.config.network.kind = kind;
    opts.config.think = {think};
    opts.serve = true;
    opts.window = 1024;
    return opts;
}

TEST(Retire, MarginIsTheLongestRouteLatency)
{
    // fig3: three stages, every lane one cycle (dp = 1, no wire
    // delay), so a route is four lanes.
    auto fig3 = buildMultibutterfly(fig3Spec(1));
    EXPECT_EQ(longestRouteLatency(*fig3), 4u);

    // Wire delay lengthens every lane.
    auto slow = fig1Spec(1);
    for (auto &stage : slow.stages)
        stage.linkDelay = 2;
    slow.endpointLinkDelay = 2;
    auto fig1 = buildMultibutterfly(slow);
    EXPECT_EQ(longestRouteLatency(*fig1), 4u * 3u);

    // A fat tree routes up to the root and back down (2L lanes),
    // but its up and down wires form cycles, so the bound covers
    // every walk that visits no router twice.
    FatTreeSpec ft;
    ft.levels = 3;
    auto tree = buildFatTree(ft);
    EXPECT_GE(longestRouteLatency(*tree), 2u * ft.levels);
    EXPECT_LE(longestRouteLatency(*tree), tree->numRouters() + 1);

    auto setup = buildServeSetup(serveOptions(NetworkRecipe::Kind::Fig3, 0));
    ServiceRunner runner(setup->config, setup->parts);
    EXPECT_EQ(runner.retireMargin(), 4u);
}

TEST(Retire, CheckpointAndLedgerStayFlatOnFig3Serve)
{
    struct Footprint
    {
        std::size_t checkpointBytes = 0;
        std::size_t ledgerRecords = 0;
    };
    auto setup =
        buildServeSetup(serveOptions(NetworkRecipe::Kind::Fig3, 0));
    Network &net = *setup->instance.network;
    std::vector<Footprint> at;
    ServeConfig cfg = setup->config;
    cfg.runCycles = 60 * cfg.window;
    ServiceRunner runner(cfg, setup->parts);
    runner.setEmitter([&](const std::string &) {
        const std::uint64_t window = runner.windowsEmitted() + 1;
        if (window == 10 || window == 60)
            at.push_back({runner.checkpointBytes().size(),
                          net.tracker().size()});
    });
    ASSERT_EQ(runner.run(), "");
    ASSERT_EQ(at.size(), 2u);
    const auto within10 = [](double late, double early) {
        return late <= 1.1 * early && late >= 0.9 * early;
    };
    EXPECT_TRUE(within10(at[1].checkpointBytes, at[0].checkpointBytes))
        << "checkpoint " << at[0].checkpointBytes << " B at window 10, "
        << at[1].checkpointBytes << " B at window 60";
    EXPECT_TRUE(within10(at[1].ledgerRecords, at[0].ledgerRecords))
        << "ledger " << at[0].ledgerRecords << " records at window 10, "
        << at[1].ledgerRecords << " at window 60";

    // Retirement kept every resolved record out of the live set but
    // accounted for it.
    const auto &retired = net.tracker().retired();
    EXPECT_GT(retired.records, 100u * at[1].ledgerRecords);
    EXPECT_EQ(retired.records + net.tracker().size() + 1,
              net.tracker().nextId());
    EXPECT_EQ(retired.records, retired.succeeded + retired.gaveUp);
}

TEST(Retire, RetiresExactlyTheRecordsPastTheMargin)
{
    // The same instance twice: served (retiring at each boundary)
    // and run straight through (keeping every record). Retirement
    // changes nothing the simulation sees, so the full ledger says
    // which records the served one must have dropped.
    const Options opts = serveOptions(NetworkRecipe::Kind::Fig1, 20);
    auto served = buildServeSetup(opts);
    auto kept = buildServeSetup(opts);
    ServeConfig cfg = served->config;
    cfg.runCycles = 4 * cfg.window;
    ServiceRunner runner(cfg, served->parts);
    ASSERT_EQ(runner.run(), "");
    kept->instance.network->engine().run(cfg.runCycles);

    const MessageTracker &live = served->instance.network->tracker();
    const MessageTracker &all = kept->instance.network->tracker();
    ASSERT_EQ(live.nextId(), all.nextId());
    const Cycle horizon = cfg.runCycles - runner.retireMargin();
    std::size_t pastMargin = 0, withinMargin = 0;
    for (const auto &[id, rec] : all.all()) {
        const bool due = (rec.succeeded || rec.gaveUp) &&
                         rec.completeCycle <= horizon;
        EXPECT_EQ(live.known(id), !due) << "message " << id;
        ++(due ? pastMargin : withinMargin);
    }
    EXPECT_EQ(live.retired().records, pastMargin);
    EXPECT_EQ(live.size(), withinMargin);
}

TEST(Retire, AuditBreachStopsServe)
{
    auto setup =
        buildServeSetup(serveOptions(NetworkRecipe::Kind::Fig1, 20));
    MessageTracker &tracker = setup->instance.network->tracker();
    ServeConfig cfg = setup->config;
    cfg.runCycles = 16 * cfg.window;
    ServiceRunner runner(cfg, setup->parts);
    // At the first boundary that leaves a resolved record live, mark
    // it delivered twice: it must not retire quietly at the next.
    std::uint64_t victim = 0;
    std::string expected;
    runner.setEmitter([&](const std::string &) {
        if (victim != 0)
            return;
        for (const auto &[id, rec] : tracker.all())
            if (rec.succeeded && (victim == 0 || id < victim))
                victim = id;
        if (victim == 0)
            return;
        tracker.record(victim).deliveredCount = 2;
        const std::uint64_t next = runner.windowsEmitted() + 1;
        expected = "window " + std::to_string(next) + " (cycle " +
                   std::to_string((next + 1) * cfg.window) +
                   "): exactly-once audit failed: message " +
                   std::to_string(victim) +
                   " delivered 2 times (succeeded)";
    });
    const std::string violation = runner.run();
    ASSERT_NE(victim, 0u) << "no resolved record was ever live";
    EXPECT_EQ(violation, expected);
    EXPECT_TRUE(tracker.known(victim))
        << "a breaching record is kept for inspection";
}

TEST(RetireDeathTest, LookingUpARetiredIdAborts)
{
    MessageTracker tracker;
    const auto id = tracker.add(MessageRecord{});
    auto &rec = tracker.record(id);
    rec.succeeded = true;
    rec.deliveredCount = 1;
    rec.completeCycle = 10;
    EXPECT_EQ(tracker.retire(9), "");
    EXPECT_TRUE(tracker.known(id)) << "resolved after the horizon";
    EXPECT_EQ(tracker.retire(10), "");
    EXPECT_FALSE(tracker.known(id));
    EXPECT_EQ(tracker.retired().records, 1u);
    EXPECT_EQ(tracker.retired().succeeded, 1u);
    // Ids never issued are merely unknown.
    EXPECT_EQ(tracker.find(0), nullptr);
    EXPECT_EQ(tracker.find(id + 1), nullptr);
    EXPECT_DEATH(tracker.find(id), "retired");
    EXPECT_DEATH(tracker.record(id), "retired");
}

} // namespace
} // namespace metro
