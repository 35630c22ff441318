/**
 * @file
 * Tests for the deterministic parallel sweep runner: seed
 * derivation, thread-count invariance of the emitted CSV/JSON, and
 * the experiment-reset contract the runner relies on for
 * one-network-many-points reuse.
 */

#include <gtest/gtest.h>

#include <set>

#include "network/presets.hh"
#include "report/csv.hh"
#include "report/json.hh"
#include "sweep/sweep.hh"
#include "traffic/experiment.hh"

namespace metro
{
namespace
{

/** A small, fast sweep: 3 think times x 2 replicates on fig1. */
std::vector<SweepPoint>
smallSweep()
{
    std::vector<SweepPoint> points;
    for (unsigned think : {50u, 20u, 5u}) {
        for (unsigned rep = 0; rep < 2; ++rep) {
            SweepPoint point;
            point.label = "think=" + std::to_string(think);
            point.replicate = rep;
            point.config.messageWords = 8;
            point.config.warmup = 200;
            point.config.measure = 1000;
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
    }
    return points;
}

TEST(SweepSeed, DerivationIsPureAndDecorrelated)
{
    EXPECT_EQ(sweepDeriveSeed(1, 2, 3), sweepDeriveSeed(1, 2, 3));

    // Distinct triples must yield distinct seeds (the point of the
    // SplitMix64 chain); collect a grid and expect no collisions.
    std::set<std::uint64_t> seen;
    for (std::uint64_t base : {0ULL, 1ULL, 77ULL}) {
        for (std::uint64_t index = 0; index < 8; ++index) {
            for (std::uint64_t rep = 0; rep < 4; ++rep)
                seen.insert(sweepDeriveSeed(base, index, rep));
        }
    }
    EXPECT_EQ(seen.size(), 3u * 8u * 4u);

    // Index and replicate must not alias (swapping them changes
    // the seed).
    EXPECT_NE(sweepDeriveSeed(1, 2, 3), sweepDeriveSeed(1, 3, 2));
}

TEST(SweepRunner, ResultsComeBackInPointOrder)
{
    const auto points = smallSweep();
    SweepOptions opts;
    opts.threads = 3;
    const auto sweep = runSweep(points, opts);
    ASSERT_EQ(sweep.points.size(), points.size());
    for (std::size_t i = 0; i < points.size(); ++i) {
        EXPECT_EQ(sweep.points[i].label, points[i].label);
        EXPECT_EQ(sweep.points[i].replicate, points[i].replicate);
        EXPECT_GT(sweep.points[i].result.completedMessages, 0u);
    }
}

TEST(SweepRunner, ByteIdenticalAcrossThreadCounts)
{
    const auto points = smallSweep();

    SweepOptions serial;
    serial.threads = 1;
    const auto s1 = runSweep(points, serial);

    SweepOptions parallel;
    parallel.threads = 8;
    const auto s8 = runSweep(points, parallel);

    // The deterministic payloads must match byte for byte; only
    // timing metadata (excluded from these documents) may differ.
    EXPECT_EQ(sweepCsv(s1), sweepCsv(s8));
    EXPECT_EQ(sweepJson(s1), sweepJson(s8));

    // The metrics blobs are derived from simulated events only, so
    // documents that include them stay byte-identical too.
    const auto m1 = sweepJson(s1, /*include_timing=*/false,
                              /*include_metrics=*/true);
    const auto m8 = sweepJson(s8, /*include_timing=*/false,
                              /*include_metrics=*/true);
    EXPECT_EQ(m1, m8);
    EXPECT_NE(m1.find("\"metrics\""), std::string::npos);
    EXPECT_NE(m1.find("\"words.injected\""), std::string::npos);
}

TEST(SweepRunner, MatchesADirectRunWithTheDerivedSeed)
{
    auto points = smallSweep();
    points.resize(1);
    const auto sweep = runSweep(points, {});

    auto net = buildMultibutterfly(fig1Spec(/*seed=*/5));
    ExperimentConfig cfg = points[0].config;
    cfg.seed = sweepDeriveSeed(points[0].config.seed, 0,
                               points[0].replicate);
    const auto direct = runClosedLoop(*net, cfg);

    const auto &r = sweep.points[0].result;
    EXPECT_EQ(sweep.points[0].seed, cfg.seed);
    EXPECT_EQ(r.completedMessages, direct.completedMessages);
    EXPECT_DOUBLE_EQ(r.achievedLoad, direct.achievedLoad);
    EXPECT_DOUBLE_EQ(r.latency.mean(), direct.latency.mean());
}

TEST(SweepRunner, InspectHookSeesTheLiveNetwork)
{
    auto points = smallSweep();
    points.resize(2);
    std::vector<std::size_t> ledger_sizes(points.size(), 0);
    for (std::size_t i = 0; i < points.size(); ++i) {
        points[i].inspect = [&ledger_sizes,
                             i](Network &net,
                                const ExperimentResult &result) {
            ledger_sizes[i] = net.tracker().size();
            EXPECT_GT(result.completedMessages, 0u);
        };
    }
    const auto sweep = runSweep(points, {});
    for (std::size_t i = 0; i < points.size(); ++i) {
        const auto &r = sweep.points[i].result;
        EXPECT_EQ(ledger_sizes[i], r.completedMessages +
                                       r.gaveUpMessages +
                                       r.unresolvedMessages);
    }
}

TEST(SweepJson, TimingMetadataIsOptIn)
{
    auto points = smallSweep();
    points.resize(1);
    const auto sweep = runSweep(points, {});

    const auto bare = sweepJson(sweep, /*include_timing=*/false);
    EXPECT_EQ(bare.find("wallSeconds"), std::string::npos);
    EXPECT_EQ(bare.find("\"threads\""), std::string::npos);
    EXPECT_NE(bare.find("\"metro-sweep-v1\""), std::string::npos);
    EXPECT_NE(bare.find("\"label\": \"think=50\""),
              std::string::npos);

    const auto timed = sweepJson(sweep, /*include_timing=*/true);
    EXPECT_NE(timed.find("wallSeconds"), std::string::npos);
    EXPECT_NE(timed.find("\"threads\""), std::string::npos);
    // No profile was asked for, so none is reported.
    EXPECT_EQ(timed.find("engineProfile"), std::string::npos);
}

TEST(SweepJson, EngineProfileRidesWithTimingOnly)
{
    auto points = smallSweep();
    points.resize(2);
    SweepOptions options;
    options.engineThreads = 2;
    const auto plain = runSweep(points, options);
    options.profileEngine = true;
    const auto profiled = runSweep(points, options);

    for (const auto &p : profiled.points) {
        EXPECT_GT(p.engineProfile.cycles, 0u);
        EXPECT_EQ(p.engineProfile.shardNs.size(), 2u);
    }
    EXPECT_EQ(plain.points[0].engineProfile.cycles, 0u);

    // The profile is timing metadata: results are unchanged, and
    // only the timed document reports it.
    EXPECT_EQ(sweepCsv(plain), sweepCsv(profiled));
    EXPECT_EQ(sweepJson(plain, false, true),
              sweepJson(profiled, false, true));
    const auto timed = sweepJson(profiled, /*include_timing=*/true);
    EXPECT_NE(timed.find("\"engineProfile\""), std::string::npos);
    EXPECT_NE(timed.find("\"shardSeconds\""), std::string::npos);
}

TEST(SweepCsv, OneRowPerPointWithReplicateAndSeed)
{
    const auto points = smallSweep();
    const auto sweep = runSweep(points, {});
    const auto doc = sweepCsv(sweep);

    std::size_t lines = 0, pos = 0;
    while ((pos = doc.find("\r\n", pos)) != std::string::npos) {
        ++lines;
        pos += 2;
    }
    EXPECT_EQ(lines, points.size() + 1); // header + one per point
    EXPECT_NE(doc.find("label,replicate,seed,load,networkLoad"),
              std::string::npos);
}

// The experiment-reset contract that makes one-network-many-points
// reuse safe: a second experiment on the same network reports only
// its own messages and counter deltas, never the first run's.
TEST(ExperimentReset, BackToBackRunsDoNotAccumulate)
{
    auto net = buildMultibutterfly(fig1Spec(/*seed=*/6));
    ExperimentConfig cfg;
    cfg.messageWords = 8;
    cfg.warmup = 200;
    cfg.measure = 1000;
    cfg.thinkTime = 10;
    cfg.seed = 41;

    const auto r1 = runClosedLoop(*net, cfg);
    const std::size_t ledger_after_first = net->tracker().size();
    EXPECT_EQ(r1.completedMessages + r1.gaveUpMessages +
                  r1.unresolvedMessages,
              ledger_after_first);

    cfg.seed = 42;
    const auto r2 = runClosedLoop(*net, cfg);

    // Run 2 classifies exactly the messages submitted after run 1.
    EXPECT_EQ(r2.completedMessages + r2.gaveUpMessages +
                  r2.unresolvedMessages,
              net->tracker().size() - ledger_after_first);

    // Comparable workloads: the second run's counts are in the
    // same ballpark, not a doubling.
    EXPECT_GT(r2.completedMessages, r1.completedMessages / 2);
    EXPECT_LT(r2.completedMessages, r1.completedMessages * 3 / 2);

    // Counter deltas partition the cumulative entity counters.
    for (const char *key : {"requests", "grants", "blocks"}) {
        std::uint64_t cumulative = 0;
        for (RouterId r = 0; r < net->numRouters(); ++r)
            cumulative += net->router(r).counters().get(key);
        EXPECT_EQ(r1.routerTotals.get(key) +
                      r2.routerTotals.get(key),
                  cumulative)
            << key;
    }
    std::uint64_t ni_successes = 0;
    for (NodeId e = 0; e < net->numEndpoints(); ++e)
        ni_successes += net->endpoint(e).counters().get("successes");
    EXPECT_EQ(r1.niTotals.get("successes") +
                  r2.niTotals.get("successes"),
              ni_successes);
}

TEST(ExperimentLoad, NormalizedToDrivingEndpoints)
{
    auto net = buildMultibutterfly(fig1Spec(/*seed=*/7));
    ExperimentConfig cfg;
    cfg.messageWords = 8;
    cfg.warmup = 200;
    cfg.measure = 1500;
    cfg.thinkTime = 0;
    cfg.activeFraction = 0.5;
    cfg.seed = 9;
    const auto r = runClosedLoop(*net, cfg);

    EXPECT_EQ(r.activeEndpoints, 8u);
    EXPECT_GT(r.achievedLoad, 0.0);
    // Same delivered words, two normalizations: 8 drivers vs 16
    // endpoints.
    EXPECT_DOUBLE_EQ(r.achievedLoad * 8.0, r.networkLoad * 16.0);
    EXPECT_DOUBLE_EQ(
        r.achievedLoad,
        static_cast<double>(r.measuredWords) / (1500.0 * 8.0));
}

TEST(ExperimentLoad, RequestReplyTrafficCountsReplyWords)
{
    auto net = buildMultibutterfly(fig1Spec(/*seed=*/8));
    ExperimentConfig cfg;
    cfg.messageWords = 8;
    cfg.warmup = 200;
    cfg.measure = 1500;
    cfg.thinkTime = 10;
    cfg.requestReply = true;
    cfg.seed = 11;
    const auto r = runClosedLoop(*net, cfg);

    const std::uint64_t successes = r.latency.count();
    ASSERT_GT(successes, 0u);
    // Every measured success delivered its 8 message words; those
    // whose reply also resolved inside the window add at least the
    // reply checksum word back to the source. (Replies landing in
    // the drain phase are not window throughput — see the
    // regression below.)
    EXPECT_GT(r.measuredWords, successes * 8);
    EXPECT_GT(r.achievedLoad,
              static_cast<double>(successes * 8) / (1500.0 * 16.0));
}

TEST(ExperimentLoad, DrainPhaseRepliesAreNotWindowThroughput)
{
    // Drain-heavy config: the window is barely two flight times
    // long, so a good fraction of the request-reply round trips
    // submitted near its end resolve only during the drain phase.
    // Those reply words used to be credited to measuredWords (and
    // divided by the fixed window length), inflating achievedLoad
    // at high latency.
    auto net = buildMultibutterfly(fig1Spec(/*seed=*/9));
    ExperimentConfig cfg;
    cfg.messageWords = 8;
    cfg.warmup = 100;
    cfg.measure = 60;
    cfg.thinkTime = 0;
    cfg.requestReply = true;
    cfg.seed = 13;
    const auto r = runClosedLoop(*net, cfg);

    // Recompute the window's words from the ledger: in-window
    // submissions deliver their 8 message words; only replies that
    // resolved before the window closed add reply.size() + 1.
    const Cycle measure_from = cfg.warmup;
    const Cycle measure_to = cfg.warmup + cfg.measure;
    std::uint64_t expect = 0;
    std::uint64_t drained_replies = 0;
    for (const auto &[id, rec] : net->tracker().all()) {
        if (!rec.succeeded || rec.submitCycle < measure_from ||
            rec.submitCycle >= measure_to)
            continue;
        expect += cfg.messageWords;
        if (rec.replyOk && rec.completeCycle < measure_to)
            expect += rec.reply.size() + 1;
        else if (rec.replyOk)
            ++drained_replies;
    }
    ASSERT_GT(drained_replies, 0u)
        << "config no longer drain-heavy; shrink the window";
    EXPECT_EQ(r.measuredWords, expect);
}

} // namespace
} // namespace metro
