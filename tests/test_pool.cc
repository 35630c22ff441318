/**
 * @file
 * TickPool tests (sim/pool.hh).
 *
 * The hand-off: every index runs exactly once per batch whatever
 * the batch size relative to the participant count, index k stays
 * on one thread across batches (the engine's shard affinity),
 * workers park after an idle spell and still pick up the next
 * batch, and workers created by a resize start at the current epoch
 * rather than replaying the last batch.
 *
 * The waits: a thread whose waits keep outlasting its spin (the
 * awaited thread descheduled, as on an oversubscribed host) parks
 * at once for a while, then spins again.
 *
 * The lifecycle: tearing the pool down while every worker is parked
 * on the epoch condition variable, and resizing it between
 * campaigns — the paths a long-lived serve process takes when the
 * operator changes --engine-threads between runs or shuts the
 * process down. Both must neither hang nor lose tasks.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "network/presets.hh"
#include "network/multibutterfly.hh"
#include "sim/pool.hh"
#include "traffic/experiment.hh"

namespace metro
{
namespace
{

/** Count every (ctx, index) invocation. */
struct Counter
{
    std::atomic<unsigned> calls{0};
};

void
bump(void *ctx, unsigned)
{
    static_cast<Counter *>(ctx)->calls.fetch_add(
        1, std::memory_order_relaxed);
}

/** Per-index run counts, checked after every batch. */
struct PerIndex
{
    std::vector<std::atomic<unsigned>> runs;
    explicit PerIndex(unsigned n) : runs(n) {}
};

void
bumpIndex(void *ctx, unsigned i)
{
    static_cast<PerIndex *>(ctx)->runs[i].fetch_add(
        1, std::memory_order_relaxed);
}

/** Batches with n below, equal to and above the participant count
 *  each run every index exactly once. */
void
expectEveryIndexOncePerBatch(TickPool &pool, unsigned batches)
{
    const unsigned p = pool.participants();
    const unsigned sizes[] = {2, p - 1, p, p + 1, 2 * p + 3};
    for (unsigned n : sizes) {
        if (n == 0)
            continue;
        SCOPED_TRACE("n " + std::to_string(n));
        PerIndex per(n);
        for (unsigned b = 1; b <= batches; ++b) {
            pool.run(n, &bumpIndex, &per);
            for (unsigned i = 0; i < n; ++i) {
                ASSERT_EQ(per.runs[i].load(), b)
                    << "index " << i << " after batch " << b;
            }
        }
    }
}

TEST(Pool, EveryIndexRunsExactlyOncePerBatch)
{
    TickPool pool;
    pool.resize(3);
    expectEveryIndexOncePerBatch(pool, 2000); // 10^4 batches
}

TEST(Pool, EveryIndexRunsExactlyOncePerBatchOversubscribed)
{
    // More workers than hardware threads: nobody spins, every
    // hand-off goes through the condition variables.
    TickPool pool;
    pool.resize(std::max(1u, std::thread::hardware_concurrency()) + 1);
    expectEveryIndexOncePerBatch(pool, 200);
}

TEST(Pool, ResizedWorkersDoNotReplayTheLastBatch)
{
    Counter c;
    TickPool pool;
    unsigned expected = 0;
    for (unsigned workers : {2u, 5u, 1u, 6u, 0u, 3u}) {
        pool.resize(workers);
        // Give the new workers time to start and look at the epoch:
        // one that took the previous batch for a new one would run
        // it again now.
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        EXPECT_EQ(c.calls.load(), expected)
            << "a worker replayed the last batch after resize("
            << workers << ")";
        pool.run(7, &bump, &c);
        expected += 7;
        EXPECT_EQ(c.calls.load(), expected);
    }
}

/** The thread each index ran on in the first batch, and how often a
 *  later batch ran it elsewhere. */
struct Placement
{
    std::vector<std::thread::id> first;
    std::atomic<unsigned> moved{0};
    explicit Placement(unsigned n) : first(n) {}
};

void
recordPlacement(void *ctx, unsigned i)
{
    auto *p = static_cast<Placement *>(ctx);
    const auto self = std::this_thread::get_id();
    if (p->first[i] == std::thread::id())
        p->first[i] = self;
    else if (p->first[i] != self)
        p->moved.fetch_add(1, std::memory_order_relaxed);
}

TEST(Pool, IndexStaysOnOneThreadAcrossBatches)
{
    TickPool pool;
    pool.resize(3);
    const unsigned n = 2 * pool.participants() + 1;
    Placement placement(n);
    for (unsigned b = 0; b < 500; ++b)
        pool.run(n, &recordPlacement, &placement);
    EXPECT_EQ(placement.moved.load(), 0u);
    // Index k runs on participant k mod participants(); the caller
    // is participant 0, and the participants are distinct threads.
    EXPECT_EQ(placement.first[0], std::this_thread::get_id());
    std::set<std::thread::id> threads;
    for (unsigned k = 0; k < n; ++k) {
        EXPECT_EQ(placement.first[k],
                  placement.first[k % pool.participants()]);
        threads.insert(placement.first[k]);
    }
    EXPECT_EQ(threads.size(), pool.participants());
}

TEST(Pool, WorkersParkWhenIdleAndWakeForTheNextBatch)
{
    Counter c;
    TickPool pool;
    pool.resize(3);
    unsigned expected = 0;
    for (int round = 0; round < 3; ++round) {
        pool.run(8, &bump, &c);
        expected += 8;
        EXPECT_EQ(c.calls.load(), expected);
        // Spinning is bounded: an idle pool ends up fully parked.
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(5);
        while (pool.parkedWorkers() < pool.workers() &&
               std::chrono::steady_clock::now() < deadline)
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        EXPECT_EQ(pool.parkedWorkers(), pool.workers());
    }
    pool.run(8, &bump, &c);
    EXPECT_EQ(c.calls.load(), expected + 8);
}

TEST(Pool, SpinGovernorParksAfterLateWaitsThenReArms)
{
    using Gov = TickPool::SpinGovernor;
    Gov gov;
    // Waits that end while spinning keep it spinning, and so does a
    // window with one late wait too few.
    for (unsigned i = 0; i < 4 * Gov::kWindow; ++i) {
        ASSERT_TRUE(gov.maySpin());
        gov.spun(i % Gov::kWindow < Gov::kLateOf - 1);
    }
    // A window with kLateOf late waits parks the next kParkedWaits
    // waits at once...
    for (unsigned i = 0; i < Gov::kWindow; ++i) {
        ASSERT_TRUE(gov.maySpin());
        gov.spun(i < Gov::kLateOf);
    }
    for (unsigned i = 0; i < Gov::kParkedWaits; ++i)
        EXPECT_FALSE(gov.maySpin()) << "wait " << i;
    // ...then the thread spins again to re-test.
    EXPECT_TRUE(gov.maySpin());
}

/** Task 1 outlasts the caller's spin; task 0 returns at once. */
void
slowSecondTask(void *ctx, unsigned i)
{
    if (i == 1)
        std::this_thread::sleep_for(2 * TickPool::kSpinNs);
    bump(ctx, i);
}

TEST(Pool, CallerStopsSpinningWhileItsWaitsRunLate)
{
    Counter c;
    TickPool pool;
    pool.resize(1);
    using Gov = TickPool::SpinGovernor;
    // Every acknowledgement comes after the caller's spin ran out,
    // as when the worker is descheduled: after one window the caller
    // parks at once.
    for (unsigned k = 0; k < Gov::kWindow; ++k)
        pool.run(2, &slowSecondTask, &c);
    EXPECT_EQ(pool.callerGovernor().parkedWaitsLeft(),
              Gov::kParkedWaits);
    // Parked waits still complete every batch, and count down to
    // spinning again.
    for (unsigned k = 0; k < Gov::kParkedWaits; ++k)
        pool.run(2, &bump, &c);
    EXPECT_EQ(pool.callerGovernor().parkedWaitsLeft(), 0u);
    EXPECT_EQ(c.calls.load(), 2 * (Gov::kWindow + Gov::kParkedWaits));
}

TEST(Pool, DestructionWhileWorkersParked)
{
    // Workers park on the epoch CV immediately after construction;
    // destroying the pool right away (and after an idle dwell long
    // enough for every worker to reach the wait) must join them all
    // without a hang. Run it repeatedly to shake scheduling.
    for (int round = 0; round < 20; ++round) {
        TickPool pool;
        pool.resize(4);
        EXPECT_EQ(pool.workers(), 4u);
        if (round % 2 == 1)
            std::this_thread::sleep_for(
                std::chrono::milliseconds(1));
        // ~TickPool runs here with all workers parked.
    }
}

TEST(Pool, DestructionAfterBatchesWithStragglers)
{
    // Tiny batches finish before slower workers even wake; those
    // stragglers oversleep whole epochs and must still see the stop
    // flag when the pool dies.
    for (int round = 0; round < 20; ++round) {
        Counter c;
        TickPool pool;
        pool.resize(8);
        for (unsigned k = 0; k < 16; ++k)
            pool.run(2, &bump, &c);
        EXPECT_EQ(c.calls.load(), 32u);
    }
}

TEST(Pool, ResizeBetweenBatches)
{
    Counter c;
    TickPool pool;
    // Grow, shrink, tear down to zero, and regrow; every batch must
    // run exactly once per index at every size, including the
    // inline (no-worker) configuration.
    const unsigned sizes[] = {0, 2, 7, 1, 0, 4, 3, 0, 8};
    unsigned expected = 0;
    for (unsigned s : sizes) {
        pool.resize(s);
        EXPECT_EQ(pool.workers(), s);
        pool.run(37, &bump, &c);
        expected += 37;
        EXPECT_EQ(c.calls.load(), expected);
    }
}

TEST(Pool, ResizeToSameSizeKeepsWorkers)
{
    Counter c;
    TickPool pool;
    pool.resize(3);
    pool.run(10, &bump, &c);
    pool.resize(3); // no-op: must not tear down or hang
    EXPECT_EQ(pool.workers(), 3u);
    pool.run(10, &bump, &c);
    EXPECT_EQ(c.calls.load(), 20u);
}

TEST(Pool, EngineThreadReconfigurationBetweenCampaigns)
{
    // The serve-process shape: one network, several campaigns, the
    // operator changing --engine-threads between them. Results must
    // stay byte-identical across the reconfigurations (the engine's
    // determinism contract) and nothing may hang at teardown.
    auto runAt = [](const std::vector<unsigned> &threads) {
        auto net = buildMultibutterfly(fig1Spec(7));
        std::string out;
        for (unsigned t : threads) {
            net->engine().setThreads(t);
            ExperimentConfig cfg;
            cfg.messageWords = 8;
            cfg.warmup = 50;
            cfg.measure = 400;
            cfg.thinkTime = 100;
            cfg.seed = 7;
            const auto r = runClosedLoop(*net, cfg);
            out += std::to_string(r.latency.count()) + ":" +
                   std::to_string(static_cast<std::uint64_t>(
                       r.latency.mean() * 1000)) +
                   ";";
        }
        return out;
    };
    const std::string serial = runAt({1, 1, 1});
    EXPECT_EQ(serial, runAt({1, 4, 2}));
    EXPECT_EQ(serial, runAt({8, 1, 4}));
}

} // namespace
} // namespace metro
