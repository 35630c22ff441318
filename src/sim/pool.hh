/**
 * @file
 * A persistent, shard-affine worker pool for the sharded engine's
 * per-cycle fan-out (see engine.hh).
 *
 * The engine dispatches two tiny task batches per cycle (phase-1
 * shards, phase-2 lane chunks), and shard k ticks the same
 * components every cycle, so the pool is built for cheap lockstep
 * hand-off that keeps each task on one core rather than for a task
 * queue:
 *
 * - Affinity. The caller is participant 0 and worker w is
 *   participant w + 1; task k always runs on participant
 *   k mod participants(). A shard's components and effect buffers
 *   therefore stay in one core's cache from cycle to cycle.
 * - Epochs. run() publishes a batch (a plain function pointer,
 *   context and task count, no allocation) and bumps an atomic
 *   epoch. Every worker runs its share of the batch — possibly
 *   nothing — and then acknowledges the epoch; run() returns once
 *   every worker has. Completion counts participants, not tasks,
 *   so no worker is still inside epoch e when epoch e + 1 is
 *   published, and a worker that resize() creates starts at the
 *   current epoch: it never replays the previous batch.
 * - Barrier. The epoch store and every acknowledgement are
 *   releases paired with the acquires that observe them, which
 *   gives every task a happens-before edge into the caller's
 *   return — the barrier the engine's determinism argument leans
 *   on: everything a shard wrote in phase k is visible to every
 *   reader of phase k+1.
 * - Waiting. A thread waiting for the pool (a worker for the next
 *   epoch, the caller for the last acknowledgement) spins for
 *   about kSpinNs before it parks on a condition variable, since
 *   the engine's next batch is normally microseconds away. It does
 *   not spin at all while the process's pool workers outnumber the
 *   hardware threads, or while its own recent waits kept running
 *   out (SpinGovernor — other processes' engines on the same cores
 *   show up only that way): there, spinning would hold the core the
 *   awaited thread needs. A parking thread announces itself in a
 *   counter the waker reads after publishing (both sequentially
 *   consistent, Dekker style), so a wakeup is never lost.
 */

#ifndef METRO_SIM_POOL_HH
#define METRO_SIM_POOL_HH

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

namespace metro
{

/** Runs batches of indexed tasks across N persistent workers plus
 *  the calling thread, task k always on participant
 *  k mod participants(). Not reentrant: one batch at a time. */
class TickPool
{
  public:
    /** A batch task: called once per index in [0, n). */
    using TaskFn = void (*)(void *ctx, unsigned index);

    /** How long a waiting thread spins before it parks. */
    static constexpr std::chrono::nanoseconds kSpinNs{100'000};

    /**
     * Spin-or-park memory of one waiting thread (each worker, and the
     * caller in run()). A spinning wait is *late* when its spin runs
     * out — the awaited epoch or acknowledgement came after kSpinNs,
     * typically because the thread it waits for was descheduled, as
     * when several processes' engines share the cores. When at least
     * kLateOf of a thread's last kWindow spinning waits were late, it
     * parks at once for its next kParkedWaits waits, then spins again
     * to re-test. On a quiet host the next batch is microseconds
     * away, and the thread keeps spinning.
     */
    class SpinGovernor
    {
      public:
        static constexpr unsigned kWindow = 16;
        static constexpr unsigned kLateOf = 4;
        static constexpr unsigned kParkedWaits = 512;

        /** Whether this wait may spin (a wait that may not counts
         *  one of the parked waits off). */
        bool
        maySpin()
        {
            if (parkedLeft_ == 0)
                return true;
            --parkedLeft_;
            return false;
        }

        /** Record how a spinning wait ended. */
        void
        spun(bool late)
        {
            late_ += late ? 1 : 0;
            if (++waits_ < kWindow)
                return;
            if (late_ >= kLateOf)
                parkedLeft_ = kParkedWaits;
            waits_ = late_ = 0;
        }

        /** Waits left before the next one may spin. */
        unsigned parkedWaitsLeft() const { return parkedLeft_; }

      private:
        unsigned waits_ = 0;
        unsigned late_ = 0;
        unsigned parkedLeft_ = 0;
    };

    TickPool() = default;
    ~TickPool() { resize(0); }

    TickPool(const TickPool &) = delete;
    TickPool &operator=(const TickPool &) = delete;

    /** Number of resident workers (excluding the caller). */
    unsigned workers() const { return workerCount_; }

    /** Workers plus the calling thread. */
    unsigned participants() const { return workerCount_ + 1; }

    /** Workers currently parked on the epoch condition variable
     *  (introspection for tests). */
    unsigned
    parkedWorkers() const
    {
        return parked_.load(std::memory_order_relaxed);
    }

    /** The caller's spin-or-park memory (introspection for tests). */
    const SpinGovernor &callerGovernor() const { return callerSpin_; }

    /** Set the resident worker count (0 tears the pool down).
     *  Rare (engine thread-count changes); rebuilds the pool. */
    void
    resize(unsigned workers)
    {
        if (workers == workerCount_)
            return;
        if (!threads_.empty()) {
            {
                std::lock_guard<std::mutex> lk(m_);
                stop_.store(true);
            }
            cv_.notify_all();
            for (auto &t : threads_)
                t.join();
            liveWorkers().fetch_sub(workerCount_);
            threads_.clear();
            stop_.store(false);
        }
        workerCount_ = workers;
        liveWorkers().fetch_add(workers);
        // New workers start at the current epoch: the last batch is
        // complete and must not run again.
        const std::uint64_t start =
            epoch_.load(std::memory_order_relaxed);
        for (unsigned w = 0; w < workers; ++w)
            threads_.emplace_back(
                [this, w, start] { workerLoop(w + 1, start); });
    }

    /**
     * Run fn(ctx, i) for every i in [0, n), task i on participant
     * i mod participants(); returns once every worker has
     * acknowledged the batch (the barrier). With no workers, or a
     * single task, runs inline on the caller.
     */
    void
    run(unsigned n, TaskFn fn, void *ctx)
    {
        if (n == 0)
            return;
        if (workerCount_ == 0 || n == 1) {
            for (unsigned i = 0; i < n; ++i)
                fn(ctx, i);
            return;
        }
        // Every worker acknowledged the previous epoch before the
        // previous run() returned, so none reads these until the
        // epoch store below publishes them.
        fn_ = fn;
        ctx_ = ctx;
        nTasks_ = n;
        acks_.store(0, std::memory_order_relaxed);
        epoch_.fetch_add(1);
        if (parked_.load() > 0) {
            {
                std::lock_guard<std::mutex> lk(m_);
            }
            cv_.notify_all();
        }
        runShare(0);
        awaitAcks();
    }

  private:
    /** Pool workers alive in this process, over every pool: the
     *  spin-or-park decision's oversubscription test. */
    static std::atomic<unsigned> &
    liveWorkers()
    {
        static std::atomic<unsigned> count{0};
        return count;
    }

    static bool
    spinAllowed()
    {
        static const unsigned hw =
            std::max(1u, std::thread::hardware_concurrency());
        return liveWorkers().load(std::memory_order_relaxed) <= hw;
    }

    static void
    cpuRelax()
    {
#if defined(__x86_64__) || defined(__i386__)
        _mm_pause();
#elif defined(__aarch64__)
        asm volatile("yield");
#endif
    }

    /** Spin until done() or about kSpinNs elapse, if `gov` lets
     *  this wait spin; true if done. */
    template <typename Done>
    static bool
    spinFor(Done done, SpinGovernor &gov)
    {
        if (!spinAllowed() || !gov.maySpin())
            return false;
        const auto deadline =
            std::chrono::steady_clock::now() + kSpinNs;
        for (unsigned i = 1;; ++i) {
            if (done()) {
                gov.spun(/*late=*/false);
                return true;
            }
            cpuRelax();
            if (i % 64 == 0 &&
                std::chrono::steady_clock::now() >= deadline) {
                gov.spun(/*late=*/true);
                return false;
            }
        }
    }

    /** Run participant `self`'s tasks of the published batch. */
    void
    runShare(unsigned self)
    {
        const unsigned step = workerCount_ + 1;
        for (unsigned i = self; i < nTasks_; i += step)
            fn_(ctx_, i);
    }

    void
    awaitAcks()
    {
        const unsigned want = workerCount_;
        const auto done = [&] {
            return acks_.load(std::memory_order_acquire) == want;
        };
        if (spinFor(done, callerSpin_))
            return;
        // The same handshake as a parking worker's, with acks_ as
        // the published value and callerParked_ as the announcement.
        std::unique_lock<std::mutex> lk(doneM_);
        callerParked_.store(true);
        doneCv_.wait(lk, [&] { return acks_.load() == want; });
        callerParked_.store(false);
    }

    void
    workerLoop(unsigned self, std::uint64_t seen)
    {
        SpinGovernor spin;
        for (;;) {
            const auto ready = [&] {
                return epoch_.load(std::memory_order_acquire) !=
                           seen ||
                       stop_.load(std::memory_order_acquire);
            };
            if (!spinFor(ready, spin)) {
                // run() bumps the epoch without m_, then reads
                // parked_; this side bumps parked_, then reads the
                // epoch. Both are sequentially consistent, so at
                // least one side sees the other's store: either the
                // predicate sees the new epoch or run() notifies —
                // after taking m_, i.e. once this thread waits.
                std::unique_lock<std::mutex> lk(m_);
                parked_.fetch_add(1);
                cv_.wait(lk, [&] {
                    return epoch_.load() != seen || stop_.load();
                });
                parked_.fetch_sub(1);
            }
            if (stop_.load(std::memory_order_acquire))
                return;
            seen = epoch_.load(std::memory_order_acquire);
            runShare(self);
            if (acks_.fetch_add(1) + 1 == workerCount_ &&
                callerParked_.load()) {
                {
                    std::lock_guard<std::mutex> lk(doneM_);
                }
                doneCv_.notify_one();
            }
        }
    }

    /** The published batch: written by the caller before the epoch
     *  store, read by workers after observing it. @{ */
    TaskFn fn_ = nullptr;
    void *ctx_ = nullptr;
    unsigned nTasks_ = 0;
    /** @} */

    /** Fixed while workers run (changed only by resize() with the
     *  pool torn down). */
    unsigned workerCount_ = 0;

    /** Epoch hand-off to the workers; parked workers wait on cv_
     *  under m_. @{ */
    std::atomic<std::uint64_t> epoch_{0};
    std::atomic<bool> stop_{false};
    std::atomic<unsigned> parked_{0};
    std::mutex m_;
    std::condition_variable cv_;
    /** @} */

    /** Acknowledgements back to the caller, who parks on doneCv_
     *  under doneM_. @{ */
    std::atomic<unsigned> acks_{0};
    std::atomic<bool> callerParked_{false};
    std::mutex doneM_;
    std::condition_variable doneCv_;
    SpinGovernor callerSpin_;
    /** @} */

    /** Declared last: the workers use every member above. */
    std::vector<std::thread> threads_;
};

} // namespace metro

#endif // METRO_SIM_POOL_HH
