/**
 * @file
 * The synchronous simulation engine.
 *
 * METRO networks are globally clocked ("all the routing components
 * in a network run synchronously from a central clock" — Section 3),
 * so the engine is a plain two-phase cycle loop:
 *
 *   phase 1: tick every component (order-independent — components
 *            read lane heads and push lane tails only);
 *   phase 2: advance every lane, making this cycle's pushes visible
 *            after their lane latencies elapse. This is not a
 *            per-link loop: links register their arena, and the
 *            engine makes one batched pass per arena over the flat
 *            per-lane control arrays (LaneArena::advanceAll) —
 *            for a network, one pass over one arena.
 *
 * Dispatch is type-segregated: components registered consecutively
 * with the same concrete class (routers, then endpoints, then
 * drivers — the order builders and experiments naturally produce)
 * form contiguous slices, and phase 1 makes one indirect call per
 * slice; inside a slice the per-component tick is non-virtual (see
 * Component::batchTickOf).
 *
 * Quiescence scheduling (on by default; see docs/simulator.md): the
 * common case at Figure 3's low-to-moderate loads is a router with
 * no connection reading only Empty lane heads, and a link whose
 * both lanes are drained. Ticking the former and advancing the
 * latter are no-ops, so the engine skips them — components that
 * report canSleep() stop being ticked until something wake()s them
 * (a push into an attached link, a peer handing them work, or a
 * reconfiguration/fault mutator), and drained links stop being
 * advanced (rotating an all-Empty ring is unobservable) until the
 * next push. Skipping is *exact*, not approximate: the golden
 * wire-trace and both word-conservation identities are
 * byte-/bit-identical with the scheduler on and off (regression:
 * tests/test_quiesce.cc).
 *
 * Sleep evaluation is candidate-driven: instead of re-scanning
 * every link and every component after each cycle (which made the
 * scheduler a measured net loss at saturation, where nothing can
 * ever sleep), the end-of-cycle pass examines only (a) components
 * ticked this cycle whose attached links are all inactive
 * (collected inline by the batch tick loops via noteTicked) and
 * (b) components whose last active link drained in this cycle's
 * advance phase. Anything else provably cannot newly satisfy
 * canSleep(): its own state did not change this cycle, and every
 * canSleep() implementation is vetoed by any active attached link.
 * Missing a candidate would merely delay a sleep (observationally
 * identical — canSleep() true means the skipped ticks produce
 * exactly what syncSkipped accounts); sleeping a non-candidate is
 * impossible since candidates are a superset of the components
 * whose canSleep() input changed.
 *
 * Sharded execution is the engine's one cycle at every thread count
 * (setThreads(n); see docs/simulator.md for the full protocol):
 * phase 1 is split into a parallel section and a serial section.
 * Components whose tick
 * honours the parallel contract (Component::parallelTickSafe —
 * routers and network interfaces without observers, handlers or
 * shared random sources) are cut into min(n, members) *shards* —
 * contiguous sub-ranges of the registration order of near-equal
 * summed Component::tickCost, since the globally clocked cycle runs
 * only as fast as its slowest shard — and shard k ticks on pool
 * participant k every cycle (sim/pool.hh). A traffic driver names
 * its network interface as its Component::tickAnchor: the two are
 * cut as one unit and the driver ticks in the interface's shard,
 * after every member of it, so the driver's hand-offs to its
 * interface (a send, a wake) stay inside one shard. Everything else
 * (probes, injectors, cascade groups, and the dynamically *pinned*
 * ends of corrupt links, which share the link's corruption PRNG,
 * with the drivers that cannot follow them) ticks in the serial
 * section, in registration order. Phase 1's contract — read lane
 * heads, push lane tails, never observe a same-cycle write — is
 * exactly what makes any tick order (including a concurrent one)
 * equivalent, so the output is byte-identical at every thread
 * count. When two or more shards run, the cross-thread side effects
 * a tick can have are funnelled through three deferred, fixed-order
 * channels replayed at the phase barrier: link activations (with
 * their wakes; a wake applied at the barrier is byte-equivalent to
 * one applied mid-phase, since mid-cycle wakes always resume at
 * now+1 and count the cycle skipped), staged ledger records
 * (Component::stageForFold: a send stages its record and the
 * barrier creates them in shard order — the drivers' registration
 * order, the order a serial loop gives the ids, which rebuildPlan
 * preserves) and the skipped-tick / sleep-candidate tallies
 * (per-shard accumulation, folded in shard order; sums commute, so
 * every engine counter is thread-count invariant). A component's
 * own counters need no channel: it writes only its own state. When
 * at most one shard has awake members (always the case at one
 * thread), the live shards run on the caller in shard order with
 * nothing deferred: wakes apply inline, sends create their records
 * at once and sleep candidates go straight to the sleep pass, the
 * same result on either side of the barrier.
 * Phase 2 reuses the same pool over contiguous, even-aligned lane
 * ranges of the arena
 * (LaneArena::advanceRange) with per-chunk census charges and
 * drained-lane reports folded at the barrier in chunk order —
 * ascending lane order, identical to one whole-arena pass.
 * Quiescence composes: a shard all of whose members sleep *parks* —
 * the members' cycle is accounted in bulk, only the shard's
 * followers (drivers, which never sleep) tick.
 *
 * Self-profile (setProfiling(true); off by default, one branch per
 * phase when off): wall-clock time per phase of the sharded cycle —
 * phase 1 per shard, the barrier fold, the serial section by
 * component class, the phase-2 advance and the end-of-cycle sleep
 * pass — read back through profile(). Like shardCyclesParked() it
 * depends on the host and the thread count, so it stays out of
 * metric snapshots, digests and checkpoints.
 */

#ifndef METRO_SIM_ENGINE_HH
#define METRO_SIM_ENGINE_HH

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <typeinfo>
#include <unordered_set>
#include <utility>
#include <vector>

#if defined(__GNUG__)
#include <cxxabi.h>
#endif

#include "common/types.hh"
#include "sim/component.hh"
#include "sim/link.hh"
#include "sim/pool.hh"

namespace metro
{

/**
 * Wall-clock phase accounting of the engine's cycles (see
 * Engine::setProfiling). The sequential parts — everything but
 * shardNs — add up to the time spent inside the profiled cycles
 * (wallNs); shard busy times overlap each other and the parallel
 * section they ran in.
 */
struct EngineProfile
{
    /** Serial-section time of one component class. */
    struct ClassTime
    {
        std::string name;
        std::uint64_t ns = 0;
    };

    std::uint64_t cycles = 0; ///< cycles profiled
    std::uint64_t planNs = 0; ///< shard-plan rebuilds
    /** Phase 1's parallel section, dispatch to barrier. */
    std::uint64_t parallelNs = 0;
    /** Phase 1 busy time per shard (overlapping). */
    std::vector<std::uint64_t> shardNs;
    std::uint64_t foldNs = 0; ///< barrier fold of the shard effects
    std::vector<ClassTime> serialNs; ///< serial section, by class
    std::uint64_t advanceNs = 0; ///< phase 2 lane advance
    /** finishCycle: pending link verdicts and the sleep pass. */
    std::uint64_t sleepPassNs = 0;

    /** Sum of the sequential parts. */
    std::uint64_t
    wallNs() const
    {
        std::uint64_t sum =
            planNs + parallelNs + foldNs + advanceNs + sleepPassNs;
        for (const ClassTime &c : serialNs)
            sum += c.ns;
        return sum;
    }
};

/**
 * Owns the clock and the tick/advance loop. Links and components
 * are owned by the network object(s); the engine holds non-owning
 * pointers and guarantees ticking order semantics.
 */
class Engine : public Scheduler
{
  public:
    /** Register a component to be ticked each cycle. */
    void
    addComponent(Component *component)
    {
        component->sched_ = this;
        component->schedAsleep_ = false;
        component->wakeAt_ = 0;
        component->shard_ = Component::kNoShard;
        components_.push_back(component);
        planDirty_ = true;
    }

    /**
     * Register a link to be advanced each cycle. The engine groups
     * links by the LaneArena their lanes live in (one shared arena
     * per network; a private one per standalone link) and advances
     * each arena with one batched pass, so it records here which
     * link owns which lane for the link-level sleep evaluation.
     */
    void
    addLink(Link *link)
    {
        links_.push_back(link);
        link->setPlanDirtyFlag(&planDirty_);
        ArenaGroup &g = groupFor(link->laneArena());
        if (g.laneOwner.size() < g.arena->lanes())
            g.laneOwner.resize(g.arena->lanes(), nullptr);
        for (const LaneId lane : {link->downLane(), link->upLane()}) {
            g.laneOwner[lane] = link;
            g.arena->setFrozen(lane, false);
        }
        // The batched advance only re-reports lanes whose state
        // changed, so evaluate this link's first sleep verdict
        // explicitly at the end of the current/next cycle (it may
        // arrive already drained and eligible to sleep right away).
        pendingLinkEval_.push_back(link);
        planDirty_ = true;
    }

    /**
     * Unregister a component (e.g. a temporary traffic driver whose
     * lifetime is shorter than the network's).
     */
    void
    removeComponent(Component *component)
    {
        removeComponents({&component, 1});
    }

    /**
     * Unregister a batch of components in one pass. Removing n
     * drivers one by one is O(active·n) (each removal rescans the
     * component list); experiment teardown hands the whole batch
     * over instead.
     *
     * A victim that is asleep first accounts its skipped tail
     * (syncSkipped up to the cycle it would next have been ticked
     * in), so e.g. occupancy histograms match an eagerly-ticked
     * instance removed at the same moment; its wake state is reset
     * so re-registration with any engine starts clean. Under the
     * sharded engine the shard plan is rebuilt before the next
     * parallel cycle (stale shards are never ticked — removal
     * mid-campaign is safe).
     */
    void
    removeComponents(std::span<Component *const> victims)
    {
        if (victims.empty())
            return;
        const std::unordered_set<Component *> gone(victims.begin(),
                                                   victims.end());
        const Cycle upto = stepping_ ? now_ + 1 : now_;
        std::erase_if(components_, [&](Component *c) {
            if (gone.count(c) == 0)
                return false;
            if (c->schedAsleep_ && upto > c->sleptFrom_)
                c->syncSkipped(c->sleptFrom_, upto);
            c->sched_ = nullptr;
            c->schedAsleep_ = false;
            c->wakeAt_ = 0;
            c->sleptFrom_ = 0;
            c->shard_ = Component::kNoShard;
            return true;
        });
        planDirty_ = true;
    }

    /** Unregister a link (see removeLinks). */
    void
    removeLink(Link *link)
    {
        removeLinks({&link, 1});
    }

    /**
     * Unregister a batch of links in one pass, mirroring
     * removeComponents — without it, tearing a network down while
     * the engine persists leaves dangling Link* behind. The links
     * themselves are untouched (still owned by their network);
     * their wake attachments keep maintaining the end components'
     * active-link counts, so those components' sleep evaluation
     * stays exact.
     */
    void
    removeLinks(std::span<Link *const> victims)
    {
        if (victims.empty())
            return;
        const std::unordered_set<Link *> gone(victims.begin(),
                                              victims.end());
        std::erase_if(links_, [&gone](Link *l) {
            return gone.count(l) != 0;
        });
        // Freeze the victims' lanes: the batched advance skips them
        // outright (a removed link's symbols stay frozen in flight,
        // exactly as when each link was advanced individually), and
        // frozen lanes do not count as fast-pathed.
        std::erase_if(pendingLinkEval_, [&gone](Link *l) {
            return gone.count(l) != 0;
        });
        for (Link *l : victims) {
            l->setPlanDirtyFlag(nullptr);
            ArenaGroup *g = findGroup(l->laneArena());
            if (g == nullptr)
                continue;
            for (const LaneId lane : {l->downLane(), l->upLane()}) {
                g->arena->setFrozen(lane, true);
                if (lane < g->laneOwner.size())
                    g->laneOwner[lane] = nullptr;
            }
        }
        planDirty_ = true;
    }

    /** The cycle about to be executed (0 before any run). */
    Cycle now() const { return now_; }

    /**
     * Enable/disable quiescence scheduling (default on). Disabling
     * wakes every sleeper and reactivates every link, restoring the
     * original eager loop exactly.
     */
    void
    setQuiescence(bool on)
    {
        quiesce_ = on;
        if (!on) {
            for (auto *c : components_)
                wakeComponent(c);
            for (auto *l : links_)
                l->activate();
        } else {
            // Re-entering lazy mode: idle links sit on untouched
            // drained lanes the batched advance will never
            // re-report, so seed one explicit evaluation of every
            // registered link.
            pendingLinkEval_.assign(links_.begin(), links_.end());
        }
    }

    /** Quiescence scheduling state. */
    bool quiescence() const { return quiesce_; }

    /**
     * Set the phase-1/phase-2 worker count (1, the default, ticks
     * one shard on the caller; 0 = one per hardware thread).
     * Simulation output
     * is byte-identical at every thread count — threading trades
     * wall clock only, never results (regression:
     * tests/test_shard.cc).
     */
    void
    setThreads(unsigned n)
    {
        if (n == 0) {
            n = std::thread::hardware_concurrency();
            if (n == 0)
                n = 1;
        }
        if (n == threads_)
            return;
        threads_ = n;
        planDirty_ = true;
        pool_.resize(threads_ - 1);
    }

    /** Current worker count. */
    unsigned threads() const { return threads_; }

    /**
     * Turn the self-profile on or off (see EngineProfile). Turning
     * it on starts from a zeroed profile.
     */
    void
    setProfiling(bool on)
    {
        if (on && !profiling_)
            profile_ = EngineProfile{};
        profiling_ = on;
        planDirty_ = true;
    }

    /** Self-profile state. */
    bool profiling() const { return profiling_; }

    /** The profile accumulated since profiling was turned on. */
    const EngineProfile &profile() const { return profile_; }

    /** Component ticks elided by the scheduler (monotone). */
    std::uint64_t ticksSkipped() const { return ticksSkipped_; }

    /** Link advances elided by the all-Empty fast path (monotone). */
    std::uint64_t linksFastpathed() const { return linksFastpathed_; }

    /**
     * Shard-plan introspection (tests, diagnostics); rebuilds a
     * stale plan on entry. @{
     */

    /** Shards in the current plan: min(threads(), members). */
    std::size_t
    shardCount()
    {
        if (planDirty_)
            rebuildPlan();
        return shards_.size();
    }

    /** Components in shard k, followers included. */
    std::size_t
    shardMembers(std::size_t k)
    {
        return shards_.at(k).members + shards_.at(k).followerCount;
    }

    /** Components ticked in the serial section. */
    std::size_t
    serialMembers()
    {
        if (planDirty_)
            rebuildPlan();
        std::size_t n = 0;
        for (const TickRun &run : serialRuns_)
            n += run.count;
        return n;
    }

    /** Summed Component::tickCost of shard k's members. */
    std::uint64_t
    shardCost(std::size_t k)
    {
        return shards_.at(k).cost;
    }

    /** Registration-order sub-ranges [begin, begin+count) that make
     *  up shard k, members' then followers'. */
    std::vector<std::pair<std::size_t, std::size_t>>
    shardSlices(std::size_t k)
    {
        std::vector<std::pair<std::size_t, std::size_t>> out;
        for (const TickRun &sl : shards_.at(k).slices)
            out.emplace_back(sl.begin, sl.count);
        for (const TickRun &sl : shards_.at(k).followers)
            out.emplace_back(sl.begin, sl.count);
        return out;
    }

    /** Every member of shard k is asleep: the next cycle parks the
     *  shard's members (bulk-accounted; only followers tick, and no
     *  worker is dispatched unless two shards have awake
     *  members). */
    bool
    shardParked(std::size_t k)
    {
        return shards_.at(k).awake == 0;
    }

    /** Shard this component ticks in (-1: serial section). */
    int
    shardOf(const Component *c)
    {
        if (planDirty_)
            rebuildPlan();
        return c->shard_ == Component::kNoShard
                   ? -1
                   : static_cast<int>(c->shard_);
    }

    /** Cumulative shard-cycles parked (monotone; scheduling
     *  telemetry, deliberately not part of metric snapshots — it
     *  depends on the thread count, which results must not). */
    std::uint64_t shardCyclesParked() const
    {
        return shardCyclesParked_;
    }

    /** Registration list access (tests map entities to indices). */
    std::size_t scheduledCount() const { return components_.size(); }
    Component *scheduledComponent(std::size_t i) const
    {
        return components_[i];
    }
    /** @} */

    /**
     * Resume ticking a sleeping component (Scheduler interface;
     * Component::wake and Link::activate route here). The component
     * first accounts for its skipped interval via syncSkipped —
     * with wakes that land mid-cycle the current cycle counts as
     * skipped too (an eager instance would have ticked it before
     * the waker ran, quiescent, to the same effect), so it resumes
     * at now+1; wakes between cycles resume at now. This is what
     * makes the sharded engine's deferred wake application exact:
     * delivering a phase-1 wake at the phase barrier instead of
     * mid-phase lands in the same cycle with the same arguments.
     */
    void
    wakeComponent(Component *component) override
    {
        if (!component->schedAsleep_)
            return;
        component->schedAsleep_ = false;
        if (component->shard_ != Component::kNoShard &&
            component->shard_ < shards_.size())
            ++shards_[component->shard_].awake;
        const Cycle resume = stepping_ ? now_ + 1 : now_;
        component->wakeAt_ = resume;
        component->syncSkipped(component->sleptFrom_, resume);
    }

    /** A component's parallel-safety inputs changed: rebuild the
     *  shard plan before the next parallel cycle. */
    void invalidateShardPlan() override { planDirty_ = true; }

    /**
     * Bring every sleeper's skipped-cycle accounting (per-tick
     * metrics samples) up to date *without* waking anyone — called
     * before metric snapshots so skipping stays invisible to the
     * observability layer.
     */
    void
    syncStats()
    {
        for (auto *c : components_) {
            if (c->schedAsleep_ && now_ > c->sleptFrom_) {
                c->syncSkipped(c->sleptFrom_, now_);
                c->sleptFrom_ = now_;
            }
        }
    }

    /**
     * Execute exactly one cycle. Structure (see the file comment
     * for why each hand-off preserves byte identity):
     *
     *   1a. parallel shards tick on the pool (parked members are
     *       bulk-accounted instead, their followers still tick;
     *       with at most one shard of awake members, the live
     *       shards tick on the caller, in shard order, with nothing
     *       deferred);
     *   1b. barrier: per-shard effects fold in shard order —
     *       skipped tallies, deferred link activations (wakes),
     *       staged ledger records, sleep candidates;
     *   1c. serial section: non-parallel-safe components tick in
     *       registration order, activations inline;
     *    2. lane advance, chunked across the pool for arenas with
     *       enough live lanes; census charges and drained reports
     *       fold at the barrier in chunk order (= ascending lane
     *       order, a whole-arena pass's order).
     */
    void
    step()
    {
        Stopwatch sw(profiling_);
        if (planDirty_) {
            rebuildPlan();
            sw.lap(profile_.planNs);
        }
        stepping_ = true;
        if (quiesce_)
            sleepCandidates_.clear();

        // 1a. Parallel shards, shard k on pool participant k.
        std::size_t busy = 0;
        for (Shard &s : shards_) {
            s.parked = s.awake == 0;
            if (s.parked) {
                // Every member sleeps, so their tick pass would
                // only count skips — account them in bulk. The
                // followers (drivers) still tick.
                ticksSkipped_ += s.members;
                ++shardCyclesParked_;
            }
            s.live = !s.parked || !s.followers.empty();
            if (!s.live)
                continue;
            s.skipped = 0;
            s.candidates.clear();
            s.activations.clear();
            s.staged.clear();
            busy += s.parked ? 0 : 1;
        }
        if (busy > 1) {
            pool_.run(static_cast<unsigned>(shards_.size()),
                      &shardTask, this);
        } else {
            // At most one shard has awake members: tick the live
            // shards on the caller, in shard order, with nothing
            // deferred — as one shard would.
            for (Shard &s : shards_) {
                if (s.live)
                    runShard(s, /*alone=*/true);
            }
        }
        sw.lap(profile_.parallelNs);

        // 1b. Barrier: fold per-shard effects in shard order.
        for (std::size_t k = 0; k < shards_.size(); ++k) {
            Shard &s = shards_[k];
            if (!s.live)
                continue;
            ticksSkipped_ += s.skipped;
            for (Link *l : s.activations)
                l->activate();
            for (Component *c : s.staged)
                c->foldStaged();
            if (quiesce_)
                sleepCandidates_.insert(sleepCandidates_.end(),
                                        s.candidates.begin(),
                                        s.candidates.end());
            if (profiling_)
                profile_.shardNs[k] += s.busyNs;
        }
        sw.lap(profile_.foldNs);

        // 1c. Serial section, registration order.
        {
            TickContext ctx;
            ctx.cycle = now_;
            if (quiesce_)
                ctx.sleepCandidates = &sleepCandidates_;
            Component *const *base = components_.data();
            for (std::size_t i = 0; i < serialRuns_.size(); ++i) {
                const TickRun &run = serialRuns_[i];
                run.fn(base + run.begin, run.count, ctx);
                if (profiling_)
                    sw.lap(profile_.serialNs[serialClass_[i]].ns);
            }
            ticksSkipped_ += ctx.skipped;
        }

        // 2. Advance, chunked where worthwhile. Sleeping links'
        // lanes are skipped inside the pass and accounted here (two
        // lanes per link). With quiescence on, the lanes whose sleep
        // eligibility may have changed (newly drained, or drained
        // with a push/census step this cycle) are sleep-evaluated,
        // links before components: component canSleep()
        // implementations require their attached links to be
        // fast-pathed first, and a deactivation that drops an end
        // component's last active link surfaces that component as a
        // sleep candidate.
        for (ArenaGroup &g : arenaGroups_) {
            linksFastpathed_ += g.arena->sleepingLanes() / 2;
            if (g.chunks.size() > 1 &&
                g.arena->lanes() - g.arena->sleepingLanes() >=
                    kMinLanesForChunkedAdvance) {
                curGroup_ = &g;
                pool_.run(static_cast<unsigned>(g.chunks.size()),
                          &chunkTask, this);
                curGroup_ = nullptr;
                for (LaneChunk &ch : g.chunks) {
                    g.arena->chargeWireDiscards(ch.discards);
                    for (const LaneId lane : ch.drained)
                        trySleepLink(g.laneOwner[lane]);
                }
            } else {
                drained_.clear();
                g.arena->advanceAll(quiesce_ ? &drained_ : nullptr);
                for (const LaneId lane : drained_)
                    trySleepLink(g.laneOwner[lane]);
            }
        }
        sw.lap(profile_.advanceNs);
        finishCycle();
        sw.lap(profile_.sleepPassNs);
        if (profiling_)
            ++profile_.cycles;
    }

    /** Execute `cycles` cycles. */
    void
    run(Cycle cycles)
    {
        for (Cycle i = 0; i < cycles; ++i)
            step();
    }

    /**
     * Run until `done` returns true (checked between cycles) or
     * `max_cycles` elapse. @return true when `done` fired.
     */
    bool
    runUntil(const std::function<bool()> &done, Cycle max_cycles)
    {
        for (Cycle i = 0; i < max_cycles; ++i) {
            if (done())
                return true;
            step();
        }
        return done();
    }

  private:
    friend class CheckpointIO;

    /** A registration-order-contiguous slice of components sharing
     *  one batch tick function (one concrete class, or a stretch
     *  of generic-dispatch components). */
    struct TickRun
    {
        Component::BatchTickFn fn;
        std::size_t begin;
        std::size_t count;
    };

    /**
     * One parallel shard: the registration-order slices it ticks,
     * plus its per-cycle effect buffers. The buffers are written
     * only by the worker running the shard during phase 1 and read
     * only at the barrier, in shard order — the fixed-order
     * reduction that keeps counters and candidate processing
     * deterministic. alignas keeps neighbouring shards' hot
     * counters off one cache line.
     */
    struct alignas(64) Shard
    {
        std::vector<TickRun> slices;
        /** Followers' slices, ticked after the members'. */
        std::vector<TickRun> followers;
        std::size_t members = 0;
        std::size_t followerCount = 0;
        std::uint64_t cost = 0;
        /** Ticked this cycle (set before dispatch: members awake,
         *  or followers to tick). */
        bool live = false;
        /** Every member asleep this cycle: they are accounted in
         *  bulk and only the followers tick. */
        bool parked = false;
        /** Members currently awake; 0 parks the members (followers
         *  never sleep). Maintained serially (wakes and sleep
         *  transitions never run inside the parallel phase). */
        std::size_t awake = 0;
        /** Per-cycle effects (worker-private until the barrier). @{ */
        std::uint64_t skipped = 0;
        std::vector<Component *> candidates;
        std::vector<Link *> activations;
        std::vector<Component *> staged; ///< one per stageForFold
        std::uint64_t busyNs = 0; ///< self-profile only
        /** @} */
    };

    /** Self-profile clock: lap() charges the time since the last
     *  lap to a slot. A no-op when constructed off. */
    class Stopwatch
    {
      public:
        explicit Stopwatch(bool on) : on_(on)
        {
            if (on_)
                last_ = Clock::now();
        }

        void
        lap(std::uint64_t &slot)
        {
            if (!on_)
                return;
            const auto t = Clock::now();
            slot += static_cast<std::uint64_t>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    t - last_)
                    .count());
            last_ = t;
        }

      private:
        using Clock = std::chrono::steady_clock;
        bool on_;
        Clock::time_point last_{};
    };

    /** Cycle tail: pending link evaluations, the candidate sleep
     *  pass (with shard awake accounting), clock advance. */
    void
    finishCycle()
    {
        // Freshly registered links get one explicit verdict (their
        // lanes may never surface from the advance).
        if (quiesce_) {
            for (Link *l : pendingLinkEval_)
                trySleepLink(l);
        }
        pendingLinkEval_.clear();
        stepping_ = false;
        if (quiesce_) {
            for (auto *c : sleepCandidates_) {
                if (!c->schedAsleep_ && c->schedActiveLinks_ == 0 &&
                    c->canSleep()) {
                    c->schedAsleep_ = true;
                    c->sleptFrom_ = now_ + 1;
                    if (c->shard_ != Component::kNoShard &&
                        c->shard_ < shards_.size())
                        --shards_[c->shard_].awake;
                }
            }
        }
        ++now_;
    }

    /** Run one shard's slices (worker or caller thread). Effects
     *  that must not race — activations/wakes, ledger records — are
     *  recorded in the shard's buffers via the thread-local
     *  deferral hooks, unless the shard runs `alone`: then nothing
     *  can race, so wakes and records apply inline and sleep
     *  candidates go straight to the sleep pass. */
    void
    runShard(Shard &s, bool alone)
    {
        Stopwatch sw(profiling_);
        TickContext ctx;
        ctx.cycle = now_;
        if (quiesce_)
            ctx.sleepCandidates =
                alone ? &sleepCandidates_ : &s.candidates;
        if (!alone) {
            detail::tlsDeferredActivations = &s.activations;
            detail::tlsStagedFolds = &s.staged;
        }
        Component *const *base = components_.data();
        if (!s.parked) {
            for (const TickRun &sl : s.slices)
                sl.fn(base + sl.begin, sl.count, ctx);
        }
        for (const TickRun &sl : s.followers)
            sl.fn(base + sl.begin, sl.count, ctx);
        detail::tlsDeferredActivations = nullptr;
        detail::tlsStagedFolds = nullptr;
        s.skipped = ctx.skipped;
        s.busyNs = 0;
        sw.lap(s.busyNs);
    }

    static void
    shardTask(void *ctx, unsigned k)
    {
        auto *e = static_cast<Engine *>(ctx);
        Shard &s = e->shards_[k];
        if (s.live)
            e->runShard(s, /*alone=*/false);
    }

    static void
    chunkTask(void *ctx, unsigned k)
    {
        auto *e = static_cast<Engine *>(ctx);
        ArenaGroup &g = *e->curGroup_;
        LaneChunk &ch = g.chunks[k];
        ch.discards = 0;
        ch.drained.clear();
        g.arena->advanceRange(ch.begin, ch.end,
                              e->quiesce_ ? &ch.drained : nullptr,
                              ch.discards);
    }

    /**
     * Rebuild the shard plan from the current component list,
     * thread count and link faults. Deterministic: the plan is a
     * pure function of those inputs (tick costs are static per
     * component), so any two runs that reach a cycle with the same
     * simulation state shard it the same way. Steps:
     *
     *   1. pin the end components of corrupt links (their reads
     *      draw from the link's shared corruption PRNG, so they
     *      must stay in the serial section to keep draw order);
     *   2. collect the parallel *members* — parallel-safe, unpinned
     *      components without a Component::tickAnchor — and charge
     *      each parallel-safe follower's tick cost to its anchor,
     *      so an endpoint and its driver weigh as one unit;
     *   3. cut the members, in registration order, into
     *      K = min(threads, members) contiguous shards: shard k
     *      closes at the member boundary whose cumulative unit cost
     *      is nearest (k+1)/K of the total, so every shard's cost
     *      is within one unit's cost of total/K;
     *   4. walk the registration list once more: components that
     *      are not members go to the serial runs, except followers,
     *      which join their anchor's shard after all its members;
     *   5. carve each arena's lanes into even-aligned chunks for
     *      phase 2.
     */
    void
    rebuildPlan()
    {
        planDirty_ = false;

        pinned_.clear();
        for (Link *l : links_) {
            if (l->fault() == LinkFault::Corrupt) {
                if (l->wakeA() != nullptr)
                    pinned_.insert(l->wakeA());
                if (l->wakeB() != nullptr)
                    pinned_.insert(l->wakeB());
            }
        }

        // Until the cut, a member's shard_ holds its member ordinal.
        std::vector<std::size_t> members;
        std::vector<std::uint64_t> unitCost;
        for (std::size_t i = 0; i < components_.size(); ++i) {
            Component *c = components_[i];
            c->shard_ = Component::kNoShard;
            if (c->tickAnchor() == nullptr && c->parallelTickSafe() &&
                pinned_.count(c) == 0) {
                c->shard_ = static_cast<std::uint32_t>(members.size());
                members.push_back(i);
                unitCost.push_back(c->tickCost());
            }
        }
        for (Component *c : components_) {
            const Component *a = c->tickAnchor();
            if (a != nullptr && isMember(a) && c->parallelTickSafe())
                unitCost[a->shard_] += c->tickCost();
        }
        std::uint64_t total = 0;
        for (const std::uint64_t cost : unitCost)
            total += cost;

        const std::size_t count =
            std::min<std::size_t>(threads_, members.size());
        shards_.assign(count, Shard{});
        std::uint64_t cum = 0;
        std::size_t k = 0;
        for (std::size_t m = 0; m < members.size(); ++m) {
            Component *c = components_[members[m]];
            const std::uint64_t cost = unitCost[m];
            // Close shard k before this member when the boundary
            // here is at least as near the shard's target as the
            // one after it — or when only enough members remain to
            // give every later shard one.
            if (k + 1 < count && shards_[k].members > 0 &&
                ((2 * cum + cost) * count >= 2 * total * (k + 1) ||
                 members.size() - m < count - k))
                ++k;
            c->shard_ = static_cast<std::uint32_t>(k);
            addToShard(c, members[m], /*follower=*/false);
            cum += cost;
        }

        serialRuns_.clear();
        bool followersParallel = true;
        std::uint32_t lastShard = 0;
        for (std::size_t i = 0; i < components_.size(); ++i) {
            Component *c = components_[i];
            const Component *a = c->tickAnchor();
            if (a == nullptr) {
                if (c->shard_ == Component::kNoShard)
                    appendSlice(serialRuns_, c->batchTickFn(), i);
                continue;
            }
            // Followers share the ledger: their staged sends fold in
            // shard order, which is their registration order only
            // while their shards never decrease. From the first
            // follower that cannot join its anchor's shard in that
            // order, the rest tick in the serial section — after
            // every staged send has folded — so ids keep follower
            // registration order whatever the plan.
            followersParallel = followersParallel &&
                                c->parallelTickSafe() && isMember(a) &&
                                a->shard_ >= lastShard;
            if (!followersParallel) {
                appendSlice(serialRuns_, c->batchTickFn(), i);
                continue;
            }
            lastShard = a->shard_;
            c->shard_ = a->shard_;
            addToShard(c, i, /*follower=*/true);
        }

        if (profiling_)
            planProfileSlots();
        for (ArenaGroup &g : arenaGroups_)
            rebuildChunks(g);
    }

    /** A parallel member of the plan being built (registered here,
     *  no anchor of its own, a shard_ assigned). */
    bool
    isMember(const Component *c) const
    {
        return c->sched_ == this && c->tickAnchor() == nullptr &&
               c->shard_ != Component::kNoShard;
    }

    /** Append registration index i (component c, shard_ set) to its
     *  shard, as a member or as a follower. */
    void
    addToShard(Component *c, std::size_t i, bool follower)
    {
        Shard &s = shards_[c->shard_];
        s.cost += c->tickCost();
        if (follower) {
            appendSlice(s.followers, c->batchTickFn(), i);
            ++s.followerCount;
            return;
        }
        appendSlice(s.slices, c->batchTickFn(), i);
        ++s.members;
        if (!c->schedAsleep_)
            ++s.awake;
    }

    /** Extend the last slice with component i, or open a new one
     *  (same batch function, contiguous in registration order). */
    static void
    appendSlice(std::vector<TickRun> &slices,
                Component::BatchTickFn fn, std::size_t i)
    {
        if (!slices.empty() && slices.back().fn == fn &&
            slices.back().begin + slices.back().count == i)
            ++slices.back().count;
        else
            slices.push_back({fn, i, 1});
    }

    /** Readable name of a component's concrete class. */
    static std::string
    className(const Component &c)
    {
        const char *raw = typeid(c).name();
#if defined(__GNUG__)
        int status = 0;
        const std::unique_ptr<char, void (*)(void *)> name(
            abi::__cxa_demangle(raw, nullptr, nullptr, &status),
            std::free);
        if (status == 0 && name)
            return name.get();
#endif
        return raw;
    }

    /** Size the profile's per-shard slots and map every serial run
     *  to its class's slot. */
    void
    planProfileSlots()
    {
        if (profile_.shardNs.size() < shards_.size())
            profile_.shardNs.resize(shards_.size(), 0);
        serialClass_.clear();
        for (const TickRun &run : serialRuns_) {
            const std::string name =
                className(*components_[run.begin]);
            std::size_t slot = 0;
            while (slot < profile_.serialNs.size() &&
                   profile_.serialNs[slot].name != name)
                ++slot;
            if (slot == profile_.serialNs.size())
                profile_.serialNs.push_back({name, 0});
            serialClass_.push_back(slot);
        }
    }

    /** One arena's links, for the batched advance: which registered
     *  link owns each lane (null for frozen/unregistered lanes),
     *  plus the phase-2 chunk carve-up with per-chunk fold buffers
     *  (written by one worker each, read at the barrier). */
    struct LaneChunk
    {
        LaneId begin = 0;
        LaneId end = 0;
        std::uint64_t discards = 0;
        std::vector<LaneId> drained;
    };

    struct ArenaGroup
    {
        LaneArena *arena;
        std::vector<Link *> laneOwner;
        std::vector<LaneChunk> chunks;
    };

    /** Put a link (a freshly drained lane's owner, or a freshly
     *  registered link; null for an unregistered lane) to sleep if
     *  it may; its end components may then become sleep
     *  candidates. */
    void
    trySleepLink(Link *l)
    {
        if (l != nullptr && l->active() && l->canSleepNow()) {
            l->deactivate();
            noteQuietEnd(l->wakeA());
            noteQuietEnd(l->wakeB());
        }
    }

    /** Carve [0, lanes) into ≤ threads even-aligned contiguous
     *  chunks (a link's two lanes stay together). */
    void
    rebuildChunks(ArenaGroup &g)
    {
        g.chunks.clear();
        const auto lanes = static_cast<LaneId>(g.arena->lanes());
        const LaneId pairs = lanes / 2;
        LaneId start = 0;
        for (unsigned k = 0; k < threads_ && start < lanes; ++k) {
            LaneId end =
                k + 1 == threads_
                    ? lanes
                    : static_cast<LaneId>(
                          (pairs * (k + 1) / threads_) * 2);
            if (end <= start)
                continue;
            g.chunks.push_back({start, end, 0, {}});
            start = end;
        }
    }

    /** A link just deactivated: its end component is a sleep
     *  candidate once no other attached link is active. */
    void
    noteQuietEnd(Component *c)
    {
        if (c != nullptr && c->sleepable_ &&
            c->schedActiveLinks_ == 0)
            sleepCandidates_.push_back(c);
    }

    ArenaGroup &
    groupFor(LaneArena *arena)
    {
        for (ArenaGroup &g : arenaGroups_) {
            if (g.arena == arena)
                return g;
        }
        arenaGroups_.push_back({arena, {}, {}});
        return arenaGroups_.back();
    }

    ArenaGroup *
    findGroup(LaneArena *arena)
    {
        for (ArenaGroup &g : arenaGroups_) {
            if (g.arena == arena)
                return &g;
        }
        return nullptr;
    }

    /** Below this many live lanes, a chunked advance costs more in
     *  dispatch than it wins (the serial pass is two streaming
     *  array walks); small or mostly-sleeping arenas stay serial. */
    static constexpr std::size_t kMinLanesForChunkedAdvance = 64;

    std::vector<Component *> components_;
    std::vector<Link *> links_;
    std::vector<ArenaGroup> arenaGroups_;
    std::vector<LaneId> drained_;
    /** Links awaiting their first sleep evaluation (see addLink). */
    std::vector<Link *> pendingLinkEval_;
    std::vector<Component *> sleepCandidates_;
    Cycle now_ = 0;
    bool quiesce_ = true;
    bool stepping_ = false;
    std::uint64_t ticksSkipped_ = 0;
    std::uint64_t linksFastpathed_ = 0;

    /** Sharded execution state. @{ */
    unsigned threads_ = 1;
    bool planDirty_ = true;
    std::vector<Shard> shards_;
    std::vector<TickRun> serialRuns_;
    std::unordered_set<Component *> pinned_;
    ArenaGroup *curGroup_ = nullptr;
    TickPool pool_;
    std::uint64_t shardCyclesParked_ = 0;
    /** @} */

    /** Self-profile state. @{ */
    bool profiling_ = false;
    EngineProfile profile_;
    /** Profile slot of each serial run's component class. */
    std::vector<std::size_t> serialClass_;
    /** @} */
};

} // namespace metro

#endif // METRO_SIM_ENGINE_HH
