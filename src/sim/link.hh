/**
 * @file
 * A bidirectional point-to-point link between two ports.
 *
 * METRO connections are half-duplex bidirectional: payload flows in
 * one direction at a time, but control signalling (the backward
 * control bit used for fast path reclamation, and the reversed data
 * stream after a TURN) travels against the current payload
 * direction. The simulator therefore gives each link two
 * unidirectional lanes:
 *
 *   down: from the A (upstream / source-side) end to the B
 *         (downstream / destination-side) end — the initial
 *         direction of a route;
 *   up:   from B back to A.
 *
 * Lane latency folds together the driving component's internal
 * pipeline depth (dp for a router, one output register for an
 * endpoint) and the wire's pipeline registers (the paper's variable
 * turn delay, vtd). A lane of latency L delivers a symbol pushed in
 * cycle t to the reader in cycle t + L.
 *
 * Lane storage lives in a LaneArena (see arena.hh). Networks hand
 * every link the shared network-wide arena so the engine's advance
 * pass streams through one flat slot array; a standalone link (unit
 * tests) owns a private arena and behaves identically.
 *
 * Links also host fault state (dead / corrupting lanes) for the
 * fault-tolerance experiments.
 */

#ifndef METRO_SIM_LINK_HH
#define METRO_SIM_LINK_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/random.hh"
#include "common/types.hh"
#include "sim/arena.hh"
#include "sim/component.hh"

namespace metro
{

/** What kind of component a link end attaches to. */
enum class AttachKind : std::uint8_t
{
    None,
    Endpoint,
    RouterForward,  ///< a router's forward port
    RouterBackward, ///< a router's backward port
};

/** Identification of one end of a link (for builders/diagnostics). */
struct LinkEnd
{
    AttachKind kind = AttachKind::None;
    std::uint32_t id = 0;      ///< NodeId or RouterId
    PortIndex port = kInvalidPort;
    std::uint32_t subPort = 0; ///< endpoint port index
};

/** Fault modes a link lane can be placed in. */
enum class LinkFault : std::uint8_t
{
    None,     ///< healthy
    Dead,     ///< delivers nothing (broken wire)
    Corrupt,  ///< randomly flips payload bits of delivered words
};

class Link;

namespace detail
{
/**
 * Sharded-engine activation deferral (see engine.hh). While two or
 * more shards tick concurrently the waking side of Link::activate()
 * — sleeping-lane counters, the far end's active-link count, the
 * scheduler wake — must not run concurrently, so pushes into
 * inactive links record the link here (each worker points this at
 * its shard's private list) and the engine applies the activations
 * in fixed shard order at the phase barrier. Null (the default: a
 * lone live shard, the serial section, hand-driven links) means
 * activate inline.
 */
inline thread_local std::vector<Link *> *tlsDeferredActivations =
    nullptr;
} // namespace detail

/**
 * A bidirectional link: two arena lanes plus attachment metadata
 * and fault state.
 */
class Link
{
  public:
    /**
     * @param id        network-unique identifier
     * @param down_lat  A→B lane latency (driver dp + wire vtd), ≥ 1
     * @param up_lat    B→A lane latency, ≥ 1
     * @param fault_seed seed for the corruption PRNG
     * @param arena     lane storage to allocate from (the owning
     *                  network's); nullptr gives the link a private
     *                  arena (standalone/unit-test use)
     */
    Link(LinkId id, unsigned down_lat, unsigned up_lat,
         std::uint64_t fault_seed = 1, LaneArena *arena = nullptr)
        : id_(id), faultRng_(fault_seed)
    {
        if (arena == nullptr) {
            ownArena_ = std::make_unique<LaneArena>();
            arena = ownArena_.get();
        }
        arena_ = arena;
        down_ = arena_->allocate(down_lat);
        up_ = arena_->allocate(up_lat);
    }

    /** Network-unique identifier. */
    LinkId id() const { return id_; }

    /** Attachment of the A (upstream) end. */
    LinkEnd &endA() { return endA_; }
    const LinkEnd &endA() const { return endA_; }

    /** Attachment of the B (downstream) end. */
    LinkEnd &endB() { return endB_; }
    const LinkEnd &endB() const { return endB_; }

    /** Push a symbol toward B (used by the A-side component). */
    void
    pushDown(const Symbol &s)
    {
        arena_->push(down_, s);
        if (!active_)
            activateFromPush();
    }

    /** Push a symbol toward A (used by the B-side component). */
    void
    pushUp(const Symbol &s)
    {
        arena_->push(up_, s);
        if (!active_)
            activateFromPush();
    }

    /** Read the symbol arriving at the B end this cycle. */
    Symbol
    headDown()
    {
        return applyFault(arena_->head(down_));
    }

    /** Read the symbol arriving at the A end this cycle. */
    Symbol
    headUp()
    {
        return applyFault(arena_->head(up_));
    }

    /**
     * Passive observation of the B-end arrival: like headDown() but
     * never draws from the corruption PRNG, so probes and censuses
     * cannot perturb a faulty simulation. Dead links read Empty (a
     * severed wire delivers nothing); on Corrupt links the kind is
     * exact but the value is the pre-corruption payload.
     */
    Symbol
    peekDown() const
    {
        return fault_ == LinkFault::Dead ? Symbol{}
                                         : arena_->head(down_);
    }

    /** Passive observation of the A-end arrival (see peekDown()). */
    Symbol
    peekUp() const
    {
        return fault_ == LinkFault::Dead ? Symbol{}
                                         : arena_->head(up_);
    }

    /**
     * Kind-only observations for hot per-cycle polls (censuses,
     * idle-port checks): corruption never changes a symbol's kind
     * and Empty never draws from the PRNG, so the kind is exact and
     * draw-free without materializing the symbol. @{
     */
    SymbolKind
    peekKindDown() const
    {
        return fault_ == LinkFault::Dead ? SymbolKind::Empty
                                         : arena_->headKind(down_);
    }

    SymbolKind
    peekKindUp() const
    {
        return fault_ == LinkFault::Dead ? SymbolKind::Empty
                                         : arena_->headKind(up_);
    }

    /** Symbols in flight per lane (0 means the reader will see
     *  Empty; lets pollers skip the read entirely). */
    unsigned downOccupied() const { return arena_->occupied(down_); }
    unsigned upOccupied() const { return arena_->occupied(up_); }
    /** @} */

    /** Symbols of one kind currently in flight across both lanes. */
    unsigned
    inFlight(SymbolKind kind) const
    {
        return arena_->countKind(down_, kind) +
               arena_->countKind(up_, kind);
    }

    /**
     * Advance both lanes by one cycle. The engine no longer calls
     * this per link — its phase 2 is LaneArena::advanceAll, one
     * batched pass over the shared arena — but hand-driven links
     * (unit tests, standalone harnesses) step through the exact
     * same per-lane machinery, fault census included.
     */
    void
    advance()
    {
        arena_->censusStep(down_);
        arena_->censusStep(up_);
        arena_->advance(down_);
        arena_->advance(up_);
    }

    /** A→B lane latency in cycles. */
    unsigned downLatency() const { return arena_->latency(down_); }

    /** B→A lane latency in cycles. */
    unsigned upLatency() const { return arena_->latency(up_); }

    /** Clear both lanes' in-flight symbols (fault injection). */
    void
    flush()
    {
        arena_->flush(down_);
        arena_->flush(up_);
    }

    /** Current fault mode. */
    LinkFault fault() const { return fault_; }

    /**
     * Set the fault mode. A Dead link delivers nothing: readers
     * and peeks see Empty, and the in-flight symbols drain off the
     * pipe exits unread over the next few cycles (charged to the
     * wire-discard counter in advance()).
     */
    void
    setFault(LinkFault fault)
    {
        // A severed wire delivers nothing — neither the words in
        // flight at death nor anything streamed into it afterwards.
        // Each Data word is charged exactly once, as it falls off
        // the pipe exit unread, keeping the conservation identity
        // exact; the per-lane census state machine (LaneCensus)
        // carries the two one-cycle corrections that keep the
        // charge aligned with what readers saw in phase 1.
        //
        // Readers tick before the fault machinery, so this cycle's
        // heads were read with the fault mode the cycle started
        // with; the census must follow that mode and the final one,
        // not the last edge. A pending edge means the mode already
        // changed this cycle: a fail after a heal leaves a lane that
        // was read dead (DeadCharge), a heal after a fail leaves one
        // that was read healthy (None).
        const bool was_dead = fault_ == LinkFault::Dead;
        fault_ = fault;
        const bool now_dead = fault == LinkFault::Dead;
        if (now_dead != was_dead) {
            for (const LaneId lane : {down_, up_}) {
                const LaneCensus edge = arena_->census(lane);
                LaneCensus next;
                if (now_dead)
                    next = edge == LaneCensus::HealCharge
                               ? LaneCensus::DeadCharge
                               : LaneCensus::DeadPending;
                else
                    next = edge == LaneCensus::DeadPending
                               ? LaneCensus::None
                               : LaneCensus::HealCharge;
                arena_->setCensus(lane, next);
            }
        }
        // A fault lands on a fast-pathed link: reactivate it so the
        // death census runs (and both end components observe the
        // new behaviour from their next tick on).
        activate();
        // Corrupt ends must tick serially (they share the link's
        // corruption PRNG); tell the engine its shard plan is stale.
        if (planDirty_ != nullptr)
            *planDirty_ = true;
    }

    /**
     * Activity protocol (see docs/simulator.md). A link starts
     * active; the engine fast-paths it (skips advance()) once both
     * lanes drain, and any push — or a setFault — reactivates it,
     * waking the components attached to its two ends so they see
     * the arriving symbols. Builders register the end components
     * via setWakeA/setWakeB; a link with no wake targets (unit
     * tests drive Pipes/Links by hand) just tracks the flag.
     * Activity transitions also maintain each wake target's
     * active-link count (Component::schedActiveLinks_), the cheap
     * veto the engine's candidate-driven sleep evaluation filters
     * on. @{
     */
    bool active() const { return active_; }

    /** Both lanes drained and no fault edge pending: advance() is
     *  unobservable until the next push. */
    bool
    canSleepNow() const
    {
        return arena_->occupied(down_) == 0 &&
               arena_->occupied(up_) == 0 &&
               !arena_->censusEdgePending(down_) &&
               !arena_->censusEdgePending(up_);
    }

    /** Engine only: stop advancing this link until reactivation.
     *  Pauses both arena lanes so advanceAll skips them. */
    void
    deactivate()
    {
        if (!active_)
            return;
        active_ = false;
        arena_->setPaused(down_, true);
        arena_->setPaused(up_, true);
        if (wakeA_ != nullptr)
            --wakeA_->schedActiveLinks_;
        if (wakeB_ != nullptr)
            --wakeB_->schedActiveLinks_;
    }

    /** Mark active and wake both end components. Idempotent on the
     *  flag but always delivers the wakes (wakes are cheap no-ops
     *  on awake components, and a missed wake is a bug). */
    void
    activate()
    {
        if (!active_) {
            active_ = true;
            arena_->setPaused(down_, false);
            arena_->setPaused(up_, false);
            if (wakeA_ != nullptr)
                ++wakeA_->schedActiveLinks_;
            if (wakeB_ != nullptr)
                ++wakeB_->schedActiveLinks_;
        }
        if (wakeA_ != nullptr)
            wakeA_->wake();
        if (wakeB_ != nullptr)
            wakeB_->wake();
    }

    /** Component to wake when this link goes active (A end: the
     *  pushDown-er / headUp reader). */
    void
    setWakeA(Component *c)
    {
        if (active_) {
            if (wakeA_ != nullptr)
                --wakeA_->schedActiveLinks_;
            if (c != nullptr)
                ++c->schedActiveLinks_;
        }
        wakeA_ = c;
    }

    /** Component to wake when this link goes active (B end: the
     *  headDown reader / pushUp-er). */
    void
    setWakeB(Component *c)
    {
        if (active_) {
            if (wakeB_ != nullptr)
                --wakeB_->schedActiveLinks_;
            if (c != nullptr)
                ++c->schedActiveLinks_;
        }
        wakeB_ = c;
    }

    /** Registered wake targets (engine: candidate collection when a
     *  link deactivates mid-advance). @{ */
    Component *wakeA() const { return wakeA_; }
    Component *wakeB() const { return wakeB_; }
    /** @} */
    /** @} */

    /** Arena coordinates (engine: batched advance registration). @{ */
    LaneArena *laneArena() const { return arena_; }
    LaneId downLane() const { return down_; }
    LaneId upLane() const { return up_; }
    /** @} */

    /** Engine only: where setFault reports that the shard plan went
     *  stale (null for links outside a sharded engine). */
    void setPlanDirtyFlag(bool *flag) { planDirty_ = flag; }

  private:
    friend class CheckpointIO;

    /**
     * Activation on the push path: inline by default, recorded
     * for the barrier when a worker registered a deferral list.
     * Deferral is byte-equivalent to the inline wake: a
     * mid-cycle wake resumes the sleeper at now+1 and counts the
     * current cycle as skipped whether it is delivered during
     * phase 1 or at the phase barrier (see Engine::wakeComponent),
     * and the unpause/active-link bookkeeping is only read after
     * the barrier. Both ends may record the same link (dup): the
     * flag transition is idempotent and wakes are no-ops on awake
     * components, exactly as with two same-cycle pushes serially.
     */
    void
    activateFromPush()
    {
        if (detail::tlsDeferredActivations != nullptr)
            detail::tlsDeferredActivations->push_back(this);
        else
            activate();
    }
    Symbol
    applyFault(Symbol s)
    {
        switch (fault_) {
          case LinkFault::None:
            return s;
          case LinkFault::Dead:
            return Symbol{};
          case LinkFault::Corrupt:
            // Flip a random low bit of the payload of value-bearing
            // words; control tokens pass (their encodings are
            // heavily redundant in hardware). Corrupting payload is
            // what the end-to-end checksum must catch. Test patterns
            // are value-bearing too — a scan probe across a corrupt
            // wire must observe a damaged pattern, or diagnosis
            // could never confirm the fault.
            if (s.kind == SymbolKind::Data ||
                s.kind == SymbolKind::Checksum ||
                s.kind == SymbolKind::Header ||
                s.kind == SymbolKind::Test) {
                s.value ^= 1ULL << faultRng_.below(8);
            }
            return s;
        }
        return s;
    }

    LinkId id_;
    LinkEnd endA_;
    LinkEnd endB_;
    /** Lane storage: the owning network's arena, or ownArena_. */
    LaneArena *arena_ = nullptr;
    std::unique_ptr<LaneArena> ownArena_;
    LaneId down_ = 0;
    LaneId up_ = 0;
    LinkFault fault_ = LinkFault::None;
    Xoshiro256 faultRng_;
    /** Activity flag (see activate()); starts active, the engine's
     *  first sleep evaluation fast-paths drained links. Mirrored
     *  into the arena's per-lane pause bits for advanceAll. */
    bool active_ = true;
    Component *wakeA_ = nullptr;
    Component *wakeB_ = nullptr;
    bool *planDirty_ = nullptr;
};

} // namespace metro

#endif // METRO_SIM_LINK_HH
