/**
 * @file
 * The METRO router model.
 *
 * A MetroRouter is a dilated crossbar routing component supporting
 * half-duplex bidirectional, pipelined, circuit-switched connections
 * (Section 3). It is self-routing — connections are established by
 * the routing header arriving on a forward port — and handles
 * dynamic message traffic with no internal message buffering.
 *
 * Cycle behaviour implemented here (Sections 4–5):
 *
 *  - Connection setup: a Header word arriving at an idle forward
 *    port requests a backward port in the header's logical
 *    direction; the crossbar allocator picks randomly among free
 *    equivalent ports (stochastic path selection). With hw > 0 the
 *    router consumes hw words from the stream head (pipelined
 *    connection setup); with hw = 0 and swallow enabled it strips
 *    the leading header word once its route bits are exhausted.
 *
 *  - Blocking: when no backward port is free in the requested
 *    direction the connection blocks. Per-forward-port
 *    configuration selects *fast path reclamation* (immediately
 *    propagate a backward-control-bit drop toward the source and
 *    release resources) or a *detailed reply* (hold the connection,
 *    discard data, and answer the eventual TURN with a blocked
 *    STATUS word and checksum).
 *
 *  - Connection reversal: a TURN word is forwarded downstream while
 *    the router injects a STATUS word (connection state + CRC of
 *    the data it forwarded) into the newly-reversed return stream;
 *    DATA-IDLE fills reversal-transient slots. Connections may turn
 *    any number of times; turns are symmetric.
 *
 *  - Teardown: a Drop word from the transmitting end releases the
 *    crosspoint as it passes through.
 *
 * Timing: the router's dp internal pipeline stages and the attached
 * wire's vtd registers are folded into the outgoing lane latency of
 * each Link (see sim/link.hh), so a symbol read in cycle t is
 * visible to the neighbour at t + dp + vtd.
 */

#ifndef METRO_ROUTER_ROUTER_HH
#define METRO_ROUTER_ROUTER_HH

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "common/crc.hh"
#include "common/random.hh"
#include "common/types.hh"
#include "obs/counters.hh"
#include "obs/observer.hh"
#include "router/allocator.hh"
#include "router/config.hh"
#include "router/params.hh"
#include "sim/component.hh"
#include "sim/link.hh"

namespace metro
{

/** Forward-port connection state. */
enum class FwdPortState : std::uint8_t
{
    /** No connection; waiting for a routing header. */
    Idle,
    /** Connected, data flowing source → destination. */
    ConnectedFwd,
    /** Connected, data flowing destination → source. */
    ConnectedRev,
    /** Blocked in detailed mode: discarding, awaiting TURN. */
    BlockedWait,
    /** Blocked reply sent status; Drop goes out next cycle. */
    BlockedDrop,
    /** Fast-reclaimed: discarding the dead stream until Drop. */
    Draining,
};

/** Human-readable forward-port state name. */
const char *fwdPortStateName(FwdPortState state);

/** A router's event counters, reported as `router.total.<name>`
 *  (sorted: see obs/counters.hh). */
#define METRO_ROUTER_COUNTERS(X)                                        \
    X(abortDrops) X(bcbForwarded) X(bcbSent) X(blockedDiscard)          \
    X(blockedReplies) X(blocks) X(cascadeShutdown)                      \
    X(disabledPortDiscard) X(drainedWords) X(drops) X(grants)           \
    X(headerConsumed) X(headerSwallowed) X(idleDiscard)                 \
    X(idleTimeouts) X(requests) X(reverseDropFwd) X(scanTeardown)       \
    X(strayForwardSymbol) X(strayReverseSymbol) X(turns)                \
    X(wordsForwarded)
METRO_COUNTER_TABLE(RouterCounter, RouterCounterNames,
                    METRO_ROUTER_COUNTERS);
using RouterCounters = CounterBlock<RouterCounterNames>;

/**
 * One METRO routing component.
 */
class MetroRouter : public Component
{
  public:
    /**
     * @param id      network-unique router id
     * @param params  architectural parameters (validated)
     * @param config  runtime configuration (validated)
     * @param seed    seed for this router's own RandomSource
     */
    MetroRouter(RouterId id, const RouterParams &params,
                const RouterConfig &config, std::uint64_t seed);

    /** Attach the link feeding forward port p (router is B end). */
    void attachForward(PortIndex p, Link *link);

    /** Attach the link leaving backward port p (router is A end). */
    void attachBackward(PortIndex p, Link *link);

    /** Network stage this router sits in (for STATUS words). */
    void setStage(std::uint8_t stage) { stage_ = stage; }

    /** Stage recorded for STATUS words. */
    std::uint8_t stage() const { return stage_; }

    /**
     * Share a random-input stream across a cascade group
     * (Section 5.1, shared randomness). Replaces the router's own
     * source.
     */
    void
    setRandomSource(std::shared_ptr<RandomSource> source)
    {
        randomSource_ = std::move(source);
        // The stream is (potentially) shared now: members of a
        // cascade group must consume it in registration order, so
        // this router is pinned to the serial tick section.
        sharedRandom_ = true;
        notePlanChange();
    }

    /** The random-input stream in use. */
    const std::shared_ptr<RandomSource> &
    randomSource() const
    {
        return randomSource_;
    }

    /**
     * The random *output* bit stream this component generates
     * (Section 5.1: every METRO component produces one, so cascade
     * groups can be fed without extra parts). Deterministic per
     * (router seed, cycle); independent of the router's own
     * random-input consumption.
     */
    bool randomOutputBit(Cycle cycle) const;

    void tick(Cycle cycle) override;

    /** Architectural parameters. @{ */
    const RouterParams &params() const { return params_; }
    const RouterConfig &config() const { return config_; }
    RouterId id() const { return id_; }
    /** @} */

    /**
     * Scan-controlled reconfiguration (used by Tap). Disabling a
     * port with a live connection tears the connection down (Drop
     * in both directions) so the fault region is isolated cleanly.
     * @{
     */
    void setForwardEnabled(PortIndex p, bool enabled);
    void setBackwardEnabled(PortIndex p, bool enabled);
    void setFastReclaim(PortIndex p, bool fast);
    void setDilation(unsigned dilation);
    /** @} */

    /**
     * Fault hooks for the fault-tolerance experiments. A dead
     * router ignores all traffic. A misrouting router decodes
     * corrupted directions (random), modelling header-decode
     * faults; used by the cascade consistency tests. Both wake a
     * sleeping router *before* mutating, so the skipped-cycle
     * catch-up (syncSkipped) accounts with the state that actually
     * held during the sleep. @{
     */
    void
    setDead(bool dead)
    {
        wake();
        dead_ = dead;
    }
    bool dead() const { return dead_; }
    void
    setMisroute(bool misroute)
    {
        wake();
        misroute_ = misroute;
    }
    /** @} */

    /** Install a connection-lifecycle observer (grant/block
     *  milestones); nullptr detaches. An observed router leaves the
     *  sharded engine's parallel section (the observer is shared
     *  mutable state), so the shard plan is invalidated. */
    void
    setObserver(ConnObserver *observer)
    {
        observer_ = observer;
        notePlanChange();
    }

    /**
     * Parallel-safety verdict (see Component): a router tick reads
     * its attached lane heads, pushes its attached lane tails and
     * mutates only per-router state — *unless* an observer is
     * watching (shared callback) or the random source is shared
     * across a cascade group (draw order must follow registration
     * order, which only the serial section preserves).
     */
    bool
    parallelTickSafe() const override
    {
        return observer_ == nullptr && !sharedRandom_;
    }

    /**
     * Tick cost (see Component::tickCost), linear in the port
     * count the tick walks: an 8×8 router costs 7 (1.75 network
     * interfaces), a 4×4 router 3 (0.75) — the self-profile
     * measured 1.7 and 0.7 on the saturated 1024-endpoint network.
     */
    std::uint32_t
    tickCost() const override
    {
        return std::max(1u,
                        (params_.numForward + params_.numBackward) / 2 -
                            1);
    }

    /**
     * What this router counts into registry slots that are not its
     * alone: its share of the network-wide word-conservation
     * discards, and its occupancy histogram. The owning Network
     * moves it into its registry (Network::syncMetrics).
     */
    struct Share
    {
        WordCounters words;
        LogHistogram occupancy;
    };

    /** Hand over the share accumulated since the last call, leaving
     *  it empty. */
    Share takeShare() { return std::exchange(share_, {}); }

    /** Introspection for tests and monitors. @{ */
    FwdPortState forwardState(PortIndex p) const;
    bool backwardBusy(PortIndex p) const;
    PortIndex connectedBackward(PortIndex fwd) const;
    const RouterCounters &counters() const { return counters_; }
    /** True when no port holds any connection state. */
    bool quiescent() const;
    /** Last Test symbol observed on a disabled forward port. */
    Symbol lastTestSymbol(PortIndex p) const;
    /** Drive a Test symbol out a *disabled* backward port. */
    void driveTestSymbol(PortIndex p, const Symbol &s);
    /** @} */

    /**
     * Allocation observer for cascade consistency checking: after
     * each tick, the set of (forward, backward) pairs granted in
     * that tick. Cleared at the start of every tick.
     */
    const std::vector<AllocGrant> &lastGrants() const
    {
        return lastGrants_;
    }

    /** Force-release every connection (cascade containment). */
    void shutdownAllConnections();

    /** Force-release whatever connection owns backward port b
     *  (wired-AND consistency shutdown). No-op when free. */
    void releaseBackward(PortIndex b);

  private:
    friend class CheckpointIO;

    /** Pending allocation request gathered during the input scan. */
    struct PendingRequest
    {
        PortIndex fwd;
        unsigned direction;
        Symbol header;
    };

    /** Quiescence hooks (see sim/component.hh). @{ */
    bool canSleep() const override;
    void syncSkipped(Cycle from, Cycle upto) override;
    /** @} */

    /** Type-segregated dispatch (see Engine): routers registered
     *  consecutively tick through one devirtualized loop. */
    BatchTickFn
    batchTickFn() const override
    {
        return &Component::batchTickOf<MetroRouter>;
    }

    void processForwardPort(PortIndex p, Cycle cycle);
    void handleConnectedFwd(PortIndex p, const Symbol &sym,
                            Cycle cycle);
    void handleConnectedRev(PortIndex p, const Symbol &sym,
                            Cycle cycle);
    void runAllocation(Cycle cycle);
    void forwardHeader(PortIndex p, Symbol sym);
    void pushStatusUp(PortIndex p, bool blocked);
    void pushStatusDown(PortIndex p, bool blocked);
    Symbol makeStatus(PortIndex p, bool blocked) const;
    void freeConnection(PortIndex p);
    void teardownPort(PortIndex p);
    unsigned directionBits() const;
    unsigned extractDirection(const Symbol &header, Cycle cycle);
    void fillAvailability();
    void refreshOffPortDrive();

    RouterId id_;
    RouterParams params_;
    RouterConfig config_;
    std::uint8_t stage_ = 0;
    bool dead_ = false;
    bool misroute_ = false;
    std::shared_ptr<RandomSource> randomSource_;
    RandomSource randomOutput_;
    Xoshiro256 misrouteRng_;

    /**
     * Per-port connection state, structure-of-arrays: the tick loop
     * walks ports field by field (the state scan touches fState_ and
     * fLink_ only for idle ports), so each array stays hot instead
     * of striding over one big per-port record. All forward arrays
     * are indexed by forward-port number, backward arrays by
     * backward-port number; sizes are fixed at construction. @{
     */
    std::vector<Link *> fLink_;
    std::vector<FwdPortState> fState_;
    std::vector<PortIndex> fBwd_;
    /** hw words still to consume from the stream head. */
    std::vector<std::uint32_t> fConsumeLeft_;
    /** routePos to stamp on forwarded header words. */
    std::vector<std::uint16_t> fPosAfter_;
    /** swallow: strip the leading header word. */
    std::vector<std::uint8_t> fSwallowFirst_;
    /** true until the stream's first header was handled. */
    std::vector<std::uint8_t> fFirstHeaderDone_;
    /** CRC over Data words forwarded per connection. */
    std::vector<Crc16> fCrc_;
    /** requested logical direction (diagnostics). */
    std::vector<std::uint32_t> fDirection_;
    std::vector<Cycle> fLastActivity_;
    std::vector<std::uint64_t> fMsgId_;
    /** Last Test symbol observed while the port was disabled. */
    std::vector<Symbol> fLastTest_;

    std::vector<Link *> bLink_;
    std::vector<std::uint8_t> bBusy_;
    std::vector<PortIndex> bOwner_;
    /** Reverse lane consumed by a connection handler this tick
     *  (unread lanes are censused for word conservation). */
    std::vector<std::uint8_t> bRevRead_;
    /** @} */

    /** Per-tick scratch, allocated once (the former per-tick
     *  vector allocations were a measured hot spot). @{ */
    std::vector<bool> availScratch_;
    std::vector<PendingRequest> pendingScratch_;
    /** @} */

    /** availScratch_ needs refilling: some availability input
     *  (bBusy_, backwardEnabled, an attached link) changed since
     *  the last fill. Mutations mid-tick leave this cycle's
     *  snapshot stale on purpose — a port freed in cycle t accepts
     *  new connections from t+1. */
    bool availDirty_ = true;

    /** Some disabled backward port has off-port drive enabled, so
     *  the per-tick DATA-IDLE drive loop must run (recomputed on
     *  the rare enable/disable reconfigurations). */
    bool offPortDriveArmed_ = false;

    std::vector<AllocGrant> lastGrants_;
    RouterCounters counters_;

    Share share_;
    ConnObserver *observer_ = nullptr;

    /** Replaced random source may be cascade-shared (pins the
     *  router to the serial section; see setRandomSource). */
    bool sharedRandom_ = false;
};

} // namespace metro

#endif // METRO_ROUTER_ROUTER_HH
