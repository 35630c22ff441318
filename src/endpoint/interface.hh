/**
 * @file
 * The source-responsible network interface.
 *
 * METRO routers push buffering, congestion handling, and fault
 * handling out of the network and onto the endpoints (Section 1).
 * The NetworkInterface implements that endpoint side:
 *
 *  - builds the routing header for a destination and streams
 *    [header words | data words | checksum | TURN] at one word per
 *    cycle into a randomly chosen injection port;
 *  - parses the reversal transient: per-router STATUS words, the
 *    destination acknowledgment, an optional reply payload, and the
 *    closing Drop;
 *  - on a blocked STATUS, a backward-control-bit drop, a failed
 *    checksum, or a watchdog timeout, closes the connection and
 *    *retries*. Randomized path selection inside the routers means
 *    a retry very likely takes a different path, avoiding the fault
 *    or hot spot (Section 4, Stochastic Path Selection);
 *  - delivers each message to software exactly once (duplicate
 *    arrivals from retries are re-acknowledged but not
 *    re-delivered) using per-source sequence numbers;
 *  - on the receive side, answers a TURN with an acknowledgment in
 *    the very next stream slot, followed for request-reply traffic
 *    by the reply payload — preceded by DATA-IDLE words when the
 *    reply takes time to produce (the paper's remote-memory-read
 *    motivation for DATA-IDLE, Section 5.1).
 */

#ifndef METRO_ENDPOINT_INTERFACE_HH
#define METRO_ENDPOINT_INTERFACE_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/crc.hh"
#include "common/random.hh"
#include "common/types.hh"
#include "diag/diary.hh"
#include "endpoint/message.hh"
#include "obs/counters.hh"
#include "obs/observer.hh"
#include "retry/policy.hh"
#include "sim/component.hh"
#include "sim/link.hh"

namespace metro
{

/** Route header plan for one destination from one endpoint. */
struct RoutePlan
{
    /** Packed route digits, stage 0 in the low bits. */
    std::uint64_t route = 0;

    /** Significant bits in `route`. */
    std::uint16_t length = 0;

    /** Header symbols to emit (paper Table 4 hbits / w). */
    unsigned headerSymbols = 1;
};

/** Endpoint protocol configuration. */
struct NiConfig
{
    /** Channel width in bits (must match the routers'). */
    unsigned width = 8;

    /** Give up after this many connection attempts. */
    unsigned maxAttempts = 64;

    /** Retry policy: backoff discipline (and its window), retry
     *  budget, admission control, anti-starvation aging. Defaults
     *  reproduce the original uniform [0, 7] backoff bit-exactly
     *  (see retry/policy.hh). */
    RetryPolicyConfig retry;

    /** Watchdog: cycles to wait after TURN for the connection to
     *  resolve before aborting the attempt. */
    unsigned replyTimeout = 2000;

    /** Receive-side watchdog: reset a half-open incoming stream
     *  after this many silent cycles (0 = off). */
    unsigned recvTimeout = 5000;

    /**
     * DATA-IDLE words inserted between consecutive payload words —
     * a source whose data is not deterministically available
     * (Section 5.1's first DATA-IDLE use case). The circuit stays
     * open and the words simply arrive later. 0 = back-to-back.
     */
    unsigned interWordGap = 0;
};

/** Workload metadata a driver can attach to a message at send
 *  time; recorded on the MessageRecord for per-class SLO and RPC
 *  fan-out accounting. Defaults mean "untagged, not in a group". */
struct SendMeta
{
    /** Traffic class (< kTrafficClasses). */
    std::uint8_t trafficClass = 0;

    /** RPC group id: 0 on the group's first leg (the record's own
     *  id becomes the group id), the first leg's id on the rest. */
    std::uint64_t rpcGroup = 0;

    /** Group width K; 0 = not part of a fan-out group. */
    std::uint16_t rpcFanout = 0;
};

/** A reply produced by the receive-side application callback. */
struct ReplySpec
{
    /** Cycles of DATA-IDLE before the reply data (e.g. memory
     *  access latency). */
    unsigned delay = 0;

    /** Reply payload words. */
    std::vector<Word> words;
};

/** A per-round reply in a multi-turn session. */
struct SessionReply
{
    /** Cycles of DATA-IDLE before the reply data. */
    unsigned delay = 0;

    /** Reply payload words for this round. */
    std::vector<Word> words;

    /** true: hand the connection back to the source with a TURN
     *  (another round may follow); false: close with Drop. */
    bool continueSession = true;
};

/** An endpoint's protocol event counters, reported as
 *  `ni.total.<name>` (sorted: see obs/counters.hh). */
#define METRO_NI_COUNTERS(X)                                            \
    X(abortedReceives) X(admissionSheds) X(attempts) X(backoffClamps)   \
    X(bcbAborts) X(blockedStatuses) X(budgetDenials)                    \
    X(checksumFailures) X(deliveries) X(duplicateArrivals)              \
    X(failedAttempts) X(gateDeferrals) X(giveUps) X(nacks)              \
    X(recvTimeouts) X(replyChecksumFail) X(replyTimeouts) X(retries)    \
    X(retriesParked) X(roundFailures) X(roundsCompleted)                \
    X(sessionRoundsServed) X(sessionsSubmitted) X(sliceDisagreement)    \
    X(starvations) X(statusAtReceiver) X(strayAtReceiver)               \
    X(strayAtSource) X(submitted) X(successes) X(wrongDestination)
METRO_COUNTER_TABLE(NiCounter, NiCounterNames, METRO_NI_COUNTERS);
using NiCounters = CounterBlock<NiCounterNames>;

/** An endpoint's share of the network-wide connection histograms. */
enum class NiConn : std::uint8_t
{
    attempts,
    giveupLatency,
    pathLength,
    setupLatency,
    turnRoundtrip,
};
struct NiConnNames
{
    using Id = NiConn;
    static constexpr std::string_view kNames[] = {
        "conn.attempts", "conn.giveup_latency", "conn.path_length",
        "conn.setup_latency", "conn.turn_roundtrip"};
};

/**
 * One network endpoint: a source-responsible sender plus an
 * independent receiver per network input port.
 */
class NetworkInterface : public Component
{
  public:
    using RouteFunction = std::function<RoutePlan(NodeId dest)>;
    using ReplyHandler = std::function<ReplySpec(const MessageRecord &)>;
    using DeliveryHandler = std::function<void(const MessageRecord &)>;
    using SessionHandler = std::function<SessionReply(
        const MessageRecord &, unsigned round,
        const std::vector<Word> &data)>;

    NetworkInterface(NodeId id, const NiConfig &config,
                     MessageTracker *tracker, std::uint64_t seed);

    /** Attach an injection (endpoint → network) link; A end. */
    void addOutPort(Link *link);

    /** Attach a delivery (network → endpoint) link; B end. */
    void addInPort(Link *link);

    /**
     * Width cascading (Section 5.1): attach one injection port as a
     * group of c parallel slice links — slice k carries bits
     * [k·w/c, (k+1)·w/c) of every word, control words are
     * replicated, and the checksum word packs one CRC-16 per slice.
     * All groups of an endpoint must share the same width. @{
     */
    void addOutPortGroup(std::vector<Link *> slices);
    void addInPortGroup(std::vector<Link *> slices);
    /** @} */

    /** Slices per port group (1 = no cascading). */
    unsigned cascade() const { return cascade_; }

    /** Install the topology's route computation. */
    void setRouteFunction(RouteFunction fn) { routeFn_ = std::move(fn); }

    /** Install the request-reply application callback. Handlers
     *  may touch shared state, so a handler-bearing endpoint is
     *  pinned to the sharded engine's serial section (same for the
     *  session/delivery callbacks, the observer, the gate and the
     *  diary below — each setter invalidates the shard plan). */
    void
    setReplyHandler(ReplyHandler fn)
    {
        replyHandler_ = std::move(fn);
        notePlanChange();
    }

    /** Install the multi-turn session callback (invoked once per
     *  arriving round; at-least-once on session retry, so handlers
     *  should be idempotent per (source, sequence, round)). */
    void
    setSessionHandler(SessionHandler fn)
    {
        sessionHandler_ = std::move(fn);
        notePlanChange();
    }

    /** Install a callback invoked on each first-time delivery. */
    void
    setDeliveryHandler(DeliveryHandler fn)
    {
        deliveryHandler_ = std::move(fn);
        notePlanChange();
    }

    /**
     * Queue a message. @return the tracker id.
     * Payload words must fit in `width` bits each.
     *
     * Called from a tick while two or more engine shards run (a
     * driver in its endpoint's shard), the ledger record is staged
     * and created at the phase barrier, in fixed shard order (see
     * Component::stageForFold): the id returned then is a
     * provisional handle, good only as a later leg's
     * SendMeta::rpcGroup within the same tick. Queue entries and
     * group ids are patched to the real id when the record folds.
     */
    std::uint64_t send(NodeId dest, std::vector<Word> payload,
                       bool request_reply = false,
                       const SendMeta &meta = {});

    /**
     * Queue a multi-turn session (Section 5.1): the connection is
     * opened once and reversed 2·rounds−1 times; the source sends
     * rounds[k] in round k, the destination's SessionHandler
     * replies each time. The whole session retries from round 0 on
     * any failure. @return the tracker id (provisional while staged,
     * as for send).
     */
    std::uint64_t sendSession(NodeId dest,
                              std::vector<std::vector<Word>> rounds);

    /** True when nothing is queued or in flight on the send side. */
    bool
    sendIdle() const
    {
        return sendState_ == SendState::Idle && queue_.empty();
    }

    /** Queued-but-not-started messages. */
    std::size_t queueDepth() const { return queue_.size(); }

    /** Endpoint node id. */
    NodeId nodeId() const { return id_; }

    /** Channel width in bits. */
    unsigned width() const { return config_.width; }

    void tick(Cycle cycle) override;

    /** Event counters (sends, retries, timeouts, duplicates...). */
    const NiCounters &counters() const { return counters_; }

    /**
     * What this endpoint counts into registry slots it shares with
     * every other endpoint: its word-accounting counters and its
     * connection histograms (setup latency, TURN round-trip, path
     * length, attempts, give-up latency). The owning Network moves
     * it into its registry (Network::syncMetrics).
     */
    struct Share
    {
        WordCounters words;
        HistogramBlock<NiConnNames> conn;
    };

    /** Hand over the share accumulated since the last call, leaving
     *  it empty. */
    Share takeShare() { return std::exchange(share_, {}); }

    /**
     * Parallel-safety verdict (see Component): an endpoint tick is
     * confined to per-endpoint state and its attached lanes unless
     * something shared is wired in — an observer, a fault diary,
     * the network-wide in-flight gate, or an application callback
     * (reply/session/delivery handler, each free to touch whatever
     * it likes). Tracker record fields are split by writer (source
     * side vs destination side), so plain tracker updates stay
     * safe, and record creation waits for the phase barrier (see
     * send).
     */
    bool
    parallelTickSafe() const override
    {
        return observer_ == nullptr && diary_ == nullptr &&
               gate_ == nullptr && !replyHandler_ &&
               !sessionHandler_ && !deliveryHandler_;
    }

    /** Install a connection-lifecycle observer (attempt/resolution/
     *  delivery milestones); nullptr detaches. */
    void
    setObserver(ConnObserver *observer)
    {
        observer_ = observer;
        notePlanChange();
    }

    /**
     * Share the network-wide in-flight-attempts gate (injection
     * admission control): a queued message is only activated when a
     * slot is free, and holds it until it resolves or is
     * budget-parked. nullptr detaches; the gate must outlive the
     * endpoint. Builders wire this when retry.inflightLimit > 0.
     */
    void
    setInflightGate(InflightGate *gate)
    {
        gate_ = gate;
        notePlanChange();
    }

    /** Retry-budget tokens currently available (tests/diagnostics). */
    double retryBudgetTokens() const { return budget_.tokens(); }

    /**
     * Attach a fault diary (diag/diary.hh): every finished attempt
     * is reported with its STATUS evidence so the diagnosis layer
     * can localize faults. nullptr detaches; the diary must outlive
     * the endpoint (or be detached first).
     */
    void
    setFaultDiary(FaultDiary *diary)
    {
        diary_ = diary;
        notePlanChange();
    }

    /**
     * Scan-mask an injection port group: a disabled group is never
     * chosen for new attempts (the diagnosis layer's remedy for a
     * faulty injection wire). Re-enabling restores it. When every
     * group is disabled the masks are ignored — the endpoint must
     * always be able to try *something*.  @{
     */
    void setOutPortEnabled(unsigned group, bool enabled);
    bool
    outPortEnabled(unsigned group) const
    {
        return outPortEnabled_[group];
    }
    unsigned
    outGroups() const
    {
        return static_cast<unsigned>(out_.size());
    }
    /** @} */

    /** Number of attached ports. @{ */
    std::size_t numOutPorts() const { return out_.size(); }
    std::size_t numInPorts() const { return in_.size(); }
    /** @} */

  private:
    friend class CheckpointIO;

    enum class SendState : std::uint8_t
    {
        Idle,
        Sending,
        Await,
        Abort,
        Backoff,
    };

    enum class RecvState : std::uint8_t
    {
        Idle,
        Receiving,
        Replying,
    };

    struct RecvPort
    {
        std::vector<Link *> links; // one per slice
        RecvState state = RecvState::Idle;
        std::uint64_t msgId = 0;
        std::vector<Crc16> sliceCrc; // one per slice
        std::vector<Word> words;
        bool checksumSeen = false;
        Word checksum = 0; // per-slice CRC-16s, packed
        std::deque<Symbol> replyQueue;
        Cycle lastActivity = 0;
        unsigned round = 0;
    };

    /** Quiescence hooks (see sim/component.hh). @{ */
    bool canSleep() const override;
    void syncSkipped(Cycle from, Cycle upto) override;
    /** @} */

    /** Sequence, count and admit (or shed) a message built by send
     *  or sendSession, and create its ledger record — or, while
     *  shards run concurrently, stage it (see send). */
    std::uint64_t submit(MessageRecord rec);

    /** Hand the oldest staged record to the ledger (see send). */
    void foldStaged() override;

    /** Provisional handles of staged records: this bit plus the
     *  record's staging index (ledger ids never reach it). */
    static constexpr std::uint64_t kStagedHandle = 1ULL << 63;

    /** Type-segregated dispatch (see Engine): endpoints registered
     *  consecutively tick through one devirtualized loop. */
    BatchTickFn
    batchTickFn() const override
    {
        return &Component::batchTickOf<NetworkInterface>;
    }

    void startAttempt(Cycle cycle);
    void startRound(unsigned round);
    bool roundReplyOk() const;
    void finishAttempt(Cycle cycle, bool success);
    /** Hand the finished attempt's evidence to the fault diary. */
    void reportAttempt(Cycle cycle, bool success);

    /** Slicing helpers (cascade() = 1 degenerates to pass-through).
     *  @{ */
    unsigned sliceWidth() const { return config_.width / cascade_; }
    Symbol sliceOf(const Symbol &s, unsigned k) const;
    /** Packed per-slice CRC-16s over a word sequence. */
    Word packedChecksum(const std::vector<Word> &words) const;
    void pushGroupDown(const std::vector<Link *> &group,
                       const Symbol &s);
    void pushGroupUp(const std::vector<Link *> &group,
                     const Symbol &s);
    /** Reassemble this cycle's symbol from a group's lanes; clears
     *  `consistent` when the slices disagree on the symbol kind. */
    Symbol readGroupUp(const std::vector<Link *> &group,
                       bool &consistent) const;
    Symbol readGroupDown(const std::vector<Link *> &group,
                         bool &consistent) const;
    /** @} */
    void scheduleRetry(Cycle cycle);
    /** Budget/aging check before a retry attempt launches. */
    bool admitRetry(MessageRecord &rec, Cycle cycle);
    /** Re-queue a budget-denied retry (head-of-queue when old). */
    void parkActive(const MessageRecord &rec, Cycle cycle);
    void releaseGate();
    void tickSend(Cycle cycle);
    void tickRecv(RecvPort &port, Cycle cycle);
    void processReceivedSymbol(RecvPort &port, const Symbol &sym,
                               Cycle cycle);
    void handleTurnAtReceiver(RecvPort &port, std::uint64_t msg_id,
                              Cycle cycle);

    NodeId id_;
    NiConfig config_;
    MessageTracker *tracker_;
    Xoshiro256 rng_;
    std::unique_ptr<BackoffPolicy> policy_;
    RetryBudget budget_;
    RouteFunction routeFn_;
    ReplyHandler replyHandler_;
    DeliveryHandler deliveryHandler_;
    SessionHandler sessionHandler_;

    std::vector<std::vector<Link *>> out_;
    std::vector<bool> outPortEnabled_;
    std::vector<RecvPort> in_;
    unsigned cascade_ = 1;

    // --- send side ---
    std::deque<std::uint64_t> queue_;
    /** Ledger entries staged this phase, in staging order (an
     *  entry's handle is kStagedHandle | its index), and how many
     *  have folded; both empty between cycles. @{ */
    std::vector<MessageTracker::Node> staged_;
    std::size_t stagedFolded_ = 0;
    /** @} */
    /** Blank ledger entries for the next sends, one made per fold
     *  by the folding thread (see MessageTracker::blank). */
    std::vector<MessageTracker::Node> spares_;
    SendState sendState_ = SendState::Idle;
    std::uint64_t activeMsg_ = 0;
    unsigned outPort_ = 0;
    std::vector<Symbol> stream_;
    std::size_t cursor_ = 0;
    Cycle turnSent_ = 0;
    Cycle backoffUntil_ = 0;
    /** Last delay the policy chose for the active message
     *  (decorrelated-jitter input; reset per message). */
    Cycle prevBackoff_ = 0;
    /** Latest cycle tick() saw (timestamps admission sheds, which
     *  happen inside send() where no cycle is passed). */
    Cycle lastCycle_ = 0;
    InflightGate *gate_ = nullptr;
    bool gateHeld_ = false;
    std::vector<StatusWord> statuses_;
    bool sawBlockedStatus_ = false;
    /** How the attempt in flight has (so far) failed. */
    AttemptOutcome abortCause_ = AttemptOutcome::Success;
    /** Round-0 checksum word as sent (fault-diary evidence). */
    Word sentChecksum_ = 0;
    bool ackSeen_ = false;
    AckWord ack_;
    std::vector<Word> replyWords_;
    std::vector<Crc16> replySliceCrc_;
    bool replyChecksumSeen_ = false;
    Word replyChecksum_ = 0;
    std::uint32_t nextSequence_ = 1;

    // --- multi-turn session state (send side) ---
    unsigned roundIndex_ = 0;
    unsigned roundsAckedOk_ = 0;
    std::vector<std::vector<Word>> sessionReplies_;

    // --- receive side ---
    std::unordered_map<NodeId, std::uint32_t> lastDeliveredSeq_;

    NiCounters counters_;
    Share share_;

    ConnObserver *observer_ = nullptr;
    FaultDiary *diary_ = nullptr;
    /** Cycle the current attempt launched (setup-latency base). */
    Cycle attemptStart_ = 0;
    /** Out-port group whose reverse lane tickSend consumed this
     *  tick (unread groups are censused for word conservation). */
    std::size_t protocolRead_ = SIZE_MAX;
};

} // namespace metro

#endif // METRO_ENDPOINT_INTERFACE_HH
