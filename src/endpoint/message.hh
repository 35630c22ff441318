/**
 * @file
 * Message records and the message tracker.
 *
 * METRO networks are stateless — no message ever exists solely in
 * the network (Section 2) — so end-to-end correctness is entirely
 * the endpoints' responsibility. The MessageTracker is the
 * simulator's ground-truth ledger: every message a source submits
 * is registered here, every delivery and acknowledgment is recorded
 * against it, and the test suite checks exactly-once delivery and
 * latency accounting against this ledger.
 *
 * Nothing in the fabric names a message once it has resolved and
 * its last symbols have drained (the protocol is source-responsible,
 * DESIGN.md §1), so a long-running service retires resolved records
 * (retire()) and the ledger holds live state only. Experiments and
 * sweeps never retire: they read the whole ledger for their results.
 *
 * In hardware the (source, destination, sequence) triple would ride
 * in the message payload; the simulator carries a msgId tag on
 * symbols and keeps the triple here instead, which keeps payload
 * words free for checksum-integrity testing.
 */

#ifndef METRO_ENDPOINT_MESSAGE_HH
#define METRO_ENDPOINT_MESSAGE_HH

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/logging.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "sim/symbol.hh"

namespace metro
{

/** Lifecycle record of one end-to-end message. */
struct MessageRecord
{
    std::uint64_t id = 0;
    NodeId src = kInvalidNode;
    NodeId dest = kInvalidNode;
    std::uint32_t sequence = 0;

    /** Payload data words (excluding the checksum word). */
    std::vector<Word> payload;

    /** True when the source expects a reply payload (remote read). */
    bool requestReply = false;

    /** Cycle the source accepted the message. */
    Cycle submitCycle = kNever;

    /** Cycle the first header word of the first attempt was on the
     *  wire (paper Figure 3 measures from message injection). */
    Cycle injectCycle = kNever;

    /** Cycle the destination delivered the payload to software. */
    Cycle deliverCycle = kNever;

    /** Cycle the source read the (successful) acknowledgment. */
    Cycle ackCycle = kNever;

    /** Cycle the source observed the final connection close. */
    Cycle completeCycle = kNever;

    /** Connection attempts used (1 = no retries). */
    unsigned attempts = 0;

    /** Times the destination delivered to software (must be ≤ 1). */
    unsigned deliveredCount = 0;

    /** Times the destination saw the message arrive intact
     *  (duplicates acknowledged but not re-delivered). */
    unsigned arrivalCount = 0;

    bool succeeded = false;
    bool gaveUp = false;

    /** Anti-starvation: crossed the ageStarve threshold (bypassed
     *  the retry budget) at least once. */
    bool starved = false;

    /** Shed by injection admission control: the bounded send queue
     *  was full, the message never entered it (gaveUp is also set —
     *  the message is resolved without any wire activity). */
    bool shedAdmission = false;

    /** STATUS words collected on the final (successful or last)
     *  attempt, in network-stage order. */
    std::vector<StatusWord> statuses;

    /** Reply payload received (request-reply messages). */
    std::vector<Word> reply;
    bool replyOk = false;

    /** Multi-turn sessions (Section 5.1: "Any number of data
     *  transmission reversals may occur during a single
     *  connection"): the data the source sends per round (round 0
     *  aliases `payload`) and the replies it collected. @{ */
    std::vector<std::vector<Word>> sessionRounds;
    std::vector<std::vector<Word>> sessionReplies;
    unsigned roundsCompleted = 0;
    /** @} */

    /** Traffic class for per-class SLO reporting (< kTrafficClasses;
     *  0 for untagged traffic). */
    std::uint8_t trafficClass = 0;

    /** RPC fan-out group: the id of the group's first leg, or 0 for
     *  messages outside any group. The first leg's rpcGroup is its
     *  own id. A group with fan-out K completes only when all K
     *  legs complete. @{ */
    std::uint64_t rpcGroup = 0;
    /** Group width K (set on every leg; 0 = not part of a group). */
    std::uint16_t rpcFanout = 0;
    /** @} */

    /** Injection-to-acknowledgment latency (paper's metric). */
    Cycle
    latency() const
    {
        METRO_ASSERT(succeeded && ackCycle != kNever &&
                     injectCycle != kNever,
                     "latency of an incomplete message");
        return ackCycle - injectCycle;
    }
};

/**
 * Ground-truth ledger of all messages in a simulation.
 */
class MessageTracker
{
  public:
    /** The ledger's record map; a Node is one record's detached
     *  map entry (see adopt). */
    using Records = std::unordered_map<std::uint64_t, MessageRecord>;
    using Node = Records::node_type;

    /**
     * Register a new message, giving it the next simulator-wide id
     * (returned). A fan-out group's first leg (rpcFanout > 0,
     * rpcGroup 0) names the group by that id.
     */
    std::uint64_t
    add(MessageRecord rec)
    {
        const std::uint64_t id = stamp(rec);
        records_.emplace(id, std::move(rec));
        return id;
    }

    /**
     * add() for a record built in a ledger entry of its own (see
     * blank; the entry's key is overwritten). Only the entry is
     * relinked, so a record built by another thread joins the ledger
     * without being copied or allocated here.
     */
    std::uint64_t
    adopt(Node node)
    {
        const std::uint64_t id = stamp(node.mapped());
        node.key() = id;
        records_.insert(std::move(node));
        return id;
    }

    /**
     * A blank ledger entry with room for `words` payload words. The
     * thread that adopts makes the entries ahead, so the ledger's
     * memory comes from that one thread whichever thread fills them
     * (memory another thread allocates stays in its allocator arena
     * and is not reused by this one).
     */
    Node
    blank(std::size_t words)
    {
        nursery_.try_emplace(0);
        Node node = nursery_.extract(0);
        node.mapped().payload.reserve(words);
        return node;
    }

    /** Mutable access to a record. */
    MessageRecord &
    record(std::uint64_t id)
    {
        MessageRecord *rec = find(id);
        METRO_ASSERT(rec != nullptr, "unknown message %llu",
                     static_cast<unsigned long long>(id));
        return *rec;
    }

    /** Read-only access to a record. */
    const MessageRecord &
    record(std::uint64_t id) const
    {
        return const_cast<MessageTracker *>(this)->record(id);
    }

    /**
     * The live record of `id`, or nullptr for an id never issued (0
     * included). Looking up a retired id is a hard error: a symbol
     * still naming it means the retirement margin was too short, and
     * answering "unknown" would silently turn a duplicate into a
     * NACK.
     */
    MessageRecord *
    find(std::uint64_t id)
    {
        auto it = records_.find(id);
        if (it != records_.end())
            return &it->second;
        METRO_ASSERT(id == 0 || id >= nextId_,
                     "message %llu looked up after it was retired",
                     static_cast<unsigned long long>(id));
        return nullptr;
    }

    /** Whether an id has a live record (0 is never known). A pure
     *  query: checkpoint restore validates hostile ids with it. */
    bool
    known(std::uint64_t id) const
    {
        return records_.find(id) != records_.end();
    }

    /** Records retired so far, by outcome. */
    struct RetiredTotals
    {
        std::uint64_t records = 0;
        std::uint64_t succeeded = 0;
        /** Gave up, admission sheds included. */
        std::uint64_t gaveUp = 0;
    };

    /**
     * Retire every record that resolved (succeeded or gave up) at or
     * before cycle `horizon`, auditing each one's exactly-once
     * delivery as it goes. Returns "" or the audit breach of the
     * lowest-numbered offending record, in which case nothing is
     * retired.
     */
    std::string
    retire(Cycle horizon)
    {
        const auto due = [horizon](const MessageRecord &rec) {
            return (rec.succeeded || rec.gaveUp) &&
                   rec.completeCycle <= horizon;
        };
        std::uint64_t breach = 0;
        for (const auto &[id, rec] : records_) {
            const bool once = rec.deliveredCount <= 1 &&
                              (!rec.succeeded || rec.deliveredCount == 1) &&
                              !(rec.succeeded && rec.gaveUp);
            if (due(rec) && !once && (breach == 0 || id < breach))
                breach = id;
        }
        if (breach != 0) {
            const MessageRecord &rec = records_.at(breach);
            return "exactly-once audit failed: message " +
                   std::to_string(breach) + " delivered " +
                   std::to_string(rec.deliveredCount) + " times (" +
                   (rec.succeeded ? "succeeded" : "gave up") +
                   (rec.succeeded && rec.gaveUp ? " and gave up" : "") +
                   ")";
        }
        for (auto it = records_.begin(); it != records_.end();) {
            if (!due(it->second)) {
                ++it;
                continue;
            }
            ++retired_.records;
            ++(it->second.succeeded ? retired_.succeeded
                                    : retired_.gaveUp);
            it = records_.erase(it);
        }
        return "";
    }

    /** Running totals of the records retired so far. */
    const RetiredTotals &retired() const { return retired_; }

    /** All live records (tests iterate for invariant checks). */
    const Records &
    all() const
    {
        return records_;
    }

    /** Count of live (not yet retired) records. */
    std::size_t size() const { return records_.size(); }

    /**
     * The id the next created message will receive. Ids are handed
     * out in strictly increasing order, so a harness can snapshot
     * this value before a run and recognise exactly the messages
     * submitted after the snapshot (the experiment-reset contract).
     */
    std::uint64_t nextId() const { return nextId_; }

  private:
    friend class CheckpointIO;

    /** Give a new record the next id (see add). */
    std::uint64_t
    stamp(MessageRecord &rec)
    {
        rec.id = nextId_++;
        if (rec.rpcFanout > 0 && rec.rpcGroup == 0)
            rec.rpcGroup = rec.id;
        return rec.id;
    }

    std::uint64_t nextId_ = 1;
    Records records_;
    Records nursery_; ///< makes blank entries (empty between calls)
    RetiredTotals retired_;
};

} // namespace metro

#endif // METRO_ENDPOINT_MESSAGE_HH
