#include "serve/checkpoint.hh"

#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include <fcntl.h>
#include <unistd.h>

#include "diag/engine.hh"
#include "endpoint/interface.hh"
#include "endpoint/message.hh"
#include "fault/campaign.hh"
#include "fault/injector.hh"
#include "network/network.hh"
#include "obs/registry.hh"
#include "router/router.hh"
#include "serve/stateio.hh"
#include "sim/arena.hh"
#include "sim/engine.hh"
#include "sim/link.hh"
#include "traffic/drivers.hh"

namespace metro
{

namespace
{

/** A section tag: its four-character name, little-endian. */
constexpr std::uint32_t
fourcc(const char (&name)[5])
{
    std::uint32_t tag = 0;
    for (int i = 3; i >= 0; --i)
        tag = (tag << 8) | static_cast<unsigned char>(name[i]);
    return tag;
}

/** Predicates for checked fields (they see the wire value). @{ */
auto
same(std::uint64_t expected)
{
    return [expected](std::uint64_t v) { return v == expected; };
}

auto
below(std::uint64_t n)
{
    return [n](std::uint64_t v) { return v < n; };
}

auto
atMost(std::uint64_t n)
{
    return [n](std::uint64_t v) { return v <= n; };
}

/** A port index into `n` ports, or the no-port sentinel. */
auto
portOrNone(std::uint64_t n)
{
    return [n](std::uint64_t v) { return v == kInvalidPort || v < n; };
}
/** @} */

} // namespace

/**
 * The one class every stateful component befriends. Each
 * participant's dynamic state is described once, by a template
 * function both archives walk (serve/stateio.hh): saving
 * instantiates it with StateWriter and const state, restoring with
 * StateReader and the live instance, so every field is named once,
 * in file order. Reader-only validation lives in the archive
 * helpers; the few genuinely asymmetric steps (derived state,
 * registry merging) sit in `if constexpr (Ar::kLoading)` blocks.
 */
class CheckpointIO
{
  public:
    /** The whole checkpoint, section by section. */
    template <class Ar, class Blob>
    static void walk(Ar &ar, std::uint64_t digest,
                     const CheckpointParticipants &parts, Blob &harness);

  private:
    /** A participant as the archive sees it: const while saving, so
     *  a writer that mutated state would not compile. */
    template <class Ar, class T>
    static auto &
    side(T &t)
    {
        if constexpr (Ar::kLoading)
            return t;
        else
            return std::as_const(t);
    }

    template <class Ar>
    static void
    section(Ar &ar, const char (&name)[5])
    {
        const std::uint32_t tag = fourcc(name);
        std::uint32_t got = tag;
        ar.u32(got);
        ar.check([&] { return got == tag; },
                 std::string("section tag mismatch: expected ") + name);
    }

    /** A PRNG travels as its four state words. */
    template <class Ar, class R>
    static void
    rng(Ar &ar, R &g)
    {
        std::uint64_t s[4];
        g.stateWords(s);
        for (auto &w : s)
            ar.u64(w);
        if constexpr (Ar::kLoading)
            if (ar.ok())
                g.setStateWords(s);
    }

    template <class Ar, class C>
    static void
    crc(Ar &ar, C &c)
    {
        std::uint16_t v = c.value();
        ar.u16(v);
        if constexpr (Ar::kLoading)
            if (ar.ok())
                c.setValue(v);
    }

    template <class Ar, class S>
    static void
    symbol(Ar &ar, S &s)
    {
        ar.enumeration(s.kind, SymbolKind::Test, "invalid symbol kind");
        ar.u64(s.value);
        ar.u64(s.route);
        // Route cursors feed shifts of a 64-bit word downstream.
        ar.u16(s.routeLen, atMost(64), "route cursor out of range");
        ar.u16(s.routePos, atMost(64), "route cursor out of range");
        ar.u64(s.msgId);
    }

    template <class Ar, class S>
    static void
    status(Ar &ar, S &s)
    {
        ar.u32(s.router);
        ar.u8(s.stage);
        ar.u8(s.blocked);
        ar.u16(s.checksum);
        ar.u32(s.port);
    }

    template <class Ar, class V>
    static void
    words(Ar &ar, V &v)
    {
        ar.seq(v, 8, [](auto &ar, auto &w) { ar.u64(w); });
    }

    /** Message ids, each one the ledger must know. */
    template <class Ar, class V>
    static void
    ledgerIds(Ar &ar, V &ids, const MessageTracker &tracker,
              const char *why)
    {
        ar.seq(ids, 8, [&tracker, why](auto &ar, auto &id) {
            ar.u64(
                id,
                [&tracker](std::uint64_t v) { return tracker.known(v); },
                why);
        });
    }

    template <class Ar, class H>
    static void
    histogram(Ar &ar, H &h)
    {
        for (auto &b : h.buckets_)
            ar.u64(b);
        ar.u64(h.count_);
        ar.u64(h.sum_);
    }

    /** The counters that ever fired, by name; restore zeroes the
     *  rest and rejects a name the block's table does not have. */
    template <class Ar, class B>
    static void
    counterBlock(Ar &ar, B &b)
    {
        using Block = std::remove_const_t<B>;
        std::map<std::string, std::uint64_t> fired;
        b.forEachFired([&](std::string_view name, std::uint64_t v) {
            fired.emplace(name, v);
        });
        ar.entries(fired, 16, [](auto &ar, auto &name, auto &value) {
            ar.str(name);
            ar.check([&] { return Block::indexOf(name) < Block::kSize; },
                     "unknown counter name");
            ar.u64(value);
        });
        if constexpr (Ar::kLoading) {
            if (!ar.ok())
                return;
            b = {};
            for (const auto &[name, value] : fired)
                b.at(Block::indexOf(name)) = value;
        }
    }

    template <class Ar, class A>
    static void
    arena(Ar &ar, A &a)
    {
        const std::size_t lanes = a.base_.size();
        ar.expectSize(lanes, 0, "arena geometry mismatch");
        ar.expectSize(a.slots_.size(), 0, "arena geometry mismatch");
        for (auto &s : a.slots_)
            symbol(ar, s);
        // The head cursor indexes the flat slot array; keep it
        // inside this lane's ring or the advance pass reads out of
        // bounds.
        for (std::size_t i = 0; i < lanes; ++i)
            ar.u32(
                a.head_[i],
                [&a, i](std::uint32_t h) {
                    return h >= a.base_[i] && h < a.end_[i];
                },
                "lane head cursor out of range");
        for (auto &o : a.occupied_)
            ar.u32(o);
        for (auto &s : a.pending_)
            symbol(ar, s);
        for (auto &p : a.pushed_)
            ar.flag(p);
        constexpr std::uint8_t known = LaneArena::kLanePaused |
                                       LaneArena::kLaneFrozen |
                                       LaneArena::kCensusMask;
        for (auto &f : a.flags_)
            ar.u8(
                f, [](std::uint8_t v) { return (v & ~known) == 0; },
                "unknown lane flag bits");
        if constexpr (Ar::kLoading) {
            // Derived: the sleeping-lane tally the fastpath
            // accounting and chunked-advance threshold read.
            a.sleepingLanes_ = 0;
            for (std::uint8_t f : a.flags_) {
                if ((f & LaneArena::kLanePaused) != 0 &&
                    (f & LaneArena::kLaneFrozen) == 0)
                    ++a.sleepingLanes_;
            }
        }
    }

    template <class Ar, class R>
    static void
    router(Ar &ar, R &rt)
    {
        const std::size_t nFwd = rt.fState_.size();
        const std::size_t nBwd = rt.bBusy_.size();

        // TAP-writable configuration (drain/maintenance and
        // diagnosis masks land here), then fault state, then the
        // per-port SoA connection state.
        auto &cfg = rt.config_;
        ar.u32(
            cfg.dilation,
            [nBwd](std::uint32_t d) { return d != 0 && d <= nBwd; },
            "router config out of range");
        ar.u32(cfg.backwardPortsUsed, atMost(nBwd),
               "router config out of range");
        ar.bools(cfg.forwardEnabled);
        ar.bools(cfg.backwardEnabled);
        ar.bools(cfg.offPortDrive);
        ar.bools(cfg.fastReclaim);
        ar.bools(cfg.swallow);
        ar.expectSize(cfg.turnDelay.size(), 4,
                      "turn-delay vector size mismatch");
        for (auto &t : cfg.turnDelay)
            ar.u32(t);
        ar.u8(cfg.randomSelection);
        ar.u32(cfg.idleTimeout);

        ar.u8(rt.dead_);
        ar.u8(rt.misroute_);
        rng(ar, rt.misrouteRng_);

        ar.expectSize(nFwd, 0, "router port count mismatch");
        ar.expectSize(nBwd, 0, "router port count mismatch");
        for (std::size_t p = 0; p < nFwd; ++p) {
            ar.enumeration(rt.fState_[p], FwdPortState::Draining,
                           "invalid forward-port state");
            ar.u32(rt.fBwd_[p], portOrNone(nBwd),
                   "forward port's backward index out of range");
            ar.u32(rt.fConsumeLeft_[p]);
            ar.u16(rt.fPosAfter_[p], atMost(64),
                   "forward port route cursor out of range");
            ar.flag(rt.fSwallowFirst_[p]);
            ar.flag(rt.fFirstHeaderDone_[p]);
            crc(ar, rt.fCrc_[p]);
            ar.u32(rt.fDirection_[p]);
            ar.u64(rt.fLastActivity_[p]);
            ar.u64(rt.fMsgId_[p]);
            symbol(ar, rt.fLastTest_[p]);
        }
        for (std::size_t b = 0; b < nBwd; ++b) {
            ar.flag(rt.bBusy_[b]);
            ar.u32(rt.bOwner_[b], portOrNone(nFwd),
                   "backward port's owner index out of range");
            ar.flag(rt.bRevRead_[b]);
        }
        ar.u8(rt.offPortDriveArmed_);
        counterBlock(ar, rt.counters_);
        if constexpr (Ar::kLoading) {
            // Derived per-tick state: the availability snapshot must
            // be refilled from the restored config/busy flags, and
            // stale grant records from the pre-restore instance
            // dropped.
            rt.availDirty_ = true;
            rt.lastGrants_.clear();
        }
    }

    template <class Ar, class N>
    static void
    endpoint(Ar &ar, N &ni, const MessageTracker &tracker)
    {
        rng(ar, ni.rng_);
        // The backoff policy keeps its state behind a virtual
        // accessor pair.
        std::uint64_t policy =
            ni.policy_ != nullptr ? ni.policy_->checkpointState() : 0;
        ar.u64(policy);
        if constexpr (Ar::kLoading)
            if (ar.ok() && ni.policy_ != nullptr)
                ni.policy_->restoreCheckpointState(policy);
        ar.f64(ni.budget_.tokens_);

        ledgerIds(ar, ni.queue_, tracker,
                  "queued message id unknown to the ledger");
        ar.enumeration(ni.sendState_,
                       NetworkInterface::SendState::Backoff,
                       "invalid endpoint send state");
        ar.u64(
            ni.activeMsg_,
            [&](std::uint64_t id) { return id == 0 || tracker.known(id); },
            "active message id unknown to the ledger");
        ar.u32(
            ni.outPort_,
            [&ni](std::uint32_t p) {
                return ni.out_.empty() || p < ni.out_.size();
            },
            "endpoint out-port index out of range");
        ar.seq(ni.stream_, 1,
               [](auto &ar, auto &s) { symbol(ar, s); });
        ar.u64(ni.cursor_, atMost(ni.stream_.size()),
               "stream cursor out of range");
        ar.u64(ni.turnSent_);
        ar.u64(ni.backoffUntil_);
        ar.u64(ni.prevBackoff_);
        ar.u64(ni.lastCycle_);
        ar.u8(ni.gateHeld_);
        ar.seq(ni.statuses_, 12,
               [](auto &ar, auto &s) { status(ar, s); });
        ar.u8(ni.sawBlockedStatus_);
        ar.enumeration(ni.abortCause_, AttemptOutcome::RoundFail,
                       "invalid attempt outcome");
        ar.u64(ni.sentChecksum_);
        ar.u8(ni.ackSeen_);
        std::uint64_t ack = ni.ack_.encode();
        ar.u64(ack);
        if constexpr (Ar::kLoading)
            if (ar.ok())
                ni.ack_ = AckWord::decode(ack);
        words(ar, ni.replyWords_);
        // Slice-CRC vectors are empty until a message is in flight,
        // then hold one entry per cascade slice: the count is
        // state, not structure.
        const auto sliceCount = [&ni](std::uint64_t n) {
            return n == 0 || n == ni.cascade_;
        };
        const auto crcFn = [](auto &ar, auto &c) { crc(ar, c); };
        ar.seq(ni.replySliceCrc_, 2, crcFn, sliceCount,
               "reply slice-CRC count mismatch");
        ar.u8(ni.replyChecksumSeen_);
        ar.u64(ni.replyChecksum_);
        ar.u32(ni.nextSequence_);
        ar.u32(ni.roundIndex_);
        ar.u32(ni.roundsAckedOk_);
        ar.seq(ni.sessionReplies_, 8,
               [](auto &ar, auto &round) { words(ar, round); });
        ar.u64(ni.attemptStart_);
        ar.u64(ni.protocolRead_);

        ar.bools(ni.outPortEnabled_);
        ar.entries(ni.lastDeliveredSeq_, 8,
                   [](auto &ar, auto &node, auto &seq) {
                       ar.u32(node);
                       ar.u32(seq);
                   });

        ar.expectSize(ni.in_.size(), 1,
                      "endpoint receive-port count mismatch");
        for (auto &port : ni.in_) {
            ar.enumeration(port.state,
                           NetworkInterface::RecvState::Replying,
                           "invalid endpoint receive state");
            ar.u64(port.msgId);
            ar.seq(port.sliceCrc, 2, crcFn, sliceCount,
                   "receive slice-CRC count mismatch");
            words(ar, port.words);
            ar.u8(port.checksumSeen);
            ar.u64(port.checksum);
            ar.seq(port.replyQueue, 1,
                   [](auto &ar, auto &s) { symbol(ar, s); });
            ar.u64(port.lastActivity);
            ar.u32(port.round);
        }

        counterBlock(ar, ni.counters_);
    }

    /** The message ledger: the retired totals, then the live
     *  records in id order. */
    template <class Ar, class T>
    static void
    ledger(Ar &ar, T &t)
    {
        ar.u64(t.nextId_);
        ar.staged(t.retired_, [&t](auto &ar, auto &r) {
            ar.u64(r.records);
            ar.u64(r.succeeded);
            ar.u64(r.gaveUp);
            ar.check(
                [&] {
                    return r.records < t.nextId_ &&
                           r.succeeded <= r.records &&
                           r.gaveUp == r.records - r.succeeded;
                },
                "ledger retired totals inconsistent");
        });
        ar.entries(t.records_, 64, [&t](auto &ar, auto &id, auto &rec) {
            ar.u64(
                id,
                [&t](std::uint64_t v) {
                    return v != 0 && v < t.nextId_ &&
                           t.records_.count(v) == 0;
                },
                "ledger record id invalid or duplicated");
            ar.u32(rec.src);
            ar.u32(rec.dest);
            ar.u32(rec.sequence);
            words(ar, rec.payload);
            ar.u8(rec.requestReply);
            ar.u64(rec.submitCycle);
            ar.u64(rec.injectCycle);
            ar.u64(rec.deliverCycle);
            ar.u64(rec.ackCycle);
            ar.u64(rec.completeCycle);
            ar.u32(rec.attempts);
            ar.u32(rec.deliveredCount);
            ar.u32(rec.arrivalCount);
            ar.u8(rec.succeeded);
            ar.u8(rec.gaveUp);
            ar.u8(rec.starved);
            ar.u8(rec.shedAdmission);
            ar.seq(rec.statuses, 12,
                   [](auto &ar, auto &s) { status(ar, s); });
            words(ar, rec.reply);
            ar.u8(rec.replyOk);
            ar.seq(rec.sessionRounds, 8,
                   [](auto &ar, auto &round) { words(ar, round); });
            ar.seq(rec.sessionReplies, 8,
                   [](auto &ar, auto &round) { words(ar, round); });
            ar.u32(rec.roundsCompleted);
            ar.u8(rec.trafficClass);
            ar.u64(rec.rpcGroup);
            ar.u32(rec.rpcFanout);
            if constexpr (Ar::kLoading)
                rec.id = id;
        });
    }

    template <class Ar, class C, class H>
    static void
    metricMaps(Ar &ar, C &counters, H &histograms)
    {
        ar.entries(counters, 16, [](auto &ar, auto &name, auto &value) {
            ar.str(name);
            ar.u64(value);
        });
        ar.entries(histograms, 16, [](auto &ar, auto &name, auto &h) {
            ar.str(name);
            histogram(ar, h);
        });
    }

    template <class Ar, class M>
    static void
    registry(Ar &ar, M &m)
    {
        if constexpr (!Ar::kLoading) {
            metricMaps(ar, m.counters(), m.histograms());
        } else {
            // Overwrite every saved slot; zero live slots the
            // checkpoint does not name (the saver never shrinks its
            // registry, so any extra live slot is pre-restore
            // noise). Never clear() — live components hold interned
            // pointers into these map nodes.
            std::map<std::string, std::uint64_t> counters;
            std::map<std::string, LogHistogram> histograms;
            metricMaps(ar, counters, histograms);
            if (!ar.ok())
                return;
            for (const auto &[name, value] : m.counters())
                if (counters.count(name) == 0)
                    m.counter(name) = 0;
            for (const auto &[name, value] : counters)
                m.counter(name) = value;
            for (const auto &[name, h] : m.histograms())
                if (histograms.count(name) == 0)
                    m.histogram(name).reset();
            for (const auto &[name, h] : histograms)
                m.histogram(name) = h;
        }
    }

    /**
     * Whether a suspect names a wire of this topology: an injection
     * link needs an endpoint and one of its out groups; a router
     * output needs a wire-map entry (its key keeps only 16 port
     * bits, so wider ports are out of range).
     */
    static bool
    suspectInRange(const DiagnosisEngine &d, SuspectKind kind,
                   std::uint32_t id, PortIndex port)
    {
        if (kind == SuspectKind::InjectionLink)
            return id < d.net_->numEndpoints() &&
                   port < d.net_->endpoint(id).outGroups();
        return port <= 0xffff &&
               d.wires_.count(DiagnosisEngine::key(kind, id, port)) != 0;
    }

    template <class Ar, class D>
    static void
    diagnosis(Ar &ar, D &d)
    {
        ar.entries(d.scores_, 32, [](auto &ar, auto &key, auto &s) {
            ar.u64(key);
            ar.u64(s.bad);
            ar.u64(s.good);
            ar.u64(s.firstBad);
        });
        ar.entries(d.masked_, 26, [&d](auto &ar, auto &key, auto &m) {
            ar.u64(key);
            ar.enumeration(m.kind, SuspectKind::RouterOutput,
                           "invalid suspect kind");
            ar.u32(m.id);
            ar.u32(m.port);
            ar.u64(m.nextAction);
            ar.u64(m.pattern);
            ar.u8(m.verifying);
            ar.u8(m.awaitingProbe);
            ar.check(
                [&] {
                    return key == DiagnosisEngine::key(m.kind, m.id,
                                                       m.port) &&
                           suspectInRange(d, m.kind, m.id, m.port);
                },
                "masked wire unknown to this topology");
            // The wire resolution is structural: re-derive it from
            // the freshly built topology map instead of trusting the
            // file (an injection link has none).
            if constexpr (Ar::kLoading)
                if (ar.ok() && m.kind == SuspectKind::RouterOutput)
                    m.wire = d.wires_.at(key);
        });
        ar.u64(d.probeNonce_);
        ar.u64(d.diary_.attemptsSeen_);
        ar.seq(d.diary_.pending_, 20, [&d](auto &ar, auto &rep) {
            ar.enumeration(rep.kind, SuspectKind::RouterOutput,
                           "invalid pending suspect kind");
            ar.u32(rep.id);
            ar.u32(rep.port);
            ar.u8(rep.stage);
            ar.u8(rep.exonerate);
            ar.u8(rep.weight);
            ar.u64(rep.cycle);
            ar.check(
                [&] {
                    return suspectInRange(d, rep.kind, rep.id, rep.port);
                },
                "pending suspect out of range");
        });
    }

    template <class Ar, class C>
    static void
    campaign(Ar &ar, C &camp, const Network &net)
    {
        rng(ar, camp.rng_);
        ar.seq(camp.downLinks_, 4, [&net](auto &ar, auto &l) {
            ar.u32(l, below(net.numLinks()),
                   "campaign down-link id out of range");
        });
        ar.seq(camp.deadRouters_, 4, [&net](auto &ar, auto &r) {
            ar.u32(r, below(net.numRouters()),
                   "campaign dead-router id out of range");
        });
        ar.expectSize(camp.flaky_.size(), 13,
                      "campaign flaky-link count mismatch");
        for (auto &f : camp.flaky_) {
            ar.u32(f.link, below(net.numLinks()),
                   "campaign flaky-link id out of range");
            ar.u64(f.nextToggle);
            ar.u8(f.down);
        }
    }

    template <class Ar, class D>
    static void
    closedDriver(Ar &ar, D &d)
    {
        rng(ar, d.rng_);
        ar.u64(d.nextSubmit_);
        ar.u8(d.waiting_);
        ar.u64(d.submitted_);
    }

    template <class Ar, class D>
    static void
    openDriver(Ar &ar, D &d)
    {
        rng(ar, d.rng_);
        bool on = d.process_.phaseOn();
        ar.u8(on);
        if constexpr (Ar::kLoading)
            if (ar.ok())
                d.process_.setPhaseOn(on);
        ar.u64(d.submitted_);
    }
};

template <class Ar, class Blob>
void
CheckpointIO::walk(Ar &ar, std::uint64_t digest,
                   const CheckpointParticipants &parts, Blob &harness)
{
    Network &live = *parts.net;
    auto &net = side<Ar>(live);
    auto &eng = side<Ar>(live.engine_);
    // Saving: catch up sleepers' metric samples and move every
    // router's and endpoint's share into the registry, so every
    // counter and histogram holds the value the uninterrupted run's
    // window snapshot sees and no share is live. Restoring: move
    // pre-restore shares into the registry the checkpoint then
    // overwrites, so none is folded later.
    live.syncMetrics();

    std::uint32_t magic = kCheckpointMagic;
    std::uint32_t version = kCheckpointVersion;
    std::uint64_t savedDigest = digest;
    ar.u32(magic, same(kCheckpointMagic), "bad checkpoint magic");
    ar.u32(version, same(kCheckpointVersion),
           "unsupported checkpoint version");
    ar.u64(savedDigest, same(digest),
           "config digest mismatch: this checkpoint was taken from a "
           "different configuration");
    ar.u64(eng.now_);

    section(ar, "ENGI");
    ar.u64(eng.ticksSkipped_);
    ar.u64(eng.linksFastpathed_);

    section(ar, "SCHD");
    ar.expectSize(eng.components_.size(), 17,
                  "engine component count mismatch (was the instance "
                  "built with the same options?)");
    for (Component *c : eng.components_) {
        auto &comp = side<Ar>(*c);
        ar.u8(comp.schedAsleep_);
        ar.u64(comp.wakeAt_);
        ar.u64(comp.sleptFrom_);
    }

    section(ar, "AREN");
    arena(ar, net.arena_);

    section(ar, "LINK");
    ar.expectSize(net.links_.size(), 34, "link count mismatch");
    for (const auto &l : net.links_) {
        auto &link = side<Ar>(*l);
        // Direct writes, not setFault(): the side effects (census
        // seeding, reactivation) already happened before the save;
        // the arena flags carry the resulting state.
        ar.enumeration(link.fault_, LinkFault::Corrupt,
                       "invalid link fault state");
        ar.u8(link.active_);
        rng(ar, link.faultRng_);
    }

    section(ar, "CASC");
    ar.expectSize(net.cascades_.size(), 8,
                  "cascade group count mismatch");
    for (const auto &c : net.cascades_)
        ar.u64(side<Ar>(*c).containments_);

    section(ar, "ROUT");
    ar.expectSize(net.routers_.size(), 32, "router count mismatch");
    for (const auto &rt : net.routers_)
        router(ar, side<Ar>(*rt));

    section(ar, "TRAK");
    ledger(ar, net.tracker_);

    section(ar, "ENDP");
    ar.expectSize(net.endpoints_.size(), 32, "endpoint count mismatch");
    for (const auto &ni : net.endpoints_)
        endpoint(ar, side<Ar>(*ni), net.tracker_);

    section(ar, "GATE");
    if (ar.presence(net.inflightGate_ != nullptr,
                    "inflight-gate presence mismatch")) {
        auto &gate = side<Ar>(*net.inflightGate_);
        ar.u32(gate.limit_, same(gate.limit_),
               "inflight-gate limit mismatch");
        ar.u32(gate.active_);
    }

    section(ar, "METR");
    registry(ar, net.metrics_);

    section(ar, "DRVC");
    ar.expectSize(parts.closedDrivers.size(), 49,
                  "closed-loop driver count mismatch");
    for (ClosedLoopDriver *d : parts.closedDrivers)
        closedDriver(ar, side<Ar>(*d));

    section(ar, "DRVO");
    ar.expectSize(parts.openDrivers.size(), 41,
                  "open-loop driver count mismatch");
    for (OpenLoopDriver *d : parts.openDrivers)
        openDriver(ar, side<Ar>(*d));

    // Fault events are rebuilt structurally from the same fault
    // list; tick() fires on exact-cycle matches only, so the applied
    // tally is all it takes for past events never to re-fire.
    section(ar, "INJE");
    if (ar.presence(parts.injector != nullptr,
                    "fault-injector presence mismatch"))
        ar.u64(side<Ar>(*parts.injector).applied_);

    section(ar, "CAMP");
    if (ar.presence(parts.campaign != nullptr,
                    "fault-campaign presence mismatch"))
        campaign(ar, side<Ar>(*parts.campaign), live);

    section(ar, "DIAG");
    if (ar.presence(parts.diagnosis != nullptr,
                    "diagnosis-engine presence mismatch"))
        diagnosis(ar, side<Ar>(*parts.diagnosis));

    section(ar, "HARN");
    ar.blob(harness);

    section(ar, "DONE");

    if constexpr (Ar::kLoading) {
        if (!ar.ok())
            return;
        // Derived state (the order matters). Link wake counts: the
        // counted form of the link-activity sleep veto. Zero
        // everything, then count each restored-active link at both
        // ends.
        for (Component *c : eng.components_)
            c->schedActiveLinks_ = 0;
        for (Link *l : eng.links_) {
            if (!l->active_)
                continue;
            if (l->wakeA_ != nullptr)
                ++l->wakeA_->schedActiveLinks_;
            if (l->wakeB_ != nullptr)
                ++l->wakeB_->schedActiveLinks_;
        }
        eng.stepping_ = false;

        // A fresh instance's addLink calls queued every link for a
        // first-sleep evaluation; the restored run already made
        // those verdicts (they are baked into active_/flags_), and
        // repeating them here would deactivate links the
        // uninterrupted run left active — perturbing the skip
        // counters that the byte-identity contract covers.
        eng.pendingLinkEval_.clear();

        // The shard plan caches per-shard awake counts that the
        // restore just invalidated wholesale — same hazard
        // removeComponents() has. Rebuild lazily at the next cycle,
        // at whatever thread count THIS engine runs (a checkpoint
        // carries no thread count).
        eng.planDirty_ = true;
    }
}

std::uint64_t
checkpointChecksum(const std::uint8_t *data, std::size_t size)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (std::size_t k = 0; k < size; ++k) {
        h ^= data[k];
        h *= 0x100000001b3ULL;
    }
    return h;
}

void
appendCheckpointFooter(std::vector<std::uint8_t> &bytes)
{
    const std::uint64_t len = bytes.size();
    const std::uint64_t sum =
        checkpointChecksum(bytes.data(), bytes.size());
    StateWriter w;
    w.u64(len);
    w.u64(sum);
    w.u32(kCheckpointFooterMagic);
    const auto &footer = w.buffer();
    bytes.insert(bytes.end(), footer.begin(), footer.end());
}

std::string
verifyCheckpointFooter(const std::uint8_t *data, std::size_t size,
                       std::size_t *payload_size)
{
    if (size < kCheckpointFooterSize)
        return "checkpoint shorter than its integrity footer";
    const std::uint8_t *foot = data + size - kCheckpointFooterSize;
    StateReader r(foot, kCheckpointFooterSize);
    std::uint64_t len = 0;
    std::uint64_t sum = 0;
    std::uint32_t magic = 0;
    r.u64(len);
    r.u64(sum);
    r.u32(magic);
    if (magic != kCheckpointFooterMagic)
        return "checkpoint footer magic missing (truncated file, "
               "or a pre-footer v1 checkpoint)";
    if (len != size - kCheckpointFooterSize)
        return "checkpoint footer length mismatch: footer says " +
               std::to_string(len) + " payload bytes, file has " +
               std::to_string(size - kCheckpointFooterSize);
    if (sum != checkpointChecksum(data, len))
        return "checkpoint footer checksum mismatch (corrupted "
               "file)";
    if (payload_size != nullptr)
        *payload_size = len;
    return "";
}

std::vector<std::uint8_t>
saveCheckpointBytes(std::uint64_t config_digest,
                    const CheckpointParticipants &parts,
                    const std::vector<std::uint8_t> &harness_blob)
{
    StateWriter w;
    CheckpointIO::walk(w, config_digest, parts, harness_blob);
    std::vector<std::uint8_t> bytes = w.take();
    appendCheckpointFooter(bytes);
    return bytes;
}

std::string
restoreCheckpointBytes(const std::uint8_t *data, std::size_t size,
                       std::uint64_t config_digest,
                       const CheckpointParticipants &parts,
                       std::vector<std::uint8_t> *harness_blob)
{
    // Whole-file integrity first: nothing below may run against a
    // truncated or bit-flipped file.
    std::size_t payload = 0;
    const std::string ferr =
        verifyCheckpointFooter(data, size, &payload);
    if (!ferr.empty())
        return ferr;
    StateReader r(data, payload);
    std::vector<std::uint8_t> blob;
    CheckpointIO::walk(r, config_digest, parts, blob);
    if (!r.ok())
        return r.error();
    if (harness_blob != nullptr)
        *harness_blob = std::move(blob);
    return "";
}

namespace
{

/** One-shot write-fault injection state (see
 *  setCheckpointWriteFault / METRO_CRASH_AT_WRITE_BYTE). */
long long g_writeFaultBytes = -1;
bool g_writeFaultAborts = false;
bool g_writeFaultEnvChecked = false;

/** Arm the abort-mode fault from the environment, once. */
void
armWriteFaultFromEnv()
{
    if (g_writeFaultEnvChecked)
        return;
    g_writeFaultEnvChecked = true;
    const char *env = std::getenv("METRO_CRASH_AT_WRITE_BYTE");
    if (env == nullptr || *env == '\0')
        return;
    char *end = nullptr;
    const long long v = std::strtoll(env, &end, 10);
    if (end != nullptr && *end == '\0' && v >= 0) {
        g_writeFaultBytes = v;
        g_writeFaultAborts = true;
    }
}

} // namespace

void
setCheckpointWriteFault(long long max_bytes, bool abort_process)
{
    g_writeFaultBytes = max_bytes;
    g_writeFaultAborts = abort_process;
    // A programmatic setting overrides (and suppresses) the env.
    g_writeFaultEnvChecked = true;
}

std::string
writeCheckpointFile(const std::string &path,
                    std::uint64_t config_digest,
                    const CheckpointParticipants &parts,
                    const std::vector<std::uint8_t> &harness_blob)
{
    const std::vector<std::uint8_t> bytes =
        saveCheckpointBytes(config_digest, parts, harness_blob);
    return writeCheckpointBytesDurably(path, bytes);
}

std::string
writeCheckpointBytesDurably(const std::string &path,
                            const std::vector<std::uint8_t> &bytes)
{
    armWriteFaultFromEnv();
    const std::string tmp = path + ".tmp";

    // Never expose a partial file at the final path: write the
    // whole payload to <path>.tmp, fsync it, and only then rename
    // over the target. rename(2) is atomic within a filesystem, so
    // a crash at ANY point here leaves either the old checkpoint or
    // the new one — plus at worst a stale .tmp the next write
    // overwrites.
    std::FILE *f = std::fopen(tmp.c_str(), "wb");
    if (f == nullptr)
        return "cannot open checkpoint temp file for writing: " +
               tmp;

    std::size_t toWrite = bytes.size();
    bool injectedFault = false;
    if (g_writeFaultBytes >= 0 &&
        static_cast<unsigned long long>(g_writeFaultBytes) <
            bytes.size()) {
        toWrite = static_cast<std::size_t>(g_writeFaultBytes);
        injectedFault = true;
    }

    const std::size_t written =
        toWrite == 0 ? 0 : std::fwrite(bytes.data(), 1, toWrite, f);

    if (injectedFault) {
        const bool aborts = g_writeFaultAborts;
        g_writeFaultBytes = -1; // one-shot
        if (aborts) {
            // Crash injection: die mid-write, partial .tmp on disk,
            // final path untouched. fflush first so the truncation
            // is actually visible to the post-mortem.
            std::fflush(f);
            std::fprintf(stderr,
                         "metro_sim: injected crash after %zu "
                         "checkpoint bytes (%s)\n",
                         toWrite, tmp.c_str());
            std::fflush(stderr);
            std::abort();
        }
        std::fclose(f);
        std::remove(tmp.c_str());
        return "short write to checkpoint temp file: " + tmp;
    }

    const bool writeOk = written == bytes.size();
    const bool flushOk = std::fflush(f) == 0;
    const bool syncOk = writeOk && flushOk &&
                        ::fsync(::fileno(f)) == 0;
    const int rc = std::fclose(f);
    if (!writeOk || !flushOk || !syncOk || rc != 0) {
        // Unlink the partial temp file rather than leaving a
        // corrupt checkpoint behind (the final path was never
        // touched).
        std::remove(tmp.c_str());
        return "short write to checkpoint temp file: " + tmp;
    }

    if (g_writeFaultBytes >= 0 && g_writeFaultAborts) {
        // K >= payload size: the injected crash lands after the
        // payload is durable but BEFORE the rename — the classic
        // "checkpoint written but not installed" window.
        g_writeFaultBytes = -1;
        std::fprintf(stderr,
                     "metro_sim: injected crash before checkpoint "
                     "rename (%s)\n",
                     tmp.c_str());
        std::fflush(stderr);
        std::abort();
    }

    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        return "cannot rename checkpoint into place: " + path;
    }

    // Make the rename itself durable: fsync the directory entry.
    std::string dir = path;
    const auto slash = dir.find_last_of('/');
    dir = slash == std::string::npos ? "." : dir.substr(0, slash);
    const int dfd = ::open(dir.c_str(), O_RDONLY);
    if (dfd >= 0) {
        ::fsync(dfd);
        ::close(dfd);
    }
    return "";
}

std::string
readCheckpointFile(const std::string &path,
                   std::uint64_t config_digest,
                   const CheckpointParticipants &parts,
                   std::vector<std::uint8_t> *harness_blob)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (f == nullptr)
        return "cannot open checkpoint file: " + path;
    std::vector<std::uint8_t> bytes;
    std::uint8_t chunk[1 << 16];
    for (;;) {
        const std::size_t n =
            std::fread(chunk, 1, sizeof(chunk), f);
        bytes.insert(bytes.end(), chunk, chunk + n);
        if (n < sizeof(chunk))
            break;
    }
    const bool readError = std::ferror(f) != 0;
    std::fclose(f);
    if (readError)
        return "read error on checkpoint file: " + path;
    return restoreCheckpointBytes(bytes.data(), bytes.size(),
                                  config_digest, parts, harness_blob);
}

} // namespace metro
