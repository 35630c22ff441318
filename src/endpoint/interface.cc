#include "endpoint/interface.hh"

#include <algorithm>

#include "common/bitops.hh"

namespace metro
{

NetworkInterface::NetworkInterface(NodeId id, const NiConfig &config,
                                   MessageTracker *tracker,
                                   std::uint64_t seed)
    : Component("endpoint" + std::to_string(id)),
      id_(id), config_(config), tracker_(tracker),
      rng_(seed ^ (0xabcdef12345ULL + id))
{
    METRO_ASSERT(tracker_ != nullptr, "tracker required");
    const std::string err = validateRetryPolicy(config_.retry);
    METRO_ASSERT(err.empty(), "endpoint %u retry config: %s", id_,
                 err.c_str());
    policy_ = makeBackoffPolicy(config_.retry);
    budget_.configure(config_.retry.retryBudget,
                      config_.retry.retryBudgetCap);
    markSleepable();
}

void
NetworkInterface::addOutPort(Link *link)
{
    addOutPortGroup({link});
}

void
NetworkInterface::addInPort(Link *link)
{
    addInPortGroup({link});
}

void
NetworkInterface::addOutPortGroup(std::vector<Link *> slices)
{
    METRO_ASSERT(!slices.empty(), "empty slice group");
    if (out_.empty() && in_.empty())
        cascade_ = static_cast<unsigned>(slices.size());
    METRO_ASSERT(slices.size() == cascade_,
                 "mixed cascade widths on endpoint %u", id_);
    METRO_ASSERT(config_.width % cascade_ == 0,
                 "width %u not divisible into %u slices",
                 config_.width, cascade_);
    // Injection: we push down / read the reverse lane (A end).
    for (Link *l : slices)
        l->setWakeA(this);
    out_.push_back(std::move(slices));
    outPortEnabled_.push_back(true);
}

void
NetworkInterface::setOutPortEnabled(unsigned group, bool enabled)
{
    METRO_ASSERT(group < out_.size(), "out group %u out of range",
                 group);
    wake(); // reconfiguration, like the router scan hooks
    outPortEnabled_[group] = enabled;
}

void
NetworkInterface::addInPortGroup(std::vector<Link *> slices)
{
    METRO_ASSERT(!slices.empty(), "empty slice group");
    if (out_.empty() && in_.empty())
        cascade_ = static_cast<unsigned>(slices.size());
    METRO_ASSERT(slices.size() == cascade_,
                 "mixed cascade widths on endpoint %u", id_);
    // Delivery: we read the down lane / push replies up (B end).
    for (Link *l : slices)
        l->setWakeB(this);
    RecvPort port;
    port.links = std::move(slices);
    port.sliceCrc.resize(cascade_);
    in_.push_back(std::move(port));
}

Symbol
NetworkInterface::sliceOf(const Symbol &s, unsigned k) const
{
    Symbol out = s;
    switch (s.kind) {
      case SymbolKind::Data:
        out.value = (s.value >> (k * sliceWidth())) &
                    lowMask(sliceWidth());
        break;
      case SymbolKind::Checksum:
        // The checksum word packs one CRC-16 per slice.
        out.value = (s.value >> (k * 16)) & 0xffff;
        break;
      default:
        break; // control words are replicated verbatim
    }
    return out;
}

Word
NetworkInterface::packedChecksum(const std::vector<Word> &words) const
{
    Word packed = 0;
    for (unsigned k = 0; k < cascade_; ++k) {
        Crc16 crc;
        for (Word w : words)
            crc.update((w >> (k * sliceWidth())) &
                           lowMask(sliceWidth()),
                       sliceWidth());
        packed |= static_cast<Word>(crc.value()) << (k * 16);
    }
    return packed;
}

void
NetworkInterface::pushGroupDown(const std::vector<Link *> &group,
                                const Symbol &s)
{
    // One logical word per group push, regardless of slice count.
    if (s.kind == SymbolKind::Data)
        ++share_.words[Words::injected];
    for (unsigned k = 0; k < group.size(); ++k)
        group[k]->pushDown(sliceOf(s, k));
}

void
NetworkInterface::pushGroupUp(const std::vector<Link *> &group,
                              const Symbol &s)
{
    if (s.kind == SymbolKind::Data)
        ++share_.words[Words::injected];
    for (unsigned k = 0; k < group.size(); ++k)
        group[k]->pushUp(sliceOf(s, k));
}

namespace
{

/** Reassemble slice symbols into a logical one. */
Symbol
assembleSlices(const std::vector<Symbol> &slices, unsigned slice_w,
               bool &consistent)
{
    Symbol out = slices.front();
    consistent = true;
    for (std::size_t k = 1; k < slices.size(); ++k) {
        if (slices[k].kind != out.kind)
            consistent = false;
    }
    if (out.kind == SymbolKind::Data) {
        out.value = 0;
        for (std::size_t k = 0; k < slices.size(); ++k)
            out.value |= (slices[k].value & lowMask(slice_w))
                         << (k * slice_w);
    } else if (out.kind == SymbolKind::Checksum) {
        out.value = 0;
        for (std::size_t k = 0; k < slices.size(); ++k)
            out.value |= (slices[k].value & 0xffff) << (k * 16);
    }
    // Status/Ack: slice 0's payload speaks for the group (each
    // slice router reports its own checksum; the wired-AND keeps
    // the control outcomes aligned).
    return out;
}

} // namespace

Symbol
NetworkInterface::readGroupUp(const std::vector<Link *> &group,
                              bool &consistent) const
{
    if (cascade_ == 1) {
        // Degenerate single-slice group: the assembleSlices masking
        // applied directly, with no per-call slice vector.
        consistent = true;
        // Drained lane: the head slot is exactly Symbol{} (vacated
        // slots are reset) and no fault mode alters an Empty, so
        // skip materializing it.  Test the head kind, not occupancy:
        // occupancy counts same-cycle staged pushes (torn reads under
        // a cross-shard writer), whereas the head is frozen for the
        // whole eval phase.  Draw-for-draw identical to headUp(): an
        // Empty head yields Symbol{} under every fault mode without
        // consuming a corruption draw.
        if (group.front()->peekKindUp() == SymbolKind::Empty)
            return Symbol{};
        Symbol s = group.front()->headUp();
        if (s.kind == SymbolKind::Data)
            s.value &= lowMask(sliceWidth());
        else if (s.kind == SymbolKind::Checksum)
            s.value &= 0xffff;
        return s;
    }
    std::vector<Symbol> slices;
    slices.reserve(group.size());
    for (Link *l : group)
        slices.push_back(l->headUp());
    return assembleSlices(slices, sliceWidth(), consistent);
}

Symbol
NetworkInterface::readGroupDown(const std::vector<Link *> &group,
                                bool &consistent) const
{
    if (cascade_ == 1) {
        consistent = true;
        // Head-kind test, not occupancy — see readGroupUp.
        if (group.front()->peekKindDown() == SymbolKind::Empty)
            return Symbol{};
        Symbol s = group.front()->headDown();
        if (s.kind == SymbolKind::Data)
            s.value &= lowMask(sliceWidth());
        else if (s.kind == SymbolKind::Checksum)
            s.value &= 0xffff;
        return s;
    }
    std::vector<Symbol> slices;
    slices.reserve(group.size());
    for (Link *l : group)
        slices.push_back(l->headDown());
    return assembleSlices(slices, sliceWidth(), consistent);
}

std::uint64_t
NetworkInterface::send(NodeId dest, std::vector<Word> payload,
                       bool request_reply, const SendMeta &meta)
{
    for (Word w : payload) {
        METRO_ASSERT((w & ~lowMask(config_.width)) == 0,
                     "payload word %llx exceeds channel width %u",
                     static_cast<unsigned long long>(w),
                     config_.width);
    }
    MessageRecord rec;
    rec.dest = dest;
    rec.payload = std::move(payload);
    rec.requestReply = request_reply;
    rec.trafficClass = meta.trafficClass;
    rec.rpcFanout = meta.rpcFanout;
    // rpcGroup 0 on a fan-out leg marks the group head: its own id
    // names the group for the remaining legs (MessageTracker::add).
    if (meta.rpcFanout > 0)
        rec.rpcGroup = meta.rpcGroup;
    return submit(std::move(rec));
}

std::uint64_t
NetworkInterface::sendSession(NodeId dest,
                              std::vector<std::vector<Word>> rounds)
{
    METRO_ASSERT(!rounds.empty(), "session needs at least one round");
    for (const auto &round : rounds) {
        for (Word w : round) {
            METRO_ASSERT((w & ~lowMask(config_.width)) == 0,
                         "session word exceeds channel width");
        }
    }
    MessageRecord rec;
    rec.dest = dest;
    rec.payload = rounds.front();
    rec.requestReply = true;
    rec.sessionRounds = std::move(rounds);
    ++counters_[NiCounter::sessionsSubmitted];
    return submit(std::move(rec));
}

std::uint64_t
NetworkInterface::submit(MessageRecord rec)
{
    // New work for the send machine: leave quiescence first, so
    // lastCycle_ (which timestamps same-cycle admission sheds
    // below) is restored before anything reads it.
    wake();
    // A message's wire footprint is its payload plus the checksum
    // word (what injection admission is bounding).
    const std::uint64_t words = rec.payload.size() + 1;
    rec.src = id_;
    rec.sequence = nextSequence_++;
    ++counters_[NiCounter::submitted];
    share_.words[Words::submitted] += words;
    const bool shed = config_.retry.sendQueueLimit > 0 &&
                      queue_.size() >= config_.retry.sendQueueLimit;
    if (shed) {
        // Admission control: shed at the source boundary. The
        // message resolves immediately (gaveUp) without touching
        // the wire, so the shed words land in their own
        // conservation bin: submitted == admitted + shed.
        rec.gaveUp = true;
        rec.shedAdmission = true;
        rec.submitCycle = lastCycle_;
        rec.completeCycle = lastCycle_;
        ++counters_[NiCounter::admissionSheds];
        share_.words[Words::shedAdmission] += words;
    } else {
        share_.words[Words::admitted] += words;
    }
    if (!stageForFold()) {
        // Nothing ticks concurrently: the record joins the ledger now.
        const std::uint64_t id = tracker_->add(std::move(rec));
        if (!shed)
            queue_.push_back(id);
        return id;
    }
    // Shards tick concurrently: build the record in a spare ledger
    // entry (see MessageTracker::blank) for the phase barrier to
    // adopt (foldStaged), and hand out a provisional handle.
    if (spares_.empty()) {
        // More sends in one tick than folds made spares for: make
        // one here, on this thread.
        MessageTracker::Records one;
        one.try_emplace(0);
        spares_.push_back(one.extract(0));
    }
    MessageTracker::Node entry = std::move(spares_.back());
    spares_.pop_back();
    std::vector<Word> payload = std::move(entry.mapped().payload);
    payload.assign(rec.payload.begin(), rec.payload.end());
    rec.payload = std::move(payload);
    entry.mapped() = std::move(rec);
    const std::uint64_t handle = kStagedHandle | staged_.size();
    staged_.push_back(std::move(entry));
    if (!shed)
        queue_.push_back(handle);
    return handle;
}

void
NetworkInterface::foldStaged()
{
    const std::uint64_t handle = kStagedHandle | stagedFolded_;
    MessageTracker::Node &entry = staged_[stagedFolded_++];
    const bool queued = !entry.mapped().shedAdmission;
    const std::size_t words = entry.mapped().payload.size();
    const std::uint64_t id = tracker_->adopt(std::move(entry));
    // The handle names the record in the queue (unless it was shed)
    // and in its later fan-out legs' group ids.
    if (queued)
        *std::find(queue_.rbegin(), queue_.rend(), handle) = id;
    for (std::size_t k = stagedFolded_; k < staged_.size(); ++k) {
        if (staged_[k].mapped().rpcGroup == handle)
            staged_[k].mapped().rpcGroup = id;
    }
    // Replace the spare the record used, sized like it.
    spares_.push_back(tracker_->blank(words));
    if (stagedFolded_ == staged_.size()) {
        staged_.clear();
        stagedFolded_ = 0;
    }
}

void
NetworkInterface::startRound(unsigned round)
{
    const auto &rec = tracker_->record(activeMsg_);
    const auto &data = round == 0 ? rec.payload
                                  : rec.sessionRounds[round];
    stream_.clear();
    if (round == 0) {
        const RoutePlan plan = routeFn_(rec.dest);
        for (unsigned h = 0; h < plan.headerSymbols; ++h)
            stream_.push_back(
                Symbol::header(plan.route, plan.length, activeMsg_));
    }
    for (std::size_t k = 0; k < data.size(); ++k) {
        if (k > 0) {
            for (unsigned g = 0; g < config_.interWordGap; ++g)
                stream_.push_back(Symbol::control(
                    SymbolKind::DataIdle, activeMsg_));
        }
        stream_.push_back(Symbol::data(data[k], activeMsg_));
    }
    Symbol ck;
    ck.kind = SymbolKind::Checksum;
    ck.value = packedChecksum(data);
    ck.msgId = activeMsg_;
    if (round == 0)
        sentChecksum_ = ck.value; // fault-diary CRC evidence
    stream_.push_back(ck);
    stream_.push_back(Symbol::control(SymbolKind::Turn, activeMsg_));

    cursor_ = 0;
    roundIndex_ = round;
    ackSeen_ = false;
    replyWords_.clear();
    replySliceCrc_.assign(cascade_, Crc16{});
    replyChecksumSeen_ = false;
    sendState_ = SendState::Sending;
}

bool
NetworkInterface::roundReplyOk() const
{
    if (!ackSeen_ || !ack_.ok)
        return false;
    if (replyChecksumSeen_) {
        for (unsigned k = 0; k < cascade_; ++k) {
            const auto expected =
                (replyChecksum_ >> (k * 16)) & 0xffff;
            if (replySliceCrc_[k].value() != expected)
                return false;
        }
    }
    return true;
}

void
NetworkInterface::startAttempt(Cycle cycle)
{
    METRO_ASSERT(!out_.empty(), "endpoint %u has no injection ports",
                 id_);
    METRO_ASSERT(routeFn_, "endpoint %u has no route function", id_);

    auto &rec = tracker_->record(activeMsg_);
    ++rec.attempts;
    ++counters_[NiCounter::attempts];
    if (rec.attempts == 1)
        prevBackoff_ = 0; // fresh message: no previous delay
    else
        ++counters_[NiCounter::retries];
    attemptStart_ = cycle;
    if (observer_ != nullptr)
        observer_->onAttemptStart(activeMsg_, rec.attempts, cycle);

    // Stochastic injection-port choice: with multiple network input
    // ports per endpoint (Figure 1), retries spread over them too.
    outPort_ = static_cast<unsigned>(rng_.below(out_.size()));
    if (!outPortEnabled_[outPort_]) {
        // Scan-masked group: re-draw among the enabled ones. With
        // every group masked the original draw stands — the
        // endpoint must always be able to try something.
        std::vector<unsigned> enabled;
        for (unsigned g = 0; g < out_.size(); ++g)
            if (outPortEnabled_[g])
                enabled.push_back(g);
        if (!enabled.empty())
            outPort_ = enabled[rng_.below(enabled.size())];
    }

    statuses_.clear();
    sawBlockedStatus_ = false;
    abortCause_ = AttemptOutcome::RoundFail; // conservative default
    roundsAckedOk_ = 0;
    sessionReplies_.clear();
    startRound(0);

    // First word goes out this very tick; it is on the wire next
    // cycle, which is the paper's "message injection" instant.
    if (rec.injectCycle == kNever)
        rec.injectCycle = cycle + 1;
}

void
NetworkInterface::reportAttempt(Cycle cycle, bool success)
{
    if (diary_ == nullptr)
        return;
    AttemptEvidence e;
    e.src = id_;
    e.dest = tracker_->record(activeMsg_).dest;
    e.cycle = cycle;
    e.outcome = success ? AttemptOutcome::Success : abortCause_;
    e.outPort = outPort_;
    e.statuses = statuses_;
    e.sawBlocked = sawBlockedStatus_;
    e.sentCrc = static_cast<std::uint16_t>(sentChecksum_ & 0xffff);
    diary_->record(e);
}

void
NetworkInterface::scheduleRetry(Cycle cycle)
{
    auto &rec = tracker_->record(activeMsg_);
    reportAttempt(cycle, /*success=*/false);
    if (observer_ != nullptr)
        observer_->onAttemptEnd(activeMsg_, false, cycle);
    // Congestion signal: a blocked STATUS or a backward-control-bit
    // drop means the path was contended — as opposed to corruption
    // or a timeout, which point at faults. AIMD feeds on the
    // distinction.
    const bool congested = sawBlockedStatus_ ||
                           abortCause_ == AttemptOutcome::BcbDrop;
    policy_->onOutcome(/*success=*/false, congested);
    if (rec.attempts >= config_.maxAttempts) {
        rec.gaveUp = true;
        rec.completeCycle = cycle;
        ++counters_[NiCounter::giveUps];
        share_.conn[NiConn::attempts].sample(rec.attempts);
        share_.conn[NiConn::giveupLatency].sample(cycle - rec.submitCycle);
        if (observer_ != nullptr)
            observer_->onMessageResolved(activeMsg_, false, cycle);
        releaseGate();
        activeMsg_ = 0;
        sendState_ = SendState::Idle;
        return;
    }
    BackoffContext ctx;
    ctx.attempt = rec.attempts;
    ctx.congested = congested;
    ctx.messageAge = cycle - rec.submitCycle;
    ctx.prevDelay = prevBackoff_;
    Cycle wait = policy_->nextDelay(ctx, rng_);
    // Aging, first threshold: an old message's backoff is clamped
    // to the minimum so it keeps contending for the network.
    const auto &rp = config_.retry;
    if (rp.ageClamp > 0 && ctx.messageAge >= rp.ageClamp &&
        wait > rp.backoffMin) {
        wait = rp.backoffMin;
        ++counters_[NiCounter::backoffClamps];
    }
    prevBackoff_ = wait;
    backoffUntil_ = cycle + 1 + wait;
    sendState_ = SendState::Backoff;
}

bool
NetworkInterface::admitRetry(MessageRecord &rec, Cycle cycle)
{
    // First attempts are always free: the budget bounds *retry*
    // traffic relative to offered load, not offered load itself.
    if (rec.attempts == 0 || !budget_.enabled())
        return true;
    const auto &rp = config_.retry;
    if (rp.ageStarve > 0 && cycle - rec.submitCycle >= rp.ageStarve) {
        // Aging, second threshold: a starving message bypasses the
        // budget entirely, so an empty bucket can never wedge a
        // sender forever (the liveness escape validateRetryPolicy
        // insists on).
        if (!rec.starved) {
            rec.starved = true;
            ++counters_[NiCounter::starvations];
        }
        return true;
    }
    if (budget_.tryConsume())
        return true;
    ++counters_[NiCounter::budgetDenials];
    return false;
}

void
NetworkInterface::parkActive(const MessageRecord &rec, Cycle cycle)
{
    // Old messages escalate to head-of-queue; younger parked
    // retries requeue behind fresh traffic, whose free first
    // attempts both make progress and refill the budget.
    const auto &rp = config_.retry;
    if (rp.ageClamp > 0 && cycle - rec.submitCycle >= rp.ageClamp)
        queue_.push_front(activeMsg_);
    else
        queue_.push_back(activeMsg_);
    ++counters_[NiCounter::retriesParked];
    releaseGate();
    activeMsg_ = 0;
    sendState_ = SendState::Idle;
}

void
NetworkInterface::releaseGate()
{
    if (gateHeld_) {
        gate_->release();
        gateHeld_ = false;
    }
}

void
NetworkInterface::finishAttempt(Cycle cycle, bool success)
{
    auto &rec = tracker_->record(activeMsg_);
    rec.statuses = statuses_;
    if (success) {
        rec.succeeded = true;
        rec.completeCycle = cycle;
        rec.reply = replyWords_;
        rec.replyOk = rec.requestReply;
        rec.sessionReplies = sessionReplies_;
        rec.roundsCompleted = roundsAckedOk_;
        ++counters_[NiCounter::successes];
        share_.conn[NiConn::attempts].sample(rec.attempts);
        share_.conn[NiConn::pathLength].sample(statuses_.size());
        policy_->onOutcome(/*success=*/true, /*congested=*/false);
        budget_.onSuccess();
        reportAttempt(cycle, /*success=*/true);
        if (observer_ != nullptr) {
            observer_->onAttemptEnd(activeMsg_, true, cycle);
            observer_->onMessageResolved(activeMsg_, true, cycle);
        }
        releaseGate();
        activeMsg_ = 0;
        sendState_ = SendState::Idle;
    } else {
        ++counters_[NiCounter::failedAttempts];
        scheduleRetry(cycle);
    }
}

void
NetworkInterface::tickSend(Cycle cycle)
{
    // Start a queued message when the sender is free.
    if (sendState_ == SendState::Idle) {
        if (queue_.empty())
            return;
        // Global in-flight-attempts gate (admission control): a
        // message activates only when a slot is free. Endpoints
        // tick in fixed engine order, so acquisition stays
        // deterministic.
        if (gate_ != nullptr && !gate_->tryAcquire()) {
            ++counters_[NiCounter::gateDeferrals];
            return;
        }
        gateHeld_ = gate_ != nullptr;
        activeMsg_ = queue_.front();
        queue_.pop_front();
        auto &rec = tracker_->record(activeMsg_);
        if (rec.submitCycle == kNever)
            rec.submitCycle = cycle;
        if (!admitRetry(rec, cycle)) {
            // A budget-parked retry popped while the bucket is
            // still dry: park it again and free the cycle.
            parkActive(rec, cycle);
            return;
        }
        startAttempt(cycle);
        // fall through into Sending below to emit the first word
    }

    const std::vector<Link *> *group = &out_[outPort_];

    if (sendState_ == SendState::Backoff) {
        if (cycle < backoffUntil_)
            return;
        auto &rec = tracker_->record(activeMsg_);
        if (!admitRetry(rec, cycle)) {
            parkActive(rec, cycle);
            return;
        }
        startAttempt(cycle);
        group = &out_[outPort_]; // port re-chosen by startAttempt
    }

    if (sendState_ == SendState::Abort) {
        pushGroupDown(*group,
                      Symbol::control(SymbolKind::Drop, activeMsg_));
        scheduleRetry(cycle);
        return;
    }

    // Watch the reverse lane in Sending and Await alike: the
    // backward control bit can overtake the stream.
    protocolRead_ = outPort_;
    bool consistent = true;
    const Symbol rsym = readGroupUp(*group, consistent);
    if (!consistent) {
        // Slice streams disagree: a cascade fault escaped the
        // wired-AND. Treat the attempt as corrupted.
        ++counters_[NiCounter::sliceDisagreement];
        abortCause_ = AttemptOutcome::SliceDisagree;
        sendState_ = SendState::Abort;
        return;
    }

    if (sendState_ == SendState::Sending) {
        if (rsym.kind == SymbolKind::BcbDrop) {
            ++counters_[NiCounter::bcbAborts];
            abortCause_ = AttemptOutcome::BcbDrop;
            sendState_ = SendState::Abort;
            return; // truncate the stream; Drop goes out next tick
        }
        // Reverse Data while still streaming forward is debris of a
        // dead round; it is not captured anywhere.
        if (rsym.kind == SymbolKind::Data)
            ++share_.words[Words::discardedEndpoint];
        pushGroupDown(*group, stream_[cursor_++]);
        if (cursor_ == stream_.size()) {
            sendState_ = SendState::Await;
            turnSent_ = cycle;
        }
        return;
    }

    METRO_ASSERT(sendState_ == SendState::Await, "bad send state");

    switch (rsym.kind) {
      case SymbolKind::Empty:
      case SymbolKind::DataIdle:
      case SymbolKind::Header:
        break;
      case SymbolKind::Status: {
        const auto sw = StatusWord::decode(rsym.value);
        statuses_.push_back(sw);
        if (sw.blocked) {
            sawBlockedStatus_ = true;
            ++counters_[NiCounter::blockedStatuses];
        }
        break;
      }
      case SymbolKind::Ack: {
        ack_ = AckWord::decode(rsym.value);
        ackSeen_ = true;
        share_.conn[NiConn::turnRoundtrip].sample(cycle - turnSent_);
        if (ack_.ok) {
            auto &rec = tracker_->record(activeMsg_);
            if (roundIndex_ == 0) {
                rec.ackCycle = cycle;
                share_.conn[NiConn::setupLatency].sample(
                    cycle - attemptStart_);
            }
        } else {
            ++counters_[NiCounter::nacks];
        }
        break;
      }
      case SymbolKind::Data:
        ++share_.words[Words::delivered];
        replyWords_.push_back(rsym.value);
        for (unsigned k = 0; k < cascade_; ++k)
            replySliceCrc_[k].update(
                (rsym.value >> (k * sliceWidth())) &
                    lowMask(sliceWidth()),
                sliceWidth());
        break;
      case SymbolKind::Checksum:
        replyChecksumSeen_ = true;
        replyChecksum_ = rsym.value;
        break;
      case SymbolKind::Drop: {
        const auto &rec = tracker_->record(activeMsg_);
        bool ok;
        if (!rec.sessionRounds.empty()) {
            // The destination closed the session. Success iff every
            // round so far resolved cleanly and this closing round
            // did too.
            ok = roundReplyOk() && !sawBlockedStatus_;
            if (ok) {
                ++roundsAckedOk_;
                sessionReplies_.push_back(replyWords_);
            } else {
                abortCause_ = AttemptOutcome::RoundFail;
            }
        } else {
            ok = ackSeen_ && ack_.ok && !sawBlockedStatus_;
            if (!ok)
                abortCause_ = AttemptOutcome::Nack;
            if (ok && rec.requestReply) {
                ok = replyChecksumSeen_ && roundReplyOk();
                if (!ok) {
                    ++counters_[NiCounter::replyChecksumFail];
                    abortCause_ = AttemptOutcome::ReplyChecksum;
                }
            }
        }
        finishAttempt(cycle, ok);
        return;
      }
      case SymbolKind::BcbDrop:
        ++counters_[NiCounter::bcbAborts];
        abortCause_ = AttemptOutcome::BcbDrop;
        sendState_ = SendState::Abort;
        return;
      case SymbolKind::Turn: {
        // The destination handed the connection back (multi-turn
        // session, Section 5.1).
        const auto &rec = tracker_->record(activeMsg_);
        if (!roundReplyOk() || sawBlockedStatus_) {
            ++counters_[NiCounter::roundFailures];
            abortCause_ = AttemptOutcome::RoundFail;
            sendState_ = SendState::Abort;
            return;
        }
        ++roundsAckedOk_;
        sessionReplies_.push_back(replyWords_);
        ++counters_[NiCounter::roundsCompleted];
        if (roundIndex_ + 1 < rec.sessionRounds.size()) {
            startRound(roundIndex_ + 1); // Sending resumes next tick
        } else {
            // Nothing more to send: close the session from our
            // side; the Drop unwinds the path toward the
            // destination.
            pushGroupDown(*group, Symbol::control(SymbolKind::Drop,
                                                  activeMsg_));
            finishAttempt(cycle, true);
        }
        return;
      }
      case SymbolKind::Test:
        ++counters_[NiCounter::strayAtSource];
        break;
    }

    if (cycle - turnSent_ > config_.replyTimeout) {
        ++counters_[NiCounter::replyTimeouts];
        abortCause_ = AttemptOutcome::ReplyTimeout;
        sendState_ = SendState::Abort;
    }
}

void
NetworkInterface::handleTurnAtReceiver(RecvPort &port,
                                       std::uint64_t msg_id, Cycle cycle)
{
    // The message is the one the TURN itself names (in hardware its
    // identity rides in the payload the TURN closes), not the one
    // the port latched when the stream began: a port left half-open
    // by a dead wire can carry a later connection through the same
    // stale crosspoints, long after the latched message resolved.
    MessageRecord *rec = tracker_->find(msg_id);

    bool crc_ok = port.checksumSeen;
    if (port.checksumSeen) {
        for (unsigned k = 0; k < cascade_; ++k) {
            const auto expected = (port.checksum >> (k * 16)) & 0xffff;
            if (port.sliceCrc[k].value() != expected)
                crc_ok = false;
        }
    }
    bool ok = crc_ok && rec != nullptr;
    if (ok && port.round == 0 && rec->dest != id_) {
        ok = false;
        ++counters_[NiCounter::wrongDestination];
    }
    if (port.checksumSeen && rec != nullptr && !crc_ok)
        ++counters_[NiCounter::checksumFailures];

    bool duplicate = false;
    if (ok && port.round == 0) {
        ++rec->arrivalCount;
        auto it = lastDeliveredSeq_.find(rec->src);
        duplicate = it != lastDeliveredSeq_.end() &&
                    rec->sequence <= it->second;
        if (duplicate) {
            ++counters_[NiCounter::duplicateArrivals];
        } else {
            lastDeliveredSeq_[rec->src] = rec->sequence;
            if (rec->deliverCycle == kNever)
                rec->deliverCycle = cycle;
            ++rec->deliveredCount;
            ++counters_[NiCounter::deliveries];
            if (observer_ != nullptr)
                observer_->onDelivery(port.msgId, id_, cycle);
            if (deliveryHandler_)
                deliveryHandler_(*rec);
        }
    }

    // The acknowledgment occupies the very first reverse stream
    // slot: pushed in the same tick the TURN is read.
    AckWord ack;
    ack.ok = ok;
    ack.sequence = rec ? rec->sequence : 0;
    Symbol ack_sym;
    ack_sym.kind = SymbolKind::Ack;
    ack_sym.value = ack.encode();
    ack_sym.msgId = port.msgId;
    pushGroupUp(port.links, ack_sym);

    port.replyQueue.clear();
    const bool session =
        ok && !rec->sessionRounds.empty() && sessionHandler_;
    bool turn_back = false;
    if (session) {
        // Multi-turn session round (at-least-once on retry).
        const SessionReply sr =
            sessionHandler_(*rec, port.round, port.words);
        for (unsigned i = 0; i < sr.delay; ++i)
            port.replyQueue.push_back(
                Symbol::control(SymbolKind::DataIdle, port.msgId));
        for (Word w : sr.words) {
            METRO_ASSERT((w & ~lowMask(config_.width)) == 0,
                         "reply word exceeds channel width");
            port.replyQueue.push_back(Symbol::data(w, port.msgId));
        }
        Symbol ck;
        ck.kind = SymbolKind::Checksum;
        ck.value = packedChecksum(sr.words);
        ck.msgId = port.msgId;
        port.replyQueue.push_back(ck);
        turn_back = sr.continueSession;
        ++counters_[NiCounter::sessionRoundsServed];
    } else if (ok && rec->requestReply && rec->sessionRounds.empty()) {
        ReplySpec spec;
        if (replyHandler_)
            spec = replyHandler_(*rec);
        for (unsigned i = 0; i < spec.delay; ++i)
            port.replyQueue.push_back(
                Symbol::control(SymbolKind::DataIdle, port.msgId));
        for (Word w : spec.words) {
            METRO_ASSERT((w & ~lowMask(config_.width)) == 0,
                         "reply word exceeds channel width");
            port.replyQueue.push_back(Symbol::data(w, port.msgId));
        }
        Symbol ck;
        ck.kind = SymbolKind::Checksum;
        ck.value = packedChecksum(spec.words);
        ck.msgId = port.msgId;
        port.replyQueue.push_back(ck);
    }
    port.replyQueue.push_back(Symbol::control(
        turn_back ? SymbolKind::Turn : SymbolKind::Drop,
        port.msgId));
    port.state = RecvState::Replying;
}

void
NetworkInterface::processReceivedSymbol(RecvPort &port,
                                        const Symbol &sym, Cycle cycle)
{
    switch (sym.kind) {
      case SymbolKind::Header:
      case SymbolKind::DataIdle:
      case SymbolKind::Empty:
        break;
      case SymbolKind::Status:
        // Router status words of a reversal transient (they reach
        // the receiving end after the source turns the connection
        // forward again mid-session).
        ++counters_[NiCounter::statusAtReceiver];
        break;
      case SymbolKind::Data:
        ++share_.words[Words::delivered];
        port.words.push_back(sym.value);
        for (unsigned k = 0; k < cascade_; ++k)
            port.sliceCrc[k].update(
                (sym.value >> (k * sliceWidth())) &
                    lowMask(sliceWidth()),
                sliceWidth());
        break;
      case SymbolKind::Checksum:
        port.checksumSeen = true;
        port.checksum = sym.value;
        break;
      case SymbolKind::Turn:
        handleTurnAtReceiver(port, sym.msgId, cycle);
        break;
      case SymbolKind::Drop:
        ++counters_[NiCounter::abortedReceives];
        port.state = RecvState::Idle;
        port.round = 0;
        break;
      default:
        ++counters_[NiCounter::strayAtReceiver];
        break;
    }
}

void
NetworkInterface::tickRecv(RecvPort &port, Cycle cycle)
{
    if (port.links.empty())
        return;

    bool consistent = true;
    Symbol sym = readGroupDown(port.links, consistent);
    if (!consistent) {
        // Disagreeing slices: poison the stream so the checksum
        // check fails and the source retries.
        ++counters_[NiCounter::sliceDisagreement];
        sym = Symbol::data(0, sym.msgId);
    }
    if (sym.occupied())
        port.lastActivity = cycle;

    switch (port.state) {
      case RecvState::Idle:
        // A circuit-switched delivery port latches onto whatever
        // stream starts arriving. The leading word is usually a
        // Header, but the last-stage router may have swallowed the
        // final header word, in which case the payload leads.
        if (sym.kind == SymbolKind::Header ||
            sym.kind == SymbolKind::Data ||
            sym.kind == SymbolKind::Checksum ||
            sym.kind == SymbolKind::DataIdle ||
            sym.kind == SymbolKind::Turn) {
            port.state = RecvState::Receiving;
            port.msgId = sym.msgId;
            port.round = 0;
            port.sliceCrc.assign(cascade_, Crc16{});
            port.words.clear();
            port.checksumSeen = false;
            processReceivedSymbol(port, sym, cycle);
        } else if (sym.occupied()) {
            ++counters_[NiCounter::strayAtReceiver];
        }
        break;

      case RecvState::Receiving:
        processReceivedSymbol(port, sym, cycle);
        // Half-open stream watchdog (e.g. the source's path died).
        if (port.state == RecvState::Receiving &&
            config_.recvTimeout > 0 && !sym.occupied() &&
            cycle - port.lastActivity > config_.recvTimeout) {
            ++counters_[NiCounter::recvTimeouts];
            port.state = RecvState::Idle;
        }
        break;

      case RecvState::Replying: {
        METRO_ASSERT(!port.replyQueue.empty(), "empty reply queue");
        const Symbol next = port.replyQueue.front();
        port.replyQueue.pop_front();
        pushGroupUp(port.links, next);
        if (next.kind == SymbolKind::Drop) {
            port.state = RecvState::Idle;
            port.round = 0;
        } else if (next.kind == SymbolKind::Turn) {
            // Session continues: receive the next round on the
            // still-open connection.
            port.state = RecvState::Receiving;
            ++port.round;
            port.sliceCrc.assign(cascade_, Crc16{});
            port.words.clear();
            port.checksumSeen = false;
            port.lastActivity = cycle;
        }
        if (sym.occupied() && sym.kind != SymbolKind::DataIdle) {
            ++counters_[NiCounter::strayAtReceiver];
            if (sym.kind == SymbolKind::Data)
                ++share_.words[Words::discardedEndpoint];
        }
        break;
      }
    }
}

bool
NetworkInterface::canSleep() const
{
    // The send machine must be drained (no active attempt, no
    // backoff clock running, nothing queued), every receiver idle,
    // and every attached lane fast-pathed — an active link could
    // deliver a symbol (or debris the reverse-lane census must
    // see) any cycle.
    if (sendState_ != SendState::Idle || !queue_.empty())
        return false;
    for (const auto &port : in_) {
        if (port.state != RecvState::Idle)
            return false;
        for (const Link *l : port.links) {
            if (l->active())
                return false;
        }
    }
    for (const auto &group : out_) {
        for (const Link *l : group) {
            if (l->active())
                return false;
        }
    }
    return true;
}

void
NetworkInterface::syncSkipped(Cycle from, Cycle upto)
{
    (void)from;
    // Restore the "latest cycle tick() saw" clock to what an
    // eagerly-ticked idle instance would hold, so admission sheds
    // stamped inside send() before our next tick carry the right
    // cycle.
    if (upto > 0)
        lastCycle_ = upto - 1;
}

void
NetworkInterface::tick(Cycle cycle)
{
    lastCycle_ = cycle;
    for (auto &port : in_)
        tickRecv(port, cycle);
    protocolRead_ = SIZE_MAX;
    tickSend(cycle);

    // Word conservation: census the reverse lanes of injection
    // groups the send logic did not consume this cycle (idle,
    // backoff, abort, or simply other ports) — Data arriving there
    // evaporates. peekUp() never touches the fault PRNG, so the
    // census is invisible to the simulation proper. Slice 0 stands
    // for the group (one logical word).
    for (std::size_t g = 0; g < out_.size(); ++g) {
        if (g == protocolRead_ || out_[g].empty())
            continue;
        if (out_[g].front()->peekUp().kind == SymbolKind::Data)
            ++share_.words[Words::discardedEndpoint];
    }
}

} // namespace metro
