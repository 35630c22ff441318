#include "router/router.hh"

#include <algorithm>

#include "common/bitops.hh"

namespace metro
{

const char *
fwdPortStateName(FwdPortState state)
{
    switch (state) {
      case FwdPortState::Idle: return "Idle";
      case FwdPortState::ConnectedFwd: return "ConnectedFwd";
      case FwdPortState::ConnectedRev: return "ConnectedRev";
      case FwdPortState::BlockedWait: return "BlockedWait";
      case FwdPortState::BlockedDrop: return "BlockedDrop";
      case FwdPortState::Draining: return "Draining";
    }
    return "?";
}

MetroRouter::MetroRouter(RouterId id, const RouterParams &params,
                         const RouterConfig &config, std::uint64_t seed)
    : Component("router" + std::to_string(id)),
      id_(id), params_(params), config_(config),
      randomSource_(std::make_shared<RandomSource>(seed)),
      randomOutput_(seed ^ 0x0badc0deULL),
      misrouteRng_(seed ^ 0xdeadbeefULL)
{
    params_.validate();
    config_.validate(params_);
    const std::size_t nf = params_.numForward;
    const std::size_t nb = params_.numBackward;
    fLink_.resize(nf, nullptr);
    fState_.resize(nf, FwdPortState::Idle);
    fBwd_.resize(nf, kInvalidPort);
    fConsumeLeft_.resize(nf, 0);
    fPosAfter_.resize(nf, 0);
    fSwallowFirst_.resize(nf, 0);
    fFirstHeaderDone_.resize(nf, 0);
    fCrc_.resize(nf);
    fDirection_.resize(nf, 0);
    fLastActivity_.resize(nf, 0);
    fMsgId_.resize(nf, 0);
    fLastTest_.resize(nf);
    bLink_.resize(nb, nullptr);
    bBusy_.resize(nb, 0);
    bOwner_.resize(nb, kInvalidPort);
    bRevRead_.resize(nb, 0);
    availScratch_.resize(nb, false);
    pendingScratch_.reserve(nf);
    markSleepable();
    refreshOffPortDrive();
}

bool
MetroRouter::randomOutputBit(Cycle cycle) const
{
    // Derived from the component's own seed stream, NOT the shared
    // random inputs — a cascade fed from one member's output must
    // not correlate with any member's input consumption.
    return (randomOutput_.wordForCycle(cycle) & 1) != 0;
}

void
MetroRouter::attachForward(PortIndex p, Link *link)
{
    METRO_ASSERT(p < fLink_.size(), "forward port %u out of range", p);
    fLink_[p] = link;
    // A forward port reads the link's down lane: the router sits at
    // the B end and must wake when anything is pushed toward it.
    link->setWakeB(this);
}

void
MetroRouter::attachBackward(PortIndex p, Link *link)
{
    METRO_ASSERT(p < bLink_.size(), "backward port %u out of range", p);
    bLink_[p] = link;
    availDirty_ = true;
    // A backward port reads the link's up lane (A end).
    link->setWakeA(this);
}

unsigned
MetroRouter::directionBits() const
{
    return log2Ceil(config_.radix());
}

unsigned
MetroRouter::extractDirection(const Symbol &header, Cycle cycle)
{
    const unsigned bits = directionBits();
    if (bits == 0)
        return 0;
    if (misroute_) {
        // Header-decode fault: the direction decoded bears no
        // relation to the requested one.
        (void)cycle;
        return static_cast<unsigned>(
            misrouteRng_.below(config_.radix()));
    }
    METRO_ASSERT(header.routePos + bits <= header.routeLen,
                 "route spec exhausted: pos %u + %u > len %u "
                 "(router %u)", header.routePos, bits, header.routeLen,
                 id_);
    return static_cast<unsigned>(
        (header.route >> header.routePos) & lowMask(bits));
}

void
MetroRouter::refreshOffPortDrive()
{
    offPortDriveArmed_ = false;
    for (std::size_t b = 0; b < bLink_.size(); ++b) {
        if (!config_.backwardEnabled[b] && config_.offPortDrive[b])
            offPortDriveArmed_ = true;
    }
}

void
MetroRouter::fillAvailability()
{
    // Refills the persistent scratch in place (no allocation).
    for (std::size_t b = 0; b < bLink_.size(); ++b) {
        // Only the first backwardPortsUsed ports participate in
        // this network position (e.g. a dilation-1 radix-4 use of
        // an 8-output component wires only 4 outputs).
        availScratch_[b] = b < config_.backwardPortsUsed &&
                           config_.backwardEnabled[b] && !bBusy_[b] &&
                           bLink_[b] != nullptr;
    }
}

Symbol
MetroRouter::makeStatus(PortIndex p, bool blocked) const
{
    StatusWord sw;
    sw.router = id_;
    sw.stage = stage_;
    sw.blocked = blocked;
    sw.checksum = fCrc_[p].value();
    sw.port = fBwd_[p];
    Symbol s;
    s.kind = SymbolKind::Status;
    s.value = sw.encode();
    s.msgId = fMsgId_[p];
    return s;
}

void
MetroRouter::pushStatusUp(PortIndex p, bool blocked)
{
    fLink_[p]->pushUp(makeStatus(p, blocked));
}

void
MetroRouter::pushStatusDown(PortIndex p, bool blocked)
{
    METRO_ASSERT(fBwd_[p] != kInvalidPort, "status down w/o bwd port");
    bLink_[fBwd_[p]]->pushDown(makeStatus(p, blocked));
}

void
MetroRouter::freeConnection(PortIndex p)
{
    if (fBwd_[p] != kInvalidPort) {
        bBusy_[fBwd_[p]] = 0;
        bOwner_[fBwd_[p]] = kInvalidPort;
        fBwd_[p] = kInvalidPort;
        availDirty_ = true;
    }
    fState_[p] = FwdPortState::Idle;
    fConsumeLeft_[p] = 0;
    fFirstHeaderDone_[p] = 0;
    fSwallowFirst_[p] = 0;
}

void
MetroRouter::teardownPort(PortIndex p)
{
    if (fState_[p] != FwdPortState::Idle) {
        ++counters_[RouterCounter::scanTeardown];
        freeConnection(p);
    }
}

void
MetroRouter::forwardHeader(PortIndex p, Symbol sym)
{
    sym.routePos = fPosAfter_[p];
    bLink_[fBwd_[p]]->pushDown(sym);
}

void
MetroRouter::handleConnectedFwd(PortIndex p, const Symbol &sym,
                                Cycle cycle)
{
    Link *down = bLink_[fBwd_[p]];

    // Reverse-lane control first: a backward-control-bit drop from
    // a blocked router downstream reclaims this path segment.
    bRevRead_[fBwd_[p]] = 1;
    const Symbol rsym = down->headUp();
    if (rsym.kind == SymbolKind::BcbDrop) {
        ++counters_[RouterCounter::bcbForwarded];
        fLastActivity_[p] = cycle;
        // Releasing the crosspoint makes the downstream channel go
        // undriven; the draining router below sees its stream end.
        // Model that with an explicit Drop down the old port.
        down->pushDown(Symbol::control(SymbolKind::Drop, fMsgId_[p]));
        bBusy_[fBwd_[p]] = 0;
        bOwner_[fBwd_[p]] = kInvalidPort;
        fBwd_[p] = kInvalidPort;
        availDirty_ = true;
        fLink_[p]->pushUp(Symbol::control(SymbolKind::BcbDrop,
                                          fMsgId_[p]));
        fState_[p] = FwdPortState::Draining;
        if (sym.kind == SymbolKind::Data)
            ++share_.words[Words::discardedRouter];
        return;
    }
    if (rsym.kind == SymbolKind::Drop) {
        // Downstream cleanup (e.g. idle timeout there): release and
        // inform upstream.
        ++counters_[RouterCounter::reverseDropFwd];
        fLink_[p]->pushUp(rsym);
        freeConnection(p);
        if (sym.kind == SymbolKind::Data)
            ++share_.words[Words::discardedRouter];
        return;
    }
    if (rsym.occupied()) {
        ++counters_[RouterCounter::strayReverseSymbol];
        if (rsym.kind == SymbolKind::Data)
            ++share_.words[Words::discardedRouter];
    }

    if (sym.occupied())
        fLastActivity_[p] = cycle;

    switch (sym.kind) {
      case SymbolKind::Empty:
        break;
      case SymbolKind::Header:
        if (fConsumeLeft_[p] > 0) {
            --fConsumeLeft_[p];
            ++counters_[RouterCounter::headerConsumed];
        } else if (!fFirstHeaderDone_[p] && fSwallowFirst_[p]) {
            fFirstHeaderDone_[p] = 1;
            ++counters_[RouterCounter::headerSwallowed];
        } else {
            fFirstHeaderDone_[p] = 1;
            forwardHeader(p, sym);
        }
        break;
      case SymbolKind::Data:
        fCrc_[p].update(sym.value, params_.width);
        [[fallthrough]];
      case SymbolKind::Checksum:
      case SymbolKind::DataIdle:
      case SymbolKind::Ack:
      case SymbolKind::Test:
        if (fConsumeLeft_[p] > 0) {
            // Pipelined connection setup consumes words blindly
            // from the stream head.
            --fConsumeLeft_[p];
            ++counters_[RouterCounter::headerConsumed];
            if (sym.kind == SymbolKind::Data)
                ++share_.words[Words::discardedRouter];
        } else {
            down->pushDown(sym);
            ++counters_[RouterCounter::wordsForwarded];
        }
        break;
      case SymbolKind::Turn:
        // Forward the TURN downstream, inject our status into the
        // newly-reversed stream, and flip direction.
        down->pushDown(sym);
        pushStatusUp(p, false);
        ++counters_[RouterCounter::turns];
        fState_[p] = FwdPortState::ConnectedRev;
        break;
      case SymbolKind::Drop:
        down->pushDown(sym);
        freeConnection(p);
        ++counters_[RouterCounter::drops];
        break;
      case SymbolKind::Status:
      case SymbolKind::BcbDrop:
        ++counters_[RouterCounter::strayForwardSymbol];
        break;
    }
}

void
MetroRouter::handleConnectedRev(PortIndex p, const Symbol &sym,
                                Cycle cycle)
{
    Link *down = bLink_[fBwd_[p]];
    Link *up = fLink_[p];

    // The forward lane should be quiet while reversed — except for
    // a Drop: the source-responsible endpoint aborts a connection
    // whose reply went missing (watchdog) by closing it from its
    // side. Honour the abort: free this segment and pass the Drop
    // on so the rest of the path unwinds too.
    if (sym.kind == SymbolKind::Drop) {
        ++counters_[RouterCounter::abortDrops];
        down->pushDown(sym);
        freeConnection(p);
        return;
    }
    if (sym.occupied()) {
        // Anything else is in-flight debris of a dead attempt;
        // discard without refreshing the idle clock so a half-dead
        // connection still times out.
        ++counters_[RouterCounter::strayForwardSymbol];
        if (sym.kind == SymbolKind::Data)
            ++share_.words[Words::discardedRouter];
    }

    bRevRead_[fBwd_[p]] = 1;
    const Symbol rsym = down->headUp();
    if (rsym.occupied())
        fLastActivity_[p] = cycle;

    switch (rsym.kind) {
      case SymbolKind::Empty:
        // Hold the connection open through reversal-transient and
        // variable-delay gaps (Section 5.1, Data Idle).
        up->pushUp(Symbol::control(SymbolKind::DataIdle, fMsgId_[p]));
        break;
      case SymbolKind::Data:
        fCrc_[p].update(rsym.value, params_.width);
        up->pushUp(rsym);
        ++counters_[RouterCounter::wordsForwarded];
        break;
      case SymbolKind::DataIdle:
      case SymbolKind::Checksum:
      case SymbolKind::Status:
      case SymbolKind::Ack:
      case SymbolKind::Test:
      case SymbolKind::Header:
        up->pushUp(rsym);
        if (rsym.kind != SymbolKind::DataIdle &&
            rsym.kind != SymbolKind::Status)
            ++counters_[RouterCounter::wordsForwarded];
        break;
      case SymbolKind::Turn:
        // Turn back toward the forward direction: forward the TURN
        // upstream, inject our status toward the new downstream.
        up->pushUp(rsym);
        pushStatusDown(p, false);
        ++counters_[RouterCounter::turns];
        fState_[p] = FwdPortState::ConnectedFwd;
        break;
      case SymbolKind::Drop:
        up->pushUp(rsym);
        freeConnection(p);
        ++counters_[RouterCounter::drops];
        break;
      case SymbolKind::BcbDrop:
        // A connection can block downstream after we reversed only
        // in exotic race conditions; reclaim identically (see the
        // ConnectedFwd case for the Drop-down rationale).
        ++counters_[RouterCounter::bcbForwarded];
        down->pushDown(Symbol::control(SymbolKind::Drop, fMsgId_[p]));
        bBusy_[fBwd_[p]] = 0;
        bOwner_[fBwd_[p]] = kInvalidPort;
        fBwd_[p] = kInvalidPort;
        availDirty_ = true;
        up->pushUp(Symbol::control(SymbolKind::BcbDrop, fMsgId_[p]));
        fState_[p] = FwdPortState::Draining;
        break;
    }
}

void
MetroRouter::processForwardPort(PortIndex p, Cycle cycle)
{
    if (fLink_[p] == nullptr)
        return;

    // The common case by far: an idle port whose arriving head is
    // Empty (so there is nothing to observe, discard, or connect)
    // — the idle-timeout path only applies to non-Idle states, so
    // skip before materializing the symbol. The check reads the
    // head's kind, not the lane occupancy: occupancy counts staged
    // same-cycle pushes, which another shard may be writing
    // concurrently, while the head slot is frozen for the whole of
    // phase 1. An Empty head under Corrupt draws nothing from the
    // fault PRNG, and a Dead link's head reads Empty, so skipping
    // on kind is draw-for-draw identical to reading the symbol.
    if (fState_[p] == FwdPortState::Idle &&
        fLink_[p]->peekKindDown() == SymbolKind::Empty)
        return;

    const Symbol sym = fLink_[p]->headDown();

    if (!config_.forwardEnabled[p]) {
        // Disabled port: isolated from normal operation; only scan
        // test patterns are observed (Section 5.1, Scan Support).
        if (sym.kind == SymbolKind::Test) {
            fLastTest_[p] = sym;
        } else if (sym.occupied()) {
            ++counters_[RouterCounter::disabledPortDiscard];
            if (sym.kind == SymbolKind::Data)
                ++share_.words[Words::discardedRouter];
        }
        return;
    }

    // Idle-timeout cleanup (simulator extension; see RouterConfig).
    if (config_.idleTimeout > 0 && fState_[p] != FwdPortState::Idle &&
        !sym.occupied() &&
        cycle - fLastActivity_[p] > config_.idleTimeout) {
        ++counters_[RouterCounter::idleTimeouts];
        const auto drop =
            Symbol::control(SymbolKind::Drop, fMsgId_[p]);
        switch (fState_[p]) {
          case FwdPortState::ConnectedFwd:
          case FwdPortState::ConnectedRev:
            bLink_[fBwd_[p]]->pushDown(drop);
            fLink_[p]->pushUp(drop);
            break;
          case FwdPortState::BlockedWait:
          case FwdPortState::BlockedDrop:
            fLink_[p]->pushUp(drop);
            break;
          case FwdPortState::Draining:
          case FwdPortState::Idle:
            break;
        }
        freeConnection(p);
        return;
    }

    switch (fState_[p]) {
      case FwdPortState::Idle:
        if (sym.kind == SymbolKind::Header) {
            PendingRequest req;
            req.fwd = p;
            req.direction = extractDirection(sym, cycle);
            req.header = sym;
            pendingScratch_.push_back(req);
        } else if (sym.occupied()) {
            // In-flight remains of a fast-reclaimed stream, or a
            // close marker racing a teardown: discard.
            ++counters_[RouterCounter::idleDiscard];
            if (sym.kind == SymbolKind::Data)
                ++share_.words[Words::discardedRouter];
        }
        break;

      case FwdPortState::ConnectedFwd:
        handleConnectedFwd(p, sym, cycle);
        break;

      case FwdPortState::ConnectedRev:
        handleConnectedRev(p, sym, cycle);
        break;

      case FwdPortState::BlockedWait:
        if (sym.occupied())
            fLastActivity_[p] = cycle;
        switch (sym.kind) {
          case SymbolKind::Data:
            fCrc_[p].update(sym.value, params_.width);
            ++counters_[RouterCounter::blockedDiscard];
            ++share_.words[Words::discardedBlock];
            break;
          case SymbolKind::Turn:
            // Detailed reply: status (with blocked flag and the
            // checksum of everything received) then teardown.
            pushStatusUp(p, true);
            fState_[p] = FwdPortState::BlockedDrop;
            ++counters_[RouterCounter::blockedReplies];
            break;
          case SymbolKind::Drop:
            freeConnection(p);
            break;
          default:
            if (sym.occupied())
                ++counters_[RouterCounter::blockedDiscard];
            break;
        }
        break;

      case FwdPortState::BlockedDrop:
        // The incoming symbol this cycle (already read) is not
        // processed; account a Data word so conservation holds.
        if (sym.kind == SymbolKind::Data)
            ++share_.words[Words::discardedBlock];
        fLink_[p]->pushUp(Symbol::control(SymbolKind::Drop,
                                          fMsgId_[p]));
        freeConnection(p);
        break;

      case FwdPortState::Draining:
        if (sym.kind == SymbolKind::Drop) {
            freeConnection(p);
        } else if (sym.occupied()) {
            fLastActivity_[p] = cycle;
            ++counters_[RouterCounter::drainedWords];
            if (sym.kind == SymbolKind::Data)
                ++share_.words[Words::discardedRouter];
        }
        break;
    }
}

void
MetroRouter::runAllocation(Cycle cycle)
{
    if (pendingScratch_.empty())
        return;

    std::vector<AllocRequest> requests;
    requests.reserve(pendingScratch_.size());
    for (const auto &req : pendingScratch_)
        requests.push_back({req.fwd, req.direction});

    lastGrants_ = allocateCrossbar(
        requests, availScratch_, config_.dilation,
        randomSource_->wordForCycle(cycle),
        config_.randomSelection);

    for (std::size_t k = 0; k < pendingScratch_.size(); ++k) {
        const auto &req = pendingScratch_[k];
        const auto &grant = lastGrants_[k];
        const PortIndex p = req.fwd;
        ++counters_[RouterCounter::requests];

        if (grant.granted()) {
            ++counters_[RouterCounter::grants];
            if (observer_ != nullptr)
                observer_->onGrant(id_, stage_, req.header.msgId,
                                   cycle);
            fState_[p] = FwdPortState::ConnectedFwd;
            fBwd_[p] = grant.backwardPort;
            fDirection_[p] = req.direction;
            fMsgId_[p] = req.header.msgId;
            fCrc_[p].reset();
            fLastActivity_[p] = cycle;
            bBusy_[grant.backwardPort] = 1;
            bOwner_[grant.backwardPort] = req.fwd;
            availDirty_ = true;

            const unsigned bits = directionBits();
            fPosAfter_[p] =
                static_cast<std::uint16_t>(req.header.routePos + bits);

            if (params_.headerWords > 0) {
                // Pipelined setup: this word plus hw-1 more are
                // consumed from the stream head.
                fConsumeLeft_[p] = params_.headerWords - 1;
                fFirstHeaderDone_[p] = 1;
                fSwallowFirst_[p] = 0;
                ++counters_[RouterCounter::headerConsumed];
            } else {
                fConsumeLeft_[p] = 0;
                fFirstHeaderDone_[p] = 0;
                const unsigned w = params_.width;
                const unsigned word_end =
                    (req.header.routePos / w + 1) * w;
                const unsigned limit = std::min<unsigned>(
                    word_end, req.header.routeLen);
                fSwallowFirst_[p] = config_.swallow[req.fwd] &&
                                    fPosAfter_[p] >= limit;
                // Route the first header word right now.
                if (fSwallowFirst_[p]) {
                    fFirstHeaderDone_[p] = 1;
                    ++counters_[RouterCounter::headerSwallowed];
                } else {
                    fFirstHeaderDone_[p] = 1;
                    forwardHeader(p, req.header);
                }
            }
        } else {
            ++counters_[RouterCounter::blocks];
            if (observer_ != nullptr)
                observer_->onBlock(id_, stage_, req.header.msgId,
                                   cycle);
            fMsgId_[p] = req.header.msgId;
            fDirection_[p] = req.direction;
            fLastActivity_[p] = cycle;
            if (config_.fastReclaim[req.fwd]) {
                // Fast path reclamation: immediately propagate the
                // backward control bit; resources here are never
                // held.
                ++counters_[RouterCounter::bcbSent];
                fLink_[p]->pushUp(Symbol::control(SymbolKind::BcbDrop,
                                                  fMsgId_[p]));
                fState_[p] = FwdPortState::Draining;
            } else {
                fCrc_[p].reset();
                fState_[p] = FwdPortState::BlockedWait;
            }
        }
    }
}

void
MetroRouter::tick(Cycle cycle)
{
    lastGrants_.clear();
    if (dead_) {
        // A dead router consumes nothing: census the Data words
        // arriving on its lanes this cycle so the conservation
        // identity survives router failures. Kind-only peeks never
        // touch the fault PRNG.
        for (const auto *l : fLink_) {
            if (l != nullptr && l->peekKindDown() == SymbolKind::Data)
                ++share_.words[Words::discardedRouter];
        }
        for (const auto *l : bLink_) {
            if (l != nullptr && l->peekKindUp() == SymbolKind::Data)
                ++share_.words[Words::discardedRouter];
        }
        return;
    }

    // Snapshot availability before any teardown this cycle: a port
    // freed in cycle t accepts new connections from t+1, which also
    // guarantees single-push-per-lane. Mid-tick mutations only mark
    // the snapshot dirty, so the refill here reproduces exactly the
    // start-of-cycle state an every-tick refill saw.
    if (availDirty_) {
        fillAvailability();
        availDirty_ = false;
    }

    std::fill(bRevRead_.begin(), bRevRead_.end(), 0);

    pendingScratch_.clear();
    for (PortIndex p = 0; p < fLink_.size(); ++p)
        processForwardPort(p, cycle);

    runAllocation(cycle);

    // Word conservation: census the reverse lanes no connection
    // handler consumed this cycle (freed, never-owned, or
    // just-granted ports) — Data arriving there evaporates. peekUp()
    // never touches the fault PRNG, so the census is invisible to
    // the simulation proper.
    unsigned busyPorts = 0;
    for (std::size_t b = 0; b < bLink_.size(); ++b) {
        if (bBusy_[b])
            ++busyPorts;
        if (bLink_[b] != nullptr && !bRevRead_[b] &&
            bLink_[b]->peekKindUp() == SymbolKind::Data) {
            ++share_.words[Words::discardedRouter];
        }
    }
    share_.occupancy.sample(busyPorts);

    // Off Port Drive Output (Table 2): disabled backward ports with
    // drive enabled hold the wire at DATA-IDLE. Armed only while
    // some disabled port has drive configured (rare).
    if (offPortDriveArmed_) {
        for (PortIndex b = 0; b < bLink_.size(); ++b) {
            if (!config_.backwardEnabled[b] &&
                config_.offPortDrive[b] && bLink_[b] != nullptr &&
                !bBusy_[b]) {
                bLink_[b]->pushDown(
                    Symbol::control(SymbolKind::DataIdle));
            }
        }
    }
}

void
MetroRouter::setForwardEnabled(PortIndex p, bool enabled)
{
    METRO_ASSERT(p < fLink_.size(), "forward port %u out of range", p);
    wake();
    if (!enabled)
        teardownPort(p);
    config_.forwardEnabled[p] = enabled;
}

void
MetroRouter::setBackwardEnabled(PortIndex p, bool enabled)
{
    METRO_ASSERT(p < bLink_.size(), "backward port %u out of range", p);
    wake();
    if (!enabled && bBusy_[p])
        teardownPort(bOwner_[p]);
    config_.backwardEnabled[p] = enabled;
    availDirty_ = true;
    refreshOffPortDrive();
}

void
MetroRouter::setFastReclaim(PortIndex p, bool fast)
{
    METRO_ASSERT(p < fLink_.size(), "forward port %u out of range", p);
    wake();
    config_.fastReclaim[p] = fast;
}

void
MetroRouter::setDilation(unsigned dilation)
{
    wake();
    RouterConfig next = config_;
    next.dilation = dilation;
    next.validate(params_);
    config_ = next;
    availDirty_ = true;
    refreshOffPortDrive();
}

FwdPortState
MetroRouter::forwardState(PortIndex p) const
{
    METRO_ASSERT(p < fLink_.size(), "forward port %u out of range", p);
    return fState_[p];
}

bool
MetroRouter::backwardBusy(PortIndex p) const
{
    METRO_ASSERT(p < bLink_.size(), "backward port %u out of range", p);
    return bBusy_[p] != 0;
}

PortIndex
MetroRouter::connectedBackward(PortIndex fwd) const
{
    METRO_ASSERT(fwd < fLink_.size(), "forward port %u out of range",
                 fwd);
    return fBwd_[fwd];
}

bool
MetroRouter::canSleep() const
{
    // Any attached active link may deliver a symbol (or, dead with
    // words still draining, needs its exit census observed): stay
    // awake until every lane is fast-pathed.
    for (const auto *l : fLink_) {
        if (l != nullptr && l->active())
            return false;
    }
    for (const auto *l : bLink_) {
        if (l != nullptr && l->active())
            return false;
    }
    // A dead router's tick is a pure peek census — a no-op on
    // drained lanes regardless of connection state left behind.
    if (dead_)
        return true;
    if (!quiescent())
        return false;
    // Off Port Drive (Table 2) pushes DATA-IDLE every tick. The
    // check cannot be replaced by "the driven link is active": a
    // wake between the drive becoming effective and our next tick
    // (e.g. setBackwardEnabled(false)) would otherwise re-sleep us
    // before the first DATA-IDLE ever goes out.
    for (PortIndex b = 0; b < bLink_.size(); ++b) {
        if (!config_.backwardEnabled[b] && config_.offPortDrive[b] &&
            bLink_[b] != nullptr && !bBusy_[b])
            return false;
    }
    return true;
}

void
MetroRouter::syncSkipped(Cycle from, Cycle upto)
{
    // An eagerly-ticked quiescent router samples its (zero) busy
    // backward-port count every cycle; a dead one samples nothing.
    // Catch up in one batch so the per-router occupancy histogram
    // is bit-identical with the scheduler on and off.
    if (!dead_ && upto > from)
        share_.occupancy.sample(0, upto - from);
}

bool
MetroRouter::quiescent() const
{
    for (const auto state : fState_) {
        if (state != FwdPortState::Idle)
            return false;
    }
    for (const auto busy : bBusy_) {
        if (busy)
            return false;
    }
    return true;
}

Symbol
MetroRouter::lastTestSymbol(PortIndex p) const
{
    METRO_ASSERT(p < fLink_.size(), "forward port %u out of range", p);
    return fLastTest_[p];
}

void
MetroRouter::driveTestSymbol(PortIndex p, const Symbol &s)
{
    METRO_ASSERT(p < bLink_.size(), "backward port %u out of range", p);
    METRO_ASSERT(!config_.backwardEnabled[p],
                 "test drive requires a disabled port");
    METRO_ASSERT(bLink_[p] != nullptr, "port %u unattached", p);
    bLink_[p]->pushDown(s);
}

void
MetroRouter::releaseBackward(PortIndex b)
{
    METRO_ASSERT(b < bLink_.size(), "backward port %u out of range", b);
    if (bBusy_[b]) {
        ++counters_[RouterCounter::cascadeShutdown];
        freeConnection(bOwner_[b]);
    }
}

void
MetroRouter::shutdownAllConnections()
{
    for (PortIndex p = 0; p < fLink_.size(); ++p) {
        if (fState_[p] != FwdPortState::Idle) {
            ++counters_[RouterCounter::cascadeShutdown];
            freeConnection(p);
        }
    }
}

} // namespace metro
