#include "serve/service.hh"

#include <algorithm>
#include <limits>

#include <unistd.h>

#include "app/knob.hh"
#include "endpoint/interface.hh"
#include "network/analysis.hh"
#include "network/network.hh"
#include "report/json.hh"
#include "router/tap.hh"
#include "serve/stateio.hh"
#include "sim/engine.hh"
#include "sim/link.hh"

namespace metro
{

namespace
{

const char *
phaseName(std::uint8_t phase)
{
    switch (phase) {
      case 0:
        return "pending";
      case 1:
        return "draining";
      case 2:
        return "disabled";
      case 3:
        return "reenabling";
      default:
        return "done";
    }
}

} // namespace

bool
parseMaintenanceOp(const std::string &text, MaintenanceOp &op)
{
    const auto at = text.find('@');
    const auto plus = text.find('+', at == std::string::npos ? 0 : at);
    if (at == std::string::npos || plus == std::string::npos ||
        at == 0 || plus <= at + 1 || plus + 1 >= text.size())
        return false;
    std::uint64_t router = 0;
    if (!parseU64(text.substr(0, at), router) ||
        router > std::numeric_limits<RouterId>::max() ||
        !parseU64(text.substr(at + 1, plus - at - 1), op.start) ||
        !parseU64(text.substr(plus + 1), op.duration))
        return false;
    op.router = static_cast<RouterId>(router);
    return true;
}

std::string
conservationViolation(const Network &net,
                      const MetricsRegistry &snapshot)
{
    const auto injected = snapshot.get("words.injected");
    const auto delivered = snapshot.get("words.delivered");
    const auto block = snapshot.get("words.discarded.block");
    const auto router = snapshot.get("words.discarded.router");
    const auto endpoint = snapshot.get("words.discarded.endpoint");
    const auto wire = snapshot.get("words.discarded.wire");
    const auto inflight = net.inFlightDataWords();
    if (injected !=
        delivered + block + router + endpoint + wire + inflight) {
        return "wire conservation violated: injected=" +
               std::to_string(injected) +
               " != delivered=" + std::to_string(delivered) +
               " + block=" + std::to_string(block) +
               " + router=" + std::to_string(router) +
               " + endpoint=" + std::to_string(endpoint) +
               " + wire=" + std::to_string(wire) +
               " + inflight=" + std::to_string(inflight);
    }
    const auto submitted = snapshot.get("words.submitted");
    const auto admitted = snapshot.get("words.admitted");
    const auto shed = snapshot.get("words.shed.admission");
    if (submitted != admitted + shed) {
        return "admission conservation violated: submitted=" +
               std::to_string(submitted) +
               " != admitted=" + std::to_string(admitted) +
               " + shed=" + std::to_string(shed);
    }
    return "";
}

ServiceRunner::ServiceRunner(const ServeConfig &config,
                             CheckpointParticipants parts)
    : config_(config), parts_(std::move(parts))
{
    METRO_ASSERT(parts_.net != nullptr, "serve needs a network");
    METRO_ASSERT(config_.window > 0, "window must be positive");
    retireMargin_ = longestRouteLatency(*parts_.net);
    ops_.resize(config_.maintenance.size());
    prev_ = parts_.net->metricsSnapshot();
    nextCheckpointAt_ = config_.checkpointEvery;
    if (config_.checkpointEvery > 0 &&
        !config_.checkpointOut.empty()) {
        store_ = std::make_unique<CheckpointStore>(
            config_.checkpointOut, config_.checkpointKeep);
        // A malformed manifest is surfaced on first store use, not
        // here (constructors cannot return errors).
        storeLoadError_ = store_->load();
    }
}

void
ServiceRunner::setEmitter(std::function<void(const std::string &)> emit)
{
    emit_ = std::move(emit);
}

void
ServiceRunner::setHeartbeat(std::function<void(Cycle)> heartbeat)
{
    heartbeat_ = std::move(heartbeat);
}

bool
ServiceRunner::routerDrained(RouterId r) const
{
    Network &net = *parts_.net;
    if (!net.router(r).quiescent())
        return false;
    for (LinkId l = 0; l < net.numLinks(); ++l) {
        const Link &link = net.link(l);
        const auto touches = [r](const LinkEnd &e) {
            return (e.kind == AttachKind::RouterForward ||
                    e.kind == AttachKind::RouterBackward) &&
                   e.id == r;
        };
        if (!touches(link.endA()) && !touches(link.endB()))
            continue;
        if (link.downOccupied() != 0 || link.upOccupied() != 0)
            return false;
    }
    return true;
}

void
ServiceRunner::beginDrain(const MaintenanceOp &op, OpState &st)
{
    Network &net = *parts_.net;
    st.feeders.clear();
    for (LinkId l = 0; l < net.numLinks(); ++l) {
        const LinkEnd &b = net.link(l).endB();
        if (b.kind != AttachKind::RouterForward || b.id != op.router)
            continue;
        const LinkEnd &a = net.link(l).endA();
        OpState::Feeder f;
        if (a.kind == AttachKind::RouterBackward) {
            f.fromRouter = true;
            f.id = a.id;
            f.port = a.port;
            f.prevEnabled =
                net.router(a.id).config().backwardEnabled[a.port];
        } else if (a.kind == AttachKind::Endpoint) {
            f.fromRouter = false;
            f.id = a.id;
            f.port = a.subPort; // injection-port group index
            f.prevEnabled = net.endpoint(a.id).outPortEnabled(a.subPort);
        } else {
            continue;
        }
        // Cascade slices of one endpoint group can land on several
        // routers; one disable covers them all.
        const auto dup = std::find_if(
            st.feeders.begin(), st.feeders.end(),
            [&f](const OpState::Feeder &g) {
                return g.fromRouter == f.fromRouter && g.id == f.id &&
                       g.port == f.port;
            });
        if (dup != st.feeders.end())
            continue;
        st.feeders.push_back(f);
        if (f.fromRouter)
            Tap(&net.router(f.id))
                .writeBackwardEnable(f.port, false);
        else
            net.endpoint(f.id).setOutPortEnabled(f.port, false);
    }
}

void
ServiceRunner::disableRouter(const MaintenanceOp &op, OpState &st)
{
    Network &net = *parts_.net;
    MetroRouter &rt = net.router(op.router);
    Tap tap(&rt);
    const RouterConfig &cfg = rt.config();
    st.savedForward.assign(cfg.forwardEnabled.size(), 0);
    st.savedBackward.assign(cfg.backwardEnabled.size(), 0);
    for (std::size_t p = 0; p < st.savedForward.size(); ++p)
        st.savedForward[p] = cfg.forwardEnabled[p] ? 1 : 0;
    for (std::size_t p = 0; p < st.savedBackward.size(); ++p)
        st.savedBackward[p] = cfg.backwardEnabled[p] ? 1 : 0;
    for (PortIndex p = 0;
         p < static_cast<PortIndex>(st.savedForward.size()); ++p)
        tap.writeForwardEnable(p, false);
    for (PortIndex p = 0;
         p < static_cast<PortIndex>(st.savedBackward.size()); ++p)
        tap.writeBackwardEnable(p, false);
}

bool
ServiceRunner::stepReenable(const MaintenanceOp &op, OpState &st)
{
    Network &net = *parts_.net;
    const std::uint64_t nB = st.savedBackward.size();
    const std::uint64_t nF = st.savedForward.size();
    if (st.reenableCursor < nB + nF) {
        Tap tap(&net.router(op.router));
        if (st.reenableCursor < nB) {
            // Reverse of disable order: last-disabled first.
            const auto p = static_cast<PortIndex>(
                nB - 1 - st.reenableCursor);
            tap.writeBackwardEnable(p, st.savedBackward[p] != 0);
        } else {
            const auto p = static_cast<PortIndex>(
                nF - 1 - (st.reenableCursor - nB));
            tap.writeForwardEnable(p, st.savedForward[p] != 0);
        }
        ++st.reenableCursor;
        return false;
    }
    // All router ports back; release the feeders in one go.
    for (const OpState::Feeder &f : st.feeders) {
        if (f.fromRouter)
            Tap(&net.router(f.id))
                .writeBackwardEnable(f.port, f.prevEnabled);
        else
            net.endpoint(f.id).setOutPortEnabled(f.port,
                                                 f.prevEnabled);
    }
    return true;
}

void
ServiceRunner::maintenanceTick(Cycle now)
{
    for (std::size_t k = 0; k < ops_.size(); ++k) {
        const MaintenanceOp &op = config_.maintenance[k];
        OpState &st = ops_[k];
        switch (st.phase) {
          case OpState::Phase::Pending:
            if (now >= op.start) {
                beginDrain(op, st);
                st.phase = OpState::Phase::Draining;
            }
            break;
          case OpState::Phase::Draining:
            if (routerDrained(op.router)) {
                disableRouter(op, st);
                st.phase = OpState::Phase::Disabled;
            }
            break;
          case OpState::Phase::Disabled:
            if (now >= op.start + op.duration) {
                st.reenableCursor = 0;
                st.phase = OpState::Phase::Reenabling;
                // First rolling step happens this boundary.
                if (stepReenable(op, st))
                    st.phase = OpState::Phase::Done;
            }
            break;
          case OpState::Phase::Reenabling:
            if (stepReenable(op, st))
                st.phase = OpState::Phase::Done;
            break;
          case OpState::Phase::Done:
            break;
        }
    }
}

std::string
ServiceRunner::windowJson(Cycle now, const MetricsRegistry &delta,
                          std::uint64_t inflight) const
{
    std::string out = "{\"window\":" + std::to_string(windowIndex_) +
                      ",\"cycle\":" + std::to_string(now) +
                      ",\"inflight\":" + std::to_string(inflight);
    if (!ops_.empty()) {
        out += ",\"maintenance\":[";
        for (std::size_t k = 0; k < ops_.size(); ++k) {
            if (k > 0)
                out += ",";
            out += "{\"router\":" +
                   std::to_string(config_.maintenance[k].router) +
                   ",\"phase\":\"" +
                   phaseName(
                       static_cast<std::uint8_t>(ops_[k].phase)) +
                   "\"}";
        }
        out += "]";
    }
    out += ",\"counters\":{";
    bool first = true;
    for (const auto &[name, value] : delta.counters()) {
        if (value == 0)
            continue;
        if (!first)
            out += ",";
        first = false;
        out += jsonQuote(name) + ":" + std::to_string(value);
    }
    out += "}";
    // This window's histogram deltas (occupied buckets only) — the
    // SLO aggregator computes per-window latency percentiles from
    // these. Deterministic: std::map order, simulated values only.
    bool firstHist = true;
    for (const auto &[name, h] : delta.histograms()) {
        if (h.count() == 0)
            continue;
        out += firstHist ? ",\"hist\":{" : ",";
        firstHist = false;
        out += jsonQuote(name) + ":{\"n\":" + std::to_string(h.count()) +
               ",\"sum\":" + std::to_string(h.sum()) + ",\"b\":[";
        bool firstBucket = true;
        for (unsigned k = 0; k < LogHistogram::kBuckets; ++k) {
            if (h.bucket(k) == 0)
                continue;
            if (!firstBucket)
                out += ",";
            firstBucket = false;
            out += "[" +
                   std::to_string(LogHistogram::bucketFloor(k)) +
                   "," + std::to_string(h.bucket(k)) + "]";
        }
        out += "]}";
    }
    if (!firstHist)
        out += "}";
    out += "}";
    return out;
}

template <class Ar, class Self>
void
ServiceRunner::state(Ar &ar, Self &self)
{
    Network &net = *self.parts_.net;
    ar.u64(self.windowIndex_);
    ar.u8(self.checkpointDone_);
    // The saver advanced its schedule before serializing, so this is
    // the next due cycle from the restore point onward.
    ar.u64(self.nextCheckpointAt_);
    ar.expectSize(self.ops_.size(), 10,
                  "maintenance op count mismatch (same --maintain "
                  "flags required on restore)");
    for (std::size_t k = 0; k < self.ops_.size(); ++k) {
        const MaintenanceOp &op = self.config_.maintenance[k];
        ar.staged(self.ops_[k], [&](auto &ar, auto &st) {
            ar.enumeration(st.phase, OpState::Phase::Done,
                           "invalid maintenance phase");
            ar.u64(st.reenableCursor);
            ar.seq(st.feeders, 10, [&net](auto &ar, auto &f) {
                ar.u8(f.fromRouter);
                ar.u32(f.id);
                ar.u32(f.port);
                ar.u8(f.prevEnabled);
                ar.check(
                    [&] {
                        if (f.fromRouter)
                            return f.id < net.numRouters() &&
                                   f.port < net.router(f.id)
                                                .config()
                                                .backwardEnabled.size();
                        return f.id < net.numEndpoints() &&
                               f.port < net.endpoint(f.id).numOutPorts();
                    },
                    "maintenance feeder out of range");
            });
            const auto byte = [](auto &ar, auto &v) { ar.u8(v); };
            ar.seq(st.savedForward, 1, byte);
            ar.seq(st.savedBackward, 1, byte);
            ar.check([&] { return op.router < net.numRouters(); },
                     "maintenance router out of range");
            ar.check(
                [&] {
                    const RouterConfig &cfg =
                        net.router(op.router).config();
                    const std::size_t nFwd = st.savedForward.size();
                    const std::size_t nBwd = st.savedBackward.size();
                    return (nFwd == 0 ||
                            nFwd == cfg.forwardEnabled.size()) &&
                           (nBwd == 0 ||
                            nBwd == cfg.backwardEnabled.size());
                },
                "maintenance saved-enable size mismatch");
            ar.check(
                [&] {
                    return st.reenableCursor <=
                           st.savedForward.size() +
                               st.savedBackward.size();
                },
                "maintenance re-enable cursor out of range");
        });
    }
}

std::vector<std::uint8_t>
ServiceRunner::checkpointBytes() const
{
    StateWriter harness;
    state(harness, *this);
    return saveCheckpointBytes(config_.configDigest, parts_,
                               harness.buffer());
}

std::string
ServiceRunner::restoreHarness(const std::vector<std::uint8_t> &blob)
{
    if (!blob.empty()) {
        StateReader r(blob.data(), blob.size());
        state(r, *this);
        if (!r.ok())
            return r.error();
    } else {
        // Checkpoint taken outside serve mode: derive the window
        // index from the clock (serve always starts at cycle 0).
        windowIndex_ = parts_.net->engine().now() / config_.window;
    }
    // The boundary snapshot is a pure function of restored state;
    // recomputing it reproduces the saver's byte-for-byte.
    prev_ = parts_.net->metricsSnapshot();
    return "";
}

std::string
ServiceRunner::restoreFromBytes(const std::uint8_t *data,
                                std::size_t size)
{
    std::vector<std::uint8_t> blob;
    const std::string err = restoreCheckpointBytes(
        data, size, config_.configDigest, parts_, &blob);
    return err.empty() ? restoreHarness(blob) : err;
}

std::string
ServiceRunner::restoreFromFile(const std::string &path)
{
    std::vector<std::uint8_t> blob;
    const std::string err = readCheckpointFile(
        path, config_.configDigest, parts_, &blob);
    return err.empty() ? restoreHarness(blob) : err;
}

std::string
ServiceRunner::checkpointToFile(const std::string &path)
{
    return writeCheckpointBytesDurably(path, checkpointBytes());
}

std::string
ServiceRunner::checkpointToStore()
{
    if (store_ == nullptr)
        return "periodic checkpointing not configured "
               "(--checkpoint-every with --checkpoint-out)";
    if (!storeLoadError_.empty())
        return storeLoadError_;
    return store_->write(parts_.net->engine().now(), checkpointBytes());
}

std::string
ServiceRunner::restoreFromStore(bool &restored)
{
    restored = false;
    if (store_ == nullptr)
        return "periodic checkpointing not configured "
               "(--checkpoint-every with --checkpoint-out)";
    if (!storeLoadError_.empty())
        return storeLoadError_;
    for (const auto &entry : store_->entries()) {
        std::vector<std::uint8_t> bytes;
        std::string err = store_->read(entry, bytes);
        if (err.empty())
            err = verifyCheckpointFooter(bytes.data(), bytes.size(),
                                         nullptr);
        if (!err.empty()) {
            // Fall back to the next-newest retained checkpoint: a
            // torn or bit-flipped file must not take the service
            // down when an older valid recovery point exists.
            std::fprintf(stderr,
                         "metro_sim: skipping checkpoint %s: %s\n",
                         store_->pathOf(entry).c_str(),
                         err.c_str());
            continue;
        }
        // Footer-valid: restore for real. A failure past this
        // point may have partially overwritten the instance, so it
        // is a hard error, not a fallback.
        err = restoreFromBytes(bytes.data(), bytes.size());
        if (!err.empty())
            return "restoring " + store_->pathOf(entry) + ": " +
                   err;
        restored = true;
        return "";
    }
    return "";
}

std::string
ServiceRunner::run(const std::function<bool()> &stop_requested)
{
    Network &net = *parts_.net;
    Engine &eng = net.engine();
    for (;;) {
        if (stop_requested && stop_requested())
            return "";
        if (config_.runCycles != 0 && eng.now() >= config_.runCycles)
            return "";
        Cycle target = eng.now() + config_.window;
        if (config_.runCycles != 0)
            target = std::min(target, config_.runCycles);

        // Deterministic fault injection: cut the engine run at the
        // injected cycle so the crash/stall lands exactly there —
        // mid-window, at a boundary, or mid-maintenance-drain. A
        // cycle the clock is already past (restored beyond it) is
        // inert.
        const Cycle before = eng.now();
        Cycle cut = target;
        if (config_.stallAtCycle > before &&
            config_.stallAtCycle <= cut)
            cut = config_.stallAtCycle;
        if (config_.crashAtCycle > before &&
            config_.crashAtCycle <= cut)
            cut = config_.crashAtCycle;
        eng.run(cut - before);
        if (config_.crashAtCycle != 0 &&
            eng.now() == config_.crashAtCycle) {
            std::fprintf(stderr,
                         "metro_sim: injected crash at cycle %llu\n",
                         static_cast<unsigned long long>(
                             eng.now()));
            std::fflush(stderr);
            std::abort();
        }
        if (config_.stallAtCycle != 0 &&
            eng.now() == config_.stallAtCycle) {
            // Hang without exiting or heartbeating: the stalled-
            // child shape the supervisor's watchdog must catch and
            // SIGKILL.
            std::fprintf(stderr,
                         "metro_sim: injected stall at cycle "
                         "%llu\n",
                         static_cast<unsigned long long>(
                             eng.now()));
            std::fflush(stderr);
            for (;;)
                ::pause();
        }
        const Cycle now = eng.now();

        // Retire resolved records before anything reads or saves the
        // boundary state, so a checkpoint never holds a record the
        // uninterrupted run has already dropped. A record resolved
        // at least retireMargin_ cycles ago has no symbol left in
        // flight, so nothing can name it again.
        if (now >= retireMargin_) {
            const std::string breach =
                net.tracker().retire(now - retireMargin_);
            if (!breach.empty())
                return "window " + std::to_string(windowIndex_) +
                       " (cycle " + std::to_string(now) +
                       "): " + breach;
        }

        maintenanceTick(now);

        const MetricsRegistry snap = net.metricsSnapshot();
        const std::string violation =
            conservationViolation(net, snap);
        if (!violation.empty())
            return "window " + std::to_string(windowIndex_) +
                   " (cycle " + std::to_string(now) +
                   "): " + violation;
        if (emit_)
            emit_(windowJson(now, snap.deltaSince(prev_),
                             net.inFlightDataWords()));
        prev_ = snap;
        ++windowIndex_;

        if (heartbeat_)
            heartbeat_(now);

        if (store_ != nullptr && config_.checkpointEvery != 0 &&
            now >= nextCheckpointAt_) {
            // Advance the schedule *before* serializing (same
            // reasoning as checkpointDone_): the restored run must
            // next checkpoint where the uninterrupted one would
            // have, not re-write this one.
            nextCheckpointAt_ =
                (now / config_.checkpointEvery + 1) *
                config_.checkpointEvery;
            const std::string err = checkpointToStore();
            if (!err.empty())
                return err;
        }

        if (!checkpointDone_ && config_.checkpointAt != 0 &&
            !config_.checkpointOut.empty() &&
            now >= config_.checkpointAt) {
            // Mark done *before* serializing so the restored run
            // does not write the checkpoint again.
            checkpointDone_ = true;
            const std::string err =
                checkpointToFile(config_.checkpointOut);
            if (!err.empty())
                return err;
        }
    }
}

} // namespace metro
