#include "traffic/experiment.hh"

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <vector>

#include "traffic/drivers.hh"
#include "traffic/session.hh"

namespace metro
{

namespace
{

template <typename DriverT, typename MakeDriver>
ExperimentResult
runExperiment(Network &net, const ExperimentConfig &config,
              MakeDriver make_driver)
{
    const auto n = static_cast<unsigned>(net.numEndpoints());
    DestinationGenerator dests(config.pattern, n, config.seed ^ 0x77,
                               config.hotNode, config.hotFraction);

    DriverConfig dcfg;
    dcfg.messageWords = config.messageWords;
    dcfg.requestReply = config.requestReply;
    dcfg.process = config.process;
    dcfg.size = config.size;
    dcfg.fanout = config.fanout;
    dcfg.classMix = config.classMix;

    Engine &engine = net.engine();
    const Cycle start = engine.now();
    const Cycle measure_from = start + config.warmup;
    const Cycle measure_to = measure_from + config.measure;
    dcfg.measureFrom = measure_from;
    dcfg.measureTo = measure_to;
    dcfg.stopAt = measure_to;

    // Experiment-reset contract: snapshot the message-id horizon
    // and the cumulative entity counters so a previous experiment
    // on this network is invisible to this one's accounting.
    const std::uint64_t first_id = net.tracker().nextId();
    const RouterCounters routers_base = net.routerCounters();
    const NiCounters nis_base = net.endpointCounters();
    const MetricsRegistry metrics_base = net.metricsSnapshot();

    const auto active = static_cast<unsigned>(
        config.activeFraction * n + 0.5);
    std::vector<std::unique_ptr<DriverT>> drivers;
    for (unsigned e = 0; e < n && e < active; ++e) {
        drivers.push_back(
            make_driver(&net.endpoint(e), &dests, dcfg, e));
        engine.addComponent(drivers.back().get());
    }

    engine.run(config.warmup + config.measure);

    // Drain: run until every message *this experiment* submitted
    // resolves (messages from earlier runs are already settled and
    // must not be re-examined).
    const auto all_resolved = [&net, first_id]() {
        for (const auto &[id, rec] : net.tracker().all()) {
            if (id >= first_id && !rec.succeeded && !rec.gaveUp)
                return false;
        }
        return true;
    };
    engine.runUntil(all_resolved, config.drainMax);

    ExperimentResult result;
    result.activeEndpoints = static_cast<unsigned>(drivers.size());

    // Delivered-message availability: slice the measurement window
    // into availabilityWindow-sized pieces and mark each piece that
    // saw at least one delivery.
    const Cycle avail_w =
        config.availabilityWindow == 0 ? config.measure
                                       : config.availabilityWindow;
    const std::uint64_t n_windows =
        config.measure == 0
            ? 0
            : (config.measure + avail_w - 1) / avail_w;
    std::vector<bool> window_alive(n_windows, false);

    std::uint64_t measured_words = 0;
    // Per-driving-endpoint goodput words (drivers attach to
    // endpoints 0..active-1), for the Jain fairness index.
    std::vector<double> ep_words(drivers.size(), 0.0);
    // RPC fan-out groups: leg rollup keyed by the group id (the
    // head leg's message id). An ordered map keeps reduction order
    // deterministic regardless of tracker hashing.
    struct RpcGroup
    {
        Cycle firstSubmit = kNever;
        Cycle lastComplete = 0;
        unsigned legs = 0;
        unsigned succeeded = 0;
        unsigned fanout = 0;
    };
    std::map<std::uint64_t, RpcGroup> rpc_groups;
    for (const auto &[id, rec] : net.tracker().all()) {
        if (id < first_id)
            continue; // a previous experiment's message
        METRO_ASSERT(rec.deliveredCount <= 1,
                     "exactly-once breached: message %llu delivered "
                     "%u times",
                     static_cast<unsigned long long>(id),
                     rec.deliveredCount);
        if (rec.rpcFanout > 0 && rec.rpcGroup != 0) {
            auto &g = rpc_groups[rec.rpcGroup];
            g.firstSubmit = std::min(g.firstSubmit, rec.submitCycle);
            if (rec.completeCycle != kNever)
                g.lastComplete =
                    std::max(g.lastComplete, rec.completeCycle);
            ++g.legs;
            if (rec.succeeded && rec.replyOk)
                ++g.succeeded;
            g.fanout = rec.rpcFanout;
        }
        if (rec.deliverCycle != kNever &&
            rec.deliverCycle >= measure_from &&
            rec.deliverCycle < measure_to) {
            const std::uint64_t w =
                (rec.deliverCycle - measure_from) / avail_w;
            if (w < n_windows)
                window_alive[w] = true;
        }
        if (rec.succeeded)
            ++result.completedMessages;
        else if (rec.gaveUp)
            ++result.gaveUpMessages;
        else
            ++result.unresolvedMessages;

        const bool in_window = rec.submitCycle >= measure_from &&
                               rec.submitCycle < measure_to;
        if (!in_window)
            continue;
        ++result.measuredMessages;
        const unsigned tc =
            rec.trafficClass < kTrafficClasses ? rec.trafficClass : 0;
        // Tail/fairness accounting sees every resolved message —
        // give-ups included, so abandoning senders stay visible.
        if (rec.succeeded || rec.gaveUp) {
            result.attemptsAll.sample(rec.attempts);
            if (rec.completeCycle != kNever &&
                rec.completeCycle >= rec.submitCycle)
                result.maxMessageAge =
                    std::max(result.maxMessageAge,
                             rec.completeCycle - rec.submitCycle);
        }
        if (rec.gaveUp && !rec.succeeded)
            ++result.classes[tc].gaveUp;
        if (rec.succeeded) {
            result.latency.sample(rec.latency());
            result.attempts.sample(rec.attempts);
            // Per-message wire footprint: with a size distribution
            // the payload length varies per message, so read it off
            // the record instead of the fixed config value.
            std::uint64_t msg_words = rec.payload.size() + 1;
            // Request-reply traffic also delivers the reply words
            // (plus their checksum word) back to the source — but
            // only when the reply resolved inside the measurement
            // window. A reply landing during the drain phase is
            // divided by the same fixed window length, which would
            // inflate achievedLoad (and the Jain index) at high
            // latency.
            if (rec.replyOk && rec.completeCycle != kNever &&
                rec.completeCycle < measure_to)
                msg_words += rec.reply.size() + 1;
            measured_words += msg_words;
            if (rec.src < ep_words.size())
                ep_words[rec.src] +=
                    static_cast<double>(msg_words);
            auto &slo = result.classes[tc];
            slo.latency.sample(rec.latency());
            ++slo.completed;
            slo.goodputWords += msg_words;
        }
    }

    // RPC fan-out groups: a group is measured when its first leg
    // was submitted inside the window; it completed when every one
    // of its K legs succeeded with a reply. Group latency spans
    // first-leg submit to last-leg completion.
    for (const auto &[gid, g] : rpc_groups) {
        if (g.firstSubmit < measure_from ||
            g.firstSubmit >= measure_to)
            continue;
        ++result.rpcGroups;
        if (g.fanout > 0 && g.legs == g.fanout &&
            g.succeeded == g.fanout) {
            ++result.rpcGroupsCompleted;
            result.rpcLatency.sample(g.lastComplete - g.firstSubmit);
        }
    }

    // Both attempt histograms sample the same resolved messages
    // when nobody gave up (attemptsAll additionally sees give-ups);
    // a count mismatch means the two sampling sites drifted apart.
    METRO_ASSERT(result.gaveUpMessages != 0 ||
                     result.attempts.count() ==
                         result.attemptsAll.count(),
                 "attempts histograms disagree on a give-up-free "
                 "run: %llu (success-only) vs %llu (all)",
                 static_cast<unsigned long long>(
                     result.attempts.count()),
                 static_cast<unsigned long long>(
                     result.attemptsAll.count()));

    // Jain fairness index over the driving endpoints' goodput.
    double ep_sum = 0.0;
    double ep_sumsq = 0.0;
    for (double w : ep_words) {
        ep_sum += w;
        ep_sumsq += w * w;
    }
    result.jainGoodput =
        ep_sum > 0.0
            ? ep_sum * ep_sum /
                  (static_cast<double>(ep_words.size()) * ep_sumsq)
            : 0.0;

    // Load is normalized to the endpoints actually driving traffic
    // (the injection capacity in use); networkLoad spreads the same
    // delivered words over every endpoint. The two coincide when
    // activeFraction = 1.
    result.measuredWords = measured_words;
    const double window = static_cast<double>(config.measure);
    result.achievedLoad =
        drivers.empty()
            ? 0.0
            : static_cast<double>(measured_words) /
                  (window * static_cast<double>(drivers.size()));
    result.networkLoad =
        n == 0 ? 0.0
               : static_cast<double>(measured_words) /
                     (window * static_cast<double>(n));

    for (auto &slo : result.classes) {
        slo.goodput =
            drivers.empty()
                ? 0.0
                : static_cast<double>(slo.goodputWords) /
                      (window * static_cast<double>(drivers.size()));
    }

    result.availabilityWindows = n_windows;
    std::uint64_t alive = 0;
    for (const bool w : window_alive)
        alive += w ? 1 : 0;
    result.availability =
        n_windows == 0 ? 0.0
                       : static_cast<double>(alive) /
                             static_cast<double>(n_windows);

    result.routerTotals = net.routerCounters() - routers_base;
    result.niTotals = net.endpointCounters() - nis_base;
    result.metrics = net.metricsSnapshot().deltaSince(metrics_base);
    result.metrics.counter("words.inflight_at_drain") =
        net.inFlightDataWords();

    // Drivers die with this frame; unhook them from the engine so
    // the network can keep running (or run another experiment).
    // One batched pass: per-driver removal would rescan the
    // component list each time, O(active²) per sweep point.
    std::vector<Component *> done;
    done.reserve(drivers.size());
    for (auto &d : drivers)
        done.push_back(d.get());
    engine.removeComponents(done);

    return result;
}

} // namespace

ExperimentResult
runClosedLoop(Network &net, const ExperimentConfig &config)
{
    return runExperiment<ClosedLoopDriver>(
        net, config,
        [&config](NetworkInterface *ni,
                  const DestinationGenerator *dests,
                  const DriverConfig &dcfg, unsigned e) {
            return std::make_unique<ClosedLoopDriver>(
                ni, dests, dcfg, config.thinkTime,
                config.seed ^ (0x5151ULL * (e + 1)));
        });
}

ExperimentResult
runOpenLoop(Network &net, const ExperimentConfig &config)
{
    return runExperiment<OpenLoopDriver>(
        net, config,
        [&config](NetworkInterface *ni,
                  const DestinationGenerator *dests,
                  const DriverConfig &dcfg, unsigned e) {
            return std::make_unique<OpenLoopDriver>(
                ni, dests, dcfg, config.injectProb,
                config.seed ^ (0x7272ULL * (e + 1)));
        });
}

ExperimentResult
runSessionLoop(Network &net, const ExperimentConfig &config)
{
    return runExperiment<SessionDriver>(
        net, config,
        [&config](NetworkInterface *ni,
                  const DestinationGenerator *dests,
                  const DriverConfig &dcfg, unsigned e) {
            return std::make_unique<SessionDriver>(
                ni, dests, dcfg, config.session,
                config.seed ^ (0x9393ULL * (e + 1)));
        });
}

std::string
validateExperimentConfig(const ExperimentConfig &config,
                         unsigned num_endpoints)
{
    const auto fmt = [](const char *f, double v) {
        char buf[128];
        std::snprintf(buf, sizeof(buf), f, v);
        return std::string(buf);
    };
    if (config.messageWords == 0)
        return "messageWords must be >= 1 (the checksum word)";
    if (config.injectProb < 0.0 || config.injectProb > 1.0)
        return fmt("inject probability %g outside [0, 1]",
                   config.injectProb);
    if (config.activeFraction < 0.0 || config.activeFraction > 1.0)
        return fmt("activeFraction %g outside [0, 1]",
                   config.activeFraction);
    if (config.hotFraction < 0.0 || config.hotFraction > 1.0)
        return fmt("hotFraction %g outside [0, 1]",
                   config.hotFraction);
    if (config.pattern == TrafficPattern::Hotspot &&
        num_endpoints > 0 && config.hotNode >= num_endpoints) {
        return fmt("hotNode %g >= number of endpoints",
                   static_cast<double>(config.hotNode));
    }
    if (config.process.burstOn < 1.0)
        return fmt("burstOn %g must be >= 1 cycle",
                   config.process.burstOn);
    if (config.process.burstOff < 1.0)
        return fmt("burstOff %g must be >= 1 cycle",
                   config.process.burstOff);
    if (config.process.burstRatio < 1.0)
        return fmt("burstRatio %g must be >= 1",
                   config.process.burstRatio);
    if (config.size.dist == SizeDist::Pareto) {
        if (config.size.minWords < 1)
            return "sizeMin must be >= 1 word";
        if (config.size.minWords > config.size.maxWords)
            return "sizeMin exceeds sizeMax";
        if (config.size.alpha <= 0.0)
            return fmt("sizeAlpha %g must be > 0",
                       config.size.alpha);
    }
    if (config.fanout < 1)
        return "fanout must be >= 1";
    if (config.fanout > 64)
        return "fanout > 64 is unsupported";
    if (num_endpoints > 0 && config.fanout > num_endpoints - 1)
        return "fanout exceeds the number of possible destinations";
    if (!config.classMix.empty()) {
        if (config.classMix.size() > kTrafficClasses)
            return "classMix has more than 4 classes";
        double sum = 0.0;
        for (double f : config.classMix) {
            if (f < 0.0 || f > 1.0)
                return fmt("classMix fraction %g outside [0, 1]", f);
            sum += f;
        }
        if (sum < 1.0 - 1e-6 || sum > 1.0 + 1e-6)
            return fmt("classMix fractions sum to %g, not 1", sum);
    }
    if (config.session.rate < 0.0 || config.session.rate > 1.0)
        return fmt("sessionRate %g outside [0, 1]",
                   config.session.rate);
    if (config.session.requests < 1)
        return "sessionRequests must be >= 1";
    if (config.session.diurnalAmplitude < 0.0 ||
        config.session.diurnalAmplitude > 1.0) {
        return fmt("diurnalAmplitude %g outside [0, 1]",
                   config.session.diurnalAmplitude);
    }
    if (config.session.maxActive < 1)
        return "sessionMaxActive must be >= 1";
    return "";
}

} // namespace metro
