/**
 * @file
 * Per-endpoint workload drivers.
 *
 * ClosedLoopDriver models the parallelism-limited case of Figure 3:
 * a processor submits a message, *stalls* until its completion, then
 * thinks for a configurable time before the next message. Sweeping
 * the think time sweeps the applied network load.
 *
 * OpenLoopDriver injects on an InjectionProcess (Bernoulli, on/off
 * bursty, or 2-state MMPP — see traffic/process.hh) regardless of
 * completion (offered-load experiments, saturation studies).
 *
 * Both drivers share issueRequest(): one submission according to
 * the workload knobs in DriverConfig — destination pattern, traffic
 * class, message-size distribution, and RPC fan-out (K legs that
 * complete as a group). The RNG draw order inside a submission is
 * fixed (dest, class, size, payload — per leg) so per-endpoint
 * streams stay reproducible regardless of engine sharding.
 */

#ifndef METRO_TRAFFIC_DRIVERS_HH
#define METRO_TRAFFIC_DRIVERS_HH

#include <cstdint>
#include <vector>

#include "common/bitops.hh"
#include "common/random.hh"
#include "common/types.hh"
#include "endpoint/interface.hh"
#include "sim/component.hh"
#include "traffic/patterns.hh"
#include "traffic/process.hh"

namespace metro
{

/** Shared driver settings. */
struct DriverConfig
{
    /** Data words per message INCLUDING the checksum word (the
     *  paper's 20-byte messages are "a 4-word cache-line including
     *  checksum": 20 words on an 8-bit channel). Must be >= 1
     *  (validated at parse time). With size.dist != Fixed this is
     *  only the label/legacy size; per-message sizes come from the
     *  distribution. */
    unsigned messageWords = 20;

    /** Mark messages submitted outside [measureFrom, measureTo) so
     *  harnesses can exclude warmup/drain. @{ */
    Cycle measureFrom = 0;
    Cycle measureTo = kNever;
    /** @} */

    /** Stop submitting new messages at this cycle (drain phase). */
    Cycle stopAt = kNever;

    /** Request-reply traffic instead of plain messages. */
    bool requestReply = false;

    /** Open-loop injection-process shape (Bernoulli default is
     *  bit-exact with the original fixed-rate driver). */
    InjectionProcessConfig process;

    /** Message-size distribution (Fixed default draws nothing and
     *  uses messageWords). */
    MessageSizeConfig size;

    /** RPC fan-out: each logical request sends K request-reply legs
     *  to K distinct destinations and completes only when all legs
     *  complete. 1 = plain messages (default, bit-exact). */
    unsigned fanout = 1;

    /** Traffic-class mix (fraction per class, summing to 1). Empty
     *  or single-entry = everything class 0, no draw. */
    std::vector<double> classMix;
};

/**
 * Submit one logical request from `ni` according to `config`:
 * a single message, or K fan-out legs sharing a traffic class and
 * an RPC group. Bumps `submitted` once per *logical* request (a K-leg
 * fan-out counts once); the legs take consecutive tracker ids.
 *
 * Draw order per leg: destination, [class], [size], payload words.
 * The bracketed draws only happen when the respective knob is
 * non-default, so a default-configured call replays the original
 * driver stream bit for bit.
 */
inline void
issueRequest(NetworkInterface *ni, const DestinationGenerator *dests,
             const DriverConfig &config, Xoshiro256 &rng,
             std::uint64_t &submitted)
{
    const unsigned legs = config.fanout > 1 ? config.fanout : 1;
    SendMeta meta;
    meta.rpcFanout =
        legs > 1 ? static_cast<std::uint16_t>(legs) : 0;

    std::vector<NodeId> used;
    for (unsigned leg = 0; leg < legs; ++leg) {
        NodeId dest = dests->pick(ni->nodeId(), rng);
        if (legs > 1) {
            // Fan-out legs go to K *distinct* endpoints: re-pick a
            // bounded number of times, then fall back to a
            // deterministic linear probe (no unbounded RNG use).
            bool taken = false;
            for (unsigned tries = 0; tries < 16; ++tries) {
                taken = false;
                for (NodeId u : used)
                    taken = taken || u == dest;
                if (!taken)
                    break;
                dest = dests->pick(ni->nodeId(), rng);
            }
            while (true) {
                taken = dest == ni->nodeId();
                for (NodeId u : used)
                    taken = taken || u == dest;
                if (!taken)
                    break;
                dest = (dest + 1) % dests->size();
            }
            used.push_back(dest);
        }
        if (leg == 0)
            meta.trafficClass = drawTrafficClass(config.classMix, rng);
        const unsigned words =
            drawMessageWords(config.size, config.messageWords, rng);
        std::vector<Word> payload(words - 1);
        for (auto &w : payload)
            w = rng.next() & lowMask(ni->width());
        // Fan-out legs are always request-reply: the group is only
        // complete when every leg's reply lands.
        const bool want_reply = legs > 1 || config.requestReply;
        const auto id =
            ni->send(dest, std::move(payload), want_reply, meta);
        if (leg == 0 && legs > 1)
            meta.rpcGroup = id; // remaining legs join the head's group
    }
    ++submitted;
}

/**
 * Base of the per-endpoint traffic drivers. A driver's tick touches
 * only its own state, its endpoint (sendIdle, send — which stages
 * the ledger record while shards run concurrently, see
 * NetworkInterface::send) and the shared, read-only destination
 * generator, so it is parallel-safe once it ticks right after its
 * endpoint, in the endpoint's shard (Component::tickAnchor) — the
 * same order as a serial loop that ticks every endpoint before any
 * driver.
 */
class EndpointDriver : public Component
{
  public:
    bool parallelTickSafe() const override { return true; }

    /** A driver tick measured 18 ns against a network interface's
     *  168 ns on the saturated 1024-endpoint network (engine
     *  self-profile, one thread): under half of one cost unit, so a
     *  driver adds nothing to its endpoint's unit. */
    std::uint32_t tickCost() const override { return 0; }

    Component *tickAnchor() const override { return ni_; }

    /** Logical requests submitted so far (a K-leg fan-out counts
     *  once). */
    std::uint64_t submitted() const { return submitted_; }

  protected:
    EndpointDriver(std::string name, NetworkInterface *ni,
                   const DestinationGenerator *dests,
                   const DriverConfig &config, std::uint64_t seed)
        : Component(std::move(name)), ni_(ni), dests_(dests),
          config_(config), rng_(seed)
    {}

    /** One logical request (see issueRequest). */
    void issue() { issueRequest(ni_, dests_, config_, rng_, submitted_); }

    NetworkInterface *ni_;
    const DestinationGenerator *dests_;
    DriverConfig config_;
    Xoshiro256 rng_;
    std::uint64_t submitted_ = 0;
};

/**
 * Closed-loop (stall-on-completion) driver for one endpoint.
 */
class ClosedLoopDriver : public EndpointDriver
{
  public:
    /**
     * @param ni        the endpoint to drive
     * @param dests     shared destination generator
     * @param config    message/window settings
     * @param think_time idle cycles between completion and next
     *                  submission (0 = saturating)
     * @param seed      RNG seed
     */
    ClosedLoopDriver(NetworkInterface *ni,
                     const DestinationGenerator *dests,
                     const DriverConfig &config, unsigned think_time,
                     std::uint64_t seed)
        : EndpointDriver("driver" + std::to_string(ni->nodeId()), ni,
                         dests, config, seed),
          thinkTime_(think_time)
    {}

    void
    tick(Cycle cycle) override
    {
        if (cycle >= config_.stopAt)
            return;
        if (!ni_->sendIdle()) {
            // Processor stalled waiting for message completion.
            waiting_ = true;
            return;
        }
        if (waiting_) {
            // Completion observed: think, then submit. The think
            // time is jittered +-25% so the closed-loop processors
            // do not phase-lock into synchronized submission
            // convoys (the paper's traffic is "randomly
            // distributed").
            waiting_ = false;
            unsigned think = thinkTime_;
            if (think >= 4) {
                const unsigned span = think / 2;
                think = think - span / 2 +
                        static_cast<unsigned>(rng_.below(span + 1));
            }
            nextSubmit_ = cycle + think;
        }
        if (cycle < nextSubmit_)
            return;

        issue();
    }

  private:
    friend class CheckpointIO;

    /** Type-segregated dispatch (see Engine). */
    BatchTickFn
    batchTickFn() const override
    {
        return &Component::batchTickOf<ClosedLoopDriver>;
    }

    unsigned thinkTime_;
    Cycle nextSubmit_ = 0;
    bool waiting_ = false;
};

/**
 * Open-loop driver for one endpoint: an InjectionProcess decides
 * each cycle whether to inject. Messages queue in the NI when
 * injection falls behind.
 */
class OpenLoopDriver : public EndpointDriver
{
  public:
    OpenLoopDriver(NetworkInterface *ni,
                   const DestinationGenerator *dests,
                   const DriverConfig &config, double inject_prob,
                   std::uint64_t seed)
        : EndpointDriver("odriver" + std::to_string(ni->nodeId()), ni,
                         dests, config, seed),
          process_(config.process, inject_prob)
    {}

    void
    tick(Cycle cycle) override
    {
        if (cycle >= config_.stopAt)
            return;
        if (!process_.step(rng_))
            return;
        issue();
    }

  private:
    friend class CheckpointIO;

    /** Type-segregated dispatch (see Engine). */
    BatchTickFn
    batchTickFn() const override
    {
        return &Component::batchTickOf<OpenLoopDriver>;
    }

    InjectionProcess process_;
};

} // namespace metro

#endif // METRO_TRAFFIC_DRIVERS_HH
