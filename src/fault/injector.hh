/**
 * @file
 * Fault injection for the fault-tolerance experiments.
 *
 * The paper's reliability story rests on three mechanisms the
 * simulator must be able to stress: stochastic path selection
 * routes *around* static faults; source-responsible retry recovers
 * from *dynamic* faults that appear mid-connection; and scan-based
 * port disable *masks* localized faults. The injector schedules
 * fault events at absolute cycles, so both static (cycle 0) and
 * dynamic (mid-run) regimes are expressible.
 */

#ifndef METRO_FAULT_INJECTOR_HH
#define METRO_FAULT_INJECTOR_HH

#include <cstdint>
#include <vector>

#include "common/random.hh"
#include "common/types.hh"
#include "network/multibutterfly.hh"
#include "network/network.hh"
#include "sim/component.hh"

namespace metro
{

/** Kinds of schedulable fault events. */
enum class FaultKind : std::uint8_t
{
    LinkDead,        ///< wire delivers nothing
    LinkCorrupt,     ///< wire flips payload bits
    LinkHeal,        ///< restore a link
    RouterDead,      ///< whole component stops responding
    RouterHeal,      ///< restore a router
    RouterMisroute,  ///< header decode scrambled (cascade tests)
    ForwardPortOff,  ///< scan-disable a forward port
    BackwardPortOff, ///< scan-disable a backward port
};

/** One scheduled fault event. */
struct FaultEvent
{
    Cycle at = 0;
    FaultKind kind = FaultKind::LinkDead;
    std::uint32_t target = 0; ///< LinkId or RouterId
    PortIndex port = kInvalidPort;
};

/**
 * Applies scheduled fault events to a network as simulation time
 * passes.
 */
class FaultInjector : public Component
{
  public:
    explicit FaultInjector(Network *net)
        : Component("faultInjector"), net_(net)
    {}

    /** Schedule one event. */
    void
    schedule(const FaultEvent &event)
    {
        events_.push_back(event);
    }

    /** Schedule many events. */
    void
    schedule(const std::vector<FaultEvent> &events)
    {
        for (const auto &e : events)
            schedule(e);
    }

    void tick(Cycle cycle) override;

    /** Events applied so far. */
    std::uint64_t applied() const { return applied_; }

  private:
    friend class CheckpointIO;

    void apply(const FaultEvent &event);

    Network *net_;
    std::vector<FaultEvent> events_;
    std::uint64_t applied_ = 0;
};

/**
 * Sample a set of router/link faults that provably leaves every
 * endpoint pair connected (checked with the network's structural
 * path oracle — Network::countUsablePaths), so degradation
 * experiments measure performance rather than partition. Works on
 * any topology whose builder installed a path oracle (multibutterfly
 * and fat tree both do); fails fast with a clear message on one that
 * did not. Resamples up to `max_tries` times.
 *
 * @param at  the cycle the sampled faults should strike
 */
std::vector<FaultEvent>
sampleSurvivableFaults(Network &net, unsigned router_faults,
                       unsigned link_faults, Cycle at,
                       std::uint64_t seed, unsigned max_tries = 64);

} // namespace metro

#endif // METRO_FAULT_INJECTOR_HH
