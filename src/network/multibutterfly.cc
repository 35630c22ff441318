#include "network/multibutterfly.hh"

#include <algorithm>
#include <map>
#include <numeric>

#include "common/bitops.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "network/analysis.hh"

namespace metro
{

std::vector<unsigned>
MultibutterflySpec::radices() const
{
    std::vector<unsigned> r;
    r.reserve(stages.size());
    for (const auto &s : stages)
        r.push_back(s.radix);
    return r;
}

unsigned
MultibutterflySpec::routeBits() const
{
    unsigned bits = 0;
    for (const auto &s : stages)
        bits += log2Ceil(s.radix);
    return bits;
}

unsigned
MultibutterflySpec::headerSymbols() const
{
    // Stages with hw > 0 blindly consume hw words each from the
    // stream head (pipelined connection setup); stages with hw = 0
    // route on header *words* that must still be present when the
    // stream reaches them (and are swallowed as their bits are used
    // up). A mixed network therefore needs both allocations.
    unsigned consumed = 0;
    unsigned hw0_bits = 0;
    for (const auto &s : stages) {
        if (s.params.headerWords > 0)
            consumed += s.params.headerWords;
        else
            hw0_bits += log2Ceil(s.radix);
    }
    const unsigned w = stages.front().params.width;
    if (consumed == 0)
        return std::max(1u, static_cast<unsigned>(
                                ceilDiv(routeBits(), w)));
    if (hw0_bits == 0)
        return consumed;
    return consumed + std::max(1u, static_cast<unsigned>(
                                       ceilDiv(hw0_bits, w)));
}

void
MultibutterflySpec::validate() const
{
    if (stages.empty())
        METRO_FATAL("multibutterfly needs at least one stage");
    if (numEndpoints == 0 || endpointPorts == 0)
        METRO_FATAL("endpoints and ports must be positive");
    if (cascadeWidth == 0 || cascadeWidth > 4)
        METRO_FATAL("cascadeWidth must be 1..4 (checksum packing)");

    unsigned long long resolved = 1;
    for (const auto &s : stages) {
        s.params.validate();
        if (s.radix == 0 || s.dilation == 0)
            METRO_FATAL("stage radix/dilation must be positive");
        if (s.radix * s.dilation > s.params.numBackward)
            METRO_FATAL("stage needs %u backward ports, router has %u",
                        s.radix * s.dilation, s.params.numBackward);
        if (s.dilation > s.params.maxDilation)
            METRO_FATAL("stage dilation %u exceeds max_d %u",
                        s.dilation, s.params.maxDilation);
        if (s.params.width != stages.front().params.width)
            METRO_FATAL("all stages must share the channel width");
        if (s.linkDelay > s.params.maxVtd)
            METRO_FATAL("stage link delay %u exceeds max_vtd %u",
                        s.linkDelay, s.params.maxVtd);
        resolved *= s.radix;
    }
    if (resolved != numEndpoints)
        METRO_FATAL("stage radices resolve %llu destinations, network "
                    "has %u endpoints", resolved, numEndpoints);

    // Wire-count divisibility along the whole network.
    unsigned long long wires =
        static_cast<unsigned long long>(numEndpoints) * endpointPorts;
    unsigned long long classes = 1;
    for (std::size_t s = 0; s < stages.size(); ++s) {
        const auto &st = stages[s];
        if (wires % classes != 0)
            METRO_FATAL("stage %zu: %llu wires not divisible into "
                        "%llu classes", s, wires, classes);
        const auto per_class = wires / classes;
        if (per_class % st.params.numForward != 0)
            METRO_FATAL("stage %zu: %llu wires per class not "
                        "divisible by i = %u", s, per_class,
                        st.params.numForward);
        const auto routers_per_class =
            per_class / st.params.numForward;
        wires = classes * routers_per_class * st.radix * st.dilation;
        classes *= st.radix;
    }
    if (wires / classes != endpointPorts)
        METRO_FATAL("final stage delivers %llu links per endpoint, "
                    "endpoints have %u ports",
                    wires / classes, endpointPorts);

    // hw = 0 routers without swallow would need the whole route in
    // one word; the builder always enables swallow, so only the
    // metadata capacity matters here.
    if (routeBits() > 64)
        METRO_FATAL("route spec exceeds 64 bits");
}

RoutePlan
multibutterflyRoute(const std::vector<unsigned> &radices,
                    unsigned width, unsigned header_symbols,
                    NodeId dest)
{
    RoutePlan plan;
    plan.headerSymbols = header_symbols;

    // digit_s = (dest / prod_{t>s} r_t) % r_s  (stage 0 is the most
    // significant digit), packed LSB-first in consumption order.
    std::uint64_t suffix = 1;
    std::vector<std::uint64_t> suffixes(radices.size());
    for (std::size_t s = radices.size(); s-- > 0;) {
        suffixes[s] = suffix;
        suffix *= radices[s];
    }
    unsigned pos = 0;
    for (std::size_t s = 0; s < radices.size(); ++s) {
        const unsigned bits = log2Ceil(radices[s]);
        const std::uint64_t digit =
            (dest / suffixes[s]) % radices[s];
        plan.route |= digit << pos;
        pos += bits;
    }
    plan.length = static_cast<std::uint16_t>(pos);
    (void)width;
    return plan;
}

namespace
{

/** A dangling logical wire (one link per cascade slice) awaiting
 *  its downstream consumer. */
struct Wire
{
    std::vector<Link *> slices;
    unsigned classId;
};

/**
 * Deal the wires of one destination class onto that class's routers.
 *
 * Wires are grouped by their upstream entity (endpoint or router),
 * groups and the router order are randomly permuted, and wires are
 * then dealt round-robin. Consecutive dealing guarantees that the
 * wires sharing an upstream entity (an endpoint's ports, or the
 * d equivalent outputs of one upstream router) land on *distinct*
 * downstream routers whenever the class has enough of them — which
 * is what makes the loss of any single router survivable at every
 * stage (the redundancy Figure 1 builds the endpoints' dual ports
 * and the dilated stages for). The residual randomness preserves
 * the randomly-wired-multibutterfly character.
 *
 * Returns the dealt order: router j receives wires
 * [j*i_ports, (j+1)*i_ports).
 */
std::vector<Wire>
dealClassWires(std::vector<Wire> wires, unsigned i_ports,
               Xoshiro256 &rng, bool randomize)
{
    const auto num_routers =
        static_cast<unsigned>(wires.size()) / i_ports;

    // Group wires by upstream entity.
    std::map<std::uint64_t, std::vector<Wire>> groups;
    for (const auto &w : wires) {
        const auto &end = w.slices.front()->endA();
        const std::uint64_t key =
            (static_cast<std::uint64_t>(end.kind) << 32) | end.id;
        groups[key].push_back(w);
    }

    std::vector<std::vector<Wire>> group_list;
    group_list.reserve(groups.size());
    for (auto &[key, g] : groups)
        group_list.push_back(std::move(g));
    if (randomize) {
        for (std::size_t k = group_list.size(); k > 1; --k)
            std::swap(group_list[k - 1],
                      group_list[rng.below(k)]);
    }

    // Deal round-robin over a (randomly permuted) router order.
    std::vector<unsigned> router_order(num_routers);
    for (unsigned j = 0; j < num_routers; ++j)
        router_order[j] = j;
    if (randomize) {
        for (std::size_t k = router_order.size(); k > 1; --k)
            std::swap(router_order[k - 1],
                      router_order[rng.below(k)]);
    }

    std::vector<std::vector<Wire>> per_router(num_routers);
    std::size_t cursor = randomize ? rng.below(num_routers) : 0;
    for (const auto &g : group_list) {
        for (const auto &w : g) {
            // Skip routers that are already full.
            while (per_router[router_order[cursor % num_routers]]
                       .size() >= i_ports)
                ++cursor;
            per_router[router_order[cursor % num_routers]]
                .push_back(w);
            ++cursor;
        }
    }

    std::vector<Wire> dealt;
    dealt.reserve(wires.size());
    for (unsigned j = 0; j < num_routers; ++j) {
        METRO_ASSERT(per_router[j].size() == i_ports,
                     "uneven deal: router %u got %zu wires", j,
                     per_router[j].size());
        for (const auto &w : per_router[j])
            dealt.push_back(w);
    }
    return dealt;
}

} // namespace

std::unique_ptr<Network>
buildMultibutterfly(const MultibutterflySpec &spec)
{
    spec.validate();

    auto net = std::make_unique<Network>();
    Xoshiro256 wiring_rng(subSeed(spec.seed, 0x11));

    const unsigned width = spec.stages.front().params.width;
    const unsigned casc = spec.cascadeWidth;
    NiConfig ni_config = spec.niConfig;
    ni_config.width = width * casc; // logical channel width

    // Endpoints and their injection wires (one link per slice).
    std::vector<Wire> pending;
    for (NodeId e = 0; e < spec.numEndpoints; ++e) {
        auto *ni = net->addEndpoint(ni_config, subSeed(spec.seed,
                                                       0x1000 + e));
        if (ni_config.retry.inflightLimit > 0)
            ni->setInflightGate(net->inflightGate(
                ni_config.retry.inflightLimit));
        const auto &first = spec.stages.front();
        for (unsigned k = 0; k < spec.endpointPorts; ++k) {
            std::vector<Link *> slices;
            for (unsigned m = 0; m < casc; ++m) {
                // Down lane: endpoint output register + wire vtd.
                // Up lane: first-stage router dp + wire vtd.
                Link *link = net->addLink(
                    1 + first.linkDelay,
                    first.params.dataPipeStages + first.linkDelay,
                    subSeed(spec.seed,
                            0x2000 + (e * 16 + k) * 8 + m));
                link->endA() = {AttachKind::Endpoint, e,
                                kInvalidPort, k};
                slices.push_back(link);
            }
            ni->addOutPortGroup(slices);
            pending.push_back({slices, 0});
        }
    }

    // Stages.
    std::vector<std::vector<RouterId>> stage_ids(spec.stages.size());
    unsigned classes = 1;
    for (std::size_t s = 0; s < spec.stages.size(); ++s) {
        const auto &st = spec.stages[s];
        const unsigned i_ports = st.params.numForward;
        const auto per_class =
            static_cast<unsigned>(pending.size()) / classes;
        const unsigned routers_per_class = per_class / i_ports;

        // Group pending wires by class.
        std::vector<std::vector<Wire>> by_class(classes);
        for (const auto &wire : pending)
            by_class[wire.classId].push_back(wire);

        std::vector<Wire> next;
        for (unsigned c = 0; c < classes; ++c) {
            auto &wires = by_class[c];
            METRO_ASSERT(wires.size() ==
                         routers_per_class * i_ports,
                         "class %u wire count mismatch", c);
            wires = dealClassWires(std::move(wires), i_ports,
                                   wiring_rng, spec.randomWiring);

            for (unsigned j = 0; j < routers_per_class; ++j) {
                RouterConfig config =
                    RouterConfig::defaults(st.params);
                config.dilation = st.dilation;
                config.backwardPortsUsed = st.radix * st.dilation;
                config.fastReclaim.assign(st.params.numForward,
                                          spec.fastReclaim);
                config.randomSelection = spec.randomSelection;
                config.idleTimeout = spec.routerIdleTimeout;
                // Table 2 turn-delay registers mirror the physical
                // wire lengths (paper: per-port variable turn
                // delay). Forward ports face this stage's inbound
                // wires; backward ports face the next stage's.
                {
                    const bool last_stage =
                        s + 1 == spec.stages.size();
                    const unsigned in_vtd = st.linkDelay;
                    const unsigned out_vtd =
                        last_stage ? spec.endpointLinkDelay
                                   : spec.stages[s + 1].linkDelay;
                    for (unsigned p = 0;
                         p < st.params.numForward; ++p)
                        config.turnDelay[p] = in_vtd;
                    for (unsigned b = 0;
                         b < st.params.numBackward; ++b)
                        config.turnDelay[st.params.numForward + b] =
                            out_vtd;
                }

                // One logical router = casc physical members, each
                // carrying one slice; members share randomness and
                // are supervised by a wired-AND monitor.
                std::vector<MetroRouter *> members;
                for (unsigned m = 0; m < casc; ++m) {
                    auto *router = net->addRouter(
                        st.params, config,
                        subSeed(spec.seed, 0x3000 + s * 4096 +
                                               c * 256 + j * 8 + m));
                    router->setStage(static_cast<std::uint8_t>(s));
                    stage_ids[s].push_back(router->id());
                    members.push_back(router);
                }
                if (casc > 1)
                    net->addCascadeGroup(
                        members, subSeed(spec.seed,
                                         0x5000 + s * 4096 +
                                             c * 256 + j));

                for (unsigned p = 0; p < i_ports; ++p) {
                    const Wire &wire = wires[j * i_ports + p];
                    for (unsigned m = 0; m < casc; ++m) {
                        wire.slices[m]->endB() = {
                            AttachKind::RouterForward,
                            members[m]->id(), p, 0};
                        members[m]->attachForward(
                            p, wire.slices[m]);
                    }
                }

                const bool last = s + 1 == spec.stages.size();
                const unsigned next_delay =
                    last ? spec.endpointLinkDelay
                         : spec.stages[s + 1].linkDelay;
                const unsigned next_dp =
                    last ? 1
                         : spec.stages[s + 1].params.dataPipeStages;
                for (unsigned dir = 0; dir < st.radix; ++dir) {
                    for (unsigned k = 0; k < st.dilation; ++k) {
                        const PortIndex b = dir * st.dilation + k;
                        std::vector<Link *> slices;
                        for (unsigned m = 0; m < casc; ++m) {
                            Link *link = net->addLink(
                                st.params.dataPipeStages +
                                    next_delay,
                                next_dp + next_delay,
                                subSeed(spec.seed,
                                        0x4000 + net->numLinks()));
                            link->endA() = {
                                AttachKind::RouterBackward,
                                members[m]->id(), b, 0};
                            members[m]->attachBackward(b, link);
                            slices.push_back(link);
                        }
                        next.push_back(
                            {slices, c * st.radix + dir});
                    }
                }
            }
        }
        pending = std::move(next);
        classes *= st.radix;
    }

    // Delivery wires: class c feeds endpoint c.
    METRO_ASSERT(classes == spec.numEndpoints, "class bookkeeping");
    std::vector<std::vector<Wire>> by_class(classes);
    for (const auto &wire : pending)
        by_class[wire.classId].push_back(wire);
    for (NodeId e = 0; e < spec.numEndpoints; ++e) {
        auto &wires = by_class[e];
        METRO_ASSERT(wires.size() == spec.endpointPorts,
                     "endpoint %u gets %zu delivery links, wants %u",
                     e, wires.size(), spec.endpointPorts);
        for (unsigned k = 0; k < wires.size(); ++k) {
            for (auto *slice : wires[k].slices)
                slice->endB() = {AttachKind::Endpoint, e,
                                 kInvalidPort, k};
            net->endpoint(e).addInPortGroup(wires[k].slices);
        }
    }

    // Route computation shared by every endpoint.
    const auto radices = spec.radices();
    const unsigned header_symbols = spec.headerSymbols();
    for (NodeId e = 0; e < spec.numEndpoints; ++e) {
        net->endpoint(e).setRouteFunction(
            [radices, width, header_symbols](NodeId dest) {
                return multibutterflyRoute(radices, width,
                                           header_symbols, dest);
            });
    }

    net->setStages(std::move(stage_ids));
    // Structural path oracle: generic fault sampling / degradation
    // code counts usable paths without knowing the topology.
    net->setPathOracle(
        [raw = net.get(), spec](NodeId src, NodeId dest) {
            return countPaths(*raw, spec, src, dest);
        });
    net->finalize();
    return net;
}

} // namespace metro
