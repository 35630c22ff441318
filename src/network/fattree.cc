#include "network/fattree.hh"

#include <algorithm>
#include <map>
#include <vector>

#include "common/bitops.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "network/analysis.hh"

namespace metro
{

namespace
{

/** Routers per cluster at a level (doubling toward the root). */
unsigned
clusterRouters(const FatTreeSpec &spec, unsigned level)
{
    return spec.leafRouters << (level - 1);
}

/** Clusters at a level. */
unsigned
clustersAt(const FatTreeSpec &spec, unsigned level)
{
    return spec.numEndpoints() >> level;
}

/** A dangling wire awaiting a cluster forward port. */
struct Wire
{
    Link *link;
};

/**
 * Deal incoming wires onto a cluster's routers, spreading wires
 * that share an upstream entity over distinct routers (same
 * rationale as the multibutterfly dealer) and allowing slack
 * (unfilled forward ports).
 */
void
attachClusterWires(Network &net, const std::vector<RouterId> &routers,
                   std::vector<Wire> wires, unsigned i_ports,
                   Xoshiro256 &rng, bool randomize)
{
    METRO_ASSERT(wires.size() <= routers.size() * i_ports,
                 "cluster overcommitted: %zu wires, %zu x %u ports",
                 wires.size(), routers.size(), i_ports);

    std::map<std::uint64_t, std::vector<Wire>> groups;
    for (const auto &w : wires) {
        const auto &end = w.link->endA();
        groups[(static_cast<std::uint64_t>(end.kind) << 32) | end.id]
            .push_back(w);
    }
    std::vector<std::vector<Wire>> group_list;
    for (auto &[key, g] : groups)
        group_list.push_back(std::move(g));
    if (randomize) {
        for (std::size_t k = group_list.size(); k > 1; --k)
            std::swap(group_list[k - 1],
                      group_list[rng.below(k)]);
    }

    std::vector<unsigned> order(routers.size());
    for (unsigned j = 0; j < order.size(); ++j)
        order[j] = j;
    if (randomize) {
        for (std::size_t k = order.size(); k > 1; --k)
            std::swap(order[k - 1], order[rng.below(k)]);
    }

    std::vector<unsigned> used(routers.size(), 0);
    std::size_t cursor =
        randomize ? rng.below(routers.size()) : 0;
    for (const auto &g : group_list) {
        for (const auto &w : g) {
            while (used[order[cursor % order.size()]] >= i_ports)
                ++cursor;
            const unsigned j = order[cursor % order.size()];
            const PortIndex p = used[j]++;
            w.link->endB() = {AttachKind::RouterForward, routers[j],
                              p, 0};
            net.router(routers[j]).attachForward(p, w.link);
            ++cursor;
        }
    }
}

} // namespace

void
FatTreeSpec::validate() const
{
    params.validate();
    if (levels < 1)
        METRO_FATAL("fat tree needs at least one level");
    if (levels > 16)
        METRO_FATAL("fat tree limited to 16 levels");
    if (leafRouters == 0 || endpointPorts == 0 || dilation == 0)
        METRO_FATAL("leafRouters/endpointPorts/dilation must be "
                    "positive");
    if (3 * dilation > params.numBackward)
        METRO_FATAL("radix-3 fat-tree router needs %u backward "
                    "ports, component has %u", 3 * dilation,
                    params.numBackward);
    if (dilation > params.maxDilation)
        METRO_FATAL("dilation %u exceeds max_d %u", dilation,
                    params.maxDilation);
    if (linkDelay > params.maxVtd)
        METRO_FATAL("link delay %u exceeds max_vtd %u", linkDelay,
                    params.maxVtd);
    if (params.headerWords != 0)
        METRO_FATAL("fat-tree routing requires hw = 0 components "
                    "(variable-length routes)");

    // Capacity per cluster level.
    for (unsigned l = 1; l <= levels; ++l) {
        const unsigned routers = leafRouters << (l - 1);
        unsigned wires = 0;
        if (l == 1)
            wires += 2 * endpointPorts;
        else
            wires += 2 * (leafRouters << (l - 2)) * dilation;
        if (l < levels)
            wires += (leafRouters << l) * dilation; // parent-down
        if (wires > routers * params.numForward)
            METRO_FATAL("level %u cluster overcommitted: %u wires, "
                        "%u x %u ports", l, wires, routers,
                        params.numForward);
    }
}

RoutePlan
fatTreeRoute(const FatTreeSpec &spec, NodeId src, NodeId dest)
{
    METRO_ASSERT(src != dest, "fat-tree route to self");
    METRO_ASSERT(src < spec.numEndpoints() &&
                 dest < spec.numEndpoints(),
                 "endpoint out of range");

    unsigned anc = 1;
    while ((src >> anc) != (dest >> anc))
        ++anc;

    RoutePlan plan;
    unsigned pos = 0;
    // Up through levels 1 .. anc-1 (digit 2 = "up", radix 3).
    for (unsigned h = 1; h < anc; ++h) {
        plan.route |= 2ULL << pos;
        pos += 2;
    }
    // Peak router at level anc turns downward.
    const unsigned peak_bits = (anc == spec.levels) ? 1 : 2;
    plan.route |= static_cast<std::uint64_t>((dest >> (anc - 1)) & 1)
                  << pos;
    pos += peak_bits;
    // Down through levels anc-1 .. 1.
    for (unsigned j = anc - 1; j >= 1; --j) {
        plan.route |= static_cast<std::uint64_t>(
                          (dest >> (j - 1)) & 1)
                      << pos;
        pos += 2;
    }
    METRO_ASSERT(pos <= 64, "route spec exceeds 64 bits");
    plan.length = static_cast<std::uint16_t>(pos);
    plan.headerSymbols = std::max(
        1u, static_cast<unsigned>(ceilDiv(pos, spec.params.width)));
    return plan;
}

unsigned
fatTreeHops(unsigned levels, NodeId src, NodeId dest)
{
    (void)levels;
    unsigned anc = 1;
    while ((src >> anc) != (dest >> anc))
        ++anc;
    return 2 * anc - 1;
}

std::unique_ptr<Network>
buildFatTree(const FatTreeSpec &spec)
{
    spec.validate();

    auto net = std::make_unique<Network>();
    Xoshiro256 rng(subSeed(spec.seed, 0xFA7));
    const unsigned d = spec.dilation;
    const unsigned n = spec.numEndpoints();

    NiConfig ni_config = spec.niConfig;
    ni_config.width = spec.params.width;

    // Endpoints.
    for (NodeId e = 0; e < n; ++e) {
        auto *ni =
            net->addEndpoint(ni_config, subSeed(spec.seed, 0x100 + e));
        if (ni_config.retry.inflightLimit > 0)
            ni->setInflightGate(net->inflightGate(
                ni_config.retry.inflightLimit));
    }

    // Routers, level by level; stage index = level - 1.
    // grid[l][c] = router ids of cluster c at level l.
    std::vector<std::vector<std::vector<RouterId>>> grid(
        spec.levels + 1);
    std::vector<std::vector<RouterId>> stages(spec.levels);
    for (unsigned l = 1; l <= spec.levels; ++l) {
        grid[l].resize(clustersAt(spec, l));
        for (unsigned c = 0; c < clustersAt(spec, l); ++c) {
            for (unsigned j = 0; j < clusterRouters(spec, l); ++j) {
                RouterConfig config =
                    RouterConfig::defaults(spec.params);
                config.dilation = d;
                // Root level has no "up" direction.
                config.backwardPortsUsed =
                    (l == spec.levels ? 2 : 3) * d;
                config.idleTimeout = spec.routerIdleTimeout;
                auto *router = net->addRouter(
                    spec.params, config,
                    subSeed(spec.seed, 0x1000 + l * 4096 +
                                           c * 64 + j));
                router->setStage(static_cast<std::uint8_t>(l - 1));
                grid[l][c].push_back(router->id());
                stages[l - 1].push_back(router->id());
            }
        }
    }

    // Link latency helper: every component here (router or
    // endpoint driving a lane) contributes its dp (1 for
    // endpoints) plus the wire delay.
    const unsigned dp = spec.params.dataPipeStages;
    const unsigned vtd = spec.linkDelay;

    // Collect incoming wires per (level, cluster).
    std::vector<std::vector<std::vector<Wire>>> incoming(
        spec.levels + 1);
    for (unsigned l = 1; l <= spec.levels; ++l)
        incoming[l].resize(clustersAt(spec, l));

    // 1. Endpoint injection wires into leaf clusters.
    for (NodeId e = 0; e < n; ++e) {
        for (unsigned k = 0; k < spec.endpointPorts; ++k) {
            Link *link = net->addLink(1 + vtd, dp + vtd,
                                      subSeed(spec.seed,
                                              0x2000 + e * 8 + k));
            link->endA() = {AttachKind::Endpoint, e, kInvalidPort,
                            k};
            net->endpoint(e).addOutPort(link);
            incoming[1][e / 2].push_back({link});
        }
    }

    // 2. Up wires from level l to level l+1.
    for (unsigned l = 1; l < spec.levels; ++l) {
        for (unsigned c = 0; c < clustersAt(spec, l); ++c) {
            for (RouterId rid : grid[l][c]) {
                for (unsigned k = 0; k < d; ++k) {
                    const PortIndex b = 2 * d + k; // direction 2
                    Link *link = net->addLink(
                        dp + vtd, dp + vtd,
                        subSeed(spec.seed, 0x3000 +
                                               net->numLinks()));
                    link->endA() = {AttachKind::RouterBackward, rid,
                                    b, 0};
                    net->router(rid).attachBackward(b, link);
                    incoming[l + 1][c / 2].push_back({link});
                }
            }
        }
    }

    // 3. Down wires from level l to level l-1 (or endpoints).
    for (unsigned l = spec.levels; l >= 1; --l) {
        for (unsigned c = 0; c < clustersAt(spec, l); ++c) {
            for (RouterId rid : grid[l][c]) {
                for (unsigned dir = 0; dir < 2; ++dir) {
                    for (unsigned k = 0; k < d; ++k) {
                        const PortIndex b = dir * d + k;
                        const bool to_endpoint = l == 1;
                        Link *link = net->addLink(
                            dp + vtd, (to_endpoint ? 1 : dp) + vtd,
                            subSeed(spec.seed,
                                    0x4000 + net->numLinks()));
                        link->endA() = {AttachKind::RouterBackward,
                                        rid, b, 0};
                        net->router(rid).attachBackward(b, link);
                        if (to_endpoint) {
                            const NodeId e = 2 * c + dir;
                            link->endB() = {AttachKind::Endpoint, e,
                                            kInvalidPort, 0};
                            net->endpoint(e).addInPort(link);
                        } else {
                            incoming[l - 1][2 * c + dir].push_back(
                                {link});
                        }
                    }
                }
            }
        }
    }

    // 4. Deal every cluster's incoming wires onto forward ports.
    for (unsigned l = 1; l <= spec.levels; ++l) {
        for (unsigned c = 0; c < clustersAt(spec, l); ++c) {
            attachClusterWires(*net, grid[l][c],
                               std::move(incoming[l][c]),
                               spec.params.numForward, rng,
                               spec.randomWiring);
        }
    }

    // 5. Route functions (source-dependent).
    for (NodeId e = 0; e < n; ++e) {
        net->endpoint(e).setRouteFunction(
            [spec, e](NodeId dest) {
                return fatTreeRoute(spec, e, dest);
            });
    }

    net->setStages(std::move(stages));
    // Structural path oracle for generic fault sampling and
    // degradation analysis (see Network::countUsablePaths).
    net->setPathOracle(
        [raw = net.get(), spec](NodeId src, NodeId dest) {
            return countFatTreePaths(*raw, spec, src, dest);
        });
    net->finalize();
    return net;
}

} // namespace metro
