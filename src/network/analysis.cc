#include "network/analysis.hh"

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "common/bitops.hh"

namespace metro
{

namespace
{

/** Resolved adjacency of one backward port. */
struct Hop
{
    bool toEndpoint = false;
    std::uint32_t id = 0;       // router id or endpoint id
    PortIndex port = 0;         // downstream forward port
    Link *link = nullptr;
};

/** Map (router, backward port) -> downstream attachment. */
std::unordered_map<std::uint64_t, Hop>
buildAdjacency(Network &net)
{
    std::unordered_map<std::uint64_t, Hop> adj;
    for (LinkId l = 0; l < net.numLinks(); ++l) {
        Link &link = net.link(l);
        if (link.endA().kind != AttachKind::RouterBackward)
            continue;
        const std::uint64_t key =
            (static_cast<std::uint64_t>(link.endA().id) << 16) |
            link.endA().port;
        Hop hop;
        hop.link = &link;
        if (link.endB().kind == AttachKind::Endpoint) {
            hop.toEndpoint = true;
            hop.id = link.endB().id;
        } else {
            hop.toEndpoint = false;
            hop.id = link.endB().id;
            hop.port = link.endB().port;
        }
        adj.emplace(key, hop);
    }
    return adj;
}

bool
usableRouter(Network &net, RouterId id, PortIndex fwd_port)
{
    MetroRouter &r = net.router(id);
    return !r.dead() && r.config().forwardEnabled[fwd_port];
}

/** Paths from src's injection links into first-stage routers. */
std::unordered_map<RouterId, std::uint64_t>
injectionFrontier(Network &net, NodeId src)
{
    std::unordered_map<RouterId, std::uint64_t> frontier;
    for (LinkId l = 0; l < net.numLinks(); ++l) {
        Link &link = net.link(l);
        if (link.endA().kind != AttachKind::Endpoint ||
            link.endA().id != src)
            continue;
        if (link.endB().kind != AttachKind::RouterForward)
            continue;
        if (link.fault() == LinkFault::Dead)
            continue;
        if (!usableRouter(net, link.endB().id, link.endB().port))
            continue;
        frontier[link.endB().id] += 1;
    }
    return frontier;
}

/**
 * One direction-constrained expansion step shared by the walkers:
 * every frontier router fans out over the dilated port group of
 * `dir`, skipping disabled ports, dead links, and dead routers.
 * Endpoint arrivals matching `dest` accumulate into `delivered`.
 */
std::unordered_map<RouterId, std::uint64_t>
expandFrontier(Network &net,
               const std::unordered_map<std::uint64_t, Hop> &adj,
               const std::unordered_map<RouterId, std::uint64_t>
                   &frontier,
               unsigned dir, NodeId dest, std::uint64_t &delivered)
{
    std::unordered_map<RouterId, std::uint64_t> next;
    for (const auto &[rid, count] : frontier) {
        MetroRouter &router = net.router(rid);
        const unsigned dilation = router.config().dilation;
        for (unsigned k = 0; k < dilation; ++k) {
            const PortIndex b = dir * dilation + k;
            if (!router.config().backwardEnabled[b])
                continue;
            const std::uint64_t key =
                (static_cast<std::uint64_t>(rid) << 16) | b;
            auto it = adj.find(key);
            if (it == adj.end())
                continue;
            const Hop &hop = it->second;
            if (hop.link->fault() == LinkFault::Dead)
                continue;
            if (hop.toEndpoint) {
                if (hop.id == dest)
                    delivered += count;
            } else {
                if (!usableRouter(net, hop.id, hop.port))
                    continue;
                next[hop.id] += count;
            }
        }
    }
    return next;
}

} // namespace

std::uint64_t
countPaths(Network &net, const MultibutterflySpec &spec, NodeId src,
           NodeId dest)
{
    const auto adj = buildAdjacency(net);
    const auto radices = spec.radices();

    // Destination digit per stage.
    std::vector<unsigned> digits(radices.size());
    {
        std::uint64_t suffix = 1;
        std::vector<std::uint64_t> suffixes(radices.size());
        for (std::size_t s = radices.size(); s-- > 0;) {
            suffixes[s] = suffix;
            suffix *= radices[s];
        }
        for (std::size_t s = 0; s < radices.size(); ++s)
            digits[s] = static_cast<unsigned>(
                (dest / suffixes[s]) % radices[s]);
    }

    // Seed: paths into stage-0 routers from the source's injection
    // links.
    auto frontier = injectionFrontier(net, src);

    std::uint64_t delivered = 0;
    for (std::size_t s = 0; s < radices.size(); ++s)
        frontier = expandFrontier(net, adj, frontier, digits[s],
                                  dest, delivered);
    return delivered;
}

std::uint64_t
countFatTreePaths(Network &net, const FatTreeSpec &spec, NodeId src,
                  NodeId dest)
{
    if (src == dest || src >= spec.numEndpoints() ||
        dest >= spec.numEndpoints())
        return 0;
    const auto adj = buildAdjacency(net);

    // Mirror fatTreeRoute(): climb to the lowest common ancestor
    // level, turn down there, then descend on dest's address bits.
    unsigned anc = 1;
    while ((src >> anc) != (dest >> anc))
        ++anc;
    const unsigned hops = 2 * anc - 1;

    auto frontier = injectionFrontier(net, src);

    std::uint64_t delivered = 0;
    for (unsigned h = 0; h < hops; ++h) {
        unsigned dir;
        if (h + 1 < anc) {
            dir = 2; // up
        } else if (h + 1 == anc) {
            dir = (dest >> (anc - 1)) & 1; // peak turns down
        } else {
            const unsigned j = anc - (h + 1 - anc); // anc-1 .. 1
            dir = (dest >> (j - 1)) & 1;
        }
        frontier =
            expandFrontier(net, adj, frontier, dir, dest, delivered);
    }
    return delivered;
}

bool
allPairsConnected(Network &net, const MultibutterflySpec &spec)
{
    for (NodeId s = 0; s < spec.numEndpoints; ++s) {
        for (NodeId d = 0; d < spec.numEndpoints; ++d) {
            if (s == d)
                continue;
            if (countPaths(net, spec, s, d) == 0)
                return false;
        }
    }
    return true;
}

std::uint64_t
minPathsOverPairs(Network &net, const MultibutterflySpec &spec)
{
    std::uint64_t min_paths = ~0ULL;
    for (NodeId s = 0; s < spec.numEndpoints; ++s) {
        for (NodeId d = 0; d < spec.numEndpoints; ++d) {
            if (s == d)
                continue;
            min_paths =
                std::min(min_paths, countPaths(net, spec, s, d));
        }
    }
    return min_paths;
}

bool
allPairsConnected(Network &net)
{
    const auto n = static_cast<NodeId>(net.numEndpoints());
    for (NodeId s = 0; s < n; ++s) {
        for (NodeId d = 0; d < n; ++d) {
            if (s == d)
                continue;
            if (net.countUsablePaths(s, d) == 0)
                return false;
        }
    }
    return true;
}

std::uint64_t
minPathsOverPairs(Network &net)
{
    std::uint64_t min_paths = ~0ULL;
    const auto n = static_cast<NodeId>(net.numEndpoints());
    for (NodeId s = 0; s < n; ++s) {
        for (NodeId d = 0; d < n; ++d) {
            if (s == d)
                continue;
            min_paths =
                std::min(min_paths, net.countUsablePaths(s, d));
        }
    }
    return min_paths;
}

Cycle
longestRouteLatency(Network &net)
{
    // reach[r]: the longest walk of exactly k + 1 lanes that ends at
    // router r's forward side (kNever = no such walk). In a layered
    // network every walk ends at an endpoint after stages + 1 lanes
    // and the loop stops there.
    std::vector<Cycle> reach(net.numRouters(), kNever);
    Cycle longest = 0;
    bool live = true;
    for (std::size_t k = 0; k <= net.numRouters() && live; ++k) {
        live = false;
        std::vector<Cycle> next(net.numRouters(), kNever);
        for (LinkId l = 0; l < net.numLinks(); ++l) {
            const Link &link = net.link(l);
            const LinkEnd &a = link.endA();
            const LinkEnd &b = link.endB();
            Cycle from = kNever;
            if (a.kind == AttachKind::Endpoint && k == 0)
                from = 0;
            else if (a.kind == AttachKind::RouterBackward)
                from = reach[a.id];
            if (from == kNever)
                continue;
            const Cycle at = from + link.downLatency();
            if (b.kind == AttachKind::Endpoint)
                longest = std::max(longest, at);
            else if (b.kind == AttachKind::RouterForward) {
                next[b.id] = next[b.id] == kNever
                                 ? at
                                 : std::max(next[b.id], at);
                live = true;
            }
        }
        reach = std::move(next);
    }
    return longest;
}

} // namespace metro
