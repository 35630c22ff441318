/**
 * @file
 * Structural analysis of multibutterfly networks: path counting and
 * fault-isolation properties (the claims illustrated by Figure 1:
 * "there are many paths between each pair of network endpoints" and
 * "the final stage [dilation-1 routers] allow the network to
 * tolerate the complete loss of any router in the final stage
 * without isolating any endpoints").
 */

#ifndef METRO_NETWORK_ANALYSIS_HH
#define METRO_NETWORK_ANALYSIS_HH

#include <cstdint>
#include <vector>

#include "network/fattree.hh"
#include "network/multibutterfly.hh"
#include "network/network.hh"

namespace metro
{

/**
 * Count the distinct source→destination paths currently usable:
 * dead routers, dead links, and disabled ports are excluded.
 */
std::uint64_t countPaths(Network &net, const MultibutterflySpec &spec,
                         NodeId src, NodeId dest);

/**
 * Fat-tree counterpart of countPaths(): usable paths along the
 * deterministic up/peak/down route (fatTreeRoute), with the per-hop
 * dilation fan-out as the path multiplicity.
 */
std::uint64_t countFatTreePaths(Network &net, const FatTreeSpec &spec,
                                NodeId src, NodeId dest);

/**
 * True when every endpoint pair retains at least one usable path.
 */
bool allPairsConnected(Network &net, const MultibutterflySpec &spec);

/**
 * Topology-generic variant: queries the network's installed path
 * oracle (Network::countUsablePaths); fatal when the topology
 * installed none.
 */
bool allPairsConnected(Network &net);

/**
 * Minimum over all endpoint pairs of the usable path count.
 */
std::uint64_t minPathsOverPairs(Network &net,
                                const MultibutterflySpec &spec);

/** Oracle-backed variant of minPathsOverPairs(). */
std::uint64_t minPathsOverPairs(Network &net);

/**
 * The longest source-to-destination lane latency of the built
 * network: the most cycles a symbol pushed by a source can spend in
 * flight before its destination reads it (routers hold no symbols;
 * each lane's latency folds in its driver's pipeline). Computed as
 * the longest walk of forward lanes from an endpoint to an endpoint
 * with at most one lane more than there are routers, so it bounds
 * every path that visits no router twice: each route, and also a
 * path stitched from stale crosspoints of half-open connections.
 * In a layered network (the multibutterflies) that is exactly the
 * longest route.
 */
Cycle longestRouteLatency(Network &net);

} // namespace metro

#endif // METRO_NETWORK_ANALYSIS_HH
