/**
 * @file
 * A reusable load–latency experiment harness.
 *
 * Drives a built network with closed-loop (Figure 3) or open-loop
 * traffic through warmup / measurement / drain windows and reduces
 * the message ledger to the numbers the paper's evaluation reports:
 * applied load, latency distribution, retry counts, and router
 * event totals.
 */

#ifndef METRO_TRAFFIC_EXPERIMENT_HH
#define METRO_TRAFFIC_EXPERIMENT_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "network/network.hh"
#include "obs/registry.hh"
#include "traffic/patterns.hh"
#include "traffic/process.hh"

namespace metro
{

/** Settings for one experiment run. */
struct ExperimentConfig
{
    /** Words per message including the checksum word. */
    unsigned messageWords = 20;

    /** Cycles before measurement starts. */
    Cycle warmup = 2000;

    /** Measurement window length. */
    Cycle measure = 20000;

    /** Maximum drain time after the window closes. */
    Cycle drainMax = 50000;

    /** Closed-loop think time between completion and next send. */
    unsigned thinkTime = 0;

    /** Fraction of endpoints running a driver. */
    double activeFraction = 1.0;

    /** Open-loop injection probability (openLoop runs only). */
    double injectProb = 0.05;

    TrafficPattern pattern = TrafficPattern::UniformRandom;
    NodeId hotNode = 0;
    double hotFraction = 0.25;

    bool requestReply = false;

    /** Open-loop injection-process shape (Bernoulli = bit-exact
     *  with the legacy fixed-rate driver). */
    InjectionProcessConfig process;

    /** Message-size distribution (Fixed = messageWords exactly). */
    MessageSizeConfig size;

    /** RPC fan-out width K (1 = plain messages). */
    unsigned fanout = 1;

    /** Traffic-class mix (≤ kTrafficClasses fractions summing to
     *  1). Empty = all class 0, no extra RNG draw. */
    std::vector<double> classMix;

    /** Session-model knobs (mode=session runs only). */
    SessionModelConfig session;

    /** Window length (cycles) for the delivered-message
     *  availability metric; see ExperimentResult::availability. */
    Cycle availabilityWindow = 1024;

    std::uint64_t seed = 12345;
};

/** Per-traffic-class SLO rollup (latency percentiles + goodput).
 *  Class 0 carries all untagged traffic. */
struct ClassSlo
{
    /** Latency over this class's measured successful messages. */
    Histogram latency;

    /** Measured messages of this class that succeeded / gave up. @{ */
    std::uint64_t completed = 0;
    std::uint64_t gaveUp = 0;
    /** @} */

    /** Wire words this class delivered inside the window. */
    std::uint64_t goodputWords = 0;

    /** goodputWords normalized like achievedLoad (per driving
     *  endpoint per cycle). */
    double goodput = 0.0;
};

/** Reduced results of one run.
 *
 * All message counts and counter totals are deltas over this run
 * only: back-to-back experiments on one Network each report their
 * own messages and events, never the cumulative history (the
 * experiment-reset contract; see docs/sweep.md).
 */
struct ExperimentResult
{
    /** Delivered words per cycle per *driving* endpoint, as a
     *  fraction of the one-word-per-cycle injection capacity.
     *  Counts forward message words and, for request-reply
     *  traffic, the reply words delivered back to the source. */
    double achievedLoad = 0.0;

    /** The same delivered-word rate normalized over *all* network
     *  endpoints (equals achievedLoad when activeFraction = 1). */
    double networkLoad = 0.0;

    /** Endpoints that ran a driver this experiment. */
    unsigned activeEndpoints = 0;

    /** Wire words delivered by measured, successful messages
     *  (message words plus reply words). */
    std::uint64_t measuredWords = 0;

    /** Injection-to-acknowledgment latency over measured,
     *  successful messages, in cycles. */
    Histogram latency;

    /** Connection attempts per successful message. Samples the raw
     *  integer attempt counts, exactly like attemptsAll below —
     *  the two must agree on count for give-up-free runs (asserted
     *  by the harness). */
    Histogram attempts;

    /** Attempts per *resolved* measured message — give-ups
     *  included, so tail queries (p99) see the unlucky senders the
     *  success-only Summary hides. */
    Histogram attemptsAll;

    /** Largest submit→resolve age over measured resolved messages
     *  (give-ups included), in cycles. */
    Cycle maxMessageAge = 0;

    /** Jain fairness index over per-driving-endpoint goodput words:
     *  (Σx)² / (n·Σx²). 1.0 = perfectly fair; 0 when nothing was
     *  delivered. */
    double jainGoodput = 0.0;

    std::uint64_t measuredMessages = 0;
    std::uint64_t completedMessages = 0;
    std::uint64_t gaveUpMessages = 0;
    std::uint64_t unresolvedMessages = 0;

    /**
     * Delivered-message availability: the fraction of
     * availabilityWindow-sized slices of the measurement window in
     * which at least one message was delivered. 1.0 on a healthy
     * network under load; dips measure how long faults (and the
     * time to diagnose and mask them) starve delivery.
     */
    double availability = 0.0;

    /** Number of availability windows the metric averaged over. */
    std::uint64_t availabilityWindows = 0;

    /** Per-class SLO rollups (all traffic is class 0 unless a
     *  classMix is configured). */
    std::array<ClassSlo, kTrafficClasses> classes;

    /** RPC fan-out groups whose head leg was submitted in the
     *  window / those whose every leg completed. @{ */
    std::uint64_t rpcGroups = 0;
    std::uint64_t rpcGroupsCompleted = 0;
    /** @} */

    /** Group latency (first-leg submit → last-leg completion) over
     *  measured fully-completed fan-out groups. */
    Histogram rpcLatency;

    /** Router-event totals over this experiment (deltas against
     *  the counter values at experiment start). */
    RouterCounters routerTotals;

    /** Endpoint-event totals over this experiment (deltas). */
    NiCounters niTotals;

    /**
     * Per-run delta of the network's MetricsRegistry (word
     * conservation counters, connection histograms, per-router
     * occupancy), plus "words.inflight_at_drain": Data words still
     * on link lanes when the drain window closed. Everything is
     * derived from simulated events only, so the blob is
     * bit-identical across hosts and sweep thread counts.
     */
    MetricsRegistry metrics;

    /** Fraction of allocation requests that blocked. */
    double
    blockRate() const
    {
        const auto req = routerTotals.get("requests");
        return req ? static_cast<double>(routerTotals.get("blocks")) /
                         static_cast<double>(req)
                   : 0.0;
    }
};

/** Run a closed-loop experiment on a finalized network. */
ExperimentResult runClosedLoop(Network &net,
                               const ExperimentConfig &config);

/** Run an open-loop experiment on a finalized network. */
ExperimentResult runOpenLoop(Network &net,
                             const ExperimentConfig &config);

/** Run a session-model experiment on a finalized network. */
ExperimentResult runSessionLoop(Network &net,
                                const ExperimentConfig &config);

/**
 * Validate workload knobs (the validateRetryPolicy pattern): empty
 * string = valid, else a human-readable reason. `num_endpoints` = 0
 * skips the network-size-dependent checks (spec-file topologies
 * whose size is unknown at parse time).
 */
std::string validateExperimentConfig(const ExperimentConfig &config,
                                     unsigned num_endpoints);

} // namespace metro

#endif // METRO_TRAFFIC_EXPERIMENT_HH
