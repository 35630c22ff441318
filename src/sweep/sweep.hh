/**
 * @file
 * Deterministic parallel sweep runner.
 *
 * Every aggregate experiment in the paper's evaluation (the
 * Figure 3 load–latency curve, the fault-degradation tables, the
 * ablations) is a *sweep*: many independent simulations over
 * (network config, experiment config, replicate seed) points.
 * Simulations share nothing, so the sweep is embarrassingly
 * parallel; this runner farms the points over a thread pool while
 * keeping results bit-identical regardless of thread count or
 * schedule:
 *
 *  - each point builds its own isolated Network + Engine on the
 *    worker thread that claims it (no shared mutable state);
 *  - each point's experiment seed is a pure SplitMix64 function of
 *    (base seed, point index, replicate) — see sweepDeriveSeed() —
 *    so a point's simulation is independent of which worker runs
 *    it and in what order;
 *  - results are collected into the original point order.
 *
 * Wall-clock metadata (whole-sweep and per-point) is recorded on
 * the side; the report emitters keep it out of the deterministic
 * result payload so `--threads 1` and `--threads 8` produce
 * byte-identical files.
 */

#ifndef METRO_SWEEP_SWEEP_HH
#define METRO_SWEEP_SWEEP_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "network/network.hh"
#include "sim/component.hh"
#include "sim/engine.hh"
#include "traffic/experiment.hh"

namespace metro
{

/** Traffic loop discipline of one sweep point. */
enum class SweepMode : std::uint8_t
{
    Closed,  ///< stall-on-completion + think time
    Open,    ///< injection-process driven (Bernoulli/onoff/MMPP)
    Session, ///< open-loop session arrivals (traffic/session.hh)
};

/**
 * A fully-built, isolated simulation instance for one point.
 * `extras` keeps auxiliary components (fault injectors, probes)
 * alive for the run; the builder must already have registered them
 * with the network's engine.
 */
struct SweepInstance
{
    std::unique_ptr<Network> network;
    std::vector<std::unique_ptr<Component>> extras;
};

/**
 * One independent simulation in a sweep: a network recipe plus an
 * experiment configuration plus a replicate index.
 *
 * `build` is invoked on a worker thread and must return a freshly
 * constructed instance that shares no mutable state with any other
 * point (capture specs by value, never Network pointers).
 *
 * `config.seed` is treated as the point's *base* seed: the runner
 * replaces it with sweepDeriveSeed(base, index, replicate) before
 * running, so replicates of the same point draw decorrelated
 * streams and results do not depend on thread schedule.
 */
struct SweepPoint
{
    /** Row label in reports (e.g. "think=200"). */
    std::string label;

    /** Experiment settings; seed is the base seed (see above). */
    ExperimentConfig config;

    /** Replicate index of this (label, config) point. */
    unsigned replicate = 0;

    SweepMode mode = SweepMode::Closed;

    /**
     * Construct this point's isolated simulation instance. Receives
     * the point's *derived* seed (the one the experiment will run
     * with), so anything stochastic the builder attaches — fault
     * sampling, campaigns — derives from it and stays invariant
     * under thread count and schedule.
     */
    std::function<SweepInstance(std::uint64_t derived_seed)> build;

    /**
     * Optional post-run hook, called on the worker thread with the
     * point's network (still alive, post-drain) and result — e.g.
     * for invariant checks against the message ledger. Must only
     * touch this point's own state.
     */
    std::function<void(Network &, const ExperimentResult &)> inspect;
};

/** Result of one point, tagged with its descriptor and timing. */
struct SweepPointResult
{
    std::string label;
    unsigned replicate = 0;

    /** The derived seed the experiment actually ran with. */
    std::uint64_t seed = 0;

    ExperimentResult result;

    /** True when the sweep was stopped before this point ran (see
     *  SweepOptions::stopRequested); `result` is default-valued. */
    bool skipped = false;

    /** Wall-clock seconds this point took (timing metadata; kept
     *  out of deterministic report payloads). */
    double wallSeconds = 0.0;

    /** The engine's self-profile of this point's run, when the
     *  engine was profiling (timing metadata, like wallSeconds). */
    EngineProfile engineProfile;
};

/** Runner settings. */
struct SweepOptions
{
    /** Worker threads; 0 means one per hardware thread. */
    unsigned threads = 1;

    /** Engine worker threads per simulation instance (sharded
     *  parallel stepping; 0 means one per hardware thread). The
     *  engine's determinism guarantee keeps every result — metrics
     *  blobs included — byte-identical at every value, so this is
     *  purely a throughput knob. */
    unsigned engineThreads = 1;

    /** Turn on every point's engine self-profile (Engine::
     *  setProfiling); each result then carries its engineProfile. */
    bool profileEngine = false;

    /** Polled before each worker claims its next point; returning
     *  true stops the sweep gracefully (in-flight points finish,
     *  unclaimed points come back with `skipped` set). The CLI
     *  wires this to the SIGINT/SIGTERM flag. */
    std::function<bool()> stopRequested;
};

/** An ordered sweep outcome plus whole-sweep timing metadata. */
struct SweepResult
{
    /** Per-point results, in the order the points were given. */
    std::vector<SweepPointResult> points;

    /** Whole-sweep wall-clock seconds. */
    double wallSeconds = 0.0;

    /** Worker threads actually used. */
    unsigned threadsUsed = 0;
};

/**
 * Derive the experiment seed for one sweep point: a SplitMix64
 * chain over (base, index, replicate). Pure function — the same
 * triple always yields the same seed, distinct triples yield
 * decorrelated seeds — which is what makes sweep results
 * independent of thread count and schedule.
 */
std::uint64_t sweepDeriveSeed(std::uint64_t base,
                              std::uint64_t index,
                              std::uint64_t replicate);

/**
 * Run one point on the calling thread, exactly as a sweep worker
 * does. `index` is the point's position in its sweep and feeds the
 * seed derivation, so re-running points[i] with index i reproduces
 * the sweep's result bit for bit. `before_run`, when set, sees the
 * freshly built network before the experiment starts (e.g. to
 * attach a ConnectionTracer); `point.inspect` sees it afterwards.
 * If the engine is profiling when the run ends, the result carries
 * its profile.
 */
SweepPointResult runPoint(const SweepPoint &point, std::uint64_t index,
                          unsigned engine_threads = 1,
                          const std::function<void(Network &)>
                              &before_run = {});

/**
 * Run every point (possibly in parallel) and return the results in
 * point order. Points must be self-contained; see SweepPoint.
 */
SweepResult runSweep(const std::vector<SweepPoint> &points,
                     const SweepOptions &options = {});

} // namespace metro

#endif // METRO_SWEEP_SWEEP_HH
