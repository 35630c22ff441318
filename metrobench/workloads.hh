/**
 * @file
 * The benchmark's workloads and the metric names they report.
 */

#ifndef METROBENCH_WORKLOADS_HH
#define METROBENCH_WORKLOADS_HH

#include <string>
#include <vector>

#include "network/network.hh"
#include "report.hh"
#include "trace.hh"

namespace mb
{

struct MetricSpec
{
    const char *name;
    const char *unit;
};

/** End-to-end metrics: every workload reports every one, measured
 *  with tracing off. */
extern const std::vector<MetricSpec> kEndToEnd;

/** Per-layer metrics: every traced run reports every one; a layer
 *  the workload does not exercise reads 0. */
extern const std::vector<MetricSpec> kPerLayer;

/** The Figure 3 load–latency sweep (runSweep, 2 workers). */
void runFig3Sweep(const RunOptions &opts, Result &out);

/** Saturated 1024-endpoint network on the sharded engine. */
void runMb1024Saturated(const RunOptions &opts, Result &out);

/** Serve windows with a fault campaign, diagnosis, periodic
 *  in-memory checkpoints and a restored continuation. */
void runServeCheckpoint(const RunOptions &opts, Result &out);

/** The old bench/micro_router cases, re-timed with plain loops
 *  (traced runs only). */
void runMicroCases(Result &out);

/** Wall seconds of traced and untraced repetitions. */
struct Repetitions
{
    std::vector<double> all;
    std::vector<double> traced;
    std::vector<double> untraced;
};

/**
 * Run `body(rep, detail)` until opts.seconds have passed and at
 * least `min_reps` ran. `body` returns the wall seconds of its timed
 * part. In a traced run every other repetition records detail spans
 * (`detail` true), so the traced and untraced medians give the
 * tracing overhead.
 */
template <class F>
Repetitions
repeatFor(const RunOptions &opts, unsigned min_reps, F &&body)
{
    Repetitions r;
    Tracer &tracer = Tracer::get();
    const bool before = tracer.detail();
    const double t0 = now();
    for (unsigned rep = 0; rep < min_reps || now() - t0 < opts.seconds;
         ++rep) {
        const bool detail = opts.trace && rep % 2 == 1;
        tracer.setDetail(detail);
        const double wall = body(rep, detail);
        r.all.push_back(wall);
        (detail ? r.traced : r.untraced).push_back(wall);
    }
    tracer.setDetail(before);
    return r;
}

/** (median traced / median untraced) - 1, or 0 without both. */
double overheadFrac(const Repetitions &r);

/** Exactly-once audit of a message ledger: "" when every message
 *  was delivered at most once (exactly once if it succeeded), else
 *  the first violation. */
std::string auditLedger(const metro::MessageTracker &tracker);

/** Simulated counts of `net` at its current cycle, from `snap` (a
 *  metricsSnapshot taken now) and the ledger: router requests and
 *  blocks, messages completed and given up, attempts per resolved
 *  message, ledger size, scheduler skips and their ratios. */
void reportNetworkCounts(metro::Network &net,
                         const metro::MetricsRegistry &snap,
                         Result &out);

} // namespace mb

#endif // METROBENCH_WORKLOADS_HH
