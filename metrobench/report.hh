/**
 * @file
 * What one workload run hands back to main: named metrics with
 * units, the checked-operation tally, the output digest and notes.
 */

#ifndef METROBENCH_REPORT_HH
#define METROBENCH_REPORT_HH

#include <cstdint>
#include <string>
#include <vector>

namespace mb
{

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** A timing tail: the highest of p99.9/p99/p90/p50 with at least
 *  ten samples beyond it (the maximum below 20 samples). */
struct Tail
{
    double percentile = 100.0;
    double value = 0.0;
    std::size_t samples = 0;
};

struct Result
{
    std::vector<Metric> metrics;

    /** Checked operations and how many failed (failed_frac). @{ */
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** @} */

    /** FNV-1a of the workload's deterministic outputs. */
    std::string digest;

    /** Human-readable lines printed before the metrics. */
    std::vector<std::string> notes;

    /** Set (or overwrite) a metric. */
    void set(const std::string &name, double value,
             const std::string &unit);

    /** Count one checked operation; a failure is noted with `what`. */
    void check(bool ok, const std::string &what);

    void note(const std::string &line) { notes.push_back(line); }
};

/** Settings every workload receives from the command line. */
struct RunOptions
{
    std::uint64_t seed = 1;
    double seconds = 30.0;
    bool trace = false;
    std::string workDir = ".";
};

double median(std::vector<double> v);
double percentile(std::vector<double> v, double p);
Tail tail(const std::vector<double> &v);
std::string describeTail(const char *what, const Tail &t,
                         const char *unit);

/** FNV-1a 64 over `text`, continuing from `h`. */
std::uint64_t fnv1a(const std::string &text,
                    std::uint64_t h = 0xcbf29ce484222325ULL);
std::string hex64(std::uint64_t v);

/**
 * Remove what a speed-only change may legitimately move from a
 * rendered output before it is digested or byte-compared: the
 * scheduler's own counters ("engine.*": ticks skipped, links
 * fast-pathed) and any host-side object ("host": {...}). What is
 * left is derived from simulated events only.
 */
std::string simulatedOnly(const std::string &text);

/** ru_maxrss of this process, in MiB. */
double peakRssMb();

/** Hardware threads (at least 1). */
unsigned hardwareThreads();

} // namespace mb

#endif // METROBENCH_REPORT_HH
