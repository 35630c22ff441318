/**
 * @file
 * In-memory span recorder for the benchmark's traced run.
 *
 * Spans are recorded from the benchmark's own code, around its calls
 * into the simulator's public functions; nothing inside the library
 * is instrumented. Each span carries a name, start and end (seconds
 * since the process origin), the id of the span that caused it and
 * the recording thread. Spans stay in memory and are written as one
 * Chrome-trace JSON file when the run ends.
 *
 * Two levels: top-level phase spans (setup, timed phase, checks) are
 * recorded whenever tracing is on, so their union can be compared
 * with the process's wall time; detail spans are recorded only while
 * setDetail(true), so the traced run can alternate traced and
 * untraced repetitions and report the tracing overhead.
 */

#ifndef METROBENCH_TRACE_HH
#define METROBENCH_TRACE_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace mb
{

using Clock = std::chrono::steady_clock;

/** Seconds since the process origin (first call to this function
 *  happens at the top of main). */
double now();

/** One finished span. */
struct SpanRecord
{
    const char *name = "";
    double start = 0.0;
    double end = 0.0;
    std::uint32_t id = 0;
    std::uint32_t parent = 0; ///< 0 = top level
    unsigned tid = 0;
};

/** Aggregate over every span of one name. */
struct SpanTotals
{
    std::size_t count = 0;
    double total = 0.0; ///< summed durations, seconds
    double self = 0.0;  ///< summed self times, seconds
};

class Tracer
{
  public:
    static Tracer &get();

    /** Record anything at all (the traced run). */
    void enable(bool on) { enabled_ = on; }
    bool enabled() const { return enabled_; }

    /** Record detail spans too (traced repetitions). */
    void setDetail(bool on) { detail_ = on; }
    bool detail() const { return enabled_ && detail_; }

    /** A fresh span id (never 0). */
    std::uint32_t newId();

    /** Store a finished span. Thread-safe. */
    void record(const SpanRecord &span);

    /** Store a span with explicit times (spans between two
     *  callbacks, such as one serve window), under `id` when given
     *  (so children recorded earlier can name it as their parent).
     *  Returns its id. */
    std::uint32_t recordSpan(const char *name, double start, double end,
                             std::uint32_t parent, std::uint32_t id = 0);

    /** The innermost open span on this thread (0 if none). */
    std::uint32_t current() const;

    /** Per-name totals with self time (duration minus the union of
     *  the intervals its child spans cover). */
    std::map<std::string, SpanTotals> totals() const;

    /** Share of [0, end] that the union of top-level spans covers. */
    double coverage(double end) const;

    std::size_t size() const;

    /** Write every span as a Chrome-trace JSON document. Returns
     *  false when the file cannot be written. */
    bool writeChromeTrace(const std::string &path) const;

  private:
    /** Self time of every span, indexed like spans_ (mu_ held). */
    std::vector<double> selfTimes() const;

    bool enabled_ = false;
    bool detail_ = false;
    mutable std::mutex mu_;
    std::vector<SpanRecord> spans_; ///< guarded by mu_
    std::uint32_t nextId_ = 1;      ///< guarded by mu_
};

/**
 * RAII span. A top-level span is recorded whenever tracing is on; a
 * detail span only in traced repetitions. The parent defaults to the
 * innermost open span on this thread; pass one explicitly for work a
 * call hands to another thread (sweep workers).
 */
class Span
{
  public:
    enum Level
    {
        Top,
        Detail
    };

    explicit Span(const char *name, Level level = Detail,
                  std::uint32_t parent = kInherit);
    ~Span();

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    /** This span's id (0 when not recording). */
    std::uint32_t id() const { return rec_.id; }

    static constexpr std::uint32_t kInherit = 0xffffffffu;

  private:
    SpanRecord rec_;
    bool live_ = false;
};

} // namespace mb

#endif // METROBENCH_TRACE_HH
