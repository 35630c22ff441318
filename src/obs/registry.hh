/**
 * @file
 * Central metrics registry: named monotone counters and log-scale
 * histograms fed by routers and network interfaces (through the
 * owning Network; see obs/counters.hh), probes and the connection
 * tracer.
 *
 * Slots are registered by name (dotted lower-case, e.g.
 * "words.injected", "router.3.occupancy") and the returned
 * reference/pointer may be cached: both maps use node-based
 * containers, so slots stay valid for the registry's lifetime.
 *
 * Every value is derived purely from simulated events — never from
 * wall-clock time — so metrics are bit-identical across hosts and
 * across sweep thread counts. Counters are monotone and histograms
 * are bucket-monotone, which makes deltaSince() exact: experiments
 * snapshot the registry, run, and subtract.
 */

#ifndef METRO_OBS_REGISTRY_HH
#define METRO_OBS_REGISTRY_HH

#include <bit>
#include <cstdint>
#include <map>
#include <string>

namespace metro
{

/**
 * Log2-bucketed histogram of unsigned samples.
 *
 * Bucket 0 holds the value 0; bucket k >= 1 holds values in
 * [2^(k-1), 2^k). 65 buckets cover the full uint64 range. Only
 * bucket counts and the running sum are stored, so two histograms
 * taken from the same monotone source can be subtracted bucket-wise
 * (see delta()); min()/max() are therefore bucket-resolution
 * approximations (lower bound of the extreme occupied buckets).
 */
class LogHistogram
{
  public:
    static constexpr unsigned kBuckets = 65;

    void
    sample(std::uint64_t value)
    {
        ++buckets_[bucketOf(value)];
        ++count_;
        sum_ += value;
    }

    /** Record the same value n times in O(1) — exactly equivalent
     *  to n sample(value) calls (used by the quiescence scheduler's
     *  skipped-cycle catch-up; see MetroRouter::syncSkipped). */
    void
    sample(std::uint64_t value, std::uint64_t n)
    {
        buckets_[bucketOf(value)] += n;
        count_ += n;
        sum_ += value * n;
    }

    /** Bucket index a value falls into. */
    static unsigned
    bucketOf(std::uint64_t value)
    {
        return static_cast<unsigned>(std::bit_width(value));
    }

    /** Inclusive lower bound of bucket k. */
    static std::uint64_t
    bucketFloor(unsigned k)
    {
        return k == 0 ? 0 : std::uint64_t{1} << (k - 1);
    }

    std::uint64_t count() const { return count_; }
    std::uint64_t sum() const { return sum_; }
    std::uint64_t bucket(unsigned k) const { return buckets_[k]; }

    double
    mean() const
    {
        return count_ == 0
            ? 0.0
            : static_cast<double>(sum_) / static_cast<double>(count_);
    }

    /** Lower bound of the lowest occupied bucket (0 when empty). */
    std::uint64_t
    min() const
    {
        for (unsigned k = 0; k < kBuckets; ++k) {
            if (buckets_[k] != 0)
                return bucketFloor(k);
        }
        return 0;
    }

    /** Lower bound of the highest occupied bucket (0 when empty). */
    std::uint64_t
    max() const
    {
        for (unsigned k = kBuckets; k-- > 0;) {
            if (buckets_[k] != 0)
                return bucketFloor(k);
        }
        return 0;
    }

    void
    merge(const LogHistogram &other)
    {
        for (unsigned k = 0; k < kBuckets; ++k)
            buckets_[k] += other.buckets_[k];
        count_ += other.count_;
        sum_ += other.sum_;
    }

    /**
     * Bucket-wise subtraction. Exact when `baseline` is an earlier
     * snapshot of this histogram (buckets only ever grow).
     */
    LogHistogram
    delta(const LogHistogram &baseline) const
    {
        LogHistogram d;
        for (unsigned k = 0; k < kBuckets; ++k)
            d.buckets_[k] = buckets_[k] - baseline.buckets_[k];
        d.count_ = count_ - baseline.count_;
        d.sum_ = sum_ - baseline.sum_;
        return d;
    }

    void
    reset()
    {
        for (auto &b : buckets_)
            b = 0;
        count_ = 0;
        sum_ = 0;
    }

  private:
    friend class CheckpointIO;

    std::uint64_t buckets_[kBuckets] = {};
    std::uint64_t count_ = 0;
    std::uint64_t sum_ = 0;
};

/**
 * Named counters + histograms. Copyable (snapshots are plain value
 * copies); deterministic iteration (std::map, sorted by name).
 */
class MetricsRegistry
{
  public:
    /** Find-or-create a counter slot. The reference stays valid for
     *  the registry's lifetime (map nodes are stable). */
    std::uint64_t &
    counter(const std::string &name)
    {
        return counters_[name];
    }

    /** Find-or-create a histogram slot (same stability guarantee). */
    LogHistogram &
    histogram(const std::string &name)
    {
        return histograms_[name];
    }

    void
    add(const std::string &name, std::uint64_t delta)
    {
        counters_[name] += delta;
    }

    /** Read a counter; 0 when absent. */
    std::uint64_t
    get(const std::string &name) const
    {
        auto it = counters_.find(name);
        return it == counters_.end() ? 0 : it->second;
    }

    /** Look up a histogram; nullptr when absent. */
    const LogHistogram *
    findHistogram(const std::string &name) const
    {
        auto it = histograms_.find(name);
        return it == histograms_.end() ? nullptr : &it->second;
    }

    const std::map<std::string, std::uint64_t> &
    counters() const
    {
        return counters_;
    }

    const std::map<std::string, LogHistogram> &
    histograms() const
    {
        return histograms_;
    }

    /**
     * Subtract an earlier snapshot of this registry. Slots absent
     * from the baseline are taken as zero; slots present only in the
     * baseline must not have shrunk (monotonicity) and are omitted
     * when their delta is zero-valued anyway.
     */
    MetricsRegistry deltaSince(const MetricsRegistry &baseline) const;

  private:
    std::map<std::string, std::uint64_t> counters_;
    std::map<std::string, LogHistogram> histograms_;
};

/**
 * Deterministic JSON rendering of a registry: counters as an object
 * of integers, histograms as {count, sum, mean, min, max, buckets}
 * with buckets a list of [floor, count] pairs for occupied buckets
 * only. `indent` is prepended to every line after the first; the
 * result carries no trailing newline.
 */
std::string metricsJson(const MetricsRegistry &m,
                        const std::string &indent = "");

} // namespace metro

#endif // METRO_OBS_REGISTRY_HH
