/**
 * @file
 * Lightweight statistics primitives for simulation runs.
 *
 * These back the aggregate-performance experiments (Figure 3 and the
 * fault-degradation sweeps): latency histograms, retry counts, port
 * utilization, offered vs. delivered load.
 */

#ifndef METRO_COMMON_STATS_HH
#define METRO_COMMON_STATS_HH

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/logging.hh"

namespace metro
{

/**
 * Running scalar summary: count, mean, min, max, variance
 * (Welford's online algorithm).
 */
class Summary
{
  public:
    /** Record one sample. */
    void
    sample(double x)
    {
        ++count_;
        const double delta = x - mean_;
        mean_ += delta / static_cast<double>(count_);
        m2_ += delta * (x - mean_);
        min_ = std::min(min_, x);
        max_ = std::max(max_, x);
        sum_ += x;
    }

    /** Number of samples recorded. */
    std::uint64_t count() const { return count_; }

    /** Arithmetic mean (0 when empty). */
    double mean() const { return count_ ? mean_ : 0.0; }

    /** Sum of all samples. */
    double sum() const { return sum_; }

    /** Smallest sample (0 when empty). */
    double min() const { return count_ ? min_ : 0.0; }

    /** Largest sample (0 when empty). */
    double max() const { return count_ ? max_ : 0.0; }

    /** Sample variance (0 with fewer than two samples). */
    double
    variance() const
    {
        return count_ > 1 ? m2_ / static_cast<double>(count_ - 1) : 0.0;
    }

    /** Sample standard deviation. */
    double stddev() const { return std::sqrt(variance()); }

    /** Forget all samples. */
    void
    reset()
    {
        count_ = 0;
        mean_ = 0.0;
        m2_ = 0.0;
        sum_ = 0.0;
        min_ = std::numeric_limits<double>::infinity();
        max_ = -std::numeric_limits<double>::infinity();
    }

  private:
    std::uint64_t count_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double sum_ = 0.0;
    double min_ = std::numeric_limits<double>::infinity();
    double max_ = -std::numeric_limits<double>::infinity();
};

/**
 * Histogram over non-negative integer samples that also retains the
 * raw samples for exact percentile queries. Simulation runs are
 * short enough (≤ millions of messages) that retaining samples is
 * cheap and keeps percentiles exact.
 */
class Histogram
{
  public:
    /** Record one sample. */
    void
    sample(std::uint64_t x)
    {
        samples_.push_back(x);
        summary_.sample(static_cast<double>(x));
        sorted_ = false;
    }

    /** Number of samples recorded. */
    std::uint64_t count() const { return summary_.count(); }

    /** Arithmetic mean. */
    double mean() const { return summary_.mean(); }

    /** Smallest sample. */
    double min() const { return summary_.min(); }

    /** Largest sample. */
    double max() const { return summary_.max(); }

    /** Sample standard deviation. */
    double stddev() const { return summary_.stddev(); }

    /**
     * Exact percentile by nearest-rank. @param p in [0, 100].
     * Returns 0 when empty.
     */
    std::uint64_t
    percentile(double p) const
    {
        if (samples_.empty())
            return 0;
        METRO_ASSERT(p >= 0.0 && p <= 100.0,
                     "percentile out of range: %f", p);
        sortIfNeeded();
        const auto n = samples_.size();
        auto rank = static_cast<std::size_t>(
            std::ceil(p / 100.0 * static_cast<double>(n)));
        if (rank == 0)
            rank = 1;
        return samples_[rank - 1];
    }

    /** Median (50th percentile). */
    std::uint64_t median() const { return percentile(50.0); }

    /** Forget all samples. */
    void
    reset()
    {
        samples_.clear();
        summary_.reset();
        sorted_ = false;
    }

    /** The retained raw samples (unsorted order not guaranteed). */
    const std::vector<std::uint64_t> &samples() const { return samples_; }

  private:
    void
    sortIfNeeded() const
    {
        if (!sorted_) {
            std::sort(samples_.begin(), samples_.end());
            sorted_ = true;
        }
    }

    mutable std::vector<std::uint64_t> samples_;
    mutable bool sorted_ = false;
    Summary summary_;
};

} // namespace metro

#endif // METRO_COMMON_STATS_HH
