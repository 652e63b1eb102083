/**
 * @file
 * Statistics primitives shared by the simulator and the benchmark
 * harnesses: running mean/variance, percentile tracking for tail-latency
 * reporting, and fixed-bin histograms for distribution figures.
 */

#ifndef MODM_COMMON_STATS_HH
#define MODM_COMMON_STATS_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace modm {

/** Welford running mean / variance / min / max. */
class RunningStat
{
  public:
    /** Add one sample. */
    void add(double x);

    /** Number of samples so far. */
    std::uint64_t count() const { return count_; }

    /** Sample mean (0 when empty). */
    double mean() const { return count_ ? mean_ : 0.0; }

    /** Unbiased sample variance (0 with < 2 samples). */
    double variance() const;

    /** Sample standard deviation. */
    double stddev() const;

    /** Minimum sample (0 when empty). */
    double min() const { return count_ ? min_ : 0.0; }

    /** Maximum sample (0 when empty). */
    double max() const { return count_ ? max_ : 0.0; }

    /** Sum of all samples. */
    double sum() const { return sum_; }

  private:
    std::uint64_t count_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
    double sum_ = 0.0;
};

/**
 * Exact percentile tracker: stores all samples and sorts on demand.
 * Serving experiments run at most a few hundred thousand requests, so the
 * exact tracker is both affordable and free of estimator bias in the p99
 * numbers the paper reports.
 */
class PercentileTracker
{
  public:
    /** Add one sample. */
    void add(double x);

    /** Number of samples. */
    std::size_t count() const { return samples_.size(); }

    /**
     * Percentile in [0, 100] using nearest-rank interpolation; returns 0
     * when empty.
     */
    double percentile(double p) const;

    /** Convenience p99 accessor. */
    double p99() const { return percentile(99.0); }

    /** Mean of samples. */
    double mean() const;

    /** Maximum sample (0 when empty). */
    double max() const;

  private:
    mutable std::vector<double> samples_;
    mutable bool sorted_ = true;
};

/** Fixed-bin histogram over [lo, hi); out-of-range samples clamp. */
class Histogram
{
  public:
    /** Create with the given number of bins over [lo, hi). */
    Histogram(double lo, double hi, std::size_t bins);

    /** Add one sample. */
    void add(double x);

    /** Count in bin i. */
    std::uint64_t binCount(std::size_t i) const;

    /** Fraction of all samples in bin i (0 when empty). */
    double binFraction(std::size_t i) const;

    /** Center value of bin i. */
    double binCenter(std::size_t i) const;

    /** Number of bins. */
    std::size_t bins() const { return counts_.size(); }

    /** Total samples. */
    std::uint64_t total() const { return total_; }

    /** Mean of added samples. */
    double mean() const { return total_ ? sum_ / total_ : 0.0; }

  private:
    double lo_;
    double hi_;
    std::vector<std::uint64_t> counts_;
    std::uint64_t total_ = 0;
    double sum_ = 0.0;
};

} // namespace modm

#endif // MODM_COMMON_STATS_HH
