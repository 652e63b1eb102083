/**
 * @file
 * Streaming metrics on virtual-clock windows.
 *
 * ServingResult reports end-of-run aggregates only, so every figure
 * that needed per-interval telemetry (hit rate over the stream in
 * Fig. 6, throughput per wall-clock window in Fig. 10) hand-rolled its
 * own windowed accounting. MetricsRegistry standardizes that: named
 * counters, gauges, and histograms sampled on fixed virtual-clock
 * windows, flushed into a MetricsSeries of per-window rows that
 * exports as a schema-versioned CSV time series.
 *
 * Everything is a pure function of the sample stream — no wall clocks,
 * no allocation-order dependence — so series produced by concurrent
 * sweep cells are bit-identical to serial ones.
 */

#ifndef MODM_OBS_METRICS_HH
#define MODM_OBS_METRICS_HH

#include <cstdint>
#include <string>
#include <vector>

namespace modm::obs {

/** Metrics CSV schema version (bump when columns change). */
inline constexpr int kMetricsSchema = 1;

/** What a metric aggregates per window. */
enum class MetricKind : std::uint8_t
{
    Counter,    ///< sum of added amounts
    Gauge,      ///< last set value (min/max of sets within the window)
    Histogram,  ///< count/sum/min/max of observed values
};

/** Printable kind name ("counter" / "gauge" / "histogram"). */
const char *metricKindName(MetricKind kind);

/** Registry handle for one metric. */
using MetricId = std::size_t;

/** Name + kind of one registered metric. */
struct MetricDef
{
    std::string name;
    MetricKind kind = MetricKind::Counter;
};

/** One metric's aggregate over one window. */
struct WindowValue
{
    /** Samples that touched the metric this window. */
    std::uint64_t count = 0;
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;
    /** Last sampled value (the gauge reading). */
    double last = 0.0;
};

/** One flushed window: aggregates for every registered metric. */
struct MetricsRow
{
    /** Window index; the window covers [window*width, (window+1)*width). */
    std::uint64_t window = 0;
    /** Parallel to MetricsSeries::metrics. */
    std::vector<WindowValue> values;
};

/** A finished time series: definitions plus per-window rows. */
struct MetricsSeries
{
    int schema = kMetricsSchema;
    /** Window width in virtual seconds. */
    double window = 0.0;
    std::vector<MetricDef> metrics;
    /** One row per window from the first sampled one, in order. */
    std::vector<MetricsRow> rows;

    /** True when nothing was registered or sampled. */
    bool empty() const { return metrics.empty() || rows.empty(); }

    /**
     * Render as CSV: a `# modm-metrics v<schema> window=<w>` comment,
     * a header row, then one line per (window, metric) with the
     * aggregate columns. `cell` labels the first column so series
     * from multiple sweep cells concatenate into one file.
     */
    std::string csv(const std::string &cell = "") const;
};

/**
 * The streaming registry. Register metrics up front, sample with
 * non-decreasing virtual timestamps, then take() the finished series.
 */
class MetricsRegistry
{
  public:
    /** @param window Window width in virtual seconds (> 0). */
    explicit MetricsRegistry(double window);

    /** Register a counter; returns its sampling handle. */
    MetricId counter(std::string name);

    /** Register a gauge. */
    MetricId gauge(std::string name);

    /** Register a histogram. */
    MetricId histogram(std::string name);

    /** Add `amount` to a counter at virtual time `t`. */
    void add(MetricId id, double t, double amount = 1.0);

    /** Set a gauge at virtual time `t`. */
    void set(MetricId id, double t, double value);

    /** Observe one histogram value at virtual time `t`. */
    void observe(MetricId id, double t, double value);

    /** Window width. */
    double window() const { return window_; }

    /**
     * Flush the open window and move the series out; the registry is
     * spent afterwards.
     */
    MetricsSeries take();

  private:
    MetricId define(std::string name, MetricKind kind);
    /** Flush complete windows up to (not including) `t`'s window. */
    void roll(double t);
    void flush();

    double window_;
    std::vector<MetricDef> defs_;
    std::vector<WindowValue> current_;
    std::uint64_t currentWindow_ = 0;
    bool touched_ = false;
    std::vector<MetricsRow> rows_;
};

/**
 * Count samples into fixed-width buckets over [0, duration): the
 * standardized form of the per-minute completion bucketing the
 * throughput-over-time figures use. ceil(max(duration,1)/width)
 * buckets; samples past the end are dropped (they belong to the
 * simulator's trailing drain, which the figures never plot).
 */
std::vector<double> bucketCounts(const std::vector<double> &times,
                                 double width, double duration);

/**
 * Mean of consecutive groups of `group` entries (last group padded
 * with zeros): the "per 4-minute window" re-bucketing the rate
 * figures apply on top of per-minute series.
 */
std::vector<double> groupMeans(const std::vector<double> &series,
                               std::size_t group);

} // namespace modm::obs

#endif // MODM_OBS_METRICS_HH
