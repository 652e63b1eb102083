#include "src/obs/metrics.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "src/common/log.hh"

namespace modm::obs {

const char *
metricKindName(MetricKind kind)
{
    switch (kind) {
      case MetricKind::Counter: return "counter";
      case MetricKind::Gauge: return "gauge";
      case MetricKind::Histogram: return "histogram";
    }
    return "?";
}

MetricsRegistry::MetricsRegistry(double window)
    : window_(window)
{
    MODM_ASSERT(window > 0.0, "metrics window must be positive");
}

MetricId
MetricsRegistry::define(std::string name, MetricKind kind)
{
    defs_.push_back({std::move(name), kind});
    current_.emplace_back();
    return defs_.size() - 1;
}

MetricId
MetricsRegistry::counter(std::string name)
{
    return define(std::move(name), MetricKind::Counter);
}

MetricId
MetricsRegistry::gauge(std::string name)
{
    return define(std::move(name), MetricKind::Gauge);
}

MetricId
MetricsRegistry::histogram(std::string name)
{
    return define(std::move(name), MetricKind::Histogram);
}

void
MetricsRegistry::roll(double t)
{
    const auto target =
        static_cast<std::uint64_t>(std::max(t, 0.0) / window_);
    // Flush every window between the current one and the sample's —
    // empty windows emit rows too, so the series has one row per
    // elapsed window and downstream plots need no gap-filling.
    while (touched_ && currentWindow_ < target) {
        flush();
        ++currentWindow_;
    }
    if (!touched_)
        currentWindow_ = target;
}

void
MetricsRegistry::flush()
{
    MetricsRow row;
    row.window = currentWindow_;
    row.values = current_;
    rows_.push_back(std::move(row));
    for (std::size_t i = 0; i < current_.size(); ++i) {
        const double last = current_[i].last;
        current_[i] = WindowValue{};
        // A gauge holds its reading across windows it is not set in.
        if (defs_[i].kind == MetricKind::Gauge) {
            current_[i].last = last;
            current_[i].min = last;
            current_[i].max = last;
        }
    }
}

void
MetricsRegistry::add(MetricId id, double t, double amount)
{
    MODM_ASSERT(id < defs_.size() &&
                defs_[id].kind == MetricKind::Counter,
                "add() on a non-counter metric");
    roll(t);
    touched_ = true;
    WindowValue &w = current_[id];
    ++w.count;
    w.sum += amount;
    w.last = amount;
}

void
MetricsRegistry::set(MetricId id, double t, double value)
{
    MODM_ASSERT(id < defs_.size() && defs_[id].kind == MetricKind::Gauge,
                "set() on a non-gauge metric");
    roll(t);
    touched_ = true;
    WindowValue &w = current_[id];
    if (w.count == 0) {
        w.min = value;
        w.max = value;
    } else {
        w.min = std::min(w.min, value);
        w.max = std::max(w.max, value);
    }
    ++w.count;
    w.sum += value;
    w.last = value;
}

void
MetricsRegistry::observe(MetricId id, double t, double value)
{
    MODM_ASSERT(id < defs_.size() &&
                defs_[id].kind == MetricKind::Histogram,
                "observe() on a non-histogram metric");
    roll(t);
    touched_ = true;
    WindowValue &w = current_[id];
    if (w.count == 0) {
        w.min = value;
        w.max = value;
    } else {
        w.min = std::min(w.min, value);
        w.max = std::max(w.max, value);
    }
    ++w.count;
    w.sum += value;
    w.last = value;
}

MetricsSeries
MetricsRegistry::take()
{
    if (touched_)
        flush();
    MetricsSeries series;
    series.window = window_;
    series.metrics = std::move(defs_);
    series.rows = std::move(rows_);
    rows_.clear();
    defs_.clear();
    current_.clear();
    touched_ = false;
    return series;
}

std::string
MetricsSeries::csv(const std::string &cell) const
{
    std::string out;
    char buf[256];
    std::snprintf(buf, sizeof(buf), "# modm-metrics v%d window=%.17g\n",
                  schema, window);
    out += buf;
    out += "cell,window_start,metric,kind,count,sum,min,max,last\n";
    for (const auto &row : rows) {
        for (std::size_t i = 0; i < metrics.size(); ++i) {
            const auto &v = row.values[i];
            std::snprintf(
                buf, sizeof(buf),
                "%s,%.17g,%s,%s,%llu,%.17g,%.17g,%.17g,%.17g\n",
                cell.c_str(),
                static_cast<double>(row.window) * window,
                metrics[i].name.c_str(),
                metricKindName(metrics[i].kind),
                static_cast<unsigned long long>(v.count), v.sum, v.min,
                v.max, v.last);
            out += buf;
        }
    }
    return out;
}

std::vector<double>
bucketCounts(const std::vector<double> &times, double width,
             double duration)
{
    MODM_ASSERT(width > 0.0, "bucket width must be positive");
    const auto buckets = static_cast<std::size_t>(
        std::ceil(std::max(duration, 1.0) / width));
    std::vector<double> out(buckets, 0.0);
    for (const double t : times) {
        const auto b = static_cast<std::size_t>(t / width);
        if (b < buckets)
            out[b] += 1.0;
    }
    return out;
}

std::vector<double>
groupMeans(const std::vector<double> &series, std::size_t group)
{
    MODM_ASSERT(group > 0, "group size must be positive");
    std::vector<double> out;
    out.reserve((series.size() + group - 1) / group);
    for (std::size_t start = 0; start < series.size(); start += group) {
        double acc = 0.0;
        for (std::size_t i = start;
             i < std::min(series.size(), start + group); ++i)
            acc += series[i];
        out.push_back(acc / static_cast<double>(group));
    }
    return out;
}

} // namespace modm::obs
