#include "src/serving/monitor.hh"

#include <algorithm>
#include <cmath>

#include "src/common/log.hh"

namespace modm::serving {

const char *
monitorModeName(MonitorMode mode)
{
    switch (mode) {
      case MonitorMode::QualityOptimized:
        return "quality-optimized";
      case MonitorMode::ThroughputOptimized:
        return "throughput-optimized";
    }
    panic("unknown MonitorMode");
}

GlobalMonitor::GlobalMonitor(MonitorConfig config)
    : config_(std::move(config)), pid_(config_.pid),
      currentNumLarge_(static_cast<double>(config_.numWorkers))
{
    MODM_ASSERT(config_.numWorkers >= 1, "monitor needs >= 1 worker");
    MODM_ASSERT(config_.pLarge > 0.0, "P_large must be positive");
    MODM_ASSERT(!config_.pSmall.empty(),
                "monitor needs at least one small-model candidate");
    for (double p : config_.pSmall)
        MODM_ASSERT(p > 0.0, "P_small must be positive");
    current_.numLarge = config_.numWorkers;
    current_.smallModelIndex = 0;
}

void
GlobalMonitor::reset()
{
    pid_.reset();
}

double
GlobalMonitor::missWorkload(const MonitorInputs &inputs) const
{
    // Eq. 7: W_miss = (1 - H) * R.
    return (1.0 - inputs.hitRate) * inputs.requestRate;
}

double
GlobalMonitor::hitWorkload(const MonitorInputs &inputs) const
{
    // Eq. 8: W_hit = H * R * sum_k P(K = k) (1 - k/T).
    double refineFactor = 0.0;
    for (const auto &[k, rate] : inputs.kRates) {
        refineFactor += rate *
            (1.0 - static_cast<double>(k) /
                       static_cast<double>(config_.totalSteps));
    }
    return inputs.hitRate * inputs.requestRate * refineFactor;
}

double
GlobalMonitor::heuristicNumLarge(const MonitorInputs &inputs,
                                 std::size_t small_index) const
{
    MODM_ASSERT(small_index < config_.pSmall.size(),
                "small model index out of range");
    const double missWl = missWorkload(inputs);
    const double hitWl = hitWorkload(inputs);
    const double pSmall = config_.pSmall[small_index];
    const int n = config_.numWorkers;

    if (config_.mode == MonitorMode::QualityOptimized) {
        // Algorithm 1 lines 10-19: start from the minimum number of
        // large models that covers the miss workload, then raise it
        // while the leftover large capacity plus the small models still
        // cover the hit workload.
        int numLarge = static_cast<int>(
            std::ceil(missWl / config_.pLarge));
        numLarge = std::clamp(numLarge, 1, n);
        while (numLarge <= n) {
            const double available =
                numLarge * config_.pLarge - missWl +
                (n - numLarge) * pSmall;
            if (available >= hitWl) {
                ++numLarge;
            } else {
                --numLarge;
                break;
            }
        }
        return std::clamp(numLarge, 1, n);
    }

    // Throughput-optimized, Algorithm 1 lines 20-24: weight the hit
    // workload by the throughput ratio and split workers by workload
    // share (Eqs. 11-12).
    const double hitWeighted = hitWl * config_.pLarge / pSmall;
    const double total = hitWeighted + missWl;
    if (total <= 0.0)
        return 1.0;
    return missWl / total * n;
}

bool
GlobalMonitor::feasible(const MonitorInputs &inputs,
                        std::size_t small_index) const
{
    const double missWl = missWorkload(inputs);
    const double hitWl = hitWorkload(inputs);
    const double pSmall = config_.pSmall[small_index];
    const int n = config_.numWorkers;

    const int minLarge = std::clamp(
        static_cast<int>(std::ceil(missWl / config_.pLarge)), 1, n);
    if (minLarge * config_.pLarge < missWl)
        return false; // even all-large cannot absorb misses
    const double available = minLarge * config_.pLarge - missWl +
        (n - minLarge) * pSmall;
    return available >= hitWl;
}

std::size_t
GlobalMonitor::chooseSmallModel(const MonitorInputs &inputs) const
{
    // Highest-quality candidate that still meets the load; when none
    // does, fall back to the fastest (last) candidate.
    for (std::size_t i = 0; i < config_.pSmall.size(); ++i) {
        if (feasible(inputs, i))
            return i;
    }
    return config_.pSmall.size() - 1;
}

Allocation
GlobalMonitor::update(const MonitorInputs &inputs)
{
    const std::size_t smallIndex = chooseSmallModel(inputs);
    const double target = heuristicNumLarge(inputs, smallIndex);

    // Algorithm 1 lines 25-29: PID-damped move toward the heuristic.
    const double delta = pid_.compute(target, currentNumLarge_);
    currentNumLarge_ += delta;
    currentNumLarge_ = std::clamp(
        currentNumLarge_, 1.0, static_cast<double>(config_.numWorkers));

    current_.numLarge = std::clamp(
        static_cast<int>(std::lround(currentNumLarge_)), 1,
        config_.numWorkers);
    current_.smallModelIndex = smallIndex;
    return current_;
}

} // namespace modm::serving
