/**
 * @file
 * Unit tests for the serving components: the Fig. 5b k-decision table
 * and its calibration, the request scheduler's cache accounting, the
 * PID controller, the metrics collector, and the global monitor
 * (Algorithm 1 in both modes, small-model escalation, PID damping).
 */

#include <gtest/gtest.h>

#include <cmath>

#include "src/common/rng.hh"
#include "src/serving/k_decision.hh"
#include "src/serving/metrics.hh"
#include "src/serving/monitor.hh"
#include "src/serving/pid.hh"
#include "src/serving/scheduler.hh"

namespace modm::serving {
namespace {

TEST(KDecision, PaperTableFig5b)
{
    // Fig. 5b: >=0.25 -> 5, >=0.27 -> 10, >=0.28 -> 15, >=0.29 -> 25,
    // >=0.30 -> 30.
    KDecision kd;
    EXPECT_FALSE(kd.isHit(0.249));
    EXPECT_TRUE(kd.isHit(0.25));
    EXPECT_EQ(kd.decide(0.25), 5);
    EXPECT_EQ(kd.decide(0.265), 5);
    EXPECT_EQ(kd.decide(0.27), 10);
    EXPECT_EQ(kd.decide(0.285), 15);
    EXPECT_EQ(kd.decide(0.295), 25);
    EXPECT_EQ(kd.decide(0.31), 30);
}

TEST(KDecision, CalibrationRecoversThresholds)
{
    // Synthetic quality response: Q(k, s) = 1 + (s - tau_k) * 4 with
    // known tau; calibration must recover tau at alpha = 1.0 within a
    // bucket width.
    const std::map<int, double> tau = {
        {5, 0.25}, {10, 0.27}, {15, 0.28}};
    std::vector<CalibrationPoint> points;
    for (const auto &[k, t] : tau) {
        for (double s = 0.20; s <= 0.34; s += 0.001)
            points.push_back({k, s, 1.0 + (s - t) * 4.0});
    }
    const auto config = KDecision::calibrate(points, 1.0, 0.005);
    ASSERT_EQ(config.ks.size(), 3u);
    for (std::size_t i = 0; i < config.ks.size(); ++i)
        EXPECT_NEAR(config.floors[i], tau.at(config.ks[i]), 0.011)
            << "k=" << config.ks[i];
}

TEST(KDecision, CalibrationEnforcesMonotoneFloors)
{
    std::vector<CalibrationPoint> points;
    // k=5 crosses at 0.28, k=10 (noisily) at 0.26: floors must not
    // decrease with k after monotonicity enforcement.
    for (double s = 0.20; s <= 0.34; s += 0.001) {
        points.push_back({5, s, 1.0 + (s - 0.28) * 4.0});
        points.push_back({10, s, 1.0 + (s - 0.26) * 4.0});
    }
    const auto config = KDecision::calibrate(points, 1.0);
    ASSERT_EQ(config.ks.size(), 2u);
    EXPECT_GE(config.floors[1], config.floors[0]);
}

TEST(Scheduler, CacheBytesFollowTheSystem)
{
    // MoDM is charged its cached images' bytes; Nirvana and Pinecone
    // one latent set per entry, whatever the images weigh.
    for (const auto kind :
         {SystemKind::MoDM, SystemKind::Nirvana, SystemKind::Pinecone}) {
        SCOPED_TRACE(systemKindName(kind));
        ServingConfig config;
        config.kind = kind;
        config.cacheCapacity = 2;
        config.latentCacheCapacity = 2;
        RequestScheduler scheduler(config);
        Rng rng(31);
        embedding::TextEncoder text;
        for (std::uint64_t id = 1; id <= 3; ++id) {
            diffusion::Image image;
            image.id = id;
            image.content = randomUnitVec(embedding::kEmbeddingDim, rng);
            image.fidelity = 0.95;
            image.byteSize = 1.4e6;
            const auto key = text.encode(randomUnitVec(64, rng),
                                         randomUnitVec(64, rng), "p");
            scheduler.admitGenerated(image, key, /*from_miss=*/true,
                                     static_cast<double>(id));
        }
        ASSERT_NE(scheduler.imageCache(), nullptr);
        EXPECT_EQ(scheduler.imageCache()->size(), 2u);
        EXPECT_DOUBLE_EQ(scheduler.cacheBytes(),
                         kind == SystemKind::MoDM ? 2 * 1.4e6
                                                  : 2 * kLatentSetBytes);
    }

    ServingConfig vanilla;
    vanilla.kind = SystemKind::Vanilla;
    const RequestScheduler scheduler(vanilla);
    EXPECT_EQ(scheduler.imageCache(), nullptr);
    EXPECT_EQ(scheduler.cacheBytes(), 0.0);
}

TEST(Pid, ProportionalStep)
{
    PidController pid({.kp = 0.5, .ki = 0.0, .kd = 0.0});
    EXPECT_DOUBLE_EQ(pid.compute(10.0, 6.0), 2.0);
}

TEST(Pid, IntegralAccumulates)
{
    PidController pid({.kp = 0.0, .ki = 0.1, .kd = 0.0});
    EXPECT_NEAR(pid.compute(1.0, 0.0), 0.1, 1e-12);
    EXPECT_NEAR(pid.compute(1.0, 0.0), 0.2, 1e-12);
    pid.reset();
    EXPECT_NEAR(pid.compute(1.0, 0.0), 0.1, 1e-12);
}

TEST(Pid, DerivativeRespondsToErrorChange)
{
    PidController pid({.kp = 0.0, .ki = 0.0, .kd = 1.0});
    EXPECT_DOUBLE_EQ(pid.compute(1.0, 0.0), 0.0); // no previous error
    EXPECT_DOUBLE_EQ(pid.compute(3.0, 0.0), 2.0); // error rose by 2
}

TEST(Pid, PaperGainsConvergeWithoutOscillation)
{
    // Track a step change in the setpoint with the paper's tuning; the
    // controlled value must settle near the target without overshooting
    // wildly.
    PidController pid; // paper gains 0.6 / 0.05 / 0.05
    double value = 16.0;
    double peak = 0.0;
    for (int i = 0; i < 40; ++i) {
        value += pid.compute(4.0, value);
        peak = std::max(peak, std::fabs(value - 4.0));
    }
    EXPECT_NEAR(value, 4.0, 0.5);
    EXPECT_LT(peak, 13.0);
}

TEST(Metrics, AggregatesMatchRecords)
{
    MetricsCollector m;
    RequestRecord r;
    r.arrival = 0.0;
    r.start = 1.0;
    r.finish = 11.0;
    r.cacheHit = true;
    r.k = 10;
    m.record(r);
    r.arrival = 5.0;
    r.start = 11.0;
    r.finish = 65.0;
    r.cacheHit = false;
    r.k = 0;
    m.record(r);

    EXPECT_EQ(m.count(), 2u);
    EXPECT_DOUBLE_EQ(m.hitRate(), 0.5);
    EXPECT_DOUBLE_EQ(m.meanK(), 10.0);
    EXPECT_DOUBLE_EQ(m.meanLatency(), (11.0 + 60.0) / 2.0);
    EXPECT_DOUBLE_EQ(m.sloViolationRate(30.0), 0.5);
    EXPECT_DOUBLE_EQ(m.sloViolationRate(100.0), 0.0);
    EXPECT_DOUBLE_EQ(m.lastCompletion(), 65.0);
    EXPECT_NEAR(m.throughputPerMinute(), 2.0 * 60.0 / 65.0, 1e-9);
}

TEST(Metrics, CompletionsPerMinuteBuckets)
{
    MetricsCollector m;
    for (double t : {10.0, 30.0, 70.0, 130.0}) {
        RequestRecord r;
        r.finish = t;
        m.record(r);
    }
    const auto buckets = m.completionsPerMinute(180.0);
    ASSERT_EQ(buckets.size(), 3u);
    EXPECT_DOUBLE_EQ(buckets[0], 2.0);
    EXPECT_DOUBLE_EQ(buckets[1], 1.0);
    EXPECT_DOUBLE_EQ(buckets[2], 1.0);
}

MonitorConfig
testMonitorConfig(MonitorMode mode)
{
    MonitorConfig config;
    config.numWorkers = 16;
    config.pLarge = 0.625;             // SD3.5L on MI210
    config.pSmall = {1.5, 4.14};       // SDXL, SANA on MI210
    config.totalSteps = 50;
    config.mode = mode;
    return config;
}

MonitorInputs
testInputs(double rate, double hit_rate)
{
    MonitorInputs inputs;
    inputs.requestRate = rate;
    inputs.hitRate = hit_rate;
    inputs.kRates = {{5, 0.2}, {15, 0.3}, {25, 0.3}, {30, 0.2}};
    return inputs;
}

TEST(Monitor, WorkloadsFollowEquations)
{
    GlobalMonitor monitor(
        testMonitorConfig(MonitorMode::ThroughputOptimized));
    const auto inputs = testInputs(20.0, 0.9);
    // Eq. 7: (1 - 0.9) * 20 = 2.
    EXPECT_NEAR(monitor.missWorkload(inputs), 2.0, 1e-9);
    // Eq. 8: 0.9 * 20 * sum P(k)(1 - k/50); refine factor:
    // 0.2*0.9 + 0.3*0.7 + 0.3*0.5 + 0.2*0.4 = 0.62.
    EXPECT_NEAR(monitor.hitWorkload(inputs), 18.0 * 0.62, 1e-9);
}

TEST(Monitor, QualityModeMaximizesLargeUnderConstraints)
{
    GlobalMonitor monitor(
        testMonitorConfig(MonitorMode::QualityOptimized));
    // Light load: everything fits on large models -> allocation stays
    // large-heavy.
    const double light = monitor.heuristicNumLarge(testInputs(4.0, 0.9),
                                                   0);
    EXPECT_GE(light, 15.0);
    // Heavy load: hits must be off-loaded to small models.
    const double heavy = monitor.heuristicNumLarge(testInputs(22.0, 0.9),
                                                   0);
    EXPECT_LE(heavy, 12.0);
    EXPECT_GE(heavy, std::ceil(2.2 / 0.625)); // still covers misses
}

TEST(Monitor, ThroughputModeSplitsByWorkloadRatio)
{
    GlobalMonitor monitor(
        testMonitorConfig(MonitorMode::ThroughputOptimized));
    const auto inputs = testInputs(20.0, 0.9);
    // Eq. 11-12: weighted hit workload = 11.16 * 0.625 / 1.5 = 4.65;
    // numLarge = 2 / (4.65 + 2) * 16 = 4.81.
    const double n = monitor.heuristicNumLarge(inputs, 0);
    EXPECT_NEAR(n, 2.0 / (11.16 * 0.625 / 1.5 + 2.0) * 16.0, 0.01);
}

TEST(Monitor, EscalatesSmallModelUnderPressure)
{
    GlobalMonitor monitor(
        testMonitorConfig(MonitorMode::ThroughputOptimized));
    // Moderate load: SDXL (index 0) suffices.
    auto alloc = monitor.update(testInputs(14.0, 0.8));
    EXPECT_EQ(alloc.smallModelIndex, 0u);
    // Beyond SDXL's reach (paper: above ~22/min on 16 MI210s) the
    // monitor must switch to SANA.
    alloc = monitor.update(testInputs(30.0, 0.8));
    EXPECT_EQ(alloc.smallModelIndex, 1u);
}

TEST(Monitor, FeasibilityChecksBothConstraints)
{
    GlobalMonitor monitor(
        testMonitorConfig(MonitorMode::ThroughputOptimized));
    EXPECT_TRUE(monitor.feasible(testInputs(10.0, 0.9), 0));
    // All-miss load beyond total large capacity (16 * 0.625 = 10/min).
    EXPECT_FALSE(monitor.feasible(testInputs(12.0, 0.0), 0));
}

TEST(Monitor, PidDampsAllocationChanges)
{
    GlobalMonitor monitor(
        testMonitorConfig(MonitorMode::ThroughputOptimized));
    // Initial allocation is all-large (16); a sudden hit-heavy load
    // must move the allocation down gradually, not in one step.
    const auto first = monitor.update(testInputs(20.0, 0.9));
    EXPECT_GT(first.numLarge, 6);
    int last = first.numLarge;
    int steps = 0;
    while (steps < 50) {
        const auto alloc = monitor.update(testInputs(20.0, 0.9));
        EXPECT_LE(alloc.numLarge, last + 2); // no wild oscillation
        last = alloc.numLarge;
        ++steps;
        if (last <= 6)
            break;
    }
    EXPECT_LE(last, 6);
    // The first update must not jump straight to the ~5-worker target:
    // damping spreads the move over multiple periods.
    EXPECT_GE(first.numLarge, 8);
}

TEST(Monitor, AllocationStaysWithinBounds)
{
    GlobalMonitor monitor(
        testMonitorConfig(MonitorMode::QualityOptimized));
    for (double rate : {1.0, 5.0, 15.0, 40.0, 100.0}) {
        const auto alloc = monitor.update(testInputs(rate, 0.5));
        EXPECT_GE(alloc.numLarge, 1);
        EXPECT_LE(alloc.numLarge, 16);
    }
}

} // namespace
} // namespace modm::serving
