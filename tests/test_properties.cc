/**
 * @file
 * Property-based tests on cross-module invariants:
 *
 *  - every SystemKind conserves requests, respects causality, and never
 *    serves a hit below the configured threshold;
 *  - the paper's quality constraint (Eq. 5): hits admitted by the
 *    Fig. 5b thresholds keep quality factor near alpha or better;
 *  - the monitor's allocation always covers the miss workload it was
 *    shown;
 *  - the DES never loses or duplicates completions under random load.
 */

#include <gtest/gtest.h>

#include <set>

#include "src/baselines/presets.hh"
#include "src/common/stats.hh"
#include "src/eval/metrics.hh"
#include "src/serving/system.hh"
#include "src/workload/trace.hh"

namespace modm::serving {
namespace {

/** Sweep every system kind through the same workload. */
class SystemKindProperty : public ::testing::TestWithParam<SystemKind>
{
};

TEST_P(SystemKindProperty, ConservationCausalityThresholds)
{
    const SystemKind kind = GetParam();
    baselines::PresetParams params;
    params.numWorkers = 3;
    params.cacheCapacity = 400;

    serving::ServingConfig config;
    switch (kind) {
      case SystemKind::MoDM:
        config = baselines::modm(diffusion::sd35Large(),
                                 diffusion::sdxl(), params);
        break;
      case SystemKind::Vanilla:
        config = baselines::vanilla(diffusion::sd35Large(), params);
        break;
      case SystemKind::Nirvana:
        config = baselines::nirvana(diffusion::sd35Large(), params);
        break;
      case SystemKind::Pinecone:
        config = baselines::pinecone(diffusion::sd35Large(), params);
        break;
      case SystemKind::StandaloneSmall:
        config = baselines::standalone(diffusion::sana(), params);
        break;
    }

    auto gen = workload::makeDiffusionDB(1234);
    std::vector<workload::Prompt> warm;
    for (int i = 0; i < 300; ++i)
        warm.push_back(gen->next());
    workload::PoissonArrivals arrivals(5.0);
    Rng rng(5);
    const auto trace = workload::buildTrace(*gen, arrivals, 250, rng);

    ServingSystem system(config);
    system.warmCache(warm);
    const auto result = system.run(trace);

    // Conservation: every request served exactly once.
    ASSERT_EQ(result.metrics.count(), trace.size());
    std::set<std::uint64_t> ids;
    for (const auto &r : result.metrics.records())
        ids.insert(r.promptId);
    EXPECT_EQ(ids.size(), trace.size());

    const KDecision kd(config.kDecision);
    for (const auto &r : result.metrics.records()) {
        // Causality.
        EXPECT_LE(r.arrival, r.start + 1e-9);
        EXPECT_LE(r.start, r.finish + 1e-9);
        // Threshold discipline per kind.
        if (!r.cacheHit)
            continue;
        switch (kind) {
          case SystemKind::MoDM:
            EXPECT_GE(r.similarity, config.kDecision.floors.front());
            EXPECT_EQ(r.k, kd.decide(r.similarity));
            break;
          case SystemKind::Pinecone:
            EXPECT_GE(r.similarity, kPineconeThreshold);
            break;
          case SystemKind::Nirvana:
            EXPECT_GE(r.similarity, kNirvanaKDecision.floors.front());
            EXPECT_EQ(r.k, KDecision(kNirvanaKDecision).decide(r.similarity));
            break;
          default:
            FAIL() << "kind cannot produce cache hits";
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, SystemKindProperty,
    ::testing::Values(SystemKind::MoDM, SystemKind::Vanilla,
                      SystemKind::Nirvana, SystemKind::Pinecone,
                      SystemKind::StandaloneSmall),
    [](const auto &info) { return systemKindName(info.param); });

/**
 * Eq. 5 quality constraint: refinements admitted at the Fig. 5b
 * threshold for k keep mean quality factor >= ~alpha. (alpha = 0.95;
 * a small tolerance absorbs calibration residue.)
 */
class QualityConstraintProperty : public ::testing::TestWithParam<int>
{
};

TEST_P(QualityConstraintProperty, AdmittedHitsMeetAlpha)
{
    const int k = GetParam();
    const KDecision kd;
    // The lowest similarity at which this k is selected.
    double floor = 0.0;
    const auto &config = kd.config();
    for (std::size_t i = 0; i < config.ks.size(); ++i)
        if (config.ks[i] == k)
            floor = config.floors[i];
    ASSERT_GT(floor, 0.0);

    workload::DiffusionDBModel gen({}, 777);
    diffusion::Sampler sampler(5);
    eval::MetricSuite metrics;
    embedding::TextEncoder text;
    embedding::ImageEncoder image;
    Rng rng(k);

    RunningStat quality;
    for (int i = 0; i < 4000 && quality.count() < 150; ++i) {
        auto base = gen.next();
        const auto baseImg =
            sampler.generate(diffusion::sd35Large(), base, 0.0);
        workload::Prompt query = base;
        query.id = base.id + 500000;
        query.visualConcept = jitterUnitVec(base.visualConcept,
                                            rng.uniform(0.0, 0.6), rng);
        const auto te = text.encode(query.visualConcept,
                                    query.lexicalStyle, query.text);
        const auto ie = image.encode(baseImg.content, baseImg.fidelity,
                                     baseImg.id);
        const double sim = te.similarity(ie);
        // Only pairs that the k-decision would map to exactly this k.
        if (!kd.isHit(sim) || kd.decide(sim) != k)
            continue;
        const auto refined =
            sampler.refine(diffusion::sdxl(), query, baseImg, k, 0.0);
        const auto full =
            sampler.generate(diffusion::sd35Large(), query, 0.0);
        quality.add(metrics.clipScore(query, refined) /
                    metrics.clipScore(query, full));
    }
    ASSERT_GE(quality.count(), 50u);
    EXPECT_GE(quality.mean(), 0.93);
}

INSTANTIATE_TEST_SUITE_P(PaperKSet, QualityConstraintProperty,
                         ::testing::Values(5, 10, 15, 25, 30));

/**
 * Monitor safety: across random inputs, the returned allocation covers
 * the miss workload whenever coverage is possible at all.
 */
TEST(MonitorProperty, AllocationEventuallyCoversMisses)
{
    MonitorConfig config;
    config.numWorkers = 16;
    config.pLarge = 0.625;
    config.pSmall = {1.5};
    config.mode = MonitorMode::ThroughputOptimized;
    GlobalMonitor monitor(config);

    Rng rng(9);
    for (int trial = 0; trial < 200; ++trial) {
        MonitorInputs inputs;
        inputs.requestRate = rng.uniform(1.0, 9.5);
        inputs.hitRate = rng.uniform(0.0, 1.0);
        inputs.kRates = {{5, 0.3}, {15, 0.4}, {30, 0.3}};
        // Let the PID settle on fixed inputs.
        Allocation alloc;
        for (int step = 0; step < 60; ++step)
            alloc = monitor.update(inputs);
        const double missWl = monitor.missWorkload(inputs);
        if (missWl <= config.numWorkers * config.pLarge) {
            EXPECT_GE(alloc.numLarge * config.pLarge + 0.625,
                      missWl * 0.9)
                << "rate " << inputs.requestRate << " hit "
                << inputs.hitRate;
        }
    }
}

/**
 * DES stress: random arrival bursts never lose completions, and the
 * virtual clock never goes backwards.
 */
TEST(DesProperty, RandomBurstsConserveRequests)
{
    for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
        auto gen = workload::makeDiffusionDB(seed);
        Rng rng(seed);
        workload::Trace trace;
        double t = 0.0;
        for (int i = 0; i < 200; ++i) {
            // Bursty: clustered arrivals with occasional long gaps.
            t += rng.bernoulli(0.2) ? rng.exponential(0.01)
                                    : rng.exponential(2.0);
            workload::Request r;
            r.prompt = gen->next();
            r.arrival = t;
            trace.push_back(r);
        }
        baselines::PresetParams params;
        params.numWorkers = 2;
        params.cacheCapacity = 200;
        ServingSystem system(baselines::modm(
            diffusion::sd35Large(), diffusion::sdxl(), params));
        const auto result = system.run(trace);
        ASSERT_EQ(result.metrics.count(), trace.size());
        double prev = 0.0;
        for (const auto &r : result.metrics.records()) {
            EXPECT_GE(r.finish, prev - 1e-9); // completion order
            prev = r.finish;
        }
    }
}

} // namespace
} // namespace modm::serving
