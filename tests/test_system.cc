/**
 * @file
 * Integration tests: the full serving system (scheduler + monitor +
 * cluster on the DES) run end-to-end for MoDM and every baseline, plus
 * cross-module invariants (conservation of requests, causality of
 * timestamps, cache admission policies, determinism).
 */

#include <gtest/gtest.h>

#include <set>

#include "src/baselines/presets.hh"
#include "src/serving/system.hh"
#include "src/workload/scenario.hh"

namespace modm::serving {
namespace {

workload::ScenarioWorkload
makeBundle(std::size_t warm_count, std::size_t trace_count,
           double rate_per_min, std::uint64_t seed = 42)
{
    workload::ScenarioWorkload bundle;
    auto gen = workload::makeDiffusionDB(seed);
    for (std::size_t i = 0; i < warm_count; ++i)
        bundle.warm.push_back(gen->next());
    workload::PoissonArrivals arrivals(rate_per_min);
    Rng rng(seed);
    bundle.trace =
        workload::buildTrace(*gen, arrivals, trace_count, rng);
    return bundle;
}

baselines::PresetParams
smallParams()
{
    baselines::PresetParams params;
    params.numWorkers = 4;
    params.cacheCapacity = 600;
    params.keepOutputs = true;
    return params;
}

void
checkInvariants(const ServingResult &result, std::size_t expected)
{
    EXPECT_EQ(result.metrics.count(), expected);
    std::set<std::uint64_t> served;
    for (const auto &r : result.metrics.records()) {
        EXPECT_LE(r.arrival, r.start + 1e-9);
        EXPECT_LE(r.start, r.finish + 1e-9);
        served.insert(r.promptId);
    }
    // Every request served exactly once.
    EXPECT_EQ(served.size(), expected);
}

TEST(System, VanillaServesEverythingOnLargeModel)
{
    auto bundle = makeBundle(0, 120, 3.0);
    ServingSystem system(
        baselines::vanilla(diffusion::sd35Large(), smallParams()));
    const auto result = system.run(bundle.trace);
    checkInvariants(result, 120);
    EXPECT_DOUBLE_EQ(result.hitRate, 0.0);
    for (const auto &r : result.metrics.records()) {
        EXPECT_EQ(r.servedBy, "SD3.5L");
        EXPECT_EQ(r.kind, ServeKind::FullGeneration);
    }
}

TEST(System, MoDMServesHitsWithSmallModel)
{
    auto bundle = makeBundle(600, 300, 6.0);
    ServingSystem system(
        baselines::modm(diffusion::sd35Large(), diffusion::sdxl(),
                        smallParams()));
    system.warmCache(bundle.warm);
    const auto result = system.run(bundle.trace);
    checkInvariants(result, 300);
    EXPECT_GT(result.hitRate, 0.5);
    std::size_t sdxlRefinements = 0;
    for (const auto &r : result.metrics.records()) {
        if (r.cacheHit) {
            EXPECT_GT(r.k, 0);
            EXPECT_GE(r.similarity, 0.25);
            EXPECT_EQ(r.kind, ServeKind::Refinement);
            sdxlRefinements += r.servedBy == "SDXL";
        } else {
            EXPECT_EQ(r.servedBy, "SD3.5L");
        }
    }
    EXPECT_GT(sdxlRefinements, 0u);
}

TEST(System, MoDMBeatsVanillaOnSaturatedThroughput)
{
    auto gen = workload::makeDiffusionDB(7);
    std::vector<workload::Prompt> warm;
    for (int i = 0; i < 600; ++i)
        warm.push_back(gen->next());
    const auto batch = workload::buildBatchTrace(*gen, 300);

    auto params = smallParams();
    ServingSystem modmSystem(
        baselines::modm(diffusion::sd35Large(), diffusion::sdxl(),
                        params));
    modmSystem.warmCache(warm);
    const auto modmResult = modmSystem.run(batch);

    ServingSystem vanillaSystem(
        baselines::vanilla(diffusion::sd35Large(), params));
    const auto vanillaResult = vanillaSystem.run(batch);

    EXPECT_GT(modmResult.throughputPerMin,
              1.5 * vanillaResult.throughputPerMin);
    EXPECT_LT(modmResult.energyJ, vanillaResult.energyJ);
}

TEST(System, NirvanaSkipsStepsOnLargeModelOnly)
{
    auto bundle = makeBundle(600, 300, 4.0);
    ServingSystem system(
        baselines::nirvana(diffusion::sd35Large(), smallParams()));
    system.warmCache(bundle.warm);
    const auto result = system.run(bundle.trace);
    checkInvariants(result, 300);
    EXPECT_GT(result.hitRate, 0.3);
    for (const auto &r : result.metrics.records()) {
        EXPECT_EQ(r.servedBy, "SD3.5L"); // never a small model
        if (r.cacheHit) {
            EXPECT_GE(r.similarity, 0.82); // text-to-text band
            EXPECT_LE(r.k, 20);            // conservative skips
        }
    }
}

TEST(System, PineconeReturnsCachedImagesDirectly)
{
    auto bundle = makeBundle(600, 300, 4.0);
    ServingSystem system(
        baselines::pinecone(diffusion::sd35Large(), smallParams()));
    system.warmCache(bundle.warm);
    const auto result = system.run(bundle.trace);
    checkInvariants(result, 300);
    std::size_t directs = 0;
    for (const auto &r : result.metrics.records()) {
        if (r.kind == ServeKind::DirectReturn) {
            ++directs;
            // Retrieval-only latency, no GPU time.
            EXPECT_LT(r.latency(), 120.0);
            EXPECT_EQ(r.k, 0);
        }
    }
    EXPECT_GT(directs, 50u);
}

TEST(System, StandaloneSmallUsesOnlySmallModel)
{
    auto bundle = makeBundle(0, 120, 6.0);
    ServingSystem system(
        baselines::standalone(diffusion::sana(), smallParams()));
    const auto result = system.run(bundle.trace);
    checkInvariants(result, 120);
    for (const auto &r : result.metrics.records())
        EXPECT_EQ(r.servedBy, "SANA");
}

TEST(System, CacheLargeOnlyAdmissionLowersHitRate)
{
    auto makeSystem = [&](AdmissionPolicy admission) {
        auto config = baselines::modm(diffusion::sd35Large(),
                                      diffusion::sdxl(), smallParams());
        config.admission = admission;
        return config;
    };
    auto bundleA = makeBundle(300, 400, 6.0, 11);
    ServingSystem all(makeSystem(AdmissionPolicy::CacheAll));
    all.warmCache(bundleA.warm);
    const auto allResult = all.run(bundleA.trace);

    auto bundleB = makeBundle(300, 400, 6.0, 11);
    ServingSystem largeOnly(makeSystem(AdmissionPolicy::CacheLargeOnly));
    largeOnly.warmCache(bundleB.warm);
    const auto largeResult = largeOnly.run(bundleB.trace);

    // Caching all images serves temporally adjacent requests better
    // (paper Fig. 9: cache-all >= cache-large).
    EXPECT_GE(allResult.hitRate, largeResult.hitRate);
}

TEST(System, DeterministicAcrossRuns)
{
    auto bundleA = makeBundle(200, 150, 5.0, 99);
    auto bundleB = makeBundle(200, 150, 5.0, 99);
    ServingSystem a(baselines::modm(diffusion::sd35Large(),
                                    diffusion::sdxl(), smallParams()));
    ServingSystem b(baselines::modm(diffusion::sd35Large(),
                                    diffusion::sdxl(), smallParams()));
    a.warmCache(bundleA.warm);
    b.warmCache(bundleB.warm);
    const auto ra = a.run(bundleA.trace);
    const auto rb = b.run(bundleB.trace);
    EXPECT_DOUBLE_EQ(ra.throughputPerMin, rb.throughputPerMin);
    EXPECT_DOUBLE_EQ(ra.hitRate, rb.hitRate);
    EXPECT_DOUBLE_EQ(ra.energyJ, rb.energyJ);
    ASSERT_EQ(ra.metrics.count(), rb.metrics.count());
    for (std::size_t i = 0; i < ra.metrics.count(); ++i) {
        EXPECT_DOUBLE_EQ(ra.metrics.records()[i].finish,
                         rb.metrics.records()[i].finish);
    }
}

TEST(System, MonitorReallocatesUnderLoad)
{
    // Under a hit-heavy overload the monitor must move workers away
    // from the initial all-large allocation.
    auto bundle = makeBundle(600, 400, 12.0);
    auto config = baselines::modm(diffusion::sd35Large(),
                                  diffusion::sdxl(), smallParams());
    ServingSystem system(config);
    system.warmCache(bundle.warm);
    const auto result = system.run(bundle.trace);
    ASSERT_FALSE(result.allocations.empty());
    int minLarge = 1000;
    for (const auto &snap : result.allocations)
        minLarge = std::min(minLarge, snap.numLarge);
    EXPECT_LT(minLarge, 4);
    EXPECT_GE(minLarge, 1);
}

TEST(System, HitAgesAreNonNegativeAndRecorded)
{
    auto bundle = makeBundle(400, 300, 6.0);
    ServingSystem system(baselines::modm(
        diffusion::sd35Large(), diffusion::sdxl(), smallParams()));
    system.warmCache(bundle.warm);
    const auto result = system.run(bundle.trace);
    EXPECT_FALSE(result.hitAges.empty());
    for (double age : result.hitAges)
        EXPECT_GE(age, 0.0);
}

TEST(System, KeepOutputsProducesParallelArrays)
{
    auto bundle = makeBundle(200, 100, 5.0);
    ServingSystem system(baselines::modm(
        diffusion::sd35Large(), diffusion::sdxl(), smallParams()));
    system.warmCache(bundle.warm);
    const auto result = system.run(bundle.trace);
    ASSERT_EQ(result.prompts.size(), 100u);
    ASSERT_EQ(result.images.size(), 100u);
    for (std::size_t i = 0; i < result.prompts.size(); ++i)
        EXPECT_EQ(result.prompts[i].id, result.images[i].promptId);
}

TEST(System, CacheRespectsCapacityDuringServing)
{
    auto bundle = makeBundle(700, 300, 6.0);
    auto config = baselines::modm(diffusion::sd35Large(),
                                  diffusion::sdxl(), smallParams());
    config.cacheCapacity = 500;
    ServingSystem system(config);
    system.warmCache(bundle.warm);
    const auto result = system.run(bundle.trace);
    EXPECT_LE(result.cacheSize, 500u);
    EXPECT_GT(result.cacheSize, 0u);
}

TEST(System, RunIsSingleShot)
{
    auto bundle = makeBundle(0, 10, 5.0);
    ServingSystem system(
        baselines::vanilla(diffusion::sd35Large(), smallParams()));
    system.run(bundle.trace);
    EXPECT_DEATH(system.run(bundle.trace), "single-shot");
}

} // namespace
} // namespace modm::serving
