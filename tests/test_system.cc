/**
 * @file
 * Integration tests: the full serving system (scheduler + monitor +
 * cluster on the DES) run end-to-end for MoDM and every baseline, plus
 * cross-module invariants (conservation of requests, causality of
 * timestamps, cache admission policies, determinism).
 */

#include <gtest/gtest.h>

#include <set>
#include <sstream>

#include "bench/sweep.hh"
#include "src/baselines/presets.hh"
#include "src/serving/scenario_exec.hh"
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

/**
 * Kept outputs are parallel, one per request of `trace`, and every kept
 * prompt is that trace's own prompt, not a copy. Addresses are checked
 * before any prompt is read, so a dangling reference fails here instead
 * of being read.
 */
void
checkKeptPrompts(const ServingResult &result, const workload::Trace &trace)
{
    ASSERT_EQ(result.prompts.size(), trace.size());
    ASSERT_EQ(result.images.size(), trace.size());
    std::set<const workload::Prompt *> inTrace;
    for (const auto &request : trace)
        inTrace.insert(&request.prompt);
    for (std::size_t i = 0; i < result.prompts.size(); ++i) {
        const workload::Prompt &prompt = result.prompts[i];
        ASSERT_EQ(inTrace.count(&prompt), 1u)
            << "kept prompt " << i << " is not in the trace";
        EXPECT_EQ(prompt.id, result.images[i].promptId);
    }
}

TEST(System, KeptPromptsReferToTheTrace)
{
    // The caller holds the trace: the result refers into it and owns
    // nothing.
    auto bundle = makeBundle(200, 100, 5.0);
    ServingSystem system(baselines::modm(
        diffusion::sd35Large(), diffusion::sdxl(), smallParams()));
    system.warmCache(bundle.warm);
    const auto result = system.run(bundle.trace);
    EXPECT_EQ(result.promptOwner, nullptr);
    checkKeptPrompts(result, bundle.trace);

    // The helpers build their own trace and hand it to the result, so
    // its outputs score the same once the helper has returned as a run
    // whose caller still holds the trace.
    std::istringstream text("scenario kept\n"
                            "warm 80\n"
                            "requests 80\n"
                            "cache 80\n"
                            "report quality\n"
                            "cell \"MoDM-SDXL\"\n");
    workload::Scenario scenario;
    ASSERT_EQ(workload::parseScenario(text, "kept.scn", scenario), "");
    const auto cell = scenario.cell(0);
    const auto config = scenarioCellConfig(scenario, cell);
    const auto built = workload::buildScenarioWorkload(scenario);
    ServingSystem held(config);
    held.warmCache(built.warm);
    const auto expected = scoreScenarioCell(cell, held.run(built.trace));

    const ServingResult owned[] = {
        runScenarioCell(scenario, cell),
        bench::runSystem(config, workload::buildScenarioWorkload(scenario)),
    };
    for (const auto &r : owned) {
        ASSERT_NE(r.promptOwner, nullptr);
        checkKeptPrompts(r, *r.promptOwner);
        const auto q = scoreScenarioCell(cell, r);
        EXPECT_EQ(q.clip, expected.clip);
        EXPECT_EQ(q.fid, expected.fid);
        EXPECT_EQ(q.is, expected.is);
        EXPECT_EQ(q.pick, expected.pick);
    }
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
