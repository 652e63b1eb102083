/**
 * @file
 * Property tests for the concurrent sweep engine: a sweep executed
 * serially (parallelism=1) and concurrently (parallelism=N) must
 * produce bit-identical ServingResults for every cell — the
 * share-nothing guarantee that lets the bench suite fan experiments
 * out across cores without changing a single reported number.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <thread>

#include "bench/sweep.hh"
#include "src/baselines/presets.hh"
#include "tests/serving_fixtures.hh"

namespace modm::bench {
namespace {

using test::ScopedSweepEnv;

/** A small but policy-diverse sweep: every SystemKind plus a monitor
 *  mode and admission variant, over both workload families. */
SweepSpec
makeSpec()
{
    baselines::PresetParams params;
    params.numWorkers = 2;
    params.cacheCapacity = 150;

    SweepSpec spec;
    spec.options.title = "property";
    const auto ddb = [] { return test::ddbBundle(120, 150, 12.0); };
    const auto mjhq = [] {
        return workload::buildScenarioWorkload(
            {.dataset = workload::ScenarioDataset::MJHQ, .warm = 120,
             .requests = 150});
    };
    spec.add("vanilla", baselines::vanilla(diffusion::sd35Large(), params),
             ddb);
    spec.add("nirvana", baselines::nirvana(diffusion::sd35Large(), params),
             ddb);
    spec.add("pinecone",
             baselines::pinecone(diffusion::sd35Large(), params), mjhq);
    spec.add("modm",
             baselines::modm(diffusion::sd35Large(), diffusion::sdxl(),
                             params),
             ddb);
    auto quality = baselines::modmMulti(
        diffusion::sd35Large(), {diffusion::sdxl(), diffusion::sana()},
        params);
    quality.mode = serving::MonitorMode::QualityOptimized;
    quality.keepOutputs = true;
    spec.add("modm-quality", quality, mjhq);
    auto cacheLarge = baselines::modm(diffusion::sd35Large(),
                                      diffusion::sana(), params);
    cacheLarge.admission = serving::AdmissionPolicy::CacheLargeOnly;
    spec.add("modm-cachelarge", cacheLarge, ddb);
    return spec;
}

TEST(Sweep, SerialAndConcurrentResultsAreBitIdentical)
{
    std::vector<std::string> serialDigests;
    {
        ScopedSweepEnv env("1");
        const auto results = runSweep(makeSpec());
        for (const auto &r : results)
            serialDigests.push_back(serving::resultDigest(r));
    }
    {
        ScopedSweepEnv env("4");
        const auto results = runSweep(makeSpec());
        ASSERT_EQ(results.size(), serialDigests.size());
        for (std::size_t i = 0; i < results.size(); ++i) {
            EXPECT_EQ(serving::resultDigest(results[i]),
                      serialDigests[i])
                << "cell " << i
                << " diverged between serial and concurrent execution";
        }
    }
    // Concurrent runs are also stable against each other.
    {
        ScopedSweepEnv env("3");
        const auto results = runSweep(makeSpec());
        for (std::size_t i = 0; i < results.size(); ++i) {
            EXPECT_EQ(serving::resultDigest(results[i]),
                      serialDigests[i]);
        }
    }
}

TEST(Sweep, ResultsComeBackInCellOrderDespiteSkewedCosts)
{
    ScopedSweepEnv env("8");
    std::vector<std::function<int()>> cells;
    for (int i = 0; i < 24; ++i) {
        cells.push_back([i] {
            // Earlier cells sleep longer, so completion order is
            // roughly the reverse of declaration order.
            std::this_thread::sleep_for(
                std::chrono::milliseconds((24 - i) % 7));
            return i;
        });
    }
    SweepOptions options;
    options.title = "ordering";
    const auto results = runCells(std::move(cells), options);
    for (int i = 0; i < 24; ++i)
        EXPECT_EQ(results[i], i);
}

TEST(Sweep, SplitRangeCoversExactlyOnce)
{
    for (const std::size_t total : {0u, 1u, 7u, 100u, 101u}) {
        for (const std::size_t parts : {1u, 3u, 8u, 200u}) {
            const auto ranges = splitRange(total, parts);
            std::size_t covered = 0;
            std::size_t prev = 0;
            for (const auto &[lo, hi] : ranges) {
                EXPECT_EQ(lo, prev);
                EXPECT_LT(lo, hi);
                covered += hi - lo;
                prev = hi;
            }
            EXPECT_EQ(covered, total);
        }
    }
}

TEST(Sweep, EnvSetsParallelismAndProgress)
{
    {
        ScopedSweepEnv env("1");
        EXPECT_EQ(resolveSweepParallelism(), 1u);
        EXPECT_FALSE(resolveSweepProgress());
    }
    {
        // 0 means "one cell per hardware thread".
        ScopedSweepEnv env("0");
        EXPECT_EQ(resolveSweepParallelism(), hardwareParallelism());
        EXPECT_GE(hardwareParallelism(), 1u);
    }
    {
        // Unset: one cell per hardware thread, progress on.
        ScopedSweepEnv env(nullptr);
        env.set("MODM_SWEEP_PROGRESS", nullptr);
        EXPECT_EQ(resolveSweepParallelism(), hardwareParallelism());
        EXPECT_TRUE(resolveSweepProgress());
    }
}

TEST(Sweep, CellsRunConcurrently)
{
    // Each cell marks its start, then waits (bounded) for the other's:
    // an engine that ran cells one at a time would time cell 0 out
    // before cell 1 ever started.
    ScopedSweepEnv env("2");
    std::atomic<int> started{0};
    const auto cell = [&started] {
        ++started;
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(10);
        while (started.load() < 2 &&
               std::chrono::steady_clock::now() < deadline)
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        return started.load() == 2 ? 1 : 0;
    };
    const auto met = runCells<int>({cell, cell});
    EXPECT_EQ(met, (std::vector<int>{1, 1}));
}

TEST(SweepDeathTest, ParallelismAcceptsOnlyDecimalIntegers)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    {
        ScopedSweepEnv env("12");
        EXPECT_EQ(resolveSweepParallelism(), 12u);
    }
    for (const char *bad : {"one", "", "-1", "+4", " 4", "4x", "1.5",
                            "99999999999999999999999"}) {
        SCOPED_TRACE(bad);
        ScopedSweepEnv env(bad);
        EXPECT_DEATH(resolveSweepParallelism(),
                     "invalid MODM_SWEEP_PARALLELISM=.*\\(expected a "
                     "decimal integer >= 0\\)");
    }
}

TEST(SweepDeathTest, ProgressAcceptsOnlyZeroOrOne)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    ScopedSweepEnv env("1");
    env.set("MODM_SWEEP_PROGRESS", "1");
    EXPECT_TRUE(resolveSweepProgress());
    for (const char *bad : {"true", "", "2", "00", "off"}) {
        SCOPED_TRACE(bad);
        env.set("MODM_SWEEP_PROGRESS", bad);
        EXPECT_DEATH(resolveSweepProgress(),
                     "invalid MODM_SWEEP_PROGRESS=.*\\(expected 0 or 1\\)");
    }
}

} // namespace
} // namespace modm::bench
