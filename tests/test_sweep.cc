/**
 * @file
 * Property tests for the concurrent sweep engine: a sweep executed
 * serially (parallelism=1) and concurrently (parallelism=N) must
 * produce bit-identical ServingResults for every cell — the
 * share-nothing guarantee that lets the bench suite fan experiments
 * out across cores without changing a single reported number.
 *
 * Also covers the persistent cell cache (sweep_cache.hh): hit/miss
 * semantics, salt invalidation, corrupted-entry recovery, bitwise
 * encode/decode round-trips, and the end-to-end property the CI
 * kernels job leans on — a warm run at any parallelism replays the
 * cold run's values byte for byte without recomputing a single cell.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <thread>

#include "bench/sweep.hh"
#include "src/baselines/presets.hh"

namespace modm::bench {
namespace {

/**
 * Scoped MODM_SWEEP_* override so ambient env (e.g. a developer
 * exporting the knob the way the CI bench steps do) can't leak into
 * the assertions; prior values are restored on destruction. Pass
 * nullptr to assert the variable is absent within the scope.
 */
class ScopedSweepEnv
{
  public:
    explicit ScopedSweepEnv(const char *parallelism)
    {
        save("MODM_SWEEP_PARALLELISM", parallelism);
        save("MODM_SWEEP_PROGRESS", "0");
    }
    ~ScopedSweepEnv()
    {
        for (auto it = saved_.rbegin(); it != saved_.rend(); ++it) {
            if (it->second.second)
                setenv(it->first.c_str(), it->second.first.c_str(), 1);
            else
                unsetenv(it->first.c_str());
        }
    }

    /** Override (or, with nullptr, clear) one more variable. */
    void set(const char *name, const char *value) { save(name, value); }

  private:
    void save(const char *name, const char *value)
    {
        const char *prev = std::getenv(name);
        saved_.emplace_back(
            name, std::make_pair(prev ? prev : "", prev != nullptr));
        if (value)
            setenv(name, value, 1);
        else
            unsetenv(name);
    }

    std::vector<std::pair<std::string, std::pair<std::string, bool>>>
        saved_;
};

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
    const auto ddb = [] {
        return poissonBundle(Dataset::DiffusionDB, 120, 150, 12.0);
    };
    const auto mjhq = [] {
        return batchBundle(Dataset::MJHQ, 120, 150);
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

/** Fresh per-test cache directory, removed again on destruction. */
class TempCacheDir
{
  public:
    explicit TempCacheDir(const char *name)
        : path_(::testing::TempDir() + name)
    {
        std::filesystem::remove_all(path_);
    }
    ~TempCacheDir() { std::filesystem::remove_all(path_); }

    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

void
expectBitEqual(const std::vector<double> &a, const std::vector<double> &b,
               const char *what)
{
    ASSERT_EQ(a.size(), b.size()) << what;
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(std::memcmp(&a[i], &b[i], sizeof(double)), 0)
            << what << " value " << i << ": " << a[i] << " vs " << b[i];
    }
}

// Values a lossy text codec would mangle: signed zero, a denormal,
// the largest finite double, a repeating fraction.
const std::vector<double> kTrickyValues = {
    0.0,       -0.0, 1.0 / 3.0, 6.02214076e23, 5e-324,
    -1.75e308, 42.0,
};

TEST(SweepCache, HitMissAndSaltInvalidation)
{
    ScopedSweepEnv env("1");
    TempCacheDir dir("modm-sweep-cache-hit");
    env.set("MODM_SWEEP_CACHE", "1");
    env.set("MODM_SWEEP_CACHE_DIR", dir.path().c_str());
    env.set("MODM_SWEEP_CACHE_SALT", "saltA");

    int computes = 0;
    const auto compute = [&computes] {
        ++computes;
        return kTrickyValues;
    };
    const auto cold =
        cachedCell("cell/a", kTrickyValues.size(), compute);
    EXPECT_EQ(computes, 1);
    expectBitEqual(cold, kTrickyValues, "cold");

    // Same key: served from disk, bit for bit.
    const auto warm =
        cachedCell("cell/a", kTrickyValues.size(), compute);
    EXPECT_EQ(computes, 1);
    expectBitEqual(warm, kTrickyValues, "warm");

    // A different key is a different cell.
    cachedCell("cell/b", kTrickyValues.size(), compute);
    EXPECT_EQ(computes, 2);

    // A new salt (i.e. a rebuilt binary) invalidates everything ...
    env.set("MODM_SWEEP_CACHE_SALT", "saltB");
    cachedCell("cell/a", kTrickyValues.size(), compute);
    EXPECT_EQ(computes, 3);
    // ... while the old salt's entries remain intact beside it.
    env.set("MODM_SWEEP_CACHE_SALT", "saltA");
    cachedCell("cell/a", kTrickyValues.size(), compute);
    EXPECT_EQ(computes, 3);
}

TEST(SweepCache, OffByDefaultRecomputesAndWritesNothing)
{
    ScopedSweepEnv env("1");
    TempCacheDir dir("modm-sweep-cache-off");
    env.set("MODM_SWEEP_CACHE", nullptr); // determinism CI's default
    env.set("MODM_SWEEP_CACHE_DIR", dir.path().c_str());
    env.set("MODM_SWEEP_CACHE_SALT", "salt");

    int computes = 0;
    const auto compute = [&computes] {
        ++computes;
        return std::vector<double>{1.0, 2.0};
    };
    cachedCell("cell/off", 2, compute);
    cachedCell("cell/off", 2, compute);
    EXPECT_EQ(computes, 2);
    EXPECT_FALSE(std::filesystem::exists(dir.path()));
}

TEST(SweepCache, CorruptedEntriesReadAsMissesAndSelfHeal)
{
    ScopedSweepEnv env("1");
    TempCacheDir dir("modm-sweep-cache-corrupt");
    env.set("MODM_SWEEP_CACHE", "1");
    env.set("MODM_SWEEP_CACHE_DIR", dir.path().c_str());
    env.set("MODM_SWEEP_CACHE_SALT", "salt");

    int computes = 0;
    const auto compute = [&computes] {
        ++computes;
        return std::vector<double>{3.0, 4.0, 5.0};
    };
    const auto overwrite = [](const std::string &path,
                              const std::string &text) {
        FILE *out = std::fopen(path.c_str(), "wb");
        ASSERT_NE(out, nullptr);
        std::fwrite(text.data(), 1, text.size(), out);
        std::fclose(out);
    };

    cachedCell("cell/corrupt", 3, compute);
    EXPECT_EQ(computes, 1);
    const std::string path = sweepCachePath("cell/corrupt");
    ASSERT_TRUE(std::filesystem::exists(path));

    // Garbage payload under a valid header: recompute and heal.
    overwrite(path, "modm-sweep-cache v1\nsalt\ncell/corrupt\nnope\n");
    cachedCell("cell/corrupt", 3, compute);
    EXPECT_EQ(computes, 2);
    cachedCell("cell/corrupt", 3, compute);
    EXPECT_EQ(computes, 2); // healed: warm again

    // Truncated mid-header: recompute.
    overwrite(path, "modm-sw");
    cachedCell("cell/corrupt", 3, compute);
    EXPECT_EQ(computes, 3);

    // Valid doubles but the wrong count (a stale cell shape): miss.
    overwrite(path,
              "modm-sweep-cache v1\nsalt\ncell/corrupt\n0x1p+0\n");
    cachedCell("cell/corrupt", 3, compute);
    EXPECT_EQ(computes, 4);
}

TEST(SweepCache, EncodeDecodeRoundTripsBitwise)
{
    const std::string payload = encodeDoubles(kTrickyValues);
    std::vector<double> decoded;
    ASSERT_TRUE(decodeDoubles(payload, decoded));
    expectBitEqual(decoded, kTrickyValues, "round-trip");

    EXPECT_FALSE(decodeDoubles("", decoded));
    EXPECT_FALSE(decodeDoubles("0x1p+0 garbage", decoded));
}

TEST(SweepCache, WarmRunsReplayColdValuesAtAnyParallelism)
{
    ScopedSweepEnv env("1");
    TempCacheDir dir("modm-sweep-cache-warm");
    env.set("MODM_SWEEP_CACHE", "1");
    env.set("MODM_SWEEP_CACHE_DIR", dir.path().c_str());
    env.set("MODM_SWEEP_CACHE_SALT", "salt");

    // Each cell's second column is a per-process call counter — a
    // stand-in for a wall-clock measurement that would differ on
    // recomputation. A warm run must replay the COLD counter values.
    std::atomic<int> computes{0};
    const auto makeCells = [&computes] {
        std::vector<std::function<std::vector<double>()>> cells;
        for (int i = 0; i < 16; ++i) {
            cells.push_back([&computes, i] {
                return cachedCell(
                    "warm/cell" + std::to_string(i), 2, [&computes, i] {
                        const int call = ++computes;
                        return std::vector<double>{
                            static_cast<double>(i) * 1.5,
                            static_cast<double>(call)};
                    });
            });
        }
        return cells;
    };
    SweepOptions options;
    options.title = "sweep-cache";

    const auto cold = runCells(makeCells(), options);
    EXPECT_EQ(computes.load(), 16);
    {
        ScopedSweepEnv concurrent("4");
        const auto warm = runCells(makeCells(), options);
        EXPECT_EQ(computes.load(), 16) << "warm run recomputed a cell";
        ASSERT_EQ(warm.size(), cold.size());
        for (std::size_t i = 0; i < warm.size(); ++i)
            expectBitEqual(warm[i], cold[i], "warm vs cold cell");
    }
}

TEST(Sweep, EnvOverridesOptions)
{
    {
        ScopedSweepEnv env("1");
        SweepOptions options;
        options.parallelism = 16;
        EXPECT_EQ(resolveSweepParallelism(options), 1u);
        EXPECT_FALSE(resolveSweepProgress(options));
    }
    {
        // Env value 0 means "one cell per hardware thread", even when
        // the binary set its own default.
        ScopedSweepEnv env("0");
        SweepOptions options;
        options.parallelism = 1;
        EXPECT_EQ(resolveSweepParallelism(options), hardwareParallelism());
        EXPECT_GE(hardwareParallelism(), 1u);
    }
    {
        // No env: the options value wins.
        ScopedSweepEnv env(nullptr);
        SweepOptions options;
        options.parallelism = 5;
        EXPECT_EQ(resolveSweepParallelism(options), 5u);
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
    SweepOptions options;
    {
        ScopedSweepEnv env("12");
        EXPECT_EQ(resolveSweepParallelism(options), 12u);
    }
    for (const char *bad : {"one", "", "-1", "+4", " 4", "4x", "1.5",
                            "99999999999999999999999"}) {
        SCOPED_TRACE(bad);
        ScopedSweepEnv env(bad);
        EXPECT_DEATH(resolveSweepParallelism(options),
                     "invalid MODM_SWEEP_PARALLELISM=.*\\(expected a "
                     "decimal integer >= 0\\)");
    }
}

TEST(SweepDeathTest, ProgressAcceptsOnlyZeroOrOne)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    ScopedSweepEnv env("1");
    SweepOptions options;
    options.progress = false;
    env.set("MODM_SWEEP_PROGRESS", "1");
    EXPECT_TRUE(resolveSweepProgress(options));
    for (const char *bad : {"true", "", "2", "00", "off"}) {
        SCOPED_TRACE(bad);
        env.set("MODM_SWEEP_PROGRESS", bad);
        EXPECT_DEATH(resolveSweepProgress(options),
                     "invalid MODM_SWEEP_PROGRESS=.*\\(expected 0 or 1\\)");
    }
}

TEST(SweepDeathTest, VerifyAcceptsOnlyZeroOrOne)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    ScopedSweepEnv env("1");
    env.set("MODM_SWEEP_VERIFY", nullptr);
    EXPECT_FALSE(resolveSweepVerify());
    env.set("MODM_SWEEP_VERIFY", "0");
    EXPECT_FALSE(resolveSweepVerify());
    env.set("MODM_SWEEP_VERIFY", "1");
    EXPECT_TRUE(resolveSweepVerify());
    for (const char *bad : {"true", "", "yes", "1 "}) {
        SCOPED_TRACE(bad);
        env.set("MODM_SWEEP_VERIFY", bad);
        EXPECT_DEATH(resolveSweepVerify(),
                     "invalid MODM_SWEEP_VERIFY=.*\\(expected 0 or 1\\)");
    }
}

} // namespace
} // namespace modm::bench
