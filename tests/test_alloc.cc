/**
 * @file
 * Allocation gate for the serving request path and the set-up path. A
 * counting global operator new pins how many heap allocations
 * steady_state.scn's MoDM-SDXL cell and failover_killmid.scn's
 * replicated k=2 cell make per warm prompt (warmCache) and per served
 * request (run), with outputs kept and not, and buildScenarioWorkload
 * per built prompt, so a change that puts a per-request copy back on a
 * path fails ctest, not only a benchmark. A warm-up whose crew has
 * three forced helpers must count only the crew's start-up beyond the
 * serial warm-up's allocations.
 *
 * Every replaceable form of operator new and delete is replaced,
 * aligned ones included (small AlignedRows slabs are aligned). Each forwards
 * to malloc, aligned_alloc or free, so a sanitizer build still checks
 * the heap. Each cell is seeded and runs with its crew helpers forced to
 * a fixed count (none unless a case says otherwise), so the counts are
 * exact and the same in every build type and on any number of CPUs.
 *
 * MODM_SCENARIO_DIR (a compile definition) points at the checked-in
 * scenarios/ directory.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "src/common/row_store.hh"
#include "src/embedding/embedding.hh"
#include "src/serving/scenario_exec.hh"
#include "src/serving/system.hh"
#include "src/workload/scenario.hh"
#include "tests/serving_fixtures.hh"

namespace {

std::atomic<std::uint64_t> allocations{0};

void *
counted(std::size_t bytes)
{
    allocations.fetch_add(1, std::memory_order_relaxed);
    return std::malloc(bytes == 0 ? 1 : bytes);
}

void *
countedAligned(std::size_t bytes, std::align_val_t align)
{
    allocations.fetch_add(1, std::memory_order_relaxed);
    // aligned_alloc wants a whole, nonzero number of alignment units.
    const auto a = static_cast<std::size_t>(align);
    const std::size_t units = bytes == 0 ? 1 : (bytes + a - 1) / a;
    return std::aligned_alloc(a, units * a);
}

void *
orThrow(void *p)
{
    if (p == nullptr)
        throw std::bad_alloc();
    return p;
}

} // namespace

void *
operator new(std::size_t n)
{
    return orThrow(counted(n));
}

void *
operator new[](std::size_t n)
{
    return orThrow(counted(n));
}

void *
operator new(std::size_t n, std::align_val_t a)
{
    return orThrow(countedAligned(n, a));
}

void *
operator new[](std::size_t n, std::align_val_t a)
{
    return orThrow(countedAligned(n, a));
}

void *
operator new(std::size_t n, const std::nothrow_t &) noexcept
{
    return counted(n);
}

void *
operator new[](std::size_t n, const std::nothrow_t &) noexcept
{
    return counted(n);
}

void *
operator new(std::size_t n, std::align_val_t a,
             const std::nothrow_t &) noexcept
{
    return countedAligned(n, a);
}

void *
operator new[](std::size_t n, std::align_val_t a,
               const std::nothrow_t &) noexcept
{
    return countedAligned(n, a);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete(void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::align_val_t, const std::nothrow_t &) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::align_val_t, const std::nothrow_t &) noexcept
{
    std::free(p);
}

namespace modm {
namespace {

std::uint64_t
allocationsSoFar()
{
    return allocations.load(std::memory_order_relaxed);
}

TEST(AllocationGate, CountsAlignedAllocations)
{
    // A small row slab allocates through the aligned form, which the
    // gate must see too; a 10k-row cache's slab is mapped instead.
    AlignedRows rows(embedding::kEmbeddingDim);
    std::uint64_t before = allocationsSoFar();
    rows.reserve(64);
    EXPECT_EQ(allocationsSoFar() - before, 1u);
    before = allocationsSoFar();
    rows.reserve(10000);
    EXPECT_EQ(allocationsSoFar() - before, 0u);
}

/** How countCell runs its cell. */
struct CellRun
{
    bool keepOutputs = false;
    /** Warm prompts; 0 keeps the scenario's. */
    std::size_t warm = 0;
    /** Crew helpers forced for the warm-up and the run. */
    std::size_t helpers = 0;
};

/** A cell's allocations: the warm-up's, and per item of each phase. */
struct CellCounts
{
    std::uint64_t warmTotal = 0;
    double perWarm = 0.0;
    double perRequest = 0.0;
};

/** Count one scenario cell's warm-up and run. */
CellCounts
countCell(const std::string &file, const std::string &label,
          const CellRun &how = {})
{
    auto scenario = workload::loadScenarioFile(
        std::string(MODM_SCENARIO_DIR) + "/" + file);
    if (how.warm > 0)
        scenario.warm = how.warm;
    std::size_t cell = scenario.cellCount();
    for (std::size_t i = 0; i < scenario.cellCount(); ++i) {
        if (scenario.cell(i).label == label)
            cell = i;
    }
    EXPECT_LT(cell, scenario.cellCount()) << "no " << label << " cell";
    if (cell == scenario.cellCount())
        return {};
    auto config = serving::scenarioCellConfig(scenario, scenario.cell(cell));
    config.keepOutputs = how.keepOutputs;
    const auto built = workload::buildScenarioWorkload(scenario);
    EXPECT_FALSE(built.warm.empty());
    EXPECT_FALSE(built.trace.empty());
    const test::ScopedHelpers force(how.helpers);
    serving::ServingSystem system(config);

    const std::uint64_t start = allocationsSoFar();
    system.warmCache(built.warm);
    const std::uint64_t warmed = allocationsSoFar();
    const auto result = system.run(built.trace);
    const std::uint64_t ran = allocationsSoFar();
    EXPECT_EQ(result.metrics.count(), built.trace.size());

    CellCounts counts;
    counts.warmTotal = warmed - start;
    counts.perWarm = static_cast<double>(warmed - start) /
        static_cast<double>(built.warm.size());
    counts.perRequest = static_cast<double>(ran - warmed) /
        static_cast<double>(built.trace.size());
    return counts;
}

TEST(AllocationGate, SteadyStateMoDMCell)
{
    const auto counts = countCell("steady_state.scn", "MoDM-SDXL");
    // Measured 4.10 and 7.86. A warm prompt: its image's content, moved
    // into the cache entry, two map nodes for the admission, and the
    // key slot its batch reuses (one per prompt up to kWarmBatch). A
    // request: its generated content and embeddings, map nodes per
    // admission and the in-flight ledger's node per dispatch. Each
    // warm prompt and each request keeps at least one new vector, so a
    // count below one per item means the counter missed the path.
    EXPECT_LE(counts.perWarm, 4.5);
    EXPECT_GE(counts.perWarm, 1.0);
    EXPECT_LE(counts.perRequest, 8.0);
    EXPECT_GE(counts.perRequest, 1.0);
}

TEST(AllocationGate, KeptOutputsCell)
{
    // The same cell with its outputs kept, as every quality path runs:
    // a kept prompt is a reference into the trace and a kept image is
    // the served one moved in, so keeping adds only the two up-front
    // reserves to the whole run. Measured 7.86; a prompt copy would add
    // three allocations per request (text and two vectors), an image
    // copy one.
    const auto counts =
        countCell("steady_state.scn", "MoDM-SDXL", {.keepOutputs = true});
    EXPECT_LE(counts.perRequest, 8.0);
    EXPECT_GE(counts.perRequest, 1.0);
}

TEST(AllocationGate, ReplicatedFailoverCell)
{
    // failover_killmid.scn's replicated k=2 cell: every generation is
    // admitted to two shards under the one key its origin encoded, and
    // a warm image is copied to its first owner and moved into its
    // last. Measured 7.19 and 10.72; an encode per owner instead would
    // add one allocation (the returned key) per generation.
    const auto counts = countCell("failover_killmid.scn", "replicated k=2");
    EXPECT_LE(counts.perWarm, 7.5);
    EXPECT_GE(counts.perWarm, 1.0);
    EXPECT_LE(counts.perRequest, 11.0);
    EXPECT_GE(counts.perRequest, 1.0);
}

TEST(AllocationGate, WarmCrewAddsOnlyItsStartUp)
{
    // Helpers generate and key into slots the caller sized, so a
    // warm-up with three of them counts the serial one's allocations
    // plus the crew's start-up: the crew, its threads, and each extra
    // member's copies of the node's sampler and of the image tower.
    // Measured 40, at two batches and at four alike.
    std::vector<std::uint64_t> startUp;
    for (const std::size_t warm :
         {serving::kSplitWarmPrompts, 4 * serving::kWarmBatch - 300}) {
        const auto serial = countCell("steady_state.scn", "MoDM-SDXL",
                                      {.warm = warm, .helpers = 0});
        const auto crew = countCell("steady_state.scn", "MoDM-SDXL",
                                    {.warm = warm, .helpers = 3});
        startUp.push_back(crew.warmTotal - serial.warmTotal);
    }
    EXPECT_EQ(startUp[0], startUp[1]);
    EXPECT_GT(startUp[0], 3u); // at least the three threads
    EXPECT_LE(startUp[0], 48u);
}

TEST(AllocationGate, ScenarioWorkloadBuild)
{
    // Per built prompt, warm and trace alike. Measured 4.14: a prompt
    // owns its two vectors and usually its text, and a new session
    // (about one prompt in four) its two; the jitters that build them
    // run in place.
    const auto scenario = workload::loadScenarioFile(
        std::string(MODM_SCENARIO_DIR) + "/steady_state.scn");
    const std::uint64_t start = allocationsSoFar();
    const auto built = workload::buildScenarioWorkload(scenario);
    const std::uint64_t done = allocationsSoFar();
    const double perPrompt = static_cast<double>(done - start) /
        static_cast<double>(built.warm.size() + built.trace.size());
    EXPECT_LE(perPrompt, 4.5) << (done - start) << " build allocations";
    EXPECT_GE(perPrompt, 2.0);
}

} // namespace
} // namespace modm
