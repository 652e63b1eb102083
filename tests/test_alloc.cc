/**
 * @file
 * Allocation gate for the serving request path and the set-up path. A
 * counting global operator new pins how many heap allocations
 * steady_state.scn's MoDM-SDXL cell and failover_killmid.scn's
 * replicated k=2 cell make per warm prompt (warmCache) and per served
 * request (run), with outputs kept and not, and buildScenarioWorkload
 * per built prompt, so a change that puts a per-request copy back on a
 * path fails ctest, not only a benchmark.
 *
 * Every replaceable form of operator new and delete is replaced,
 * aligned ones included (small AlignedRows slabs are aligned). Each forwards
 * to malloc, aligned_alloc or free, so a sanitizer build still checks
 * the heap. Each cell is seeded and single-threaded, so the counts are
 * exact and the same in every build type.
 *
 * MODM_SCENARIO_DIR (a compile definition) points at the checked-in
 * scenarios/ directory.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>

#include "src/common/row_store.hh"
#include "src/embedding/embedding.hh"
#include "src/serving/scenario_exec.hh"
#include "src/serving/system.hh"
#include "src/workload/scenario.hh"

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

/** Allocations per warm prompt (warmCache) and per served request (run). */
struct CellCounts
{
    double perWarm = 0.0;
    double perRequest = 0.0;
};

/** Count one scenario cell's warm-up and run. */
CellCounts
countCell(const std::string &file, const std::string &label,
          bool keep_outputs = false)
{
    const auto scenario = workload::loadScenarioFile(
        std::string(MODM_SCENARIO_DIR) + "/" + file);
    std::size_t cell = scenario.cellCount();
    for (std::size_t i = 0; i < scenario.cellCount(); ++i) {
        if (scenario.cell(i).label == label)
            cell = i;
    }
    EXPECT_LT(cell, scenario.cellCount()) << "no " << label << " cell";
    if (cell == scenario.cellCount())
        return {};
    auto config = serving::scenarioCellConfig(scenario, scenario.cell(cell));
    config.keepOutputs = keep_outputs;
    const auto built = workload::buildScenarioWorkload(scenario);
    EXPECT_FALSE(built.warm.empty());
    EXPECT_FALSE(built.trace.empty());
    serving::ServingSystem system(config);

    const std::uint64_t start = allocationsSoFar();
    system.warmCache(built.warm);
    const std::uint64_t warmed = allocationsSoFar();
    const auto result = system.run(built.trace);
    const std::uint64_t ran = allocationsSoFar();
    EXPECT_EQ(result.metrics.count(), built.trace.size());

    CellCounts counts;
    counts.perWarm = static_cast<double>(warmed - start) /
        static_cast<double>(built.warm.size());
    counts.perRequest = static_cast<double>(ran - warmed) /
        static_cast<double>(built.trace.size());
    return counts;
}

TEST(AllocationGate, SteadyStateMoDMCell)
{
    const auto counts = countCell("steady_state.scn", "MoDM-SDXL");
    // Measured 5.07 and 7.86: a generated image's content, its
    // embedding and cache-entry copy, map nodes per admission and the
    // in-flight ledger's node per dispatch. Each warm prompt and each
    // request keeps at least one new vector, so a count below one per
    // item means the counter missed the path.
    EXPECT_LE(counts.perWarm, 6.0);
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
    const auto counts = countCell("steady_state.scn", "MoDM-SDXL", true);
    EXPECT_LE(counts.perRequest, 8.0);
    EXPECT_GE(counts.perRequest, 1.0);
}

TEST(AllocationGate, ReplicatedFailoverCell)
{
    // failover_killmid.scn's replicated k=2 cell: every generation is
    // admitted to two shards under the one key its origin encoded.
    // Measured 8.40 and 10.72; an encode per owner instead would add
    // one allocation (the returned key) per generation.
    const auto counts = countCell("failover_killmid.scn", "replicated k=2");
    EXPECT_LE(counts.perWarm, 9.0);
    EXPECT_GE(counts.perWarm, 1.0);
    EXPECT_LE(counts.perRequest, 11.0);
    EXPECT_GE(counts.perRequest, 1.0);
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
