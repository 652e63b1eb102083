/**
 * @file
 * Allocation gate for the serving request path. A counting global
 * operator new pins how many heap allocations steady_state.scn's
 * MoDM-SDXL cell makes per warm prompt (warmCache) and per served
 * request (run), so a change that puts a per-request copy back on the
 * path fails ctest, not only a benchmark.
 *
 * Every replaceable form of operator new and delete is replaced,
 * aligned ones included (small AlignedRows slabs are aligned). Each forwards
 * to malloc, aligned_alloc or free, so a sanitizer build still checks
 * the heap. The cell is seeded and single-threaded, so the counts are
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

TEST(AllocationGate, SteadyStateMoDMCell)
{
    const auto scenario = workload::loadScenarioFile(
        std::string(MODM_SCENARIO_DIR) + "/steady_state.scn");
    std::size_t cell = scenario.cellCount();
    for (std::size_t i = 0; i < scenario.cellCount(); ++i) {
        if (scenario.cell(i).label == "MoDM-SDXL")
            cell = i;
    }
    ASSERT_LT(cell, scenario.cellCount()) << "no MoDM-SDXL cell";
    auto config = serving::scenarioCellConfig(scenario, scenario.cell(cell));
    config.keepOutputs = false;
    const auto built = workload::buildScenarioWorkload(scenario);
    ASSERT_FALSE(built.warm.empty());
    ASSERT_FALSE(built.trace.empty());
    serving::ServingSystem system(config);

    const std::uint64_t start = allocationsSoFar();
    system.warmCache(built.warm);
    const std::uint64_t warmed = allocationsSoFar();
    const auto result = system.run(built.trace);
    const std::uint64_t ran = allocationsSoFar();
    ASSERT_EQ(result.metrics.count(), built.trace.size());

    const double perWarm = static_cast<double>(warmed - start) /
        static_cast<double>(built.warm.size());
    const double perRequest = static_cast<double>(ran - warmed) /
        static_cast<double>(built.trace.size());
    // Measured 5.07 and 9.22: a generated image's content, its
    // embedding and cache-entry copy, map nodes per admission and the
    // in-flight ledger's node per dispatch. Each warm prompt and each
    // request keeps at least one new vector, so a count below one per
    // item means the counter missed the path.
    EXPECT_LE(perWarm, 6.0) << (warmed - start) << " warm allocations";
    EXPECT_GE(perWarm, 1.0);
    EXPECT_LE(perRequest, 10.0) << (ran - warmed) << " run allocations";
    EXPECT_GE(perRequest, 1.0);
}

} // namespace
} // namespace modm
