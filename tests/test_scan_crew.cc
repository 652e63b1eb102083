/**
 * @file
 * Property tests for the split screen (crew.hh, index.hh): a FlatIndex
 * queried inside a CrewScope with 1-3 helper threads must return the
 * serial best() bit for bit (id and similarity) through insert,
 * remove, centering and clear(), at sizes around kSplitScreenRows, and
 * with exact ties planted in different chunks and at chunk edges,
 * where the earliest slot must win. A serving run with helpers forced
 * on must equal one without: the same result digest and event log.
 * The suite runs under TSan with the property label.
 */

#include <gtest/gtest.h>

#include <sched.h>

#include <algorithm>
#include <string>
#include <vector>

#include "src/baselines/presets.hh"
#include "src/common/cpus.hh"
#include "src/common/crew.hh"
#include "src/common/rng.hh"
#include "src/embedding/index.hh"
#include "src/serving/metrics.hh"
#include "src/serving/system.hh"
#include "tests/serving_fixtures.hh"

namespace modm {
namespace {

using embedding::Embedding;
using embedding::FlatIndex;
using embedding::kSplitScreenRows;
using embedding::Match;
using test::ScopedHelpers;

/** best() with no helper: an inner scope forced to none is serial. */
Match
serialBest(const FlatIndex &index, const Embedding &query)
{
    CrewScope::forceHelpers(0);
    const CrewScope serial;
    return index.best(query);
}

/** The sizes the churn walks through: the threshold and both sides. */
constexpr std::size_t kBelow = kSplitScreenRows - 13;
constexpr std::size_t kAbove = kSplitScreenRows + 21;

TEST(ScanCrew, SplitScreenMatchesSerialUnderSeededChurn)
{
    constexpr std::size_t kDim = embedding::kEmbeddingDim;
    for (std::size_t helpers = 0; helpers <= kMaxCrewHelpers; ++helpers) {
        SCOPED_TRACE("helpers " + std::to_string(helpers));
        Rng rng(4096 + helpers);
        // Rows crowd into one cone, as image embeddings do, and every
        // pool row goes in under two ids: exact ties at shifting slots,
        // in one chunk or in two.
        const Vec anchor = randomUnitVec(kDim, rng);
        std::vector<Embedding> pool;
        for (std::size_t i = 0; i < 2600; ++i)
            pool.push_back(Embedding(jitterUnitVec(anchor, 0.6, rng)));
        std::vector<std::uint64_t> live;
        std::uint64_t nextId = 0;
        FlatIndex index;
        const std::size_t started = CrewScope::helpersStarted();
        ScopedHelpers force(helpers);
        const CrewScope crew;

        const auto insert = [&] {
            index.insert(nextId, pool[nextId / 2 % pool.size()]);
            live.push_back(nextId++);
        };
        const auto removeOne = [&] {
            const std::size_t pick = rng.uniformInt(live.size());
            ASSERT_TRUE(index.remove(live[pick]));
            live[pick] = live.back();
            live.pop_back();
        };
        const auto check = [&](const std::string &step) {
            SCOPED_TRACE(step + " at " + std::to_string(index.size()));
            for (std::size_t q = 0; q < 3; ++q) {
                const Embedding query = q < 2
                    ? pool[rng.uniformInt(pool.size())]
                    : Embedding(jitterUnitVec(anchor, 0.8, rng));
                CrewScope::forceHelpers(helpers);
                const Match split = index.best(query);
                const Match serial = serialBest(index, query);
                ASSERT_EQ(split.id, serial.id);
                ASSERT_EQ(split.similarity, serial.similarity);
            }
        };

        while (index.size() < RowSketch::kCenterRows + 1)
            insert();
        check("centered"); // under the threshold: the caller alone
        while (index.size() < kBelow)
            insert();
        // Walk back and forth across the threshold: every size from
        // kBelow to kAbove, each with its own last-block fill and
        // chunk edges.
        for (int pass = 0; pass < 2; ++pass) {
            while (index.size() < kAbove) {
                insert();
                check("growing");
            }
            while (index.size() > kBelow) {
                removeOne();
                check("shrinking");
            }
        }
        // Mixed churn well above the threshold.
        while (index.size() < 9000)
            insert();
        for (std::size_t step = 0; step < 200; ++step) {
            if (rng.bernoulli(0.5))
                insert();
            else
                removeOne();
            if (step % 10 == 0)
                check("churn");
        }
        // clear() drops mu; refill past the threshold and re-center.
        index.clear();
        live.clear();
        while (index.size() < 100)
            insert();
        check("refilled after clear");
        while (index.size() < kSplitScreenRows + 3)
            insert();
        check("re-centered after clear");
        EXPECT_EQ(CrewScope::helpersStarted() - started, helpers);
    }
}

/** The first slot of chunk c when `size` rows split `chunks` ways. */
std::size_t
chunkEdge(std::size_t size, std::size_t chunks, std::size_t c)
{
    return (size + 7) / 8 * c / chunks * 8;
}

TEST(ScanCrew, EarliestOfTiesInDifferentChunksWins)
{
    constexpr std::size_t kDim = embedding::kEmbeddingDim;
    Rng rng(77);
    const Vec anchor = randomUnitVec(kDim, rng);
    const Embedding target(jitterUnitVec(anchor, 0.3, rng));
    for (std::size_t helpers = 1; helpers <= kMaxCrewHelpers; ++helpers) {
        const std::size_t chunks = helpers + 1;
        for (const std::size_t size :
             {kSplitScreenRows, kSplitScreenRows + 5, std::size_t{10003}}) {
            const std::size_t last = chunks - 1;
            const std::size_t edge = chunkEdge(size, chunks, last);
            // Copies of `target`, the earliest of which must win: the
            // last row before a chunk edge and the first after it, two
            // in one 8-row block, and the very last row. A lone copy on
            // either side of an edge, or in the last row, must be found.
            const std::size_t second = chunkEdge(size, chunks, 1);
            std::vector<std::vector<std::size_t>> layouts = {
                {edge - 1, edge, size - 1},
                {second + 3, second + 6, edge + 2},
                {2, 5, second, size - 1},
                {second - 1}, {edge}, {size - 1},
            };
            for (auto &slots : layouts) {
                std::sort(slots.begin(), slots.end());
                slots.erase(std::unique(slots.begin(), slots.end()),
                            slots.end());
                SCOPED_TRACE("helpers " + std::to_string(helpers) +
                             ", size " + std::to_string(size) +
                             ", first copy at " + std::to_string(slots[0]));
                FlatIndex index;
                index.reserve(size);
                std::size_t next = 0;
                for (std::size_t slot = 0; slot < size; ++slot) {
                    const bool copy = next < slots.size() &&
                        slots[next] == slot;
                    next += copy ? 1 : 0;
                    index.insert(slot, copy ? target
                                            : Embedding(jitterUnitVec(
                                                  anchor, 0.6, rng)));
                }
                const Match serial = serialBest(index, target);
                ASSERT_EQ(serial.id, slots[0]);
                ScopedHelpers force(helpers);
                const CrewScope crew;
                const Match split = index.best(target);
                EXPECT_EQ(split.id, slots[0]);
                EXPECT_EQ(split.similarity, serial.similarity);
            }
        }
    }
}

/** A MoDM run whose 4.2k-entry cache is above the split threshold. */
serving::ServingResult
bigCacheRun(const workload::ScenarioWorkload &bundle)
{
    baselines::PresetParams params;
    params.cacheCapacity = 4200;
    auto config = baselines::modm(diffusion::sd35Large(), diffusion::sdxl(),
                                  params);
    config.trace.events = true;
    serving::ServingSystem system(config);
    system.warmCache(bundle.warm);
    return system.run(bundle.trace);
}

TEST(ScanCrew, ForcedHelpersLeaveTheRunUnchanged)
{
    const auto bundle = test::ddbBundle(4200, 300, 8.0);
    serving::ServingResult serial;
    {
        ScopedHelpers force(0);
        serial = bigCacheRun(bundle);
    }
    const std::size_t started = CrewScope::helpersStarted();
    serving::ServingResult split;
    {
        ScopedHelpers force(kMaxCrewHelpers);
        split = bigCacheRun(bundle);
    }
    // The warm-up and the run each started a crew.
    EXPECT_EQ(CrewScope::helpersStarted() - started, 2 * kMaxCrewHelpers);
    EXPECT_EQ(serving::resultDigest(split), serving::resultDigest(serial));
    ASSERT_NE(split.traceLog, nullptr);
    ASSERT_NE(serial.traceLog, nullptr);
    EXPECT_EQ(split.traceLog->finalHash(), serial.traceLog->finalHash());
}

TEST(ScanCrew, OneCpuMaskKeepsEveryScreenOnTheCaller)
{
    cpu_set_t saved;
    ASSERT_EQ(sched_getaffinity(0, sizeof(saved), &saved), 0);
    int first = 0;
    while (!CPU_ISSET(first, &saved))
        ++first;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(first, &one);
    ASSERT_EQ(sched_setaffinity(0, sizeof(one), &one), 0);
    EXPECT_EQ(usableCpus(), 1u);

    FlatIndex index;
    Rng rng(3);
    for (std::size_t i = 0; i < kSplitScreenRows; ++i)
        index.insert(i, Embedding(randomUnitVec(embedding::kEmbeddingDim,
                                                rng)));
    const Embedding query(randomUnitVec(embedding::kEmbeddingDim, rng));
    const std::size_t started = CrewScope::helpersStarted();
    Match split;
    {
        const CrewScope crew;
        split = index.best(query);
    }
    ASSERT_EQ(sched_setaffinity(0, sizeof(saved), &saved), 0);
    EXPECT_EQ(CrewScope::helpersStarted(), started);
    const Match serial = index.best(query); // no scope: serial
    EXPECT_EQ(split.id, serial.id);
    EXPECT_EQ(split.similarity, serial.similarity);
}

} // namespace
} // namespace modm
