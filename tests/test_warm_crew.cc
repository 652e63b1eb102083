/**
 * @file
 * Property tests for the parallel warm-up (ServingSystem::warmCache on a
 * crew, crew.hh). A warm-up with 0-3 forced helpers must leave every
 * cache, counter and event as the serial one does, over steady_state's
 * MoDM-SDXL, NIRVANA and Vanilla cells, fig07_diffusiondb's Pinecone
 * cell and failover_killmid's sharded and replicated k=2 cells:
 *
 *  - the same resultDigest and traceLog->finalHash() for the warm-up and
 *    the run after it, and at the scenario's own warm count the cell
 *    digest scenarios/goldens pins;
 *  - on every shard, the same ImageCacheStats insertions, evictions and
 *    encodes and the same FlatIndex::row(id) bits;
 *  - the serial order itself, checked without the pipeline: Warm events
 *    node-major with each node's prompts in input order, each node's
 *    k-th warm image under the k-th id of its block, and under FIFO
 *    each unreplicated shard holding exactly its node's newest warm
 *    images.
 *
 * Warm counts sit on both sides of a batch edge (kWarmBatch) above
 * kSplitWarmPrompts, with caches smaller than the warm-up so that it
 * evicts; the scenarios' own counts are below it but for fig07's. The
 * suite runs
 * under TSan with the property label. MODM_SCENARIO_DIR (a compile
 * definition) points at the checked-in scenarios/ directory.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/hash.hh"
#include "src/serving/scenario_exec.hh"
#include "src/serving/system.hh"
#include "src/workload/scenario.hh"
#include "tests/serving_fixtures.hh"

namespace modm::serving {
namespace {

using test::ScopedHelpers;

/** A scenario cell whose warm-up is checked. */
struct WarmCell
{
    const char *scenario;
    const char *label;
};

const WarmCell kCells[] = {
    {"steady_state", "MoDM-SDXL"},
    {"steady_state", "NIRVANA"},
    {"steady_state", "Vanilla"},
    {"fig07_diffusiondb", "Pinecone"},
    {"failover_killmid", "sharded"},
    {"failover_killmid", "replicated k=2"},
};

/** Bit of an image id above a replicated node's block (ServingNode). */
constexpr unsigned kNodeIdShift = 40;

/** One warm image as one shard caches it. */
struct CachedWarm
{
    std::size_t shard = 0;
    std::uint64_t id = 0;
    std::uint64_t prompt = 0;
    std::vector<std::uint32_t> rowBits; // FlatIndex::row(id)
};

bool
operator==(const CachedWarm &a, const CachedWarm &b)
{
    return a.shard == b.shard && a.id == b.id && a.prompt == b.prompt &&
        a.rowBits == b.rowBits;
}

/** One shard's cache counters and capacity after warm-up. */
struct ShardCounts
{
    std::uint64_t insertions = 0;
    std::uint64_t evictions = 0;
    std::uint64_t encodes = 0;
    std::size_t capacity = 0;
};

bool
operator==(const ShardCounts &a, const ShardCounts &b)
{
    return a.insertions == b.insertions && a.evictions == b.evictions &&
        a.encodes == b.encodes && a.capacity == b.capacity;
}

/** What one warm-up and the run after it leave behind. */
struct WarmOutcome
{
    std::string digest;
    std::uint64_t traceHash = 0;
    /** By shard; empty for a cacheless system. */
    std::vector<ShardCounts> counts;
    std::vector<CachedWarm> cached;
    /** Every Warm event's (node, prompt id), in log order. */
    std::vector<std::pair<std::uint32_t, std::uint64_t>> warms;
    bool replicated = false;
    bool fifo = false;
};

workload::Scenario
loadScenario(const std::string &name)
{
    return workload::loadScenarioFile(std::string(MODM_SCENARIO_DIR) +
                                      "/" + name + ".scn");
}

workload::ScenarioCell
findCell(const workload::Scenario &scenario, const std::string &label)
{
    for (std::size_t i = 0; i < scenario.cellCount(); ++i) {
        if (scenario.cell(i).label == label)
            return scenario.cell(i);
    }
    ADD_FAILURE() << "no cell " << label << " in " << scenario.name;
    return scenario.cell(0);
}

/** The cell digest scenarios/goldens/<scenario>.digest pins. */
std::uint64_t
goldenCellDigest(const std::string &scenario, const std::string &label)
{
    std::ifstream in(std::string(MODM_SCENARIO_DIR) + "/goldens/" +
                     scenario + ".digest");
    const std::string prefix = "cell " + label + " ";
    for (std::string line; std::getline(in, line);) {
        if (line.compare(0, prefix.size(), prefix) == 0)
            return std::stoull(line.substr(prefix.size()), nullptr, 16);
    }
    ADD_FAILURE() << "no golden digest for " << scenario << " " << label;
    return 0;
}

/**
 * Warm `cell` with `built`'s warm prompts and `helpers` forced crew
 * helpers, into caches of `capacity` entries (0 keeps the cell's), then
 * run `built`'s trace.
 */
WarmOutcome
warmAndRun(const workload::Scenario &scenario,
           const workload::ScenarioCell &cell,
           const workload::ScenarioWorkload &built, std::size_t capacity,
           std::size_t helpers)
{
    ServingConfig config = scenarioCellConfig(scenario, cell);
    if (capacity > 0) {
        config.cacheCapacity = capacity;
        config.latentCacheCapacity = capacity;
    }
    config.trace.events = true;
    WarmOutcome out;
    const CachePartitioning partitioning = config.cluster.cachePartitioning;
    out.replicated = partitioning == CachePartitioning::Replicated &&
        config.cluster.numNodes > 1;
    out.fifo = config.kind == SystemKind::MoDM &&
        config.cachePolicy == cache::EvictionPolicy::FIFO;

    const ScopedHelpers force(helpers);
    ServingSystem system(config);
    system.warmCache(built.warm);
    const std::size_t origins = out.replicated ? system.numNodes() : 1;
    for (std::size_t s = 0; s < system.numNodes(); ++s) {
        const cache::ImageCache *cache =
            system.node(s).scheduler().imageCache();
        if (cache == nullptr)
            continue;
        const cache::ImageCacheStats stats = cache->stats();
        out.counts.push_back({stats.insertions, stats.evictions,
                              stats.encodes, cache->capacity()});
        for (std::size_t origin = 0; origin < origins; ++origin) {
            const std::uint64_t base = out.replicated
                ? std::uint64_t{origin} << kNodeIdShift
                : 0;
            for (std::uint64_t id = base + 1;
                 id <= base + built.warm.size(); ++id) {
                if (!cache->contains(id))
                    continue;
                CachedWarm entry;
                entry.shard = s;
                entry.id = id;
                entry.prompt = cache->entry(id).image.promptId;
                entry.rowBits.resize(embedding::kEmbeddingDim);
                std::memcpy(entry.rowBits.data(), cache->index().row(id),
                            embedding::kEmbeddingDim * sizeof(float));
                out.cached.push_back(std::move(entry));
            }
        }
    }

    const ServingResult result = system.run(built.trace);
    out.digest = resultDigest(result);
    out.traceHash = result.traceLog->finalHash();
    for (const obs::TraceRecord &record : result.traceLog->records()) {
        if (record.kind == static_cast<std::uint16_t>(obs::EventKind::Warm))
            out.warms.emplace_back(record.node, record.request);
    }
    return out;
}

/** The serial warm-up's order, checked without the pipeline. */
void
expectSerialOrder(const std::vector<workload::Prompt> &warm,
                  const WarmOutcome &out)
{
    std::unordered_map<std::uint64_t, std::size_t> position;
    for (std::size_t i = 0; i < warm.size(); ++i)
        position.emplace(warm[i].id, i);
    ASSERT_EQ(position.size(), warm.size()) << "warm prompt ids repeat";

    // One Warm event per prompt, node-major, each node's prompts in
    // input order.
    ASSERT_EQ(out.warms.size(), warm.size());
    std::vector<std::vector<std::uint64_t>> perNode;
    std::vector<bool> seen(warm.size(), false);
    for (std::size_t e = 0; e < out.warms.size(); ++e) {
        const auto [node, prompt] = out.warms[e];
        const auto it = position.find(prompt);
        ASSERT_NE(it, position.end()) << "event " << e;
        ASSERT_FALSE(seen[it->second]) << "event " << e;
        seen[it->second] = true;
        if (e > 0) {
            const auto [lastNode, lastPrompt] = out.warms[e - 1];
            ASSERT_GE(node, lastNode) << "event " << e;
            if (node == lastNode) {
                ASSERT_GT(it->second, position[lastPrompt])
                    << "event " << e;
            }
        }
        if (perNode.size() <= node)
            perNode.resize(node + 1);
        perNode[node].push_back(prompt);
    }

    // Node n's k-th warm image has the k-th id of its block.
    const std::uint64_t localMask = (std::uint64_t{1} << kNodeIdShift) - 1;
    std::vector<std::size_t> cachedPerShard(out.counts.size(), 0);
    for (const CachedWarm &entry : out.cached) {
        const std::size_t origin =
            out.replicated ? entry.id >> kNodeIdShift : entry.shard;
        const std::uint64_t k = (entry.id & localMask) - 1;
        ASSERT_LT(origin, perNode.size()) << "id " << entry.id;
        ASSERT_LT(k, perNode[origin].size()) << "id " << entry.id;
        ASSERT_EQ(entry.prompt, perNode[origin][k]) << "id " << entry.id;
        ++cachedPerShard[entry.shard];
    }

    // FIFO on an unreplicated shard keeps exactly its node's newest.
    if (!out.fifo || out.replicated)
        return;
    for (std::size_t s = 0; s < out.counts.size(); ++s) {
        const std::size_t made = s < perNode.size() ? perNode[s].size() : 0;
        const std::size_t kept = std::min(made, out.counts[s].capacity);
        EXPECT_EQ(cachedPerShard[s], kept) << "shard " << s;
        for (const CachedWarm &entry : out.cached) {
            if (entry.shard == s) {
                ASSERT_GT(entry.id, made - kept) << "shard " << s;
            }
        }
    }
}

void
expectSameOutcome(const WarmOutcome &serial, const WarmOutcome &split)
{
    EXPECT_EQ(split.digest, serial.digest);
    EXPECT_EQ(split.traceHash, serial.traceHash);
    EXPECT_TRUE(split.counts == serial.counts);
    EXPECT_EQ(split.cached.size(), serial.cached.size());
    EXPECT_TRUE(split.cached == serial.cached);
}

/**
 * Every cell at 0-3 forced helpers, warmed with `warm` prompts (0 keeps
 * the scenario's, and then its golden digest must come out) into
 * caches of `capacity`, then run for `requests` (0 keeps the
 * scenario's).
 */
void
checkEveryCell(std::size_t warm, std::size_t capacity,
               std::size_t requests)
{
    for (const WarmCell &c : kCells) {
        SCOPED_TRACE(std::string(c.scenario) + " " + c.label + ", warm " +
                     std::to_string(warm));
        workload::Scenario scenario = loadScenario(c.scenario);
        const bool golden = warm == 0;
        if (!golden)
            scenario.warm = warm;
        if (requests > 0)
            scenario.requests = requests;
        const workload::ScenarioCell cell = findCell(scenario, c.label);
        const workload::ScenarioWorkload built =
            workload::buildScenarioWorkload(scenario);
        WarmOutcome serial;
        for (std::size_t helpers = 0; helpers <= kMaxCrewHelpers;
             ++helpers) {
            SCOPED_TRACE("helpers " + std::to_string(helpers));
            WarmOutcome out =
                warmAndRun(scenario, cell, built, capacity, helpers);
            expectSerialOrder(built.warm, out);
            if (golden) {
                EXPECT_EQ(fnv1a64(out.digest),
                          goldenCellDigest(c.scenario, c.label));
            }
            if (helpers == 0)
                serial = std::move(out);
            else
                expectSameOutcome(serial, out);
        }
    }
}

TEST(WarmCrew, EveryHelperCountWarmsAsTheGoldensPin)
{
    checkEveryCell(0, 0, 0);
}

TEST(WarmCrew, BatchEdgesEvictingAtEveryHelperCount)
{
    static_assert(3 * kWarmBatch - 1 >= kSplitWarmPrompts,
                  "both warm-ups must reach the crew");
    for (const std::size_t warm : {3 * kWarmBatch - 1, 3 * kWarmBatch + 1})
        checkEveryCell(warm, 700, 300);
}

} // namespace
} // namespace modm::serving
