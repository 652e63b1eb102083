/**
 * @file
 * Cluster-scale ablation: node count x routing policy x cache
 * partitioning, the design-space study the single-process design
 * could not express.
 *
 * The cluster serves a fixed total worker budget and a fixed total
 * cache budget; scaling the node count shards both. The question the
 * grid answers is where the hit rate goes: with Sharded caches and
 * affinity-free routing (round-robin, least-outstanding) a topic's
 * requests scatter across nodes, so the cached images they could have
 * hit sit on the wrong shard — hit rate degrades as nodes grow. The
 * consistent-hash router pins each topic to one node, recovering most
 * of the single-node hit rate at the cost of load imbalance (popular
 * topics overload their node); the bounded-load variant keeps the
 * affinity but spills an overloaded owner's traffic to the next ring
 * node. Replicated partitioning spends the same budget on k=2 copies
 * per entry placed on the topic's ring owners — lower unique capacity,
 * but content that survives node failures (see ablation_failover).
 *
 * Every column is virtual-time simulation output (no wall-clock), so
 * the emitted table is bit-identical at any sweep parallelism — the
 * CI determinism job diffs it at 1 vs 4 threads.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "bench/sweep.hh"

using namespace modm;

namespace {

constexpr std::size_t kWarm = 800;
constexpr std::size_t kRequests = 2000;
constexpr double kRatePerMin = 20.0;
constexpr std::size_t kTotalWorkers = 8;
constexpr std::size_t kTotalCache = 1200;

struct GridPoint
{
    std::size_t numNodes;
    serving::RoutingPolicy routing;
    serving::CachePartitioning partitioning;
};

serving::ServingConfig
makeConfig(const GridPoint &point)
{
    baselines::PresetParams params;
    params.numWorkers = kTotalWorkers;
    params.cacheCapacity = kTotalCache;
    auto config = baselines::modm(diffusion::sd35Large(),
                                  diffusion::sdxl(), params);
    config.cluster.numNodes = point.numNodes;
    config.cluster.routing = point.routing;
    config.cluster.cachePartitioning = point.partitioning;
    return config;
}

std::string
label(const GridPoint &point)
{
    return "nodes=" + std::to_string(point.numNodes) + "/" +
        serving::routingPolicyName(point.routing) + "/" +
        serving::cachePartitioningName(point.partitioning);
}

} // namespace

int
main()
{
    // One single-node baseline (routing is vacuous there), then the
    // full routing x partitioning cross at every multi-node scale.
    std::vector<GridPoint> grid;
    grid.push_back({1, serving::RoutingPolicy::RoundRobin,
                    serving::CachePartitioning::Sharded});
    for (const std::size_t nodes : {std::size_t{2}, std::size_t{4},
                                    std::size_t{8}}) {
        for (const auto routing :
             {serving::RoutingPolicy::RoundRobin,
              serving::RoutingPolicy::ConsistentHash,
              serving::RoutingPolicy::LeastOutstanding,
              serving::RoutingPolicy::BoundedLoadConsistentHash}) {
            grid.push_back({nodes, routing,
                            serving::CachePartitioning::Sharded});
        }
        // k-replica write-through on the same budget: what affinity
        // routing keeps hitting after a node failure (see
        // ablation_failover for the recovery story).
        grid.push_back({nodes, serving::RoutingPolicy::ConsistentHash,
                        serving::CachePartitioning::Replicated});
    }

    bench::SweepSpec spec;
    spec.options.title = "Ablation multinode";
    for (const auto &point : grid) {
        spec.add(label(point), makeConfig(point), [] {
            return workload::buildScenarioWorkload(
                {.warm = kWarm, .requests = kRequests, .rate = kRatePerMin});
        });
    }
    const auto results = bench::runSweep(spec);

    Table t({"nodes", "routing", "cache", "hit rate", "throughput/min",
             "p99 latency s", "load imbalance", "hit-rate spread"});
    for (std::size_t i = 0; i < grid.size(); ++i) {
        const auto &r = results[i];
        t.addRow({Table::fmt(grid[i].numNodes),
                  serving::routingPolicyName(grid[i].routing),
                  serving::cachePartitioningName(grid[i].partitioning),
                  Table::fmt(r.hitRate, 3),
                  Table::fmt(r.throughputPerMin, 1),
                  Table::fmt(r.metrics.latencyPercentile(99.0), 1),
                  Table::fmt(r.loadImbalance, 2),
                  Table::fmt(r.hitRateSpread, 3)});
    }
    t.print("Ablation — multi-node serving (MoDM-SDXL, DiffusionDB "
            "Poisson " +
            std::to_string(kRequests) + " requests at " +
            Table::fmt(kRatePerMin, 0) + "/min, " +
            std::to_string(kTotalWorkers) + " workers and " +
            std::to_string(kTotalCache) +
            "-entry cache budget split across nodes)");

    // The headline delta: what affinity routing recovers of the hit
    // rate that hash-partitioned (round-robin over shards) serving
    // loses at the widest sharded scale.
    std::size_t rr = 0;
    std::size_t affinity = 0;
    for (std::size_t i = 0; i < grid.size(); ++i) {
        if (grid[i].numNodes != 8 ||
            grid[i].partitioning !=
                serving::CachePartitioning::Sharded)
            continue;
        if (grid[i].routing == serving::RoutingPolicy::RoundRobin)
            rr = i;
        if (grid[i].routing == serving::RoutingPolicy::ConsistentHash)
            affinity = i;
    }
    std::printf("\nAt 8 sharded nodes: affinity routing hit rate %.3f "
                "vs round-robin %.3f (+%.3f recovered)\n",
                results[affinity].hitRate, results[rr].hitRate,
                results[affinity].hitRate - results[rr].hitRate);
    return 0;
}
