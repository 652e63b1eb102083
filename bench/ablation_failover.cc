/**
 * @file
 * Fault-tolerance ablation: routing policy x cache partitioning x
 * replication factor x fault plan, on one 4-node cluster budget.
 *
 * Every cell replays the same DiffusionDB Poisson trace against a
 * scripted fault plan (ServingConfig::faults) and reports the failover
 * telemetry the subsystem computes: requests re-routed off killed
 * nodes, the hit-rate recovery window (time after the first kill for
 * the trailing-window hit rate to return to 95% of its pre-fault
 * level), and the lost-capacity window (time until cumulative
 * completions catch back up with 95% of the work that arrived since
 * the kill).
 *
 * The headline figure: hit-rate recovery after a midpoint node kill,
 * Replicated(k=2)+ConsistentHash vs Sharded+RoundRobin on the same
 * cache budget. Replication admits every generation to its topic's
 * two ring owners, so when the ring heals onto the surviving replica
 * the content is already there; round-robin-over-shards must
 * regenerate everything the dead shard held. The acceptance bar is a
 * >= 20% shorter recovery window for the replicated cluster.
 *
 * Plans:
 *  - none:         fault-free reference row per config.
 *  - kill-mid:     node 1 dies a third of the way into the trace.
 *  - rolling-drain: nodes 1 then 2 drain and rejoin back-to-back (a
 *                  rolling restart; graceful, nothing re-routed).
 *  - kill+rejoin:  node 1 dies and returns cold one phase later.
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

constexpr std::size_t kNodes = 4;
constexpr std::size_t kWarm = 1000;
constexpr std::size_t kRequests = 3600;
constexpr double kRatePerMin = 12.0;
constexpr std::size_t kTotalWorkers = 8;
constexpr std::size_t kTotalCache = 1000;
constexpr std::size_t kRecoveryWindow = 100;

struct PlanSpec
{
    const char *name;
    serving::FaultPlan plan;
};

struct ConfigSpec
{
    const char *name;
    serving::RoutingPolicy routing;
    serving::CachePartitioning partitioning;
    std::size_t replicas;
};

serving::ServingConfig
makeConfig(const ConfigSpec &spec, const serving::FaultPlan &plan)
{
    baselines::PresetParams params;
    params.numWorkers = kTotalWorkers;
    params.cacheCapacity = kTotalCache;
    auto config = baselines::modm(diffusion::sd35Large(),
                                  diffusion::sdxl(), params);
    config.cluster.numNodes = kNodes;
    config.cluster.routing = spec.routing;
    config.cluster.cachePartitioning = spec.partitioning;
    config.cluster.replicationFactor = spec.replicas;
    config.faults = plan;
    config.faults.recoveryWindow = kRecoveryWindow;
    return config;
}

std::string
fmtSeconds(double value)
{
    if (value < 0.0)
        return "-";
    return Table::fmt(value, 0);
}

} // namespace

int
main()
{
    // Fault times anchor to trace arrivals so plans scale with the
    // workload; the workload builder is seeded, so this probe workload
    // is identical to the one every cell rebuilds.
    const workload::Scenario shape = {
        .warm = kWarm, .requests = kRequests, .rate = kRatePerMin};
    const auto probe = workload::buildScenarioWorkload(shape);
    const double tThird = probe.trace[kRequests / 3].arrival;
    const double tHalf = probe.trace[kRequests / 2].arrival;
    const double tTwoThirds =
        probe.trace[2 * kRequests / 3].arrival;

    std::vector<PlanSpec> plans;
    plans.push_back({"none", {}});
    {
        serving::FaultPlan plan;
        plan.add(tThird, 1, serving::FaultKind::Kill);
        plans.push_back({"kill-mid", plan});
    }
    {
        serving::FaultPlan plan;
        plan.add(tThird, 1, serving::FaultKind::Drain)
            .add(tHalf, 1, serving::FaultKind::Rejoin)
            .add(tHalf, 2, serving::FaultKind::Drain)
            .add(tTwoThirds, 2, serving::FaultKind::Rejoin);
        plans.push_back({"rolling-drain", plan});
    }
    {
        serving::FaultPlan plan;
        plan.add(tThird, 1, serving::FaultKind::Kill)
            .add(tTwoThirds, 1, serving::FaultKind::Rejoin);
        plans.push_back({"kill+rejoin", plan});
    }

    const std::vector<ConfigSpec> configs = {
        {"sharded/round-robin", serving::RoutingPolicy::RoundRobin,
         serving::CachePartitioning::Sharded, 2},
        {"sharded/least-outstanding",
         serving::RoutingPolicy::LeastOutstanding,
         serving::CachePartitioning::Sharded, 2},
        {"sharded/consistent-hash",
         serving::RoutingPolicy::ConsistentHash,
         serving::CachePartitioning::Sharded, 2},
        {"sharded/bounded-load",
         serving::RoutingPolicy::BoundedLoadConsistentHash,
         serving::CachePartitioning::Sharded, 2},
        {"replicated2/consistent-hash",
         serving::RoutingPolicy::ConsistentHash,
         serving::CachePartitioning::Replicated, 2},
        {"replicated2/bounded-load",
         serving::RoutingPolicy::BoundedLoadConsistentHash,
         serving::CachePartitioning::Replicated, 2},
        {"replicated3/consistent-hash",
         serving::RoutingPolicy::ConsistentHash,
         serving::CachePartitioning::Replicated, 3},
    };

    bench::SweepSpec spec;
    spec.options.title = "Ablation failover";
    for (const auto &plan : plans) {
        for (const auto &config : configs) {
            spec.add(std::string(plan.name) + "/" + config.name,
                     makeConfig(config, plan.plan), [shape] {
                         return workload::buildScenarioWorkload(shape);
                     });
        }
    }
    const auto results = bench::runSweep(spec);

    Table t({"plan", "routing", "cache", "pre-fault hit", "hit rate",
             "tput/min", "rerouted", "recovery s", "lost-capacity s",
             "downtime s"});
    for (std::size_t i = 0; i < spec.cells.size(); ++i) {
        const auto &plan = plans[i / configs.size()];
        const auto &config = configs[i % configs.size()];
        const auto &r = results[i];
        double downtime = 0.0;
        for (const auto &nf : r.failover.nodes)
            downtime += nf.downtimeS;
        const bool faulted = r.failover.active;
        const bool killed = r.failover.firstKillTime >= 0.0;
        std::string cache =
            serving::cachePartitioningName(config.partitioning);
        if (config.partitioning ==
            serving::CachePartitioning::Replicated)
            cache += "(k=" + std::to_string(config.replicas) + ")";
        t.addRow({plan.name,
                  serving::routingPolicyName(config.routing), cache,
                  killed ? Table::fmt(r.failover.preFaultHitRate, 3)
                         : "-",
                  Table::fmt(r.hitRate, 3),
                  Table::fmt(r.throughputPerMin, 1),
                  faulted ? Table::fmt(r.failover.rerouted) : "-",
                  killed ? fmtSeconds(r.failover.hitRateRecoveryS)
                         : "-",
                  killed ? fmtSeconds(r.failover.lostCapacityS) : "-",
                  faulted ? Table::fmt(downtime, 0) : "-"});
    }
    t.print("Ablation — failover (MoDM-SDXL, DiffusionDB Poisson " +
            std::to_string(kRequests) + " requests at " +
            Table::fmt(kRatePerMin, 0) + "/min, " + std::to_string(kNodes) +
            " nodes, " + std::to_string(kTotalWorkers) +
            " workers and " + std::to_string(kTotalCache) +
            "-entry cache budget; recovery = trailing-" +
            std::to_string(kRecoveryWindow) +
            "-request hit rate back at 95% of pre-fault)");

    // The headline: recovery after a midpoint kill, k=2 write-through
    // replication + affinity routing vs hash-partitioned round-robin
    // on the same cache budget.
    const std::size_t killBase = 1 * configs.size(); // "kill-mid" block
    const auto &rr = results[killBase + 0];
    const auto &repl = results[killBase + 4];
    const double rrRec = rr.failover.hitRateRecoveryS;
    const double replRec = repl.failover.hitRateRecoveryS;
    std::printf("\nAfter a midpoint node kill: Replicated(k=2)+"
                "consistent-hash recovers to 95%% of its pre-fault hit "
                "rate in %.0f s vs Sharded+round-robin in %.0f s",
                replRec, rrRec);
    if (replRec >= 0.0 && rrRec > 0.0)
        std::printf(" (%.0f%% shorter recovery window)",
                    100.0 * (1.0 - replRec / rrRec));
    std::printf("\n");
    return 0;
}
