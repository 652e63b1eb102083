/**
 * @file
 * Fault-tolerance subsystem tests: ring healing, the kill / drain /
 * rejoin lifecycle, request conservation under re-routing, k-replica
 * cache admission, bounded-load routing, and the recovery analysis.
 *
 *  - Ring healing is the property the ISSUE pins: removing one node
 *    from the consistent-hash ring reassigns only that node's topics,
 *    and a killed node's re-routed requests are conserved
 *    (assigned = completed + rerouted, across the cluster).
 *  - The no-op contract: a config without a fault plan must produce a
 *    digest with no failover section (the frozen-hash regression in
 *    test_multinode.cc pins the exact bytes).
 *  - Replicated admission encodes each generation once and every owner
 *    shard files it under that one key.
 *
 * MODM_SCENARIO_DIR (a compile definition) points at the checked-in
 * scenarios/ directory.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "bench/sweep.hh"
#include "src/baselines/presets.hh"
#include "src/embedding/encoder.hh"
#include "src/serving/fault.hh"
#include "src/serving/router.hh"
#include "src/serving/scenario_exec.hh"
#include "src/serving/system.hh"
#include "tests/serving_fixtures.hh"

namespace modm::serving {
namespace {

using test::ddbBundle;
using test::ScopedSweepEnv;
using test::topicPrompt;

ServingConfig
clusterConfig(std::size_t nodes, RoutingPolicy routing,
              CachePartitioning partitioning, std::size_t replicas = 2)
{
    baselines::PresetParams params;
    params.numWorkers = 8;
    params.cacheCapacity = 800;
    auto config = baselines::modm(diffusion::sd35Large(),
                                  diffusion::sdxl(), params);
    config.cluster.numNodes = nodes;
    config.cluster.routing = routing;
    config.cluster.cachePartitioning = partitioning;
    config.cluster.replicationFactor = replicas;
    return config;
}

TEST(RingHealing, RemovalReassignsOnlyTheDeadNodesTopics)
{
    // The minimal-reassignment property, on the router itself: kill
    // one node and every topic either keeps its owner or belonged to
    // the dead node.
    auto router = makeRouter(RoutingPolicy::ConsistentHash, 5, 42);
    const std::vector<std::size_t> outstanding(5, 0);
    std::vector<std::size_t> before;
    for (std::uint32_t topic = 0; topic < 500; ++topic)
        before.push_back(router->route(topicPrompt(topic), outstanding));

    const std::size_t dead = 2;
    router->setNodeAlive(dead, false);
    std::size_t moved = 0;
    for (std::uint32_t topic = 0; topic < 500; ++topic) {
        const auto now = router->route(topicPrompt(topic), outstanding);
        EXPECT_NE(now, dead);
        if (before[topic] != dead) {
            EXPECT_EQ(now, before[topic])
                << "topic " << topic
                << " moved although its owner survived";
        } else {
            ++moved;
        }
    }
    EXPECT_GT(moved, 0u) << "node " << dead << " owned no topics";

    // Rejoin restores the original assignment exactly.
    router->setNodeAlive(dead, true);
    for (std::uint32_t topic = 0; topic < 500; ++topic)
        EXPECT_EQ(router->route(topicPrompt(topic), outstanding),
                  before[topic]);
}

TEST(RingHealing, HealedOwnerIsTheReplicaSuccessor)
{
    // The property the replication design leans on: after a kill, a
    // dead primary's topics route to what was the topic's second ring
    // owner — exactly where Replicated(k>=2) admission put the copy.
    const HashRing ring(4, 42);
    auto router = makeRouter(RoutingPolicy::ConsistentHash, 4,
                             42 ^ 0x0ULL);
    std::vector<bool> alive(4, true);
    for (std::uint32_t topic = 0; topic < 300; ++topic) {
        const auto owners = ring.owners(ring.topicKey(topic), 2);
        ASSERT_EQ(owners.size(), 2u);
        std::vector<bool> healed = alive;
        healed[owners[0]] = false;
        EXPECT_EQ(ring.owner(ring.topicKey(topic), healed), owners[1]);
    }
}

TEST(RingHealing, RoundRobinAndLeastOutstandingSkipDeadNodes)
{
    auto rr = makeRouter(RoutingPolicy::RoundRobin, 3, 42);
    rr->setNodeAlive(1, false);
    for (int i = 0; i < 10; ++i)
        EXPECT_NE(rr->route(topicPrompt(0), {}), 1u);

    auto lo = makeRouter(RoutingPolicy::LeastOutstanding, 3, 42);
    lo->setNodeAlive(0, false);
    // Node 0 has the fewest outstanding but is dead.
    EXPECT_EQ(lo->route(topicPrompt(0), {0, 5, 4}), 2u);
}

TEST(BoundedLoad, SpillsOnlyWhenTheOwnerIsOverloaded)
{
    const HashRing ring(4, 7 ^ kRingSeedSalt);
    auto router = makeRouter(RoutingPolicy::BoundedLoadConsistentHash,
                             4, 7 ^ kRingSeedSalt, 1.25);

    // Balanced load: pure affinity — equals the ring owner.
    for (std::uint32_t topic = 0; topic < 200; ++topic) {
        EXPECT_EQ(router->route(topicPrompt(topic), {4, 4, 4, 4}),
                  ring.owner(ring.topicKey(topic)));
    }
    // Owner overloaded: spill to the next ring owner under the bound.
    for (std::uint32_t topic = 0; topic < 200; ++topic) {
        const auto owners = ring.owners(ring.topicKey(topic), 4);
        std::vector<std::size_t> outstanding(4, 2);
        outstanding[owners[0]] = 100; // way past 1.25 x mean
        EXPECT_EQ(router->route(topicPrompt(topic), outstanding),
                  owners[1]);
    }
    // Warm routing is pure affinity (no load exists yet).
    for (std::uint32_t topic = 0; topic < 50; ++topic) {
        EXPECT_EQ(router->routeWarm(topicPrompt(topic)),
                  ring.owner(ring.topicKey(topic)));
    }
}

TEST(Failover, KilledNodeRequestsAreConserved)
{
    // The ISSUE's conservation property: run a 4-node cluster, kill
    // one node mid-trace, and check assigned = completed + rerouted
    // per node and across the cluster — no request lost, none served
    // twice.
    for (const auto routing :
         {RoutingPolicy::RoundRobin, RoutingPolicy::ConsistentHash,
          RoutingPolicy::BoundedLoadConsistentHash}) {
        auto config = clusterConfig(4, routing,
                                    CachePartitioning::Sharded);
        auto bundle = ddbBundle(200, 400, 24.0);
        const double mid = bundle.trace[200].arrival;
        config.faults.add(mid, 1, FaultKind::Kill);

        ServingSystem system(config);
        system.warmCache(bundle.warm);
        const auto result = system.run(bundle.trace);

        EXPECT_EQ(result.metrics.count(), 400u);
        std::set<std::uint64_t> served;
        for (const auto &r : result.metrics.records())
            served.insert(r.promptId);
        EXPECT_EQ(served.size(), 400u) << "every request exactly once";

        ASSERT_TRUE(result.failover.active);
        ASSERT_EQ(result.failover.nodes.size(), 4u);
        std::uint64_t assigned = 0;
        std::uint64_t completed = 0;
        std::uint64_t rerouted = 0;
        for (std::size_t n = 0; n < 4; ++n) {
            const auto &ns = result.nodes[n];
            const auto &nf = result.failover.nodes[n];
            EXPECT_EQ(ns.assigned, ns.completed + nf.reroutedOut)
                << "node " << n << " leaked requests";
            assigned += ns.assigned;
            completed += ns.completed;
            rerouted += nf.reroutedOut;
        }
        EXPECT_EQ(completed, 400u);
        EXPECT_EQ(assigned, 400u + rerouted)
            << "rerouted requests are assigned twice, served once";
        EXPECT_EQ(result.failover.rerouted, rerouted);
        EXPECT_GT(rerouted, 0u) << "the kill should strand a backlog";

        // The dead node stays dead: nothing assigned after the kill.
        const auto &deadNode = result.failover.nodes[1];
        EXPECT_GT(deadNode.downtimeS, 0.0);
        ASSERT_EQ(deadNode.downIntervals.size(), 1u);
        EXPECT_DOUBLE_EQ(deadNode.downIntervals[0].first, mid);
    }
}

TEST(Failover, DrainFinishesBacklogWithoutRerouting)
{
    auto config = clusterConfig(4, RoutingPolicy::RoundRobin,
                                CachePartitioning::Sharded);
    auto bundle = ddbBundle(200, 400, 24.0);
    const double mid = bundle.trace[200].arrival;
    config.faults.add(mid, 2, FaultKind::Drain);

    ServingSystem system(config);
    system.warmCache(bundle.warm);
    const auto result = system.run(bundle.trace);

    EXPECT_EQ(result.metrics.count(), 400u);
    ASSERT_TRUE(result.failover.active);
    const auto &drained = result.failover.nodes[2];
    EXPECT_EQ(drained.reroutedOut, 0u);
    EXPECT_EQ(drained.abortedJobs, 0u);
    EXPECT_GT(drained.drainedS, 0.0);
    EXPECT_EQ(drained.downtimeS, 0.0);
    // Everything the node was assigned it also completed.
    EXPECT_EQ(result.nodes[2].assigned, result.nodes[2].completed);
    // And it admitted nothing after the drain point: every record it
    // could have produced later went elsewhere, so the cluster still
    // served everything.
    std::uint64_t others = 0;
    for (std::size_t n = 0; n < 4; ++n) {
        if (n != 2)
            others += result.nodes[n].completed;
    }
    EXPECT_EQ(others + result.nodes[2].completed, 400u);
}

TEST(Failover, KillRejoinBringsTheNodeBack)
{
    auto config = clusterConfig(4, RoutingPolicy::RoundRobin,
                                CachePartitioning::Sharded);
    auto bundle = ddbBundle(200, 500, 24.0);
    const double killAt = bundle.trace[150].arrival;
    const double rejoinAt = bundle.trace[300].arrival;
    config.faults.add(killAt, 0, FaultKind::Kill)
        .add(rejoinAt, 0, FaultKind::Rejoin);

    ServingSystem system(config);
    system.warmCache(bundle.warm);
    const auto result = system.run(bundle.trace);

    EXPECT_EQ(result.metrics.count(), 500u);
    ASSERT_TRUE(result.failover.active);
    const auto &node = result.failover.nodes[0];
    ASSERT_EQ(node.downIntervals.size(), 1u);
    EXPECT_DOUBLE_EQ(node.downIntervals[0].first, killAt);
    EXPECT_DOUBLE_EQ(node.downIntervals[0].second, rejoinAt);
    EXPECT_NEAR(node.downtimeS, rejoinAt - killAt, 1e-9);
    // The rejoined node took assignments again: more than it had
    // completed by the kill (everything pre-kill was rerouted away).
    EXPECT_GT(result.nodes[0].assigned,
              result.failover.nodes[0].reroutedOut);
    EXPECT_EQ(result.nodes[0].assigned,
              result.nodes[0].completed + node.reroutedOut);
    // Conservation still holds cluster-wide.
    std::uint64_t completed = 0;
    for (const auto &ns : result.nodes)
        completed += ns.completed;
    EXPECT_EQ(completed, 500u);
}

TEST(Failover, ReplicatedAdmissionWritesThroughToKNodes)
{
    // Warm a 4-node Replicated(k=2) cluster and check every warm
    // generation landed on exactly its two ring owners.
    auto config = clusterConfig(4, RoutingPolicy::ConsistentHash,
                                CachePartitioning::Replicated, 2);
    config.cacheCapacity = 4000; // no eviction during this check
    auto bundle = ddbBundle(300, 1, 1.0);

    ServingSystem system(config);
    system.warmCache(bundle.warm);
    std::size_t totalEntries = 0;
    for (std::size_t n = 0; n < 4; ++n)
        totalEntries += system.node(n).scheduler().imageCache()->size();
    EXPECT_EQ(totalEntries, 2 * 300u)
        << "each warm generation must be admitted to k=2 replicas";
}

TEST(Failover, ReplicasShareTheOriginsOneImageKey)
{
    // failover_killmid.scn's replicated k=2 cell. A generation is
    // encoded once, by the node that made it, and each owner shard
    // files it under that key: bit for bit what a fresh image tower
    // computes, so no replica needs an encode of its own.
    const auto scenario = workload::loadScenarioFile(
        std::string(MODM_SCENARIO_DIR) + "/failover_killmid.scn");
    std::size_t cell = scenario.cellCount();
    for (std::size_t i = 0; i < scenario.cellCount(); ++i) {
        if (scenario.cell(i).label == "replicated k=2")
            cell = i;
    }
    ASSERT_LT(cell, scenario.cellCount()) << "no replicated k=2 cell";
    auto config = scenarioCellConfig(scenario, scenario.cell(cell));
    ASSERT_EQ(config.cluster.cachePartitioning,
              CachePartitioning::Replicated);
    ASSERT_EQ(config.cluster.replicationFactor, 2u);
    ASSERT_EQ(config.admission, AdmissionPolicy::CacheAll);
    config.keepOutputs = true;
    const auto built = workload::buildScenarioWorkload(scenario);
    ServingSystem system(config);
    system.warmCache(built.warm);
    const auto result = system.run(built.trace);

    // Every warm prompt and every served request is one generation,
    // and cache-all admits each. One node at most is down at a time,
    // so each generation always has two alive owners.
    std::uint64_t encodes = 0;
    std::uint64_t insertions = 0;
    for (std::size_t n = 0; n < system.numNodes(); ++n) {
        const auto stats = system.node(n).scheduler().imageCache()->stats();
        encodes += stats.encodes;
        insertions += stats.insertions;
    }
    EXPECT_EQ(encodes, built.warm.size() + built.trace.size());
    EXPECT_EQ(insertions, 2 * encodes);

    const embedding::ImageEncoder fresh(config.imageEncoder);
    std::size_t rows = 0;
    for (const auto &image : result.images) {
        const auto key =
            fresh.encode(image.content, image.fidelity, image.id);
        std::size_t holders = 0;
        for (std::size_t n = 0; n < system.numNodes(); ++n) {
            const float *row =
                system.node(n).scheduler().imageCache()->index().row(
                    image.id);
            if (row == nullptr)
                continue;
            ++holders;
            EXPECT_EQ(std::memcmp(row, key.vec().data(),
                                  key.dim() * sizeof(float)),
                      0)
                << "image " << image.id << " on node " << n;
        }
        EXPECT_LE(holders, 2u) << "image " << image.id;
        rows += holders;
    }
    // Node 1's shard died with it, so only most generations still sit
    // on both owners.
    EXPECT_GT(rows, result.images.size());
}

TEST(Failover, ReplicationShortensAffinityRecovery)
{
    // The headline mechanism, as a property: kill a node under
    // consistent-hash routing and compare hit-rate recovery with and
    // without k=2 write-through replication. The healed ring routes
    // the dead node's topics to their old second replica, so with
    // replication the content is already there; without it the shard
    // is simply gone and the topics miss until regenerated. Same
    // regime as bench/ablation_failover's headline figure.
    const auto runWith = [](CachePartitioning partitioning) {
        baselines::PresetParams params;
        params.numWorkers = 8;
        params.cacheCapacity = 1000;
        auto config = baselines::modm(diffusion::sd35Large(),
                                      diffusion::sdxl(), params);
        config.cluster.numNodes = 4;
        config.cluster.routing = RoutingPolicy::ConsistentHash;
        config.cluster.cachePartitioning = partitioning;
        config.cluster.replicationFactor = 2;
        auto bundle = ddbBundle(1000, 3600, 12.0);
        config.faults.add(bundle.trace[1200].arrival, 1,
                          FaultKind::Kill);
        ServingSystem system(config);
        system.warmCache(bundle.warm);
        return system.run(bundle.trace);
    };
    const auto replicated = runWith(CachePartitioning::Replicated);
    const auto sharded = runWith(CachePartitioning::Sharded);

    ASSERT_TRUE(replicated.failover.active);
    const double repRec = replicated.failover.hitRateRecoveryS;
    const double shaRec = sharded.failover.hitRateRecoveryS;
    ASSERT_GE(repRec, 0.0) << "replicated cluster must recover";
    ASSERT_TRUE(shaRec < 0.0 || repRec < 0.8 * shaRec)
        << "replication should cut the recovery window by >= 20% "
        << "(got " << repRec << " vs " << shaRec << ")";
    // Replica admissions actually happened on non-origin nodes.
    std::uint64_t replicaAdmits = 0;
    for (const auto &nf : replicated.failover.nodes)
        replicaAdmits += nf.replicaAdmits;
    EXPECT_GT(replicaAdmits, 0u);
}

TEST(Failover, EmptyPlanIsAStrictNoOp)
{
    // Byte-level: a multi-node run with no fault plan must produce a
    // digest without any failover section, identical to the same
    // config before the subsystem existed (single-node bytes are
    // pinned by frozen hashes in test_multinode.cc).
    auto config = clusterConfig(4, RoutingPolicy::ConsistentHash,
                                CachePartitioning::Sharded);
    auto bundle = ddbBundle(200, 250, 16.0);
    ServingSystem system(config);
    system.warmCache(bundle.warm);
    const auto result = system.run(bundle.trace);
    EXPECT_FALSE(result.failover.active);
    const auto digest = resultDigest(result);
    EXPECT_EQ(digest.find("\nF "), std::string::npos);
    EXPECT_EQ(digest.find("\nD "), std::string::npos);
}

TEST(Failover, SweepDeterminismWithFaultPlans)
{
    // Fault-plan cells stay share-nothing: parallelism 1 vs 4 must be
    // bit-identical, fault lines included.
    const auto makeSpec = [] {
        bench::SweepSpec spec;
        spec.options.title = "failover-property";
        const auto bundle = [] { return ddbBundle(200, 300, 20.0); };
        for (const auto partitioning :
             {CachePartitioning::Sharded, CachePartitioning::Replicated}) {
            for (const auto routing :
                 {RoutingPolicy::RoundRobin,
                  RoutingPolicy::BoundedLoadConsistentHash}) {
                auto config = clusterConfig(4, routing, partitioning);
                config.faults.add(300.0, 1, FaultKind::Kill)
                    .add(700.0, 1, FaultKind::Rejoin);
                spec.add(routingPolicyName(routing), config, bundle);
            }
        }
        return spec;
    };

    std::vector<std::string> serial;
    {
        ScopedSweepEnv env("1");
        for (const auto &result : runSweep(makeSpec()))
            serial.push_back(resultDigest(result));
    }
    {
        ScopedSweepEnv env("4");
        const auto results = runSweep(makeSpec());
        ASSERT_EQ(results.size(), serial.size());
        for (std::size_t i = 0; i < results.size(); ++i) {
            EXPECT_EQ(resultDigest(results[i]), serial[i])
                << "fault cell " << i << " diverged across parallelism";
        }
        // Fault lines are present in these digests.
        EXPECT_NE(serial[0].find("\nF "), std::string::npos);
    }
}

TEST(FailoverAnalysis, RecoveryTimesFromSyntheticRecords)
{
    // Hand-built timeline: pre-kill 100% hits at 1 req/s with instant
    // service; the kill turns the next 20 requests into misses whose
    // generations take 30 s (a service stall), then everything hits
    // again with 1 s service.
    MetricsCollector metrics;
    auto push = [&metrics](double arrival, double finish, bool hit) {
        RequestRecord r;
        r.promptId = static_cast<std::uint64_t>(arrival * 1000);
        r.arrival = arrival;
        r.classified = arrival;
        r.start = arrival;
        r.finish = finish;
        r.cacheHit = hit;
        metrics.record(r);
    };
    for (int i = 0; i < 100; ++i)
        push(i, i, true); // [0, 100): 1/s, all hits, no latency
    for (int i = 100; i < 120; ++i)
        push(i, i + 30.0, false); // stalled misses
    for (int i = 120; i < 220; ++i)
        push(i, i + 1.0, true); // recovered

    FaultPlan plan;
    plan.add(100.0, 0, FaultKind::Kill);
    plan.recoveryWindow = 10;
    plan.recoveryTarget = 0.95;
    const auto report = analyzeFailover(metrics, plan);
    EXPECT_TRUE(report.firstKillTime == 100.0);
    EXPECT_DOUBLE_EQ(report.preFaultHitRate, 1.0);
    EXPECT_DOUBLE_EQ(report.preFaultThroughputPerMin, 60.0);
    // Target 0.95 over a 10-wide window needs 10 straight hits; the
    // 20 post-kill misses classify at 100..119, so the first all-hit
    // window closes on the classification at t = 129: 29 s recovery.
    EXPECT_DOUBLE_EQ(report.hitRateRecoveryS, 29.0);
    // Capacity: the 20 stalled generations finish at 130..149, two
    // completions per second alongside the hits. Cumulative
    // completions last trail 0.95 x cumulative arrivals at the first
    // of the two completions at t = 148 — 48 s after the kill.
    EXPECT_DOUBLE_EQ(report.lostCapacityS, 48.0);

    // A plan with no kill yields an inactive-recovery report.
    FaultPlan drainOnly;
    drainOnly.add(50.0, 0, FaultKind::Drain);
    const auto none = analyzeFailover(metrics, drainOnly);
    EXPECT_LT(none.firstKillTime, 0.0);
    EXPECT_LT(none.hitRateRecoveryS, 0.0);
}

TEST(FailoverAnalysis, PlanValidationCatchesAuthoringBugs)
{
    EXPECT_NO_FATAL_FAILURE({
        FaultPlan plan;
        plan.add(10.0, 0, FaultKind::Kill)
            .add(20.0, 0, FaultKind::Rejoin)
            .add(30.0, 1, FaultKind::Drain);
        validatePlan(plan, 2);
    });
    // A kill may supersede an in-progress drain (the node is still
    // up, just not admitting).
    EXPECT_NO_FATAL_FAILURE({
        FaultPlan plan;
        plan.add(10.0, 1, FaultKind::Drain)
            .add(20.0, 1, FaultKind::Kill)
            .add(30.0, 1, FaultKind::Rejoin);
        validatePlan(plan, 2);
    });
    EXPECT_DEATH(
        {
            FaultPlan plan;
            plan.add(10.0, 5, FaultKind::Kill);
            validatePlan(plan, 2);
        },
        "targets node");
    EXPECT_DEATH(
        {
            FaultPlan plan;
            plan.add(10.0, 0, FaultKind::Kill)
                .add(20.0, 1, FaultKind::Kill);
            validatePlan(plan, 2);
        },
        "no admitting node");
    EXPECT_DEATH(
        {
            FaultPlan plan;
            plan.add(10.0, 0, FaultKind::Rejoin);
            validatePlan(plan, 2);
        },
        "already up");
}

} // namespace
} // namespace modm::serving
