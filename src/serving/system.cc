#include "src/serving/system.hh"

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "src/cache/shard.hh"
#include "src/common/hash.hh"
#include "src/common/log.hh"
#include "src/common/rng.hh"
#include "src/common/scan_crew.hh"

namespace modm::serving {

std::string
resultDigest(const ServingResult &result)
{
    std::string out;
    out.reserve(result.metrics.count() * 96 + 512);
    char buf[256];
    const auto emit = [&out, &buf](const char *fmt, auto... args) {
        std::snprintf(buf, sizeof(buf), fmt, args...);
        out += buf;
    };
    const bool multinode = result.numNodes > 1;

    emit("n=%zu dur=%a tput=%a hit=%a energy=%a switches=%llu "
         "cacheSize=%zu cacheBytes=%a recall=%a recallChecked=0\n",
         result.metrics.count(), result.duration,
         result.throughputPerMin, result.hitRate, result.energyJ,
         static_cast<unsigned long long>(result.modelSwitches),
         result.cacheSize, result.cacheBytes, result.retrievalRecallAt1);
    for (const auto &r : result.metrics.records()) {
        emit("r %llu %a %a %a %d %d %a %d %s\n",
             static_cast<unsigned long long>(r.promptId), r.arrival,
             r.start, r.finish, r.cacheHit ? 1 : 0, r.k, r.similarity,
             static_cast<int>(r.kind), r.servedBy.c_str());
    }
    for (const auto &a : result.allocations) {
        // Single-node digests keep the frozen pre-cluster line format.
        if (multinode)
            emit("a %a %d %zu @%zu\n", a.time, a.numLarge,
                 a.smallModelIndex, a.node);
        else
            emit("a %a %d %zu\n", a.time, a.numLarge,
                 a.smallModelIndex);
    }
    for (const double age : result.hitAges)
        emit("h %a\n", age);
    if (multinode) {
        for (const auto &n : result.nodes) {
            emit("N %zu workers=%zu assigned=%llu completed=%llu "
                 "hits=%llu misses=%llu hit=%a cacheSize=%zu "
                 "cacheBytes=%a energy=%a switches=%llu\n",
                 n.node, n.numWorkers,
                 static_cast<unsigned long long>(n.assigned),
                 static_cast<unsigned long long>(n.completed),
                 static_cast<unsigned long long>(n.hits),
                 static_cast<unsigned long long>(n.misses), n.hitRate,
                 n.cacheSize, n.cacheBytes, n.energyJ,
                 static_cast<unsigned long long>(n.modelSwitches));
        }
        emit("nodes=%zu imbalance=%a spread=%a\n", result.numNodes,
             result.loadImbalance, result.hitRateSpread);
    }
    // Output images fold to a checksum of their content bit patterns.
    std::uint64_t imageHash = kFnvBasis;
    for (const auto &img : result.images) {
        imageHash = mix64(imageHash ^ img.id);
        std::uint64_t fidelityBits = 0;
        std::memcpy(&fidelityBits, &img.fidelity, sizeof(fidelityBits));
        imageHash = mix64(imageHash ^ fidelityBits);
        for (const float f : img.content) {
            std::uint32_t bits = 0;
            std::memcpy(&bits, &f, sizeof(bits));
            imageHash = mix64(imageHash ^ bits);
        }
    }
    emit("outputs=%zu imageHash=%llx\n", result.images.size(),
         static_cast<unsigned long long>(imageHash));
    // Failover telemetry appears only for runs with a fault plan, so
    // every digest produced without one keeps its frozen format.
    if (result.failover.active) {
        const auto &fo = result.failover;
        emit("F rerouted=%llu kill=%a pre=%a tput=%a rec=%a cap=%a\n",
             static_cast<unsigned long long>(fo.rerouted),
             fo.firstKillTime, fo.preFaultHitRate,
             fo.preFaultThroughputPerMin, fo.hitRateRecoveryS,
             fo.lostCapacityS);
        for (const auto &n : fo.nodes) {
            emit("D %zu rerouted=%llu aborted=%llu replicas=%llu "
                 "down=%a drained=%a\n",
                 n.node, static_cast<unsigned long long>(n.reroutedOut),
                 static_cast<unsigned long long>(n.abortedJobs),
                 static_cast<unsigned long long>(n.replicaAdmits),
                 n.downtimeS, n.drainedS);
            for (const auto &[from, to] : n.downIntervals)
                emit("d %zu %a %a\n", n.node, from, to);
        }
    }
    return out;
}

ServingConfig
ServingSystem::nodeConfig(std::size_t node) const
{
    const std::size_t nodes = config_.cluster.numNodes;
    ServingConfig nc = config_;
    nc.numWorkers = cache::shardCapacity(config_.numWorkers, nodes, node);
    // Both partitionings shard the physical budget; Replicated spends
    // it on k copies per entry (same bytes, fewer unique entries)
    // instead of k=1 with pure affinity placement.
    nc.cacheCapacity =
        cache::shardCapacity(config_.cacheCapacity, nodes, node);
    nc.latentCacheCapacity = cache::shardCapacity(
        config_.latentCacheCapacity, nodes, node);
    // Node 0 keeps the experiment seed so a one-node cluster is
    // byte-identical to the pre-cluster monolith; siblings get
    // decorrelated streams derived from it.
    if (node > 0)
        nc.seed = mix64(config_.seed ^ (0x6e0d5a17ULL + node));
    return nc;
}

ServingSystem::ServingSystem(ServingConfig config)
    : config_(std::move(config)),
      router_(makeRouter(config_.cluster.routing,
                         config_.cluster.numNodes,
                         config_.seed ^ kRingSeedSalt,
                         config_.cluster.boundedLoadFactor))
{
    MODM_ASSERT(config_.cluster.numNodes > 0,
                "cluster needs at least one node");
    validatePlan(config_.faults, config_.cluster.numNodes);
    validateKnobPlan(config_.knobs, config_);
    nodes_.reserve(config_.cluster.numNodes);
    for (std::size_t n = 0; n < config_.cluster.numNodes; ++n) {
        nodes_.push_back(std::make_unique<ServingNode>(
            nodeConfig(n), n, events_, run_, result_));
    }
    // Observability: with tracing off (the default) no tap is
    // installed and every tracing branch below and in the nodes is
    // dead.
    if (config_.trace.events) {
        tracer_ = std::make_unique<obs::Tracer>();
        events_.setTap(tracer_.get());
        for (auto &node : nodes_)
            node->setTracer(tracer_.get());
    }
    // Replica write-through needs a placement ring that matches the
    // affinity routers' (same kRingSeedSalt-derived seed), so a
    // topic's primary replica is exactly where consistent-hash
    // routing sends its queries. A single node replicates onto
    // itself, which is plain admission — skip the sink so the
    // monolithic path stays untouched.
    if (config_.cluster.cachePartitioning ==
            CachePartitioning::Replicated &&
        config_.cluster.numNodes > 1) {
        MODM_ASSERT(config_.cluster.replicationFactor >= 1,
                    "replication factor must be >= 1");
        replicaRing_ = std::make_unique<HashRing>(
            config_.cluster.numNodes, config_.seed ^ kRingSeedSalt);
        for (auto &node : nodes_)
            node->setReplicaSink(this);
    }
}

void
ServingSystem::admitReplicated(std::size_t origin,
                               const diffusion::Image &image,
                               const embedding::Embedding *key,
                               std::uint32_t topic_id, double now)
{
    // The first k distinct alive owners clockwise of the topic. After
    // a kill the ring heals so the dead primary's topics route to
    // their old second replica — which is exactly who holds the data.
    replicaRing_->owners(replicaRing_->topicKey(topic_id),
                         config_.cluster.replicationFactor,
                         router_->aliveMask(), owners_);
    for (const std::size_t target : owners_)
        nodes_[target]->admitLocal(origin, image, key, now);
}

void
ServingSystem::warmCache(const std::vector<workload::Prompt> &prompts)
{
    MODM_ASSERT(!ran_, "warmCache must precede run()");
    // Route everything first so each node reserves its exact share,
    // then admit node by node (node-major keeps the one-node case in
    // the original admission order). Under replication a generation
    // fans out to its k ring owners, so reservations count admission
    // targets rather than generation sites.
    std::vector<std::vector<const workload::Prompt *>> perNode(
        nodes_.size());
    std::vector<std::size_t> admissions(nodes_.size(), 0);
    for (const auto &prompt : prompts) {
        perNode[router_->routeWarm(prompt)].push_back(&prompt);
        if (replicaRing_) {
            replicaRing_->owners(replicaRing_->topicKey(prompt.topicId),
                                 config_.cluster.replicationFactor, {},
                                 owners_);
            for (const std::size_t target : owners_)
                ++admissions[target];
        }
    }
    for (std::size_t n = 0; n < nodes_.size(); ++n) {
        nodes_[n]->reserveWarm(replicaRing_ ? admissions[n]
                                            : perNode[n].size());
        for (const workload::Prompt *prompt : perNode[n]) {
            if (tracer_ != nullptr)
                tracer_->emit(0.0, obs::EventKind::Warm,
                              static_cast<std::uint32_t>(n),
                              prompt->id);
            nodes_[n]->warm(*prompt);
        }
    }
}

const std::vector<std::size_t> &
ServingSystem::outstandingSnapshot()
{
    outstanding_.resize(nodes_.size());
    for (std::size_t n = 0; n < nodes_.size(); ++n)
        outstanding_[n] = nodes_[n]->outstanding();
    return outstanding_;
}

void
ServingSystem::deliver(const workload::Request &request)
{
    // Snapshot node state only for policies that read it; the
    // stateless ones keep the arrival path allocation-free.
    const std::size_t n = router_->needsOutstanding()
        ? router_->route(request.prompt, outstandingSnapshot())
        : router_->route(request.prompt, {});
    if (tracer_ != nullptr)
        tracer_->emit(events_.now(), obs::EventKind::Route,
                      static_cast<std::uint32_t>(n),
                      request.prompt.id);
    nodes_[n]->onArrival(request);
}

void
ServingSystem::scheduleArrival(std::size_t i)
{
    const workload::Request &request = (*trace_)[i];
    events_.scheduleReserved(firstArrival_ + i, request.arrival,
                             obs::eventMeta(obs::EventKind::Arrival,
                                            sim::kNoNode,
                                            request.prompt.id),
                             [this, i]() { onArrival(i); });
}

void
ServingSystem::onArrival(std::size_t i)
{
    // Stream the next arrival in before delivering this one. Its
    // reserved sequence number sorts it exactly where up-front
    // scheduling did, so the heap holds one pending arrival at a time.
    if (i + 1 < trace_->size())
        scheduleArrival(i + 1);
    deliver((*trace_)[i]);
}

void
ServingSystem::onFault(const FaultEvent &event)
{
    const double now = events_.now();
    MODM_LOG_DEBUG(now, "fault: %s node %zu",
                   faultKindName(event.kind), event.node);
    switch (event.kind) {
      case FaultKind::Kill: {
        // Remove from routing first: the surrendered backlog must not
        // route straight back onto the corpse.
        router_->setNodeAlive(event.node, false);
        const auto owed = nodes_[event.node]->kill(now);
        MODM_LOG_DEBUG(now,
                       "node %zu surrendered %zu requests for "
                       "re-routing",
                       event.node, owed.size());
        for (const workload::Request *request : owed) {
            if (tracer_ != nullptr)
                tracer_->emit(now, obs::EventKind::Reroute,
                              static_cast<std::uint32_t>(event.node),
                              request->prompt.id);
            deliver(*request);
        }
        break;
      }
      case FaultKind::Drain:
        router_->setNodeAlive(event.node, false);
        nodes_[event.node]->drain(now);
        break;
      case FaultKind::Rejoin:
        nodes_[event.node]->rejoin(now);
        router_->setNodeAlive(event.node, true);
        break;
    }
}

void
ServingSystem::onKnob(const KnobEvent &event)
{
    MODM_LOG_DEBUG(events_.now(), "knob: %s = %zu",
                   knobTargetName(event.target), event.value);
    switch (event.target) {
      case KnobTarget::MonitorMode:
        for (auto &node : nodes_)
            node->setMonitorMode(event.mode);
        break;
      case KnobTarget::CacheCapacity:
        // Re-shard the cluster-wide budget with the same split as
        // construction; each shard evicts down under its own policy.
        for (std::size_t n = 0; n < nodes_.size(); ++n)
            nodes_[n]->setCacheShardCapacity(
                cache::shardCapacity(event.value, nodes_.size(), n));
        break;
      case KnobTarget::ReplicationFactor:
        // Read on every subsequent replicated admission; a single
        // node has no ring and the change is a no-op there.
        config_.cluster.replicationFactor = event.value;
        break;
    }
}

ServingResult
ServingSystem::run(const workload::Trace &trace)
{
    MODM_ASSERT(!ran_, "ServingSystem::run is single-shot");
    ran_ = true;
    MODM_ASSERT(!trace.empty(), "cannot run an empty trace");
    MODM_ASSERT(std::is_sorted(trace.begin(), trace.end(),
                               [](const auto &a, const auto &b) {
                                   return a.arrival < b.arrival;
                               }),
                "trace arrivals must be non-decreasing");

    run_.total = trace.size();
    result_.metrics.reserve(run_.total);
    if (config_.keepOutputs) {
        result_.prompts.reserve(run_.total);
        result_.images.reserve(run_.total);
    }

    // Fault events first: a kill scheduled at time t outranks every
    // same-instant arrival and monitor tick (FIFO tie-break), so the
    // node is gone before anything else observes that instant. The
    // handlers capture the plan's entries by address (config_ outlives
    // the run), which keeps them small enough not to allocate.
    for (const auto &event : config_.faults.events) {
        events_.schedule(event.time,
                         obs::eventMeta(obs::EventKind::Fault,
                                        event.node),
                         [this, &event]() { onFault(event); });
    }
    // Knob changes after same-instant faults but before arrivals, so a
    // reconfiguration at time t governs every request arriving at t.
    for (const auto &event : config_.knobs.events) {
        events_.schedule(event.time,
                         obs::eventMeta(obs::EventKind::Knob),
                         [this, &event]() { onKnob(event); });
    }
    // Arrivals take the next trace.size() sequence numbers, exactly as
    // if all were scheduled here, but enter the queue one at a time:
    // each arrival schedules its successor (onArrival).
    trace_ = &trace;
    firstArrival_ = events_.reserve(trace.size());
    scheduleArrival(0);
    for (auto &node : nodes_)
        node->scheduleMonitorTick();

    {
        // Retrievals over large caches split across spare CPUs
        // (scan_crew.hh); the helpers are joined when the loop ends.
        const ScanScope scans;
        events_.runAll();
    }
    trace_ = nullptr;
    MODM_ASSERT(run_.completed == run_.total,
                "simulation ended with %zu of %zu requests served",
                run_.completed, run_.total);

    result_.duration = result_.metrics.lastCompletion();
    result_.throughputPerMin = result_.metrics.throughputPerMinute();
    result_.hitRate = result_.metrics.hitRate();

    result_.energyJ = 0.0;
    result_.modelSwitches = 0;
    result_.cacheSize = 0;
    result_.cacheBytes = 0.0;
    result_.retrievalMemoryBytes = 0;
    result_.numNodes = nodes_.size();
    result_.nodes.clear();
    result_.nodes.reserve(nodes_.size());
    for (const auto &node : nodes_) {
        for (const double age : node->scheduler().hitAges())
            result_.hitAges.push_back(age);
        NodeStats ns = node->stats(result_.duration);
        result_.energyJ += ns.energyJ;
        result_.modelSwitches += ns.modelSwitches;
        result_.cacheSize += ns.cacheSize;
        result_.cacheBytes += ns.cacheBytes;
        result_.retrievalMemoryBytes += ns.retrievalMemoryBytes;
        result_.nodes.push_back(ns);
    }

    // Time-ordered allocation history across nodes: concatenate
    // node-major (each node's snapshots are already chronological),
    // then stable-sort by time so simultaneous ticks order by node.
    result_.allocations.clear();
    for (const auto &node : nodes_) {
        for (const auto &snap : node->allocations())
            result_.allocations.push_back(snap);
    }
    std::stable_sort(result_.allocations.begin(),
                     result_.allocations.end(),
                     [](const AllocationSnapshot &a,
                        const AllocationSnapshot &b) {
                         return a.time < b.time;
                     });

    // Cross-node balance metrics.
    std::uint64_t maxCompleted = 0;
    double minHit = 1.0;
    double maxHit = 0.0;
    for (const auto &ns : result_.nodes) {
        maxCompleted = std::max(maxCompleted, ns.completed);
        minHit = std::min(minHit, ns.hitRate);
        maxHit = std::max(maxHit, ns.hitRate);
    }
    const double meanCompleted = static_cast<double>(run_.completed) /
        static_cast<double>(nodes_.size());
    result_.loadImbalance = meanCompleted > 0.0
        ? static_cast<double>(maxCompleted) / meanCompleted
        : 1.0;
    result_.hitRateSpread = nodes_.size() > 1 ? maxHit - minHit : 0.0;

    // Failover telemetry only for runs that scripted faults; the
    // default-constructed report keeps no-fault results untouched.
    if (!config_.faults.empty()) {
        result_.failover =
            analyzeFailover(result_.metrics, config_.faults);
        result_.failover.nodes.reserve(nodes_.size());
        for (const auto &node : nodes_) {
            NodeFailoverStats nf;
            nf.node = node->id();
            nf.reroutedOut = node->reroutedOut();
            nf.abortedJobs = node->abortedJobs();
            nf.replicaAdmits = node->replicaAdmits();
            nf.downtimeS = node->downtimeS(result_.duration);
            nf.drainedS = node->drainedS(result_.duration);
            nf.downIntervals = node->downIntervals(result_.duration);
            result_.failover.rerouted += nf.reroutedOut;
            result_.failover.nodes.push_back(std::move(nf));
        }
    }

    // Export the event log, which resultDigest excludes, so traced
    // runs digest identically to untraced ones.
    if (tracer_ != nullptr) {
        if (!config_.trace.path.empty()) {
            obs::saveTrace(tracer_->log(), config_.trace.path);
            MODM_LOG_INFO(-1.0, "wrote %llu-event trace to %s",
                          static_cast<unsigned long long>(
                              tracer_->log().size()),
                          config_.trace.path.c_str());
        }
        result_.traceLog = tracer_->sharedLog();
        events_.setTap(nullptr);
    }

    return std::move(result_);
}

ServingResult
ServingSystem::run(std::shared_ptr<const workload::Trace> trace)
{
    MODM_ASSERT(trace != nullptr, "cannot run a null trace");
    ServingResult result = run(*trace);
    if (config_.keepOutputs)
        result.promptOwner = std::move(trace);
    return result;
}

} // namespace modm::serving
