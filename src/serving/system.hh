/**
 * @file
 * The serving front-end: one shared discrete-event clock, N serving
 * nodes (scheduler + cache shard + monitor + worker pool each, see
 * node.hh), and a pluggable request router deciding which node every
 * arrival lands on (paper Fig. 4, generalized to a cluster).
 *
 * One ServingSystem instance runs one experiment: optionally warm the
 * caches, then replay a request trace to completion and return every
 * metric the paper reports plus the cross-node aggregates (per-node
 * hit rates, load imbalance) that only exist at numNodes > 1. The same
 * class executes MoDM and all four baselines (selected by
 * ServingConfig::kind), so comparisons differ only in policy — and at
 * the default single node it reproduces the original monolithic system
 * byte-for-byte (pinned by resultDigest in the test suite).
 */

#ifndef MODM_SERVING_SYSTEM_HH
#define MODM_SERVING_SYSTEM_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/obs/trace.hh"
#include "src/serving/config.hh"
#include "src/serving/fault.hh"
#include "src/serving/metrics.hh"
#include "src/serving/node.hh"
#include "src/serving/router.hh"
#include "src/sim/event_queue.hh"
#include "src/workload/trace.hh"

namespace modm::serving {

/**
 * Warm prompts ServingSystem::warmCache generates and keys on its crew
 * before it admits them, in order, on the calling thread.
 */
inline constexpr std::size_t kWarmBatch = 1024;

/**
 * Warm prompts from which warmCache starts a crew; smaller warm-ups run
 * the same batches on the calling thread alone. Below two batches the
 * crew's start-up (threads, and each member's sampler and encoder
 * copies) eats most of what the split saves (docs/PERF.md, "Parallel
 * warm-up").
 */
inline constexpr std::size_t kSplitWarmPrompts = 2 * kWarmBatch;

/** Everything an experiment produces. */
struct ServingResult
{
    /** Per-request records and aggregates. */
    MetricsCollector metrics;
    /** Virtual time of the last completion. */
    double duration = 0.0;
    /** Completed requests per minute over the run. */
    double throughputPerMin = 0.0;
    /** Cache hit rate. */
    double hitRate = 0.0;
    /**
     * Retrieval recall@1 vs an exhaustive scan: always 1.0, since
     * every cache retrieves with the exact flat scan.
     */
    double retrievalRecallAt1 = 1.0;
    /**
     * Bytes the retrieval indexes held at run end, summed over node
     * shards.
     */
    std::size_t retrievalMemoryBytes = 0;
    /** Total cluster energy (compute + idle) in joules. */
    double energyJ = 0.0;
    /** Model switches across workers. */
    std::uint64_t modelSwitches = 0;
    /** Monitor decisions over time (all nodes, time-ordered). */
    std::vector<AllocationSnapshot> allocations;
    /** Cache-hit retrieval ages (Fig. 15); node-major order. */
    std::vector<double> hitAges;
    /** Final cache occupancy, summed over node shards. */
    std::size_t cacheSize = 0;
    /** Final cache bytes, summed over node shards. */
    double cacheBytes = 0.0;
    /**
     * Served prompts, parallel to images (kept when keepOutputs). Each
     * refers to its request in the trace given to ServingSystem::run,
     * which must outlive these references: the caller's trace for
     * run(const Trace &), promptOwner for run(shared_ptr).
     */
    workload::PromptRefs prompts;
    /** Output images (kept when keepOutputs). */
    std::vector<diffusion::Image> images;
    /**
     * The trace `prompts` refers to, when the result owns it: set by
     * run(std::shared_ptr<const Trace>) with keepOutputs on, which is
     * how runScenarioCell and bench::runSystem hand back the trace they
     * built. Null otherwise. Not the event log (traceLog).
     */
    std::shared_ptr<const workload::Trace> promptOwner;

    /** Nodes the experiment ran with. */
    std::size_t numNodes = 1;
    /** Per-node aggregates (size numNodes). */
    std::vector<NodeStats> nodes;
    /**
     * Completion imbalance: max over nodes of completed requests,
     * divided by the per-node mean (1.0 = perfectly balanced).
     */
    double loadImbalance = 1.0;
    /** Max minus min per-node hit rate (0 for one node). */
    double hitRateSpread = 0.0;

    /**
     * Failover telemetry: recovery times, rerouted-request ledger,
     * per-node up/down intervals. Default-initialized (active=false)
     * when the config carries no fault plan.
     */
    FailoverReport failover;

    /**
     * The recorded event log (null when tracing was off). Shared so
     * results stay copyable; the log is immutable once the run ends.
     * Excluded from resultDigest: a traced run must digest identically
     * to an untraced one.
     */
    std::shared_ptr<const obs::TraceLog> traceLog;
};

/**
 * Exact textual digest of a ServingResult: every per-request record,
 * aggregate, allocation snapshot, and output-image checksum rendered
 * with hex-float (%a) formatting so two results compare bit-identical
 * iff their digests are string-equal. This is what the serial-vs-
 * concurrent sweep property test (and the CI determinism diff) pin —
 * experiments must be reproducible from their config seed alone, no
 * matter which thread ran them. Single-node digests keep the exact
 * pre-cluster format (pinned against frozen hashes in the test suite);
 * multi-node results append per-node lines and tag allocation
 * snapshots with their node.
 */
std::string resultDigest(const ServingResult &result);

/**
 * The serving front-end. Under Replicated partitioning it doubles as
 * the nodes' ReplicaSink, fanning each finished generation out to the
 * k alive ring successors of its topic; it also executes the fault
 * plan — removing killed/draining nodes from routing, re-routing a
 * killed node's backlog, and restoring rejoining nodes.
 */
class ServingSystem : private ReplicaSink
{
  public:
    /** Build router and nodes (with per-node shards) from config. */
    explicit ServingSystem(ServingConfig config);

    /**
     * Pre-populate the node caches with full large-model generations
     * of the given prompts (the paper's warm-up phase), routed with
     * the same policy as live traffic so affinity-routed content lands
     * where later queries will look. Must be called before run().
     * Warm images carry createdAt = 0. Batches of kWarmBatch prompts are
     * generated and keyed, on a crew of spare CPUs (crew.hh) from
     * kSplitWarmPrompts prompts, and admitted on this thread in the
     * serial order, so every cache, counter and event is the same at
     * any helper count.
     */
    void warmCache(const std::vector<workload::Prompt> &prompts);

    /**
     * Replay a trace (arrivals must be non-decreasing) until every
     * request completes; single-shot per instance. With keepOutputs the
     * result's prompts refer into `trace`, so the caller keeps it alive
     * as long as the result's prompts are read.
     */
    ServingResult run(const workload::Trace &trace);

    /**
     * Replay a trace the result may own: as run(const Trace &), and
     * with keepOutputs the result holds `trace` as promptOwner, so its
     * prompts stay valid wherever the result goes.
     */
    ServingResult run(std::shared_ptr<const workload::Trace> trace);

    /** A temporary trace would leave kept prompts dangling. */
    ServingResult run(workload::Trace &&) = delete;

    /** Active configuration. */
    const ServingConfig &config() const { return config_; }

    /** Number of serving nodes. */
    std::size_t numNodes() const { return nodes_.size(); }

    /** Node access (exposed for tests and diagnostics). */
    const ServingNode &node(std::size_t i) const { return *nodes_[i]; }

    /** Node 0's scheduler (single-node tests and diagnostics). */
    const RequestScheduler &scheduler() const
    {
        return nodes_.front()->scheduler();
    }

    /** The request router. */
    const Router &router() const { return *router_; }

  private:
    /** Node-local config: worker slice, cache shard, per-node seed. */
    ServingConfig nodeConfig(std::size_t node) const;

    /** Current per-node outstanding counts for the router. */
    const std::vector<std::size_t> &outstandingSnapshot();

    /** Route one request to an admitting node and deliver it. */
    void deliver(const workload::Request &request);

    /** Schedule trace request `i` on its reserved sequence number. */
    void scheduleArrival(std::size_t i);

    /** Arrival event of trace request `i`. */
    void onArrival(std::size_t i);

    /** Execute one scripted fault event at its scheduled time. */
    void onFault(const FaultEvent &event);

    /** Execute one scripted knob change at its scheduled time. */
    void onKnob(const KnobEvent &event);

    /**
     * Admit warm generation `image` from node `origin` under `key` as
     * admitReplicated would (a null key only counts), moving the image
     * into its last or only owner.
     */
    void admitWarm(std::size_t origin, diffusion::Image &&image,
                   const embedding::Embedding *key, std::uint32_t topic_id);

    /** ReplicaSink: write-through to the k alive ring successors. */
    void admitReplicated(std::size_t origin,
                         const diffusion::Image &image,
                         const embedding::Embedding *key,
                         std::uint32_t topic_id, double now) override;

    ServingConfig config_;
    sim::EventQueue events_;
    /**
     * The trace being run (null outside run()). It outlives the run,
     * so arrivals, intake queues and classified jobs point into it
     * instead of copying requests.
     */
    const workload::Trace *trace_ = nullptr;
    /** Sequence number reserved for trace request 0; request i has
     *  firstArrival_ + i. */
    sim::EventQueue::EventId firstArrival_ = 0;
    ClusterRunState run_;
    ServingResult result_;
    /** Event recorder, installed as the queue tap (null = off). */
    std::unique_ptr<obs::Tracer> tracer_;
    std::unique_ptr<Router> router_;
    /** Replica placement ring (Replicated partitioning, > 1 node). */
    std::unique_ptr<HashRing> replicaRing_;
    /** Reused buffers: a replica set, and outstandingSnapshot's counts. */
    std::vector<std::size_t> owners_;
    std::vector<std::size_t> outstanding_;
    std::vector<std::unique_ptr<ServingNode>> nodes_;
    bool ran_ = false;
};

} // namespace modm::serving

#endif // MODM_SERVING_SYSTEM_HH
