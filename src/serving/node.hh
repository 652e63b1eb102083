/**
 * @file
 * One serving node: the scheduler + caches + monitor + worker pool that
 * used to be the whole monolithic ServingSystem, extracted so a
 * front-end can run N of them against one shared discrete-event clock.
 *
 * A node owns everything request processing needs — classification
 * queues, a cache shard, a GPU worker pool, and (for MoDM) a per-node
 * global monitor reallocating that node's workers — and shares nothing
 * with its siblings except the event queue, the run-completion ledger,
 * and the result sink it records completions into. Routing decides
 * which node sees a request; after that the node's behaviour is
 * byte-identical to the original single-system code path, which is how
 * a one-node cluster reproduces every published figure exactly.
 *
 * Fault lifecycle (driven by the front-end per ServingConfig::faults):
 * kill() aborts in-flight generations, surrenders the backlog for
 * re-routing, and loses the cache shard; drain() stops new admissions
 * while the backlog completes; rejoin() puts the node back in service
 * (cold caches and a reset monitor after a kill). With no fault plan,
 * none of these paths execute and behaviour is unchanged.
 */

#ifndef MODM_SERVING_NODE_HH
#define MODM_SERVING_NODE_HH

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/common/bounded_queue.hh"
#include "src/diffusion/sampler.hh"
#include "src/obs/trace.hh"
#include "src/serving/config.hh"
#include "src/serving/metrics.hh"
#include "src/serving/monitor.hh"
#include "src/serving/scheduler.hh"
#include "src/sim/cluster.hh"
#include "src/sim/event_queue.hh"
#include "src/workload/trace.hh"

namespace modm::serving {

struct ServingResult;

/** Allocation decision at a point in time (for Fig. 10-style plots). */
struct AllocationSnapshot
{
    double time = 0.0;
    int numLarge = 0;
    std::size_t smallModelIndex = 0;
    /** Node whose monitor produced the snapshot (0 for one node). */
    std::size_t node = 0;
};

/** Node-local aggregates reported into ServingResult::nodes. */
struct NodeStats
{
    std::size_t node = 0;
    /** Workers this node's pool holds. */
    std::size_t numWorkers = 0;
    /** Requests the router delivered to this node. */
    std::uint64_t assigned = 0;
    /** Requests this node completed. */
    std::uint64_t completed = 0;
    /** Scheduler cache hits / misses. */
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    /** Node-local hit rate (0 when nothing classified). */
    double hitRate = 0.0;
    /** Node cache shard occupancy. */
    std::size_t cacheSize = 0;
    double cacheBytes = 0.0;
    /** Bytes the shard's retrieval index holds. */
    std::size_t retrievalMemoryBytes = 0;
    /** Node pool energy over the run. */
    double energyJ = 0.0;
    std::uint64_t modelSwitches = 0;
};

/** Cross-node run ledger shared by every node of one experiment. */
struct ClusterRunState
{
    std::size_t total = 0;
    std::size_t completed = 0;
};

/**
 * Where a node sends finished generations for cache admission. Under
 * Replicated partitioning the front-end installs itself as the sink
 * and fans each admission out to the k ring replicas; with no sink the
 * node admits into its own shard (the Sharded / single-node path).
 */
class ReplicaSink
{
  public:
    virtual ~ReplicaSink() = default;

    /**
     * Admit a generation produced on `origin` to its replica set under
     * `key`, the origin scheduler's admissionKey: computed once per
     * generation, whatever the replica count. A null key (the policy
     * turned the generation away) still reaches every owner, which
     * counts the replica admission and caches nothing.
     */
    virtual void admitReplicated(std::size_t origin,
                                 const diffusion::Image &image,
                                 const embedding::Embedding *key,
                                 std::uint32_t topic_id, double now)
        = 0;
};

/**
 * One serving node. Constructed by ServingSystem with a node-local
 * config (worker slice, cache shard capacity, per-node seed) derived
 * from the experiment config.
 */
class ServingNode
{
  public:
    /**
     * @param node_config Node-local configuration: numWorkers is this
     *        node's worker slice and cacheCapacity its shard budget.
     * @param node_id Node index within the cluster.
     * @param events The cluster-shared virtual clock.
     * @param run Cross-node completion ledger (monitor ticks stop when
     *        the whole cluster finishes).
     * @param result Shared sink for request records and outputs.
     */
    ServingNode(const ServingConfig &node_config, std::size_t node_id,
                sim::EventQueue &events, ClusterRunState &run,
                ServingResult &result);

    /** Pre-size this node's cache for `count` warm admissions. */
    void reserveWarm(std::size_t count);

    /** Admit one warm-up prompt (full large-model generation at t=0). */
    void warm(const workload::Prompt &prompt);

    /**
     * Deliver a routed request at its arrival event. The node keeps a
     * pointer to it until it completes or kill() hands it back, so the
     * request must outlive the run (ServingSystem passes trace entries).
     */
    void onArrival(const workload::Request &request);

    /** Schedule this node's first monitor tick (call once per run). */
    void scheduleMonitorTick();

    /**
     * Route generated content through the replica sink instead of the
     * local shard (Replicated partitioning). Must be set before any
     * warm-up or traffic.
     */
    void setReplicaSink(ReplicaSink *sink) { replicas_ = sink; }

    /**
     * Install the event tracer this node emits sub-events on. Called
     * by ServingSystem at construction when tracing is on; left null —
     * the default — every tracing branch is dead and the node behaves
     * byte-identically to a build without the subsystem.
     */
    void setTracer(obs::Tracer *tracer) { tracer_ = tracer; }

    /**
     * Cache a generation in this node's own shard under `key` (nothing
     * when null), bypassing the sink — the front-end calls this on each
     * replica target. Counts a replica admission when `origin` is
     * another node.
     */
    void admitLocal(std::size_t origin, const diffusion::Image &image,
                    const embedding::Embedding *key, double now);

    /**
     * Kill the node at time `now`: cancel in-flight completions and
     * roll back their workers, drop the cache shard, and return every
     * request this node still owed (queued, unclassified, and
     * in-flight), in arrival order, for the front-end to re-route. The
     * pointers are the ones onArrival() received.
     */
    std::vector<const workload::Request *> kill(double now);

    /**
     * Drain: stop admitting (the front-end has already removed the
     * node from routing) but keep serving the assigned backlog.
     */
    void drain(double now);

    /** Return to service after a kill (cold) or drain (warm). */
    void rejoin(double now);

    /**
     * Scripted knob change: flip this node's monitor mode. The next
     * monitor tick re-targets under the new mode.
     */
    void setMonitorMode(MonitorMode mode);

    /**
     * Scripted knob change: re-bound this node's cache shard (image
     * and latent alike) to `capacity` entries, evicting down when
     * shrinking.
     */
    void setCacheShardCapacity(std::size_t capacity);

    /** False from kill() until rejoin(). */
    bool alive() const { return alive_; }

    /** True while draining (alive but not admitting). */
    bool draining() const { return draining_; }

    /** Arrived-but-uncompleted requests (the routing load signal). */
    std::size_t outstanding() const
    {
        return static_cast<std::size_t>(assigned_ - completed_ -
                                        reroutedOut_);
    }

    /** Requests routed to this node so far. */
    std::uint64_t assigned() const { return assigned_; }

    /** Requests surrendered to re-routing by kills. */
    std::uint64_t reroutedOut() const { return reroutedOut_; }

    /** In-flight generations aborted by kills. */
    std::uint64_t abortedJobs() const { return abortedJobs_; }

    /** Replica admissions received for other nodes' generations. */
    std::uint64_t replicaAdmits() const { return replicaAdmits_; }

    /** Seconds dead over the run (open interval closed at `until`). */
    double downtimeS(double until) const;

    /** Seconds draining over the run (closed at `until`). */
    double drainedS(double until) const;

    /** Down intervals, the open one (if any) closed at `until`. */
    std::vector<std::pair<double, double>>
    downIntervals(double until) const;

    /** Node index. */
    std::size_t id() const { return id_; }

    /** Node-local configuration. */
    const ServingConfig &config() const { return config_; }

    /** The node's scheduler (exposed for tests and diagnostics). */
    const RequestScheduler &scheduler() const { return *scheduler_; }

    /** The node's worker pool. */
    const sim::Cluster &cluster() const { return cluster_; }

    /** Monitor allocation snapshots, one per monitor update. */
    const std::vector<AllocationSnapshot> &allocations() const
    {
        return allocations_;
    }

    /** Node-local aggregates over a finished run. */
    NodeStats stats(double duration) const;

  private:
    /** One dispatched generation awaiting its completion event. */
    struct InFlightJob
    {
        sim::EventQueue::EventId event = 0;
        std::size_t worker = 0;
        ClassifiedJob job;
        double dispatchTime = 0.0;
        bool useLarge = false;
        std::size_t smallIndex = 0;
    };

    /** Move arrivals into classified queues while within lookahead. */
    void processIntake();
    /** Dispatch queued jobs to idle workers per current allocation. */
    void tryDispatch();
    /** Worker role under the current allocation. */
    bool isLargeRole(std::size_t worker_index) const;
    /** Handle a finished generation. */
    void onJobComplete(std::uint64_t job_id);
    /**
     * Complete a direct (no-GPU) cache return; the job's base image is
     * the served output and may be moved out.
     */
    void completeDirect(ClassifiedJob &job);
    /** Monitor tick. */
    void onMonitorTick();
    /**
     * Record metrics for a served request and, with keepOutputs, its
     * prompt (by reference into the trace) and `image` (moved in).
     */
    void finishRequest(const ClassifiedJob &job, double start,
                       double finish, ServeKind kind,
                       const std::string &served_by,
                       diffusion::Image &&image);
    /** Record an app-level trace emit (no-op when tracing is off). */
    void trace(double clock, obs::EventKind kind,
               std::uint64_t request) const;
    /** Admit via the replica sink when set, locally otherwise. */
    void admitGenerated(const diffusion::Image &image,
                        const embedding::Embedding &text_embedding,
                        bool from_miss, std::uint32_t topic_id,
                        double now);

    ServingConfig config_;
    std::size_t id_;
    sim::EventQueue &events_;
    ClusterRunState &run_;
    ServingResult &result_;

    diffusion::Sampler sampler_;
    std::unique_ptr<RequestScheduler> scheduler_;
    std::unique_ptr<GlobalMonitor> monitor_;
    sim::Cluster cluster_;

    // Arrived, unclassified requests, by address: each points at the
    // caller's request (a trace entry), which outlives the run.
    std::deque<const workload::Request *> intake_;
    // Classified jobs, each queue bounded by the lookahead limit
    // processIntake enforces on the two together.
    BoundedQueue<ClassifiedJob> largeQueue_; // needs the large model
    BoundedQueue<ClassifiedJob> smallQueue_; // refinements for small

    /** Dispatched jobs by node-local job id (insertion-ordered). */
    std::map<std::uint64_t, InFlightJob> inFlight_;
    std::uint64_t nextJobId_ = 0;

    Allocation allocation_;
    std::uint64_t assigned_ = 0;
    std::uint64_t completed_ = 0;

    // Fault state. downSince_ < 0 and drainSince_ < 0 mean "not".
    bool alive_ = true;
    bool draining_ = false;
    double downSince_ = -1.0;
    double drainSince_ = -1.0;
    double downtimeS_ = 0.0;
    double drainedS_ = 0.0;
    std::uint64_t reroutedOut_ = 0;
    std::uint64_t abortedJobs_ = 0;
    std::uint64_t replicaAdmits_ = 0;
    std::vector<std::pair<double, double>> downIntervals_;
    ReplicaSink *replicas_ = nullptr;

    // Event tracer (null = off; see setTracer).
    obs::Tracer *tracer_ = nullptr;

    // Monitor tick bookkeeping (cancelled while the node is down).
    sim::EventQueue::EventId monitorTick_ = 0;
    bool monitorTickPending_ = false;

    // Per-monitor-period counters.
    std::uint64_t periodArrivals_ = 0;
    std::uint64_t periodHits_ = 0;
    std::uint64_t periodMisses_ = 0;
    /** Hits per granted k (index k), zeroed in place every period. */
    std::vector<std::uint64_t> periodKCounts_;
    /** The monitor's inputs, rebuilt in place each measured period. */
    MonitorInputs lastInputs_;
    bool haveInputs_ = false;

    std::vector<AllocationSnapshot> allocations_;
};

} // namespace modm::serving

#endif // MODM_SERVING_NODE_HH
