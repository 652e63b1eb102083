/**
 * @file
 * Configuration of a serving experiment: which system (MoDM or one of
 * the paper's baselines), which models, cluster shape, cache parameters,
 * and monitor mode.
 */

#ifndef MODM_SERVING_CONFIG_HH
#define MODM_SERVING_CONFIG_HH

#include <cstdint>
#include <vector>

#include "src/cache/image_cache.hh"
#include "src/diffusion/model_spec.hh"
#include "src/diffusion/sampler.hh"
#include "src/embedding/encoder.hh"
#include "src/embedding/vector_index.hh"
#include "src/obs/trace.hh"
#include "src/serving/fault.hh"
#include "src/serving/k_decision.hh"
#include "src/serving/knobs.hh"
#include "src/serving/monitor.hh"
#include "src/serving/pid.hh"
#include "src/serving/router.hh"

namespace modm::serving {

/** Which serving policy to run (MoDM or a baseline from §6). */
enum class SystemKind
{
    MoDM,             ///< this paper
    Vanilla,          ///< large model only, no cache
    Nirvana,          ///< text-keyed cache + k-skip on the large model
    Pinecone,         ///< retrieve-or-generate, no refinement
    StandaloneSmall,  ///< small/distilled model only, no cache
};

/** Printable system name. */
const char *systemKindName(SystemKind kind);

/** What gets admitted to MoDM's image cache (Fig. 9 ablation). */
enum class AdmissionPolicy
{
    CacheAll,        ///< cache images from both models (default)
    CacheLargeOnly,  ///< cache only large-model (cache-miss) images
};

/** How a multi-node deployment divides the cache budget. */
enum class CachePartitioning
{
    /**
     * Split the configured capacity across nodes (shardCapacity), so
     * the cluster-wide entry budget stays constant as nodes scale —
     * the regime where routing policy decides hit rate.
     */
    Sharded,
    /**
     * k-replica write-through on the same cluster-wide budget: shards
     * split exactly like Sharded, but every generated entry is
     * admitted to the first `replicationFactor` alive nodes clockwise
     * of its topic on the consistent-hash ring (the ring the affinity
     * routers use, so replica #1 lands where affinity routing sends
     * the topic). Trades unique cache capacity for redundancy: after
     * a node kill, the ring heals onto exactly the nodes that hold
     * the dead shard's replicas, so affinity misses keep hitting.
     */
    Replicated,
};

/** Printable partitioning name. */
const char *cachePartitioningName(CachePartitioning partitioning);

/**
 * Cluster shape of a multi-node deployment: the serving front-end
 * spreads requests over `numNodes` ServingNodes (each its own
 * scheduler, cache shard, monitor, and worker-pool slice) per the
 * routing policy. The default single node reproduces the original
 * monolithic system byte-for-byte.
 */
struct ClusterTopology
{
    /** Serving nodes; workers are split evenly across them. */
    std::size_t numNodes = 1;
    /** How arriving requests pick a node. */
    RoutingPolicy routing = RoutingPolicy::RoundRobin;
    /** How the cache budget divides across nodes. */
    CachePartitioning cachePartitioning = CachePartitioning::Sharded;
    /**
     * Replica count k under Replicated partitioning: each generated
     * entry is admitted to the k alive ring successors of its topic
     * (clamped to the alive node count). Ignored under Sharded.
     */
    std::size_t replicationFactor = 2;
    /**
     * Spill threshold c of BoundedLoadConsistentHash routing: the
     * ring owner is bypassed when its outstanding count exceeds
     * c x the alive-node mean. Ignored by other policies.
     */
    double boundedLoadFactor = 1.25;
};

/** Full experiment configuration. */
struct ServingConfig
{
    SystemKind kind = SystemKind::MoDM;

    /** The high-quality model (SD3.5L or FLUX in the paper). */
    diffusion::ModelSpec largeModel = diffusion::sd35Large();
    /**
     * Small-model candidates in decreasing quality order. MoDM's
     * monitor picks the best one that meets load (Fig. 10's
     * SDXL -> SANA escalation). Baselines use the first entry.
     */
    std::vector<diffusion::ModelSpec> smallModels = {diffusion::sdxl()};

    /** Cluster shape. */
    std::size_t numWorkers = 4;
    diffusion::GpuKind gpu = diffusion::GpuKind::A40;

    /**
     * Multi-node topology: node count, request routing, and cache
     * partitioning. numWorkers is the cluster-wide total, split across
     * nodes; the default single node preserves the original monolithic
     * behaviour exactly.
     */
    ClusterTopology cluster = {};

    /**
     * Scripted node faults (kill / drain / rejoin) on the virtual
     * clock. The default empty plan is a strict no-op: no fault code
     * runs and results are byte-identical to a build without the
     * subsystem.
     */
    FaultPlan faults = {};

    /**
     * Scripted mid-run reconfigurations (monitor mode, cache
     * capacity, replication factor) on the virtual clock. Like the
     * fault plan, the default empty plan is a strict no-op.
     */
    KnobPlan knobs = {};

    /**
     * The image cache every cached system runs. MoDM keys it by image
     * embedding, under cachePolicy and admission; Nirvana and Pinecone
     * key it by the producing prompt's text embedding, admit misses
     * only and evict their least-hit entries. cacheCapacity bounds
     * MoDM's and Pinecone's cache.
     */
    std::size_t cacheCapacity = 10000;
    cache::EvictionPolicy cachePolicy = cache::EvictionPolicy::FIFO;
    AdmissionPolicy admission = AdmissionPolicy::CacheAll;

    /**
     * Retrieval settings of every cache this system builds (MoDM's
     * image cache, Nirvana/Pinecone's text-keyed cache): empty, since
     * every cache runs the exact flat scan. makeVectorIndex builds a
     * matching index from it.
     */
    embedding::RetrievalBackendConfig retrieval = {};

    /** Capacity of Nirvana's cache. */
    std::size_t latentCacheCapacity = 10000;

    /** Monitor. */
    MonitorMode mode = MonitorMode::ThroughputOptimized;
    PidGains pid = {};

    /**
     * MoDM's cache-hit thresholds and k table (Fig. 5b). Nirvana and
     * Pinecone apply their own text-to-text tables (scheduler.hh).
     */
    KDecisionConfig kDecision = {};

    /** Synthetic CLIP image tower (the text tower is fixed). */
    embedding::ImageEncoderConfig imageEncoder = {};

    /** Diffusion response model. */
    diffusion::SamplerConfig sampler = {};
    diffusion::ScheduleConfig schedule = {};

    /** Keep (prompt, image) outputs for quality evaluation. */
    bool keepOutputs = false;

    /**
     * Observability: the event trace (see obs/trace.hh), recorded into
     * ServingResult::traceLog. The default — off — is a strict no-op:
     * no tap is installed, and every digest and golden is
     * byte-identical to a build without the subsystem.
     */
    obs::TraceConfig trace = {};

    /** Experiment seed. */
    std::uint64_t seed = 42;
};

} // namespace modm::serving

#endif // MODM_SERVING_CONFIG_HH
