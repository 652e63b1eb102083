/**
 * @file
 * Request routing across serving nodes.
 *
 * A multi-node deployment front-ends N ServingNodes (each a scheduler +
 * cache shard + worker pool) with a Router that decides which node an
 * arriving request lands on. Routing policy is a first-class, sweepable
 * experiment axis because it decides cache hit rate: with sharded
 * caches, a policy that scatters a topic's requests across nodes also
 * scatters the cached content they could have hit.
 *
 * Policies:
 *  - RoundRobin: cycle through nodes; perfect load spread, no cache
 *    affinity (the hash-partitioned-cache strawman).
 *  - ConsistentHash: hash the prompt's topic onto a virtual-node ring,
 *    so one topic's requests — and therefore its cached images — pin
 *    to one node (cache affinity). Ring structure keeps reassignment
 *    minimal as the node count changes.
 *  - LeastOutstanding: send each request to the node with the fewest
 *    arrived-but-uncompleted requests (ties: lowest node index);
 *    best load balance under skewed service times, no affinity.
 *  - BoundedLoadConsistentHash: the affinity x balance hybrid — route
 *    to the ring owner unless its outstanding count exceeds c x the
 *    alive-node mean (c = ClusterTopology::boundedLoadFactor), then
 *    spill clockwise to the next ring node under the bound.
 *
 * Every router also tracks node liveness (setNodeAlive): the fault
 * subsystem marks killed/draining nodes dead and routing skips them.
 * The consistent-hash ring heals with minimal reassignment — only the
 * dead node's topics move, each to the next alive owner clockwise.
 *
 * Every router is a pure function of (construction args, call
 * sequence): identical traces route identically on any machine, which
 * is what keeps multi-node sweeps bit-reproducible.
 */

#ifndef MODM_SERVING_ROUTER_HH
#define MODM_SERVING_ROUTER_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "src/workload/prompt.hh"

namespace modm::serving {

/** Which routing policy the front-end uses. */
enum class RoutingPolicy
{
    RoundRobin,                ///< cycle through nodes
    ConsistentHash,            ///< topic-affinity via a hash ring
    LeastOutstanding,          ///< fewest arrived-but-uncompleted
    BoundedLoadConsistentHash, ///< ring affinity with a load bound
};

/** Printable policy name. */
const char *routingPolicyName(RoutingPolicy policy);

/**
 * A consistent-hash ring of virtual nodes shared by the affinity
 * routers and the replica-placement logic: each physical node owns
 * `virtualNodes` pseudo-random ring points, a key routes to the owner
 * of the next point clockwise, and successive *distinct* owners after
 * that point are the key's replica set. Skipping dead owners during
 * the clockwise walk is what gives consistent hashing its minimal-
 * reassignment healing: a dead node's keys land on their ring
 * successor and every other key keeps its owner.
 */
class HashRing
{
  public:
    static constexpr std::size_t kDefaultVirtualNodes = 64;

    /** Build `virtual_nodes` seeded ring points per physical node. */
    HashRing(std::size_t num_nodes, std::uint64_t seed,
             std::size_t virtual_nodes = kDefaultVirtualNodes);

    /** Ring key for a topic (the affinity axis of this workload). */
    std::uint64_t topicKey(std::uint32_t topic_id) const;

    /**
     * Owner of `key`: the first node with a ring point clockwise of
     * the key for which `alive` is true (empty `alive` = all alive).
     * Panics when every node is dead.
     */
    std::size_t owner(std::uint64_t key,
                      const std::vector<bool> &alive = {}) const;

    /**
     * The first `count` *distinct* alive owners clockwise of the key —
     * the key's replica set. Returns fewer when fewer alive nodes
     * exist. The first element equals owner(key, alive).
     */
    std::vector<std::size_t> owners(std::uint64_t key, std::size_t count,
                                    const std::vector<bool> &alive
                                    = {}) const;

    /**
     * The same replica set written into `out` (cleared first), which
     * allocates nothing once `out` has room for `count` nodes: the
     * form the per-generation replica fan-out calls.
     */
    void owners(std::uint64_t key, std::size_t count,
                const std::vector<bool> &alive,
                std::vector<std::size_t> &out) const;

    /**
     * First alive owner clockwise of the key whose outstanding count
     * is within `bound` — the bounded-load routing decision. Falls
     * back to owner(key, alive) when every alive node is over the
     * bound (unreachable when bound >= the alive-node mean).
     * Equivalent to scanning owners(key, aliveCount, alive) for the
     * first under-bound entry, but allocation-free: the walk simply
     * revisits an over-loaded node's later virtual points instead of
     * tracking the distinct-owner set, which cannot change which node
     * is accepted first. This is the per-arrival hot path of
     * million-request traces.
     */
    std::size_t ownerUnderBound(std::uint64_t key,
                                const std::vector<bool> &alive,
                                const std::vector<std::size_t>
                                    &outstanding,
                                double bound) const;

    /** Physical nodes on the ring. */
    std::size_t numNodes() const { return nodes_; }

  private:
    std::size_t nodes_;
    std::uint64_t seed_;
    /** Sorted (point, node) pairs. */
    std::vector<std::pair<std::uint64_t, std::size_t>> ring_;
};

/**
 * Abstract request router over a fixed set of nodes with dynamic
 * liveness.
 */
class Router
{
  public:
    virtual ~Router() = default;

    /**
     * Node for an arriving request. `outstanding[i]` is node i's
     * arrived-but-uncompleted request count at the routing instant
     * (stateless policies ignore it). Only alive nodes are returned.
     */
    virtual std::size_t route(const workload::Prompt &prompt,
                              const std::vector<std::size_t> &outstanding)
        = 0;

    /**
     * Node for a warm-up prompt (pre-run cache population, no load to
     * observe). Affinity policies hash exactly as route() does so warm
     * content lands where later queries will; load-driven policies
     * spread warm content round-robin.
     */
    virtual std::size_t routeWarm(const workload::Prompt &prompt) = 0;

    /** Number of nodes routed over (alive or not). */
    virtual std::size_t numNodes() const = 0;

    /**
     * True when route() reads the outstanding counts. Stateless
     * policies return false so the front-end skips snapshotting node
     * state on every arrival (the hot path of million-request traces).
     */
    virtual bool needsOutstanding() const { return false; }

    /**
     * Mark a node dead (killed or draining: stops admitting) or alive
     * again (rejoin). route() never returns a dead node; at least one
     * node must stay alive.
     */
    void setNodeAlive(std::size_t node, bool alive);

    /** Liveness snapshot (all true until setNodeAlive is called). */
    const std::vector<bool> &aliveMask() const { return alive_; }

    /** Count of currently alive nodes. */
    std::size_t aliveCount() const { return aliveCount_; }

  protected:
    explicit Router(std::size_t num_nodes)
        : alive_(num_nodes, true), aliveCount_(num_nodes)
    {
    }

    bool isAlive(std::size_t node) const { return alive_[node]; }

  private:
    std::vector<bool> alive_;
    std::size_t aliveCount_;
};

/**
 * Salt mixed into the experiment seed for every hash ring a cluster
 * builds — the affinity routers' and the replica-placement ring in
 * the serving front-end. One shared constant because correctness
 * depends on the rings matching: replicas must land exactly where
 * affinity routing sends a topic's queries, and a silently diverged
 * seed would strand every replica on nodes routing never asks.
 */
constexpr std::uint64_t kRingSeedSalt = 0x40a73e5ULL;

/**
 * Build the configured policy over `num_nodes` nodes. The seed
 * perturbs the hash ring only (other policies are seed-free);
 * `bounded_load_factor` is the BoundedLoadConsistentHash spill
 * threshold c and is ignored by every other policy.
 */
std::unique_ptr<Router> makeRouter(RoutingPolicy policy,
                                   std::size_t num_nodes,
                                   std::uint64_t seed,
                                   double bounded_load_factor = 1.25);

} // namespace modm::serving

#endif // MODM_SERVING_ROUTER_HH
