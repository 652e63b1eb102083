#include "src/serving/router.hh"

#include <algorithm>

#include "src/common/log.hh"
#include "src/common/rng.hh"

namespace modm::serving {

const char *
routingPolicyName(RoutingPolicy policy)
{
    switch (policy) {
      case RoutingPolicy::RoundRobin:
        return "round-robin";
      case RoutingPolicy::ConsistentHash:
        return "consistent-hash";
      case RoutingPolicy::LeastOutstanding:
        return "least-outstanding";
      case RoutingPolicy::BoundedLoadConsistentHash:
        return "bounded-load";
    }
    panic("unknown RoutingPolicy");
}

HashRing::HashRing(std::size_t num_nodes, std::uint64_t seed,
                   std::size_t virtual_nodes)
    : nodes_(num_nodes), seed_(seed)
{
    MODM_ASSERT(num_nodes > 0, "ring needs at least one node");
    MODM_ASSERT(virtual_nodes > 0, "ring needs virtual nodes");
    ring_.reserve(num_nodes * virtual_nodes);
    for (std::size_t n = 0; n < num_nodes; ++n) {
        for (std::size_t v = 0; v < virtual_nodes; ++v) {
            const std::uint64_t point =
                mix64(seed_ ^ mix64(n * virtual_nodes + v + 1));
            ring_.push_back({point, n});
        }
    }
    std::sort(ring_.begin(), ring_.end());
}

std::uint64_t
HashRing::topicKey(std::uint32_t topic_id) const
{
    return mix64(seed_ ^ (0x9e3779b97f4a7c15ULL +
                          static_cast<std::uint64_t>(topic_id)));
}

std::size_t
HashRing::owner(std::uint64_t key, const std::vector<bool> &alive) const
{
    auto it = std::lower_bound(ring_.begin(), ring_.end(),
                               std::make_pair(key, std::size_t{0}));
    for (std::size_t hops = 0; hops < ring_.size(); ++hops) {
        if (it == ring_.end())
            it = ring_.begin(); // wrap around the ring
        if (alive.empty() || alive[it->second])
            return it->second;
        ++it;
    }
    panic("hash ring has no alive node");
}

std::vector<std::size_t>
HashRing::owners(std::uint64_t key, std::size_t count,
                 const std::vector<bool> &alive) const
{
    std::vector<std::size_t> out;
    owners(key, count, alive, out);
    return out;
}

void
HashRing::owners(std::uint64_t key, std::size_t count,
                 const std::vector<bool> &alive,
                 std::vector<std::size_t> &out) const
{
    out.clear();
    if (count == 0)
        return;
    out.reserve(count);
    auto it = std::lower_bound(ring_.begin(), ring_.end(),
                               std::make_pair(key, std::size_t{0}));
    for (std::size_t hops = 0; hops < ring_.size(); ++hops) {
        if (it == ring_.end())
            it = ring_.begin();
        const std::size_t node = it->second;
        ++it;
        // `out` holds at most `count` (the replication factor) nodes,
        // so membership is a scan of it rather than a node bitmap.
        if (!(alive.empty() || alive[node]) ||
            std::find(out.begin(), out.end(), node) != out.end())
            continue;
        out.push_back(node);
        if (out.size() == count)
            break;
    }
}

std::size_t
HashRing::ownerUnderBound(std::uint64_t key,
                          const std::vector<bool> &alive,
                          const std::vector<std::size_t> &outstanding,
                          double bound) const
{
    auto it = std::lower_bound(ring_.begin(), ring_.end(),
                               std::make_pair(key, std::size_t{0}));
    std::size_t firstAlive = nodes_;
    for (std::size_t hops = 0; hops < ring_.size(); ++hops) {
        if (it == ring_.end())
            it = ring_.begin();
        const std::size_t node = it->second;
        ++it;
        if (!(alive.empty() || alive[node]))
            continue;
        if (static_cast<double>(outstanding[node]) <= bound)
            return node;
        if (firstAlive == nodes_)
            firstAlive = node;
    }
    MODM_ASSERT(firstAlive < nodes_, "hash ring has no alive node");
    return firstAlive;
}

void
Router::setNodeAlive(std::size_t node, bool alive)
{
    MODM_ASSERT(node < alive_.size(), "node %zu out of range", node);
    if (alive_[node] == alive)
        return;
    alive_[node] = alive;
    aliveCount_ += alive ? 1 : std::size_t(-1);
    MODM_ASSERT(aliveCount_ > 0, "router needs at least one alive node");
}

namespace {

class RoundRobinRouter final : public Router
{
  public:
    explicit RoundRobinRouter(std::size_t num_nodes)
        : Router(num_nodes), nodes_(num_nodes)
    {
    }

    std::size_t
    route(const workload::Prompt &,
          const std::vector<std::size_t> &) override
    {
        // Advance the cursor past dead nodes; with everything alive
        // this is the original single-increment cycle.
        for (;;) {
            const std::size_t n = next_++ % nodes_;
            if (isAlive(n))
                return n;
        }
    }

    std::size_t
    routeWarm(const workload::Prompt &prompt) override
    {
        return route(prompt, {});
    }

    std::size_t numNodes() const override { return nodes_; }

  private:
    std::size_t nodes_;
    std::uint64_t next_ = 0;
};

/**
 * Topic-affinity routing over the shared HashRing. A prompt hashes by
 * topic and routes to the owner of the next ring point clockwise;
 * virtual nodes keep topic load roughly balanced, and the ring keeps
 * topic->node assignment mostly stable as nodes die and rejoin.
 */
class ConsistentHashRouter final : public Router
{
  public:
    ConsistentHashRouter(std::size_t num_nodes, std::uint64_t seed)
        : Router(num_nodes), ring_(num_nodes, seed)
    {
    }

    std::size_t
    route(const workload::Prompt &prompt,
          const std::vector<std::size_t> &) override
    {
        return ring_.owner(ring_.topicKey(prompt.topicId), aliveMask());
    }

    std::size_t
    routeWarm(const workload::Prompt &prompt) override
    {
        return route(prompt, {});
    }

    std::size_t numNodes() const override { return ring_.numNodes(); }

  private:
    HashRing ring_;
};

class LeastOutstandingRouter final : public Router
{
  public:
    explicit LeastOutstandingRouter(std::size_t num_nodes)
        : Router(num_nodes), nodes_(num_nodes)
    {
    }

    std::size_t
    route(const workload::Prompt &,
          const std::vector<std::size_t> &outstanding) override
    {
        MODM_ASSERT(outstanding.size() == nodes_,
                    "least-outstanding routing needs one count per node");
        std::size_t best = nodes_;
        for (std::size_t n = 0; n < nodes_; ++n) {
            if (!isAlive(n))
                continue;
            if (best == nodes_ || outstanding[n] < outstanding[best])
                best = n;
        }
        MODM_ASSERT(best < nodes_, "no alive node to route to");
        return best;
    }

    std::size_t
    routeWarm(const workload::Prompt &) override
    {
        // No load exists before the run; spread warm content evenly.
        return warmNext_++ % nodes_;
    }

    std::size_t numNodes() const override { return nodes_; }

    bool needsOutstanding() const override { return true; }

  private:
    std::size_t nodes_;
    std::uint64_t warmNext_ = 0;
};

/**
 * Consistent hashing with bounded loads (the affinity x balance
 * hybrid): route to the ring owner unless its outstanding count
 * exceeds c x the mean over alive nodes, then spill clockwise to the
 * next alive ring node under the bound. Some alive node is always at
 * or below the mean, so the walk terminates. c = 1 degrades toward
 * least-loaded-on-the-ring; large c degrades to pure consistent
 * hashing.
 */
class BoundedLoadRouter final : public Router
{
  public:
    BoundedLoadRouter(std::size_t num_nodes, std::uint64_t seed,
                      double factor)
        : Router(num_nodes), ring_(num_nodes, seed), factor_(factor)
    {
        MODM_ASSERT(factor_ >= 1.0,
                    "bounded-load factor must be >= 1 (got %f)", factor_);
    }

    std::size_t
    route(const workload::Prompt &prompt,
          const std::vector<std::size_t> &outstanding) override
    {
        MODM_ASSERT(outstanding.size() == numNodes(),
                    "bounded-load routing needs one count per node");
        std::size_t aliveTotal = 0;
        for (std::size_t n = 0; n < outstanding.size(); ++n) {
            if (isAlive(n))
                aliveTotal += outstanding[n];
        }
        // Some alive node sits at or below the mean, so the bound is
        // always satisfiable; the ring's plain-owner fallback only
        // guards exotic float corner cases.
        const double bound = factor_ * static_cast<double>(aliveTotal) /
            static_cast<double>(aliveCount());
        return ring_.ownerUnderBound(ring_.topicKey(prompt.topicId),
                                     aliveMask(), outstanding, bound);
    }

    std::size_t
    routeWarm(const workload::Prompt &prompt) override
    {
        // No load exists before the run: pure ring affinity, so warm
        // content lands exactly where unloaded live routing will look.
        return ring_.owner(ring_.topicKey(prompt.topicId), aliveMask());
    }

    std::size_t numNodes() const override { return ring_.numNodes(); }

    bool needsOutstanding() const override { return true; }

  private:
    HashRing ring_;
    double factor_;
};

} // namespace

std::unique_ptr<Router>
makeRouter(RoutingPolicy policy, std::size_t num_nodes,
           std::uint64_t seed, double bounded_load_factor)
{
    MODM_ASSERT(num_nodes > 0, "router needs at least one node");
    switch (policy) {
      case RoutingPolicy::RoundRobin:
        return std::make_unique<RoundRobinRouter>(num_nodes);
      case RoutingPolicy::ConsistentHash:
        return std::make_unique<ConsistentHashRouter>(num_nodes, seed);
      case RoutingPolicy::LeastOutstanding:
        return std::make_unique<LeastOutstandingRouter>(num_nodes);
      case RoutingPolicy::BoundedLoadConsistentHash:
        return std::make_unique<BoundedLoadRouter>(num_nodes, seed,
                                                   bounded_load_factor);
    }
    panic("unknown RoutingPolicy");
}

} // namespace modm::serving
