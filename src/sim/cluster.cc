#include "src/sim/cluster.hh"

#include "src/common/log.hh"

namespace modm::sim {

Cluster::Cluster(std::size_t count, diffusion::GpuKind kind)
    : kind_(kind)
{
    MODM_ASSERT(count > 0, "cluster needs at least one worker");
    workers_.reserve(count);
    for (std::size_t i = 0; i < count; ++i)
        workers_.emplace_back(static_cast<int>(i), kind);
}

Worker &
Cluster::worker(std::size_t i)
{
    MODM_ASSERT(i < workers_.size(), "worker index out of range");
    return workers_[i];
}

const Worker &
Cluster::worker(std::size_t i) const
{
    MODM_ASSERT(i < workers_.size(), "worker index out of range");
    return workers_[i];
}

double
Cluster::totalEnergyJ(double duration) const
{
    double total = 0.0;
    for (const auto &w : workers_)
        total += w.totalEnergyJ(duration);
    return total;
}

std::uint64_t
Cluster::totalModelSwitches() const
{
    std::uint64_t total = 0;
    for (const auto &w : workers_)
        total += w.stats().modelSwitches;
    return total;
}

} // namespace modm::sim
