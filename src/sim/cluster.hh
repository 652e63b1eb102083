/**
 * @file
 * A homogeneous pool of GPU workers.
 */

#ifndef MODM_SIM_CLUSTER_HH
#define MODM_SIM_CLUSTER_HH

#include <vector>

#include "src/sim/worker.hh"

namespace modm::sim {

/** Fixed-size collection of workers of one GPU kind. */
class Cluster
{
  public:
    /** Create `count` workers of the given kind. */
    Cluster(std::size_t count, diffusion::GpuKind kind);

    /** Number of workers. */
    std::size_t size() const { return workers_.size(); }

    /** GPU kind of the pool. */
    diffusion::GpuKind kind() const { return kind_; }

    /** Worker access. */
    Worker &worker(std::size_t i);

    /** Const worker access. */
    const Worker &worker(std::size_t i) const;

    /** Total compute + idle energy over an experiment duration. */
    double totalEnergyJ(double duration) const;

    /** Total model switches across workers. */
    std::uint64_t totalModelSwitches() const;

  private:
    diffusion::GpuKind kind_;
    std::vector<Worker> workers_;
};

} // namespace modm::sim

#endif // MODM_SIM_CLUSTER_HH
