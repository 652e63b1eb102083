/**
 * @file
 * GPU worker model.
 *
 * Each worker is one GPU hosting exactly one resident diffusion model at
 * a time (paper §5.3: "Each GPU (a worker) can only host one model at a
 * time"). Switching the resident model costs load latency; the global
 * monitor's PID damping exists precisely to avoid thrashing this switch.
 * Workers integrate busy/idle energy for the Fig. 18 energy results.
 */

#ifndef MODM_SIM_WORKER_HH
#define MODM_SIM_WORKER_HH

#include <cstdint>
#include <string>

#include "src/diffusion/model_spec.hh"

namespace modm::sim {

/** Per-worker counters. */
struct WorkerStats
{
    std::uint64_t jobs = 0;
    std::uint64_t modelSwitches = 0;
    /** Jobs aborted mid-flight by a node fault (work discarded). */
    std::uint64_t abortedJobs = 0;
    double busySeconds = 0.0;
    double switchSeconds = 0.0;
    double computeEnergyJ = 0.0;
};

/**
 * One GPU worker.
 */
class Worker
{
  public:
    /** Power draw while idle (watts). */
    static constexpr double kIdlePowerW = 60.0;

    /**
     * @param id Worker index.
     * @param kind GPU type.
     */
    Worker(int id, diffusion::GpuKind kind);

    /** Worker index. */
    int id() const { return id_; }

    /** GPU type. */
    diffusion::GpuKind kind() const { return kind_; }

    /** True when a job is in flight at virtual time `now`. */
    bool busyAt(double now) const { return now < freeAt_; }

    /** Time the current job finishes (now or earlier when idle). */
    double freeAt() const { return freeAt_; }

    /** Name of the resident model; empty before the first job. */
    const std::string &residentModel() const { return residentModel_; }

    /**
     * Start a job of `steps` de-noising steps with `model` at time
     * `now`; loads the model first when not resident. Returns the
     * completion time.
     */
    double startJob(const diffusion::ModelSpec &model, int steps,
                    double now);

    /**
     * Abort the in-flight job at time `now` (node kill): the worker
     * becomes free immediately, busy time and compute energy are
     * rolled back to the fraction actually executed, and the resident
     * model is dropped (a restarted node reloads from scratch). No-op
     * when idle.
     */
    void abortJob(double now);

    /** Counters. */
    const WorkerStats &stats() const { return stats_; }

    /**
     * Total energy including idle draw over an experiment of the given
     * duration (joules).
     */
    double totalEnergyJ(double duration) const;

  private:
    int id_;
    diffusion::GpuKind kind_;
    std::string residentModel_;
    double freeAt_ = 0.0;
    // In-flight job bookkeeping so abortJob can roll back accounting.
    double jobStartedAt_ = 0.0;
    double jobEnergyJ_ = 0.0;
    WorkerStats stats_;
};

} // namespace modm::sim

#endif // MODM_SIM_WORKER_HH
