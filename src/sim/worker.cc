#include "src/sim/worker.hh"

#include <algorithm>

#include "src/common/log.hh"

namespace modm::sim {

Worker::Worker(int id, diffusion::GpuKind kind)
    : id_(id), kind_(kind)
{
}

double
Worker::startJob(const diffusion::ModelSpec &model, int steps, double now)
{
    MODM_ASSERT(!busyAt(now), "worker %d already busy at %f", id_, now);
    MODM_ASSERT(steps >= 1, "job must run at least one step");

    double start = now;
    if (residentModel_ != model.name) {
        start += model.loadLatency;
        stats_.switchSeconds += model.loadLatency;
        if (!residentModel_.empty())
            ++stats_.modelSwitches;
        residentModel_ = model.name;
    }
    const double compute = steps * model.stepLatency(kind_);
    freeAt_ = start + compute;
    ++stats_.jobs;
    stats_.busySeconds += freeAt_ - now;
    jobStartedAt_ = now;
    jobEnergyJ_ = model.stepEnergyJ(kind_, steps);
    stats_.computeEnergyJ += jobEnergyJ_;
    return freeAt_;
}

void
Worker::abortJob(double now)
{
    if (!busyAt(now))
        return;
    // Roll accounting back to the executed fraction: the GPU burned
    // power only until the kill, and the unfinished output is lost.
    const double span = freeAt_ - jobStartedAt_;
    const double executed =
        span > 0.0 ? (now - jobStartedAt_) / span : 1.0;
    stats_.busySeconds -= freeAt_ - now;
    stats_.computeEnergyJ -= (1.0 - executed) * jobEnergyJ_;
    ++stats_.abortedJobs;
    freeAt_ = now;
    jobEnergyJ_ = 0.0;
    // The process died with the model in memory; a rejoin reloads.
    residentModel_.clear();
}

double
Worker::totalEnergyJ(double duration) const
{
    const double idleSeconds =
        std::max(duration - stats_.busySeconds, 0.0);
    return stats_.computeEnergyJ + idleSeconds * kIdlePowerW;
}

} // namespace modm::sim
