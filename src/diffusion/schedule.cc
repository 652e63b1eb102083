#include "src/diffusion/schedule.hh"

#include <algorithm>
#include <cmath>

#include "src/common/log.hh"

namespace modm::diffusion {

NoiseSchedule::NoiseSchedule(const ScheduleConfig &config)
    : config_(config)
{
    MODM_ASSERT(config_.steps >= 2, "schedule needs at least two steps");
    MODM_ASSERT(config_.sigmaMax > config_.sigmaMin &&
                config_.sigmaMin > 0.0,
                "schedule sigma range invalid");
    sigmas_.resize(config_.steps + 1);
    const double hiRoot = std::pow(config_.sigmaMax, 1.0 / config_.rho);
    const double loRoot = std::pow(config_.sigmaMin, 1.0 / config_.rho);
    for (int i = 0; i < config_.steps; ++i) {
        const double frac =
            static_cast<double>(i) / static_cast<double>(config_.steps - 1);
        sigmas_[i] = std::pow(hiRoot + frac * (loRoot - hiRoot),
                              config_.rho);
        MODM_ASSERT(std::isfinite(sigmas_[i]),
                    "schedule sigma %d is not finite (rho %g)", i,
                    config_.rho);
    }
    sigmas_[config_.steps] = 0.0;
}

double
NoiseSchedule::sigma(int i) const
{
    MODM_ASSERT(i >= 0 && i <= config_.steps,
                "schedule index %d out of range", i);
    return sigmas_[i];
}

double
NoiseSchedule::sigmaNorm(int i) const
{
    return sigma(i) / sigmas_[0];
}

double
NoiseSchedule::residualFactor(int from) const
{
    MODM_ASSERT(from >= 0 && from < config_.steps,
                "residualFactor start %d out of range", from);
    return sigmas_[config_.steps - 1] / sigmas_[from];
}

void
NoiseSchedule::walkToTarget(Vec &latent, const Vec &target, int from) const
{
    MODM_ASSERT(from >= 0 && from < config_.steps,
                "walk start %d out of range", from);
    MODM_ASSERT(latent.size() == target.size(),
                "walk: dimension mismatch %zu vs %zu", latent.size(),
                target.size());
    for (std::size_t d = 0; d < latent.size(); ++d) {
        const float t = target[d];
        if (t != 0.0f && std::isfinite(t)) {
            latent[d] = t;
            continue;
        }
        float x = latent[d];
        for (int i = from; i < config_.steps; ++i) {
            const double ratio = sigmas_[i + 1] / std::max(sigmas_[i], 1e-12);
            x = static_cast<float>(t + ratio * (x - t));
        }
        latent[d] = x;
    }
}

} // namespace modm::diffusion
