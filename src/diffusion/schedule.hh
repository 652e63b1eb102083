/**
 * @file
 * Noise schedules for the diffusion samplers.
 *
 * A schedule fixes the noise level sigma_i before each of the T
 * de-noising steps, from sigma_max (pure noise) down to ~0. MoDM's
 * cache-hit path re-enters the schedule at step k by mixing the retrieved
 * image with Gaussian noise at level sigma_{t_k} (paper Eq. 2), so the
 * schedule determines both how much of the retrieved image survives and
 * how much refinement the remaining T-k steps can do.
 */

#ifndef MODM_DIFFUSION_SCHEDULE_HH
#define MODM_DIFFUSION_SCHEDULE_HH

#include <vector>

#include "src/common/vec.hh"

namespace modm::diffusion {

/** Parameters of a Karras-style power-law schedule. */
struct ScheduleConfig
{
    /** Total number of de-noising steps (T). */
    int steps = 50;
    /** Initial (largest) noise level. */
    double sigmaMax = 14.6;
    /** Final (smallest) positive noise level. */
    double sigmaMin = 0.03;
    /** Power-law exponent (rho). */
    double rho = 7.0;
};

/**
 * Karras power-law noise schedule:
 *   sigma_i = (smax^(1/rho) + i/(T-1) * (smin^(1/rho) - smax^(1/rho)))^rho
 * plus sigma_T = 0 at the end of sampling.
 */
class NoiseSchedule
{
  public:
    /** Build the sigma table. */
    explicit NoiseSchedule(const ScheduleConfig &config = {});

    /** Number of steps T. */
    int steps() const { return config_.steps; }

    /** Noise level before step i, for i in [0, T]; sigma(T) == 0. */
    double sigma(int i) const;

    /**
     * Noise level at step i normalised to [0, 1] by sigma_max — the
     * blend weight used in the paper's Eq. 2 re-noising.
     */
    double sigmaNorm(int i) const;

    /**
     * Contraction factor of the residual (latent minus target) when
     * denoising from step `from` to completion: sigma(T-1)/sigma(from).
     * Close to 0 when entering early (full repaint possible), larger
     * when entering late.
     */
    double residualFactor(int from) const;

    /**
     * The latent walk from step `from` to the end of sampling. Step i
     * moves each element x of `latent` toward its element t of `target`:
     * x <- float(t + sigma(i+1) / max(sigma(i), 1e-12) * (x - t)).
     * sigma(T) == 0 makes the last step's ratio exactly 0, so while
     * x - t stays finite the walk ends on float(t + (+-0)), which is t
     * for every finite non-zero t. Those elements are set to t directly;
     * only +-0 and non-finite targets walk every step. The sampler's
     * walks keep x - t finite: their starts are finite and their
     * targets unit vectors wherever the target is finite.
     */
    void walkToTarget(Vec &latent, const Vec &target, int from) const;

    /** Active configuration. */
    const ScheduleConfig &config() const { return config_; }

  private:
    ScheduleConfig config_;
    std::vector<double> sigmas_;
};

} // namespace modm::diffusion

#endif // MODM_DIFFUSION_SCHEDULE_HH
