/**
 * @file
 * Step-accurate diffusion sampler simulator.
 *
 * The sampler reproduces the two generation paths the paper's serving
 * system uses:
 *
 * - generate(): full from-scratch sampling. The latent starts as pure
 *   noise and contracts toward the model's generation target over T
 *   schedule steps. The target is the prompt's visual concept perturbed
 *   by the model's prompt-adherence misalignment.
 *
 * - refine(): MoDM's cache-hit path. The retrieved image is re-noised to
 *   the schedule's level at step k (paper Eq. 2) and de-noised for the
 *   remaining T-k steps. Because early de-noising steps determine image
 *   *structure* and later steps only refine detail (paper §3.3), the
 *   reachable target is a blend of the model's own target and the
 *   retrieved image's content, with the retrieved structure "locked in"
 *   more strongly for larger k. Refining a structurally mismatched image
 *   late also produces artifacts, captured as a fidelity penalty
 *   proportional to lock x mismatch.
 *
 * All stochasticity is deterministic in (sampler seed, prompt id, model
 * name, base image id), so repeated runs of an experiment are bitwise
 * reproducible.
 */

#ifndef MODM_DIFFUSION_SAMPLER_HH
#define MODM_DIFFUSION_SAMPLER_HH

#include <cstdint>

#include "src/common/log.hh"
#include "src/diffusion/image.hh"
#include "src/diffusion/model_spec.hh"
#include "src/diffusion/schedule.hh"
#include "src/workload/prompt.hh"

namespace modm::diffusion {

/** Tunables of the refinement response model. */
struct SamplerConfig
{
    /** Structure lock at k = 0 (some structure persists immediately). */
    double lockBase = 0.15;
    /** Additional lock per unit of k/T. */
    double lockSlope = 1.05;
    /** Upper bound on the structure lock. */
    double lockMax = 0.90;
    /**
     * Fidelity penalty coefficient for refining a mismatched image
     * late: penalty = artifactCoef * lock(k) * mismatch^2 where
     * mismatch = 1 - cos(prompt, base). Quadratic in mismatch: the
     * small residual drift of an admitted cache hit costs little, while
     * repainting a structurally wrong image late produces severe
     * artifacts — the regime the retrieval threshold exists to avoid.
     */
    double artifactCoef = 2.2;
    /**
     * Fraction of *inherited* defects the remaining T-k de-noising
     * steps clean up (scaled by (T-k)/T). Without cleanup, repeated
     * refine-from-refined chains (the cache-all policy) would compound
     * fidelity loss generation over generation; the paper's §A.6
     * measurement shows reuse is quality-stable, which this term
     * reproduces.
     */
    double cleanupCoef = 0.8;
    /** Norm of residual per-generation content noise. */
    double contentNoise = 0.05;
    /** Std-dev of per-image fidelity noise. */
    double fidelityNoise = 0.01;
    /** Fidelity penalty per unit of missing steps below the default. */
    double undersampleCoef = 0.35;
    /**
     * Norm of the per-sampler-instance style direction added to every
     * generation target. Two independently seeded samplers (e.g. the
     * serving run vs the reference-set run) produce slightly different
     * output distributions, giving the non-zero same-model FID floor
     * the paper reports (Vanilla FID ~6 against its own reference).
     */
    double styleBias = 0.28;
};

/**
 * Deterministic sampler over a shared noise schedule.
 */
class Sampler
{
  public:
    /** Construct with a seed for all generation noise. */
    explicit Sampler(std::uint64_t seed, SamplerConfig config = {},
                     ScheduleConfig schedule = {});

    /**
     * Full from-scratch generation.
     *
     * @param model Model to run.
     * @param prompt Prompt to serve.
     * @param steps De-noising steps to run (usually model.defaultSteps).
     * @param now Simulated time stamp recorded on the image.
     */
    Image generate(const ModelSpec &model, const workload::Prompt &prompt,
                   int steps, double now);

    /** Full generation with the model's default step count. */
    Image generate(const ModelSpec &model, const workload::Prompt &prompt,
                   double now);

    /**
     * Cache-hit refinement: re-noise `base` to schedule step k, then
     * de-noise the remaining T-k steps with `model` (paper §5.1).
     *
     * @param model Model performing the refinement (usually small).
     * @param prompt The *new* prompt being served.
     * @param base The retrieved cached image.
     * @param k Number of de-noising steps skipped (k in the paper's K).
     * @param now Simulated time stamp recorded on the image.
     */
    Image refine(const ModelSpec &model, const workload::Prompt &prompt,
                 const Image &base, int k, double now);

    /** Structure-lock factor for entering the schedule at step k. */
    double lockAt(int k) const;

    /** The shared noise schedule. */
    const NoiseSchedule &schedule() const { return schedule_; }

    /** Active configuration. */
    const SamplerConfig &config() const { return config_; }

    /**
     * Start image ids at `base` instead of 0. Multi-node clusters give
     * each node a disjoint id range so content replicated across node
     * caches never collides (ids must be unique within one cache).
     * Must be called before the first generation; node 0 keeps base 0,
     * preserving single-node ids exactly.
     */
    void offsetImageIds(std::uint64_t base)
    {
        MODM_ASSERT(nextImageId_ == idBase_,
                    "image-id base must be set before generating");
        nextImageId_ = base;
        idBase_ = base;
    }

  private:
    /**
     * The model's generation target for a prompt (deterministic), into
     * `target`. `noise` is the adherence jitter: the first unit vector
     * drawn from the prompt's base-0 stream, which generate() also
     * takes as its initial latent.
     */
    void modelTarget(const ModelSpec &model, const workload::Prompt &prompt,
                     const Vec &noise, Vec &target) const;

    /** Per-image deterministic noise stream. */
    std::uint64_t streamSeed(const ModelSpec &model,
                             std::uint64_t prompt_id,
                             std::uint64_t base_id) const;

    std::uint64_t seed_;
    SamplerConfig config_;
    NoiseSchedule schedule_;
    mutable Vec styleDir_;  // built lazily once the dimension is known
    // Scratch that generate() and refine() reuse, so the only vector a
    // call allocates is the image's own content. A sampler serves one
    // thread at a time (one per serving node or sweep cell).
    Vec eps_;    // refine: the re-noising direction
    Vec own_;    // refine: the model's own target
    Vec target_; // the walk's target
    Vec noise_;  // adherence jitter, defect and content-noise draws
    std::uint64_t nextImageId_ = 0;
    std::uint64_t idBase_ = 0;
};

} // namespace modm::diffusion

#endif // MODM_DIFFUSION_SAMPLER_HH
