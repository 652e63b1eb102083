/**
 * @file
 * Diffusion model specifications.
 *
 * Each ModelSpec captures everything the serving system needs to know
 * about a model: per-step inference latency per GPU type, per-step power,
 * output fidelity/adherence, and parameter count. The numbers are
 * calibrated so the serving-level ratios match the paper's measurements:
 * e.g. SD3.5L takes ~60 s per 1024x1024 image on an A40 (about 1 request
 * per minute per GPU — the Vanilla baseline's measured ceiling), SDXL
 * steps cost ~0.35x and SANA ~0.15x of an SD3.5L step, and SD3.5L-Turbo
 * runs 10 steps instead of 50.
 */

#ifndef MODM_DIFFUSION_MODEL_SPEC_HH
#define MODM_DIFFUSION_MODEL_SPEC_HH

#include <string>
#include <vector>

namespace modm::diffusion {

/** GPU types the paper deploys on. */
enum class GpuKind
{
    A40,    ///< NVIDIA A40, 48 GB
    MI210,  ///< AMD MI210, 64 GB
};

/** Model families (for the cross-family serving experiments). */
enum class ModelFamily
{
    StableDiffusion,
    Flux,
    Sana,
};

/** Static description of one diffusion model. */
struct ModelSpec
{
    /** Model name as used in the paper ("SD3.5L", "SDXL", ...). */
    std::string name;
    /** Model family. */
    ModelFamily family = ModelFamily::StableDiffusion;
    /** Parameter count in billions. */
    double paramsB = 0.0;
    /** Default number of de-noising steps (T). */
    int defaultSteps = 50;
    /** Seconds per de-noising step on an A40. */
    double stepLatencyA40 = 0.0;
    /** Seconds per de-noising step on an MI210. */
    double stepLatencyMI210 = 0.0;
    /** Average GPU power draw while stepping (watts). */
    double stepPowerW = 0.0;
    /**
     * Base output fidelity in [0, 1]: realism / freedom from defects of
     * from-scratch generations. Drives the FID-style metrics.
     */
    double baseFidelity = 0.0;
    /**
     * Prompt-adherence misalignment: the norm of the residual between
     * the model's generation target and the true prompt concept. Lower
     * is better alignment; drives the CLIP-style metrics.
     */
    double misalignment = 0.0;
    /** Bytes of one compressed output image (PNG/JPEG model). */
    double imageBytes = 1.4e6;
    /** Seconds to load this model onto an idle GPU worker. */
    double loadLatency = 20.0;

    /** Seconds per step on the given GPU. */
    double stepLatency(GpuKind kind) const;

    /** Seconds for a full defaultSteps generation on the given GPU. */
    double fullLatency(GpuKind kind) const;

    /**
     * Profiled throughput in requests/minute/GPU for full generations
     * (the paper's P_large / P_small monitor inputs).
     */
    double throughputPerMin(GpuKind kind) const;

    /** Energy of running `steps` de-noising steps (joules). */
    double stepEnergyJ(GpuKind kind, int steps) const;
};

/** Registry of the paper's models. @{ */
ModelSpec sd35Large();
ModelSpec flux1Dev();
ModelSpec sdxl();
ModelSpec sana();
ModelSpec sd35LargeTurbo();
/** @} */

/** All registry models. */
std::vector<ModelSpec> allModels();

} // namespace modm::diffusion

#endif // MODM_DIFFUSION_MODEL_SPEC_HH
