#include "src/diffusion/model_spec.hh"

#include "src/common/log.hh"

namespace modm::diffusion {

double
ModelSpec::stepLatency(GpuKind kind) const
{
    switch (kind) {
      case GpuKind::A40:
        return stepLatencyA40;
      case GpuKind::MI210:
        return stepLatencyMI210;
    }
    panic("unknown GpuKind");
}

double
ModelSpec::fullLatency(GpuKind kind) const
{
    return defaultSteps * stepLatency(kind);
}

double
ModelSpec::throughputPerMin(GpuKind kind) const
{
    return 60.0 / fullLatency(kind);
}

double
ModelSpec::stepEnergyJ(GpuKind kind, int steps) const
{
    return stepPowerW * stepLatency(kind) * steps;
}

ModelSpec
sd35Large()
{
    ModelSpec m;
    m.name = "SD3.5L";
    m.family = ModelFamily::StableDiffusion;
    m.paramsB = 8.0;
    m.defaultSteps = 50;
    // ~60 s per image on an A40 => ~1 request/min/GPU, the Vanilla
    // ceiling behind Fig. 12's 4-GPU results. MI210s profile slower for
    // this stack (16 of them saturate near 10 req/min in Fig. 10).
    m.stepLatencyA40 = 1.20;
    m.stepLatencyMI210 = 1.92;
    m.stepPowerW = 300.0;
    m.baseFidelity = 0.965;
    m.misalignment = 0.51;
    return m;
}

ModelSpec
flux1Dev()
{
    ModelSpec m;
    m.name = "FLUX";
    m.family = ModelFamily::Flux;
    m.paramsB = 12.0;
    m.defaultSteps = 50;
    m.stepLatencyA40 = 1.65;
    m.stepLatencyMI210 = 2.60;
    m.stepPowerW = 320.0;
    m.baseFidelity = 0.968;
    // FLUX's guidance-distilled objective trades a little prompt
    // adherence (lower CLIP in Table 3) for fidelity.
    m.misalignment = 0.64;
    return m;
}

ModelSpec
sdxl()
{
    ModelSpec m;
    m.name = "SDXL";
    m.family = ModelFamily::StableDiffusion;
    m.paramsB = 3.0;
    m.defaultSteps = 50;
    // ~0.35x of an SD3.5L step on the CUDA stack; the ROCm stack is
    // relatively less optimized for SDXL (the paper notes profiling
    // varies across software stacks), which is what pushes MoDM-SDXL
    // past its ceiling near 22 req/min on 16 MI210s (Fig. 10).
    m.stepLatencyA40 = 0.42;
    m.stepLatencyMI210 = 0.80;
    m.stepPowerW = 260.0;
    // Strong prompt adherence (Table 2 CLIP above SD3.5L) but visibly
    // worse realism (FID ~16 vs ~6).
    m.baseFidelity = 0.845;
    m.misalignment = 0.45;
    return m;
}

ModelSpec
sana()
{
    ModelSpec m;
    m.name = "SANA";
    m.family = ModelFamily::Sana;
    m.paramsB = 1.6;
    m.defaultSteps = 50;
    // Linear-attention transformer: ~0.15x of an SD3.5L step.
    m.stepLatencyA40 = 0.18;
    m.stepLatencyMI210 = 0.29;
    m.stepPowerW = 220.0;
    m.baseFidelity = 0.790;
    m.misalignment = 0.55;
    return m;
}

ModelSpec
sd35LargeTurbo()
{
    ModelSpec m;
    m.name = "SD3.5L-Turbo";
    m.family = ModelFamily::StableDiffusion;
    m.paramsB = 8.0;
    // Distilled: 10 steps at full-model per-step cost.
    m.defaultSteps = 10;
    m.stepLatencyA40 = 1.20;
    m.stepLatencyMI210 = 1.92;
    m.stepPowerW = 300.0;
    m.baseFidelity = 0.855;
    m.misalignment = 0.66;
    return m;
}

std::vector<ModelSpec>
allModels()
{
    return {sd35Large(), flux1Dev(), sdxl(), sana(), sd35LargeTurbo()};
}

} // namespace modm::diffusion
