/**
 * @file
 * Ready-made ServingConfig presets for MoDM and the paper's baselines
 * (§6, "Baselines"). Every benchmark builds its systems from these so
 * that comparisons share identical substrate parameters and differ only
 * in serving policy.
 */

#ifndef MODM_BASELINES_PRESETS_HH
#define MODM_BASELINES_PRESETS_HH

#include <cstdint>
#include <vector>

#include "src/serving/config.hh"

namespace modm::baselines {

/** Common knobs shared by all presets. */
struct PresetParams
{
    std::size_t numWorkers = 4;
    diffusion::GpuKind gpu = diffusion::GpuKind::A40;
    std::size_t cacheCapacity = 10000;
    std::uint64_t seed = 42;
    bool keepOutputs = false;
};

/** Vanilla: every request fully generated by the large model. */
serving::ServingConfig vanilla(const diffusion::ModelSpec &large,
                               const PresetParams &params);

/**
 * Nirvana: text-keyed caching, charged as latent sets, plus k-skip on
 * the large model.
 */
serving::ServingConfig nirvana(const diffusion::ModelSpec &large,
                               const PresetParams &params);

/** Pinecone: retrieve-and-return or full generation, no refinement. */
serving::ServingConfig pinecone(const diffusion::ModelSpec &large,
                                const PresetParams &params);

/** Standalone small/distilled model serving (SDXL / SANA / Turbo rows). */
serving::ServingConfig standalone(const diffusion::ModelSpec &model,
                                  const PresetParams &params);

/** MoDM with one small model. */
serving::ServingConfig modm(const diffusion::ModelSpec &large,
                            const diffusion::ModelSpec &small,
                            const PresetParams &params);

/** MoDM with an escalation list of small models (Fig. 10). */
serving::ServingConfig
modmMulti(const diffusion::ModelSpec &large,
          const std::vector<diffusion::ModelSpec> &smalls,
          const PresetParams &params);

} // namespace modm::baselines

#endif // MODM_BASELINES_PRESETS_HH
