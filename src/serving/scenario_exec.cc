#include "src/serving/scenario_exec.hh"

#include <memory>

#include "src/baselines/presets.hh"
#include "src/cache/image_cache.hh"
#include "src/common/log.hh"
#include "src/serving/k_decision.hh"
#include "src/workload/generator.hh"

namespace modm::serving {

namespace {

ServingConfig
presetConfig(const workload::Scenario &scenario,
             const workload::ScenarioParams &params)
{
    baselines::PresetParams preset;
    preset.numWorkers = params.workers;
    preset.gpu = params.gpu;
    preset.cacheCapacity = params.cache;
    preset.seed = scenario.seed;
    preset.keepOutputs =
        scenario.report == workload::ScenarioReport::Quality;

    switch (params.system) {
      case SystemKind::Vanilla:
        return baselines::vanilla(params.large, preset);
      case SystemKind::Nirvana:
        return baselines::nirvana(params.large, preset);
      case SystemKind::Pinecone:
        return baselines::pinecone(params.large, preset);
      case SystemKind::StandaloneSmall:
        // The parser rejects an empty small list for this system.
        MODM_ASSERT(!params.small.empty(),
                    "standalone-small cell without a small model");
        return baselines::standalone(params.small.front(), preset);
      case SystemKind::MoDM:
        MODM_ASSERT(!params.small.empty(),
                    "modm cell without a small model");
        return baselines::modmMulti(params.large, params.small, preset);
    }
    panic("unmapped SystemKind");
}

} // namespace

ServingConfig
scenarioCellConfig(const workload::Scenario &scenario,
                   const workload::ScenarioCell &cell)
{
    const auto &params = cell.params;
    auto config = presetConfig(scenario, params);

    // Cluster and cache knobs on top of the preset. Each
    // assignment is an identity when the scenario keeps the header
    // default, which is what preserves preset byte-compatibility.
    config.cachePolicy = params.eviction;
    config.cluster.numNodes = params.nodes;
    config.cluster.routing = params.routing;
    config.cluster.cachePartitioning = params.partitioning;
    config.cluster.replicationFactor = params.replicas;
    config.faults = scenario.faultPlan();
    config.knobs = scenario.knobPlan();
    return config;
}

ServingResult
runScenarioCell(const workload::Scenario &scenario,
                const workload::ScenarioCell &cell,
                const obs::TraceConfig &trace)
{
    auto built = workload::buildScenarioWorkload(scenario);
    auto config = scenarioCellConfig(scenario, cell);
    config.trace = trace;
    ServingSystem system(std::move(config));
    if (!built.warm.empty())
        system.warmCache(built.warm);
    return system.run(
        std::make_shared<const workload::Trace>(std::move(built.trace)));
}

eval::QualityReport
scoreScenarioCell(const workload::ScenarioCell &cell,
                  const ServingResult &result)
{
    const auto reference =
        eval::referenceImages(result.prompts, cell.params.large);
    return eval::MetricSuite().report(result.prompts, result.images,
                                      reference);
}

std::vector<double>
runScenarioCacheStream(const workload::Scenario &scenario,
                       const workload::ScenarioCell &cell)
{
    // The Fig. 6 streamed-cache loop: full fidelity to the scheduler's
    // MoDM cache path (classify, k-decision, refine-or-generate,
    // admit) without the cluster around it, which is what lets a
    // scenario stream tens of thousands of requests cheaply.
    const auto &params = cell.params;
    auto gen = workload::makeGenerator(scenario.dataset, scenario.seed);
    diffusion::Sampler sampler(scenario.samplerSeed);
    cache::ImageCache cache(params.cache, params.eviction);
    embedding::TextEncoder text;
    KDecision kd;
    MODM_ASSERT(!params.small.empty(),
                "cache-stream cell without a refinement model");
    const auto &refine = params.small.front();

    // Hit rate per complete window of `window` requests; the trailing
    // partial window is dropped, as the Fig. 6 curve always did.
    MODM_ASSERT(scenario.window > 0, "hit-curve window must be positive");
    const std::size_t complete = scenario.requests / scenario.window;
    std::vector<double> curve(complete, 0.0);
    for (std::size_t i = 0; i < scenario.requests; ++i) {
        const auto p = gen->next();
        const auto te =
            text.encode(p.visualConcept, p.lexicalStyle, p.text);
        const auto r = cache.retrieve(te);
        diffusion::Image img;
        if (r.found && kd.isHit(r.similarity)) {
            if (i / scenario.window < complete)
                curve[i / scenario.window] += 1.0;
            cache.recordHit(r.entryId, static_cast<double>(i));
            img = sampler.refine(refine, p, cache.entry(r.entryId).image,
                                 kd.decide(r.similarity),
                                 static_cast<double>(i));
        } else {
            img = sampler.generate(params.large, p, static_cast<double>(i));
        }
        cache.insert(img, static_cast<double>(i));
    }

    for (double &hits : curve)
        hits /= static_cast<double>(scenario.window);
    return curve;
}

} // namespace modm::serving
