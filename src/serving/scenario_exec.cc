#include "src/serving/scenario_exec.hh"

#include "src/baselines/presets.hh"
#include "src/cache/image_cache.hh"
#include "src/common/log.hh"
#include "src/serving/k_decision.hh"
#include "src/workload/generator.hh"

namespace modm::serving {

namespace {

diffusion::ModelSpec
modelSpec(workload::ScenarioModel model)
{
    switch (model) {
      case workload::ScenarioModel::Sd35Large:
        return diffusion::sd35Large();
      case workload::ScenarioModel::Flux1Dev:
        return diffusion::flux1Dev();
      case workload::ScenarioModel::Sdxl:
        return diffusion::sdxl();
      case workload::ScenarioModel::Sana:
        return diffusion::sana();
      case workload::ScenarioModel::Sd35Turbo:
        return diffusion::sd35LargeTurbo();
    }
    panic("unmapped ScenarioModel");
}

diffusion::GpuKind
gpuKind(workload::ScenarioGpu gpu)
{
    switch (gpu) {
      case workload::ScenarioGpu::A40:
        return diffusion::GpuKind::A40;
      case workload::ScenarioGpu::MI210:
        return diffusion::GpuKind::MI210;
    }
    panic("unmapped ScenarioGpu");
}

cache::EvictionPolicy
evictionPolicy(workload::ScenarioEviction eviction)
{
    switch (eviction) {
      case workload::ScenarioEviction::Fifo:
        return cache::EvictionPolicy::FIFO;
      case workload::ScenarioEviction::Lru:
        return cache::EvictionPolicy::LRU;
      case workload::ScenarioEviction::Utility:
        return cache::EvictionPolicy::Utility;
    }
    panic("unmapped ScenarioEviction");
}

RoutingPolicy
routingPolicy(workload::ScenarioRouting routing)
{
    switch (routing) {
      case workload::ScenarioRouting::RoundRobin:
        return RoutingPolicy::RoundRobin;
      case workload::ScenarioRouting::ConsistentHash:
        return RoutingPolicy::ConsistentHash;
      case workload::ScenarioRouting::LeastOutstanding:
        return RoutingPolicy::LeastOutstanding;
      case workload::ScenarioRouting::BoundedLoad:
        return RoutingPolicy::BoundedLoadConsistentHash;
    }
    panic("unmapped ScenarioRouting");
}

CachePartitioning
cachePartitioning(workload::ScenarioPartitioning partitioning)
{
    switch (partitioning) {
      case workload::ScenarioPartitioning::Sharded:
        return CachePartitioning::Sharded;
      case workload::ScenarioPartitioning::Replicated:
        return CachePartitioning::Replicated;
    }
    panic("unmapped ScenarioPartitioning");
}

FaultKind
faultKind(workload::ScenarioFault fault)
{
    switch (fault) {
      case workload::ScenarioFault::Kill:
        return FaultKind::Kill;
      case workload::ScenarioFault::Drain:
        return FaultKind::Drain;
      case workload::ScenarioFault::Rejoin:
        return FaultKind::Rejoin;
    }
    panic("unmapped ScenarioFault");
}

ServingConfig
presetConfig(const workload::Scenario &scenario,
             const workload::ScenarioParams &params)
{
    baselines::PresetParams preset;
    preset.numWorkers = params.workers;
    preset.gpu = gpuKind(params.gpu);
    preset.cacheCapacity = params.cache;
    preset.seed = scenario.seed;
    preset.keepOutputs =
        scenario.report == workload::ScenarioReport::Quality;

    const auto large = modelSpec(params.large);
    switch (params.system) {
      case workload::ScenarioSystem::Vanilla:
        return baselines::vanilla(large, preset);
      case workload::ScenarioSystem::Nirvana:
        return baselines::nirvana(large, preset);
      case workload::ScenarioSystem::Pinecone:
        return baselines::pinecone(large, preset);
      case workload::ScenarioSystem::StandaloneSmall:
        // The parser rejects an empty small list for this system.
        MODM_ASSERT(!params.small.empty(),
                    "standalone-small cell without a small model");
        return baselines::standalone(modelSpec(params.small.front()),
                                     preset);
      case workload::ScenarioSystem::MoDM: {
        MODM_ASSERT(!params.small.empty(),
                    "modm cell without a small model");
        if (params.small.size() == 1)
            return baselines::modm(large, modelSpec(params.small[0]),
                                   preset);
        std::vector<diffusion::ModelSpec> smalls;
        smalls.reserve(params.small.size());
        for (const auto model : params.small)
            smalls.push_back(modelSpec(model));
        return baselines::modmMulti(large, smalls, preset);
      }
    }
    panic("unmapped ScenarioSystem");
}

MonitorMode
knobMonitorMode(double value)
{
    return value != 0.0 ? MonitorMode::QualityOptimized
                        : MonitorMode::ThroughputOptimized;
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
    config.cachePolicy = evictionPolicy(params.eviction);
    config.cluster.numNodes = params.nodes;
    config.cluster.routing = routingPolicy(params.routing);
    config.cluster.cachePartitioning =
        cachePartitioning(params.partitioning);
    config.cluster.replicationFactor = params.replicas;

    for (const auto &op : scenario.ops) {
        switch (op.kind) {
          case workload::ScenarioOp::Kind::Fault:
            config.faults.add(op.time, op.node, faultKind(op.fault));
            break;
          case workload::ScenarioOp::Kind::Knob:
            switch (op.knob) {
              case workload::ScenarioKnob::MonitorMode:
                config.knobs.setMode(op.time,
                                     knobMonitorMode(op.knobValue));
                break;
              case workload::ScenarioKnob::Cache:
                config.knobs.set(op.time, KnobTarget::CacheCapacity,
                                 static_cast<std::size_t>(op.knobValue));
                break;
              case workload::ScenarioKnob::Replicas:
                config.knobs.set(op.time, KnobTarget::ReplicationFactor,
                                 static_cast<std::size_t>(op.knobValue));
                break;
            }
            break;
          default:
            break;
        }
    }
    if (scenario.hasFaults())
        config.faults.recoveryWindow = scenario.recoveryWindow;

    return config;
}

ServingResult
runScenarioCell(const workload::Scenario &scenario,
                const workload::ScenarioCell &cell,
                const obs::TraceConfig &trace)
{
    const auto workload = workload::buildScenarioWorkload(scenario);
    auto config = scenarioCellConfig(scenario, cell);
    config.trace = trace;
    ServingSystem system(std::move(config));
    if (!workload.warm.empty())
        system.warmCache(workload.warm);
    return system.run(workload.trace);
}

eval::QualityReport
scoreScenarioCell(const workload::ScenarioCell &cell,
                  const ServingResult &result)
{
    const auto reference =
        eval::referenceImages(result.prompts, modelSpec(cell.params.large));
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
    auto gen = scenario.dataset == workload::ScenarioDataset::MJHQ
                   ? workload::makeMJHQ(scenario.seed)
                   : workload::makeDiffusionDB(scenario.seed);
    diffusion::Sampler sampler(scenario.samplerSeed);
    cache::ImageCache cache(params.cache,
                            evictionPolicy(params.eviction));
    embedding::TextEncoder text;
    KDecision kd;
    const auto large = modelSpec(params.large);
    MODM_ASSERT(!params.small.empty(),
                "cache-stream cell without a refinement model");
    const auto refine = modelSpec(params.small.front());

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
            img = sampler.generate(large, p, static_cast<double>(i));
        }
        cache.insert(img, static_cast<double>(i));
    }

    for (double &hits : curve)
        hits /= static_cast<double>(scenario.window);
    return curve;
}

} // namespace modm::serving
