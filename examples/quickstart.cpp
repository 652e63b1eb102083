/**
 * @file
 * Quickstart: declare a two-system sweep (MoDM vs the Vanilla
 * baseline) over a DiffusionDB-like workload, run both experiments
 * concurrently with runSweep, and print the headline comparison
 * (throughput, hit rate, p99 latency, image quality). This is the
 * 60-second tour of the public API.
 */

#include <cstdio>

#include "bench/sweep.hh"

int
main()
{
    using namespace modm;

    // 1. Systems: MoDM (SD3.5L large + SDXL small) vs Vanilla (SD3.5L
    //    only) on four A40 GPUs.
    const std::uint64_t seed = 42;
    baselines::PresetParams params;
    params.numWorkers = 4;
    params.gpu = diffusion::GpuKind::A40;
    params.cacheCapacity = 2000;
    params.seed = seed;
    params.keepOutputs = true;

    const auto modmConfig =
        baselines::modm(diffusion::sd35Large(), diffusion::sdxl(), params);

    // 2. Workload: a production-like prompt stream with Poisson
    //    arrivals at 8 requests/minute. Each experiment builds its own
    //    workload inside its sweep cell (share-nothing), and the seeded
    //    generators make every rebuild identical.
    const auto workloadAt = [seed](std::size_t warmCount) {
        return [seed, warmCount] {
            workload::ScenarioWorkload bundle;
            auto generator = workload::makeDiffusionDB(seed);
            for (std::size_t i = 0; i < warmCount; ++i)
                bundle.warm.push_back(generator->next());
            // The trace continues the stream after the 2000 warm
            // prompts so both systems serve the same 2000 requests.
            auto traceGen = workload::makeDiffusionDB(seed);
            for (int i = 0; i < 2000; ++i)
                traceGen->next();
            workload::PoissonArrivals arrivals(8.0);
            Rng rng(seed);
            bundle.trace = workload::buildTrace(*traceGen, arrivals,
                                                2000, rng);
            return bundle;
        };
    };

    // 3. Declare and run the sweep: two cells, executed concurrently.
    bench::SweepSpec spec;
    spec.options.title = "quickstart";
    spec.add("MoDM-SDXL", modmConfig, workloadAt(2000));
    spec.add("Vanilla",
             baselines::vanilla(diffusion::sd35Large(), params),
             workloadAt(0)); // no cache to warm
    const auto results = bench::runSweep(spec);
    const auto &modmResult = results[0];
    const auto &vanillaResult = results[1];

    // 4. Quality: score both systems' outputs against reference
    //    generations from the large model.
    eval::MetricSuite metrics;
    diffusion::Sampler reference(seed ^ 0x5ef123ULL);
    std::vector<diffusion::Image> referenceImages;
    for (const auto &p : modmResult.prompts)
        referenceImages.push_back(
            reference.generate(diffusion::sd35Large(), p, 0.0));

    const auto modmQuality = metrics.report(
        modmResult.prompts, modmResult.images, referenceImages);
    const auto vanillaQuality = metrics.report(
        vanillaResult.prompts, vanillaResult.images, referenceImages);

    // 5. Report.
    const double sloThreshold =
        2.0 * diffusion::sd35Large().fullLatency(params.gpu);
    Table table({"system", "throughput/min", "hit rate", "mean k",
                 "p99 latency (s)", "SLO viol (2x)", "CLIP", "FID",
                 "energy (MJ)"});
    auto addRow = [&](const char *name,
                      const serving::ServingResult &r,
                      const eval::QualityReport &q) {
        table.addRow({name,
                      Table::fmt(r.throughputPerMin),
                      Table::fmt(r.hitRate),
                      Table::fmt(r.metrics.meanK(), 1),
                      Table::fmt(r.metrics.latencyPercentile(99.0), 0),
                      Table::fmt(r.metrics.sloViolationRate(sloThreshold)),
                      Table::fmt(q.clip),
                      Table::fmt(q.fid, 1),
                      Table::fmt(r.energyJ / 1e6, 1)});
    };
    addRow("MoDM-SDXL", modmResult, modmQuality);
    addRow("Vanilla", vanillaResult, vanillaQuality);
    table.print("MoDM quickstart: 2000 requests @ 8 req/min, 4x A40");

    std::printf("\nSpeedup over Vanilla: %.2fx\n",
                modmResult.throughputPerMin /
                    vanillaResult.throughputPerMin);
    return 0;
}
