/**
 * @file
 * Design-choice ablation (paper §5.3, Q.9): Quality-Optimized vs
 * Throughput-Optimized monitor modes.
 *
 * At low request rates the quality-optimized mode serves cache hits
 * with the *large* model when capacity allows, recovering quality; the
 * throughput-optimized mode always refines with the small model. This
 * ablation sweeps the request rate and reports, per mode, the SLO
 * compliance and the fraction of hits refined by the large model plus
 * end-to-end CLIP.
 */

#include <cstdio>

#include "bench/sweep.hh"

using namespace modm;

int
main()
{
    baselines::PresetParams params;
    params.numWorkers = 16;
    params.gpu = diffusion::GpuKind::MI210;
    params.cacheCapacity = 2500;
    params.keepOutputs = true;

    const std::vector<double> rates = {6.0, 12.0, 20.0};
    const std::vector<serving::MonitorMode> modes = {
        serving::MonitorMode::QualityOptimized,
        serving::MonitorMode::ThroughputOptimized};

    bench::SweepSpec spec;
    spec.options.title = "Ablation modes";
    for (const double rate : rates) {
        for (const auto mode : modes) {
            auto config = baselines::modm(diffusion::sd35Large(),
                                          diffusion::sdxl(), params);
            config.mode = mode;
            spec.add(std::string(serving::monitorModeName(mode)) + "@" +
                         Table::fmt(rate, 0),
                     config, [rate] {
                         return workload::buildScenarioWorkload(
                             {.warm = 2500, .requests = 1200, .rate = rate});
                     });
        }
    }
    const auto results = bench::runSweep(spec);

    eval::MetricSuite metrics;
    const double slo =
        2.0 * diffusion::sd35Large().fullLatency(params.gpu);
    Table t({"rate/min", "mode", "hits on large", "CLIP",
             "SLO viol (2x)", "throughput/min"});
    for (std::size_t r = 0; r < rates.size(); ++r) {
        for (std::size_t m = 0; m < modes.size(); ++m) {
            const auto &result = results[r * modes.size() + m];
            std::size_t hits = 0, hitsOnLarge = 0;
            for (const auto &rec : result.metrics.records()) {
                if (!rec.cacheHit)
                    continue;
                ++hits;
                hitsOnLarge += rec.servedBy == "SD3.5L";
            }
            double clip = 0.0;
            for (std::size_t i = 0; i < result.images.size(); ++i)
                clip += metrics.clipScore(result.prompts[i],
                                          result.images[i]);
            clip /= static_cast<double>(result.images.size());

            t.addRow({Table::fmt(rates[r], 0),
                      serving::monitorModeName(modes[m]),
                      hits ? Table::fmt(static_cast<double>(hitsOnLarge) /
                                        hits, 2)
                           : "-",
                      Table::fmt(clip),
                      Table::fmt(result.metrics.sloViolationRate(slo)),
                      Table::fmt(result.throughputPerMin)});
        }
    }
    t.print("Ablation — monitor operating modes (16x MI210; paper Q.9: "
            "quality mode serves hits with the large model when load "
            "allows)");
    return 0;
}
