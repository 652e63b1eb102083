/**
 * @file
 * Paper Fig. 9 (DiffusionDB) and Fig. 19 (MJHQ): cache hit rates and
 * skipped-step (k) distributions for Nirvana vs MoDM under the
 * cache-large-only and cache-all admission policies, across cache
 * sizes.
 *
 * Paper shape: MoDM > Nirvana everywhere; cache-all > cache-large on
 * DiffusionDB (temporal locality) but not on MJHQ; larger caches help;
 * MoDM's text-to-image retrieval assigns larger k.
 */

#include <cstdio>

#include "bench/sweep.hh"
#include "src/serving/scheduler.hh"

using namespace modm;

namespace {

constexpr std::size_t kRequests = 8000;

struct CellResult
{
    double hitRate = 0.0;
    std::map<int, double> kDist;
};

/** A dataset's prompt-stream factory (workload::makeDiffusionDB, ...). */
using MakeGenerator =
    std::unique_ptr<workload::TraceGenerator> (*)(std::uint64_t seed);

/**
 * Streamed classification over `requests` prompts with runtime
 * admission — the cache-path-only equivalent of a serving run.
 */
CellResult
streamOne(const serving::ServingConfig &config, MakeGenerator makeGen,
          std::size_t warm, std::size_t requests)
{
    auto gen = makeGen(42);
    serving::RequestScheduler scheduler(config);
    scheduler.reserveCache(warm);
    diffusion::Sampler sampler(config.seed ^ 0x5a3b1e9cULL);

    for (std::size_t i = 0; i < warm; ++i) {
        const auto p = gen->next();
        const auto img = sampler.generate(config.largeModel, p, 0.0);
        const auto te = scheduler.textEncoder().encode(
            p.visualConcept, p.lexicalStyle, p.text);
        scheduler.admitGenerated(img, te, true, 0.0);
    }

    const auto small = config.smallModels.empty()
        ? config.largeModel
        : config.smallModels.front();
    for (std::size_t i = 0; i < requests; ++i) {
        workload::Request request;
        request.prompt = gen->next();
        request.arrival = static_cast<double>(i);
        const auto job = scheduler.classify(request, request.arrival);
        diffusion::Image img;
        if (job.hit && !job.direct) {
            const auto &model = config.kind == serving::SystemKind::MoDM
                ? small
                : config.largeModel;
            img = sampler.refine(model, request.prompt, job.base, job.k,
                                 request.arrival);
        } else if (!job.hit) {
            img = sampler.generate(config.largeModel, request.prompt,
                                   request.arrival);
        } else {
            continue; // direct return: nothing new to admit
        }
        scheduler.admitGenerated(img, job.textEmbedding, !job.hit,
                                 request.arrival);
    }

    CellResult out;
    const auto &stats = scheduler.stats();
    out.hitRate = static_cast<double>(stats.hits) /
        static_cast<double>(stats.classified);
    double hits = static_cast<double>(stats.hits);
    for (const auto &[k, count] : stats.kCounts)
        out.kDist[k] = hits > 0 ? count / hits : 0.0;
    return out;
}

/** The three systems compared at one cache size. */
std::vector<std::pair<std::string, serving::ServingConfig>>
lineupFor(std::size_t size)
{
    baselines::PresetParams params;
    params.cacheCapacity = size;

    std::vector<std::pair<std::string, serving::ServingConfig>> row;
    row.emplace_back("NIRVANA",
                     baselines::nirvana(diffusion::sd35Large(), params));
    auto cacheLarge = baselines::modm(diffusion::sd35Large(),
                                      diffusion::sdxl(), params);
    cacheLarge.admission = serving::AdmissionPolicy::CacheLargeOnly;
    row.emplace_back("MoDM cache-large", cacheLarge);
    row.emplace_back("MoDM cache-all",
                     baselines::modm(diffusion::sd35Large(),
                                     diffusion::sdxl(), params));
    return row;
}

void
runDataset(MakeGenerator makeGen, const char *dataset,
           const std::vector<std::size_t> &sizes, const char *figure)
{
    std::vector<std::function<CellResult()>> cells;
    std::vector<std::string> labels;
    std::vector<std::pair<std::size_t, std::string>> grid;
    for (const std::size_t size : sizes) {
        for (const auto &[name, config] : lineupFor(size)) {
            grid.emplace_back(size, name);
            labels.push_back(name + "/size=" + std::to_string(size));
            cells.push_back([config = config, makeGen, size] {
                return streamOne(config, makeGen,
                                 std::min(size, kRequests / 2),
                                 kRequests);
            });
        }
    }
    bench::SweepOptions options;
    options.title = figure;
    const auto results =
        bench::runCells(std::move(cells), options, labels);

    Table t({"cache size", "system", "hit rate", "k=5", "k=10", "k=15",
             "k=20", "k=25", "k=30"});
    for (std::size_t i = 0; i < grid.size(); ++i) {
        const auto &result = results[i];
        std::vector<std::string> cellsRow = {
            Table::fmt(static_cast<std::uint64_t>(grid[i].first)),
            grid[i].second, Table::fmt(result.hitRate, 3)};
        for (int k : {5, 10, 15, 20, 25, 30}) {
            const auto it = result.kDist.find(k);
            cellsRow.push_back(it == result.kDist.end()
                                   ? "-"
                                   : Table::fmt(it->second, 2));
        }
        t.addRow(cellsRow);
    }
    t.print(std::string(figure) + " — hit rates and k distribution, " +
            dataset + " (8000 requests)");
}

} // namespace

int
main()
{
    // Paper sizes {1k, 10k, 100k} scaled to the 8k-request stream.
    runDataset(workload::makeDiffusionDB, "DiffusionDB", {500, 2000, 8000},
               "Fig. 9");
    // Fig. 19 uses only the two smaller sizes (MJHQ has 30k prompts).
    runDataset(workload::makeMJHQ, "MJHQ", {500, 2000}, "Fig. 19");
    return 0;
}
