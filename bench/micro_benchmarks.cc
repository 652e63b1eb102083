/**
 * @file
 * Wall-clock micro benchmarks (google-benchmark) for the substrate hot
 * paths. The retrieval number backs the paper's §5.2 claim that
 * retrieval is negligible against 10+ s of de-noising: the exact
 * screened scan over perfbench's 1.2k- and 10k-entry caches of 64-dim
 * embeddings takes microseconds per query on one core, and less split
 * across spare ones.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "src/cache/image_cache.hh"
#include "src/common/kernels.hh"
#include "src/common/rng.hh"
#include "src/common/scan_crew.hh"
#include "src/common/sketch.hh"
#include "src/diffusion/sampler.hh"
#include "src/embedding/encoder.hh"
#include "src/embedding/index.hh"
#include "src/eval/metrics.hh"
#include "src/serving/k_decision.hh"
#include "src/serving/scheduler.hh"
#include "src/sim/event_queue.hh"
#include "src/workload/generator.hh"

using namespace modm;

namespace {

/**
 * The flat scan in the serving regime. Rows are ImageEncoder output over
 * clustered topic content, so every row shares the image-cone anchor and
 * scores crowd together — the regime that sets the screen's cost — and
 * queries are TextEncoder output over the same topics: the generator of
 * Kernels.ScreenRescoresAtMostOnePercentOfImageConeRows.
 */
struct ServingRegime
{
    std::vector<embedding::Embedding> rows;
    std::vector<embedding::Embedding> queries;
};

ServingRegime
servingRegime(std::size_t entries)
{
    constexpr std::size_t kDim = embedding::kEmbeddingDim;
    Rng rng(2718);
    std::vector<Vec> topics;
    for (std::size_t t = 0; t < 64; ++t)
        topics.push_back(randomUnitVec(kDim, rng));
    const embedding::ImageEncoder images;
    const embedding::TextEncoder text;
    ServingRegime regime;
    for (std::size_t i = 0; i < entries; ++i) {
        const Vec content =
            jitterUnitVec(topics[rng.uniformInt(topics.size())], 0.6, rng);
        regime.rows.push_back(
            images.encode(content, rng.uniform(0.6, 1.0), i));
    }
    for (std::size_t q = 0; q < 256; ++q) {
        const Vec concept =
            jitterUnitVec(topics[rng.uniformInt(topics.size())], 0.6, rng);
        regime.queries.push_back(text.encode(
            concept, randomUnitVec(kDim, rng), "query " + std::to_string(q)));
    }
    return regime;
}

/**
 * FlatIndex::best in the serving regime, each iteration the next of 256
 * queries. 1200 and 10000 rows are perfbench's cache sizes, 4096 the
 * split threshold (kSplitScreenRows). With `crew` the index is queried
 * inside a ScanScope, as ServingSystem::run does: from 4096 rows each
 * query is split across up to three helpers on free CPUs (none under a
 * one-CPU `taskset`, where both arms run the serial scan), while 1200
 * rows stay serial.
 */
void
indexRetrieval(benchmark::State &state, bool crew)
{
    const std::size_t entries = state.range(0);
    const ServingRegime regime = servingRegime(entries);
    embedding::FlatIndex index;
    index.reserve(entries);
    for (std::size_t i = 0; i < entries; ++i)
        index.insert(i, regime.rows[i]);
    std::optional<ScanScope> scope;
    if (crew) {
        scope.emplace();
        // The helpers start on the first large screen, outside timing.
        benchmark::DoNotOptimize(index.best(regime.queries[0]));
    }
    std::size_t next = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(index.best(regime.queries[next]));
        next = (next + 1) % regime.queries.size();
    }
    state.SetItemsProcessed(state.iterations() * entries);
}

void
BM_IndexRetrieval(benchmark::State &state)
{
    indexRetrieval(state, false);
}
BENCHMARK(BM_IndexRetrieval)->Arg(1200)->Arg(4096)->Arg(10000);

void
BM_IndexRetrievalCrew(benchmark::State &state)
{
    indexRetrieval(state, true);
}
BENCHMARK(BM_IndexRetrievalCrew)->Arg(1200)->Arg(4096)->Arg(10000);

/**
 * The screen's bare kernel over the same rows: kernels::screenSums over
 * every block of the sketch in the screen's 256-row batches, against
 * limits no sum exceeds, so no row is flagged and nothing is bounded or
 * re-scored. BM_IndexRetrieval over this is what the screen costs
 * beyond its sums.
 */
void
BM_ScreenSums(benchmark::State &state)
{
    constexpr std::size_t kBatchRows = 256;
    const std::size_t entries = state.range(0);
    const ServingRegime regime = servingRegime(entries);
    AlignedRows rows(embedding::kEmbeddingDim);
    RowSketch sketch(embedding::kEmbeddingDim);
    for (const auto &row : regime.rows) {
        rows.pushBack(row.vec().data());
        sketch.pushBack(rows);
    }
    std::vector<SketchQuery> queries(regime.queries.size());
    for (std::size_t q = 0; q < queries.size(); ++q)
        queries[q].prepare(regime.queries[q].vec().data(), sketch);
    const std::vector<std::int32_t> limits(
        kBatchRows / 8, std::numeric_limits<std::int32_t>::max());
    std::vector<std::int32_t> sums(kBatchRows);
    std::vector<std::uint32_t> flagged(kBatchRows);
    std::size_t next = 0;
    for (auto _ : state) {
        const std::int8_t *codes = queries[next].codes();
        std::size_t count = 0;
        for (std::size_t base = 0; base < entries; base += kBatchRows) {
            const std::size_t blocks =
                (std::min(kBatchRows, entries - base) + 7) / 8;
            count += kernels::screenSums(codes, sketch.blocks(base),
                                         sketch.groups(), blocks,
                                         limits.data(), sums.data(),
                                         flagged.data());
            benchmark::DoNotOptimize(sums.data());
        }
        benchmark::DoNotOptimize(count);
        benchmark::ClobberMemory();
        next = (next + 1) % queries.size();
    }
    state.SetItemsProcessed(state.iterations() * entries);
}
BENCHMARK(BM_ScreenSums)->Arg(10000);

/**
 * The re-score's portable inner loop: modm::dot's 4-way unrolled
 * multi-accumulator against the single-accumulator chain it replaced,
 * at the 64-dim embedding width. The chain serializes on FP-add
 * latency (the compiler must preserve the summation order), so the
 * unrolled version should win by the add-latency x SIMD-width product
 * on a vectorizing build.
 */
double
dotScalarChain(const float *a, const float *b, std::size_t n)
{
    double acc = 0.0;
    for (std::size_t i = 0; i < n; ++i)
        acc += static_cast<double>(a[i]) * static_cast<double>(b[i]);
    return acc;
}

void
BM_DotScalarChain(benchmark::State &state)
{
    const std::size_t dim = state.range(0);
    Rng rng(7);
    const Vec a = randomUnitVec(dim, rng);
    const Vec b = randomUnitVec(dim, rng);
    for (auto _ : state)
        benchmark::DoNotOptimize(
            dotScalarChain(a.data(), b.data(), dim));
    state.SetItemsProcessed(state.iterations() * dim);
}
BENCHMARK(BM_DotScalarChain)->Arg(64);

void
BM_DotUnrolled(benchmark::State &state)
{
    const std::size_t dim = state.range(0);
    Rng rng(7);
    const Vec a = randomUnitVec(dim, rng);
    const Vec b = randomUnitVec(dim, rng);
    for (auto _ : state)
        benchmark::DoNotOptimize(dot(a.data(), b.data(), dim));
    state.SetItemsProcessed(state.iterations() * dim);
}
BENCHMARK(BM_DotUnrolled)->Arg(64);

/**
 * The Gaussian draw under every encode, sampler call and generated
 * prompt: one gaussianVec at the 64-dim embedding width.
 */
void
BM_GaussianVec(benchmark::State &state)
{
    const std::size_t dim = static_cast<std::size_t>(state.range(0));
    Rng rng(7);
    for (auto _ : state)
        benchmark::DoNotOptimize(gaussianVec(dim, rng));
    state.SetItemsProcessed(state.iterations() * dim);
}
BENCHMARK(BM_GaussianVec)->Arg(64);

/** The batch alone: Rng::normalFloats into one reused buffer. */
void
BM_NormalFloats(benchmark::State &state)
{
    const std::size_t dim = static_cast<std::size_t>(state.range(0));
    Rng rng(7);
    std::vector<float> out(dim);
    for (auto _ : state) {
        rng.normalFloats(out.data(), dim);
        benchmark::DoNotOptimize(out.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() * dim);
}
BENCHMARK(BM_NormalFloats)->Arg(64);

/**
 * 256 fixed prompts the encoder and sampler benchmarks cycle through,
 * as BM_IndexRetrieval cycles its queries: one repeated prompt would
 * repeat every angle and radius, keeping libm's branches predicted.
 */
const std::vector<workload::Prompt> &
benchPrompts()
{
    static const std::vector<workload::Prompt> prompts = [] {
        workload::DiffusionDBModel gen({}, 3);
        std::vector<workload::Prompt> out;
        for (int i = 0; i < 256; ++i)
            out.push_back(gen.next());
        return out;
    }();
    return prompts;
}

void
BM_TextEncode(benchmark::State &state)
{
    const auto &prompts = benchPrompts();
    embedding::TextEncoder text;
    std::size_t next = 0;
    for (auto _ : state) {
        const auto &p = prompts[next];
        benchmark::DoNotOptimize(
            text.encode(p.visualConcept, p.lexicalStyle, p.text));
        next = (next + 1) % prompts.size();
    }
}
BENCHMARK(BM_TextEncode);

/**
 * Set-up's prompt layer: one DiffusionDBModel::next, the call
 * buildScenarioWorkload makes per warm prompt and per request (session
 * bookkeeping, two in-place jitters and a realized text).
 */
void
BM_PromptGeneration(benchmark::State &state)
{
    workload::DiffusionDBModel gen({}, 3);
    for (auto _ : state)
        benchmark::DoNotOptimize(gen.next());
}
BENCHMARK(BM_PromptGeneration);

/**
 * Set-up's admission layer under k = 2 replication: the origin
 * scheduler computes one generation's admission key (one image encode)
 * and two owner shards file the image under it. Both shards are full
 * 10k-entry FIFO caches, perfbench cluster_failover's shard size, so
 * each insert also evicts. The 256 generations are reused with fresh
 * ids.
 */
void
BM_ReplicatedAdmission(benchmark::State &state)
{
    const auto &prompts = benchPrompts();
    diffusion::Sampler sampler(5);
    std::vector<diffusion::Image> images;
    for (const auto &p : prompts)
        images.push_back(sampler.generate(diffusion::sd35Large(), p, 0.0));
    serving::ServingConfig config;
    serving::RequestScheduler origin(config);
    serving::RequestScheduler replica(config);
    const embedding::Embedding noText;
    embedding::Embedding imageKey;
    std::uint64_t id = 0;
    const auto admit = [&](diffusion::Image &image) {
        image.id = id++;
        const embedding::Embedding *key =
            origin.admissionKey(image, noText, true, imageKey);
        origin.admitKeyed(image, *key, 0.0);
        replica.admitKeyed(image, *key, 0.0);
    };
    while (id < config.cacheCapacity)
        admit(images[id % images.size()]);
    std::size_t next = 0;
    for (auto _ : state) {
        admit(images[next]);
        next = (next + 1) % images.size();
    }
}
BENCHMARK(BM_ReplicatedAdmission);

void
BM_SamplerGenerate(benchmark::State &state)
{
    const auto &prompts = benchPrompts();
    diffusion::Sampler sampler(5);
    const auto model = diffusion::sd35Large();
    std::size_t next = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(sampler.generate(model, prompts[next], 0.0));
        next = (next + 1) % prompts.size();
    }
}
BENCHMARK(BM_SamplerGenerate);

void
BM_SamplerRefine(benchmark::State &state)
{
    const auto &prompts = benchPrompts();
    diffusion::Sampler sampler(5);
    std::vector<diffusion::Image> bases;
    for (const auto &p : prompts)
        bases.push_back(sampler.generate(diffusion::sd35Large(), p, 0.0));
    const auto model = diffusion::sdxl();
    std::size_t next = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            sampler.refine(model, prompts[next], bases[next], 20, 0.0));
        next = (next + 1) % prompts.size();
    }
}
BENCHMARK(BM_SamplerRefine);

void
BM_CacheInsertEvict(benchmark::State &state)
{
    Rng rng(7);
    workload::DiffusionDBModel gen({}, 3);
    diffusion::Sampler sampler(5);
    cache::ImageCache cache(1000, cache::EvictionPolicy::FIFO);
    std::vector<diffusion::Image> images;
    for (int i = 0; i < 2000; ++i)
        images.push_back(
            sampler.generate(diffusion::sd35Large(), gen.next(), 0.0));
    std::size_t i = 0;
    double now = 0.0;
    for (auto _ : state) {
        auto img = images[i % images.size()];
        img.id = 1000000 + i; // fresh id per insert
        cache.insert(img, now);
        ++i;
        now += 1.0;
    }
}
BENCHMARK(BM_CacheInsertEvict);

void
BM_KDecision(benchmark::State &state)
{
    serving::KDecision kd;
    double sim = 0.25;
    for (auto _ : state) {
        benchmark::DoNotOptimize(kd.decide(sim));
        sim = sim >= 0.33 ? 0.25 : sim + 0.001;
    }
}
BENCHMARK(BM_KDecision);

void
BM_FidComputation(benchmark::State &state)
{
    workload::DiffusionDBModel gen({}, 3);
    diffusion::Sampler a(5), b(6);
    eval::MetricSuite metrics;
    std::vector<diffusion::Image> x, y;
    for (int i = 0; i < 500; ++i) {
        const auto p = gen.next();
        x.push_back(a.generate(diffusion::sd35Large(), p, 0.0));
        y.push_back(b.generate(diffusion::sd35Large(), p, 0.0));
    }
    for (auto _ : state)
        benchmark::DoNotOptimize(metrics.fid(x, y));
}
BENCHMARK(BM_FidComputation);

void
BM_EventQueueScheduleRun(benchmark::State &state)
{
    for (auto _ : state) {
        sim::EventQueue q;
        int acc = 0;
        for (int i = 0; i < 1000; ++i)
            q.schedule(static_cast<double>(i % 97), [&acc] { ++acc; });
        q.runAll();
        benchmark::DoNotOptimize(acc);
    }
    state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventQueueScheduleRun);

} // namespace

BENCHMARK_MAIN();
