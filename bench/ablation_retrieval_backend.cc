/**
 * @file
 * Retrieval-backend ablation: exact flat scan vs IVF, HNSW, and IVF-PQ,
 * swept over the search knobs (nprobe / efSearch) and cache size, with
 * a scale pass at 100k and 1M rows x 512 dims.
 *
 * The paper never explored approximate retrieval — its 100k-entry flat
 * scan is already negligible against 10+ s of denoising. At production
 * scale (1M+ entries, sub-millisecond budgets) the backend becomes a
 * real trade-off surface, so this ablation measures all five axes at
 * once: serving hit rate, CLIP-score quality of the served images,
 * recall@1 vs the exact scan (an approximate hit may refine from a
 * different cached image), raw retrieval latency per query, and bytes
 * per entry (the memory-budget axis — IVF-PQ's whole reason to exist).
 *
 * The scale pass also pins the acceptance floor of the backend work as
 * hard assertions: at 1M x 512, HNSW must beat the serial flat scan by
 * >= 5x at recall@1 >= 0.95, and IVF-PQ must be >= 8x smaller per
 * entry than flat rows at recall@1 >= 0.9.
 *
 * Environment knobs (both for the CI determinism diff):
 *  - MODM_RETRIEVAL_NOTIME=1  print "-" for the wall-clock columns and
 *    skip the timing-dependent assertions; every remaining byte of
 *    stdout is then a pure function of the configuration, so the
 *    output diffs clean across runs and sweep-parallelism levels.
 *  - MODM_RETRIEVAL_SCALE=N[,N...]  override the scale-pass row counts
 *    (default "100000,1000000"); 0 skips the scale pass entirely.
 *  - MODM_SWEEP_CACHE=1  persist per-cell results (sweep_cache.hh):
 *    a re-run with unchanged code and config replays every cell —
 *    including the measured wall-clock columns — so warm output is
 *    byte-identical to the cold run at a fraction of the cost.
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <string>

#include "bench/sweep.hh"
#include "src/common/kernels.hh"
#include "src/common/log.hh"
#include "src/common/rng.hh"
#include "src/common/vec.hh"
#include "src/embedding/vector_index.hh"
#include "src/eval/metrics.hh"

using namespace modm;

namespace {

constexpr std::size_t kTraceRequests = 4000;
constexpr std::size_t kLatencyQueries = 400;
constexpr std::size_t kScaleDim = 512;
constexpr std::size_t kScaleQueries = 100;
constexpr std::size_t kScaleClusters = 128;

bool
noTime()
{
    const char *env = std::getenv("MODM_RETRIEVAL_NOTIME");
    return env != nullptr && std::strcmp(env, "1") == 0;
}

std::vector<std::size_t>
scaleSizes()
{
    std::vector<std::size_t> sizes;
    const char *env = std::getenv("MODM_RETRIEVAL_SCALE");
    const std::string spec =
        env != nullptr ? env : "100000,1000000";
    std::size_t start = 0;
    while (start < spec.size()) {
        std::size_t comma = spec.find(',', start);
        if (comma == std::string::npos)
            comma = spec.size();
        const std::size_t rows = static_cast<std::size_t>(
            std::strtoull(spec.substr(start, comma - start).c_str(),
                          nullptr, 10));
        if (rows > 0)
            sizes.push_back(rows);
        start = comma + 1;
    }
    return sizes;
}

/** Wall-clock column, or "-" under MODM_RETRIEVAL_NOTIME. */
std::string
timeCol(double value, int digits)
{
    return noTime() ? "-" : Table::fmt(value, digits);
}

/**
 * Cache-key prefix shared by every cell: binary + pass name, the
 * pinned workload constants, and the run modes that change what a
 * cell computes (no-timing zeroes the latency columns; the kernel
 * tier changes the measured wall times).
 */
std::string
cacheKey(const std::string &pass, const std::string &cell)
{
    return "ablation_retrieval_backend/" + pass + " v1 " + cell +
        " requests=" + std::to_string(kTraceRequests) +
        " latencyQueries=" + std::to_string(kLatencyQueries) +
        " notime=" + (noTime() ? "1" : "0") +
        " kernel=" + kernels::active().name;
}

/** Exact-row oracle over an embedding vector; ids are 1 + position. */
class EmbeddingRowSource final : public embedding::RowSource
{
  public:
    explicit EmbeddingRowSource(
        const std::vector<embedding::Embedding> &rows)
        : rows_(rows)
    {
    }

    const float *row(std::uint64_t id) const override
    {
        return id >= 1 && id <= rows_.size()
            ? rows_[id - 1].vec().data()
            : nullptr;
    }

  private:
    const std::vector<embedding::Embedding> &rows_;
};

/**
 * Immutable embedding rows + queries for the latency pass, built once
 * per cache size and shared read-only across that size's cells (the
 * rows are identical for every backend; only the index differs).
 */
struct LatencyData
{
    std::vector<embedding::Embedding> rows;
    std::vector<embedding::Embedding> queries;
};

std::shared_ptr<const LatencyData>
makeLatencyData(std::size_t cacheSize)
{
    auto data = std::make_shared<LatencyData>();
    auto gen = workload::makeDiffusionDB(7);
    diffusion::Sampler sampler(11);
    embedding::ImageEncoder image;
    embedding::TextEncoder text;
    data->rows.reserve(cacheSize);
    for (std::size_t i = 0; i < cacheSize; ++i) {
        const auto img =
            sampler.generate(diffusion::sd35Large(), gen->next(), 0.0);
        data->rows.push_back(
            image.encode(img.content, img.fidelity, img.id));
    }
    data->queries.reserve(kLatencyQueries);
    for (std::size_t q = 0; q < kLatencyQueries; ++q) {
        const auto p = gen->next();
        data->queries.push_back(
            text.encode(p.visualConcept, p.lexicalStyle, p.text));
    }
    return data;
}

/** One (backend, cache size) configuration under ablation. */
struct BackendPoint
{
    std::string name;
    embedding::RetrievalBackendConfig retrieval;
    std::size_t cacheSize;
    std::shared_ptr<const LatencyData> latencyData;
};

/** Everything one cell measures. */
struct CellResult
{
    double hitRate = 0.0;
    double clip = 0.0;
    double recall = 1.0;
    double usPerQuery = 0.0;
    double bytesPerEntry = 0.0;
};

serving::ServingConfig
makeConfig(const BackendPoint &point)
{
    serving::ServingConfig config;
    config.kind = serving::SystemKind::MoDM;
    config.cacheCapacity = point.cacheSize;
    config.retrieval = point.retrieval;
    config.keepOutputs = true;
    return config;
}

/**
 * Index footprint and mean retrieval latency of the backend over the
 * cell's shared embedding set (the same image-embedding distribution
 * the serving run caches). The bytes column is deterministic; the
 * latency column is wall time and is skipped under no-timing mode.
 */
void
measureIndex(const BackendPoint &point, CellResult &out)
{
    const LatencyData &data = *point.latencyData;
    auto index =
        embedding::makeVectorIndex(point.retrieval,
                                   embedding::kEmbeddingDim);
    const EmbeddingRowSource source(data.rows);
    index->setRowSource(&source);
    index->reserve(data.rows.size());
    for (std::size_t i = 0; i < data.rows.size(); ++i)
        index->insert(1 + i, data.rows[i]);
    out.bytesPerEntry = static_cast<double>(index->memoryBytes()) /
        static_cast<double>(data.rows.size());
    if (noTime())
        return;
    double sink = 0.0;
    const auto start = std::chrono::steady_clock::now();
    for (const auto &q : data.queries)
        sink += index->best(q).similarity;
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    // Keep the scans observable so the loop cannot be elided.
    if (sink == -1e30)
        std::fprintf(stderr, "impossible\n");
    out.usPerQuery =
        seconds * 1e6 / static_cast<double>(data.queries.size());
}

CellResult
runCell(const BackendPoint &point)
{
    const auto config = makeConfig(point);
    const auto bundle = bench::batchBundle(
        bench::Dataset::DiffusionDB, point.cacheSize, kTraceRequests);
    const auto result = bench::runSystem(config, bundle);

    CellResult out;
    out.hitRate = result.hitRate;
    out.recall = result.retrievalRecallAt1;
    eval::MetricSuite metrics;
    double clipSum = 0.0;
    for (std::size_t i = 0; i < result.images.size(); ++i)
        clipSum += metrics.clipScore(result.prompts[i],
                                     result.images[i]);
    out.clip = result.images.empty()
        ? 0.0
        : clipSum / static_cast<double>(result.images.size());
    measureIndex(point, out);
    return out;
}

// ---------------------------------------------------------------------
// Scale pass: the backends against a 512-dim clustered row set at
// 100k / 1M rows — the regime the serving grid cannot reach (its rows
// come from full generation runs). Build, measure, destroy, one
// backend at a time, against one shared row buffer.
// ---------------------------------------------------------------------

/** Exact-row oracle over the shared scale buffer; ids are positions. */
class BufferRowSource final : public embedding::RowSource
{
  public:
    BufferRowSource(const std::vector<float> &buffer, std::size_t dim)
        : buffer_(buffer), dim_(dim)
    {
    }

    const float *row(std::uint64_t id) const override
    {
        const std::size_t offset = id * dim_;
        return offset + dim_ <= buffer_.size() ? &buffer_[offset]
                                               : nullptr;
    }

  private:
    const std::vector<float> &buffer_;
    std::size_t dim_;
};

struct ScaleData
{
    std::vector<float> rows; // rowCount x kScaleDim, row-major
    std::size_t rowCount = 0;
    std::vector<embedding::Embedding> queries;
};

ScaleData
makeScaleData(std::size_t rows)
{
    // Clustered rows (jittered cluster centers): the regime CLIP
    // embeddings of production traffic live in, and the one where a
    // coarse quantizer or a navigable graph pays off.
    Rng centerRng(3);
    std::vector<Vec> centers;
    centers.reserve(kScaleClusters);
    for (std::size_t c = 0; c < kScaleClusters; ++c)
        centers.push_back(randomUnitVec(kScaleDim, centerRng));

    ScaleData data;
    data.rowCount = rows;
    data.rows.resize(rows * kScaleDim);
    Rng rowRng(7);
    for (std::size_t i = 0; i < rows; ++i) {
        const auto &center = centers[rowRng.uniformInt(centers.size())];
        const Vec v = jitterUnitVec(center, 0.45, rowRng);
        std::memcpy(&data.rows[i * kScaleDim], v.data(),
                    kScaleDim * sizeof(float));
    }
    Rng queryRng(11);
    data.queries.reserve(kScaleQueries);
    for (std::size_t q = 0; q < kScaleQueries; ++q) {
        const auto &center =
            centers[queryRng.uniformInt(centers.size())];
        data.queries.push_back(
            embedding::Embedding(jitterUnitVec(center, 0.45, queryRng)));
    }
    return data;
}

struct ScaleResult
{
    double recall = 1.0;
    double usPerQuery = 0.0;
    double bytesPerEntry = 0.0;
};

/**
 * Build the configured backend over the shared buffer, then measure
 * recall@1 against `truth` (exact best ids, recorded by the flat pass
 * when `truthOut` is set) and mean query latency. The buffer doubles
 * as the exact re-rank oracle for IVF-PQ.
 */
ScaleResult
runScaleCell(const embedding::RetrievalBackendConfig &config,
             const ScaleData &data,
             const std::vector<std::uint64_t> &truth,
             std::vector<std::uint64_t> *truthOut = nullptr)
{
    auto index = embedding::makeVectorIndex(config, kScaleDim);
    const BufferRowSource source(data.rows, kScaleDim);
    index->setRowSource(&source);
    index->reserve(data.rowCount);
    for (std::size_t i = 0; i < data.rowCount; ++i) {
        embedding::Embedding row(
            Vec(&data.rows[i * kScaleDim],
                &data.rows[(i + 1) * kScaleDim]));
        index->insert(i, row);
    }

    ScaleResult out;
    out.bytesPerEntry = static_cast<double>(index->memoryBytes()) /
        static_cast<double>(data.rowCount);
    std::size_t correct = 0;
    double sink = 0.0;
    const auto start = std::chrono::steady_clock::now();
    for (std::size_t q = 0; q < data.queries.size(); ++q) {
        const auto match = index->best(data.queries[q]);
        sink += match.similarity;
        if (truthOut != nullptr)
            truthOut->push_back(match.id);
        if (!truth.empty() && match.id == truth[q])
            ++correct;
    }
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    if (sink == -1e30)
        std::fprintf(stderr, "impossible\n");
    out.usPerQuery =
        seconds * 1e6 / static_cast<double>(data.queries.size());
    out.recall = truth.empty()
        ? 1.0
        : static_cast<double>(correct) /
            static_cast<double>(data.queries.size());
    return out;
}

void
runScalePass()
{
    const auto sizes = scaleSizes();
    if (sizes.empty())
        return;

    Table t({"backend", "rows", "recall@1", "retrieval us/query",
             "bytes/entry", "speedup vs flat"});
    struct PinnedCell
    {
        std::size_t rows;
        ScaleResult flat, hnsw, pq;
    };
    std::vector<PinnedCell> pinned;
    for (const std::size_t rows : sizes) {
        // Lazy: a fully-warm size replays all three cells from the
        // sweep cache without ever generating the row set.
        std::optional<ScaleData> lazyData;
        const auto data = [&]() -> const ScaleData & {
            if (!lazyData)
                lazyData = makeScaleData(rows);
            return *lazyData;
        };
        const auto cellOf = [&](const char *backend) {
            return cacheKey("scale",
                            std::string("backend=") + backend +
                                " rows=" + std::to_string(rows) +
                                " dim=" + std::to_string(kScaleDim) +
                                " queries=" +
                                std::to_string(kScaleQueries));
        };

        embedding::RetrievalBackendConfig flat;
        // Exact ground-truth ids come from the flat pass itself; they
        // travel in the cached payload behind the three measurements
        // so warm approximate cells score against the same truth.
        std::vector<std::uint64_t> truth;
        truth.reserve(kScaleQueries);
        const auto flatVals = bench::cachedCell(
            cellOf("Flat"), 3 + kScaleQueries, [&] {
                std::vector<std::uint64_t> ids;
                ids.reserve(kScaleQueries);
                const auto r = runScaleCell(flat, data(), {}, &ids);
                std::vector<double> v{r.recall, r.usPerQuery,
                                      r.bytesPerEntry};
                for (const std::uint64_t id : ids)
                    v.push_back(static_cast<double>(id));
                return v;
            });
        const ScaleResult flatResult{flatVals[0], flatVals[1],
                                     flatVals[2]};
        for (std::size_t q = 0; q < kScaleQueries; ++q)
            truth.push_back(
                static_cast<std::uint64_t>(flatVals[3 + q]));

        const auto approxCell =
            [&](const embedding::RetrievalBackendConfig &config,
                const char *name) {
                const auto vals = bench::cachedCell(
                    cellOf(name), 3, [&] {
                        const auto r =
                            runScaleCell(config, data(), truth);
                        return std::vector<double>{r.recall,
                                                   r.usPerQuery,
                                                   r.bytesPerEntry};
                    });
                return ScaleResult{vals[0], vals[1], vals[2]};
            };

        embedding::RetrievalBackendConfig hnsw;
        hnsw.kind = embedding::RetrievalBackend::Hnsw;
        hnsw.hnswM = 16;
        hnsw.efConstruction = 96;
        // The query beam must track rows-per-cluster, not row count:
        // at 1M rows the ~7.8k-row near-tie clusters need ef in the
        // hundreds before the beam reliably reaches the argmax (96
        // recalls only ~0.74 there; 768 measures 1.000 at the same
        // density). Still ~50x faster than the serial flat scan.
        hnsw.efSearch = 768;
        const auto hnswResult = approxCell(hnsw, "HNSW/M=16/ef=768");

        embedding::RetrievalBackendConfig pq;
        pq.kind = embedding::RetrievalBackend::IvfPq;
        pq.nlist = 256; // ~sqrt-scale list count at 1M rows
        pq.nprobe = 32;
        pq.pqM = 16; // 32-dim subspaces: 16 B codes, 128x under flat
        const auto pqResult =
            approxCell(pq, "IVF-PQ/m=16/nprobe=32");

        const auto addRow = [&](const std::string &name,
                                const ScaleResult &r) {
            t.addRow({name, Table::fmt(rows), Table::fmt(r.recall, 3),
                      timeCol(r.usPerQuery, 1),
                      Table::fmt(r.bytesPerEntry, 1),
                      noTime() || r.usPerQuery <= 0.0
                          ? std::string("-")
                          : Table::fmt(flatResult.usPerQuery /
                                           r.usPerQuery,
                                       2)});
        };
        addRow("Flat", flatResult);
        addRow("HNSW/M=16/ef=768", hnswResult);
        addRow("IVF-PQ/m=16/nprobe=32", pqResult);

        if (rows >= 1000000)
            pinned.push_back({rows, flatResult, hnswResult, pqResult});
    }
    t.print("Scale pass — backends at " +
            std::to_string(kScaleDim) +
            "-dim production width (serial scans, clustered rows; "
            "recall@1 vs exhaustive scan over " +
            std::to_string(kScaleQueries) + " queries)");

    // The acceptance floor of the backend work, pinned as hard
    // assertions at million-row scale — after the table prints, so a
    // failing run still shows its numbers.
    for (const auto &p : pinned) {
        MODM_ASSERT(p.hnsw.recall >= 0.95,
                    "HNSW recall@1 %.3f < 0.95 at %zu rows",
                    p.hnsw.recall, p.rows);
        MODM_ASSERT(p.pq.recall >= 0.9,
                    "IVF-PQ recall@1 %.3f < 0.9 at %zu rows",
                    p.pq.recall, p.rows);
        MODM_ASSERT(p.flat.bytesPerEntry >= 8.0 * p.pq.bytesPerEntry,
                    "IVF-PQ bytes/entry %.1f not >= 8x smaller "
                    "than flat's %.1f",
                    p.pq.bytesPerEntry, p.flat.bytesPerEntry);
        if (!noTime())
            MODM_ASSERT(p.flat.usPerQuery >= 5.0 * p.hnsw.usPerQuery,
                        "HNSW %.1f us/query not >= 5x faster than "
                        "serial flat's %.1f",
                        p.hnsw.usPerQuery, p.flat.usPerQuery);
    }
}

} // namespace

int
main()
{
    std::vector<BackendPoint> points;
    for (const std::size_t cacheSize :
         {std::size_t{1000}, std::size_t{4000}}) {
        const auto latencyData = makeLatencyData(cacheSize);
        const auto add = [&](const std::string &name,
                             const embedding::RetrievalBackendConfig
                                 &retrieval) {
            points.push_back({name, retrieval, cacheSize, latencyData});
        };
        embedding::RetrievalBackendConfig flat;
        add("Flat", flat);
        for (const std::size_t nprobe :
             {std::size_t{4}, std::size_t{16}}) {
            embedding::RetrievalBackendConfig ivf;
            ivf.kind = embedding::RetrievalBackend::Ivf;
            ivf.nprobe = nprobe;
            add("IVF/nprobe=" + std::to_string(nprobe), ivf);
        }
        for (const std::size_t ef :
             {std::size_t{16}, std::size_t{64}}) {
            embedding::RetrievalBackendConfig hnsw;
            hnsw.kind = embedding::RetrievalBackend::Hnsw;
            hnsw.efSearch = ef;
            add("HNSW/ef=" + std::to_string(ef), hnsw);
        }
        for (const std::size_t nprobe :
             {std::size_t{8}, std::size_t{16}}) {
            embedding::RetrievalBackendConfig pq;
            pq.kind = embedding::RetrievalBackend::IvfPq;
            pq.nprobe = nprobe;
            add("IVF-PQ/nprobe=" + std::to_string(nprobe), pq);
        }
    }

    std::vector<std::function<CellResult()>> cells;
    std::vector<std::string> labels;
    for (const auto &point : points) {
        labels.push_back(point.name + "/cache=" +
                         std::to_string(point.cacheSize));
        const std::string key = cacheKey("grid", labels.back());
        cells.push_back([point, key] {
            const auto vals =
                bench::cachedCell(key, 5, [&point] {
                    const auto r = runCell(point);
                    return std::vector<double>{r.hitRate, r.clip,
                                               r.recall, r.usPerQuery,
                                               r.bytesPerEntry};
                });
            CellResult out;
            out.hitRate = vals[0];
            out.clip = vals[1];
            out.recall = vals[2];
            out.usPerQuery = vals[3];
            out.bytesPerEntry = vals[4];
            return out;
        });
    }
    bench::SweepOptions options;
    options.title = "Ablation retrieval backend";
    const auto results =
        bench::runCells(std::move(cells), options, labels);

    // Flat latency per cache size, for the speedup column.
    std::vector<double> flatUs(points.size(), 0.0);
    for (std::size_t i = 0; i < points.size(); ++i) {
        if (points[i].name == "Flat") {
            for (std::size_t j = 0; j < points.size(); ++j)
                if (points[j].cacheSize == points[i].cacheSize)
                    flatUs[j] = results[i].usPerQuery;
        }
    }

    Table t({"backend", "cache size", "hit rate", "mean CLIP",
             "recall@1", "retrieval us/query", "bytes/entry",
             "speedup vs flat"});
    for (std::size_t i = 0; i < points.size(); ++i) {
        const auto &r = results[i];
        t.addRow({points[i].name, Table::fmt(points[i].cacheSize),
                  Table::fmt(r.hitRate, 3), Table::fmt(r.clip, 4),
                  Table::fmt(r.recall, 3), timeCol(r.usPerQuery, 1),
                  Table::fmt(r.bytesPerEntry, 1),
                  noTime() || r.usPerQuery <= 0.0
                      ? std::string("-")
                      : Table::fmt(flatUs[i] / r.usPerQuery, 2)});
    }
    t.print("Ablation — retrieval backend (MoDM, DiffusionDB batch, " +
            std::to_string(kTraceRequests) +
            " requests; recall@1 vs exhaustive scan; latency is wall "
            "time and varies by machine)");
    std::printf(
        "\nNote: IVF and IVF-PQ train their quantizers once enough "
        "entries accumulate (IVF at %zu = 4 x nlist); below that they "
        "scan exactly like Flat.\n",
        embedding::RetrievalBackendConfig{}.nlist * 4);

    runScalePass();
    return 0;
}
