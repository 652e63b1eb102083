/**
 * @file
 * Paper Fig. 2: CLIPScore and PickScore distributions of images
 * retrieved by text-to-text vs text-to-image similarity.
 *
 * Method (mirrors §3.2): build a cache of large-model images; for each
 * new prompt retrieve the best match twice — once by text-to-text
 * similarity over the cached prompts' text embeddings, once by
 * text-to-image similarity over the cached images' CLIP embeddings —
 * and score the *retrieved image* against the *new prompt*.
 * Expected shape: text-to-image retrieval dominates on both metrics
 * (paper: CLIP means 0.28 vs 0.22; Pick means 20.33 vs 19.52).
 *
 * Sweep structure: the cache (images and both kinds of retrieval keys)
 * is built once, serially, from the seeded prompt stream; the 3000
 * queries then score in fixed chunks fanned out as sweep cells. An
 * index reuses per-query scratch, so one serves one thread at a time:
 * each cell loads its own pair from the shared keys, in the same
 * insertion order, which fixes every retrieval result. The chunking is
 * a fixed function of the query count, so the merged statistics are
 * identical at any parallelism on any machine.
 */

#include <cstdio>

#include "bench/sweep.hh"
#include "src/common/stats.hh"
#include "src/embedding/index.hh"

using namespace modm;

namespace {

/** Mergeable per-chunk accumulators (sums, not means). */
struct ChunkScores
{
    double t2tClipSum = 0.0, t2iClipSum = 0.0;
    double t2tPickSum = 0.0, t2iPickSum = 0.0;
    std::size_t count = 0;
    std::vector<std::uint64_t> t2tHist, t2iHist;
};

} // namespace

int
main()
{
    constexpr std::size_t kCacheSize = 4000;
    constexpr std::size_t kQueries = 3000;
    constexpr std::size_t kBins = 18;
    constexpr double kHistLo = 0.0, kHistHi = 0.45;

    auto gen = workload::makeDiffusionDB(42);
    diffusion::Sampler sampler(7);
    embedding::TextEncoder text;
    embedding::ImageEncoder image;

    // Build the cache: images plus both kinds of retrieval keys.
    std::vector<diffusion::Image> cachedImages;
    std::vector<embedding::Embedding> textKeys;
    std::vector<embedding::Embedding> imageKeys;
    for (std::size_t i = 0; i < kCacheSize; ++i) {
        const auto p = gen->next();
        const auto img = sampler.generate(diffusion::sd35Large(), p, 0.0);
        textKeys.push_back(
            text.encode(p.visualConcept, p.lexicalStyle, p.text));
        imageKeys.push_back(image.encode(img.content, img.fidelity, img.id));
        cachedImages.push_back(img);
    }

    // The query prompts continue the same stream; generating them is
    // cheap, so they are materialized up front and scored in chunks.
    std::vector<workload::Prompt> queries;
    queries.reserve(kQueries);
    for (std::size_t q = 0; q < kQueries; ++q)
        queries.push_back(gen->next());

    const auto ranges = bench::splitRange(kQueries, 12);
    std::vector<std::function<ChunkScores()>> cells;
    std::vector<std::string> labels;
    for (const auto &[lo, hi] : ranges) {
        labels.push_back("queries " + std::to_string(lo) + ".." +
                         std::to_string(hi));
        cells.push_back([lo = lo, hi = hi, &queries, &cachedImages,
                         &textKeys, &imageKeys] {
            // Cells read the shared cache and keys (const) and keep
            // their own indexes, encoder and metric suite.
            embedding::FlatIndex textIndex;
            embedding::FlatIndex imageIndex;
            textIndex.reserve(kCacheSize);
            imageIndex.reserve(kCacheSize);
            for (std::size_t i = 0; i < kCacheSize; ++i) {
                textIndex.insert(i, textKeys[i]);
                imageIndex.insert(i, imageKeys[i]);
            }
            embedding::TextEncoder queryText;
            eval::MetricSuite metrics;
            Histogram t2tHist(kHistLo, kHistHi, kBins);
            Histogram t2iHist(kHistLo, kHistHi, kBins);
            ChunkScores out;
            for (std::size_t q = lo; q < hi; ++q) {
                const auto &p = queries[q];
                const auto queryEmb = queryText.encode(
                    p.visualConcept, p.lexicalStyle, p.text);
                const auto byText = textIndex.best(queryEmb);
                const auto byImage = imageIndex.best(queryEmb);

                const auto &textPick = cachedImages[byText.id];
                const auto &imagePick = cachedImages[byImage.id];
                const double ct =
                    metrics.clipScore(p, textPick) / 100.0;
                const double ci =
                    metrics.clipScore(p, imagePick) / 100.0;
                out.t2tClipSum += ct;
                out.t2iClipSum += ci;
                t2tHist.add(ct);
                t2iHist.add(ci);
                out.t2tPickSum += metrics.pickScore(p, textPick);
                out.t2iPickSum += metrics.pickScore(p, imagePick);
                ++out.count;
            }
            for (std::size_t b = 0; b < kBins; ++b) {
                out.t2tHist.push_back(t2tHist.binCount(b));
                out.t2iHist.push_back(t2iHist.binCount(b));
            }
            return out;
        });
    }
    bench::SweepOptions options;
    options.title = "Fig. 2";
    const auto chunks = bench::runCells(std::move(cells), options, labels);

    ChunkScores total;
    total.t2tHist.assign(kBins, 0);
    total.t2iHist.assign(kBins, 0);
    for (const auto &c : chunks) {
        total.t2tClipSum += c.t2tClipSum;
        total.t2iClipSum += c.t2iClipSum;
        total.t2tPickSum += c.t2tPickSum;
        total.t2iPickSum += c.t2iPickSum;
        total.count += c.count;
        for (std::size_t b = 0; b < kBins; ++b) {
            total.t2tHist[b] += c.t2tHist[b];
            total.t2iHist[b] += c.t2iHist[b];
        }
    }
    const double n = static_cast<double>(total.count);

    Table summary({"retrieval", "CLIPScore mean", "PickScore mean",
                   "paper CLIP", "paper Pick"});
    summary.addRow({"text-to-text", Table::fmt(total.t2tClipSum / n, 3),
                    Table::fmt(total.t2tPickSum / n, 2), "0.22",
                    "19.52"});
    summary.addRow({"text-to-image", Table::fmt(total.t2iClipSum / n, 3),
                    Table::fmt(total.t2iPickSum / n, 2), "0.28",
                    "20.33"});
    summary.print("Fig. 2 — retrieval quality by similarity modality "
                  "(cache 4000, 3000 queries)");

    Table hist({"CLIP bucket", "text-to-text freq", "text-to-image freq"});
    const double binWidth = (kHistHi - kHistLo) / kBins;
    for (std::size_t b = 0; b < kBins; ++b) {
        hist.addRow({Table::fmt(kHistLo + (b + 0.5) * binWidth, 3),
                     Table::fmt(total.t2tHist[b] / n, 3),
                     Table::fmt(total.t2iHist[b] / n, 3)});
    }
    hist.print("Fig. 2 — CLIPScore distribution");
    return 0;
}
