#include "src/embedding/coarse_quantizer.hh"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <tuple>

#include "src/common/kernels.hh"
#include "src/common/log.hh"
#include "src/common/rng.hh"

namespace modm::embedding {

namespace {

/** Lloyd iterations per coarse (re)training. */
constexpr std::size_t kKmeansIters = 8;

/** Squared L2 distance over raw rows of length n. */
double
l2Squared(const float *a, const float *b, std::size_t n)
{
    double acc = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        const double d = static_cast<double>(a[i]) -
            static_cast<double>(b[i]);
        acc += d * d;
    }
    return acc;
}

} // namespace

std::pair<std::size_t, double>
nearestCentroid(const float *row, const float *centroids, std::size_t k,
                std::size_t dim, KmeansMetric metric)
{
    std::size_t best = 0;
    double bestFit = 0.0;
    if (metric == KmeansMetric::Cosine) {
        // Strictly-greater admission over ascending centroids.
        kernels::bestBatch(row, centroids, dim, k, dim, &best, &bestFit);
        return {best, bestFit};
    }
    for (std::size_t c = 0; c < k; ++c) {
        const double fit = -l2Squared(row, centroids + c * dim, dim);
        if (c == 0 || fit > bestFit) {
            bestFit = fit;
            best = c;
        }
    }
    return {best, bestFit};
}

void
lloydKmeans(const std::vector<const float *> &rows, std::size_t dim,
            std::size_t k, std::size_t iters, KmeansMetric metric,
            std::uint64_t seed, float *out)
{
    const std::size_t n = rows.size();
    MODM_ASSERT(k > 0 && n >= k, "k-means: %zu rows cannot seed %zu "
                "centroids", n, k);
    // Seed: partial Fisher-Yates over the rows picks k distinct ones.
    Rng rng(seed);
    std::vector<std::size_t> perm(n);
    for (std::size_t i = 0; i < n; ++i)
        perm[i] = i;
    for (std::size_t c = 0; c < k; ++c) {
        const std::size_t pick = c + rng.uniformInt(n - c);
        std::swap(perm[c], perm[pick]);
        std::memcpy(out + c * dim, rows[perm[c]], dim * sizeof(float));
    }

    std::vector<std::size_t> assign(n);
    std::vector<double> fit(n);
    std::vector<double> sums(k * dim);
    std::vector<std::size_t> counts(k);
    for (std::size_t iter = 0; iter < iters; ++iter) {
        for (std::size_t s = 0; s < n; ++s)
            std::tie(assign[s], fit[s]) =
                nearestCentroid(rows[s], out, k, dim, metric);
        std::fill(sums.begin(), sums.end(), 0.0);
        std::fill(counts.begin(), counts.end(), 0);
        for (std::size_t s = 0; s < n; ++s) {
            double *sum = &sums[assign[s] * dim];
            for (std::size_t d = 0; d < dim; ++d)
                sum[d] += rows[s][d];
            ++counts[assign[s]];
        }
        for (std::size_t c = 0; c < k; ++c) {
            if (counts[c] == 0)
                continue; // reseeded below
            const double *sum = &sums[c * dim];
            double scale = 1.0 / static_cast<double>(counts[c]);
            if (metric == KmeansMetric::Cosine) {
                double normSq = 0.0;
                for (std::size_t d = 0; d < dim; ++d)
                    normSq += sum[d] * sum[d];
                if (normSq <= 0.0)
                    continue; // degenerate mean: keep the old centroid
                scale = 1.0 / std::sqrt(normSq);
            }
            float *centroid = out + c * dim;
            for (std::size_t d = 0; d < dim; ++d)
                centroid[d] = static_cast<float>(sum[d] * scale);
        }
        for (std::size_t c = 0; c < k; ++c) {
            if (counts[c] != 0)
                continue;
            // Steal the row that fits its current centroid worst.
            std::size_t worst = n;
            for (std::size_t s = 0; s < n; ++s) {
                if (counts[assign[s]] <= 1)
                    continue; // don't empty another cluster
                if (worst == n || fit[s] < fit[worst])
                    worst = s;
            }
            if (worst == n)
                break; // fewer distinct rows than clusters
            --counts[assign[worst]];
            assign[worst] = c;
            counts[c] = 1;
            // Fits better than any row (dots of unit rows are <= 1,
            // negated distances <= 0): not stolen twice.
            fit[worst] = 2.0;
            std::memcpy(out + c * dim, rows[worst], dim * sizeof(float));
        }
    }
}

CoarseQuantizer::CoarseQuantizer(const RetrievalBackendConfig &config,
                                 std::size_t dim)
    : dim_(dim), config_(config)
{
    // makeVectorIndex validates with a thrown diagnostic before this
    // runs; the asserts only backstop direct construction.
    MODM_ASSERT(config_.nlist >= 1 && config_.nlist <= kMaxTrainRows,
                "ivf nlist %zu must be in [1, %zu]", config_.nlist,
                kMaxTrainRows);
    MODM_ASSERT(config_.nprobe >= 1 && config_.nprobe <= config_.nlist,
                "ivf nprobe %zu must be in [1, nlist %zu]",
                config_.nprobe, config_.nlist);
}

bool
CoarseQuantizer::train(const std::vector<const float *> &rows,
                       std::uint64_t generation)
{
    const std::size_t total = rows.size();
    if (total < config_.nlist)
        return false;
    // A fixed stride over the rows in order, capped at kMaxTrainRows:
    // a pure function of the index contents.
    const std::size_t count = std::min(total, kMaxTrainRows);
    std::vector<const float *> sample(count);
    for (std::size_t s = 0; s < count; ++s)
        sample[s] = rows[total * s / count];
    std::vector<float> centroids(config_.nlist * dim_);
    lloydKmeans(sample, dim_, config_.nlist, kKmeansIters,
                KmeansMetric::Cosine, kIndexSeed ^ mix64(generation),
                centroids.data());
    centroids_ = std::move(centroids);
    return true;
}

std::size_t
CoarseQuantizer::assign(const float *row) const
{
    return nearestCentroid(row, centroids_.data(), lists(), dim_,
                           KmeansMetric::Cosine)
        .first;
}

std::vector<std::size_t>
CoarseQuantizer::probe(const float *query) const
{
    const std::size_t nprobe = std::min(config_.nprobe, lists());
    std::vector<std::size_t> order(lists());
    for (std::size_t c = 0; c < order.size(); ++c)
        order[c] = c;
    std::vector<double> scores(lists());
    kernels::dotBatch(query, centroids_.data(), dim_, lists(), dim_,
                      scores.data());
    std::partial_sort(order.begin(), order.begin() + nprobe, order.end(),
                      [&scores](std::size_t a, std::size_t b) {
                          if (scores[a] != scores[b])
                              return scores[a] > scores[b];
                          return a < b;
                      });
    order.resize(nprobe);
    return order;
}

bool
CoarseQuantizer::skewed(std::size_t maxList, std::size_t rows,
                        std::size_t insertsSinceTrain) const
{
    if (config_.retrainThreshold <= 1.0 ||
        insertsSinceTrain < std::max(rows / 4, config_.nlist))
        return false;
    const double mean =
        static_cast<double>(rows) / static_cast<double>(lists());
    return static_cast<double>(maxList) > config_.retrainThreshold * mean;
}

void
CoarseQuantizer::setNprobe(std::size_t nprobe)
{
    if (nprobe != 0) // 0 = leave the configured value
        config_.nprobe = nprobe;
}

} // namespace modm::embedding
