#include "src/embedding/ivf_pq_index.hh"

#include <algorithm>
#include <cstring>

#include "src/common/kernels.hh"
#include "src/common/log.hh"
#include "src/common/rng.hh"

namespace modm::embedding {

namespace {

/** Lloyd iterations a codebook gets (ksub centroids per subspace). */
constexpr std::size_t kCodebookIters = 4;

} // namespace

IvfPqIndex::IvfPqIndex(const RetrievalBackendConfig &config,
                       std::size_t dim)
    : dim_(dim), config_(config), quantizer_(config, dim)
{
    MODM_ASSERT(dim_ > 0, "ivfpq index dimension must be positive");
    // makeVectorIndex validates with a thrown diagnostic before this
    // runs; the asserts only backstop direct construction.
    MODM_ASSERT(config_.pqM >= 1 && dim_ % config_.pqM == 0,
                "ivfpq pqM %zu must divide dim %zu", config_.pqM, dim_);
    subDim_ = dim_ / config_.pqM;
}

std::size_t
IvfPqIndex::trainFloor() const
{
    // Enough rows to seed nlist distinct centroids with headroom, and
    // enough to seed every codeword of a subspace codebook.
    return std::max(quantizer_.trainFloor(), kKsub);
}

void
IvfPqIndex::reserve(std::size_t rows)
{
    locator_.reserve(rows);
    if (!trained()) {
        const std::size_t stage = std::min(rows, trainFloor());
        staging_.reserve(stage * dim_);
        stagingIds_.reserve(stage);
    }
}

void
IvfPqIndex::encodeRow(std::size_t list, const float *row,
                      std::uint8_t *codes) const
{
    // Quantize the residual against the coarse centroid, one subspace
    // at a time: nearest codeword by L2 (ties: lowest index).
    const float *centroid = quantizer_.centroid(list);
    std::vector<float> residual(dim_);
    for (std::size_t d = 0; d < dim_; ++d)
        residual[d] = row[d] - centroid[d];
    for (std::size_t m = 0; m < config_.pqM; ++m)
        codes[m] = static_cast<std::uint8_t>(
            nearestCentroid(&residual[m * subDim_], codeword(m, 0), kKsub,
                            subDim_, KmeansMetric::L2)
                .first);
}

void
IvfPqIndex::reconstructRow(std::size_t list, const std::uint8_t *codes,
                           float *out) const
{
    const float *centroid = quantizer_.centroid(list);
    for (std::size_t m = 0; m < config_.pqM; ++m) {
        const float *cw = codeword(m, codes[m]);
        float *sub = out + m * subDim_;
        const float *csub = centroid + m * subDim_;
        for (std::size_t d = 0; d < subDim_; ++d)
            sub[d] = csub[d] + cw[d];
    }
}

void
IvfPqIndex::appendToList(std::size_t list, std::uint64_t id,
                         const std::uint8_t *codes)
{
    List &l = lists_[list];
    locator_[id] = {list, l.ids.size()};
    l.ids.push_back(id);
    l.codes.insert(l.codes.end(), codes, codes + codeBytes());
}

void
IvfPqIndex::insert(std::uint64_t id, const Embedding &embedding)
{
    MODM_ASSERT(embedding.dim() == dim_,
                "ivfpq insert: dimension %zu != %zu", embedding.dim(),
                dim_);
    MODM_ASSERT(!contains(id), "ivfpq insert: duplicate id %llu",
                static_cast<unsigned long long>(id));
    const float *row = embedding.vec().data();
    if (!trained()) {
        locator_[id] = {0, stagingIds_.size()};
        stagingIds_.push_back(id);
        staging_.insert(staging_.end(), row, row + dim_);
        ++insertsSinceTrain_;
        if (size() >= trainFloor()) {
            std::vector<float> rows;
            std::vector<std::uint64_t> ids;
            materializeAll(rows, ids);
            train(rows, ids);
        }
        return;
    }
    const std::size_t list = quantizer_.assign(row);
    std::vector<std::uint8_t> codes(codeBytes());
    encodeRow(list, row, codes.data());
    appendToList(list, id, codes.data());
    ++insertsSinceTrain_;
    maybeRetrain();
}

bool
IvfPqIndex::remove(std::uint64_t id)
{
    const auto it = locator_.find(id);
    if (it == locator_.end())
        return false;
    const Location loc = it->second;
    if (!trained()) {
        const std::size_t last = stagingIds_.size() - 1;
        if (loc.pos != last) {
            std::memcpy(&staging_[loc.pos * dim_],
                        &staging_[last * dim_], dim_ * sizeof(float));
            stagingIds_[loc.pos] = stagingIds_[last];
            locator_[stagingIds_[loc.pos]].pos = loc.pos;
        }
        staging_.resize(last * dim_);
        stagingIds_.pop_back();
        locator_.erase(it);
        return true;
    }
    List &l = lists_[loc.list];
    const std::size_t last = l.ids.size() - 1;
    if (loc.pos != last) {
        std::memcpy(&l.codes[loc.pos * codeBytes()],
                    &l.codes[last * codeBytes()], codeBytes());
        l.ids[loc.pos] = l.ids[last];
        locator_[l.ids[loc.pos]].pos = loc.pos;
    }
    l.codes.resize(last * codeBytes());
    l.ids.pop_back();
    locator_.erase(it);
    return true;
}

bool
IvfPqIndex::contains(std::uint64_t id) const
{
    return locator_.find(id) != locator_.end();
}

void
IvfPqIndex::materializeAll(std::vector<float> &rows,
                           std::vector<std::uint64_t> &ids) const
{
    if (!trained()) {
        rows = staging_;
        ids = stagingIds_;
        return;
    }
    rows.resize(size() * dim_);
    ids.clear();
    ids.reserve(size());
    std::size_t n = 0;
    for (std::size_t c = 0; c < lists_.size(); ++c) {
        const List &l = lists_[c];
        for (std::size_t p = 0; p < l.ids.size(); ++p) {
            // Prefer the true row when the source still has it:
            // retraining then fits the actual distribution instead of
            // compounding quantization error across retrains.
            const float *row =
                source_ != nullptr ? source_->row(l.ids[p]) : nullptr;
            if (row != nullptr)
                std::memcpy(&rows[n * dim_], row,
                            dim_ * sizeof(float));
            else
                reconstructRow(c, &l.codes[p * codeBytes()],
                               &rows[n * dim_]);
            ids.push_back(l.ids[p]);
            ++n;
        }
    }
}

void
IvfPqIndex::train(const std::vector<float> &rows,
                  const std::vector<std::uint64_t> &ids)
{
    const std::size_t total = ids.size();
    if (total < std::max(config_.nlist, kKsub))
        return; // not enough rows to seed distinct centroids
    std::vector<const float *> rowPtrs(total);
    for (std::size_t i = 0; i < total; ++i)
        rowPtrs[i] = &rows[i * dim_];
    quantizer_.train(rowPtrs, trainings_);
    lists_.assign(quantizer_.lists(), List{});

    // --- Codebooks: L2 k-means per subspace over sampled residuals ---
    // total >= kKsub and kMaxCodebookRows >= kKsub, so every codeword
    // seeds from a distinct residual.
    const std::size_t cbCount = std::min(total, kMaxCodebookRows);
    std::vector<float> residuals(cbCount * dim_);
    for (std::size_t s = 0; s < cbCount; ++s) {
        const float *row = rowPtrs[total * s / cbCount];
        const float *centroid =
            quantizer_.centroid(quantizer_.assign(row));
        for (std::size_t d = 0; d < dim_; ++d)
            residuals[s * dim_ + d] = row[d] - centroid[d];
    }
    codebooks_.assign(config_.pqM * kKsub * subDim_, 0.0f);
    std::vector<const float *> subs(cbCount);
    for (std::size_t m = 0; m < config_.pqM; ++m) {
        for (std::size_t s = 0; s < cbCount; ++s)
            subs[s] = &residuals[s * dim_ + m * subDim_];
        // Seed codewords from a subspace-specific shuffle.
        lloydKmeans(subs, subDim_, kKsub, kCodebookIters, KmeansMetric::L2,
                    mix64(kIndexSeed ^ mix64(trainings_)) ^ mix64(m + 1),
                    &codebooks_[m * kKsub * subDim_]);
    }

    // --- Re-encode every row under the new quantizers ---
    locator_.clear();
    std::vector<std::uint8_t> codes(codeBytes());
    for (std::size_t i = 0; i < total; ++i) {
        const float *row = rowPtrs[i];
        const std::size_t list = quantizer_.assign(row);
        encodeRow(list, row, codes.data());
        appendToList(list, ids[i], codes.data());
    }
    staging_.clear();
    staging_.shrink_to_fit();
    stagingIds_.clear();
    stagingIds_.shrink_to_fit();
    ++trainings_;
    insertsSinceTrain_ = 0;
    trainedSize_ = total;
}

void
IvfPqIndex::maybeRetrain()
{
    // Growth retrain: quantizers fitted at the training floor must not
    // govern an index that has since grown kRetrainGrowth-fold — the
    // geometric schedule costs O(log n) retrains over any build.
    const bool grown = size() >= kRetrainGrowth * trainedSize_;
    std::size_t maxList = 0;
    for (const List &l : lists_)
        maxList = std::max(maxList, l.ids.size());
    if (!grown && !quantizer_.skewed(maxList, size(), insertsSinceTrain_))
        return;
    // Deterministic and self-contained: rows come from the RowSource
    // when attached, reconstructions otherwise — both retrain paths
    // are rare by construction (growth is geometric, skew is bounded).
    std::vector<float> rows;
    std::vector<std::uint64_t> ids;
    materializeAll(rows, ids);
    train(rows, ids);
}

std::vector<Match>
IvfPqIndex::adcShortlist(const float *query, std::size_t keep) const
{
    // Per-subspace dot tables, shared across every probed list: the
    // asymmetric distance trick — dot(q, centroid + sum codewords) =
    // dot(q, centroid) + sum_m table[m][code_m]. Each subspace's
    // codebook is a contiguous ksub x subDim block, so one batched
    // kernel call fills its whole table row.
    std::vector<double> table(config_.pqM * kKsub);
    for (std::size_t m = 0; m < config_.pqM; ++m)
        kernels::dotBatch(query + m * subDim_, codeword(m, 0), subDim_,
                          kKsub, subDim_, &table[m * kKsub]);

    const auto probes = quantizer_.probe(query);
    std::size_t scanned = 0;
    for (const std::size_t c : probes)
        scanned += lists_[c].ids.size();
    // One shortlist slot per kRerankWindow scanned rows (floor
    // `keep`): a fixed-size shortlist is a vanishing fraction of the
    // probed candidates as lists grow, and ADC cannot order near-ties
    // within the quantization error, so recall@1 would decay with
    // index size if the window did not scale.
    keep = std::max(keep, scanned / kRerankWindow);

    TopMatches top(keep);
    const auto scanList = [&](std::size_t c) {
        const List &l = lists_[c];
        const double base = kernels::dot(query, quantizer_.centroid(c), dim_);
        for (std::size_t p = 0; p < l.ids.size(); ++p) {
            const std::uint8_t *codes = &l.codes[p * codeBytes()];
            double score = base;
            for (std::size_t m = 0; m < config_.pqM; ++m)
                score += table[m * kKsub + codes[m]];
            top.offer(l.ids[p], score);
        }
    };
    for (const std::size_t c : probes)
        scanList(c);
    if (top.empty()) {
        // Eviction churn drained every probed list: widen to all.
        for (std::size_t c = 0; c < lists_.size(); ++c)
            scanList(c);
    }
    return top.take();
}

std::vector<Match>
IvfPqIndex::topK(const Embedding &query, std::size_t k) const
{
    std::vector<Match> result;
    if (empty() || k == 0)
        return result;
    MODM_ASSERT(query.dim() == dim_, "ivfpq query: dimension mismatch");
    const float *q = query.vec().data();

    if (!trained()) {
        // Exact single-list scan below the training floor; staging is
        // one contiguous block, so score it in a single batched call.
        std::vector<double> scores(stagingIds_.size());
        kernels::dotBatch(q, staging_.data(), dim_,
                          stagingIds_.size(), dim_, scores.data());
        TopMatches top(k);
        for (std::size_t p = 0; p < stagingIds_.size(); ++p)
            top.offer(stagingIds_[p], scores[p]);
        return top.take();
    }

    auto shortlist = adcShortlist(q, std::max(k, kRerank));
    if (source_ != nullptr) {
        // Exact re-rank of the shortlist: ADC picked the candidates,
        // true rows pick the order — recall@1 stays honest against
        // quantization noise. The RowSource hands out slab pointers,
        // so the gather kernel reads the cache's rows in place (no
        // temporary copies); rows the source cannot resolve keep
        // their ADC score.
        std::vector<const float *> rowPtrs;
        std::vector<std::size_t> rowAt;
        rowPtrs.reserve(shortlist.size());
        rowAt.reserve(shortlist.size());
        for (std::size_t i = 0; i < shortlist.size(); ++i) {
            const float *row = source_->row(shortlist[i].id);
            if (row != nullptr) {
                rowPtrs.push_back(row);
                rowAt.push_back(i);
            }
        }
        std::vector<double> exact(rowPtrs.size());
        kernels::dotGather(q, rowPtrs.data(), rowPtrs.size(), dim_,
                           exact.data());
        for (std::size_t i = 0; i < rowAt.size(); ++i)
            shortlist[rowAt[i]].similarity = exact[i];
        std::sort(shortlist.begin(), shortlist.end(), matchBefore);
    }
    if (shortlist.size() > k)
        shortlist.resize(k);
    return shortlist;
}

Match
IvfPqIndex::exactBest(const Embedding &query) const
{
    if (empty() || !trained())
        return best(query); // the staged scan is exact
    MODM_ASSERT(query.dim() == dim_, "ivfpq query: dimension mismatch");
    const float *q = query.vec().data();
    // Exhaustive scan through the RowSource when attached (true exact
    // best); reconstructions otherwise (the best the codes can say).
    std::vector<float> recon(dim_);
    TopMatches top(1);
    for (std::size_t c = 0; c < lists_.size(); ++c) {
        const List &l = lists_[c];
        for (std::size_t p = 0; p < l.ids.size(); ++p) {
            const float *row =
                source_ != nullptr ? source_->row(l.ids[p]) : nullptr;
            if (row == nullptr) {
                reconstructRow(c, &l.codes[p * codeBytes()],
                               recon.data());
                row = recon.data();
            }
            top.offer(l.ids[p], kernels::dot(q, row, dim_));
        }
    }
    return top.take().front();
}

std::size_t
IvfPqIndex::memoryBytes() const
{
    std::size_t bytes = quantizer_.memoryBytes() +
        codebooks_.size() * sizeof(float) +
        staging_.size() * sizeof(float) +
        stagingIds_.size() * sizeof(std::uint64_t) +
        locatorBytes(locator_.size(), sizeof(Location));
    for (const List &l : lists_)
        bytes += l.codes.size() +
            l.ids.size() * sizeof(std::uint64_t);
    return bytes;
}

void
IvfPqIndex::clear()
{
    staging_.clear();
    stagingIds_.clear();
    lists_.clear();
    quantizer_.clear();
    codebooks_.clear();
    locator_.clear();
    trainings_ = 0;
    insertsSinceTrain_ = 0;
    trainedSize_ = 0;
}

} // namespace modm::embedding
