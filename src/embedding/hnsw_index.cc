#include "src/embedding/hnsw_index.hh"

#include <algorithm>
#include <cmath>

#include "src/common/kernels.hh"
#include "src/common/log.hh"
#include "src/common/rng.hh"

namespace modm::embedding {

HnswIndex::HnswIndex(const RetrievalBackendConfig &config,
                     std::size_t dim)
    : dim_(dim), config_(config)
{
    MODM_ASSERT(dim_ > 0, "hnsw index dimension must be positive");
    // makeVectorIndex validates with a thrown diagnostic before this
    // runs; the asserts only backstop direct construction.
    MODM_ASSERT(config_.hnswM >= 2, "hnsw M %zu must be >= 2",
                config_.hnswM);
    MODM_ASSERT(config_.efConstruction >= config_.hnswM,
                "hnsw efConstruction %zu must be >= M %zu",
                config_.efConstruction, config_.hnswM);
    MODM_ASSERT(config_.efSearch >= 1, "hnsw efSearch must be >= 1");
    levelMult_ = 1.0 / std::log(static_cast<double>(config_.hnswM));
    rows_.reset(dim_);
}

std::uint32_t
HnswIndex::levelFor(std::uint64_t id) const
{
    // Geometric layer draw from a pure hash of (id, seed): the graph
    // shape depends only on the construction sequence, never on an rng
    // stream whose position could drift across rebuilds.
    const std::uint64_t bits = mix64(id ^ mix64(kIndexSeed));
    const double u =
        (static_cast<double>(bits >> 11) + 1.0) * 0x1.0p-53;
    const double draw = -std::log(u) * levelMult_;
    const auto level = static_cast<std::uint32_t>(draw);
    return std::min(level, kMaxLevel);
}

std::size_t
HnswIndex::maxLinks(std::uint32_t level) const
{
    return level == 0 ? 2 * config_.hnswM : config_.hnswM;
}

void
HnswIndex::reserve(std::size_t rows)
{
    rows_.reserve(rows);
    nodes_.reserve(rows);
    slotOf_.reserve(rows);
    visited_.reserve(rows);
}

std::size_t
HnswIndex::scoreLinks(const float *query, std::uint32_t slot,
                      std::uint32_t level, bool skipVisited) const
{
    // Pass 1: collect candidate rows in link order (marking visited in
    // that same order, which is part of the beam's determinism
    // contract). Pass 2: score them together through the gather
    // kernel, which prefetches upcoming rows while scoring the current
    // block — the links point at scattered slab rows, so this is where
    // the expansion's cache misses get hidden.
    linkSlots_.clear();
    linkRows_.clear();
    for (const std::uint32_t nb : nodes_[slot].links[level]) {
        if (skipVisited) {
            if (visited_[nb] == visitEpoch_)
                continue;
            visited_[nb] = visitEpoch_;
        }
        linkSlots_.push_back(nb);
        linkRows_.push_back(row(nb));
    }
    linkScores_.resize(linkSlots_.size());
    kernels::dotGather(query, linkRows_.data(), linkRows_.size(), dim_,
                       linkScores_.data());
    return linkSlots_.size();
}

std::uint32_t
HnswIndex::greedyStep(const float *query, std::uint32_t start,
                      std::uint32_t level) const
{
    // Hill-climb to a local optimum: move to the strictly best-scoring
    // neighbor until none improves. Tombstones route like any node.
    // Scoring all links then folding in link order admits the same
    // node the per-link loop did (strictly-greater, earliest link
    // wins).
    std::uint32_t cur = start;
    double curScore = kernels::dot(query, row(cur), dim_);
    bool improved = true;
    while (improved) {
        improved = false;
        const std::size_t n = scoreLinks(query, cur, level, false);
        for (std::size_t i = 0; i < n; ++i) {
            if (linkScores_[i] > curScore) {
                curScore = linkScores_[i];
                cur = linkSlots_[i];
                improved = true;
            }
        }
    }
    return cur;
}

std::vector<HnswIndex::Candidate>
HnswIndex::searchLayer(const float *query, std::uint32_t entry,
                       std::size_t ef, std::uint32_t level,
                       bool liveOnly) const
{
    // Best-first beam: expand the best unexpanded candidate until none
    // can beat the ef-th best result. Tombstones are expanded (they
    // keep the graph navigable after churn) but never returned when
    // liveOnly — the beam keeps admitting until ef *live* results
    // exist, so tombstone density degrades latency, not correctness.
    visited_.resize(nodes_.size(), 0);
    ++visitEpoch_;
    visited_[entry] = visitEpoch_;

    // Expansion heap: best (score desc, slot asc) at front.
    const auto expandLess = [](const Candidate &a, const Candidate &b) {
        if (a.score != b.score)
            return a.score < b.score;
        return a.slot > b.slot;
    };
    // Result heap: worst at front, so the ef-th best pops first.
    const auto better = [](const Candidate &a, const Candidate &b) {
        if (a.score != b.score)
            return a.score > b.score;
        return a.slot < b.slot;
    };

    std::vector<Candidate> frontier, results;
    const Candidate seed{entry, kernels::dot(query, row(entry), dim_)};
    frontier.push_back(seed);
    if (!liveOnly || !nodes_[entry].dead)
        results.push_back(seed);

    while (!frontier.empty()) {
        std::pop_heap(frontier.begin(), frontier.end(), expandLess);
        const Candidate cur = frontier.back();
        frontier.pop_back();
        if (results.size() >= ef && cur.score < results.front().score)
            break; // nothing reachable can improve the beam
        // Two passes (collect-and-mark, then batch-score) feed the
        // heap admission below in the exact link order the per-link
        // loop used, so the beam — and therefore every result — is
        // unchanged; only the row loads got batched.
        const std::size_t n = scoreLinks(query, cur.slot, level, true);
        for (std::size_t i = 0; i < n; ++i) {
            const std::uint32_t nb = linkSlots_[i];
            const double score = linkScores_[i];
            if (results.size() >= ef &&
                score <= results.front().score)
                continue;
            frontier.push_back({nb, score});
            std::push_heap(frontier.begin(), frontier.end(),
                           expandLess);
            if (liveOnly && nodes_[nb].dead)
                continue;
            results.push_back({nb, score});
            std::push_heap(results.begin(), results.end(), better);
            if (results.size() > ef) {
                std::pop_heap(results.begin(), results.end(), better);
                results.pop_back();
            }
        }
    }
    std::sort(results.begin(), results.end(), better);
    return results;
}

std::vector<std::uint32_t>
HnswIndex::selectNeighbors(std::vector<Candidate> candidates,
                           std::size_t m) const
{
    // The HNSW diversity heuristic: walking best-first, keep a
    // candidate only when it is closer to the query than to every
    // already-kept neighbor. Clustered inserts then keep a few
    // long-range edges instead of m near-duplicates, which is what
    // preserves recall on exactly the clustered embeddings the caches
    // hold. Backfill from the best rejects when fewer than m survive.
    std::vector<std::uint32_t> selected, rejected;
    for (const Candidate &c : candidates) {
        if (selected.size() >= m)
            break;
        bool diverse = true;
        for (const std::uint32_t s : selected) {
            if (kernels::dot(row(c.slot), row(s), dim_) > c.score) {
                diverse = false;
                break;
            }
        }
        if (diverse)
            selected.push_back(c.slot);
        else
            rejected.push_back(c.slot);
    }
    for (const std::uint32_t r : rejected) {
        if (selected.size() >= m)
            break;
        selected.push_back(r);
    }
    return selected;
}

void
HnswIndex::pruneLinks(std::uint32_t slot, std::uint32_t level)
{
    auto &links = nodes_[slot].links[level];
    if (links.size() <= maxLinks(level))
        return;
    std::vector<Candidate> candidates;
    candidates.reserve(links.size());
    for (const std::uint32_t nb : links)
        candidates.push_back({nb, kernels::dot(row(slot), row(nb), dim_)});
    std::sort(candidates.begin(), candidates.end(),
              [](const Candidate &a, const Candidate &b) {
                  if (a.score != b.score)
                      return a.score > b.score;
                  return a.slot < b.slot;
              });
    links = selectNeighbors(std::move(candidates), maxLinks(level));
}

void
HnswIndex::linkNewNode(std::uint32_t slot, std::uint32_t level)
{
    const float *q = row(slot);
    std::uint32_t ep = entry_;
    const std::uint32_t epLevel = nodes_[ep].level;
    for (std::uint32_t l = epLevel; l > level; --l)
        ep = greedyStep(q, ep, l);
    for (std::uint32_t l = std::min(level, epLevel) + 1; l-- > 0;) {
        auto candidates =
            searchLayer(q, ep, config_.efConstruction, l, true);
        if (!candidates.empty())
            ep = candidates.front().slot;
        const auto neighbors =
            selectNeighbors(std::move(candidates), config_.hnswM);
        for (const std::uint32_t nb : neighbors) {
            nodes_[slot].links[l].push_back(nb);
            nodes_[nb].links[l].push_back(slot);
            pruneLinks(nb, l);
        }
    }
}

void
HnswIndex::insert(std::uint64_t id, const Embedding &embedding)
{
    MODM_ASSERT(embedding.dim() == dim_,
                "hnsw insert: dimension %zu != %zu", embedding.dim(),
                dim_);
    insertRow(id, embedding.vec().data());
}

void
HnswIndex::insertRow(std::uint64_t id, const float *data)
{
    MODM_ASSERT(!contains(id), "hnsw insert: duplicate id %llu",
                static_cast<unsigned long long>(id));
    const auto slot = static_cast<std::uint32_t>(nodes_.size());
    rows_.pushBack(data);
    Node node;
    node.id = id;
    node.level = levelFor(id);
    node.links.resize(node.level + 1);
    nodes_.push_back(std::move(node));
    visited_.push_back(0);
    slotOf_[id] = slot;
    if (entry_ == kNoEntry) {
        entry_ = slot;
        return;
    }
    linkNewNode(slot, nodes_[slot].level);
    if (nodes_[slot].level > nodes_[entry_].level)
        entry_ = slot;
}

void
HnswIndex::replaceEntry()
{
    // Highest live layer wins; ties to the lowest slot. O(slots), but
    // only runs when the current entry point is removed.
    entry_ = kNoEntry;
    for (std::uint32_t s = 0; s < nodes_.size(); ++s) {
        if (nodes_[s].dead)
            continue;
        if (entry_ == kNoEntry ||
            nodes_[s].level > nodes_[entry_].level)
            entry_ = s;
    }
}

bool
HnswIndex::remove(std::uint64_t id)
{
    const auto it = slotOf_.find(id);
    if (it == slotOf_.end())
        return false;
    const std::uint32_t slot = it->second;
    slotOf_.erase(it);
    Node &v = nodes_[slot];
    v.dead = true;
    ++dead_;

    // Repair each layer: out-neighbors drop their link to the
    // tombstone, then reconnect across it from the tombstone's own
    // links (every ordered pair, so the patch stays symmetric),
    // re-pruned to the layer's degree cap. The tombstone keeps its row
    // and out-links as a routing waypoint; asymmetric in-links from
    // elsewhere keep working the same way.
    for (std::uint32_t l = 0; l <= v.level; ++l) {
        const std::vector<std::uint32_t> peers = v.links[l];
        for (const std::uint32_t u : peers) {
            auto &ul = nodes_[u].links[l];
            const auto pos = std::find(ul.begin(), ul.end(), slot);
            if (pos != ul.end())
                ul.erase(pos);
        }
        for (const std::uint32_t u : peers) {
            if (nodes_[u].dead)
                continue;
            auto &ul = nodes_[u].links[l];
            for (const std::uint32_t w : peers) {
                if (w == u || nodes_[w].dead)
                    continue;
                if (std::find(ul.begin(), ul.end(), w) != ul.end())
                    continue;
                ul.push_back(w);
            }
            pruneLinks(u, l);
        }
    }
    if (entry_ == slot)
        replaceEntry();
    if (dead_ > slotOf_.size())
        compact();
    return true;
}

void
HnswIndex::compact()
{
    // Rebuild from the live rows in slot order — a pure function of
    // the construction sequence, so two indexes fed equal sequences
    // compact identically. Bounds memory at <= 2x live under churn.
    AlignedRows oldRows = std::move(rows_);
    std::vector<Node> oldNodes;
    oldNodes.swap(nodes_);
    rows_.reset(dim_);
    slotOf_.clear();
    visited_.clear();
    visitEpoch_ = 0;
    entry_ = kNoEntry;
    dead_ = 0;
    reserve(oldNodes.size());
    for (std::uint32_t s = 0; s < oldNodes.size(); ++s) {
        if (oldNodes[s].dead)
            continue;
        insertRow(oldNodes[s].id, oldRows.row(s));
    }
    ++compactions_;
}

bool
HnswIndex::contains(std::uint64_t id) const
{
    return slotOf_.find(id) != slotOf_.end();
}

std::vector<Match>
HnswIndex::topK(const Embedding &query, std::size_t k) const
{
    std::vector<Match> out;
    if (empty() || k == 0)
        return out;
    MODM_ASSERT(query.dim() == dim_, "hnsw query: dimension mismatch");
    const float *q = query.vec().data();
    std::uint32_t ep = entry_;
    for (std::uint32_t l = nodes_[ep].level; l > 0; --l)
        ep = greedyStep(q, ep, l);
    const std::size_t ef = std::max(config_.efSearch, k);
    auto candidates = searchLayer(q, ep, ef, 0, true);
    out.reserve(std::min(k, candidates.size()));
    for (const Candidate &c : candidates)
        out.push_back({nodes_[c.slot].id, c.score});
    // Slot-ordered ties re-rank by id so results match the backend-wide
    // (similarity desc, id asc) contract across compactions.
    std::sort(out.begin(), out.end(), matchBefore);
    if (out.size() > k)
        out.resize(k);
    return out;
}

Match
HnswIndex::exactBest(const Embedding &query) const
{
    if (empty())
        return {};
    MODM_ASSERT(query.dim() == dim_, "hnsw query: dimension mismatch");
    const float *q = query.vec().data();
    // Rows are slot-contiguous in the slab (tombstones included), so
    // score everything with the batched kernel and skip tombstones in
    // the fold; ties still break by id, exactly as before.
    TopMatches top(1);
    constexpr std::size_t kBlock = 256;
    double scores[kBlock];
    for (std::size_t base = 0; base < nodes_.size(); base += kBlock) {
        const std::size_t len = std::min(kBlock, nodes_.size() - base);
        kernels::dotBatch(q, rows_.row(base), rows_.stride(), len, dim_,
                          scores);
        for (std::size_t i = 0; i < len; ++i) {
            if (!nodes_[base + i].dead)
                top.offer(nodes_[base + i].id, scores[i]);
        }
    }
    return top.take().front();
}

void
HnswIndex::setEfSearch(std::size_t ef)
{
    if (ef == 0)
        return; // 0 = leave the configured value
    config_.efSearch = ef;
}

std::size_t
HnswIndex::memoryBytes() const
{
    // Rows count dim (not stride) floats per slot, tombstones
    // included, so the figure is unchanged from the pre-slab layout.
    std::size_t bytes = nodes_.size() * dim_ * sizeof(float) +
        locatorBytes(slotOf_.size(), sizeof(std::uint32_t));
    for (const Node &node : nodes_) {
        bytes += sizeof(node.id) + sizeof(node.level) + 1;
        for (const auto &links : node.links)
            bytes += links.size() * sizeof(std::uint32_t);
    }
    return bytes;
}

void
HnswIndex::clear()
{
    rows_.clear();
    nodes_.clear();
    slotOf_.clear();
    visited_.clear();
    visitEpoch_ = 0;
    entry_ = kNoEntry;
    dead_ = 0;
    compactions_ = 0;
}

} // namespace modm::embedding
