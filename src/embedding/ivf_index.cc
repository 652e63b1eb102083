#include "src/embedding/ivf_index.hh"

#include <algorithm>

#include "src/common/kernels.hh"
#include "src/common/log.hh"

namespace modm::embedding {

namespace {

/** Rows per batched-scoring block in the list scans. */
constexpr std::size_t kListBlock = 256;

} // namespace

IvfIndex::IvfIndex(const RetrievalBackendConfig &config, std::size_t dim)
    : dim_(dim), quantizer_(config, dim), lists_(makeLists(1))
{
    MODM_ASSERT(dim_ > 0, "ivf index dimension must be positive");
}

std::vector<IvfIndex::List>
IvfIndex::makeLists(std::size_t count) const
{
    std::vector<List> lists(count);
    for (List &l : lists)
        l.rows.reset(dim_);
    return lists;
}

void
IvfIndex::reserve(std::size_t rows)
{
    locator_.reserve(rows);
    if (!trained()) {
        lists_[0].rows.reserve(std::min(rows, trainFloor()));
        lists_[0].ids.reserve(std::min(rows, trainFloor()));
    }
}

void
IvfIndex::appendToList(std::size_t list, std::uint64_t id,
                       const float *row)
{
    List &l = lists_[list];
    locator_[id] = {list, l.ids.size()};
    l.ids.push_back(id);
    l.rows.pushBack(row);
}

void
IvfIndex::insert(std::uint64_t id, const Embedding &embedding)
{
    MODM_ASSERT(embedding.dim() == dim_,
                "ivf insert: dimension %zu != %zu", embedding.dim(), dim_);
    MODM_ASSERT(!contains(id), "ivf insert: duplicate id %llu",
                static_cast<unsigned long long>(id));
    const float *row = embedding.vec().data();
    appendToList(trained() ? quantizer_.assign(row) : 0, id, row);
    ++insertsSinceTrain_;
    if (!trained()) {
        if (size() >= trainFloor())
            train();
    } else {
        maybeRetrain();
    }
}

bool
IvfIndex::remove(std::uint64_t id)
{
    const auto it = locator_.find(id);
    if (it == locator_.end())
        return false;
    const Location loc = it->second;
    List &l = lists_[loc.list];
    const std::size_t last = l.ids.size() - 1;
    if (loc.pos != last) {
        // Swap the list's last row into the vacated position.
        l.ids[loc.pos] = l.ids[last];
        locator_[l.ids[loc.pos]].pos = loc.pos;
    }
    l.rows.swapRemove(loc.pos);
    l.ids.pop_back();
    locator_.erase(it);
    return true;
}

bool
IvfIndex::contains(std::uint64_t id) const
{
    return locator_.find(id) != locator_.end();
}

void
IvfIndex::train()
{
    // Rows in enumeration order (lists in order, positions in order).
    std::vector<const float *> rows;
    rows.reserve(size());
    for (const List &l : lists_) {
        for (std::size_t p = 0; p < l.ids.size(); ++p)
            rows.push_back(l.rows.row(p));
    }
    if (!quantizer_.train(rows, trainings_))
        return;

    // Re-bin every row under the new centroids.
    std::vector<List> old;
    old.swap(lists_);
    lists_ = makeLists(quantizer_.lists());
    for (const List &l : old) {
        for (std::size_t p = 0; p < l.ids.size(); ++p) {
            const float *row = l.rows.row(p);
            appendToList(quantizer_.assign(row), l.ids[p], row);
        }
    }
    ++trainings_;
    insertsSinceTrain_ = 0;
}

void
IvfIndex::maybeRetrain()
{
    std::size_t maxList = 0;
    for (const List &l : lists_)
        maxList = std::max(maxList, l.ids.size());
    if (quantizer_.skewed(maxList, size(), insertsSinceTrain_))
        train();
}

void
IvfIndex::scanList(const List &l, const float *query,
                   TopMatches &top) const
{
    double scores[kListBlock];
    for (std::size_t base = 0; base < l.ids.size();
         base += kListBlock) {
        const std::size_t len =
            std::min(kListBlock, l.ids.size() - base);
        kernels::dotBatch(query, l.rows.row(base), l.rows.stride(),
                          len, dim_, scores);
        for (std::size_t i = 0; i < len; ++i)
            top.offer(l.ids[base + i], scores[i]);
    }
}

Match
IvfIndex::exactBest(const Embedding &query) const
{
    if (empty())
        return {};
    MODM_ASSERT(query.dim() == dim_, "ivf query: dimension mismatch");
    TopMatches top(1);
    for (const List &l : lists_)
        scanList(l, query.vec().data(), top);
    return top.take().front();
}

std::vector<Match>
IvfIndex::topK(const Embedding &query, std::size_t k) const
{
    if (empty() || k == 0)
        return {};
    MODM_ASSERT(query.dim() == dim_, "ivf query: dimension mismatch");
    const float *q = query.vec().data();
    TopMatches top(k);
    if (trained()) {
        for (const std::size_t c : quantizer_.probe(q))
            scanList(lists_[c], q, top);
    }
    if (top.empty()) {
        // Untrained (one exact list), or eviction churn drained every
        // probed list while others still hold rows: a non-empty index
        // must return a real entry, so scan every list.
        for (const List &l : lists_)
            scanList(l, q, top);
    }
    return top.take();
}

bool
IvfIndex::approximate() const
{
    return trained() && nprobe() < lists_.size();
}

std::size_t
IvfIndex::memoryBytes() const
{
    // Rows count dim (not stride) floats, so the figure is unchanged
    // from the pre-slab layout at any dimension.
    std::size_t bytes = quantizer_.memoryBytes() +
        locatorBytes(locator_.size(), sizeof(Location));
    for (const List &l : lists_)
        bytes += l.ids.size() * dim_ * sizeof(float) +
            l.ids.size() * sizeof(std::uint64_t);
    return bytes;
}

void
IvfIndex::clear()
{
    lists_ = makeLists(1);
    quantizer_.clear();
    locator_.clear();
    trainings_ = 0;
    insertsSinceTrain_ = 0;
}

} // namespace modm::embedding
