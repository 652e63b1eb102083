#include "src/embedding/index.hh"

#include <algorithm>

#include "src/common/log.hh"
#include "src/common/thread_pool.hh"

namespace modm::embedding {

namespace {

/** Shard s of `shards` over [0, rows): a contiguous slot range. */
std::pair<std::size_t, std::size_t>
shardRange(std::size_t s, std::size_t shards, std::size_t rows)
{
    const std::size_t lo = rows * s / shards;
    const std::size_t hi = rows * (s + 1) / shards;
    return {lo, hi};
}

} // namespace

FlatIndex::FlatIndex(std::size_t dim)
    : dim_(dim)
{
    MODM_ASSERT(dim_ > 0, "index dimension must be positive");
    rows_.reset(dim_);
    sketch_.reset(dim_);
}

void
FlatIndex::reserve(std::size_t rows)
{
    rows_.reserve(rows);
    sketch_.reserve(rows);
    ids_.reserve(rows);
    slotOf_.reserve(rows);
}

void
FlatIndex::insert(std::uint64_t id, const Embedding &embedding)
{
    MODM_ASSERT(embedding.dim() == dim_,
                "index insert: dimension %zu != %zu", embedding.dim(), dim_);
    MODM_ASSERT(!contains(id), "index insert: duplicate id %llu",
                static_cast<unsigned long long>(id));
    slotOf_[id] = ids_.size();
    ids_.push_back(id);
    rows_.pushBack(embedding.vec().data());
    sketch_.pushBack(embedding.vec().data());
}

bool
FlatIndex::remove(std::uint64_t id)
{
    const auto it = slotOf_.find(id);
    if (it == slotOf_.end())
        return false;
    const std::size_t slot = it->second;
    const std::size_t last = ids_.size() - 1;
    if (slot != last) {
        // Swap the last row into the vacated slot.
        ids_[slot] = ids_[last];
        slotOf_[ids_[slot]] = slot;
    }
    rows_.swapRemove(slot);
    sketch_.swapRemove(slot);
    ids_.pop_back();
    slotOf_.erase(it);
    return true;
}

bool
FlatIndex::contains(std::uint64_t id) const
{
    return slotOf_.find(id) != slotOf_.end();
}

std::size_t
FlatIndex::scanShards() const
{
    if (parallelism_ == 1 || ids_.size() < parallelThreshold_)
        return 1;
    // An explicit setting forces that shard count even when the pool
    // has fewer threads (it then drains shards with what it has) —
    // this is what lets the property tests exercise the sharded merge
    // on any machine. Auto mode matches the pool.
    const std::size_t want = parallelism_ == 0
                                 ? ThreadPool::global().concurrency()
                                 : parallelism_;
    return std::max<std::size_t>(1, std::min(want, ids_.size()));
}

Match
FlatIndex::best(const Embedding &query) const
{
    Match result;
    if (empty())
        return result;
    MODM_ASSERT(query.dim() == dim_, "index query: dimension mismatch");
    const SketchQuery q(query.vec().data(), sketch_);
    const std::size_t shards = scanShards();
    SlotScore top;
    if (shards <= 1) {
        top = screenBest(q, rows_, sketch_, 0, ids_.size());
    } else {
        // Each shard screens its own slot range exactly, so the merge
        // is the full scan's merge.
        std::vector<SlotScore> partial(shards);
        ThreadPool::global().parallelFor(shards, [&](std::size_t s) {
            const auto [lo, hi] = shardRange(s, shards, ids_.size());
            partial[s] = screenBest(q, rows_, sketch_, lo, hi);
        });
        // Shards cover ascending slot ranges, so a strictly-greater
        // merge keeps the earliest slot on ties, same as the serial
        // scan.
        top = partial[0];
        for (std::size_t s = 1; s < shards; ++s)
            if (partial[s].score > top.score)
                top = partial[s];
    }
    result.id = ids_[top.slot];
    result.similarity = top.score;
    return result;
}

std::vector<Match>
FlatIndex::topK(const Embedding &query, std::size_t k) const
{
    std::vector<Match> result;
    if (empty() || k == 0)
        return result;
    MODM_ASSERT(query.dim() == dim_, "index query: dimension mismatch");
    const SketchQuery q(query.vec().data(), sketch_);
    const std::size_t shards = scanShards();
    std::vector<SlotScore> top;
    if (shards <= 1) {
        top = screenTopK(q, rows_, sketch_, 0, ids_.size(), k);
    } else {
        std::vector<std::vector<SlotScore>> partial(shards);
        ThreadPool::global().parallelFor(shards, [&](std::size_t s) {
            const auto [lo, hi] = shardRange(s, shards, ids_.size());
            partial[s] = screenTopK(q, rows_, sketch_, lo, hi, k);
        });
        for (const auto &p : partial)
            top.insert(top.end(), p.begin(), p.end());
        const std::size_t keep = std::min(k, top.size());
        std::partial_sort(top.begin(), top.begin() + keep, top.end(),
                          ranksBefore);
        top.resize(keep);
    }
    result.reserve(top.size());
    for (const auto &entry : top)
        result.push_back({ids_[entry.slot], entry.score});
    return result;
}

void
FlatIndex::clear()
{
    rows_.clear();
    sketch_.clear();
    ids_.clear();
    slotOf_.clear();
}

} // namespace modm::embedding
