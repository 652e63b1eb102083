#include "src/embedding/index.hh"

#include <algorithm>

#include "src/common/log.hh"

namespace modm::embedding {

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
    sketch_.pushBack(rows_);
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

const float *
FlatIndex::row(std::uint64_t id) const
{
    const auto it = slotOf_.find(id);
    return it == slotOf_.end() ? nullptr : rows_.row(it->second);
}

Match
FlatIndex::best(const Embedding &query) const
{
    Match result;
    if (empty())
        return result;
    MODM_ASSERT(query.dim() == dim_, "index query: dimension mismatch");
    query_.prepare(query.vec().data(), sketch_);
    const std::size_t size = sketch_.size();
    const std::size_t ranges = size >= kSplitScreenRows ? crewMembers() : 1;
    SlotScore top;
    if (ranges == 1) {
        top = screenBest(query_, rows_, sketch_, 0, size, scratch_[0].kept);
    } else {
        // Helpers must not allocate: their kept lists start sized here.
        for (std::size_t m = 1; m < ranges; ++m) {
            if (scratch_[m].kept.capacity() == 0)
                scratch_[m].kept.reserve(64);
        }
        // Block-aligned bounds: range c holds blocks
        // [blocks * c / ranges, blocks * (c + 1) / ranges). Range c's
        // answer goes to the scratch of member c, which no other range
        // writes.
        const std::size_t blocks = (size + 7) / 8;
        crewRun(ranges, [&](std::size_t c, std::size_t member) {
            scratch_[c].best = screenBest(
                query_, rows_, sketch_, blocks * c / ranges * 8,
                std::min(blocks * (c + 1) / ranges * 8, size),
                scratch_[member].kept);
        });
        top = scratch_[0].best;
        for (std::size_t c = 1; c < ranges; ++c) {
            if (scratch_[c].best.score > top.score)
                top = scratch_[c].best;
        }
    }
    result.id = ids_[top.slot];
    result.similarity = top.score;
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
