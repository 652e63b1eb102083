#include "src/cache/embedding_store.hh"

#include "src/common/log.hh"

namespace modm::cache {

EmbeddingStore::EmbeddingStore(
    std::size_t dim, const embedding::RetrievalBackendConfig &retrieval)
    : index_(embedding::makeVectorIndex(retrieval, dim))
{
    if (index_->setRowSource(this))
        rows_.emplace(dim);
}

void
EmbeddingStore::reserve(std::size_t rows)
{
    index_->reserve(rows);
    if (rows_)
        slots_.reserve(rows);
}

void
EmbeddingStore::insert(std::uint64_t id, const embedding::Embedding &embedding)
{
    index_->insert(id, embedding);
    // The row becomes visible only after the index insert returns: a
    // retrain inside insert() reads this id's reconstruction, not its
    // exact row, and IVF-PQ results depend on that order.
    if (rows_)
        slots_.emplace(id, rows_->insert(embedding.vec().data()));
}

void
EmbeddingStore::remove(std::uint64_t id)
{
    // Remove from the index before releasing the slab slot: the index
    // may still read this id's row through the RowSource mid-removal.
    index_->remove(id);
    if (!rows_)
        return;
    const auto it = slots_.find(id);
    MODM_ASSERT(it != slots_.end(), "store row missing for id %llu",
                static_cast<unsigned long long>(id));
    rows_->release(it->second);
    slots_.erase(it);
}

void
EmbeddingStore::clear()
{
    index_->clear();
    if (rows_) {
        rows_->clear();
        slots_.clear();
    }
}

RetrievalResult
EmbeddingStore::retrieve(const embedding::Embedding &query) const
{
    ++lookups_;
    RetrievalResult result;
    if (index_->empty())
        return result;
    const auto match = index_->best(query);
    result.found = true;
    result.entryId = match.id;
    result.similarity = match.similarity;
    if (index_->approximate()) {
        // Quality attribution for approximate backends: did this
        // lookup return the entry an exhaustive scan would have?
        ++recallChecked_;
        if (index_->exactBest(query).id == match.id)
            ++recallAgreed_;
    }
    return result;
}

const float *
EmbeddingStore::row(std::uint64_t id) const
{
    const auto it = slots_.find(id);
    if (it == slots_.end())
        return nullptr;
    ++rowAccesses_;
    return rows_->row(it->second);
}

} // namespace modm::cache
