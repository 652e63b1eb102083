/**
 * @file
 * The embedding index under both caches.
 *
 * MoDM's image cache (text-to-image retrieval over CLIP image
 * embeddings) and the Nirvana/Pinecone latent cache (text-to-text
 * retrieval over prompt embeddings) differ only in payload, key and
 * eviction order. What they share lives here once: the retrieval
 * backend, the exact rows a quantized backend re-ranks against, the
 * remove-before-release rule, and the recall@1 counters (the one copy
 * ServingResult::retrievalRecallAt1 aggregates).
 */

#ifndef MODM_CACHE_EMBEDDING_STORE_HH
#define MODM_CACHE_EMBEDDING_STORE_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_map>

#include "src/common/row_store.hh"
#include "src/embedding/vector_index.hh"

namespace modm::cache {

/** Result of a best-match lookup. */
struct RetrievalResult
{
    /** True when the cache is non-empty and a best match exists. */
    bool found = false;
    /** Best-match entry id. */
    std::uint64_t entryId = 0;
    /** Cosine similarity of the best match. */
    double similarity = -1.0;
};

/**
 * A retrieval backend over cached entries keyed by 64-bit id. Exact
 * rows are kept only when the backend reads them through the
 * RowSource (IVF-PQ re-ranking); every other backend already holds
 * its rows, so the store keeps no second copy. The store registers
 * itself as the backend's RowSource, so it is neither copyable nor
 * movable.
 */
class EmbeddingStore final : public embedding::RowSource
{
  public:
    EmbeddingStore(std::size_t dim,
                   const embedding::RetrievalBackendConfig &retrieval);

    EmbeddingStore(const EmbeddingStore &) = delete;
    EmbeddingStore &operator=(const EmbeddingStore &) = delete;

    /** Pre-size for `rows` entries (bulk warm-up). */
    void reserve(std::size_t rows);

    /** Index an embedding under a fresh id. */
    void insert(std::uint64_t id, const embedding::Embedding &embedding);

    /** Drop an id from the index, then release its row. */
    void remove(std::uint64_t id);

    /** Remove everything; lookup counters are kept. */
    void clear();

    /**
     * Best match for `query`. On approximate backends each lookup is
     * also checked against an exhaustive scan (recall@1): an
     * approximate hit may refine from a different cached image than
     * the exact scan would pick.
     */
    RetrievalResult retrieve(const embedding::Embedding &query) const;

    /**
     * Exact row for `id` (RowSource): the slab row in place, or
     * nullptr when the id is absent or the backend reads no rows.
     */
    const float *row(std::uint64_t id) const override;

    /** Rows handed out through row() (pins the zero-copy path). */
    std::uint64_t rowAccesses() const { return rowAccesses_; }

    /** Lookups served, empty store included. */
    std::uint64_t lookups() const { return lookups_; }

    /** Lookups compared against an exhaustive scan (recall@1). */
    std::uint64_t recallChecked() const { return recallChecked_; }

    /** Checked lookups where the backend matched the exact best. */
    std::uint64_t recallAgreed() const { return recallAgreed_; }

    /** The retrieval backend; its setters are the runtime knobs. */
    embedding::VectorIndex &index() { return *index_; }
    const embedding::VectorIndex &index() const { return *index_; }

  private:
    std::unique_ptr<embedding::VectorIndex> index_;
    std::optional<RowStore> rows_;
    std::unordered_map<std::uint64_t, RowStore::Slot> slots_;
    mutable std::uint64_t rowAccesses_ = 0;
    mutable std::uint64_t lookups_ = 0;
    mutable std::uint64_t recallChecked_ = 0;
    mutable std::uint64_t recallAgreed_ = 0;
};

} // namespace modm::cache

#endif // MODM_CACHE_EMBEDDING_STORE_HH
