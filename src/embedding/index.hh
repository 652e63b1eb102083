/**
 * @file
 * Exact flat cosine retrieval: the one index under both caches
 * (vector_index.hh names it VectorIndex).
 *
 * The paper stores 100k image embeddings (~0.29 GB of CLIP vectors) and
 * reports retrieval latency of ~0.05 s — negligible against 10+ s of
 * denoising. This index keeps rows in a contiguous flat array so the
 * brute-force scan is cache-friendly, and supports O(1) removal (swap with
 * the last row) for FIFO/LRU eviction.
 *
 * Beside the float rows it keeps a u8 sketch of every row (one code
 * byte per dim, centered on the mean of the first 256 rows, in 8-row
 * interleaved blocks, plus three floats; kept in sync by insert,
 * swap-remove, clear and reserve). Each query first screens the
 * sketch: an exact integer kernel bounds every row's score, and only
 * rows whose upper bound reaches the best lower bound are re-scored
 * with the double kernel. The result is bit-identical to scoring every
 * row (sketch.hh has the bound and the proof); at the serving size a
 * query re-scores about a dozen of 10k rows. Ties go to the earliest
 * insertion slot.
 *
 * The index owns its query scratch (the prepared query's code buffer
 * and the screen's kept list), so best() allocates nothing once warm.
 * best() is const but writes that scratch: one index serves one thread
 * at a time, as each cache shard does.
 *
 * Threading. On a thread with an open CrewScope (ServingSystem::run
 * opens one around its event loop), best() over kSplitScreenRows rows
 * or more cuts the sketch's 8-row blocks into one block-aligned range
 * per crew member (crew.hh). Each range runs the one ranged screenBest
 * with its member's kept list, and the range answers merge in slot
 * order, a later range winning only when strictly greater: the same
 * slot, similarity bits and tie-break as screenBest over every row.
 * The helpers only read the rows, the sketch and the prepared query,
 * and best() returns only after every range has finished, so the
 * one-thread rule above still covers the index: mutate it only between
 * queries, from the thread that queries it.
 */

#ifndef MODM_EMBEDDING_INDEX_HH
#define MODM_EMBEDDING_INDEX_HH

#include <array>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "src/common/crew.hh"
#include "src/common/row_store.hh"
#include "src/common/sketch.hh"
#include "src/embedding/embedding.hh"

namespace modm::embedding {

/**
 * Rows from which best() splits its screen across a crew. Four ranges
 * win from about 3k rows of the serving regime, tie at 2k and lose at
 * 1.2k (docs/PERF.md, "Parallel screen").
 */
constexpr std::size_t kSplitScreenRows = 4096;

/** One retrieval result. */
struct Match
{
    std::uint64_t id = 0;
    double similarity = -1.0;
};

/**
 * Deterministic accounting for an id -> slot hash map: key + payload +
 * one bucket pointer per entry. Counts no load-factor or allocator
 * slack, so memoryBytes() stays a pure function of the construction
 * sequence.
 */
inline std::size_t
locatorBytes(std::size_t entries, std::size_t payloadBytes)
{
    return entries *
        (sizeof(std::uint64_t) + payloadBytes + sizeof(void *));
}

/**
 * Flat cosine index keyed by caller-assigned 64-bit ids. Exact: every
 * query bounds every row and re-scores each row that could win.
 * Equal construction sequences and equal queries give equal results
 * on every machine.
 */
class FlatIndex
{
  public:
    /** Create an index for embeddings of the given dimensionality. */
    explicit FlatIndex(std::size_t dim = kEmbeddingDim);

    /**
     * Pre-allocate room for `rows` embeddings: contiguous reservations
     * of the row and sketch storage plus hash-map capacity, so bulk
     * insertion (cache warm-up) avoids repeated rows_ reallocation and
     * slotOf_ rehash churn.
     */
    void reserve(std::size_t rows);

    /** Insert an embedding under a fresh id; ids must be unique. */
    void insert(std::uint64_t id, const Embedding &embedding);

    /** Remove an id; returns false when absent. */
    bool remove(std::uint64_t id);

    /** True when the id is present. */
    bool contains(std::uint64_t id) const;

    /** The stored row of `id` (dim floats), or null when absent. */
    const float *row(std::uint64_t id) const;

    /** Number of stored embeddings. */
    std::size_t size() const { return ids_.size(); }

    /** True when empty. */
    bool empty() const { return ids_.empty(); }

    /**
     * Best match for a query, or a Match with similarity -1 when the
     * index is empty.
     */
    Match best(const Embedding &query) const;

    /** Remove everything. */
    void clear();

    /** Exact bytes of index-owned storage: flat rows + sketch + ids +
     *  locator payloads, ~5 * dim + 44 per entry, with no capacity or
     *  allocator slack. Counts dim (not stride) floats per row so the
     *  row figure is unchanged from the pre-slab layout at any
     *  dimension; the sketch adds dim rounded up to 4 code bytes and
     *  three floats per row, plus its dim-float centering vector once
     *  derived. */
    std::size_t memoryBytes() const
    {
        return ids_.size() * dim_ * sizeof(float) +
            sketch_.memoryBytes() + ids_.size() * sizeof(std::uint64_t) +
            locatorBytes(slotOf_.size(), sizeof(std::size_t));
    }

  private:
    std::size_t dim_;
    AlignedRows rows_;               // slot-addressed, 64-byte aligned
    RowSketch sketch_;               // u8 screen of rows_, same slots
    std::vector<std::uint64_t> ids_;             // slot -> id
    std::unordered_map<std::uint64_t, std::size_t> slotOf_; // id -> slot
    /**
     * best() scratch of one crew member (member 0 alone when serial):
     * its kept rows and its range's answer. Members on different CPUs
     * write their own, so each is padded a cache line apart from the
     * next; padded rather than aligned, so the index keeps malloc's
     * alignment (an over-aligned member of a heap object goes through
     * aligned new).
     */
    struct MemberScratch
    {
        std::vector<SlotScore> kept;
        SlotScore best;
        char pad[64];
    };

    mutable SketchQuery query_; // best() scratch: query codes
    mutable std::array<MemberScratch, kMaxCrewMembers> scratch_;
};

} // namespace modm::embedding

#endif // MODM_EMBEDDING_INDEX_HH
