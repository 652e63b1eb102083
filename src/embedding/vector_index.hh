/**
 * @file
 * Pluggable retrieval backends: the abstract VectorIndex interface the
 * caches program against, plus the RetrievalBackendConfig knob that
 * selects and tunes a concrete backend.
 *
 * MoDM's whole serving loop hinges on one hot path — cosine retrieval
 * over the image/latent cache — so the backend is a first-class measured
 * knob rather than an implementation detail. Four backends exist today:
 *
 *  - Flat (FlatIndex, index.hh): exact brute-force scan behind an
 *    int8 screen. Bit-for-bit a plain serial scan; the default
 *    everywhere so existing figures stay byte-identical.
 *  - IVF (IvfIndex, ivf_index.hh): inverted-file approximate search
 *    over a CoarseQuantizer (coarse_quantizer.hh: deterministic seeded
 *    k-means and an nprobe knob). Sub-linear scans at 100k-1M entries
 *    at a small recall cost.
 *  - HNSW (HnswIndex, hnsw_index.hh): deterministic seeded hierarchical
 *    navigable-small-world graph. Logarithmic-ish search at million-row
 *    scale, incremental insert, tombstone + neighbor-repair removal
 *    matching cache churn, and an efSearch recall/latency knob.
 *  - IVF-PQ (IvfPqIndex, ivf_pq_index.hh): product-quantized residual
 *    codes over the same CoarseQuantizer — ~8-32x smaller per entry
 *    than flat rows — with asymmetric distance tables on query and an
 *    exact re-rank of the top candidates when a RowSource is attached.
 *
 * Every backend supports incremental insert/remove (the FIFO/LRU/
 * Utility eviction policies need both), reports its exact memory
 * footprint (memoryBytes — the sweep's bytes-per-entry axis), and is
 * deterministic: equal construction sequences and equal queries yield
 * equal results, machine-independently.
 */

#ifndef MODM_EMBEDDING_VECTOR_INDEX_HH
#define MODM_EMBEDDING_VECTOR_INDEX_HH

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/embedding/embedding.hh"

namespace modm::embedding {

/** One retrieval result. */
struct Match
{
    std::uint64_t id = 0;
    double similarity = -1.0;
};

/**
 * The id-keyed backends' total order on results: similarity desc, then
 * id asc (ids, not slots, because list reassignment and compaction
 * make slots an implementation detail).
 */
inline bool
matchBefore(const Match &a, const Match &b)
{
    if (a.similarity != b.similarity)
        return a.similarity > b.similarity;
    return a.id < b.id;
}

/**
 * Bounded top-k selection under matchBefore: a heap of the k best
 * matches offered so far, worst at the front. k must be positive.
 */
class TopMatches
{
  public:
    explicit TopMatches(std::size_t k) : k_(k) { heap_.reserve(k); }

    void offer(std::uint64_t id, double similarity)
    {
        const Match candidate{id, similarity};
        if (heap_.size() < k_) {
            heap_.push_back(candidate);
            std::push_heap(heap_.begin(), heap_.end(), matchBefore);
        } else if (matchBefore(candidate, heap_.front())) {
            std::pop_heap(heap_.begin(), heap_.end(), matchBefore);
            heap_.back() = candidate;
            std::push_heap(heap_.begin(), heap_.end(), matchBefore);
        }
    }

    bool empty() const { return heap_.empty(); }

    /** The kept matches, best first; empties the collector. */
    std::vector<Match> take();

  private:
    std::size_t k_;
    std::vector<Match> heap_;
};

/** Which retrieval backend a cache builds. */
enum class RetrievalBackend
{
    Flat,  ///< exact brute-force scan (the default)
    Ivf,   ///< inverted-file approximate search
    Hnsw,  ///< hierarchical navigable-small-world graph
    IvfPq, ///< product-quantized codes over IVF coarse clustering
};

/** Printable backend name. */
const char *retrievalBackendName(RetrievalBackend kind);

/**
 * Optional exact-row oracle an index may consult for rows it stores
 * only in compressed form (IVF-PQ re-ranking and recall accounting).
 * The caches' EmbeddingStore implements it, keeping exact rows only
 * for backends whose setRowSource() reports that they read them;
 * row() may return nullptr when the id's row is unavailable, and the
 * index must then fall back to its own (approximate) representation.
 */
class RowSource
{
  public:
    virtual ~RowSource() = default;

    /** Exact row for `id` (dim floats), or nullptr when unknown. */
    virtual const float *row(std::uint64_t id) const = 0;
};

/** Backend selection plus the knobs the approximate backends expose. */
struct RetrievalBackendConfig
{
    RetrievalBackend kind = RetrievalBackend::Flat;

    /** IVF: number of coarse k-means clusters (inverted lists). */
    std::size_t nlist = 64;
    /** IVF: lists scanned per query; recall/latency knob. */
    std::size_t nprobe = 8;
    /**
     * IVF: retrain the coarse quantizer when the largest list exceeds
     * this multiple of the mean list size (insert/evict churn skews
     * lists over time). <= 1 disables skew-triggered retraining.
     */
    double retrainThreshold = 3.0;

    /**
     * HNSW: max out-degree per node on layers above 0 (layer 0 keeps
     * 2M links). Higher M = denser graph = better recall, more memory
     * (~4(M + 2M) bytes of links per entry) and slower inserts.
     */
    std::size_t hnswM = 16;
    /**
     * HNSW: beam width while building (candidates tracked per layer
     * during insert). Build-time recall knob; does not affect queries.
     */
    std::size_t efConstruction = 128;
    /**
     * HNSW: beam width while searching layer 0. The recall/latency
     * knob (queries always track at least k candidates).
     */
    std::size_t efSearch = 64;

    /**
     * IVF-PQ: subquantizer count — each embedding splits into pqM
     * contiguous subvectors of dim/pqM floats, each encoded to a
     * one-byte code (256 codewords per subspace). Must divide the
     * embedding dimension. Codes cost pqM bytes per entry (vs 4 * dim
     * flat).
     */
    std::size_t pqM = 8;
};

/**
 * Seed of every approximate backend's randomness (IVF and IVF-PQ
 * k-means, HNSW layer draws), part of the experiment's determinism.
 */
inline constexpr std::uint64_t kIndexSeed = 0x1f4a9ULL;

/**
 * Abstract retrieval index over unit-norm embeddings, keyed by
 * caller-assigned 64-bit ids. Implementations must order results by
 * (similarity desc, deterministic tiebreak) and be reproducible from
 * their construction sequence alone.
 */
class VectorIndex
{
  public:
    virtual ~VectorIndex() = default;

    /** Pre-allocate room for `rows` embeddings (bulk warm-up). */
    virtual void reserve(std::size_t rows) = 0;

    /** Insert an embedding under a fresh id; ids must be unique. */
    virtual void insert(std::uint64_t id, const Embedding &embedding) = 0;

    /** Remove an id; returns false when absent. */
    virtual bool remove(std::uint64_t id) = 0;

    /** True when the id is present. */
    virtual bool contains(std::uint64_t id) const = 0;

    /** Number of stored embeddings. */
    virtual std::size_t size() const = 0;

    /** True when empty. */
    bool empty() const { return size() == 0; }

    /**
     * Best match for a query, or a Match with similarity -1 when the
     * index is empty: the head of topK(query, 1) unless a backend has a
     * cheaper exact answer.
     */
    virtual Match best(const Embedding &query) const
    {
        const auto top = topK(query, 1);
        return top.empty() ? Match{} : top.front();
    }

    /** Top-k matches ordered by decreasing similarity. */
    virtual std::vector<Match> topK(const Embedding &query,
                                    std::size_t k) const = 0;

    /** Remove everything (keeps tuning state). */
    virtual void clear() = 0;

    /**
     * Exact bytes of index-owned storage right now: rows, codes, graph
     * links, centroids, codebooks, ids, and locator-map payloads. A
     * pure function of the construction sequence (no capacity or
     * allocator slack), so it digests deterministically; the sweep's
     * bytes-per-entry axis is memoryBytes() / size().
     */
    virtual std::size_t memoryBytes() const = 0;

    /** True when best/topK may differ from an exhaustive scan. */
    virtual bool approximate() const { return false; }

    /**
     * Exhaustive exact best match, regardless of backend — what recall
     * accounting compares approximate results against. Exact backends
     * alias best().
     */
    virtual Match exactBest(const Embedding &query) const
    {
        return best(query);
    }

    /**
     * Attach (or detach, with nullptr) an exact-row oracle. The source
     * must outlive the index or be detached first. Returns true when
     * this backend reads rows through the source; backends that store
     * exact rows themselves ignore it and return false.
     */
    virtual bool setRowSource(const RowSource *source)
    {
        (void)source;
        return false;
    }

    /**
     * Runtime search-knob overrides (the scenario DSL's `set ef` /
     * `set nprobe` ops). Backends without the knob ignore the call;
     * 0 is ignored everywhere.
     */
    virtual void setEfSearch(std::size_t ef) { (void)ef; }
    virtual void setNprobe(std::size_t nprobe) { (void)nprobe; }
};

/**
 * Deterministic accounting for the id -> payload locator hash maps
 * every backend keeps: key + payload + one bucket pointer per entry.
 * Counts no load-factor or allocator slack, so memoryBytes() stays a
 * pure function of the construction sequence.
 */
inline std::size_t
locatorBytes(std::size_t entries, std::size_t payloadBytes)
{
    return entries *
        (sizeof(std::uint64_t) + payloadBytes + sizeof(void *));
}

/**
 * Validate `config` for embeddings of dimension `dim`. Returns an
 * empty string when well-formed; otherwise a message naming the
 * offending knob and the constraint it broke (e.g. "pqM (5) must
 * divide the embedding dimension (64)"). Never asserts.
 */
std::string validateRetrievalConfig(const RetrievalBackendConfig &config,
                                    std::size_t dim);

/**
 * Build the configured backend for embeddings of dimension `dim`.
 * Flat ignores every knob.
 * Throws std::invalid_argument with the validateRetrievalConfig
 * message on a malformed config — config files and sweep axes get a
 * diagnostic naming the knob, never a silent clamp or an assert.
 */
std::unique_ptr<VectorIndex>
makeVectorIndex(const RetrievalBackendConfig &config, std::size_t dim);

} // namespace modm::embedding

#endif // MODM_EMBEDDING_VECTOR_INDEX_HH
