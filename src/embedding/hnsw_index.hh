/**
 * @file
 * Hierarchical navigable-small-world (HNSW) approximate retrieval —
 * the Hnsw backend of the VectorIndex interface (vector_index.hh).
 *
 * HNSW layers proximity graphs: every row lands on layer 0, and each
 * higher layer keeps an exponentially thinning subset, so a query
 * greedily descends coarse layers in a few hops and then runs a
 * best-first beam (efSearch candidates) over the dense bottom layer.
 * Search cost grows roughly logarithmically with index size — at 1M
 * rows x 512 dims a query touches a few thousand rows where the flat
 * scan touches a million — at a small recall cost the efSearch knob
 * trades against latency. recall@1 stays >= 0.9 on clustered
 * embedding workloads at the default knobs (pinned by the property
 * suite; the 1M-row micro-benchmark pins >= 0.95 with >= 5x speedup
 * over the serial flat scan).
 *
 * Life cycle, built for cache churn:
 *  - insert is incremental: the new node's layer is a pure function of
 *    (id, kIndexSeed), it links to the efConstruction-beam's best M
 *    neighbors per layer (diversity-pruned, so clustered inserts keep
 *    long-range edges), and over-full neighbors re-prune.
 *  - remove tombstones the node: its row and out-links stay as graph
 *    waypoints (searches route through, never return it), each
 *    neighbor drops its link and repairs connectivity from the dead
 *    node's own links. When tombstones outnumber live rows, the graph
 *    compacts: live rows re-insert in slot order (deterministic), so
 *    FIFO churn holds steady-state memory at <= 2x live.
 *
 * Determinism: layer draws, beam expansion order, neighbor selection,
 * and every tiebreak are pure functions of (construction sequence,
 * kIndexSeed). Results order by (similarity desc, id asc).
 */

#ifndef MODM_EMBEDDING_HNSW_INDEX_HH
#define MODM_EMBEDDING_HNSW_INDEX_HH

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "src/common/row_store.hh"
#include "src/embedding/embedding.hh"
#include "src/embedding/vector_index.hh"

namespace modm::embedding {

/**
 * HNSW cosine index keyed by caller-assigned 64-bit ids.
 */
class HnswIndex final : public VectorIndex
{
  public:
    /** Layer cap; reached with probability ~M^-32 (never, in practice). */
    static constexpr std::uint32_t kMaxLevel = 32;

    /** Create an index for embeddings of the given dimensionality. */
    explicit HnswIndex(const RetrievalBackendConfig &config,
                       std::size_t dim = kEmbeddingDim);

    void reserve(std::size_t rows) override;
    void insert(std::uint64_t id, const Embedding &embedding) override;
    bool remove(std::uint64_t id) override;
    bool contains(std::uint64_t id) const override;
    std::size_t size() const override { return slotOf_.size(); }
    std::vector<Match> topK(const Embedding &query,
                            std::size_t k) const override;
    void clear() override;

    /** Rows (tombstones included) + links + ids + locator payloads. */
    std::size_t memoryBytes() const override;

    /** Graph search may miss the exact best once multiple rows exist. */
    bool approximate() const override { return size() > 1; }

    /** Exhaustive scan over live rows (recall accounting). */
    Match exactBest(const Embedding &query) const override;

    /** Runtime efSearch override (scenario knob); 0 ignored. */
    void setEfSearch(std::size_t ef) override;

    /** Beam width a query uses: config.efSearch or its override. */
    std::size_t efSearch() const { return config_.efSearch; }

    /** Graph slots, tombstones included (compaction telemetry). */
    std::size_t slots() const { return nodes_.size(); }

    /** Times the graph compacted tombstones away. */
    std::uint64_t compactions() const { return compactions_; }

  private:
    /** One graph node; row lives at slot `slot` of rows_. */
    struct Node
    {
        std::uint64_t id = 0;
        std::uint32_t level = 0;
        bool dead = false;
        /** Out-links per layer, [0, level]. */
        std::vector<std::vector<std::uint32_t>> links;
    };

    /** Scored slot, the unit search and selection operate on. */
    struct Candidate
    {
        std::uint32_t slot;
        double score;
    };

    /** Row of a slot. */
    const float *row(std::uint32_t slot) const
    {
        return rows_.row(slot);
    }

    /**
     * Score every link of `slot` on `level` against the query through
     * the gather kernel (skipping slots the filter rejects), appending
     * (slot, score) pairs to scratch buffers in link order. Shared by
     * the beam expansion and the greedy descent so both get batched
     * row loads with cross-row prefetch.
     */
    std::size_t scoreLinks(const float *query, std::uint32_t slot,
                           std::uint32_t level, bool skipVisited) const;

    /** Layer draw: pure function of (id, kIndexSeed). */
    std::uint32_t levelFor(std::uint64_t id) const;

    /** Max out-degree on a layer (2M on layer 0, M above). */
    std::size_t maxLinks(std::uint32_t level) const;

    /** Greedy hill-climb toward the query on one layer. */
    std::uint32_t greedyStep(const float *query, std::uint32_t start,
                             std::uint32_t level) const;

    /**
     * Best-first beam over one layer from `entry`: tracks up to `ef`
     * best reachable nodes (tombstones route but are excluded from the
     * returned set when `liveOnly`). Returns candidates sorted by
     * (score desc, slot asc).
     */
    std::vector<Candidate> searchLayer(const float *query,
                                       std::uint32_t entry,
                                       std::size_t ef,
                                       std::uint32_t level,
                                       bool liveOnly) const;

    /**
     * Diversity-pruned neighbor selection (the HNSW heuristic): walk
     * candidates by score desc (scores are similarity to the target)
     * and keep one only when it is closer to the target than to every
     * already-kept neighbor, falling back to the best rejected ones
     * when fewer than `m` survive.
     */
    std::vector<std::uint32_t>
    selectNeighbors(std::vector<Candidate> candidates,
                    std::size_t m) const;

    /** Re-prune an over-full neighbor list to maxLinks(level). */
    void pruneLinks(std::uint32_t slot, std::uint32_t level);

    /** Link the new slot into layers [0, level]. */
    void linkNewNode(std::uint32_t slot, std::uint32_t level);

    /** Insert a raw row (shared by insert and compact). */
    void insertRow(std::uint64_t id, const float *data);

    /** Deterministic entry-point replacement after a removal. */
    void replaceEntry();

    /** Re-insert live rows in slot order, dropping tombstones. */
    void compact();

    std::size_t dim_;
    RetrievalBackendConfig config_;
    /** 1 / ln(M): the layer distribution's scale. */
    double levelMult_;
    AlignedRows rows_; // slot-addressed, tombstones keep their row
    std::vector<Node> nodes_;
    /** id -> slot, live nodes only. */
    std::unordered_map<std::uint64_t, std::uint32_t> slotOf_;
    /** Entry slot (highest live layer), or kNoEntry when empty. */
    static constexpr std::uint32_t kNoEntry = 0xffffffffu;
    std::uint32_t entry_ = kNoEntry;
    std::size_t dead_ = 0;
    std::uint64_t compactions_ = 0;
    /** Scratch visited-marks, versioned to avoid per-query clears. */
    mutable std::vector<std::uint64_t> visited_;
    mutable std::uint64_t visitEpoch_ = 0;
    /** Scratch for scoreLinks (single-threaded by contract, so shared
     *  scratch keeps the expansion allocation-free at steady state). */
    mutable std::vector<std::uint32_t> linkSlots_;
    mutable std::vector<const float *> linkRows_;
    mutable std::vector<double> linkScores_;
};

} // namespace modm::embedding

#endif // MODM_EMBEDDING_HNSW_INDEX_HH
