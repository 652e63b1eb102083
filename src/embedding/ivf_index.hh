/**
 * @file
 * Inverted-file (IVF) approximate retrieval — the Ivf backend of the
 * VectorIndex interface (vector_index.hh).
 *
 * An IVF index partitions the embedding space with a coarse quantizer
 * (CoarseQuantizer: spherical k-means centroids, coarse_quantizer.hh)
 * and stores each row in the flat list of its nearest centroid. A query
 * scores all centroids, then scans only the `nprobe` nearest lists —
 * sub-linear work at cache scale (100k-1M rows) at the cost of missing
 * a neighbour that fell into an unprobed list. recall@1 at the default
 * nprobe stays >= 0.95 on clustered embedding workloads (pinned by the
 * property suite).
 *
 * Life cycle, built for cache churn (FIFO/LRU/Utility eviction insert
 * and remove continuously):
 *  - Below a training floor the index keeps everything in one list and
 *    scans it exhaustively — exact, and cheap at small sizes.
 *  - Once enough rows exist, a deterministic seeded k-means builds the
 *    coarse quantizer and rows are re-binned. Inserts then append to
 *    their nearest list; removals swap-remove within a list. Both are
 *    incremental — no global rebuild per operation.
 *  - Eviction churn slowly skews list populations away from the
 *    trained clustering. When the largest list exceeds
 *    retrainThreshold x the mean, the quantizer retrains on the
 *    current contents (bounded frequency, so adversarial skew cannot
 *    thrash). If churn drains every probed list, a query widens to
 *    the exhaustive scan — a non-empty index always returns a real
 *    entry.
 *
 * Determinism: training samples, centroid seeding, Lloyd iterations,
 * and every tiebreak are pure functions of (construction sequence,
 * kIndexSeed). Equal insert/remove sequences produce equal centroids,
 * equal list layouts, and equal query results on any machine. Results
 * order by (similarity desc, id asc) — ids, not slots, because list
 * reassignment makes slots an implementation detail.
 */

#ifndef MODM_EMBEDDING_IVF_INDEX_HH
#define MODM_EMBEDDING_IVF_INDEX_HH

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "src/common/row_store.hh"
#include "src/embedding/coarse_quantizer.hh"
#include "src/embedding/embedding.hh"
#include "src/embedding/vector_index.hh"

namespace modm::embedding {

/**
 * IVF cosine index keyed by caller-assigned 64-bit ids.
 */
class IvfIndex final : public VectorIndex
{
  public:
    /** Create an index for embeddings of the given dimensionality. */
    explicit IvfIndex(const RetrievalBackendConfig &config,
                      std::size_t dim = kEmbeddingDim);

    void reserve(std::size_t rows) override;
    void insert(std::uint64_t id, const Embedding &embedding) override;
    bool remove(std::uint64_t id) override;
    bool contains(std::uint64_t id) const override;
    std::size_t size() const override { return locator_.size(); }
    std::vector<Match> topK(const Embedding &query,
                            std::size_t k) const override;
    void clear() override;

    /** List rows + ids + centroids + locator payloads. */
    std::size_t memoryBytes() const override;

    /** Runtime nprobe override (scenario knob); 0 ignored. */
    void setNprobe(std::size_t nprobe) override
    {
        quantizer_.setNprobe(nprobe);
    }

    /** Approximate once trained and probing fewer than all lists. */
    bool approximate() const override;

    /** Exhaustive scan over every list (recall accounting). */
    Match exactBest(const Embedding &query) const override;

    /** Lists a query scans (CoarseQuantizer). */
    std::size_t nprobe() const { return quantizer_.nprobe(); }

    /** True once the coarse quantizer has been trained. */
    bool trained() const { return quantizer_.trained(); }

    /** Lists the quantizer currently maintains. */
    std::size_t nlist() const { return lists_.size(); }

    /** Times the quantizer has (re)trained. */
    std::uint64_t trainings() const { return trainings_; }

    /** Rows needed before the quantizer trains. */
    std::size_t trainFloor() const { return quantizer_.trainFloor(); }

  private:
    /** One inverted list: parallel slab rows + ids. */
    struct List
    {
        AlignedRows rows;              // slot p holds ids[p]'s row
        std::vector<std::uint64_t> ids;
    };

    /** Fresh lists with row storage sized for this index's dim. */
    std::vector<List> makeLists(std::size_t count) const;

    /** Where an id lives. */
    struct Location
    {
        std::size_t list;
        std::size_t pos;
    };

    /** Offer every row of a list to `top`. */
    void scanList(const List &l, const float *query,
                  TopMatches &top) const;

    /** Append a row to a list and record its location. */
    void appendToList(std::size_t list, std::uint64_t id,
                      const float *row);

    /** Seeded k-means over current contents; re-bins every row. */
    void train();

    /** Retrain when list skew exceeds the configured bound. */
    void maybeRetrain();

    std::size_t dim_;
    CoarseQuantizer quantizer_;
    std::uint64_t trainings_ = 0;
    /** Inserts since the last training (bounds retrain frequency). */
    std::size_t insertsSinceTrain_ = 0;
    std::vector<List> lists_;       // single list until trained
    std::unordered_map<std::uint64_t, Location> locator_;
};

} // namespace modm::embedding

#endif // MODM_EMBEDDING_IVF_INDEX_HH
