/**
 * @file
 * Product-quantized inverted-file (IVF-PQ) retrieval — the IvfPq
 * backend of the VectorIndex interface (vector_index.hh), and the
 * memory-budget end of the backend spectrum.
 *
 * A flat 512-dim float row costs 2 KiB; at the ROADMAP's
 * millions-of-users scale that is GiBs of cache index. IVF-PQ stores
 * each row as its IVF coarse assignment plus a product-quantized code
 * of the residual: the embedding splits into pqM subvectors, each
 * encoded as the one-byte index of its nearest codeword in a
 * per-subspace codebook of kKsub entries — pqM bytes per row (16 bytes
 * at pqM=16 — 128x smaller than the flat row), plus shared centroids +
 * codebooks amortized across the index.
 *
 * Queries score probed lists with asymmetric distance computation
 * (ADC): dot(q, row) ~= dot(q, centroid) + sum_m dot(q_m, codeword_m),
 * where the per-subspace dot tables are built once per query. The ADC
 * shortlist then re-ranks *exactly* when a RowSource is attached (the
 * caches' EmbeddingStore keeps exact rows for this backend), so
 * recall@1 stays honest instead of inheriting quantization noise; with
 * no source the ADC order stands (standalone benchmarks measure recall
 * against a flat ground truth instead).
 *
 * Life cycle matches IvfIndex, whose coarse quantizer (CoarseQuantizer,
 * coarse_quantizer.hh: centroids, probe selection, nprobe) it
 * shares: exact single-list scans below the training floor; seeded
 * k-means for centroids and codebooks at the floor; incremental
 * encode-on-insert and swap-remove after. The quantizers retrain on
 * list skew (as IvfIndex) and whenever the index grows
 * kRetrainGrowth-fold past its last training size, so codebooks fitted
 * at the floor never govern an index orders of magnitude larger;
 * retraining reads true rows through the RowSource when one is
 * attached and reconstructions otherwise (bounded frequency,
 * deterministic). Determinism: training, encoding, ADC, re-ranking and
 * every tiebreak are pure functions of (construction sequence,
 * kIndexSeed); results order by (similarity desc, id asc).
 */

#ifndef MODM_EMBEDDING_IVF_PQ_INDEX_HH
#define MODM_EMBEDDING_IVF_PQ_INDEX_HH

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "src/embedding/coarse_quantizer.hh"
#include "src/embedding/embedding.hh"
#include "src/embedding/vector_index.hh"

namespace modm::embedding {

/**
 * IVF-PQ cosine index keyed by caller-assigned 64-bit ids.
 */
class IvfPqIndex final : public VectorIndex
{
  public:
    /** Codewords per subspace codebook: one-byte codes. */
    static constexpr std::size_t kKsub = 256;
    /**
     * Codebook training-sample cap (k-means is kKsub x this per sub);
     * at least kKsub, so every codeword seeds.
     */
    static constexpr std::size_t kMaxCodebookRows = 2048;
    /** ADC shortlist re-ranked (exactly, when a RowSource is set). */
    static constexpr std::size_t kRerank = 128;
    /**
     * Scanned-rows-per-shortlist-slot: the shortlist widens to
     * scanned / kRerankWindow when that exceeds kRerank, so the
     * re-rank window tracks list growth instead of starving recall
     * at million-row scale (near-ties inside the quantization error
     * are ordered essentially at random by ADC alone).
     */
    static constexpr std::size_t kRerankWindow = 8;
    /** Growth factor past the last training size that retrains. */
    static constexpr std::size_t kRetrainGrowth = 4;

    /** Create an index for embeddings of the given dimensionality. */
    explicit IvfPqIndex(const RetrievalBackendConfig &config,
                        std::size_t dim = kEmbeddingDim);

    void reserve(std::size_t rows) override;
    void insert(std::uint64_t id, const Embedding &embedding) override;
    bool remove(std::uint64_t id) override;
    bool contains(std::uint64_t id) const override;
    std::size_t size() const override { return locator_.size(); }
    std::vector<Match> topK(const Embedding &query,
                            std::size_t k) const override;
    void clear() override;

    /** Codes + ids + centroids + codebooks + locator payloads. */
    std::size_t memoryBytes() const override;

    /** Quantized once trained (ADC ordering, shortlist re-rank). */
    bool approximate() const override { return trained(); }

    /**
     * Exhaustive exact scan via the RowSource when attached (recall
     * accounting); reconstructed-row scan otherwise.
     */
    Match exactBest(const Embedding &query) const override;

    /** Exact-row oracle for re-ranking; nullptr detaches. */
    bool setRowSource(const RowSource *source) override
    {
        source_ = source;
        return true;
    }

    /** Runtime nprobe override (scenario knob); 0 ignored. */
    void setNprobe(std::size_t nprobe) override
    {
        quantizer_.setNprobe(nprobe);
    }

    /** Lists a query scans (CoarseQuantizer). */
    std::size_t nprobe() const { return quantizer_.nprobe(); }

    /** True once centroids and codebooks have been trained. */
    bool trained() const { return quantizer_.trained(); }

    /** Times the quantizers have (re)trained. */
    std::uint64_t trainings() const { return trainings_; }

    /** Rows needed before the quantizers train. */
    std::size_t trainFloor() const;

    /** Bytes of PQ code per stored row: one per subquantizer. */
    std::size_t codeBytes() const { return config_.pqM; }

  private:
    /** One inverted list: parallel codes + ids. */
    struct List
    {
        std::vector<std::uint8_t> codes; // ids.size() * codeBytes()
        std::vector<std::uint64_t> ids;
    };

    /** Where an id lives. */
    struct Location
    {
        std::size_t list;
        std::size_t pos;
    };

    /** Codeword `j` of subspace `m` (subDim_ floats). */
    const float *codeword(std::size_t m, std::size_t j) const
    {
        return &codebooks_[(m * kKsub + j) * subDim_];
    }

    /** Encode a row's residual against its list centroid. */
    void encodeRow(std::size_t list, const float *row,
                   std::uint8_t *codes) const;

    /** Reconstruct a stored row (centroid + codewords). */
    void reconstructRow(std::size_t list, const std::uint8_t *codes,
                        float *out) const;

    /** Append an encoded row to a list and record its location. */
    void appendToList(std::size_t list, std::uint64_t id,
                      const std::uint8_t *codes);

    /** Seeded k-means over materialized rows; re-encodes everything. */
    void train(const std::vector<float> &rows,
               const std::vector<std::uint64_t> &ids);

    /** Materialize every stored row (staging or reconstruction). */
    void materializeAll(std::vector<float> &rows,
                        std::vector<std::uint64_t> &ids) const;

    /** Retrain on list skew or kRetrainGrowth-fold index growth. */
    void maybeRetrain();

    /** Top ADC candidates (score desc, id asc) over probed lists. */
    std::vector<Match> adcShortlist(const float *query,
                                    std::size_t keep) const;

    std::size_t dim_;
    RetrievalBackendConfig config_;
    std::size_t subDim_; // dim_ / pqM
    const RowSource *source_ = nullptr;
    CoarseQuantizer quantizer_;
    std::uint64_t trainings_ = 0;
    /** Inserts since the last training (bounds retrain frequency). */
    std::size_t insertsSinceTrain_ = 0;
    /** Rows present at the last training (growth-retrain baseline). */
    std::size_t trainedSize_ = 0;
    std::vector<float> codebooks_; // pqM * ksub * subDim_ when trained
    /** Raw rows staged before training (single exact list). */
    std::vector<float> staging_;
    std::vector<std::uint64_t> stagingIds_;
    std::vector<List> lists_; // empty until trained
    std::unordered_map<std::uint64_t, Location> locator_;
};

} // namespace modm::embedding

#endif // MODM_EMBEDDING_IVF_PQ_INDEX_HH
