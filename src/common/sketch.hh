/**
 * @file
 * Centered u8 row sketch and the screened exact scan behind FlatIndex.
 *
 * A flat scan's cost is streaming every float row through the double
 * dot kernel. The screen reads a quarter of those bytes instead, and
 * no shuffle: each row lives as one byte per dim, offset-binary codes
 * of its residual from one centering vector mu, in 8-row interleaved
 * blocks (4 dims x 8 rows = 32 bytes a group), plus three floats. Each
 * query is quantized once to int8 codes Q with scale s_q, and
 * kernels::screenSums sums the exact integer S = Q . u of every row's
 * codes u = c + 128, eight rows per vector lane set, and flags the rows
 * whose S exceeds their block's limit: every other row provably scores
 * below the best lower bound so far (SketchQuery::limits). SketchQuery
 * turns a flagged row's S into an interval that provably contains its
 * kernels::dot score; only rows whose upper bound reaches the best
 * lower bound are re-scored in double, in slot order.
 * The result is exactly the full scan's — same slot, same similarity,
 * same tie-break — because every row that could win is re-scored by
 * the same kernel the full scan uses.
 *
 * Centering. Rows of one index crowd into a cone (every image
 * embedding shares an anchor), so the raw rows' codes spend their
 * range on the shared part. The sketch codes d = r - mu instead and
 * adds q . mu back exactly once per query. mu follows one fixed rule:
 * it is zero until the sketch first holds kCenterRows rows after
 * construction or clear(), then becomes those rows' mean and every row
 * is re-sketched once. The query error then multiplies ||d||, not
 * ||r||, which is what lets 7-bit query codes keep the bound tight.
 *
 * The bound. Write c for a row's codes with scale s_r, so
 * d = s_r c + e, and q = s_q Q + dq, I = Q . c = S - 128 sum(Q). Then
 *
 *   q . r = q . mu + s_q s_r I + (s_q Q) . e + dq . d,
 *   |dot(q, r) - P - s_q s_r I| <= A E + (phi + G) R + 2 G M
 *
 * with P = dot(q, mu), A >= ||s_q Q||, E >= ||e||, phi >= ||dq||,
 * R >= ||d||, M >= ||mu|| and G >= gamma_n ||q||, the double kernel's
 * error per unit of row norm: dot(q, r) and P each differ from the
 * exact products by at most gamma_n ||q|| ||.||, and ||r|| <= M + R.
 * Each row stores its scale and E / s_r, R / s_r rounded up to floats
 * (both bounded by 127 sqrt(n), so they never overflow), so its
 * interval is (P -/+ kappa) + s_r (s_q I -/+ (alpha E/s_r + beta R/s_r))
 * with per-query alpha, beta, kappa. Those carry a 2^-40 relative
 * margin that covers every rounding of r - mu, of the norms and of the
 * interval arithmetic, so the bound holds for every finite row and
 * query (Embedding rejects non-finite input).
 */

#ifndef MODM_COMMON_SKETCH_HH
#define MODM_COMMON_SKETCH_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/common/row_store.hh"

namespace modm {

/**
 * Centered u8 sketch of slot-addressed rows, kept in lockstep with the
 * AlignedRows it summarizes: pushBack, swapRemove, clear and reserve
 * mirror AlignedRows, so slot r of both is the same row. Row r's code
 * for dim i is round((r_i - mu_i) / scale(r)) + 128, in [1, 255]; dims
 * past dim() up to a multiple of 4, and the lanes past size() in the
 * last block, hold 128 (code 0).
 */
class RowSketch
{
  public:
    /** Rows whose mean becomes the centering vector. */
    static constexpr std::size_t kCenterRows = 256;

    RowSketch() = default;
    explicit RowSketch(std::size_t dim) { reset(dim); }

    /** Set the row length and drop all rows. */
    void reset(std::size_t dim);

    std::size_t dim() const { return dim_; }
    /** 4-dim code groups per row: dim rounded up to 4, over 4. */
    std::size_t groups() const { return groups_; }
    std::size_t size() const { return scales_.size(); }

    /** Code blocks from the one holding `slot` (a multiple of 8) on;
     *  the layout kernels::screenSums reads. */
    const std::uint8_t *blocks(std::size_t slot) const
    {
        return codes_.data() + slot / 8 * blockBytes();
    }
    /** Row `slot`'s offset-binary code for dim i. */
    std::uint8_t code(std::size_t slot, std::size_t i) const;
    /** s_r: the row's code scale, >= max |r_i - mu_i| / 127. */
    float scale(std::size_t slot) const { return scales_[slot]; }
    const float *scales() const { return scales_.data(); }
    /** E / s_r and R / s_r: bounds on the row's quantization-error norm
     *  and its residual norm ||r - mu||, in units of its scale. */
    const float *errors() const { return errors_.data(); }
    const float *residuals() const { return residuals_.data(); }
    /** Per 8-row block: a value at or below 1 / the block's largest
     *  scale (2^200 when every scale in it is 0), and the block's
     *  largest errors() and residuals() entries. */
    const double *blockInverseScales() const
    {
        return blockInverseScales_.data();
    }
    const double *blockErrors() const { return blockErrors_.data(); }
    const double *blockResiduals() const { return blockResiduals_.data(); }
    /** The centering vector mu: dim() floats, zero until centered. */
    const float *center() const { return center_.data(); }
    /** An upper bound on ||mu||. */
    double centerNorm() const { return centerNorm_; }
    bool centered() const { return centered_; }

    void reserve(std::size_t rows);
    /**
     * Sketch rows.row(size()), the row the caller just appended to
     * `rows`, which must hold exactly one row more than the sketch. The
     * kCenterRows-th row derives mu from `rows` and re-sketches them.
     */
    void pushBack(const AlignedRows &rows);
    /** Move the last row into `slot` and shrink by one. */
    void swapRemove(std::size_t slot);
    /** Drop all rows; mu goes back to zero until the next derivation. */
    void clear();

    /** 4 * groups code bytes plus three floats per row, three doubles
     *  per 8-row block, plus mu once centered. */
    std::size_t memoryBytes() const
    {
        return size() * (groups_ * 4 + 3 * sizeof(float)) +
            blockErrors_.size() * 3 * sizeof(double) +
            (centered_ ? dim_ * sizeof(float) : 0);
    }

  private:
    std::size_t blockBytes() const { return groups_ * 32; }
    /** Quantize `row` - mu into `slot`'s lane and per-row floats. */
    void encode(std::size_t slot, const float *row);
    /** Recompute block `block`'s maxima from its rows. */
    void refreshBlock(std::size_t block);

    std::size_t dim_ = 0;
    std::size_t groups_ = 0;
    bool centered_ = false;
    std::vector<float> center_;
    double centerNorm_ = 0.0;
    std::vector<std::uint8_t> codes_;
    std::vector<float> scales_;
    std::vector<float> errors_;
    std::vector<float> residuals_;
    std::vector<double> blockInverseScales_;
    std::vector<double> blockErrors_;
    std::vector<double> blockResiduals_;
    std::vector<double> residual_; // encode scratch
};

/** One row's score interval. */
struct ScoreInterval
{
    double lower = 0.0;
    double upper = 0.0;
};

/**
 * One query prepared for screening rows of a RowSketch: int8 codes
 * within kernels::kScreenQueryLimit and the interval constants. It
 * reads the sketch's current mu, so prepare it after the last mutation.
 * A default-constructed query must be prepared before use. Re-preparing
 * reuses the code buffer, so a long-lived SketchQuery (FlatIndex keeps
 * one) screens without allocating.
 */
class SketchQuery
{
  public:
    /**
     * Prepare for `query`, which holds sketch.dim() finite floats and
     * must outlive every use until the next prepare().
     */
    void prepare(const float *query, const RowSketch &sketch);

    const float *values() const { return values_; }
    /** Codes, zero-padded to 4 * sketch.groups(). */
    const std::int8_t *codes() const { return codes_.data(); }

    /** The interval holding kernels::dot(values(), row) for the row at
     *  `slot` whose screen sum is `sum`. */
    ScoreInterval interval(const RowSketch &sketch, std::size_t slot,
                           std::int32_t sum) const
    {
        return bound(sum, sketch.scales()[slot], sketch.errors()[slot],
                     sketch.residuals()[slot]);
    }

    /**
     * For `count` blocks from `block` on, the largest screen sum
     * (kernels::screenSums) each block's rows can have and still score
     * below `floor`: a row whose sum is at or below limits[b] provably
     * scores below it. INT32_MIN when no such sum exists.
     */
    void limits(const RowSketch &sketch, std::size_t block,
                std::size_t count, double floor,
                std::int32_t *limits) const;

  private:
    ScoreInterval bound(std::int32_t sum, float scale, float error,
                        float residual) const
    {
        const double t = scale_ * (static_cast<double>(sum) - offset_);
        const double w = alpha_ * error + beta_ * residual;
        return {low_ + scale * (t - w), high_ + scale * (t + w)};
    }

    const float *values_ = nullptr;
    std::vector<std::int8_t> codes_;
    double scale_ = 0.0;  // s_q
    double offset_ = 0.0; // 128 * sum(Q): S - offset_ = I exactly
    double inverseDown_ = 0.0; // <= 1 / s_q
    double inverseUp_ = 0.0;   // >= 1 / s_q
    double alpha_ = 0.0;
    double beta_ = 0.0;
    double low_ = 0.0;  // P - kappa
    double high_ = 0.0; // P + kappa
};

/** A slot and its exact kernels::dot score. */
struct SlotScore
{
    std::size_t slot = 0;
    double score = 0.0;
};

/**
 * Best slot in [begin, end) by kernels::dot, earliest slot winning
 * ties — exactly the full scan's answer over those slots. `begin` is a
 * multiple of 8 (a block edge) and end <= sketch.size(); over
 * [0, sketch.size()) this is the whole scan, and the best of
 * consecutive ranges, merged in slot order with a later range winning
 * only when strictly greater, is the whole scan's answer too. An empty
 * range returns {0, -2}. `kept` is the caller's scratch for the rows
 * the screen keeps; its contents are replaced, and a reused vector
 * stops allocating once it has grown to a query's keep count.
 * `rescored`, when given, receives the number of rows re-scored.
 */
SlotScore screenBest(const SketchQuery &query, const AlignedRows &rows,
                     const RowSketch &sketch, std::size_t begin,
                     std::size_t end, std::vector<SlotScore> &kept,
                     std::size_t *rescored = nullptr);

} // namespace modm

#endif // MODM_COMMON_SKETCH_HH
