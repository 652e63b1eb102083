/**
 * @file
 * Int8 row sketch and the screened exact scan behind FlatIndex.
 *
 * A flat scan's cost is streaming every float row through the double
 * dot kernel. The screen reads a quarter of those bytes instead: each
 * row also lives as int8 codes c plus one float scale s (dim + 4 bytes),
 * each query is quantized once to int16 codes Q with scale s_q, and
 * kernels::screenBatch sums the exact integer I = Q . c for every row.
 * SketchQuery turns that sum into an interval that provably contains
 * the row's kernels::dot score; only rows whose upper bound reaches the
 * best lower bound (the k-th best for top-k) are re-scored in double.
 * Results are exactly those of the full scan — same slots, same
 * similarities, same tie-breaks — because every row that could win
 * is re-scored by the same kernel the full scan uses.
 *
 * The bound. Write q = s_q Q + dq and r = s_r c + dr. Then
 *
 *   q . r - s_q s_r I = dq . r + s_q Q . dr,
 *   |q . r - s_q s_r I| <= (||q|| + phi) eps_r + phi ||r||  (+ rounding)
 *
 * with phi = ||dq|| and eps_r = ||dr||. Codes round to nearest with the
 * scale rounded up, so every |x_i - s x code_i| <= s / 2 (plus a hair of
 * reciprocal rounding) and every |r_i| <= 127 s_r. Hence eps_r and ||r||
 * are both proportional to s_r, and the whole interval is
 * s_r (s_q I -/+ W) for one per-query constant W. W also covers the
 * double kernel's own rounding and the rounding of the interval
 * arithmetic, so the bound is valid for every finite row and query
 * (Embedding rejects non-finite input).
 */

#ifndef MODM_COMMON_SKETCH_HH
#define MODM_COMMON_SKETCH_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/common/row_store.hh"

namespace modm {

/**
 * Int8 sketch of slot-addressed rows, kept in lockstep with the
 * AlignedRows it summarizes: pushBack, swapRemove, clear and reserve
 * mirror AlignedRows, so slot r of both is the same row. Row r is its
 * codes (dim int8 values in [-127, 127], zero-padded to stride()) and
 * scale(r) >= max |x_i| / 127.
 */
class RowSketch
{
  public:
    RowSketch() = default;
    explicit RowSketch(std::size_t dim) { reset(dim); }

    /** Set the row length and drop all rows. */
    void reset(std::size_t dim);

    std::size_t dim() const { return dim_; }
    /** Bytes between consecutive rows' codes: dim rounded up to 16. */
    std::size_t stride() const { return stride_; }
    std::size_t size() const { return scales_.size(); }

    const std::int8_t *codes(std::size_t slot) const
    {
        return codes_.data() + slot * stride_;
    }
    float scale(std::size_t slot) const { return scales_[slot]; }
    const float *scales() const { return scales_.data(); }

    void reserve(std::size_t rows);
    /** Quantize src[0..dim) into a new last row. */
    void pushBack(const float *src);
    /** Move the last row into `slot` and shrink by one. */
    void swapRemove(std::size_t slot);
    void clear();

    /** dim code bytes plus one float scale per row. */
    std::size_t memoryBytes() const
    {
        return size() * (dim_ + sizeof(float));
    }

  private:
    std::size_t dim_ = 0;
    std::size_t stride_ = 0;
    std::vector<std::int8_t> codes_;
    std::vector<float> scales_;
};

/**
 * One query prepared for screening rows of a RowSketch: int16 codes
 * within kernels::screenQueryLimit(dim) and the interval constants.
 */
class SketchQuery
{
  public:
    /** `query` holds sketch.dim() finite floats and must outlive this. */
    SketchQuery(const float *query, const RowSketch &sketch);

    const float *values() const { return values_; }
    /** Codes, zero-padded to the sketch stride. */
    const std::int16_t *codes() const { return codes_.data(); }
    /** s_q: the query's code scale. */
    double scale() const { return scale_; }
    /** W: a row with scale s and screen sum I scores within
     *  s * (scale() * I -/+ halfWidth()). */
    double halfWidth() const { return halfWidth_; }

  private:
    const float *values_;
    std::vector<std::int16_t> codes_;
    double scale_ = 0.0;
    double halfWidth_ = 0.0;
};

/** A slot and its exact kernels::dot score. */
struct SlotScore
{
    std::size_t slot = 0;
    double score = 0.0;
};

/**
 * Best slot by kernels::dot, earliest slot winning ties — exactly the
 * full scan's answer. An empty sketch returns {0, -2}. `rescored`,
 * when given, receives the number of rows re-scored.
 */
SlotScore screenBest(const SketchQuery &query, const AlignedRows &rows,
                     const RowSketch &sketch,
                     std::size_t *rescored = nullptr);

/**
 * Top `k` slots by (score desc, slot asc), exactly as a full scan
 * ranks them. `rescored` as for screenBest.
 */
std::vector<SlotScore> screenTopK(const SketchQuery &query,
                                  const AlignedRows &rows,
                                  const RowSketch &sketch, std::size_t k,
                                  std::size_t *rescored = nullptr);

} // namespace modm

#endif // MODM_COMMON_SKETCH_HH
