/**
 * @file
 * Contiguous, cache-line-aligned storage for embedding rows.
 *
 * AlignedRows is the dense slot-addressed storage behind FlatIndex:
 * one buffer, rows at slot * stride, 64-byte aligned, with swap-remove
 * compaction, so the rows the screen keeps are re-scored from whole
 * cache lines instead of per-row heap allocations.
 *
 * Rows are padded to a 16-float (64-byte) stride so every row starts
 * on a cache line; the pad floats are zeroed once and never read by
 * the kernels (which score exactly `dim` elements), so results are
 * unchanged. At the 64-dim embeddings every cache holds the stride
 * equals the dim and the byte accounting is identical to the
 * per-row-vector layout it replaces.
 *
 * Buffers of kMappedSlabBytes or more are mapped: in the heap each new
 * one needs a hole that large or grows it for good (docs/PERF.md).
 */

#ifndef MODM_COMMON_ROW_STORE_HH
#define MODM_COMMON_ROW_STORE_HH

#include <cstddef>
#include <memory>
#include <new>

namespace modm {

/** Row buffers at least this large get a mapping of their own. */
constexpr std::size_t kMappedSlabBytes = std::size_t{1} << 20;

/** Round a row length up to a whole number of cache lines. */
constexpr std::size_t
alignedRowStride(std::size_t dim)
{
    return (dim + 15) / 16 * 16;
}

/**
 * Dense slot-addressed row storage: row r lives
 * r * alignedRowStride(dim()) floats into one buffer. Append with
 * pushBack, compact with swapRemove (the caller owns the slot-to-id
 * mapping, exactly as with the flat vector this replaces). Reallocation
 * moves the buffer, so raw pointers are only stable between mutations —
 * index scans take them fresh per query.
 */
class AlignedRows
{
  public:
    AlignedRows() = default;
    explicit AlignedRows(std::size_t dim) { reset(dim); }

    /** Set the row length and drop all rows. */
    void reset(std::size_t dim);

    std::size_t dim() const { return dim_; }
    std::size_t size() const { return size_; }

    const float *row(std::size_t slot) const
    {
        return data_.get() + slot * stride_;
    }

    void reserve(std::size_t rows);
    /** Append a copy of src[0..dim); returns the new row's slot. */
    std::size_t pushBack(const float *src);
    /** Move the last row into `slot` and shrink by one. */
    void swapRemove(std::size_t slot);
    void clear() { size_ = 0; }

  private:
    void grow(std::size_t rows);

    struct Free
    {
        std::size_t bytes;
        void operator()(float *p) const;
    };
    std::unique_ptr<float[], Free> data_;
    std::size_t dim_ = 0;
    std::size_t stride_ = 0;
    std::size_t size_ = 0;
    std::size_t capacity_ = 0;
};

} // namespace modm

#endif // MODM_COMMON_ROW_STORE_HH
