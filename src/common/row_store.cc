#include "src/common/row_store.hh"

#include <sys/mman.h>

#include <cstring>

#include "src/common/log.hh"

namespace modm {

namespace {

/** A 64-byte-aligned buffer (a mapping is page-aligned). */
float *
allocRows(std::size_t bytes)
{
    if (bytes < kMappedSlabBytes)
        return static_cast<float *>(
            ::operator new[](bytes, std::align_val_t{64}));
    void *p = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED)
        throw std::bad_alloc();
    return static_cast<float *>(p);
}

} // namespace

void
AlignedRows::Free::operator()(float *p) const
{
    if (bytes < kMappedSlabBytes)
        ::operator delete[](p, std::align_val_t{64});
    else
        munmap(p, bytes);
}

void
AlignedRows::reset(std::size_t dim)
{
    MODM_ASSERT(dim > 0, "AlignedRows needs a positive dim");
    dim_ = dim;
    stride_ = alignedRowStride(dim);
    size_ = 0;
    capacity_ = 0;
    data_.reset();
}

void
AlignedRows::grow(std::size_t rows)
{
    std::size_t cap = capacity_ ? capacity_ : 16;
    while (cap < rows)
        cap *= 2;
    const std::size_t bytes = cap * stride_ * sizeof(float);
    std::unique_ptr<float[], Free> fresh(allocRows(bytes), Free{bytes});
    if (size_ > 0) {
        std::memcpy(fresh.get(), data_.get(),
                    size_ * stride_ * sizeof(float));
    }
    data_ = std::move(fresh);
    capacity_ = cap;
}

void
AlignedRows::reserve(std::size_t rows)
{
    if (rows > capacity_)
        grow(rows);
}

std::size_t
AlignedRows::pushBack(const float *src)
{
    MODM_ASSERT(dim_ > 0, "AlignedRows::reset before pushBack");
    if (size_ == capacity_)
        grow(size_ + 1);
    float *dst = data_.get() + size_ * stride_;
    std::memcpy(dst, src, dim_ * sizeof(float));
    // Zero the pad once so the buffer never holds indeterminate bytes
    // (the kernels score exactly dim elements and skip the pad).
    for (std::size_t i = dim_; i < stride_; ++i)
        dst[i] = 0.0f;
    return size_++;
}

void
AlignedRows::swapRemove(std::size_t slot)
{
    MODM_ASSERT(slot < size_, "AlignedRows::swapRemove out of range");
    const std::size_t last = size_ - 1;
    if (slot != last) {
        std::memcpy(data_.get() + slot * stride_,
                    data_.get() + last * stride_,
                    stride_ * sizeof(float));
    }
    size_ = last;
}

} // namespace modm
