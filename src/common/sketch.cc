#include "src/common/sketch.hh"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>

#include "src/common/kernels.hh"
#include "src/common/log.hh"

namespace modm {

namespace {

/** Rows bounded per screenBatch call. */
constexpr std::size_t kBlock = 256;

/**
 * Largest |x / s - code| for a code rounded to nearest from x times a
 * double reciprocal of s: 1/2 plus a few ulps of |x / s| <= 32767.5.
 */
constexpr double kCodeError = 0.5 + 0x1p-20;

float
maxAbs(const float *x, std::size_t n)
{
    // Four independent maxima, so the loop is not one long chain of
    // dependent compares.
    float m[4] = {0.0f, 0.0f, 0.0f, 0.0f};
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        for (std::size_t j = 0; j < 4; ++j)
            m[j] = std::max(m[j], std::fabs(x[i + j]));
    }
    for (; i < n; ++i)
        m[0] = std::max(m[0], std::fabs(x[i]));
    return std::max(std::max(m[0], m[1]), std::max(m[2], m[3]));
}

/**
 * A float scale s with limit * s >= maxAbs, rounded up when the nearest
 * float falls short: every code round(x / s) then stays within
 * +-limit, and s is positive whenever maxAbs is.
 */
float
codeScale(float maxAbs, std::int32_t limit)
{
    float s = static_cast<float>(static_cast<double>(maxAbs) / limit);
    // A float times an int below 2^16 is exact in double.
    if (static_cast<double>(s) * limit < maxAbs)
        s = std::nextafter(s, std::numeric_limits<float>::infinity());
    return s;
}

/** The reciprocal quantization multiplies by; 0 for an all-zero row. */
double
reciprocal(float scale)
{
    return scale > 0.0f ? 1.0 / static_cast<double>(scale) : 0.0;
}

/** Nearest integer (ties away from zero), with no branch on the sign
 *  and no libm call. */
std::int32_t
roundCode(double x)
{
    return static_cast<std::int32_t>(x + std::copysign(0.5, x));
}

} // namespace

// ------------------------------------------------------------- RowSketch

void
RowSketch::reset(std::size_t dim)
{
    MODM_ASSERT(dim > 0, "RowSketch needs a positive dim");
    dim_ = dim;
    stride_ = (dim + 15) / 16 * 16;
    clear();
}

void
RowSketch::reserve(std::size_t rows)
{
    codes_.reserve(rows * stride_);
    scales_.reserve(rows);
}

void
RowSketch::pushBack(const float *src)
{
    MODM_ASSERT(dim_ > 0, "RowSketch::reset before pushBack");
    const float scale = codeScale(maxAbs(src, dim_), 127);
    const double inv = reciprocal(scale);
    codes_.resize(codes_.size() + stride_); // pad bytes stay zero
    std::int8_t *dst = codes_.data() + scales_.size() * stride_;
    for (std::size_t i = 0; i < dim_; ++i)
        dst[i] = static_cast<std::int8_t>(roundCode(src[i] * inv));
    scales_.push_back(scale);
}

void
RowSketch::swapRemove(std::size_t slot)
{
    MODM_ASSERT(slot < size(), "RowSketch::swapRemove out of range");
    const std::size_t last = size() - 1;
    if (slot != last) {
        std::memcpy(codes_.data() + slot * stride_,
                    codes_.data() + last * stride_, stride_);
        scales_[slot] = scales_[last];
    }
    codes_.resize(last * stride_);
    scales_.pop_back();
}

void
RowSketch::clear()
{
    codes_.clear();
    scales_.clear();
}

// ----------------------------------------------------------- SketchQuery

SketchQuery::SketchQuery(const float *query, const RowSketch &sketch)
    : values_(query), codes_(sketch.stride(), 0)
{
    const std::size_t n = sketch.dim();
    const std::int32_t limit = kernels::screenQueryLimit(n);
    const float scale = codeScale(maxAbs(query, n), limit);
    const double inv = reciprocal(scale);
    std::int64_t sumSquares = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const std::int32_t code = roundCode(query[i] * inv);
        codes_[i] = static_cast<std::int16_t>(code);
        sumSquares += static_cast<std::int64_t>(code) * code;
    }
    scale_ = scale;

    // The file comment's bound divided by the row scale s_r, which
    // every term carries: ||dr|| <= s_r * rowError, ||r|| <= s_r *
    // rowNorm. ||s_q Q|| is computed from the codes, so it stands in
    // for the looser ||q|| + phi.
    const double rootN = std::sqrt(static_cast<double>(n));
    const double coded = scale_ * std::sqrt(static_cast<double>(sumSquares));
    const double phi = scale_ * kCodeError * rootN; // >= ||dq||
    const double rowError = kCodeError * rootN;
    const double rowNorm = 127.0 * rootN;
    // The double kernel's sum of n exact products is within
    // gamma_n * sum |q_i r_i| <= gamma_n ||q|| ||r|| of the true dot.
    const double nu = static_cast<double>(n) * 0x1p-53;
    const double gamma = nu / (1.0 - nu);
    const double width = coded * rowError + phi * rowNorm +
        gamma * (coded + phi) * rowNorm;
    // Slack for double rounding: a few ulps in `width` itself, and in
    // s_r * (s_q * I -/+ W) with |s_q * I| <= coded * rowNorm.
    halfWidth_ = width * (1.0 + 0x1p-20) + coded * rowNorm * 0x1p-40;
}

// ------------------------------------------------------------ the screen

namespace {

/** The flat scan's total order: score desc, then slot asc. */
bool
ranksBefore(const SlotScore &a, const SlotScore &b)
{
    if (a.score != b.score)
        return a.score > b.score;
    return a.slot < b.slot;
}

/**
 * Bound every row of `sketch` and return, in slot order, each row whose
 * upper bound reaches the k-th largest lower bound seen so far (k = 1
 * for best); `floor` receives the final k-th largest lower bound, or
 * -inf when the range holds fewer than k rows. The running bound only
 * rises, so a row dropped along the way is also below the final one;
 * the caller drops the kept rows below it. Each kept entry carries the
 * row's upper bound in `score`.
 */
std::vector<SlotScore>
screenRows(const SketchQuery &query, const RowSketch &sketch,
           std::size_t k, double *floor)
{
    const std::size_t rows = sketch.size();
    std::vector<SlotScore> kept;
    // Min-heap of the k largest lower bounds; its root is the floor.
    std::vector<double> lows;
    lows.reserve(std::min(k, rows));
    double kth = -std::numeric_limits<double>::infinity();
    const double qs = query.scale();
    const double w = query.halfWidth();
    std::uint32_t slots[kBlock];
    std::int32_t sums[kBlock];
    for (std::size_t base = 0; base < rows; base += kBlock) {
        // The kernel drops rows whose upper bound is below the floor as
        // of this block; a row below the floor cannot raise it either,
        // since its lower bound is below its upper bound.
        const std::size_t passed = kernels::screenBatch(
            query.codes(), sketch.codes(base), sketch.stride(),
            sketch.scales() + base, std::min(kBlock, rows - base),
            sketch.stride(), {qs, w, kth}, slots, sums);
        for (std::size_t j = 0; j < passed; ++j) {
            const std::size_t slot = base + slots[j];
            const double t = qs * sums[j];
            const double upper = sketch.scale(slot) * (t + w);
            // The floor may have risen since the kernel's check.
            if (upper < kth)
                continue;
            kept.push_back({slot, upper});
            const double lower = sketch.scale(slot) * (t - w);
            if (lows.size() < k) {
                lows.push_back(lower);
                std::push_heap(lows.begin(), lows.end(), std::greater<>());
                if (lows.size() == k)
                    kth = lows.front();
            } else if (lower > kth) {
                std::pop_heap(lows.begin(), lows.end(), std::greater<>());
                lows.back() = lower;
                std::push_heap(lows.begin(), lows.end(), std::greater<>());
                kth = lows.front();
            }
        }
    }
    *floor = kth;
    return kept;
}

} // namespace

/*
 * Why the screen is exact. Every row's interval [lower, upper] contains
 * its kernels::dot score (the bound in sketch.hh). Let F be the k-th
 * largest lower bound. At least k rows score >= their lower bound >= F,
 * so the k-th best score D is >= F. Any row that ranks in the top k
 * scores >= D >= F, and its upper bound is >= its score, so it is
 * re-scored; so is every row tied with it. Ranking the re-scored rows
 * by the full scan's total order (score desc, slot asc) therefore
 * yields the full scan's top k, scores included: they come from the
 * same kernels::dot. For best (k = 1) the rows are re-scored in slot
 * order and admitted strictly-greater, so the earliest tied slot wins.
 */
SlotScore
screenBest(const SketchQuery &query, const AlignedRows &rows,
           const RowSketch &sketch, std::size_t *rescored)
{
    SlotScore best{0, -2.0};
    std::size_t scored = 0;
    double floor = 0.0;
    for (const SlotScore &row : screenRows(query, sketch, 1, &floor)) {
        if (row.score < floor)
            continue;
        const double score =
            kernels::dot(query.values(), rows.row(row.slot), rows.dim());
        if (scored++ == 0 || score > best.score)
            best = {row.slot, score};
    }
    if (rescored)
        *rescored = scored;
    return best;
}

std::vector<SlotScore>
screenTopK(const SketchQuery &query, const AlignedRows &rows,
           const RowSketch &sketch, std::size_t k, std::size_t *rescored)
{
    std::vector<SlotScore> top;
    if (k > 0) {
        double floor = 0.0;
        for (const SlotScore &row : screenRows(query, sketch, k, &floor)) {
            if (row.score >= floor) {
                top.push_back({row.slot,
                               kernels::dot(query.values(),
                                            rows.row(row.slot),
                                            rows.dim())});
            }
        }
    }
    if (rescored)
        *rescored = top.size();
    const std::size_t keep = std::min(k, top.size());
    std::partial_sort(top.begin(), top.begin() + keep, top.end(),
                      ranksBefore);
    top.resize(keep);
    return top;
}

} // namespace modm
