#include "src/common/sketch.hh"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "src/common/kernels.hh"
#include "src/common/log.hh"

namespace modm {

namespace {

/** Rows summed per screenSums call: a multiple of the 8-row block, and
 *  small enough that the batch's sums and bounds live on the stack. */
constexpr std::size_t kBatch = 256;
/** Rows in the first batch, which has no floor to test them against. */
constexpr std::size_t kFirstBatch = 32;

/** Relative margin on the per-query interval constants (sketch.hh):
 *  far above the few units of 2^-53 each rounding step can lose. */
constexpr double kMargin = 0x1p-40;

template <typename T>
double
maxAbs(const T *x, std::size_t n)
{
    // Four independent maxima, so the loop is not one long chain of
    // dependent compares.
    double m[4] = {0.0, 0.0, 0.0, 0.0};
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        for (std::size_t j = 0; j < 4; ++j)
            m[j] = std::max(m[j], std::fabs(static_cast<double>(x[i + j])));
    }
    for (; i < n; ++i)
        m[0] = std::max(m[0], std::fabs(static_cast<double>(x[i])));
    return std::max(std::max(m[0], m[1]), std::max(m[2], m[3]));
}

/**
 * A float scale s with limit * s >= maxAbs, rounded up when the nearest
 * float falls short: every code round(x / s) then stays within
 * +-limit, and s is positive whenever maxAbs is. maxAbs may reach twice
 * the largest float (a residual); s still fits.
 */
float
codeScale(double maxAbs, std::int32_t limit)
{
    float s = static_cast<float>(maxAbs / limit);
    // A float times an int below 2^8 is exact in double.
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

/**
 * An upper bound on the Euclidean norm whose squares, each within one
 * rounding of its true value, summed to `squares`: the sum and the
 * root lose at most (n + 3) * 2^-53 relative for n <= kScreenMaxDim
 * terms, far below the 2^-30 added.
 */
double
normUp(double squares)
{
    return std::sqrt(squares) * (1.0 + 0x1p-30);
}

/** The float at or above x / scale (scale > 0): the quotient's own
 *  rounding is covered by 2^-50, the float's by rounding up. */
float
ratioUp(double x, float scale)
{
    const double ratio = x / static_cast<double>(scale) * (1.0 + 0x1p-50);
    float f = static_cast<float>(ratio);
    if (static_cast<double>(f) < ratio)
        f = std::nextafter(f, std::numeric_limits<float>::infinity());
    return f;
}

} // namespace

// ------------------------------------------------------------- RowSketch

void
RowSketch::reset(std::size_t dim)
{
    MODM_ASSERT(dim > 0 && dim <= kernels::kScreenMaxDim,
                "RowSketch dim %zu outside [1, %zu]", dim,
                kernels::kScreenMaxDim);
    dim_ = dim;
    groups_ = (dim + 3) / 4;
    residual_.assign(dim, 0.0);
    clear();
}

std::uint8_t
RowSketch::code(std::size_t slot, std::size_t i) const
{
    MODM_ASSERT(slot < size() && i < groups_ * 4,
                "RowSketch::code out of range");
    return blocks(slot)[i / 4 * 32 + slot % 8 * 4 + i % 4];
}

void
RowSketch::reserve(std::size_t rows)
{
    const std::size_t blocks = (rows + 7) / 8;
    codes_.reserve(blocks * blockBytes());
    scales_.reserve(rows);
    errors_.reserve(rows);
    residuals_.reserve(rows);
    blockInverseScales_.reserve(blocks);
    blockErrors_.reserve(blocks);
    blockResiduals_.reserve(blocks);
}

void
RowSketch::refreshBlock(std::size_t block)
{
    const std::size_t first = block * 8;
    const std::size_t end = std::min(first + 8, size());
    float scale = 0.0f;
    float error = 0.0f;
    float residual = 0.0f;
    for (std::size_t r = first; r < end; ++r) {
        scale = std::max(scale, scales_[r]);
        error = std::max(error, errors_[r]);
        residual = std::max(residual, residuals_[r]);
    }
    // Rounded down; a block of exact copies of mu gets a huge finite
    // value, so the limit arithmetic needs no special case.
    blockInverseScales_[block] = scale > 0.0f
        ? 1.0 / static_cast<double>(scale) * (1.0 - 0x1p-50)
        : 0x1p200;
    blockErrors_[block] = error;
    blockResiduals_[block] = residual;
}

void
RowSketch::encode(std::size_t slot, const float *row)
{
    // r - mu in double: one rounding of two floats, never underflowing
    // (every difference is a multiple of 2^-149).
    for (std::size_t i = 0; i < dim_; ++i) {
        residual_[i] =
            static_cast<double>(row[i]) - static_cast<double>(center_[i]);
    }
    const float scale = codeScale(maxAbs(residual_.data(), dim_), 127);
    const double inv = reciprocal(scale);
    std::uint8_t *lane = codes_.data() + slot / 8 * blockBytes() +
        slot % 8 * 4;
    double errorSquares = 0.0;
    double residualSquares = 0.0;
    for (std::size_t i = 0; i < dim_; ++i) {
        const double d = residual_[i];
        const std::int32_t code = roundCode(d * inv);
        lane[i / 4 * 32 + i % 4] = static_cast<std::uint8_t>(code + 128);
        // scale * code is exact; the difference rounds once.
        const double e = d - static_cast<double>(scale) * code;
        errorSquares += e * e;
        residualSquares += d * d;
    }
    scales_[slot] = scale;
    if (scale == 0.0f) {
        // r == mu exactly: no residual, no error.
        errors_[slot] = residuals_[slot] = 0.0f;
        return;
    }
    // ||r - mu|| exceeds the norm of the rounded residual by at most a
    // factor 1 + 2^-53, and the true error exceeds the rounded one by
    // at most 2^-53 ||r - mu|| plus its own rounding.
    const double residual = normUp(residualSquares);
    const double error = normUp(errorSquares) + residual * 0x1p-52;
    errors_[slot] = ratioUp(error, scale);
    residuals_[slot] = ratioUp(residual, scale);
}

void
RowSketch::pushBack(const AlignedRows &rows)
{
    const std::size_t slot = size();
    MODM_ASSERT(rows.dim() == dim_ && rows.size() == slot + 1,
                "RowSketch::pushBack: rows must hold one unsketched row");
    if (slot % 8 == 0) {
        codes_.resize(codes_.size() + blockBytes(), 128);
        blockInverseScales_.push_back(0.0);
        blockErrors_.push_back(0.0);
        blockResiduals_.push_back(0.0);
    }
    scales_.push_back(0.0f);
    errors_.push_back(0.0f);
    residuals_.push_back(0.0f);
    if (centered_ || slot + 1 < kCenterRows) {
        encode(slot, rows.row(slot));
        refreshBlock(slot / 8);
        return;
    }
    // The kCenterRows-th row: mu becomes the mean of the rows held now,
    // and every one of them is sketched against it.
    std::vector<double> sum(dim_, 0.0);
    for (std::size_t r = 0; r <= slot; ++r) {
        for (std::size_t i = 0; i < dim_; ++i)
            sum[i] += rows.row(r)[i];
    }
    double squares = 0.0;
    for (std::size_t i = 0; i < dim_; ++i) {
        center_[i] = static_cast<float>(sum[i] / (slot + 1));
        squares += static_cast<double>(center_[i]) * center_[i];
    }
    centerNorm_ = normUp(squares);
    centered_ = true;
    for (std::size_t r = 0; r <= slot; ++r)
        encode(r, rows.row(r));
    for (std::size_t b = 0; b < blockErrors_.size(); ++b)
        refreshBlock(b);
}

void
RowSketch::swapRemove(std::size_t slot)
{
    MODM_ASSERT(slot < size(), "RowSketch::swapRemove out of range");
    const std::size_t last = size() - 1;
    std::uint8_t *to = codes_.data() + slot / 8 * blockBytes() +
        slot % 8 * 4;
    std::uint8_t *from = codes_.data() + last / 8 * blockBytes() +
        last % 8 * 4;
    for (std::size_t g = 0; g < groups_; ++g) {
        if (slot != last)
            std::memcpy(to + g * 32, from + g * 32, 4);
        std::memset(from + g * 32, 128, 4);
    }
    if (slot != last) {
        scales_[slot] = scales_[last];
        errors_[slot] = errors_[last];
        residuals_[slot] = residuals_[last];
    }
    scales_.pop_back();
    errors_.pop_back();
    residuals_.pop_back();
    if (last % 8 == 0) {
        codes_.resize(codes_.size() - blockBytes());
        blockInverseScales_.pop_back();
        blockErrors_.pop_back();
        blockResiduals_.pop_back();
    } else {
        refreshBlock(last / 8);
    }
    if (slot != last && slot / 8 != last / 8)
        refreshBlock(slot / 8);
}

void
RowSketch::clear()
{
    codes_.clear();
    scales_.clear();
    errors_.clear();
    residuals_.clear();
    blockInverseScales_.clear();
    blockErrors_.clear();
    blockResiduals_.clear();
    center_.assign(dim_, 0.0f);
    centerNorm_ = 0.0;
    centered_ = false;
}

// ----------------------------------------------------------- SketchQuery

void
SketchQuery::prepare(const float *query, const RowSketch &sketch)
{
    values_ = query;
    codes_.assign(sketch.groups() * 4, 0);
    const std::size_t n = sketch.dim();
    const float scale =
        codeScale(maxAbs(query, n), kernels::kScreenQueryLimit);
    const double inv = reciprocal(scale);
    std::int64_t codeSum = 0;
    double codedSquares = 0.0;
    double errorSquares = 0.0;
    double normSquares = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        const std::int32_t code = roundCode(query[i] * inv);
        codes_[i] = static_cast<std::int8_t>(code);
        codeSum += code;
        const double coded = static_cast<double>(scale) * code; // exact
        const double dq = query[i] - coded;
        codedSquares += coded * coded;
        errorSquares += dq * dq;
        normSquares += static_cast<double>(query[i]) * query[i];
    }
    scale_ = scale;
    offset_ = 128.0 * static_cast<double>(codeSum);
    inverseDown_ = inv * (1.0 - 0x1p-50);
    inverseUp_ = inv * (1.0 + 0x1p-50);

    // The constants of the bound in sketch.hh, each an upper bound:
    // A >= ||s_q Q||, phi >= ||dq||, G >= gamma_n ||q||, M >= ||mu||.
    const double a = normUp(codedSquares);
    const double phi = normUp(errorSquares);
    const double nu = static_cast<double>(n) * 0x1p-53;
    const double g = nu / (1.0 - nu) * normUp(normSquares);
    const double p = sketch.centered()
        ? kernels::dot(query, sketch.center(), n)
        : 0.0;
    // The margins cover rounding: alpha and beta the terms that carry
    // s_r (including |s_q s_r I| <= A s_r (E + R) / s_r), kappa the
    // rounding of P and of the final sums.
    alpha_ = a * (1.0 + 2.0 * kMargin);
    beta_ = (phi + g) * (1.0 + kMargin) + 2.0 * kMargin * a;
    const double kappa =
        (2.0 * g * sketch.centerNorm() + kMargin * std::fabs(p)) *
        (1.0 + kMargin);
    low_ = p - kappa;
    high_ = p + kappa;
}

/*
 * Why a limit is safe. Take a block whose largest scale, E / s_r and
 * R / s_r are s_max, e_max and r_max, and a floor above high = P +
 * kappa by F > 0. A row of the block scores at most
 * high + s_r (s_q I + w) with w = alpha E / s_r + beta R / s_r <= w_max =
 * alpha e_max + beta r_max. If s_q I + w <= 0 that is at most high,
 * below the floor; otherwise it is at most high + s_max (s_q I + w_max),
 * below the floor whenever I < T = (F / s_max - w_max) / s_q. Each
 * product below is pushed to its safe side by kMargin, far more than
 * its rounding; the sum is lowered by 2 (one for the rounding of the
 * last two additions on values below 2^33, one for truncating toward
 * zero) and shifted by 128 sum(Q) from I to the kernel's sum S. Sums
 * past +-2^31 clamp: every |I| <= 127 * 64 * n stays below 2^30.
 */
void
SketchQuery::limits(const RowSketch &sketch, std::size_t block,
                    std::size_t count, double floor,
                    std::int32_t *limits) const
{
    constexpr double kNone = std::numeric_limits<std::int32_t>::min();
    constexpr double kAll = std::numeric_limits<std::int32_t>::max();
    const double gap =
        floor - high_ - (std::fabs(floor) + std::fabs(high_)) * kMargin;
    if (!(gap > 0.0) || scale_ == 0.0) {
        std::fill(limits, limits + count, static_cast<std::int32_t>(kNone));
        return;
    }
    const double reach = gap * inverseDown_ * (1.0 - kMargin);
    const double perError = alpha_ * inverseUp_ * (1.0 + kMargin);
    const double perResidual = beta_ * inverseUp_ * (1.0 + kMargin);
    const double shift = offset_ - 2.0;
    const double *inverse = sketch.blockInverseScales() + block;
    const double *errors = sketch.blockErrors() + block;
    const double *residuals = sketch.blockResiduals() + block;
    for (std::size_t b = 0; b < count; ++b) {
        const double t = reach * inverse[b] -
            (perError * errors[b] + perResidual * residuals[b]) + shift;
        limits[b] = static_cast<std::int32_t>(
            std::min(std::max(t, kNone), kAll));
    }
}

// ------------------------------------------------------------ the screen

namespace {

/**
 * Bound every row of `sketch` in [begin, end) (begin a block edge) and
 * fill `kept`, in slot order, with each
 * row whose upper bound reaches the largest lower bound seen so far,
 * counting its own batch. Per batch of kBatch rows, two passes: the
 * kernel sums every row and flags those above their block's limit for
 * the floor so far (any other row scores below it, so it can neither
 * win nor raise the floor); the flagged rows get exact intervals, whose
 * lower bounds raise the floor; then their upper bounds are tested
 * against the batch-final floor. The first batch, with no floor to test
 * against, is kFirstBatch rows. `floor` receives the final largest
 * lower bound, or -inf for an empty range. The floor only rises, so a
 * row dropped along the way is also below the final one; the caller
 * drops the kept rows below it. Each kept entry carries the row's upper
 * bound in `score`.
 */
void
screenRows(const SketchQuery &query, const AlignedRows &rows,
           const RowSketch &sketch, std::size_t begin, std::size_t end,
           std::vector<SlotScore> &kept, double *floor)
{
    constexpr std::size_t kBlocks = kBatch / 8;
    const std::size_t rowBytes = rows.dim() * sizeof(float);
    kept.clear();
    double low = -std::numeric_limits<double>::infinity();
    std::int32_t limits[kBlocks];
    std::int32_t sums[kBatch];
    std::uint32_t flagged[kBatch];
    SlotScore bounded[kBatch];
    std::size_t len = kFirstBatch;
    for (std::size_t base = begin; base < end; base += len, len = kBatch) {
        len = std::min(len, end - base);
        const std::size_t blocks = (len + 7) / 8;
        query.limits(sketch, base / 8, blocks, low, limits);
        std::size_t count = kernels::screenSums(
            query.codes(), sketch.blocks(base), sketch.groups(), blocks,
            limits, sums, flagged);
        // Lanes past the last row of the sketch hold no row; a range
        // ends inside a block only there.
        while (count > 0 && flagged[count - 1] >= len)
            --count;
        for (std::size_t i = 0; i < count; ++i) {
            const std::size_t j = flagged[i];
            const ScoreInterval bound =
                query.interval(sketch, base + j, sums[j]);
            bounded[i] = {base + j, bound.upper};
            low = std::max(low, bound.lower);
        }
        for (std::size_t i = 0; i < count; ++i) {
            if (bounded[i].score < low)
                continue;
            kept.push_back(bounded[i]);
            // The re-score reads this row's floats, which the scan never
            // touches: start fetching them while it runs on.
            const char *row =
                reinterpret_cast<const char *>(rows.row(bounded[i].slot));
            for (std::size_t at = 0; at < rowBytes; at += 64)
                __builtin_prefetch(row + at);
        }
    }
    *floor = low;
}

} // namespace

/*
 * Why the screen is exact. Every flagged row's interval [lower, upper]
 * contains its kernels::dot score (the bound in sketch.hh). Let F be
 * the largest lower bound among them; the row that holds it scores >=
 * F, so the best score D is >= F. A row its block's limit drops scores
 * below the floor of that moment, which is at most F <= D, so it
 * neither wins nor ties the winner. Every flagged row that wins or ties
 * scores >= D >= F, and its upper bound is >= its score, so it is
 * re-scored by the same kernels::dot the full scan uses. The re-scored
 * rows go in slot order and are admitted strictly-greater, so the
 * earliest tied slot wins, as in the full scan.
 */
SlotScore
screenBest(const SketchQuery &query, const AlignedRows &rows,
           const RowSketch &sketch, std::size_t begin, std::size_t end,
           std::vector<SlotScore> &kept, std::size_t *rescored)
{
    MODM_ASSERT(begin % 8 == 0 && begin <= end && end <= sketch.size(),
                "screenBest: range [%zu, %zu) of %zu rows", begin, end,
                sketch.size());
    SlotScore best{0, -2.0};
    std::size_t scored = 0;
    double floor = 0.0;
    screenRows(query, rows, sketch, begin, end, kept, &floor);
    for (const SlotScore &row : kept) {
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

} // namespace modm
