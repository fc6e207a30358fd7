#include "core/kernels.hpp"

#include <algorithm>
#include <stdexcept>

namespace wavehpc::core {

// ---------------------------------------------------------------------------
// Analysis bodies: one Convolve loop body per pass, run by every caller —
// the whole-plane sweeps (serial, threads, batched), the tile stream, and
// the mesh backends over their pre-extended stripes — so a fix or a
// vectorization of a pass lands once. Both are bit-identical to the unfused
// convolve_decimate_* oracle in tests/convolve.hpp (same per-coefficient
// accumulation order).
//
//   * Row pass: output range [k0, k1) of the FULL signal x, output k at
//     lo[k-k0]. Boundary extension applies at the true signal edges only.
//   * Column pass: output rows [k0, k1) of a plane of `plane_rows` row-band
//     rows and `width` columns. Rows come from a row source (PlaneRows for a
//     whole ImageF, a RowAccessor for a mesh stripe, a RingRows store for
//     the tile stream); output row k lands at row k-out0, and its LL at
//     column ll_col0 of that row (the tile stream writes one output row
//     into four destination rows of its own).
//
// Every output element is a fixed function of its own input window, so any
// range, segment or tile split evaluates the whole-plane expression tree,
// and therefore the same bits. Every body writes every output it owns, so
// no destination needs clearing first.
// ---------------------------------------------------------------------------

namespace {

void require_even(std::size_t n, const char* what) {
    if (n == 0 || n % 2 != 0) {
        throw std::invalid_argument(std::string("kernels: ") + what +
                                    " must be even and non-zero");
    }
}

// Outputs per register block of the interior row pass: 16 low and 16 high
// float accumulators take eight 128-bit vector registers, half of the
// x86-64 SSE set, leaving the rest for loads and tap weights.
constexpr std::size_t kRowBlock = 16;

// Even and odd phases of a row window: e[j] = x[2j], o[j] = x[2j+1].
// Standalone because GCC only tracks __restrict reliably on parameters; the
// streams are distinct allocations, and saying so lets the loop vectorize.
void split_phases(const float* __restrict x, std::size_t len, float* __restrict e,
                  float* __restrict o) {
    for (std::size_t j = 0; j < len; ++j) {
        e[j] = x[2 * j];
        o[j] = x[2 * j + 1];
    }
}

// Interior outputs [0, count), count a multiple of kRowBlock, from the
// phases of their window: tap n of output i reads e[i + n/2] (n even) or
// o[i + n/2] (n odd). Taps run in the outer loop over a block of
// registers, so each output sums f[n] * x[2k+n] in tap order from zero,
// as the scalar loop does, while the block's outputs vectorize.
void convolve_row_blocks(const float* __restrict e, const float* __restrict o,
                         std::size_t count, std::span<const float> fl,
                         std::span<const float> fh, float* __restrict lo,
                         float* __restrict hi) {
    for (std::size_t b = 0; b < count; b += kRowBlock) {
        float acc_lo[kRowBlock] = {};
        float acc_hi[kRowBlock] = {};
        for (std::size_t n = 0; n < fl.size(); ++n) {
            const float* x = (n % 2 == 0 ? e : o) + b + n / 2;
            for (std::size_t i = 0; i < kRowBlock; ++i) {
                acc_lo[i] += fl[n] * x[i];
                acc_hi[i] += fh[n] * x[i];
            }
        }
        for (std::size_t i = 0; i < kRowBlock; ++i) {
            lo[b + i] = acc_lo[i];
            hi[b + i] = acc_hi[i];
        }
    }
}

void convolve_row_range(std::span<const float> src, const FilterPair& fp,
                        std::span<float> dlo, std::span<float> dhi, BoundaryMode mode,
                        std::size_t k0, std::size_t k1) {
    const std::size_t cols = src.size();
    const auto fl = fp.low();
    const auto fh = fp.high();
    const std::size_t taps = fl.size();
    // Interior outputs have every tap in range (2k + taps <= cols); windows
    // start at 2k >= 0, so they are the prefix [0, interior) of the signal.
    // Whole blocks of them run from the phases; the block remainder and the
    // edge outputs run the scalar loop below.
    const std::size_t interior = cols >= taps ? (cols - taps) / 2 + 1 : 0;
    const std::size_t blocked =
        k0 < interior ? (std::min(k1, interior) - k0) / kRowBlock * kRowBlock : 0;
    if (blocked > 0) {
        // The last blocked output reads phase index blocked-1 + (taps-2)/2,
        // i.e. x[2(k0+blocked-1) + taps-1]: in range, as that output is
        // interior.
        const std::size_t len = blocked + taps / 2 - 1;
        thread_local std::vector<float> e_buf;
        thread_local std::vector<float> o_buf;
        if (e_buf.size() < len) {
            e_buf.resize(len);
            o_buf.resize(len);
        }
        split_phases(src.data() + 2 * k0, len, e_buf.data(), o_buf.data());
        convolve_row_blocks(e_buf.data(), o_buf.data(), blocked, fl, fh, dlo.data(),
                            dhi.data());
    }
    for (std::size_t k = k0 + blocked; k < k1; ++k) {
        float acc_lo = 0.0F;
        float acc_hi = 0.0F;
        if (2 * k + taps <= cols) {
            const float* base = src.data() + 2 * k;
            for (std::size_t n = 0; n < taps; ++n) {
                acc_lo += fl[n] * base[n];
                acc_hi += fh[n] * base[n];
            }
        } else {
            for (std::size_t n = 0; n < taps; ++n) {
                const std::size_t idx =
                    extend_index(static_cast<std::ptrdiff_t>(2 * k + n), cols, mode);
                if (idx >= cols) continue;  // ZeroPad outside
                acc_lo += fl[n] * src[idx];
                acc_hi += fh[n] * src[idx];
            }
        }
        dlo[k - k0] = acc_lo;
        dhi[k - k0] = acc_hi;
    }
}

// Columns per register block of the column pass: 8 accumulators in each of
// the four subbands take eight 128-bit vector registers, half of the
// x86-64 SSE set, leaving the rest for the two source loads and the tap
// weights.
constexpr std::size_t kColBlock = 8;

// One tap of an output row: the low and high row-band rows the boundary
// maps it onto, and its low- and high-pass weights.
struct ColTap {
    const float* low;
    const float* high;
    float wl;
    float wh;
};

// One output row of all four subbands, columns [0, width), from its tap
// list. Taps run in the outer loop over a block of registers, so each
// output sums f[n] * x in tap order from zero, as the scalar loop for the
// block remainder does, and is stored once.
void convolve_col_row(const ColTap* taps, std::size_t count, std::size_t width,
                      float* __restrict dll, float* __restrict dlh, float* __restrict dhl,
                      float* __restrict dhh) {
    std::size_t c = 0;
    for (; c + kColBlock <= width; c += kColBlock) {
        float acc_ll[kColBlock] = {};
        float acc_lh[kColBlock] = {};
        float acc_hl[kColBlock] = {};
        float acc_hh[kColBlock] = {};
        for (std::size_t t = 0; t < count; ++t) {
            const float* sl = taps[t].low + c;
            const float* sh = taps[t].high + c;
            const float wl = taps[t].wl;
            const float wh = taps[t].wh;
            for (std::size_t i = 0; i < kColBlock; ++i) {
                acc_ll[i] += wl * sl[i];
                acc_lh[i] += wh * sl[i];
                acc_hl[i] += wl * sh[i];
                acc_hh[i] += wh * sh[i];
            }
        }
        for (std::size_t i = 0; i < kColBlock; ++i) {
            dll[c + i] = acc_ll[i];
            dlh[c + i] = acc_lh[i];
            dhl[c + i] = acc_hl[i];
            dhh[c + i] = acc_hh[i];
        }
    }
    for (; c < width; ++c) {
        float acc_ll = 0.0F;
        float acc_lh = 0.0F;
        float acc_hl = 0.0F;
        float acc_hh = 0.0F;
        for (std::size_t t = 0; t < count; ++t) {
            acc_ll += taps[t].wl * taps[t].low[c];
            acc_lh += taps[t].wh * taps[t].low[c];
            acc_hl += taps[t].wl * taps[t].high[c];
            acc_hh += taps[t].wh * taps[t].high[c];
        }
        dll[c] = acc_ll;
        dlh[c] = acc_lh;
        dhl[c] = acc_hl;
        dhh[c] = acc_hh;
    }
}

template <typename RowSource>
void convolve_cols_range(const RowSource& low_row, const RowSource& high_row,
                         std::size_t plane_rows, std::size_t width, const FilterPair& fp,
                         ImageF& ll, ImageF& lh, ImageF& hl, ImageF& hh,
                         BoundaryMode mode, std::size_t k0, std::size_t k1,
                         std::size_t out0, std::size_t ll_col0) {
    const auto fl = fp.low();
    const auto fh = fp.high();
    thread_local std::vector<ColTap> taps;
    taps.resize(fl.size());
    for (std::size_t k = k0; k < k1; ++k) {
        // Each tap row is looked up once per output row; a ZeroPad tap
        // outside the plane contributes nothing and is left out.
        std::size_t count = 0;
        for (std::size_t n = 0; n < fl.size(); ++n) {
            const std::size_t idx =
                extend_index(static_cast<std::ptrdiff_t>(2 * k + n), plane_rows, mode);
            if (idx >= plane_rows) continue;
            taps[count++] = ColTap{low_row(idx), high_row(idx), fl[n], fh[n]};
        }
        convolve_col_row(taps.data(), count, width, ll.row(k - out0).data() + ll_col0,
                         lh.row(k - out0).data(), hl.row(k - out0).data(),
                         hh.row(k - out0).data());
    }
}

/// Row source over a whole plane: a direct row lookup the compiler inlines
/// (the tile API's RowAccessor costs a std::function call per row).
struct PlaneRows {
    const ImageF& img;
    [[nodiscard]] const float* operator()(std::size_t r) const noexcept {
        return img.row(r).data();
    }
};

// ---------------------------------------------------------------------------
// Synthesis bodies, one per pass, under the contract of kernels.hpp
// ("Synthesis entry points"):
//   * Row pass: one row of 2*half outputs from two half-length band rows.
//   * Column pass: output rows [m0, m1) of a plane whose bands have
//     `half_rows` rows, read from a row source (PlaneRows or a
//     RowAccessor); output row m lands at row m-out0.
// ---------------------------------------------------------------------------

// One tap step of the interior row synthesis: even output i takes the
// even tap pair (le, he) and odd output i the odd pair (lo_w, ho_w), both
// from band samples lo[i], hi[i]. Standalone for the __restrict
// parameters, as split_phases.
void synthesis_row_tap(float* __restrict even, float* __restrict odd,
                       const float* __restrict lo, const float* __restrict hi, float le,
                       float he, float lo_w, float ho_w, std::size_t count) {
    for (std::size_t i = 0; i < count; ++i) {
        even[i] += le * lo[i];
        even[i] += he * hi[i];
        odd[i] += lo_w * lo[i];
        odd[i] += ho_w * hi[i];
    }
}

void synthesis_row(const float* lo, const float* hi, std::size_t half,
                   std::span<const float> fl, std::span<const float> fh,
                   BoundaryMode mode, float* out) {
    const std::size_t n = 2 * half;
    const std::size_t taps = fl.size();
    const auto edge = [&](std::size_t m) {
        float acc = 0.0F;
        for_each_synthesis_tap(m, half, taps, mode, [&](std::size_t k, std::size_t j) {
            acc += fl[j] * lo[k];
            acc += fh[j] * hi[k];
        });
        out[m] = acc;
    };
    // Outputs [first, last) take only direct taps in every mode: even
    // output m = 2p takes taps j = 2t and m+1 taps j = 2t+1, both from band
    // index p-t, and no Symmetric reflection lands below n+2-taps. Taps run
    // in the outer loop over the whole interior, so every output keeps its
    // own tap order while neighbouring outputs vectorize.
    const std::size_t first = std::min(taps - 2, n);
    const std::size_t last = n + 2 > taps ? std::max(first, n + 2 - taps) : first;
    const std::size_t count = (last - first) / 2;
    thread_local std::vector<float> even;
    thread_local std::vector<float> odd;
    even.assign(count, 0.0F);
    odd.assign(count, 0.0F);
    for (std::size_t t = 0; count > 0 && 2 * t < taps; ++t) {
        const std::size_t p = first / 2 - t;  // >= 0: first = taps-2 here
        synthesis_row_tap(even.data(), odd.data(), lo + p, hi + p, fl[2 * t], fh[2 * t],
                          fl[2 * t + 1], fh[2 * t + 1], count);
    }
    for (std::size_t m = 0; m < first; ++m) edge(m);
    for (std::size_t i = 0; i < count; ++i) {
        out[first + 2 * i] = even[i];
        out[first + 2 * i + 1] = odd[i];
    }
    for (std::size_t m = last; m < n; ++m) edge(m);
}

// One tap of the column pass; standalone so the __restrict parameters let
// the loop vectorize, as in split_phases.
void accumulate_synthesis_tap(float* __restrict dst, const float* __restrict lo,
                              const float* __restrict hi, float wl, float wh,
                              std::size_t width) {
    for (std::size_t c = 0; c < width; ++c) {
        dst[c] += wl * lo[c];
        dst[c] += wh * hi[c];
    }
}

template <typename RowSource>
void synthesis_col_pass(const RowSource& low_row, const RowSource& high_row,
                        std::size_t half_rows, std::size_t width, const FilterPair& fp,
                        ImageF& out, BoundaryMode mode, std::size_t m0, std::size_t m1,
                        std::size_t out0) {
    const auto fl = fp.low();
    const auto fh = fp.high();
    for (std::size_t m = m0; m < m1; ++m) {
        float* dst = out.row(m - out0).data();
        std::fill_n(dst, width, 0.0F);
        for_each_synthesis_tap(m, half_rows, fl.size(), mode,
                               [&](std::size_t k, std::size_t j) {
                                   accumulate_synthesis_tap(dst, low_row(k), high_row(k),
                                                            fl[j], fh[j], width);
                               });
    }
}

}  // namespace

void analyze_rows_range(const ImageF& in, const FilterPair& fp, ImageF& lo, ImageF& hi,
                        BoundaryMode mode, DwtKernel /*kernel*/, std::size_t r0,
                        std::size_t r1) {
    require_even(in.cols(), "column count");
    const std::size_t half = in.cols() / 2;
    if (lo.rows() != in.rows() || lo.cols() != half || hi.rows() != in.rows() ||
        hi.cols() != half) {
        throw std::invalid_argument("analyze_rows_range: bad band shape");
    }
    if (r0 > r1 || r1 > in.rows()) {
        throw std::invalid_argument("analyze_rows_range: bad row range");
    }
    for (std::size_t r = r0; r < r1; ++r) {
        convolve_row_range(in.row(r), fp, lo.row(r), hi.row(r), mode, 0, half);
    }
}

void analyze_cols_range(const ImageF& low_rows, const ImageF& high_rows,
                        const FilterPair& fp, ImageF& ll, ImageF& lh, ImageF& hl,
                        ImageF& hh, BoundaryMode mode, DwtKernel /*kernel*/,
                        std::size_t k0, std::size_t k1) {
    require_even(low_rows.rows(), "row count");
    const std::size_t half = low_rows.rows() / 2;
    const std::size_t cols = low_rows.cols();
    if (high_rows.rows() != low_rows.rows() || high_rows.cols() != cols) {
        throw std::invalid_argument("analyze_cols_range: band shapes differ");
    }
    for (const ImageF* out : {&ll, &lh, &hl, &hh}) {
        if (out->rows() != half || out->cols() != cols) {
            throw std::invalid_argument("analyze_cols_range: bad output shape");
        }
    }
    if (k0 > k1 || k1 > half) {
        throw std::invalid_argument("analyze_cols_range: bad output range");
    }
    convolve_cols_range(PlaneRows{low_rows}, PlaneRows{high_rows}, low_rows.rows(), cols,
                        fp, ll, lh, hl, hh, mode, k0, k1, 0, 0);
}

void analyze_1d_range(std::span<const float> x, const FilterPair& fp,
                      std::span<float> lo, std::span<float> hi, BoundaryMode mode,
                      std::size_t k0, std::size_t k1) {
    require_even(x.size(), "signal length");
    const std::size_t half = x.size() / 2;
    if (k0 > k1 || k1 > half) {
        throw std::invalid_argument("analyze_1d_range: bad output range");
    }
    if (lo.size() != k1 - k0 || hi.size() != k1 - k0) {
        throw std::invalid_argument("analyze_1d_range: band size must be k1-k0");
    }
    if (k0 == k1) return;
    convolve_row_range(x, fp, lo, hi, mode, k0, k1);
}

void analyze_cols_tile(const RowAccessor& low_row, const RowAccessor& high_row,
                       std::size_t plane_rows, std::size_t width,
                       const FilterPair& fp, ImageF& ll, ImageF& lh, ImageF& hl,
                       ImageF& hh, BoundaryMode mode, std::size_t k0, std::size_t k1,
                       std::size_t ll_col0) {
    require_even(plane_rows, "row count");
    const std::size_t half = plane_rows / 2;
    if (k0 > k1 || k1 > half) {
        throw std::invalid_argument("analyze_cols_tile: bad output range");
    }
    if (ll.rows() < k1 - k0 || ll.cols() < ll_col0 || ll.cols() - ll_col0 < width) {
        throw std::invalid_argument("analyze_cols_tile: bad LL shape");
    }
    for (const ImageF* out : {&lh, &hl, &hh}) {
        if (out->rows() != k1 - k0 || out->cols() != width) {
            throw std::invalid_argument("analyze_cols_tile: bad output shape");
        }
    }
    if (k0 == k1) return;
    convolve_cols_range(low_row, high_row, plane_rows, width, fp, ll, lh, hl, hh, mode, k0,
                        k1, k0, ll_col0);
}

void analyze_level(const ImageF& in, const FilterPair& fp, ImageF& ll, ImageF& lh,
                   ImageF& hl, ImageF& hh, BoundaryMode mode) {
    require_even(in.rows(), "row count");
    require_even(in.cols(), "column count");
    const std::size_t half_r = in.rows() / 2;
    const std::size_t half_c = in.cols() / 2;
    ImageF low_rows(in.rows(), half_c);
    ImageF high_rows(in.rows(), half_c);
    analyze_rows_range(in, fp, low_rows, high_rows, mode, DwtKernel::Convolve, 0,
                       in.rows());
    ll = ImageF(half_r, half_c);
    lh = ImageF(half_r, half_c);
    hl = ImageF(half_r, half_c);
    hh = ImageF(half_r, half_c);
    analyze_cols_range(low_rows, high_rows, fp, ll, lh, hl, hh, mode, DwtKernel::Convolve,
                       0, half_r);
}

void synthesize_rows_range(const ImageF& low, const ImageF& high, const FilterPair& fp,
                           ImageF& out, BoundaryMode mode, std::size_t r0,
                           std::size_t r1) {
    const std::size_t half = low.cols();
    if (high.rows() != low.rows() || high.cols() != half) {
        throw std::invalid_argument("synthesize_rows_range: band shapes differ");
    }
    if (out.rows() != low.rows() || out.cols() != 2 * half) {
        throw std::invalid_argument("synthesize_rows_range: bad output shape");
    }
    if (r0 > r1 || r1 > low.rows()) {
        throw std::invalid_argument("synthesize_rows_range: bad row range");
    }
    for (std::size_t r = r0; r < r1; ++r) {
        synthesis_row(low.row(r).data(), high.row(r).data(), half, fp.low(), fp.high(),
                      mode, out.row(r).data());
    }
}

void synthesize_cols_range(const ImageF& low, const ImageF& high, const FilterPair& fp,
                           ImageF& out, BoundaryMode mode, std::size_t m0,
                           std::size_t m1) {
    const std::size_t half = low.rows();
    const std::size_t cols = low.cols();
    if (high.rows() != half || high.cols() != cols) {
        throw std::invalid_argument("synthesize_cols_range: band shapes differ");
    }
    if (out.rows() != 2 * half || out.cols() != cols) {
        throw std::invalid_argument("synthesize_cols_range: bad output shape");
    }
    if (m0 > m1 || m1 > 2 * half) {
        throw std::invalid_argument("synthesize_cols_range: bad output range");
    }
    synthesis_col_pass(PlaneRows{low}, PlaneRows{high}, half, cols, fp, out, mode, m0, m1,
                       0);
}

void synthesize_cols_tile(const RowAccessor& low_row, const RowAccessor& high_row,
                          std::size_t half_rows, std::size_t width, const FilterPair& fp,
                          ImageF& out, BoundaryMode mode, std::size_t m0,
                          std::size_t m1) {
    if (m0 > m1 || m1 > 2 * half_rows) {
        throw std::invalid_argument("synthesize_cols_tile: bad output range");
    }
    if (out.rows() != m1 - m0 || out.cols() != width) {
        throw std::invalid_argument("synthesize_cols_tile: bad output shape");
    }
    synthesis_col_pass(low_row, high_row, half_rows, width, fp, out, mode, m0, m1, m0);
}

namespace {

[[noreturn]] void throw_row_not_resident() {
    throw std::logic_error("RingRows: row not resident");
}

}  // namespace

const float* RingRows::operator()(std::size_t r) const {
    if (r < produced && produced - r <= ring.rows()) {
        return ring.row(r % ring.rows()).data() + col0;
    }
    if (r < std::min(head.rows(), produced)) return head.row(r).data() + col0;
    throw_row_not_resident();
}

// The tap lookup of convolve_cols_range for one output row, then the same
// row body. Kept apart from that template, so the code the whole-plane
// sweeps run stays as it is.
void analyze_cols_row(const RingRows& low_row, const RingRows& high_row,
                      std::size_t plane_rows, std::size_t width, const FilterPair& fp,
                      BoundaryMode mode, std::size_t k, std::span<float> ll,
                      std::span<float> lh, std::span<float> hl, std::span<float> hh) {
    require_even(plane_rows, "row count");
    if (k >= plane_rows / 2) {
        throw std::invalid_argument("analyze_cols_row: bad output row");
    }
    for (const std::span<float>* out : {&ll, &lh, &hl, &hh}) {
        if (out->size() != width) {
            throw std::invalid_argument("analyze_cols_row: bad output size");
        }
    }
    const auto fl = fp.low();
    const auto fh = fp.high();
    thread_local std::vector<ColTap> taps;
    taps.resize(fl.size());
    std::size_t count = 0;
    for (std::size_t n = 0; n < fl.size(); ++n) {
        const std::size_t idx =
            extend_index(static_cast<std::ptrdiff_t>(2 * k + n), plane_rows, mode);
        if (idx >= plane_rows) continue;
        taps[count++] = ColTap{low_row(idx), high_row(idx), fl[n], fh[n]};
    }
    convolve_col_row(taps.data(), count, width, ll.data(), lh.data(), hl.data(),
                     hh.data());
}

}  // namespace wavehpc::core
