#include "core/kernels.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <stdexcept>

#include "core/knobs.hpp"

namespace wavehpc::core {

namespace {

// Process-wide programmatic override; Auto = defer to the environment.
std::atomic<DwtKernel> g_default_kernel{DwtKernel::Auto};

void require_even(std::size_t n, const char* what) {
    if (n == 0 || n % 2 != 0) {
        throw std::invalid_argument(std::string("kernels: ") + what +
                                    " must be even and non-zero");
    }
}

// ---------------------------------------------------------------------------
// Lifting plan construction: peel plane rotations off the analysis filter
// functionals in double precision, then verify by regenerating the filter.
//
// State: after stage t the lattice outputs are shift-invariant functionals
//   u_t[i] = sum_j pU[j] a[i+j] + qU[j] b[i+j]   (likewise pV/qV for v_t)
// over the polyphase streams a[i] = x[2k+2i], b[i] = x[2k+2i+1]. The
// forward recursion (see kernels.hpp) grows the support by one per stage;
// peeling inverts it one rotation at a time, choosing the angle that
// annihilates the tail coefficient.
// ---------------------------------------------------------------------------

struct Lattice {
    std::vector<double> c;  // cos(theta_t)
    std::vector<double> s;  // sin(theta_t)
};

// Forward-regenerate the functional coefficient arrays from a lattice and
// return the max abs deviation from the target polyphase coefficients.
[[nodiscard]] double lattice_residual(const Lattice& lat, const std::vector<double>& tpU,
                                      const std::vector<double>& tqU,
                                      const std::vector<double>& tpV,
                                      const std::vector<double>& tqV) {
    const std::size_t m = lat.c.size();
    std::vector<double> pU{lat.c[0]}, qU{lat.s[0]}, pV{-lat.s[0]}, qV{lat.c[0]};
    for (std::size_t t = 1; t < m; ++t) {
        std::vector<double> npU(t + 1, 0.0), nqU(t + 1, 0.0), npV(t + 1, 0.0),
            nqV(t + 1, 0.0);
        const double c = lat.c[t];
        const double s = lat.s[t];
        for (std::size_t j = 0; j <= t; ++j) {
            const double pu = j < t ? pU[j] : 0.0;
            const double qu = j < t ? qU[j] : 0.0;
            const double pv = j > 0 ? pV[j - 1] : 0.0;
            const double qv = j > 0 ? qV[j - 1] : 0.0;
            npU[j] = c * pu + s * pv;
            nqU[j] = c * qu + s * qv;
            npV[j] = -s * pu + c * pv;
            nqV[j] = -s * qu + c * qv;
        }
        pU = std::move(npU);
        qU = std::move(nqU);
        pV = std::move(npV);
        qV = std::move(nqV);
    }
    double worst = 0.0;
    for (std::size_t j = 0; j < m; ++j) {
        worst = std::max(worst, std::abs(pU[j] - tpU[j]));
        worst = std::max(worst, std::abs(qU[j] - tqU[j]));
        worst = std::max(worst, std::abs(pV[j] - tpV[j]));
        worst = std::max(worst, std::abs(qV[j] - tqV[j]));
    }
    return worst;
}

// Attempt the peeling for one output-sign combination. Returns the residual
// of the forward verification (infinity when the peeling degenerates).
[[nodiscard]] double try_factorize(const FilterPair& fp, double sign_lo, double sign_hi,
                                   Lattice& out) {
    const auto fl = fp.low();
    const auto fh = fp.high();
    const std::size_t m = fl.size() / 2;
    std::vector<double> pU(m), qU(m), pV(m), qV(m);
    for (std::size_t j = 0; j < m; ++j) {
        pU[j] = sign_lo * static_cast<double>(fl[2 * j]);
        qU[j] = sign_lo * static_cast<double>(fl[2 * j + 1]);
        pV[j] = sign_hi * static_cast<double>(fh[2 * j]);
        qV[j] = sign_hi * static_cast<double>(fh[2 * j + 1]);
    }
    const std::vector<double> tpU = pU, tqU = qU, tpV = pV, tqV = qV;

    Lattice lat;
    lat.c.assign(m, 1.0);
    lat.s.assign(m, 0.0);
    for (std::size_t t = m; t-- > 1;) {
        // Tail annihilation: (c, s) proportional to (pV[t], pU[t]) zeroes
        // the stage-t coefficient of the inverted U functional.
        const double r = std::hypot(pV[t], pU[t]);
        if (r < 1e-12) return std::numeric_limits<double>::infinity();
        const double c = pV[t] / r;
        const double s = pU[t] / r;
        lat.c[t] = c;
        lat.s[t] = s;
        std::vector<double> npU(t), nqU(t), npV(t), nqV(t);
        for (std::size_t j = 0; j < t; ++j) {
            npU[j] = c * pU[j] - s * pV[j];
            nqU[j] = c * qU[j] - s * qV[j];
            npV[j] = s * pU[j + 1] + c * pV[j + 1];
            nqV[j] = s * qU[j + 1] + c * qV[j + 1];
        }
        pU = std::move(npU);
        qU = std::move(nqU);
        pV = std::move(npV);
        qV = std::move(nqV);
    }
    // Stage 0 must be a pure rotation: (pU, qU) = (c, s), (pV, qV) = (-s, c).
    lat.c[0] = pU[0];
    lat.s[0] = qU[0];
    // The head-zero conditions of every peeled stage, the rotation form of
    // stage 0, and the sign choice are all checked at once by regenerating
    // the filter from the lattice.
    const double residual = lattice_residual(lat, tpU, tqU, tpV, tqV);
    out = std::move(lat);
    return residual;
}

}  // namespace

const char* to_string(DwtKernel k) noexcept {
    switch (k) {
        case DwtKernel::Auto:
            return "auto";
        case DwtKernel::Convolve:
            return "convolve";
        case DwtKernel::Lifting:
            return "lifting";
    }
    return "convolve";  // unreachable
}

bool parse_dwt_kernel(std::string_view text, DwtKernel& out) noexcept {
    if (text == "auto") {
        out = DwtKernel::Auto;
    } else if (text == "convolve") {
        out = DwtKernel::Convolve;
    } else if (text == "lifting") {
        out = DwtKernel::Lifting;
    } else {
        return false;
    }
    return true;
}

DwtKernel default_dwt_kernel() {
    const DwtKernel k = g_default_kernel.load(std::memory_order_relaxed);
    if (k != DwtKernel::Auto) return k;
    return env_choice("WAVEHPC_DWT_KERNEL") == "lifting" ? DwtKernel::Lifting
                                                         : DwtKernel::Convolve;
}

void set_default_dwt_kernel(DwtKernel k) noexcept {
    g_default_kernel.store(k, std::memory_order_relaxed);
}

DwtKernel resolve_dwt_kernel(DwtKernel requested, const FilterPair& fp) {
    DwtKernel k = requested == DwtKernel::Auto ? default_dwt_kernel() : requested;
    if (k == DwtKernel::Lifting && !build_lifting_plan(fp).valid) {
        k = DwtKernel::Convolve;
    }
    return k;
}

LiftingPlan build_lifting_plan(const FilterPair& fp) {
    LiftingPlan plan;
    const std::size_t taps = fp.low().size();
    if (taps < 2 || taps % 2 != 0) return plan;
    const std::size_t m = taps / 2;

    // The lattice output signs are a convention, not a degree of freedom we
    // control: try the four combinations and keep the one whose forward
    // regeneration reproduces the registered filter bank.
    constexpr double kResidualTol = 1e-5;  // filter taps are floats (~6e-8 ulp)
    Lattice best;
    double best_sign_lo = 1.0;
    double best_sign_hi = 1.0;
    double best_residual = std::numeric_limits<double>::infinity();
    for (const double sign_lo : {1.0, -1.0}) {
        for (const double sign_hi : {1.0, -1.0}) {
            Lattice lat;
            const double residual = try_factorize(fp, sign_lo, sign_hi, lat);
            if (residual < best_residual) {
                best_residual = residual;
                best = lat;
                best_sign_lo = sign_lo;
                best_sign_hi = sign_hi;
            }
        }
    }
    if (best_residual > kResidualTol) return plan;  // not lattice-factorizable

    // Fold the rotations into shear form: rotation = cos * [[1, T], [-T, 1]]
    // with T = tan(theta); the cosines accumulate into the output scales.
    double prod_c = 1.0;
    plan.shear.resize(m);
    for (std::size_t t = 0; t < m; ++t) {
        // A near-90-degree stage would blow the shear coefficient up and
        // lose float precision to cancellation; refuse and let the caller
        // fall back to convolution.
        if (std::abs(best.c[t]) < 1e-2) return plan;
        const double shear = best.s[t] / best.c[t];
        if (std::abs(shear) > 64.0) return plan;
        plan.shear[t] = static_cast<float>(shear);
        prod_c *= best.c[t];
    }
    plan.scale_lo = static_cast<float>(best_sign_lo * prod_c);
    plan.scale_hi = static_cast<float>(best_sign_hi * prod_c);
    plan.valid = true;
    return plan;
}

// ---------------------------------------------------------------------------
// Analysis bodies: one loop body per kernel and per pass, run by every
// caller — the whole-plane sweeps (serial, threads, batched), the tile
// stream, and the mesh backends over their pre-extended stripes — so a fix
// or a vectorization of a pass lands once.
//
//   * Row pass: output range [k0, k1) of the FULL signal x, output k at
//     lo[k-k0]. Boundary extension applies at the true signal edges only.
//   * Column pass: output rows [k0, k1) of a plane of `plane_rows` row-band
//     rows and `width` columns. Rows come from a row source (PlaneRows for a
//     whole ImageF, a RowAccessor for a tile or a mesh stripe); output row
//     k lands at row k-out0, and its LL at column ll_col0 of that row.
//
// Every output element is a fixed function of its own input window, so any
// range, segment or tile split evaluates the whole-plane expression tree,
// and therefore the same bits. Every body writes every output it owns, so
// no destination needs clearing first.
// ---------------------------------------------------------------------------

namespace {

// ---------------------------------------------------------------------------
// Convolve: the golden kernel, bit-identical to the unfused
// convolve_decimate_* oracle in tests/convolve.hpp (same per-coefficient
// accumulation order).
// ---------------------------------------------------------------------------

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

// ---------------------------------------------------------------------------
// Lifting kernels. All loops are unit-stride over distinct buffers; the
// in-place stage updates read v[i+1] before writing v[i] (anti-dependence
// of distance one), which auto-vectorizes cleanly.
// ---------------------------------------------------------------------------

// taps == 2: the lattice collapses to a single rotation whose entries ARE
// the filter coefficients, so it is executed in rotation form straight from
// the filter floats — the identical multiply/add sequence as the convolve
// kernel, hence bit-exact (the window never reaches the boundary either).
void haar_row(const float* __restrict x, std::size_t half, float fl0, float fl1,
              float fh0, float fh1, float* __restrict lo, float* __restrict hi) {
    for (std::size_t k = 0; k < half; ++k) {
        const float x0 = x[2 * k];
        const float x1 = x[2 * k + 1];
        float acc_lo = fl0 * x0;
        acc_lo += fl1 * x1;
        float acc_hi = fh0 * x0;
        acc_hi += fh1 * x1;
        lo[k] = acc_lo;
        hi[k] = acc_hi;
    }
}

void haar_col(const float* __restrict e, const float* __restrict o, std::size_t w,
              float f0, float f1, float g0, float g1, float* __restrict dlo,
              float* __restrict dhi) {
    for (std::size_t c = 0; c < w; ++c) {
        float acc_lo = f0 * e[c];
        acc_lo += f1 * o[c];
        float acc_hi = g0 * e[c];
        acc_hi += g1 * o[c];
        dlo[c] = acc_lo;
        dhi[c] = acc_hi;
    }
}

void lift_stage(float* __restrict u, float* __restrict v, std::size_t len, float t) {
    for (std::size_t i = 0; i < len; ++i) {
        const float a = u[i];
        const float b = v[i + 1];
        u[i] = a + t * b;
        v[i] = b - t * a;
    }
}

void lift_final(const float* __restrict u, const float* __restrict v, std::size_t half,
                float t, float sl, float sh, float* __restrict lo,
                float* __restrict hi) {
    for (std::size_t k = 0; k < half; ++k) {
        const float a = u[k];
        const float b = v[k + 1];
        lo[k] = sl * (a + t * b);
        hi[k] = sh * (b - t * a);
    }
}

/// Extended sample of the signal at (possibly out-of-range) index `i`.
[[nodiscard]] inline float ext_sample(std::span<const float> x, std::ptrdiff_t i,
                                      BoundaryMode mode) noexcept {
    const std::size_t idx = extend_index(i, x.size(), mode);
    return idx < x.size() ? x[idx] : 0.0F;
}

// Stage 0 of the row ladder, fused with the polyphase split. Standalone for
// the same reason as split_phases: GCC drops the alias checks only for
// __restrict parameters.
void lift_row_stage0(const float* __restrict x, std::size_t len, float t0,
                     float* __restrict u, float* __restrict v) {
    for (std::size_t j = 0; j < len; ++j) {
        const float a = x[2 * j];
        const float b = x[2 * j + 1];
        u[j] = a + t0 * b;
        v[j] = b - t0 * a;
    }
}

// Lifting ladder over the pair window [k0, k1+ext), m >= 2: stage-0 values
// are seeded from the global signal (direct loads while the pair is in
// range, ext_sample past the edge), then the shrinking middle stages and
// the fused final stage run on the segment. Output k reads only pairs
// k..k+ext, all inside the window, so every intermediate equals its
// whole-signal counterpart bit for bit. u and v are separate allocations:
// carving both from one buffer misaligns v, which measured ~7 % slower at
// 8 taps on a 512-wide plane (x86-64, SSE2).
void lifting_row_range(std::span<const float> x, const LiftingPlan& plan,
                       std::span<float> lo, std::span<float> hi, BoundaryMode mode,
                       std::size_t k0, std::size_t k1) {
    const std::size_t half = x.size() / 2;
    const std::size_t m = plan.stages();
    const std::size_t ext = m - 1;
    const std::size_t seg = k1 - k0;
    const float t0 = plan.shear[0];
    thread_local std::vector<float> u_buf;
    thread_local std::vector<float> v_buf;
    if (u_buf.size() < seg + ext) {
        u_buf.resize(seg + ext);
        v_buf.resize(seg + ext);
    }
    float* const u = u_buf.data();
    float* const v = v_buf.data();
    const std::size_t direct = std::min(seg + ext, half - std::min(half, k0));
    lift_row_stage0(x.data() + 2 * k0, direct, t0, u, v);
    for (std::size_t j = direct; j < seg + ext; ++j) {
        const std::size_t i = k0 + j;
        const float a = ext_sample(x, static_cast<std::ptrdiff_t>(2 * i), mode);
        const float b = ext_sample(x, static_cast<std::ptrdiff_t>(2 * i + 1), mode);
        u[j] = a + t0 * b;
        v[j] = b - t0 * a;
    }
    for (std::size_t t = 1; t + 1 < m; ++t) {
        lift_stage(u, v, seg + ext - t, plan.shear[t]);
    }
    lift_final(u, v, seg, plan.shear[m - 1], plan.scale_lo, plan.scale_hi, lo.data(),
               hi.data());
}

/// Source row of the even (parity == 0) or odd (parity == 1) polyphase
/// plane at plane index `i`, mapped through the boundary when 2i+parity
/// falls outside; returns nullptr for a ZeroPad row of zeros.
template <typename RowSource>
[[nodiscard]] const float* polyphase_row(const RowSource& row, std::size_t plane_rows,
                                         std::size_t i, int parity, BoundaryMode mode) {
    const std::size_t idx =
        extend_index(static_cast<std::ptrdiff_t>(2 * i) + parity, plane_rows, mode);
    return idx < plane_rows ? row(idx) : nullptr;
}

void lift_col_stage0(const float* __restrict e, const float* __restrict o,
                     std::size_t w, float t0, float* __restrict u,
                     float* __restrict v) {
    for (std::size_t c = 0; c < w; ++c) {
        const float a = e[c];
        const float b = o[c];
        u[c] = a + t0 * b;
        v[c] = b - t0 * a;
    }
}

// Rolling column-stage kernels for the single-pass sweep: a stage consumes
// v_{t-1}[li+1] from `vprev` and leaves v_{t-1}[li] there for the next
// (descending) iteration.
void lift_col_roll(float* __restrict u, float* __restrict v,
                   float* __restrict vprev, std::size_t w, float t) {
    for (std::size_t c = 0; c < w; ++c) {
        const float a = u[c];
        const float b = vprev[c];
        u[c] = a + t * b;
        const float keep = v[c];
        v[c] = b - t * a;
        vprev[c] = keep;
    }
}

void lift_col_final_roll(const float* __restrict u, const float* __restrict v,
                         float* __restrict vprev, std::size_t w, float t, float sl,
                         float sh, float* __restrict dlo, float* __restrict dhi) {
    for (std::size_t c = 0; c < w; ++c) {
        const float a = u[c];
        const float b = vprev[c];
        dlo[c] = sl * (a + t * b);
        dhi[c] = sh * (b - t * a);
        vprev[c] = v[c];
    }
}

// Column lifting for one source plane over output rows [k0, k1): writes
// out_lo (low-pass columns, from column lo_col0) and out_hi (high-pass
// columns) at row k-out0. Outputs are written, not accumulated.
//
// Single descending sweep with rolling per-stage state. Iteration li
// computes stage 0 of polyphase strip li, then advances each middle stage t
// using v_{t-1}[li+1] stashed in vprev[t-1] by iteration li+1, and emits
// output row li once every stage is available. All state between the
// source read and the output write is m+1 rows (~L1), so the pass streams
// the source once instead of once per stage. Each output element evaluates
// exactly the expression tree of the naive stage-by-stage ladder, and every
// column is independent, so any [k0, k1) split or column segment is
// bit-identical.
template <typename RowSource>
void lifting_cols_range(const RowSource& src_row, std::size_t plane_rows,
                        std::size_t width, const LiftingPlan& plan, ImageF& out_lo,
                        ImageF& out_hi, BoundaryMode mode, std::size_t k0,
                        std::size_t k1, std::size_t out0, std::size_t lo_col0) {
    const std::size_t m = plan.stages();
    const std::size_t ext = m - 1;
    const std::size_t strips_end = k1 + ext;  // strip rows k0 .. strips_end-1
    thread_local std::vector<float> scratch;
    if (scratch.size() < (m + 1) * width) scratch.resize((m + 1) * width);
    float* const uwork = scratch.data() + ext * width;
    float* const vwork = uwork + width;
    const auto vprev = [&](std::size_t t) { return scratch.data() + t * width; };
    std::vector<float> zeros;  // lazily sized; ZeroPad rows only
    for (std::size_t li = strips_end; li-- > k0;) {
        const float* e = polyphase_row(src_row, plane_rows, li, 0, mode);
        const float* o = polyphase_row(src_row, plane_rows, li, 1, mode);
        if (e == nullptr || o == nullptr) {
            if (zeros.size() != width) zeros.assign(width, 0.0F);
            if (e == nullptr) e = zeros.data();
            if (o == nullptr) o = zeros.data();
        }
        lift_col_stage0(e, o, width, plan.shear[0], uwork, vwork);
        std::size_t t = 1;
        for (; t + 1 < m && li + t < strips_end; ++t) {
            lift_col_roll(uwork, vwork, vprev(t - 1), width, plan.shear[t]);
        }
        if (li < k1) {
            lift_col_final_roll(uwork, vwork, vprev(m - 2), width, plan.shear[m - 1],
                                plan.scale_lo, plan.scale_hi,
                                out_lo.row(li - out0).data() + lo_col0,
                                out_hi.row(li - out0).data());
        } else {
            // Priming strip (li >= k1): no output yet; seed the deepest
            // completed stage's v for the next iteration.
            float* const dst = vprev(t - 1);
            for (std::size_t c = 0; c < width; ++c) dst[c] = vwork[c];
        }
    }
}

// ---------------------------------------------------------------------------
// The one kernel dispatch, and the two passes every entry point runs.
// ---------------------------------------------------------------------------

// The loop body a call runs, picked once per call: Auto resolves through
// the process default, Lifting on a two-tap bank runs the exact Haar
// butterfly, and Lifting without a verified plan falls back to Convolve.
struct Body {
    enum class Kind : std::uint8_t { Convolve, Haar, Lifting };
    Kind kind = Kind::Convolve;
    LiftingPlan plan;  ///< valid when kind == Lifting
};

[[nodiscard]] Body pick_body(const FilterPair& fp, DwtKernel kernel) {
    Body body;
    if (kernel == DwtKernel::Auto) kernel = default_dwt_kernel();
    if (kernel != DwtKernel::Lifting) return body;
    if (fp.low().size() == 2) {
        body.kind = Body::Kind::Haar;
        return body;
    }
    body.plan = build_lifting_plan(fp);
    if (body.plan.valid) body.kind = Body::Kind::Lifting;
    return body;
}

void row_pass(const Body& body, std::span<const float> x, const FilterPair& fp,
              std::span<float> lo, std::span<float> hi, BoundaryMode mode, std::size_t k0,
              std::size_t k1) {
    switch (body.kind) {
        case Body::Kind::Haar: {
            // Haar windows never reach the boundary: x + 2*k0 re-bases the
            // same in-range loads.
            const auto fl = fp.low();
            const auto fh = fp.high();
            haar_row(x.data() + 2 * k0, k1 - k0, fl[0], fl[1], fh[0], fh[1], lo.data(),
                     hi.data());
            return;
        }
        case Body::Kind::Lifting:
            lifting_row_range(x, body.plan, lo, hi, mode, k0, k1);
            return;
        case Body::Kind::Convolve:
            convolve_row_range(x, fp, lo, hi, mode, k0, k1);
            return;
    }
}

template <typename RowSource>
void col_pass(const Body& body, const RowSource& low_row, const RowSource& high_row,
              std::size_t plane_rows, std::size_t width, const FilterPair& fp, ImageF& ll,
              ImageF& lh, ImageF& hl, ImageF& hh, BoundaryMode mode, std::size_t k0,
              std::size_t k1, std::size_t out0, std::size_t ll_col0) {
    switch (body.kind) {
        case Body::Kind::Haar: {
            const auto fl = fp.low();
            const auto fh = fp.high();
            for (std::size_t k = k0; k < k1; ++k) {
                haar_col(low_row(2 * k), low_row(2 * k + 1), width, fl[0], fl[1], fh[0],
                         fh[1], ll.row(k - out0).data() + ll_col0,
                         lh.row(k - out0).data());
                haar_col(high_row(2 * k), high_row(2 * k + 1), width, fl[0], fl[1],
                         fh[0], fh[1], hl.row(k - out0).data(), hh.row(k - out0).data());
            }
            return;
        }
        case Body::Kind::Lifting:
            lifting_cols_range(low_row, plane_rows, width, body.plan, ll, lh, mode, k0,
                               k1, out0, ll_col0);
            lifting_cols_range(high_row, plane_rows, width, body.plan, hl, hh, mode, k0,
                               k1, out0, 0);
            return;
        case Body::Kind::Convolve:
            convolve_cols_range(low_row, high_row, plane_rows, width, fp, ll, lh, hl, hh,
                                mode, k0, k1, out0, ll_col0);
            return;
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
                        BoundaryMode mode, DwtKernel kernel, std::size_t r0,
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
    const Body body = pick_body(fp, kernel);
    for (std::size_t r = r0; r < r1; ++r) {
        row_pass(body, in.row(r), fp, lo.row(r), hi.row(r), mode, 0, half);
    }
}

void analyze_cols_range(const ImageF& low_rows, const ImageF& high_rows,
                        const FilterPair& fp, ImageF& ll, ImageF& lh, ImageF& hl,
                        ImageF& hh, BoundaryMode mode, DwtKernel kernel,
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
    col_pass(pick_body(fp, kernel), PlaneRows{low_rows}, PlaneRows{high_rows},
             low_rows.rows(), cols, fp, ll, lh, hl, hh, mode, k0, k1, 0, 0);
}

void analyze_1d_range(std::span<const float> x, const FilterPair& fp,
                      std::span<float> lo, std::span<float> hi, BoundaryMode mode,
                      DwtKernel kernel, std::size_t k0, std::size_t k1) {
    require_even(x.size(), "signal length");
    const std::size_t half = x.size() / 2;
    if (k0 > k1 || k1 > half) {
        throw std::invalid_argument("analyze_1d_range: bad output range");
    }
    if (lo.size() != k1 - k0 || hi.size() != k1 - k0) {
        throw std::invalid_argument("analyze_1d_range: band size must be k1-k0");
    }
    if (k0 == k1) return;
    row_pass(pick_body(fp, kernel), x, fp, lo, hi, mode, k0, k1);
}

void analyze_cols_tile(const RowAccessor& low_row, const RowAccessor& high_row,
                       std::size_t plane_rows, std::size_t width,
                       const FilterPair& fp, ImageF& ll, ImageF& lh, ImageF& hl,
                       ImageF& hh, BoundaryMode mode, DwtKernel kernel,
                       std::size_t k0, std::size_t k1, std::size_t ll_col0) {
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
    col_pass(pick_body(fp, kernel), low_row, high_row, plane_rows, width, fp, ll, lh,
             hl, hh, mode, k0, k1, k0, ll_col0);
}

void analyze_level(const ImageF& in, const FilterPair& fp, ImageF& ll, ImageF& lh,
                   ImageF& hl, ImageF& hh, BoundaryMode mode, DwtKernel kernel) {
    require_even(in.rows(), "row count");
    require_even(in.cols(), "column count");
    const std::size_t half_r = in.rows() / 2;
    const std::size_t half_c = in.cols() / 2;
    if (kernel == DwtKernel::Auto) kernel = default_dwt_kernel();
    ImageF low_rows(in.rows(), half_c);
    ImageF high_rows(in.rows(), half_c);
    analyze_rows_range(in, fp, low_rows, high_rows, mode, kernel, 0, in.rows());
    ll = ImageF(half_r, half_c);
    lh = ImageF(half_r, half_c);
    hl = ImageF(half_r, half_c);
    hh = ImageF(half_r, half_c);
    analyze_cols_range(low_rows, high_rows, fp, ll, lh, hl, hh, mode, kernel, 0,
                       half_r);
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

}  // namespace wavehpc::core
