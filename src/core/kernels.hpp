#pragma once
// The unified DWT kernel layer: every backend (serial, threads, mesh,
// maspar) runs its analysis and synthesis arithmetic through the entry
// points below, so boundary handling and accumulation order live in
// exactly one place.
//
// One kernel implements the per-level analysis: the paper's separable
// filter+decimate sweeps (Convolve), fused so one row pass emits both row
// bands and one register-blocked column pass emits all four subbands. It is
// bit-identical to the unfused convolve_decimate_* oracle in the test tree
// (tests/convolve.hpp; same per-coefficient accumulation order). DESIGN.md
// section 12 says why there is one kernel.

#include <cstdint>
#include <functional>
#include <span>

#include "core/boundary.hpp"
#include "core/filters.hpp"
#include "core/image.hpp"

namespace wavehpc::core {

/// The analysis kernel a caller names. Convolve is the only kernel, and no
/// code branches on this value. It stays in the signatures that the
/// benchmark package calls, and as one byte of the service cache key and
/// the shard request frame, whose layouts keep the historical values.
enum class DwtKernel : std::uint8_t {
    Auto,      ///< the default: resolves to Convolve
    Convolve,  ///< separable convolve+decimate
};

/// The kernel that runs for `fp`: always Convolve. Callers that store the
/// kernel (cache key, request frame) store this value, so Auto never
/// reaches a key or a frame.
[[nodiscard]] constexpr DwtKernel resolve_dwt_kernel(DwtKernel /*requested*/,
                                                     const FilterPair& /*fp*/) noexcept {
    return DwtKernel::Convolve;
}

// ---------------------------------------------------------------------------
// Analysis entry points. Each checks its shapes and range
// (std::invalid_argument) and runs the layer's single loop body for its
// pass, so the whole-plane sweeps and the tile-local calls below execute
// the same code. The whole-plane passes keep an unused DwtKernel parameter
// only because the benchmark package passes one.
// ---------------------------------------------------------------------------

/// Fused row analysis over rows [r0, r1), r0 <= r1 <= in.rows(): each input
/// row is read once and produces its low- and high-pass decimated rows
/// together. lo/hi must be (in.rows(), in.cols()/2). Threads backend
/// parallelizes by row range; serial passes [0, rows).
void analyze_rows_range(const ImageF& in, const FilterPair& fp, ImageF& lo, ImageF& hi,
                        BoundaryMode mode, DwtKernel kernel, std::size_t r0,
                        std::size_t r1);

/// Fused column analysis over output rows [k0, k1), k0 <= k1 <= rows/2: one
/// sweep over the two row-band intermediates produces all four subbands.
/// Outputs must be (rows/2, cols); every output in the range is written, so
/// their prior contents do not matter.
void analyze_cols_range(const ImageF& low_rows, const ImageF& high_rows,
                        const FilterPair& fp, ImageF& ll, ImageF& lh, ImageF& hl,
                        ImageF& hh, BoundaryMode mode, DwtKernel kernel,
                        std::size_t k0, std::size_t k1);

// ---------------------------------------------------------------------------
// Tile-local analysis (the streaming tile driver, src/tile, and the mesh
// backends' pre-extended stripes). These entry points address the *global*
// signal/plane geometry while reading and writing local storage. They are
// not twins of the whole-plane sweeps: they run the same bodies, a whole
// plane being the range [0, rows/2). Each output is computed independently,
// so a segment reproduces the whole-plane expression tree exactly.
// ---------------------------------------------------------------------------

/// Fused 1-D analysis restricted to output range [k0, k1) of the FULL
/// signal `x`. lo/hi receive k1-k0 values (output k lands at lo[k-k0]);
/// boundary extension is applied at the true signal edges, never at k0/k1.
/// The whole signal is [0, x.size()/2), bit-identical to two calls of the
/// test oracle convolve_decimate_1d.
void analyze_1d_range(std::span<const float> x, const FilterPair& fp,
                      std::span<float> lo, std::span<float> hi, BoundaryMode mode,
                      std::size_t k0, std::size_t k1);

/// Maps an in-range global row-band row index (boundary mapping has
/// already been applied, so the argument is always < plane_rows) to the
/// storage of that row's column segment. The mesh backends and tests back
/// it with a plain ImageF.
using RowAccessor = std::function<const float*(std::size_t)>;

/// Fused column analysis of one tile: output rows [k0, k1) of a plane
/// with `plane_rows` global row-band rows, over a `width`-column segment.
/// lh/hl/hh are (k1-k0, width); LL lands in columns [ll_col0,
/// ll_col0+width) of `ll`, which must have at least k1-k0 rows. Output
/// row k is written at LOCAL row k-k0, every element in place, so no
/// destination needs clearing. Row k touches global rows 2k .. 2k+taps-1
/// mapped through `mode`, so the accessors are only asked for rows the
/// boundary maps into [0, plane_rows).
void analyze_cols_tile(const RowAccessor& low_row, const RowAccessor& high_row,
                       std::size_t plane_rows, std::size_t width,
                       const FilterPair& fp, ImageF& ll, ImageF& lh, ImageF& hl,
                       ImageF& hh, BoundaryMode mode, std::size_t k0, std::size_t k1,
                       std::size_t ll_col0);

/// The tile stream's store of one row band (low or high) of a plane whose
/// rows arrive in order: the newest ring.rows() rows in a ring (row r at
/// ring row r % ring.rows()) and the first head.rows() rows in a head, the
/// rows the Periodic bottom edge wraps back onto. A lookup returns the
/// row's segment from column col0; a row the store does not hold (not yet
/// produced, or gone from the ring and not in the head) throws
/// std::logic_error. A concrete row source, so the column body inlines it.
struct RingRows {
    const ImageF& ring;
    const ImageF& head;
    std::size_t produced = 0;  ///< rows stored so far, oldest first
    std::size_t col0 = 0;

    [[nodiscard]] const float* operator()(std::size_t r) const;
};

/// Fused column analysis of ONE output row k of a plane with `plane_rows`
/// global row-band rows, over a `width`-column segment read through ring
/// stores: ll/lh/hl/hh each receive `width` values, every one written.
/// Row k reads the rows the boundary maps 2k .. 2k+taps-1 onto, so the
/// stores must hold those (the tile stream calls this as soon as the last
/// of them has been stored).
void analyze_cols_row(const RingRows& low_row, const RingRows& high_row,
                      std::size_t plane_rows, std::size_t width, const FilterPair& fp,
                      BoundaryMode mode, std::size_t k, std::span<float> ll,
                      std::span<float> lh, std::span<float> hl, std::span<float> hh);

/// Whole-level fused analysis (serial convenience): rows then columns.
/// Allocates/reshapes the outputs as needed.
void analyze_level(const ImageF& in, const FilterPair& fp, ImageF& ll, ImageF& lh,
                   ImageF& hl, ImageF& hh, BoundaryMode mode);

// ---------------------------------------------------------------------------
// Synthesis entry points (the paper's figure 2), the mirror of the analysis
// passes: one gather-form body per pass, run by core::reconstruct,
// wavelet::reconstruct_parallel and wavelet::mesh_reconstruct. A pass
// combines a low band and a high band of the same shape:
//   out[m] = sum over (k, j) of lowf[j] * low[k] + highf[j] * high[k],
// with the (k, j) pairs of output m listed by for_each_synthesis_tap under
// the analysis BoundaryMode and summed in that order from zero. Every
// output is written (no accumulation into the destination), and any range
// or stripe split yields the whole-plane bits. Shapes and ranges are
// checked (std::invalid_argument).
// ---------------------------------------------------------------------------

/// Row synthesis over rows [r0, r1), r0 <= r1 <= low.rows(): low/high are
/// (rows, half) and out must be (rows, 2*half).
void synthesize_rows_range(const ImageF& low, const ImageF& high, const FilterPair& fp,
                           ImageF& out, BoundaryMode mode, std::size_t r0,
                           std::size_t r1);

/// Column synthesis over output rows [m0, m1), m0 <= m1 <= 2*low.rows():
/// low/high are (half, cols) and out must be (2*half, cols).
void synthesize_cols_range(const ImageF& low, const ImageF& high, const FilterPair& fp,
                           ImageF& out, BoundaryMode mode, std::size_t m0,
                           std::size_t m1);

/// Column synthesis of one stripe: output rows [m0, m1) of a plane whose
/// bands have `half_rows` global rows of `width` columns. Band rows are
/// read through the accessors, which are asked only for the rows
/// for_each_synthesis_tap lists (all < half_rows). out must be
/// (m1-m0, width); output row m lands at LOCAL row m-m0.
void synthesize_cols_tile(const RowAccessor& low_row, const RowAccessor& high_row,
                          std::size_t half_rows, std::size_t width, const FilterPair& fp,
                          ImageF& out, BoundaryMode mode, std::size_t m0,
                          std::size_t m1);

// ---------------------------------------------------------------------------
// Synthesis boundary mapping: the one enumeration of (coefficient k, tap j)
// pairs contributing to synthesis output m, shared by the synthesis bodies
// above and the mesh backend's guard-row planner (mesh_idwt.cpp).
// Synthesis is the adjoint of analysis under the same BoundaryMode:
//   * Periodic — taps wrap modulo the signal (the historical behavior,
//     enumerated in the identical order: j ascending from m%2 by 2).
//   * ZeroPad — analysis windows that spilled past the end read zeros, so
//     nothing is accumulated back; only direct (unwrapped) taps contribute.
//   * Symmetric — spilled taps read the reflection 2n-1-i, so their
//     adjoint folds the contribution back onto the reflected sample:
//     output m additionally receives the taps of windows that reflected
//     onto it (direct taps first, then the single reflected image of m).
// Analysis windows start at 2k >= 0, so only the right edge ever extends;
// with taps <= n a spilled index reflects at most once, which is the fast
// enumeration below. Smaller bands (taps > n, deep pyramid levels) fall
// back to a full window scan so multiple wraps/reflections stay correct.
// ---------------------------------------------------------------------------

/// Calls fn(k, j) for every pair contributing to output m < 2*half.
template <typename Fn>
inline void for_each_synthesis_tap(std::size_t m, std::size_t half, std::size_t taps,
                                   BoundaryMode mode, Fn&& fn) {
    const std::size_t n = 2 * half;
    if (mode == BoundaryMode::Periodic) {
        for (std::size_t j = m % 2; j < taps; j += 2) {
            // m < n and j < taps, so adding n until d >= 0 is d mod n
            // without a division per tap.
            std::ptrdiff_t d =
                static_cast<std::ptrdiff_t>(m) - static_cast<std::ptrdiff_t>(j);
            while (d < 0) d += static_cast<std::ptrdiff_t>(n);
            fn(static_cast<std::size_t>(d) / 2, j);
        }
        return;
    }
    if (taps > n) {
        // Tiny band: scan every window; extend_index handles repeated
        // reflection. ZeroPad windows outside the signal contribute nothing.
        for (std::size_t k = 0; k < half; ++k) {
            for (std::size_t j = 0; j < taps; ++j) {
                if (extend_index(static_cast<std::ptrdiff_t>(2 * k + j), n, mode) == m) {
                    fn(k, j);
                }
            }
        }
        return;
    }
    // Direct taps: windows that cover m without extension.
    for (std::size_t j = m % 2; j < taps && j <= m; j += 2) {
        fn((m - j) / 2, j);
    }
    if (mode == BoundaryMode::Symmetric) {
        // The unique extended index that reflects onto m (if any).
        const std::size_t i = 2 * n - 1 - m;
        if (i >= n && i + 3 <= n + taps) {
            const std::size_t jmin = i - n + 2;  // smallest tap with k < half
            for (std::size_t j = jmin; j < taps; j += 2) {
                fn((i - j) / 2, j);
            }
        }
    }
}

}  // namespace wavehpc::core
