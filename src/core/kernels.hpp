#pragma once
// The unified DWT kernel layer: every backend (serial, threads, mesh,
// maspar) runs its analysis and synthesis arithmetic through the entry
// points below, so boundary handling, accumulation order, and kernel
// selection live in exactly one place.
//
// Two kernels implement the per-level analysis:
//
//   * Convolve — the paper's separable filter+decimate sweeps, fused so
//     one row pass emits both row bands and one cache-tiled column pass
//     emits all four subbands. Bit-identical to the historical
//     convolve_decimate_* reference (same per-coefficient accumulation
//     order); this is the golden kernel.
//
//   * Lifting — a fused in-place factorization of the analysis polyphase
//     matrix into taps/2 plane-rotation stages (the paraunitary lattice
//     form of the lifting scheme, Daubechies–Sweldens / Vaidyanathan),
//     derived *numerically from the registered filter bank* at plan-build
//     time and verified against the filter taps before use. Each stage is
//     two fused multiply-adds per sample pair in shear form (rotation =
//     scale x shear), so an analysis costs ~(taps+2) multiplies per
//     coefficient pair instead of convolution's 2*taps, the inner loops
//     are unit-stride and compiler-vectorizable, and the whole level runs
//     in-place over cache-sized polyphase strips. Haar reduces to the
//     single exact butterfly and stays bit-identical to Convolve; wider
//     filters agree within float tolerance (see DESIGN.md).
//
// Selection: callers pass DwtKernel::Auto to defer to the process-wide
// selector — set_default_dwt_kernel() if called, else the
// WAVEHPC_DWT_KERNEL environment variable ("convolve" | "lifting"; "auto"
// means convolve, anything else throws), else Convolve. A Lifting request silently falls back to Convolve when no
// verified plan exists for the filter (never happens for the registered
// Daubechies banks; pinned by test_kernels).

#include <cstdint>
#include <functional>
#include <span>
#include <string_view>
#include <vector>

#include "core/boundary.hpp"
#include "core/filters.hpp"
#include "core/image.hpp"

namespace wavehpc::core {

enum class DwtKernel : std::uint8_t {
    Auto,      ///< resolve via set_default_dwt_kernel / WAVEHPC_DWT_KERNEL
    Convolve,  ///< separable convolve+decimate (bit-exact golden reference)
    Lifting,   ///< fused in-place lattice lifting (fast path)
};

/// "convolve" / "lifting" / "auto" (for diagnostics and bench labels).
[[nodiscard]] const char* to_string(DwtKernel k) noexcept;

/// Parse a kernel name ("convolve" | "lifting" | "auto", case-sensitive).
/// Returns false (out untouched) for anything else.
[[nodiscard]] bool parse_dwt_kernel(std::string_view text, DwtKernel& out) noexcept;

/// Process-wide kernel default used to resolve DwtKernel::Auto: the last
/// set_default_dwt_kernel() value, else WAVEHPC_DWT_KERNEL, else Convolve.
/// Throws std::invalid_argument when the variable holds another word.
[[nodiscard]] DwtKernel default_dwt_kernel();

/// Programmatic selector (overrides the environment until reset). Passing
/// DwtKernel::Auto clears the override and re-reads the environment.
void set_default_dwt_kernel(DwtKernel k) noexcept;

/// The kernel that will actually run for `fp`: Auto resolves through
/// default_dwt_kernel(), and Lifting degrades to Convolve when the filter
/// has no verified lifting plan.
[[nodiscard]] DwtKernel resolve_dwt_kernel(DwtKernel requested, const FilterPair& fp);

// ---------------------------------------------------------------------------
// Lifting plan (exposed for tests and the bench reporters).
// ---------------------------------------------------------------------------

/// Factorization of one orthonormal analysis filter pair into lattice
/// lifting stages. With polyphase inputs a[i] = x[2k+2i], b[i] = x[2k+2i+1]:
///
///   stage 0:        u[i] = a[i] + shear[0]*b[i]
///                   v[i] = b[i] - shear[0]*a[i]
///   stage t>=1:     u[i] = u[i] + shear[t]*v[i+1]
///                   v[i] = v[i+1] - shear[t]*u_old[i]
///   outputs:        lo[k] = scale_lo * u[k],  hi[k] = scale_hi * v[k]
///
/// where shear[t] = tan(theta_t) and scale_* fold the per-stage cos(theta_t)
/// factors plus the lattice output signs. Built from the filter taps by
/// peeling rotations off the polyphase matrix (double precision) and
/// verified by regenerating the impulse responses; `valid` is false when
/// the factorization does not reproduce the filter to 1e-6 or a shear
/// coefficient is too large to be numerically safe in float.
struct LiftingPlan {
    std::vector<float> shear;  ///< tan(theta_t), one per stage (taps/2 stages)
    float scale_lo = 1.0F;     ///< sign_lo * prod_t cos(theta_t)
    float scale_hi = 1.0F;     ///< sign_hi * prod_t cos(theta_t)
    bool valid = false;

    [[nodiscard]] std::size_t stages() const noexcept { return shear.size(); }
};

/// Derive (and verify) the lifting plan for `fp`. Deterministic and cheap
/// (a few hundred double ops); callers on hot paths build it once per level
/// sweep, not per row.
[[nodiscard]] LiftingPlan build_lifting_plan(const FilterPair& fp);

// ---------------------------------------------------------------------------
// Analysis entry points. `kernel` must be a *resolved* kernel
// (resolve_dwt_kernel); passing Auto resolves internally.
// ---------------------------------------------------------------------------

/// Fused 1-D analysis of one signal: both decimated bands in one pass.
/// lo/hi must have size x.size()/2. Bit-identical to two
/// convolve_decimate_1d calls for the Convolve kernel.
void analyze_1d(std::span<const float> x, const FilterPair& fp, std::span<float> lo,
                std::span<float> hi, BoundaryMode mode,
                DwtKernel kernel = DwtKernel::Auto);

/// Fused row analysis over rows [r0, r1): each input row is read once and
/// produces its low- and high-pass decimated rows together. lo/hi must be
/// (in.rows(), in.cols()/2). Threads backend parallelizes by row range;
/// serial passes [0, rows).
void analyze_rows_range(const ImageF& in, const FilterPair& fp, ImageF& lo, ImageF& hi,
                        BoundaryMode mode, DwtKernel kernel, std::size_t r0,
                        std::size_t r1);

/// Fused column analysis over output rows [k0, k1): one sweep over the two
/// row-band intermediates produces all four subbands. Outputs must be
/// (rows/2, cols); freshly constructed (zero) rows are assumed for the
/// Convolve accumulation path.
void analyze_cols_range(const ImageF& low_rows, const ImageF& high_rows,
                        const FilterPair& fp, ImageF& ll, ImageF& lh, ImageF& hl,
                        ImageF& hh, BoundaryMode mode, DwtKernel kernel,
                        std::size_t k0, std::size_t k1);

/// Column analysis over *pre-extended* stripes (the mesh backend gathers
/// its guard rows explicitly, so row indices 2k+n are used verbatim with
/// no boundary mapping). Output row k reads extended rows 2k..2k+taps-1.
void analyze_cols_ext_range(const ImageF& low_ext, const ImageF& high_ext,
                            const FilterPair& fp, ImageF& ll, ImageF& lh, ImageF& hl,
                            ImageF& hh, std::size_t k0, std::size_t k1);

// ---------------------------------------------------------------------------
// Tile-local analysis (the streaming tile driver, src/tile). The driver
// keeps only a sliding window of each level resident, so these entry
// points address the *global* signal/plane geometry while reading and
// writing tile-local storage. Both are bit-identical per coefficient to
// the full-plane sweeps above for every kernel: convolve computes each
// output independently, and the lifting ladder only ever reads pair
// indices to the RIGHT of an output (output k depends on polyphase pairs
// k .. k+stages-1), so a segment primed with stage-0 values for that
// window reproduces the monolithic expression tree exactly.
// ---------------------------------------------------------------------------

/// Fused 1-D analysis restricted to output range [k0, k1) of the FULL
/// signal `x`. lo/hi receive k1-k0 values (output k lands at lo[k-k0]);
/// boundary extension is applied at the true signal edges, never at k0/k1.
void analyze_1d_range(std::span<const float> x, const FilterPair& fp,
                      std::span<float> lo, std::span<float> hi, BoundaryMode mode,
                      DwtKernel kernel, std::size_t k0, std::size_t k1);

/// Maps an in-range global row-band row index (boundary mapping has
/// already been applied, so the argument is always < plane_rows) to the
/// storage of that row's column segment. The tile driver backs this with
/// its ring buffer; tests back it with a plain ImageF.
using RowAccessor = std::function<const float*(std::size_t)>;

/// Fused column analysis of one tile: output rows [k0, k1) of a plane
/// with `plane_rows` global row-band rows, over a `width`-column segment.
/// Outputs are (k1-k0, width) and written at LOCAL row k-k0 (the Convolve
/// path accumulates, so they must start zeroed). Row k touches global
/// rows 2k .. 2k+taps-1 mapped through `mode`, so the accessors are only
/// asked for rows the boundary maps into [0, plane_rows).
void analyze_cols_tile(const RowAccessor& low_row, const RowAccessor& high_row,
                       std::size_t plane_rows, std::size_t width,
                       const FilterPair& fp, ImageF& ll, ImageF& lh, ImageF& hl,
                       ImageF& hh, BoundaryMode mode, DwtKernel kernel,
                       std::size_t k0, std::size_t k1);

/// Whole-level fused analysis (serial convenience): rows then columns.
/// Allocates/reshapes the outputs as needed.
void analyze_level(const ImageF& in, const FilterPair& fp, ImageF& ll, ImageF& lh,
                   ImageF& hl, ImageF& hh, BoundaryMode mode,
                   DwtKernel kernel = DwtKernel::Auto);

// ---------------------------------------------------------------------------
// Synthesis boundary mapping: the one enumeration of (coefficient k, tap j)
// pairs contributing to synthesis output m, shared by the gather-form
// synthesis kernels (convolve.cpp) and the mesh backend's guard-row
// planner (mesh_idwt.cpp). Synthesis is the adjoint of analysis under the
// same BoundaryMode:
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

template <typename Fn>
inline void for_each_synthesis_tap(std::size_t m, std::size_t half, std::size_t taps,
                                   BoundaryMode mode, Fn&& fn) {
    const std::size_t n = 2 * half;
    if (mode == BoundaryMode::Periodic) {
        for (std::size_t j = m % 2; j < taps; j += 2) {
            std::ptrdiff_t d =
                static_cast<std::ptrdiff_t>(m) - static_cast<std::ptrdiff_t>(j);
            d %= static_cast<std::ptrdiff_t>(n);
            if (d < 0) d += static_cast<std::ptrdiff_t>(n);
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
