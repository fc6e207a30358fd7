// Unified kernel layer (core/kernels.hpp): the kept kernel argument, the
// entry points' range checks and the synthesis boundary contract. The
// boundary tests are the regression net for the analysis/synthesis
// asymmetry bug: synthesis used to wrap periodically no matter which
// BoundaryMode produced the coefficients, so each non-Periodic case here
// failed before the fix.

#include "core/kernels.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

#include "core/dwt.hpp"
#include "core/synthetic.hpp"
#include "wavelet/threads_dwt.hpp"

namespace {

using wavehpc::core::BoundaryMode;
using wavehpc::core::DwtKernel;
using wavehpc::core::FilterPair;
using wavehpc::core::ImageF;
using wavehpc::core::extend_index;

constexpr BoundaryMode kModes[] = {BoundaryMode::Periodic, BoundaryMode::Symmetric,
                                   BoundaryMode::ZeroPad};
constexpr int kTaps[] = {2, 4, 6, 8};

ImageF scene(std::size_t rows, std::size_t cols, std::uint64_t seed) {
    return wavehpc::core::landsat_tm_like(rows, cols, seed);
}

double max_abs_diff(const ImageF& a, const ImageF& b) {
    EXPECT_EQ(a.rows(), b.rows());
    EXPECT_EQ(a.cols(), b.cols());
    double worst = 0.0;
    for (std::size_t r = 0; r < a.rows(); ++r) {
        for (std::size_t c = 0; c < a.cols(); ++c) {
            worst = std::max(worst, std::abs(double(a(r, c)) - double(b(r, c))));
        }
    }
    return worst;
}

// ---------------------------------------------------------- kernel argument

// DwtKernel stays in the signatures the benchmark package calls and as one
// byte of the cache key and the request frame; Convolve is the only kernel.

TEST(KernelArgument, EveryRequestResolvesToConvolveWithItsHistoricalByte) {
    // The cache key and the request frame store these bytes; golden keys
    // and frames written before the enum shrank read Convolve as 1.
    EXPECT_EQ(static_cast<int>(DwtKernel::Auto), 0);
    EXPECT_EQ(static_cast<int>(DwtKernel::Convolve), 1);
    const FilterPair box({0.5F, 0.5F, 0.5F, 0.5F}, "box4");
    for (const FilterPair& fp : {FilterPair::daubechies(2), FilterPair::daubechies(8), box}) {
        for (const auto requested : {DwtKernel::Auto, DwtKernel::Convolve}) {
            EXPECT_EQ(wavehpc::core::resolve_dwt_kernel(requested, fp), DwtKernel::Convolve)
                << fp.name() << " requested " << int(requested);
        }
    }
}

TEST(KernelArgument, AnalysisBitsDoNotDependOnIt) {
    // Auto, Convolve and the defaulted argument run the same bodies. The
    // scene carries a -0 block so that a sign flip shows under the bytewise
    // Image::operator==.
    ImageF img = scene(48, 40, 21);
    for (std::size_t r = 0; r < 8; ++r) {
        for (std::size_t c = 0; c < 8; ++c) img(r, c) = -0.0F;
    }
    for (const int taps : kTaps) {
        const FilterPair fp = FilterPair::daubechies(taps);
        for (const auto mode : kModes) {
            const auto dflt = wavehpc::core::decompose(img, fp, 2, mode);
            for (const auto kernel : {DwtKernel::Auto, DwtKernel::Convolve}) {
                const auto pyr = wavehpc::core::decompose(img, fp, 2, mode, kernel);
                ASSERT_EQ(pyr.depth(), dflt.depth());
                EXPECT_EQ(pyr.approx, dflt.approx) << "taps=" << taps;
                for (std::size_t l = 0; l < pyr.depth(); ++l) {
                    EXPECT_EQ(pyr.levels[l].lh, dflt.levels[l].lh) << "level " << l;
                    EXPECT_EQ(pyr.levels[l].hl, dflt.levels[l].hl) << "level " << l;
                    EXPECT_EQ(pyr.levels[l].hh, dflt.levels[l].hh) << "level " << l;
                }
            }

            ImageF alo(48, 20), ahi(48, 20), clo(48, 20), chi(48, 20);
            wavehpc::core::analyze_rows_range(img, fp, alo, ahi, mode, DwtKernel::Auto, 0,
                                              48);
            wavehpc::core::analyze_rows_range(img, fp, clo, chi, mode,
                                              DwtKernel::Convolve, 0, 48);
            EXPECT_EQ(alo, clo) << "taps=" << taps;
            EXPECT_EQ(ahi, chi) << "taps=" << taps;
            ImageF a[4] = {ImageF(24, 20), ImageF(24, 20), ImageF(24, 20), ImageF(24, 20)};
            ImageF c[4] = {ImageF(24, 20), ImageF(24, 20), ImageF(24, 20), ImageF(24, 20)};
            wavehpc::core::analyze_cols_range(clo, chi, fp, a[0], a[1], a[2], a[3], mode,
                                              DwtKernel::Auto, 0, 24);
            wavehpc::core::analyze_cols_range(clo, chi, fp, c[0], c[1], c[2], c[3], mode,
                                              DwtKernel::Convolve, 0, 24);
            for (int b = 0; b < 4; ++b) EXPECT_EQ(a[b], c[b]) << "band " << b;
        }
    }
}

// ------------------------------------------------------ entry-point ranges

TEST(AnalysisRange, PlaneSweepsRejectRangesOutsideThePlane) {
    // ImageF::row() is unchecked, so a bad range would read and write out of
    // bounds; the whole-plane sweeps reject it as the tile entry points do.
    const FilterPair fp = FilterPair::daubechies(4);
    const ImageF img = scene(8, 8, 1);
    const auto mode = BoundaryMode::Periodic;
    ImageF lo(8, 4), hi(8, 4);
    EXPECT_THROW(wavehpc::core::analyze_rows_range(img, fp, lo, hi, mode,
                                                   DwtKernel::Convolve, 5, 4),
                 std::invalid_argument);
    EXPECT_THROW(wavehpc::core::analyze_rows_range(img, fp, lo, hi, mode,
                                                   DwtKernel::Convolve, 0, 9),
                 std::invalid_argument);
    EXPECT_NO_THROW(wavehpc::core::analyze_rows_range(img, fp, lo, hi, mode,
                                                      DwtKernel::Convolve, 8, 8));

    ImageF ll(4, 4), lh(4, 4), hl(4, 4), hh(4, 4);
    EXPECT_THROW(wavehpc::core::analyze_cols_range(lo, hi, fp, ll, lh, hl, hh, mode,
                                                   DwtKernel::Convolve, 3, 2),
                 std::invalid_argument);
    EXPECT_THROW(wavehpc::core::analyze_cols_range(lo, hi, fp, ll, lh, hl, hh, mode,
                                                   DwtKernel::Convolve, 0, 5),
                 std::invalid_argument);
    EXPECT_NO_THROW(wavehpc::core::analyze_cols_range(lo, hi, fp, ll, lh, hl, hh, mode,
                                                      DwtKernel::Convolve, 0, 4));
}

// ------------------------------------------------------------ level sweep

// Every obtained buffer starts as quiet NaN, so a ring or head row the
// sweep reads before it has written it shows in the output.
class NanBuffers final : public wavehpc::core::FloatBufferSource {
public:
    [[nodiscard]] std::vector<float> obtain(std::size_t n) override {
        return std::vector<float>(n, std::numeric_limits<float>::quiet_NaN());
    }
    void recycle(std::vector<float>&& buf) override { std::vector<float> drop(std::move(buf)); }
};

TEST(LevelSweep, EveryStripeOfSmallPlanesWritesExactlyItsRowsWithThePlaneBits) {
    // Every stripe [k0, k1) of planes 2-24 rows tall, several shorter than
    // the filter, in every mode, into NaN-filled bands: the stripe writes
    // its output rows with the bits of the whole-plane row and column
    // passes and leaves every other row NaN. Symmetric stripes that end
    // near the bottom edge read rows below 2*k0, and Periodic stripes that
    // wrap without starting at row 0 fill their head first.
    constexpr std::size_t kCols = 20;
    const float nan = std::numeric_limits<float>::quiet_NaN();
    NanBuffers buffers;
    std::size_t stripes = 0;
    for (std::size_t rows = 2; rows <= 24; rows += 2) {
        const ImageF img = scene(rows, kCols, rows);
        const std::size_t half = rows / 2;
        for (const int taps : kTaps) {
            const FilterPair fp = FilterPair::daubechies(taps);
            for (const auto mode : kModes) {
                ImageF lo(rows, kCols / 2), hi(rows, kCols / 2);
                wavehpc::core::analyze_rows_range(img, fp, lo, hi, mode, DwtKernel::Convolve,
                                                  0, rows);
                std::vector<ImageF> want(4, ImageF(half, kCols / 2));
                wavehpc::core::analyze_cols_range(lo, hi, fp, want[0], want[1], want[2],
                                                  want[3], mode, DwtKernel::Convolve, 0, half);
                for (std::size_t k0 = 0; k0 < half; ++k0) {
                    for (std::size_t k1 = k0 + 1; k1 <= half; ++k1) {
                        std::vector<ImageF> got(4, ImageF(half, kCols / 2, nan));
                        wavehpc::core::analyze_stripe(img, fp, mode, k0, k1, buffers, got[0],
                                                      got[1], got[2], got[3]);
                        ++stripes;
                        for (std::size_t b = 0; b < 4; ++b) {
                            for (std::size_t k = 0; k < half; ++k) {
                                const ImageF row = got[b].sub(k, 0, 1, kCols / 2);
                                const bool ok =
                                    k >= k0 && k < k1
                                        ? row == want[b].sub(k, 0, 1, kCols / 2)
                                        : std::all_of(row.flat().begin(), row.flat().end(),
                                                      [](float v) { return std::isnan(v); });
                                ASSERT_TRUE(ok)
                                    << rows << " rows, taps " << taps << ", mode "
                                    << int(mode) << ", stripe [" << k0 << ", " << k1
                                    << "): band " << b << " row " << k;
                            }
                        }
                    }
                }
            }
        }
    }
    EXPECT_EQ(stripes, 4368U);  // 364 stripes per (taps, mode)
}

TEST(LevelSweep, RejectsBadRangesAndRowStores) {
    const FilterPair fp = FilterPair::daubechies(8);
    const ImageF img = scene(16, 8, 4);
    ImageF ll(8, 4), lh(8, 4), hl(8, 4), hh(8, 4);
    NanBuffers buffers;
    const auto mode = BoundaryMode::Periodic;
    EXPECT_THROW(wavehpc::core::analyze_stripe(img, fp, mode, 3, 2, buffers, ll, lh, hl, hh),
                 std::invalid_argument);
    EXPECT_THROW(wavehpc::core::analyze_stripe(img, fp, mode, 0, 9, buffers, ll, lh, hl, hh),
                 std::invalid_argument);
    ImageF narrow(8, 3);
    EXPECT_THROW(
        wavehpc::core::analyze_stripe(img, fp, mode, 0, 8, buffers, ll, lh, hl, narrow),
        std::invalid_argument);
    // A ring one row short of the filter, or no head under Periodic.
    wavehpc::core::SweepRows short_ring{ImageF(7, 4), ImageF(7, 4), ImageF(6, 4),
                                        ImageF(6, 4)};
    EXPECT_THROW(wavehpc::core::LevelSweep(short_ring, fp, mode, 16, 8, 0, 8),
                 std::invalid_argument);
    wavehpc::core::SweepRows no_head{ImageF(8, 4), ImageF(8, 4), {}, {}};
    EXPECT_THROW(wavehpc::core::LevelSweep(no_head, fp, mode, 16, 8, 0, 8),
                 std::invalid_argument);
    EXPECT_NO_THROW(
        wavehpc::core::LevelSweep(no_head, fp, BoundaryMode::Symmetric, 16, 8, 0, 8));
    // A row of the wrong width, and one past the rows the stripe reads.
    wavehpc::core::SweepRows rows{ImageF(8, 4), ImageF(8, 4), {}, {}};
    wavehpc::core::LevelSweep sweep(rows, fp, BoundaryMode::ZeroPad, 16, 8, 0, 1);
    EXPECT_THROW(sweep.push(img.row(0).subspan(0, 6)), std::invalid_argument);
    for (std::size_t r = 0; r < 8; ++r) sweep.push(img.row(sweep.wanted()));
    EXPECT_EQ(sweep.wanted(), 16U);
    EXPECT_THROW(sweep.push(img.row(8)), std::invalid_argument);
}

TEST(SynthesisRange, PassesRejectRangesAndShapesOutsideThePlane) {
    const FilterPair fp = FilterPair::daubechies(4);
    const ImageF lo = scene(4, 4, 2);
    const ImageF hi = scene(4, 4, 3);
    const auto mode = BoundaryMode::Periodic;
    ImageF rows(4, 8);
    EXPECT_THROW(wavehpc::core::synthesize_rows_range(lo, hi, fp, rows, mode, 3, 2),
                 std::invalid_argument);
    EXPECT_THROW(wavehpc::core::synthesize_rows_range(lo, hi, fp, rows, mode, 0, 5),
                 std::invalid_argument);
    EXPECT_THROW(wavehpc::core::synthesize_rows_range(lo, scene(4, 3, 4), fp, rows, mode,
                                                      0, 4),
                 std::invalid_argument);
    EXPECT_NO_THROW(wavehpc::core::synthesize_rows_range(lo, hi, fp, rows, mode, 4, 4));

    ImageF cols(8, 4);
    EXPECT_THROW(wavehpc::core::synthesize_cols_range(lo, hi, fp, cols, mode, 0, 9),
                 std::invalid_argument);
    EXPECT_THROW(wavehpc::core::synthesize_cols_range(scene(3, 4, 5), hi, fp, cols, mode,
                                                      0, 8),
                 std::invalid_argument);
    const wavehpc::core::RowAccessor row = [&](std::size_t k) { return lo.row(k).data(); };
    ImageF stripe(2, 4);
    EXPECT_THROW(wavehpc::core::synthesize_cols_tile(row, row, 4, 4, fp, stripe, mode, 7,
                                                     9),
                 std::invalid_argument);
    EXPECT_THROW(wavehpc::core::synthesize_cols_tile(row, row, 4, 4, fp, stripe, mode, 0,
                                                     3),
                 std::invalid_argument);
}

// ------------------------------------------------- synthesis boundary contract
//
// Synthesis must be the exact adjoint of analysis *under the same
// BoundaryMode*. The brute-force adjoint below scatters every analysis tap
// through extend_index; it is the one adjoint oracle for both synthesis
// passes (columns through a transpose). Before the boundary fix, row
// synthesis wrapped periodically for every mode and the Symmetric/ZeroPad
// cases failed.

ImageF adjoint_rows_reference(const ImageF& lo, const ImageF& hi,
                              const FilterPair& fp, BoundaryMode mode) {
    const std::size_t half = lo.cols();
    const std::size_t n = 2 * half;
    ImageF out(lo.rows(), n);
    const auto fl = fp.low();
    const auto fh = fp.high();
    for (std::size_t r = 0; r < lo.rows(); ++r) {
        for (std::size_t k = 0; k < half; ++k) {
            for (std::size_t j = 0; j < fl.size(); ++j) {
                const std::size_t i =
                    extend_index(static_cast<std::ptrdiff_t>(2 * k + j), n, mode);
                if (i >= n) continue;  // ZeroPad: tap read a zero
                out(r, i) += fl[j] * lo(r, k) + fh[j] * hi(r, k);
            }
        }
    }
    return out;
}

TEST(SynthesisBoundary, GatherRowsMatchesBruteForceAdjointEveryMode) {
    for (const int taps : kTaps) {
        const FilterPair fp = FilterPair::daubechies(taps);
        const ImageF lo = scene(4, 16, 21);
        const ImageF hi = scene(4, 16, 22);
        for (const auto mode : kModes) {
            const ImageF want = adjoint_rows_reference(lo, hi, fp, mode);
            ImageF got(lo.rows(), 2 * lo.cols());
            wavehpc::core::synthesize_rows_range(lo, hi, fp, got, mode, 0, lo.rows());
            EXPECT_LT(max_abs_diff(want, got), 1e-4)
                << "taps=" << taps << " mode=" << int(mode);
        }
    }
}

ImageF transpose(const ImageF& in) {
    ImageF out(in.cols(), in.rows());
    for (std::size_t r = 0; r < in.rows(); ++r) {
        for (std::size_t c = 0; c < in.cols(); ++c) out(c, r) = in(r, c);
    }
    return out;
}

TEST(SynthesisBoundary, GatherColsMatchBruteForceAdjointEveryMode) {
    // Column synthesis is row synthesis of the transposed plane. The 2-row
    // bands give a 4-row plane, shorter than the 6- and 8-tap filters
    // (full-window fallback).
    for (const int taps : kTaps) {
        const FilterPair fp = FilterPair::daubechies(taps);
        for (const std::size_t half : {8U, 2U}) {
            const ImageF lo = scene(half, 6, 23);
            const ImageF hi = scene(half, 6, 24);
            for (const auto mode : kModes) {
                const ImageF want =
                    transpose(adjoint_rows_reference(transpose(lo), transpose(hi), fp, mode));
                ImageF got(2 * half, 6);
                wavehpc::core::synthesize_cols_range(lo, hi, fp, got, mode, 0, 2 * half);
                EXPECT_LT(max_abs_diff(want, got), 1e-4)
                    << "taps=" << taps << " half=" << half << " mode=" << int(mode);
            }
        }
    }
}

TEST(SynthesisBoundary, TinyBandsStillMatchBruteForce) {
    // Deep pyramid levels: band narrower than the filter, where indices
    // wrap or reflect more than once. Exercises the full-window fallback.
    const FilterPair fp = FilterPair::daubechies(8);
    const ImageF lo = scene(2, 2, 31);  // n = 4 < taps = 8
    const ImageF hi = scene(2, 2, 32);
    for (const auto mode : kModes) {
        const ImageF want = adjoint_rows_reference(lo, hi, fp, mode);
        ImageF got(lo.rows(), 2 * lo.cols());
        wavehpc::core::synthesize_rows_range(lo, hi, fp, got, mode, 0, lo.rows());
        EXPECT_LT(max_abs_diff(want, got), 1e-4) << "mode " << int(mode);
    }
}

TEST(SynthesisBoundary, ZeroPadDropsWrappedTaps) {
    // The sharpest fail-before-fix case: a lone coefficient at the right
    // edge. Periodic synthesis wraps its spilled taps onto samples 0 and 1;
    // ZeroPad analysis never read those samples, so its adjoint must leave
    // them exactly zero.
    const FilterPair fp = FilterPair::daubechies(4);
    ImageF lo(1, 8), hi(1, 8);
    lo(0, 7) = 1.0F;  // window 2k+j = 14..17 spills two taps past n = 16
    ImageF out(1, 16);
    wavehpc::core::synthesize_rows_range(lo, hi, fp, out, BoundaryMode::ZeroPad, 0, 1);
    EXPECT_EQ(out(0, 0), 0.0F);
    EXPECT_EQ(out(0, 1), 0.0F);
    EXPECT_EQ(out(0, 14), fp.low()[0]);
    EXPECT_EQ(out(0, 15), fp.low()[1]);

    // Same coefficient under Periodic *does* wrap — the historical path.
    ImageF wrapped(1, 16);
    wavehpc::core::synthesize_rows_range(lo, hi, fp, wrapped, BoundaryMode::Periodic, 0,
                                         1);
    EXPECT_EQ(wrapped(0, 0), fp.low()[2]);
    EXPECT_EQ(wrapped(0, 1), fp.low()[3]);
}

TEST(SynthesisBoundary, SymmetricFoldsOntoTheReflection) {
    // Under Symmetric extension the spilled taps read the mirrored samples
    // 2n-1-i, so the adjoint folds them back onto the right edge instead
    // of wrapping to the left.
    const FilterPair fp = FilterPair::daubechies(4);
    ImageF lo(1, 8), hi(1, 8);
    lo(0, 7) = 1.0F;
    ImageF out(1, 16);
    wavehpc::core::synthesize_rows_range(lo, hi, fp, out, BoundaryMode::Symmetric, 0,
                                         1);
    EXPECT_EQ(out(0, 0), 0.0F);  // nothing wraps to the far edge
    EXPECT_EQ(out(0, 1), 0.0F);
    // Window samples 16, 17 reflect to 15, 14: tap 2 lands on 15, tap 3 on 14.
    EXPECT_EQ(out(0, 15), fp.low()[1] + fp.low()[2]);
    EXPECT_EQ(out(0, 14), fp.low()[0] + fp.low()[3]);
}

TEST(SynthesisBoundary, RoundTripMatrixInteriorExactEdgesBounded) {
    // decompose + reconstruct under one shared mode, every mode x filter.
    // Periodic is perfect reconstruction everywhere. Symmetric /
    // ZeroPad with orthonormal (asymmetric) Daubechies filters reconstruct
    // the interior exactly; both edges carry the documented distortion —
    // right/bottom because analysis windows extend (then truncate or
    // reflect), left/top because the negative-shift windows that periodic
    // wrap supplies are absent from the cross-term identity. The bands are
    // ~3*taps wide after two levels and must stay bounded (ZeroPad
    // attenuates, Symmetric folds) rather than exploding or wrapping.
    const ImageF img = scene(128, 128, 77);
    for (const int taps : kTaps) {
        const FilterPair fp = FilterPair::daubechies(taps);
        const std::size_t margin = 4 * static_cast<std::size_t>(taps);
        for (const auto mode : kModes) {
            const auto pyr = wavehpc::core::decompose(img, fp, 2, mode);
            const auto back = wavehpc::core::reconstruct(pyr, fp, mode);
            ASSERT_EQ(back.rows(), img.rows());
            ASSERT_EQ(back.cols(), img.cols());
            const double tol = 3e-3;  // 0..255 scale, two levels
            if (mode == BoundaryMode::Periodic) {
                EXPECT_LT(max_abs_diff(img, back), tol) << "taps=" << taps;
                continue;
            }
            double interior = 0.0, edge = 0.0;
            for (std::size_t r = 0; r < img.rows(); ++r) {
                for (std::size_t c = 0; c < img.cols(); ++c) {
                    const double d = std::abs(double(img(r, c)) - double(back(r, c)));
                    const bool inside = r >= margin && r + margin < img.rows() &&
                                        c >= margin && c + margin < img.cols();
                    (inside ? interior : edge) = std::max(inside ? interior : edge, d);
                }
            }
            EXPECT_LT(interior, tol) << "taps=" << taps << " mode=" << int(mode);
            // Edge distortion is the mode's documented attenuation/fold,
            // bounded by the signal scale — not periodic contamination.
            EXPECT_LT(edge, 2000.0) << "taps=" << taps << " mode=" << int(mode);
        }
    }
}

TEST(SynthesisBoundary, ThreadedReconstructHonorsMode) {
    const ImageF img = scene(64, 64, 13);
    const FilterPair fp = FilterPair::daubechies(8);
    wavehpc::runtime::ThreadPool pool(3);
    for (const auto mode : kModes) {
        const auto pyr = wavehpc::core::decompose(img, fp, 2, mode);
        const auto serial = wavehpc::core::reconstruct(pyr, fp, mode);
        const auto threaded = wavehpc::wavelet::reconstruct_parallel(pyr, fp, pool, mode);
        EXPECT_EQ(max_abs_diff(serial, threaded), 0.0) << "mode " << int(mode);
    }
}

}  // namespace
