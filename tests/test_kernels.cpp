// Unified kernel layer (core/kernels.hpp): kernel selection, lifting-plan
// factorization, convolve/lifting agreement, and the synthesis boundary
// contract. The boundary tests are the regression net for the
// analysis/synthesis asymmetry bug: synthesis used to wrap periodically
// no matter which BoundaryMode produced the coefficients, so each
// non-Periodic case here failed before the fix.

#include "core/kernels.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <stdexcept>
#include <vector>

#include "core/convolve.hpp"
#include "core/dwt.hpp"
#include "core/synthetic.hpp"
#include "wavelet/threads_dwt.hpp"

namespace {

using wavehpc::core::BoundaryMode;
using wavehpc::core::DwtKernel;
using wavehpc::core::FilterPair;
using wavehpc::core::ImageF;
using wavehpc::core::build_lifting_plan;
using wavehpc::core::extend_index;
using wavehpc::core::parse_dwt_kernel;
using wavehpc::core::set_default_dwt_kernel;

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

// RAII guard: force a known process-wide kernel selection state and restore
// Auto (environment-driven) on the way out so tests cannot leak selection.
struct KernelOverride {
    explicit KernelOverride(DwtKernel k) { set_default_dwt_kernel(k); }
    ~KernelOverride() { set_default_dwt_kernel(DwtKernel::Auto); }
};

// ------------------------------------------------------------------ selection

TEST(KernelSelect, ParseAcceptsTheThreeNamesOnly) {
    DwtKernel k = DwtKernel::Auto;
    EXPECT_TRUE(parse_dwt_kernel("convolve", k));
    EXPECT_EQ(k, DwtKernel::Convolve);
    EXPECT_TRUE(parse_dwt_kernel("lifting", k));
    EXPECT_EQ(k, DwtKernel::Lifting);
    EXPECT_TRUE(parse_dwt_kernel("auto", k));
    EXPECT_EQ(k, DwtKernel::Auto);

    k = DwtKernel::Lifting;
    EXPECT_FALSE(parse_dwt_kernel("Convolve", k));  // case-sensitive
    EXPECT_FALSE(parse_dwt_kernel("", k));
    EXPECT_FALSE(parse_dwt_kernel("fft", k));
    EXPECT_EQ(k, DwtKernel::Lifting);  // untouched on failure

    EXPECT_STREQ(wavehpc::core::to_string(DwtKernel::Convolve), "convolve");
    EXPECT_STREQ(wavehpc::core::to_string(DwtKernel::Lifting), "lifting");
    EXPECT_STREQ(wavehpc::core::to_string(DwtKernel::Auto), "auto");
}

TEST(KernelSelect, EnvironmentVariableDrivesAutoResolution) {
    set_default_dwt_kernel(DwtKernel::Auto);  // defer to the environment
    const FilterPair fp = FilterPair::daubechies(4);

    ASSERT_EQ(::setenv("WAVEHPC_DWT_KERNEL", "lifting", 1), 0);
    EXPECT_EQ(wavehpc::core::default_dwt_kernel(), DwtKernel::Lifting);
    EXPECT_EQ(wavehpc::core::resolve_dwt_kernel(DwtKernel::Auto, fp),
              DwtKernel::Lifting);

    ASSERT_EQ(::setenv("WAVEHPC_DWT_KERNEL", "bogus", 1), 0);
    EXPECT_THROW((void)wavehpc::core::default_dwt_kernel(), std::invalid_argument);

    ASSERT_EQ(::unsetenv("WAVEHPC_DWT_KERNEL"), 0);
    EXPECT_EQ(wavehpc::core::default_dwt_kernel(), DwtKernel::Convolve);
}

TEST(KernelSelect, ProgrammaticOverrideBeatsEnvironment) {
    ASSERT_EQ(::setenv("WAVEHPC_DWT_KERNEL", "convolve", 1), 0);
    {
        KernelOverride lift(DwtKernel::Lifting);
        EXPECT_EQ(wavehpc::core::default_dwt_kernel(), DwtKernel::Lifting);
    }
    EXPECT_EQ(wavehpc::core::default_dwt_kernel(), DwtKernel::Convolve);
    ASSERT_EQ(::unsetenv("WAVEHPC_DWT_KERNEL"), 0);
}

TEST(KernelSelect, ExplicitKernelIgnoresTheDefault) {
    KernelOverride lift(DwtKernel::Lifting);
    const FilterPair fp = FilterPair::daubechies(8);
    EXPECT_EQ(wavehpc::core::resolve_dwt_kernel(DwtKernel::Convolve, fp),
              DwtKernel::Convolve);
    EXPECT_EQ(wavehpc::core::resolve_dwt_kernel(DwtKernel::Lifting, fp),
              DwtKernel::Lifting);
}

// ----------------------------------------------------------------- the plans

TEST(LiftingPlan, EveryRegisteredDaubechiesBankFactorizes) {
    for (const int taps : kTaps) {
        const auto plan = build_lifting_plan(FilterPair::daubechies(taps));
        EXPECT_TRUE(plan.valid) << "taps=" << taps;
        EXPECT_EQ(plan.stages(), static_cast<std::size_t>(taps / 2))
            << "taps=" << taps;
        EXPECT_NE(plan.scale_lo, 0.0F);
        EXPECT_NE(plan.scale_hi, 0.0F);
    }
}

TEST(LiftingPlan, HaarIsTheSingleExactButterfly) {
    const auto plan = build_lifting_plan(FilterPair::daubechies(2));
    ASSERT_TRUE(plan.valid);
    ASSERT_EQ(plan.stages(), 1U);
    EXPECT_NEAR(plan.shear[0], 1.0F, 1e-6F);
    EXPECT_NEAR(std::abs(plan.scale_lo), std::sqrt(0.5F), 1e-6F);
}

TEST(LiftingPlan, D4FirstStageIsTheKnownSixtyDegreeRotation) {
    // The Daubechies-4 lattice angle is exactly 60 degrees (tan = sqrt 3),
    // a closed-form anchor for the numerical peeling.
    const auto plan = build_lifting_plan(FilterPair::daubechies(4));
    ASSERT_TRUE(plan.valid);
    ASSERT_EQ(plan.stages(), 2U);
    EXPECT_NEAR(plan.shear[0], std::sqrt(3.0F), 1e-5F);
}

TEST(LiftingPlan, UnfactorizableFilterIsRejectedNotMisused) {
    // A filter that is not paraunitary has no lattice factorization; the
    // plan must come back invalid and resolve_ must degrade to Convolve.
    const FilterPair box({0.5F, 0.5F, 0.5F, 0.5F}, "box4");
    const auto plan = build_lifting_plan(box);
    EXPECT_FALSE(plan.valid);
    EXPECT_EQ(wavehpc::core::resolve_dwt_kernel(DwtKernel::Lifting, box),
              DwtKernel::Convolve);
}

// -------------------------------------------------- convolve/lifting parity

TEST(LiftingKernel, HaarMatchesConvolveBitExactly) {
    const FilterPair fp = FilterPair::daubechies(2);
    const ImageF img = scene(64, 96, 42);
    for (const auto mode : kModes) {
        ImageF cl(64, 48), ch(64, 48), ll(64, 48), lh(64, 48);
        wavehpc::core::analyze_rows_range(img, fp, cl, ch, mode,
                                          DwtKernel::Convolve, 0, img.rows());
        wavehpc::core::analyze_rows_range(img, fp, ll, lh, mode,
                                          DwtKernel::Lifting, 0, img.rows());
        for (std::size_t r = 0; r < cl.rows(); ++r) {
            for (std::size_t c = 0; c < cl.cols(); ++c) {
                ASSERT_EQ(cl(r, c), ll(r, c)) << r << "," << c;
                ASSERT_EQ(ch(r, c), lh(r, c)) << r << "," << c;
            }
        }
    }
}

TEST(LiftingKernel, HaarWholeLevelBitExact) {
    const FilterPair fp = FilterPair::daubechies(2);
    const ImageF img = scene(64, 64, 7);
    for (const auto mode : kModes) {
        ImageF cll, clh, chl, chh, lll, llh, lhl, lhh;
        wavehpc::core::analyze_level(img, fp, cll, clh, chl, chh, mode,
                                     DwtKernel::Convolve);
        wavehpc::core::analyze_level(img, fp, lll, llh, lhl, lhh, mode,
                                     DwtKernel::Lifting);
        EXPECT_EQ(max_abs_diff(cll, lll), 0.0) << "mode " << int(mode);
        EXPECT_EQ(max_abs_diff(clh, llh), 0.0);
        EXPECT_EQ(max_abs_diff(chl, lhl), 0.0);
        EXPECT_EQ(max_abs_diff(chh, lhh), 0.0);
    }
}

TEST(LiftingKernel, WideFiltersMatchConvolveWithinTolerance) {
    // Different factorization, different rounding: agreement is within a
    // documented tolerance on 0..255-scale scenes (DESIGN.md), not bit-exact.
    constexpr double kTol = 1e-3;
    const ImageF img = scene(64, 96, 1996);
    for (const int taps : {4, 6, 8}) {
        const FilterPair fp = FilterPair::daubechies(taps);
        for (const auto mode : kModes) {
            ImageF cll, clh, chl, chh, lll, llh, lhl, lhh;
            wavehpc::core::analyze_level(img, fp, cll, clh, chl, chh, mode,
                                         DwtKernel::Convolve);
            wavehpc::core::analyze_level(img, fp, lll, llh, lhl, lhh, mode,
                                         DwtKernel::Lifting);
            EXPECT_LT(max_abs_diff(cll, lll), kTol)
                << "taps=" << taps << " mode=" << int(mode);
            EXPECT_LT(max_abs_diff(clh, llh), kTol);
            EXPECT_LT(max_abs_diff(chl, lhl), kTol);
            EXPECT_LT(max_abs_diff(chh, lhh), kTol);
        }
    }
}

TEST(LiftingKernel, OneDimensionalAgreesWithDecimate1d) {
    const FilterPair fp = FilterPair::daubechies(8);
    const ImageF img = scene(1, 128, 3);
    const auto x = img.flat();
    std::vector<float> rlo(64), rhi(64), lo(64), hi(64);
    for (const auto mode : kModes) {
        wavehpc::core::convolve_decimate_1d(x, fp.low(), rlo, mode);
        wavehpc::core::convolve_decimate_1d(x, fp.high(), rhi, mode);
        wavehpc::core::analyze_1d(x, fp, lo, hi, mode, DwtKernel::Lifting);
        for (std::size_t k = 0; k < 64; ++k) {
            EXPECT_NEAR(lo[k], rlo[k], 1e-3F) << "mode " << int(mode);
            EXPECT_NEAR(hi[k], rhi[k], 1e-3F) << "mode " << int(mode);
        }
    }
}

TEST(LiftingKernel, ThreadedDecomposeBitIdenticalToSerialLifting) {
    // The thread split must not change lifting results: every output row is
    // a fixed function of its source rows regardless of chunk boundaries.
    const ImageF img = scene(96, 64, 11);
    const FilterPair fp = FilterPair::daubechies(8);
    wavehpc::runtime::ThreadPool pool(3);
    for (const auto mode : kModes) {
        const auto serial =
            wavehpc::core::decompose(img, fp, 2, mode, DwtKernel::Lifting);
        const auto parallel = wavehpc::wavelet::decompose_parallel(
            img, fp, 2, mode, pool, DwtKernel::Lifting);
        ASSERT_EQ(serial.levels.size(), parallel.levels.size());
        EXPECT_EQ(max_abs_diff(serial.approx, parallel.approx), 0.0);
        for (std::size_t l = 0; l < serial.levels.size(); ++l) {
            EXPECT_EQ(max_abs_diff(serial.levels[l].lh, parallel.levels[l].lh), 0.0);
            EXPECT_EQ(max_abs_diff(serial.levels[l].hl, parallel.levels[l].hl), 0.0);
            EXPECT_EQ(max_abs_diff(serial.levels[l].hh, parallel.levels[l].hh), 0.0);
        }
    }
}

TEST(LiftingKernel, EnvKnobReachesDecompose) {
    // End-to-end: selecting lifting through the process default changes the
    // coefficients decompose() produces (proof the knob is actually wired).
    const ImageF img = scene(32, 32, 5);
    const FilterPair fp = FilterPair::daubechies(8);
    const auto convolve = wavehpc::core::decompose(img, fp, 1);
    KernelOverride lift(DwtKernel::Lifting);
    const auto lifting = wavehpc::core::decompose(img, fp, 1);
    const double dev = max_abs_diff(convolve.approx, lifting.approx);
    EXPECT_GT(dev, 0.0);    // a different kernel ran...
    EXPECT_LT(dev, 1e-3);   // ...computing the same transform
}

// ------------------------------------------------- synthesis boundary contract
//
// Synthesis must be the exact adjoint of analysis *under the same
// BoundaryMode*. The brute-force adjoint below scatters every analysis tap
// through extend_index; before the fix, synthesize_rows wrapped
// periodically for every mode and the Symmetric/ZeroPad cases failed.

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
            ImageF got;
            wavehpc::core::synthesize_rows(lo, hi, fp.low(), fp.high(), got, mode);
            EXPECT_LT(max_abs_diff(want, got), 1e-4)
                << "taps=" << taps << " mode=" << int(mode);
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
        ImageF got;
        wavehpc::core::synthesize_rows(lo, hi, fp.low(), fp.high(), got, mode);
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
    ImageF out;
    wavehpc::core::synthesize_rows(lo, hi, fp.low(), fp.high(), out,
                                   BoundaryMode::ZeroPad);
    EXPECT_EQ(out(0, 0), 0.0F);
    EXPECT_EQ(out(0, 1), 0.0F);
    EXPECT_EQ(out(0, 14), fp.low()[0]);
    EXPECT_EQ(out(0, 15), fp.low()[1]);

    // Same coefficient under Periodic *does* wrap — the historical path.
    ImageF wrapped;
    wavehpc::core::synthesize_rows(lo, hi, fp.low(), fp.high(), wrapped,
                                   BoundaryMode::Periodic);
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
    ImageF out;
    wavehpc::core::synthesize_rows(lo, hi, fp.low(), fp.high(), out,
                                   BoundaryMode::Symmetric);
    EXPECT_EQ(out(0, 0), 0.0F);  // nothing wraps to the far edge
    EXPECT_EQ(out(0, 1), 0.0F);
    // Window samples 16, 17 reflect to 15, 14: tap 2 lands on 15, tap 3 on 14.
    EXPECT_EQ(out(0, 15), fp.low()[1] + fp.low()[2]);
    EXPECT_EQ(out(0, 14), fp.low()[0] + fp.low()[3]);
}

TEST(SynthesisBoundary, ScatterFormAgreesWithGatherFormEveryMode) {
    // upsample_accumulate_* (scatter, serial reconstruct) and
    // synthesize_* (gather, parallel reconstruct) must stay one operator.
    const FilterPair fp = FilterPair::daubechies(8);
    const ImageF lo = scene(6, 12, 51);
    const ImageF hi = scene(6, 12, 52);
    for (const auto mode : kModes) {
        ImageF gather;
        wavehpc::core::synthesize_rows(lo, hi, fp.low(), fp.high(), gather, mode);
        ImageF scatter(lo.rows(), 2 * lo.cols());
        wavehpc::core::upsample_accumulate_rows(lo, fp.low(), scatter, mode);
        wavehpc::core::upsample_accumulate_rows(hi, fp.high(), scatter, mode);
        EXPECT_LT(max_abs_diff(gather, scatter), 1e-4) << "mode " << int(mode);
    }
}

TEST(SynthesisBoundary, RoundTripMatrixInteriorExactEdgesBounded) {
    // decompose + reconstruct under one shared mode, every mode x filter x
    // kernel. Periodic is perfect reconstruction everywhere. Symmetric /
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
            for (const auto kernel : {DwtKernel::Convolve, DwtKernel::Lifting}) {
                const auto pyr = wavehpc::core::decompose(img, fp, 2, mode, kernel);
                const auto back = wavehpc::core::reconstruct(pyr, fp, mode);
                ASSERT_EQ(back.rows(), img.rows());
                ASSERT_EQ(back.cols(), img.cols());
                const double tol = 3e-3;  // 0..255 scale, two levels
                if (mode == BoundaryMode::Periodic) {
                    EXPECT_LT(max_abs_diff(img, back), tol)
                        << "taps=" << taps << " kernel=" << int(kernel);
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
                EXPECT_LT(interior, tol)
                    << "taps=" << taps << " mode=" << int(mode)
                    << " kernel=" << int(kernel);
                // Edge distortion is the mode's documented attenuation/fold,
                // bounded by the signal scale — not periodic contamination.
                EXPECT_LT(edge, 2000.0) << "taps=" << taps << " mode=" << int(mode);
            }
        }
    }
}

TEST(SynthesisBoundary, GatherReconstructMatchesScatterEveryMode) {
    const ImageF img = scene(32, 32, 99);
    const FilterPair fp = FilterPair::daubechies(4);
    for (const auto mode : kModes) {
        const auto pyr = wavehpc::core::decompose(img, fp, 2, mode);
        const auto scatter = wavehpc::core::reconstruct(pyr, fp, mode);
        const auto gather = wavehpc::core::reconstruct_gather(pyr, fp, mode);
        EXPECT_LT(max_abs_diff(scatter, gather), 1e-3) << "mode " << int(mode);
    }
}

TEST(SynthesisBoundary, ThreadedReconstructHonorsMode) {
    const ImageF img = scene(64, 64, 13);
    const FilterPair fp = FilterPair::daubechies(8);
    wavehpc::runtime::ThreadPool pool(3);
    for (const auto mode : kModes) {
        const auto pyr = wavehpc::core::decompose(img, fp, 2, mode);
        const auto serial = wavehpc::core::reconstruct_gather(pyr, fp, mode);
        const auto threaded = wavehpc::wavelet::reconstruct_parallel(pyr, fp, pool, mode);
        EXPECT_EQ(max_abs_diff(serial, threaded), 0.0) << "mode " << int(mode);
    }
}

}  // namespace
