#include "core/dwt.hpp"

#include <gtest/gtest.h>

#include "core/metrics.hpp"
#include "core/synthetic.hpp"

namespace {

using wavehpc::core::BoundaryMode;
using wavehpc::core::FilterPair;
using wavehpc::core::ImageF;
using wavehpc::core::Pyramid;

ImageF test_scene(std::size_t rows, std::size_t cols) {
    return wavehpc::core::landsat_tm_like(rows, cols, 42);
}

// One level is decompose(img, fp, 1): its approximation is the LL band.
TEST(DecomposeLevel, OutputShapesAreHalved) {
    const ImageF img = test_scene(32, 64);
    const Pyramid pyr = wavehpc::core::decompose(img, FilterPair::daubechies(4), 1);
    EXPECT_EQ(pyr.approx.rows(), 16U);
    EXPECT_EQ(pyr.approx.cols(), 32U);
    EXPECT_EQ(pyr.levels[0].lh.rows(), 16U);
    EXPECT_EQ(pyr.levels[0].hl.cols(), 32U);
    EXPECT_EQ(pyr.levels[0].hh.rows(), 16U);
}

TEST(DecomposeLevel, HaarOnConstantImageConcentratesInLL) {
    const ImageF img(8, 8, 3.0F);
    const Pyramid pyr = wavehpc::core::decompose(img, FilterPair::daubechies(2), 1);
    // Each Haar LL coefficient of a constant image is 2 * value.
    for (float v : pyr.approx.flat()) EXPECT_NEAR(v, 6.0F, 1e-5);
    for (float v : pyr.levels[0].lh.flat()) EXPECT_NEAR(v, 0.0F, 1e-5);
    for (float v : pyr.levels[0].hl.flat()) EXPECT_NEAR(v, 0.0F, 1e-5);
    for (float v : pyr.levels[0].hh.flat()) EXPECT_NEAR(v, 0.0F, 1e-5);
}

TEST(Decompose, ValidatesRequest) {
    const ImageF img = test_scene(32, 32);
    EXPECT_THROW((void)wavehpc::core::decompose(img, FilterPair::daubechies(2), 0),
                 std::invalid_argument);
    EXPECT_THROW((void)wavehpc::core::decompose(img, FilterPair::daubechies(2), 6),
                 std::invalid_argument);  // 32 not divisible by 64
    const ImageF odd = test_scene(30, 32);
    EXPECT_THROW((void)wavehpc::core::decompose(odd, FilterPair::daubechies(2), 2),
                 std::invalid_argument);
}

TEST(Decompose, PyramidBookkeeping) {
    const ImageF img = test_scene(64, 32);
    const Pyramid pyr = wavehpc::core::decompose(img, FilterPair::daubechies(4), 3);
    ASSERT_EQ(pyr.depth(), 3U);
    EXPECT_EQ(pyr.levels[0].lh.rows(), 32U);
    EXPECT_EQ(pyr.levels[1].lh.rows(), 16U);
    EXPECT_EQ(pyr.levels[2].lh.rows(), 8U);
    EXPECT_EQ(pyr.approx.rows(), 8U);
    EXPECT_EQ(pyr.approx.cols(), 4U);
}

struct PrCase {
    int taps;
    int levels;
};

void PrintTo(const PrCase& c, std::ostream* os) { *os << 'F' << c.taps << 'L' << c.levels; }

class PerfectReconstruction : public ::testing::TestWithParam<PrCase> {};

TEST_P(PerfectReconstruction, DecomposeThenReconstructIsIdentity) {
    const auto [taps, levels] = GetParam();
    const ImageF img = test_scene(64, 64);
    const FilterPair fp = FilterPair::daubechies(taps);
    const Pyramid pyr = wavehpc::core::decompose(img, fp, levels);
    const ImageF back = wavehpc::core::reconstruct(pyr, fp);
    ASSERT_EQ(back.rows(), img.rows());
    ASSERT_EQ(back.cols(), img.cols());
    // Single-precision pipeline on [0,255] data: reconstruction error stays
    // at rounding level.
    EXPECT_LT(wavehpc::core::max_abs_diff(img, back), 2e-3);
}

TEST_P(PerfectReconstruction, OrthonormalTransformConservesEnergy) {
    const auto [taps, levels] = GetParam();
    const ImageF img = test_scene(64, 64);
    const FilterPair fp = FilterPair::daubechies(taps);
    const Pyramid pyr = wavehpc::core::decompose(img, fp, levels);

    double coeff_energy = wavehpc::core::energy(pyr.approx);
    for (const auto& d : pyr.levels) {
        coeff_energy += wavehpc::core::energy(d.lh) + wavehpc::core::energy(d.hl) +
                        wavehpc::core::energy(d.hh);
    }
    const double img_energy = wavehpc::core::energy(img);
    EXPECT_NEAR(coeff_energy / img_energy, 1.0, 1e-4);
}

INSTANTIATE_TEST_SUITE_P(PaperConfigs, PerfectReconstruction,
                         ::testing::Values(PrCase{8, 1}, PrCase{4, 2}, PrCase{2, 4},
                                           PrCase{6, 3}, PrCase{8, 4}, PrCase{2, 1}));

TEST(Reconstruct, EmptyPyramidThrows) {
    Pyramid pyr;
    EXPECT_THROW((void)wavehpc::core::reconstruct(pyr, FilterPair::daubechies(2)),
                 std::invalid_argument);
}

TEST(Reconstruct, NonSquareImagesRoundTrip) {
    const ImageF img = test_scene(32, 128);
    const FilterPair fp = FilterPair::daubechies(8);
    const Pyramid pyr = wavehpc::core::decompose(img, fp, 2);
    const ImageF back = wavehpc::core::reconstruct(pyr, fp);
    EXPECT_LT(wavehpc::core::max_abs_diff(img, back), 2e-3);
}

TEST(Decompose, SymmetricModeStillHalvesAndRecursesButIsNotPr) {
    const ImageF img = test_scene(64, 64);
    const FilterPair fp = FilterPair::daubechies(8);
    const Pyramid pyr =
        wavehpc::core::decompose(img, fp, 2, BoundaryMode::Symmetric);
    EXPECT_EQ(pyr.approx.rows(), 16U);
    // Interior coefficients of symmetric and periodic analyses agree; only
    // a filter-width border differs.
    const Pyramid per = wavehpc::core::decompose(img, fp, 2, BoundaryMode::Periodic);
    const auto& a = pyr.levels[0].hh;
    const auto& b = per.levels[0].hh;
    double interior_diff = 0.0;
    for (std::size_t r = 0; r + 8 < a.rows(); ++r) {
        for (std::size_t c = 0; c + 8 < a.cols(); ++c) {
            interior_diff =
                std::max(interior_diff, std::abs(static_cast<double>(a(r, c)) - b(r, c)));
        }
    }
    EXPECT_LT(interior_diff, 1e-4);
}

TEST(Decompose, DetailBandsAreSmallForSmoothImages) {
    // A thermal-band scene is dominated by low frequencies: detail energy
    // should be a tiny fraction of the total.
    const ImageF img = wavehpc::core::landsat_tm_like(64, 64, 7,
                                                      wavehpc::core::TmBand::Thermal);
    const Pyramid pyr = wavehpc::core::decompose(img, FilterPair::daubechies(8), 1);
    const double detail = wavehpc::core::energy(pyr.levels[0].lh) +
                          wavehpc::core::energy(pyr.levels[0].hl) +
                          wavehpc::core::energy(pyr.levels[0].hh);
    EXPECT_LT(detail / wavehpc::core::energy(img), 0.01);
}

}  // namespace
