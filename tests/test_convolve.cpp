#include "convolve.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <numeric>
#include <string>
#include <utility>

#include "core/filters.hpp"
#include "core/kernels.hpp"
#include "param_print.hpp"

namespace {

using wavehpc::core::BoundaryMode;
using wavehpc::core::extend_index;
using wavehpc::core::FilterPair;
using wavehpc::core::ImageF;

// Deterministic pseudo-random pixels without global RNG state.
float pseudo(std::size_t i) {
    return static_cast<float>((i * 2654435761U) % 1000) / 500.0F - 1.0F;
}

ImageF random_image(std::size_t rows, std::size_t cols, std::size_t salt = 0) {
    ImageF img(rows, cols);
    auto flat = img.flat();
    for (std::size_t i = 0; i < flat.size(); ++i) flat[i] = pseudo(i + salt * 7919);
    return img;
}

TEST(ExtendIndex, InRangeIsIdentity) {
    for (auto mode : {BoundaryMode::Periodic, BoundaryMode::Symmetric,
                      BoundaryMode::ZeroPad}) {
        EXPECT_EQ(extend_index(3, 8, mode), 3U);
        EXPECT_EQ(extend_index(0, 8, mode), 0U);
        EXPECT_EQ(extend_index(7, 8, mode), 7U);
    }
}

TEST(ExtendIndex, PeriodicWraps) {
    EXPECT_EQ(extend_index(8, 8, BoundaryMode::Periodic), 0U);
    EXPECT_EQ(extend_index(9, 8, BoundaryMode::Periodic), 1U);
    EXPECT_EQ(extend_index(-1, 8, BoundaryMode::Periodic), 7U);
    EXPECT_EQ(extend_index(17, 8, BoundaryMode::Periodic), 1U);
}

TEST(ExtendIndex, SymmetricReflects) {
    // ... x1 x0 | x0 x1 ... x7 | x7 x6 ...
    EXPECT_EQ(extend_index(8, 8, BoundaryMode::Symmetric), 7U);
    EXPECT_EQ(extend_index(9, 8, BoundaryMode::Symmetric), 6U);
    EXPECT_EQ(extend_index(-1, 8, BoundaryMode::Symmetric), 0U);
    EXPECT_EQ(extend_index(-2, 8, BoundaryMode::Symmetric), 1U);
}

TEST(ExtendIndex, ZeroPadSignalsOutside) {
    EXPECT_EQ(extend_index(8, 8, BoundaryMode::ZeroPad), 8U);
    EXPECT_EQ(extend_index(-1, 8, BoundaryMode::ZeroPad), 8U);
}

TEST(ConvolveDecimate1d, HaarAveragesAdjacentPairs) {
    const FilterPair haar = FilterPair::daubechies(2);
    const std::vector<float> x{1.0F, 3.0F, 5.0F, 7.0F};
    std::vector<float> y(2);
    wavehpc::core::convolve_decimate_1d(x, haar.low(), y, BoundaryMode::Periodic);
    const float s = 0.70710678F;
    EXPECT_NEAR(y[0], (1.0F + 3.0F) * s, 1e-5);
    EXPECT_NEAR(y[1], (5.0F + 7.0F) * s, 1e-5);
}

TEST(ConvolveDecimate1d, HaarHighPassDetectsDifferences) {
    const FilterPair haar = FilterPair::daubechies(2);
    const std::vector<float> x{1.0F, 3.0F, 5.0F, 7.0F};
    std::vector<float> y(2);
    wavehpc::core::convolve_decimate_1d(x, haar.high(), y, BoundaryMode::Periodic);
    const float s = 0.70710678F;
    EXPECT_NEAR(y[0], (1.0F - 3.0F) * s, 1e-5);
    EXPECT_NEAR(y[1], (5.0F - 7.0F) * s, 1e-5);
}

TEST(ConvolveDecimate1d, PeriodicWrapUsesFrontSamples) {
    // Filter long enough that the last output window wraps around.
    const std::vector<float> f{1.0F, 0.0F, 0.0F, 1.0F};  // picks x[2k] + x[2k+3]
    const std::vector<float> x{10.0F, 20.0F, 30.0F, 40.0F};
    std::vector<float> y(2);
    wavehpc::core::convolve_decimate_1d(x, f, y, BoundaryMode::Periodic);
    EXPECT_FLOAT_EQ(y[0], 10.0F + 40.0F);
    EXPECT_FLOAT_EQ(y[1], 30.0F + 20.0F);  // x[5] wraps to x[1]
}

TEST(ConvolveDecimate1d, ZeroPadDropsOutsideSamples) {
    const std::vector<float> f{1.0F, 0.0F, 0.0F, 1.0F};
    const std::vector<float> x{10.0F, 20.0F, 30.0F, 40.0F};
    std::vector<float> y(2);
    wavehpc::core::convolve_decimate_1d(x, f, y, BoundaryMode::ZeroPad);
    EXPECT_FLOAT_EQ(y[1], 30.0F);  // x[5] outside -> 0
}

TEST(ConvolveDecimate1d, SymmetricReflectsOutsideSamples) {
    const std::vector<float> f{1.0F, 0.0F, 0.0F, 1.0F};
    const std::vector<float> x{10.0F, 20.0F, 30.0F, 40.0F};
    std::vector<float> y(2);
    wavehpc::core::convolve_decimate_1d(x, f, y, BoundaryMode::Symmetric);
    EXPECT_FLOAT_EQ(y[1], 30.0F + 30.0F);  // x[5] reflects to x[2]
}

TEST(ConvolveDecimate1d, RejectsOddLengthInput) {
    std::vector<float> x(5, 1.0F);
    std::vector<float> y(2);
    const FilterPair haar = FilterPair::daubechies(2);
    EXPECT_THROW(
        wavehpc::core::convolve_decimate_1d(x, haar.low(), y, BoundaryMode::Periodic),
        std::invalid_argument);
}

TEST(ConvolveDecimate1d, RejectsWrongOutputSize) {
    std::vector<float> x(4, 1.0F);
    std::vector<float> y(3);
    const FilterPair haar = FilterPair::daubechies(2);
    EXPECT_THROW(
        wavehpc::core::convolve_decimate_1d(x, haar.low(), y, BoundaryMode::Periodic),
        std::invalid_argument);
}

class RowsColsAgainst1d
    : public ::testing::TestWithParam<std::tuple<int, BoundaryMode>> {};

TEST_P(RowsColsAgainst1d, RowFilteringMatches1dPerRow) {
    const auto [taps, mode] = GetParam();
    const FilterPair fp = FilterPair::daubechies(taps);
    const ImageF img = random_image(6, 16);
    ImageF out;
    wavehpc::core::convolve_decimate_rows(img, fp.low(), out, mode);
    ASSERT_EQ(out.rows(), 6U);
    ASSERT_EQ(out.cols(), 8U);
    std::vector<float> expected(8);
    for (std::size_t r = 0; r < img.rows(); ++r) {
        wavehpc::core::convolve_decimate_1d(img.row(r), fp.low(), expected, mode);
        for (std::size_t k = 0; k < 8; ++k) EXPECT_FLOAT_EQ(out(r, k), expected[k]);
    }
}

TEST_P(RowsColsAgainst1d, ColumnFilteringMatches1dPerColumn) {
    const auto [taps, mode] = GetParam();
    const FilterPair fp = FilterPair::daubechies(taps);
    const ImageF img = random_image(16, 6);
    ImageF out;
    wavehpc::core::convolve_decimate_cols(img, fp.high(), out, mode);
    ASSERT_EQ(out.rows(), 8U);
    ASSERT_EQ(out.cols(), 6U);
    for (std::size_t c = 0; c < img.cols(); ++c) {
        std::vector<float> column(img.rows());
        for (std::size_t r = 0; r < img.rows(); ++r) column[r] = img(r, c);
        std::vector<float> expected(8);
        wavehpc::core::convolve_decimate_1d(column, fp.high(), expected, mode);
        for (std::size_t k = 0; k < 8; ++k) {
            EXPECT_NEAR(out(k, c), expected[k], 1e-5) << "col " << c << " k " << k;
        }
    }
}

TEST_P(RowsColsAgainst1d, FusedConvolvePassesMatchTheOracleBitForBit) {
    // The kernel layer's fused Convolve passes (both row bands per sweep,
    // all four subbands per column sweep) against the unfused reference,
    // including planes with fewer rows or columns than taps. The wide rows
    // (265 and 515 outputs) run many whole register blocks of the row pass,
    // a short block remainder and both edges at every tap count. The column
    // outputs start as quiet NaN, so an output the pass reads before it
    // writes, or never writes, fails; the widths (1 to 515 columns) give
    // whole column blocks and remainders.
    const auto [taps, mode] = GetParam();
    const FilterPair fp = FilterPair::daubechies(taps);
    const std::pair<std::size_t, std::size_t> shapes[] = {
        {2, 2},  {2, 6},  {6, 2},   {4, 6},   {6, 4},    {8, 16},
        {16, 8}, {30, 2}, {64, 96}, {2, 530}, {4, 1030}};
    for (const auto& [rows, cols] : shapes) {
        const std::string shape = std::to_string(rows) + "x" + std::to_string(cols);
        const ImageF img = random_image(rows, cols, rows * 131 + cols);
        ImageF lo(rows, cols / 2), hi(rows, cols / 2);
        wavehpc::core::analyze_rows_range(img, fp, lo, hi, mode,
                                          wavehpc::core::DwtKernel::Convolve, 0, rows);
        ImageF want;
        wavehpc::core::convolve_decimate_rows(img, fp.low(), want, mode);
        EXPECT_EQ(lo, want) << shape;
        wavehpc::core::convolve_decimate_rows(img, fp.high(), want, mode);
        EXPECT_EQ(hi, want) << shape;

        const float nan = std::numeric_limits<float>::quiet_NaN();
        ImageF ll(rows / 2, cols / 2, nan), lh(rows / 2, cols / 2, nan),
            hl(rows / 2, cols / 2, nan), hh(rows / 2, cols / 2, nan);
        wavehpc::core::analyze_cols_range(lo, hi, fp, ll, lh, hl, hh, mode,
                                          wavehpc::core::DwtKernel::Convolve, 0,
                                          rows / 2);
        wavehpc::core::convolve_decimate_cols(lo, fp.low(), want, mode);
        EXPECT_EQ(ll, want) << shape;
        wavehpc::core::convolve_decimate_cols(lo, fp.high(), want, mode);
        EXPECT_EQ(lh, want) << shape;
        wavehpc::core::convolve_decimate_cols(hi, fp.low(), want, mode);
        EXPECT_EQ(hl, want) << shape;
        wavehpc::core::convolve_decimate_cols(hi, fp.high(), want, mode);
        EXPECT_EQ(hh, want) << shape;
    }
}

TEST_P(RowsColsAgainst1d, ZeroOutputsArePositiveZeroLikeTheOracle) {
    // Both fused passes sum each output from +0.0F, as the oracle does, so
    // an output whose window holds only zeros of either sign is +0, never
    // -0. Image::operator== compares bytes: a body that seeds its sum with
    // its first product (a Haar butterfly does) gives -0 wherever every
    // product is -0, as at 2 taps and at the ZeroPad edges, and fails here
    // even though the values compare equal.
    const auto [taps, mode] = GetParam();
    const FilterPair fp = FilterPair::daubechies(taps);
    constexpr std::size_t rows = 16;
    constexpr std::size_t cols = 24;

    // The top half of the rows is -0, so every row window there is zero.
    ImageF img = random_image(rows, cols, 3);
    for (std::size_t r = 0; r < rows / 2; ++r) {
        for (std::size_t c = 0; c < cols; ++c) img(r, c) = -0.0F;
    }
    ImageF lo(rows, cols / 2), hi(rows, cols / 2);
    wavehpc::core::analyze_rows_range(img, fp, lo, hi, mode,
                                      wavehpc::core::DwtKernel::Convolve, 0, rows);
    ImageF want;
    wavehpc::core::convolve_decimate_rows(img, fp.low(), want, mode);
    EXPECT_EQ(lo, want);
    wavehpc::core::convolve_decimate_rows(img, fp.high(), want, mode);
    EXPECT_EQ(hi, want);
    for (std::size_t r = 0; r < rows / 2; ++r) {
        for (std::size_t k = 0; k < cols / 2; ++k) {
            EXPECT_FALSE(std::signbit(lo(r, k))) << r << "," << k;
            EXPECT_FALSE(std::signbit(hi(r, k))) << r << "," << k;
        }
    }

    // The left half of the columns of both row bands is -0, so every
    // column window there is zero.
    ImageF low_rows = random_image(rows, cols / 2, 5);
    ImageF high_rows = random_image(rows, cols / 2, 6);
    for (std::size_t r = 0; r < rows; ++r) {
        for (std::size_t c = 0; c < cols / 4; ++c) low_rows(r, c) = high_rows(r, c) = -0.0F;
    }
    const float nan = std::numeric_limits<float>::quiet_NaN();
    ImageF ll(rows / 2, cols / 2, nan), lh(rows / 2, cols / 2, nan),
        hl(rows / 2, cols / 2, nan), hh(rows / 2, cols / 2, nan);
    wavehpc::core::analyze_cols_range(low_rows, high_rows, fp, ll, lh, hl, hh, mode,
                                      wavehpc::core::DwtKernel::Convolve, 0, rows / 2);
    wavehpc::core::convolve_decimate_cols(low_rows, fp.low(), want, mode);
    EXPECT_EQ(ll, want);
    wavehpc::core::convolve_decimate_cols(low_rows, fp.high(), want, mode);
    EXPECT_EQ(lh, want);
    wavehpc::core::convolve_decimate_cols(high_rows, fp.low(), want, mode);
    EXPECT_EQ(hl, want);
    wavehpc::core::convolve_decimate_cols(high_rows, fp.high(), want, mode);
    EXPECT_EQ(hh, want);
    for (std::size_t k = 0; k < rows / 2; ++k) {
        for (std::size_t c = 0; c < cols / 4; ++c) {
            for (const ImageF* band : {&ll, &lh, &hl, &hh}) {
                EXPECT_FALSE(std::signbit((*band)(k, c))) << k << "," << c;
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    TapsAndModes, RowsColsAgainst1d,
    ::testing::Combine(::testing::Values(2, 4, 6, 8),
                       ::testing::Values(BoundaryMode::Periodic,
                                         BoundaryMode::Symmetric,
                                         BoundaryMode::ZeroPad)));

// The gather-form synthesis passes (core/kernels.hpp) with a zero
// companion band are the upsample-and-filter operators U: they must be the
// transposes of the decimating filters, <D x, y> == <x, U y>, which is the
// identity perfect reconstruction relies on.

TEST(UpsampleAccumulate, IsAdjointOfDecimationUnderPeriodic) {
    const FilterPair fp = FilterPair::daubechies(8);
    const ImageF x = random_image(4, 16, 1);
    const ImageF y = random_image(4, 8, 2);

    ImageF dx;
    wavehpc::core::convolve_decimate_rows(x, fp.low(), dx, BoundaryMode::Periodic);
    double lhs = 0.0;
    for (std::size_t i = 0; i < dx.size(); ++i) {
        lhs += static_cast<double>(dx.flat()[i]) * y.flat()[i];
    }

    ImageF uy(4, 16);
    wavehpc::core::synthesize_rows_range(y, ImageF(4, 8), fp, uy, BoundaryMode::Periodic,
                                         0, 4);
    double rhs = 0.0;
    for (std::size_t i = 0; i < uy.size(); ++i) {
        rhs += static_cast<double>(x.flat()[i]) * uy.flat()[i];
    }
    EXPECT_NEAR(lhs, rhs, 1e-4);
}

TEST(UpsampleAccumulate, ColumnVariantIsAdjointToo) {
    const FilterPair fp = FilterPair::daubechies(4);
    const ImageF x = random_image(16, 4, 3);
    const ImageF y = random_image(8, 4, 4);

    ImageF dx;
    wavehpc::core::convolve_decimate_cols(x, fp.high(), dx, BoundaryMode::Periodic);
    double lhs = 0.0;
    for (std::size_t i = 0; i < dx.size(); ++i) {
        lhs += static_cast<double>(dx.flat()[i]) * y.flat()[i];
    }

    ImageF uy(16, 4);
    wavehpc::core::synthesize_cols_range(ImageF(8, 4), y, fp, uy, BoundaryMode::Periodic,
                                         0, 16);
    double rhs = 0.0;
    for (std::size_t i = 0; i < uy.size(); ++i) {
        rhs += static_cast<double>(x.flat()[i]) * uy.flat()[i];
    }
    EXPECT_NEAR(lhs, rhs, 1e-4);
}

TEST(UpsampleAccumulate, RejectsWrongOutputShape) {
    const FilterPair fp = FilterPair::daubechies(2);
    const ImageF y = random_image(4, 8);
    ImageF bad(4, 15, 0.0F);
    EXPECT_THROW(wavehpc::core::synthesize_rows_range(y, y, fp, bad,
                                                      BoundaryMode::Periodic, 0, 4),
                 std::invalid_argument);
    ImageF bad2(7, 8, 0.0F);
    EXPECT_THROW(wavehpc::core::synthesize_cols_range(y, y, fp, bad2,
                                                      BoundaryMode::Periodic, 0, 7),
                 std::invalid_argument);
}

}  // namespace
