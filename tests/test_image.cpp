#include "core/image.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <numeric>

namespace {

using wavehpc::core::ImageF;

TEST(Image, DefaultIsEmpty) {
    ImageF img;
    EXPECT_EQ(img.rows(), 0U);
    EXPECT_EQ(img.cols(), 0U);
    EXPECT_TRUE(img.empty());
}

TEST(Image, FillConstruction) {
    ImageF img(3, 5, 2.5F);
    EXPECT_EQ(img.rows(), 3U);
    EXPECT_EQ(img.cols(), 5U);
    EXPECT_EQ(img.size(), 15U);
    for (float v : img.flat()) EXPECT_EQ(v, 2.5F);
}

TEST(Image, VectorConstructionChecksSize) {
    std::vector<float> data(6, 1.0F);
    EXPECT_NO_THROW(ImageF(2, 3, data));
    EXPECT_THROW(ImageF(2, 4, data), std::invalid_argument);
}

TEST(Image, RowMajorIndexing) {
    ImageF img(2, 3);
    float v = 0.0F;
    for (std::size_t r = 0; r < 2; ++r) {
        for (std::size_t c = 0; c < 3; ++c) img(r, c) = v++;
    }
    auto flat = img.flat();
    for (std::size_t i = 0; i < flat.size(); ++i) {
        EXPECT_EQ(flat[i], static_cast<float>(i));
    }
}

TEST(Image, AtThrowsOutOfRange) {
    ImageF img(2, 2);
    EXPECT_THROW((void)img.at(2, 0), std::out_of_range);
    EXPECT_THROW((void)img.at(0, 2), std::out_of_range);
    EXPECT_NO_THROW((void)img.at(1, 1));
}

TEST(Image, RowSpanViewsAreWritable) {
    ImageF img(2, 4);
    auto row1 = img.row(1);
    std::iota(row1.begin(), row1.end(), 10.0F);
    EXPECT_EQ(img(1, 0), 10.0F);
    EXPECT_EQ(img(1, 3), 13.0F);
    EXPECT_EQ(img(0, 0), 0.0F);
}

TEST(Image, SubExtractsRectangle) {
    ImageF img(4, 4);
    for (std::size_t r = 0; r < 4; ++r) {
        for (std::size_t c = 0; c < 4; ++c) img(r, c) = static_cast<float>(10 * r + c);
    }
    ImageF s = img.sub(1, 2, 2, 2);
    EXPECT_EQ(s.rows(), 2U);
    EXPECT_EQ(s.cols(), 2U);
    EXPECT_EQ(s(0, 0), 12.0F);
    EXPECT_EQ(s(1, 1), 23.0F);
}

TEST(Image, SubOutOfBoundsThrows) {
    ImageF img(4, 4);
    EXPECT_THROW((void)img.sub(3, 0, 2, 1), std::out_of_range);
    EXPECT_THROW((void)img.sub(0, 3, 1, 2), std::out_of_range);
}

TEST(Image, PasteRoundTripsWithSub) {
    ImageF img(4, 4, 0.0F);
    ImageF patch(2, 2);
    patch(0, 0) = 1.0F;
    patch(0, 1) = 2.0F;
    patch(1, 0) = 3.0F;
    patch(1, 1) = 4.0F;
    img.paste(patch, 1, 1);
    EXPECT_EQ(img.sub(1, 1, 2, 2), patch);
    EXPECT_EQ(img(0, 0), 0.0F);
    EXPECT_THROW(img.paste(patch, 3, 3), std::out_of_range);
}

TEST(Image, EqualityComparesShapeAndPixels) {
    ImageF a(2, 2, 1.0F);
    ImageF b(2, 2, 1.0F);
    EXPECT_EQ(a, b);
    b(1, 1) = 2.0F;
    EXPECT_FALSE(a == b);
    EXPECT_FALSE(a == ImageF(4, 1, 1.0F));

    // Bits, not values: +0 and -0 compare equal as floats but differ here,
    // and an image holding a NaN equals its copy.
    ImageF zeros(2, 2, 0.0F);
    ImageF signed_zero = zeros;
    signed_zero(0, 1) = -0.0F;
    EXPECT_FALSE(zeros == signed_zero);
    ImageF with_nan(2, 2, 1.0F);
    with_nan(1, 0) = std::numeric_limits<float>::quiet_NaN();
    const ImageF copy = with_nan;
    EXPECT_TRUE(with_nan == copy);
}

}  // namespace
