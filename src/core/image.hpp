#pragma once
// 2-D row-major image container used throughout the suite.
//
// Pixels are stored contiguously; row() hands out std::span views so the
// filtering kernels never touch raw pointers. The paper processes 8-bit
// Landsat bands as single-precision floats, hence the ImageF alias.

#include <cstddef>
#include <cstring>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

namespace wavehpc::core {

template <typename T>
class Image {
public:
    Image() = default;

    Image(std::size_t rows, std::size_t cols, T fill = T{})
        : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

    Image(std::size_t rows, std::size_t cols, std::vector<T> data)
        : rows_(rows), cols_(cols), data_(std::move(data)) {
        if (data_.size() != rows_ * cols_) {
            throw std::invalid_argument("Image: data size does not match rows*cols");
        }
    }

    [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
    [[nodiscard]] std::size_t cols() const noexcept { return cols_; }
    [[nodiscard]] std::size_t size() const noexcept { return data_.size(); }
    [[nodiscard]] bool empty() const noexcept { return data_.empty(); }

    [[nodiscard]] T& operator()(std::size_t r, std::size_t c) noexcept {
        return data_[r * cols_ + c];
    }
    [[nodiscard]] const T& operator()(std::size_t r, std::size_t c) const noexcept {
        return data_[r * cols_ + c];
    }

    [[nodiscard]] T& at(std::size_t r, std::size_t c) {
        bounds_check(r, c);
        return data_[r * cols_ + c];
    }
    [[nodiscard]] const T& at(std::size_t r, std::size_t c) const {
        bounds_check(r, c);
        return data_[r * cols_ + c];
    }

    [[nodiscard]] std::span<T> row(std::size_t r) noexcept {
        return {data_.data() + r * cols_, cols_};
    }
    [[nodiscard]] std::span<const T> row(std::size_t r) const noexcept {
        return {data_.data() + r * cols_, cols_};
    }

    [[nodiscard]] std::span<T> flat() noexcept { return {data_.data(), data_.size()}; }
    [[nodiscard]] std::span<const T> flat() const noexcept {
        return {data_.data(), data_.size()};
    }

    /// Copy out the rectangle [r0, r0+h) x [c0, c0+w).
    [[nodiscard]] Image sub(std::size_t r0, std::size_t c0, std::size_t h,
                            std::size_t w) const {
        if (r0 + h > rows_ || c0 + w > cols_) {
            throw std::out_of_range("Image::sub: rectangle exceeds image bounds");
        }
        Image out(h, w);
        for (std::size_t r = 0; r < h; ++r) {
            auto src = row(r0 + r).subspan(c0, w);
            auto dst = out.row(r);
            std::copy(src.begin(), src.end(), dst.begin());
        }
        return out;
    }

    /// Paste `patch` with its top-left corner at (r0, c0).
    void paste(const Image& patch, std::size_t r0, std::size_t c0) {
        if (r0 + patch.rows() > rows_ || c0 + patch.cols() > cols_) {
            throw std::out_of_range("Image::paste: patch exceeds image bounds");
        }
        for (std::size_t r = 0; r < patch.rows(); ++r) {
            auto src = patch.row(r);
            auto dst = row(r0 + r).subspan(c0, patch.cols());
            std::copy(src.begin(), src.end(), dst.begin());
        }
    }

    /// Equal when the shapes match and the pixels are the same bytes, so
    /// +0 and -0 differ and an image holding a NaN equals its copy: the
    /// bit identity the backends and tests claim, not value equality.
    friend bool operator==(const Image& a, const Image& b) {
        // Equal shapes mean equal sizes; an empty image may hold no buffer.
        const std::size_t bytes = a.data_.size() * sizeof(T);
        return a.rows_ == b.rows_ && a.cols_ == b.cols_ &&
               (bytes == 0 || std::memcmp(a.data_.data(), b.data_.data(), bytes) == 0);
    }

    /// Move the pixel storage out (capacity preserved), leaving an empty
    /// 0x0 image. This is the buffer-recycling hand-off: a pooling
    /// FloatBufferSource classifies the returned vector by capacity, so
    /// pyramids built from pooled slabs give their slabs back intact.
    [[nodiscard]] std::vector<T> release_data() noexcept {
        rows_ = 0;
        cols_ = 0;
        return std::move(data_);
    }

private:
    void bounds_check(std::size_t r, std::size_t c) const {
        if (r >= rows_ || c >= cols_) {
            throw std::out_of_range("Image: index out of range");
        }
    }

    std::size_t rows_ = 0;
    std::size_t cols_ = 0;
    std::vector<T> data_;
};

using ImageF = Image<float>;
using ImageD = Image<double>;

}  // namespace wavehpc::core
