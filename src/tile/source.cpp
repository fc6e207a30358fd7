#include "tile/source.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <stdexcept>

#include "core/splitmix.hpp"

namespace wavehpc::tile {

namespace {

[[nodiscard]] float hash01(std::uint64_t seed, std::uint64_t gx,
                           std::uint64_t gy) noexcept {
    const std::uint64_t h = core::mix64(seed ^ (gx * 0x9e3779b97f4a7c15ULL) ^
                                        (gy * 0xc2b2ae3d27d4eb4fULL));
    return static_cast<float>(h >> 40) / static_cast<float>(1ULL << 24);
}

[[nodiscard]] float smoothstep(float t) noexcept { return t * t * (3.0F - 2.0F * t); }

// smoothstep(i / Cell) for i in [0, Cell): the interpolation weight of the
// i-th pixel of a lattice cell, the same in every cell, row and scene, so
// each octave computes it once instead of once per pixel.
template <std::size_t Cell>
[[nodiscard]] const std::array<float, Cell>& cell_weights() {
    static const std::array<float, Cell> weights = [] {
        std::array<float, Cell> w{};
        for (std::size_t i = 0; i < Cell; ++i) {
            w[i] = smoothstep(static_cast<float>(i) / static_cast<float>(Cell));
        }
        return w;
    }();
    return weights;
}

// Add one octave of bilinear value noise to a row: the two lattice rows
// bracketing `r` are hashed once per lattice COLUMN and interpolated
// across the cell, so cost is ~2 hashes per cell instead of 4 per pixel —
// this is what keeps a 16k x 16k synthetic scene cheap. `w` holds the cell's
// weights (its size is the cell); the loop over a cell is a vector loop.
void add_octave_row(std::uint64_t seed, std::size_t r, std::size_t cols,
                    std::span<const float> w, float amp, float* dst) {
    const std::size_t cell = w.size();
    const std::uint64_t gy = r / cell;
    const float ty = w[r % cell];
    std::size_t c = 0;
    std::uint64_t gx = 0;
    float left = (1.0F - ty) * hash01(seed, gx, gy) + ty * hash01(seed, gx, gy + 1);
    while (c < cols) {
        const float right = (1.0F - ty) * hash01(seed, gx + 1, gy) +
                            ty * hash01(seed, gx + 1, gy + 1);
        const std::size_t span = std::min(cell, cols - c);
        for (std::size_t i = 0; i < span; ++i) {
            dst[c + i] += amp * ((1.0F - w[i]) * left + w[i] * right);
        }
        c += span;
        ++gx;
        left = right;
    }
}

}  // namespace

SyntheticTileSource::SyntheticTileSource(std::size_t rows, std::size_t cols,
                                         std::uint64_t seed)
    : rows_(rows), cols_(cols), seed_(seed) {
    if (rows == 0 || cols == 0) {
        throw std::invalid_argument("SyntheticTileSource: dimensions must be non-zero");
    }
}

void SyntheticTileSource::read_rows(std::size_t y0, std::size_t n,
                                    std::span<float> dst) {
    if (y0 > rows_ || n > rows_ - y0) {
        throw std::out_of_range("SyntheticTileSource: window outside image");
    }
    if (dst.size() != n * cols_) {
        throw std::invalid_argument("SyntheticTileSource: bad destination size");
    }
    // Two octaves: a coarse relief on a 64-pixel lattice at amplitude 160
    // and a finer grain on a 32-pixel lattice at 80, a radiometrically
    // plausible [0, 255]-ish range.
    const auto& coarse = cell_weights<64>();
    const auto& fine = cell_weights<32>();
    for (std::size_t j = 0; j < n; ++j) {
        const std::size_t r = y0 + j;
        float* row = dst.data() + j * cols_;
        std::fill(row, row + cols_, 0.0F);
        add_octave_row(seed_, r, cols_, coarse, 160.0F, row);
        add_octave_row(seed_ + 0x51ed270b9ULL, r, cols_, fine, 80.0F, row);
    }
}

core::ImageF SyntheticTileSource::materialize() {
    core::ImageF img(rows_, cols_);
    read_rows(0, rows_, img.flat());
    return img;
}

void InMemoryTileSource::read_rows(std::size_t y0, std::size_t n,
                                   std::span<float> dst) {
    if (y0 > img_.rows() || n > img_.rows() - y0) {
        throw std::out_of_range("InMemoryTileSource: window outside image");
    }
    if (dst.size() != n * img_.cols()) {
        throw std::invalid_argument("InMemoryTileSource: bad destination size");
    }
    std::memcpy(dst.data(), img_.row(y0).data(), n * img_.cols() * sizeof(float));
}

}  // namespace wavehpc::tile
