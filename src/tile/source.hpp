#pragma once
// Scene sources for the streaming tile driver.
//
// A TileSource hands out full-width rows of a W x H scene on demand; the
// driver asks for one row per call, so its resident footprint is one row
// of the source, never the scene. Three backends:
//
//   * SyntheticTileSource — deterministic two-octave value noise, computed
//     row by row with per-row lattice interpolation (a handful of hashes
//     per lattice cell, not per pixel, and one table of interpolation
//     weights per cell size), cheap enough to feed a 16k x 16k bench
//     scene. Any (rows, cols, seed) always generates the identical pixels
//     regardless of the window split, which is what the tiled-vs-monolithic
//     bit-identity tests rely on.
//   * PgmTileSource — windowed reads through one open core::PgmReader: the
//     header is parsed once, and a window that starts where the last one
//     ended continues from there, so a row-by-row stream reads the file
//     front to back once.
//   * InMemoryTileSource — adapter over an existing ImageF (tiled_decompose);
//     one memcpy per window, the image must outlive the source.

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <utility>

#include "core/image.hpp"
#include "core/pgm_io.hpp"

namespace wavehpc::tile {

class TileSource {
public:
    virtual ~TileSource() = default;

    [[nodiscard]] virtual std::size_t rows() const = 0;
    [[nodiscard]] virtual std::size_t cols() const = 0;

    /// Fill `dst` (n * cols() floats, row-major) with rows [y0, y0+n).
    /// Throws std::out_of_range / std::runtime_error on a bad window.
    virtual void read_rows(std::size_t y0, std::size_t n, std::span<float> dst) = 0;
};

class SyntheticTileSource final : public TileSource {
public:
    SyntheticTileSource(std::size_t rows, std::size_t cols, std::uint64_t seed);

    [[nodiscard]] std::size_t rows() const override { return rows_; }
    [[nodiscard]] std::size_t cols() const override { return cols_; }
    void read_rows(std::size_t y0, std::size_t n, std::span<float> dst) override;

    /// The whole scene materialized (tests compare against the monolithic
    /// decompose of exactly this image). Intended for small scenes only.
    [[nodiscard]] core::ImageF materialize();

private:
    std::size_t rows_;
    std::size_t cols_;
    std::uint64_t seed_;
};

class PgmTileSource final : public TileSource {
public:
    explicit PgmTileSource(std::string path) : reader_(std::move(path)) {}

    [[nodiscard]] std::size_t rows() const override { return reader_.info().rows; }
    [[nodiscard]] std::size_t cols() const override { return reader_.info().cols; }
    void read_rows(std::size_t y0, std::size_t n, std::span<float> dst) override {
        reader_.read_rows(y0, n, dst);
    }

private:
    core::PgmReader reader_;
};

class InMemoryTileSource final : public TileSource {
public:
    explicit InMemoryTileSource(const core::ImageF& img) : img_(img) {}

    [[nodiscard]] std::size_t rows() const override { return img_.rows(); }
    [[nodiscard]] std::size_t cols() const override { return img_.cols(); }
    void read_rows(std::size_t y0, std::size_t n, std::span<float> dst) override;

private:
    const core::ImageF& img_;
};

}  // namespace wavehpc::tile
