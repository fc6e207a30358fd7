#pragma once
// Row-band scene sources for the streaming tile driver (ISSUE 9).
//
// A TileSource hands out horizontal bands of a W x H scene on demand, so
// the driver's resident footprint is the band it asked for — never the
// scene. Three backends:
//
//   * SyntheticTileSource — deterministic multi-octave value noise,
//     computed row by row with per-row lattice interpolation (a handful
//     of hashes per lattice cell, not per pixel), cheap enough to feed a
//     16k x 16k bench scene. Any (rows, cols, seed) always generates the
//     identical pixels regardless of the band split, which is what the
//     tiled-vs-monolithic bit-identity tests rely on.
//   * PgmTileSource — windowed reads over a PGM file via read_pgm_rows;
//     only the header is touched at construction.
//   * InMemoryTileSource — adapter over an existing ImageF (tiled_decompose,
//     bench_tiled_stream's in-memory pass); no copy, the image must outlive
//     the source.

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>

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
    SyntheticTileSource(std::size_t rows, std::size_t cols, std::uint64_t seed,
                        int octaves = 2);

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
    int octaves_;
};

class PgmTileSource final : public TileSource {
public:
    explicit PgmTileSource(std::string path);

    [[nodiscard]] std::size_t rows() const override { return info_.rows; }
    [[nodiscard]] std::size_t cols() const override { return info_.cols; }
    void read_rows(std::size_t y0, std::size_t n, std::span<float> dst) override;

private:
    std::string path_;
    core::PgmInfo info_;
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
