#pragma once
// Minimal PGM (P5 binary / P2 ASCII) reader and writer so real remotely
// sensed scenes can be fed to the pipeline in place of the synthetic one.
//
// One raster reader, PgmReader, serves every read: read_pgm and
// read_pgm_rows open one per call, and tile::PgmTileSource keeps one open
// for a whole stream, so the driver's row-by-row ingest parses the header
// once and reads the raster front to back.

#include <cstddef>
#include <fstream>
#include <ios>
#include <span>
#include <string>
#include <vector>

#include "core/image.hpp"

namespace wavehpc::core {

/// Read an 8- or 16-bit PGM into floats in [0, maxval]. Throws
/// std::runtime_error on malformed input or I/O failure.
[[nodiscard]] ImageF read_pgm(const std::string& path);

/// Dimensions from a PGM header.
struct PgmInfo {
    std::size_t rows = 0;
    std::size_t cols = 0;
    std::size_t maxval = 0;
};

/// One open PGM file, read window by window. The constructor parses the
/// header (magic, dims, maxval; per-dimension caps and the junk-after-
/// maxval check) and leaves the stream at the raster's first sample.
/// A window that starts at the row the previous one ended on continues
/// from there: P5 reads n*cols*bpp bytes, P2 reads n*cols tokens. Any
/// other window repositions: P5 seeks from the raster's start, P2 rewinds
/// to it and skips y0*cols tokens. Samples decode straight into the
/// caller's span through one reused byte buffer. Only the window is
/// bounded by the pixel cap, so a 16k x 16k scene that read_pgm would
/// refuse streams fine.
class PgmReader {
public:
    /// Throws std::runtime_error if the file cannot be opened or its
    /// header is malformed.
    explicit PgmReader(std::string path);

    [[nodiscard]] const PgmInfo& info() const noexcept { return info_; }

    /// Rows [y0, y0+n) into `dst` (n * cols floats, row-major). Throws
    /// std::invalid_argument on a wrong-sized `dst`, and std::runtime_error
    /// on an empty window, one outside the image or over the pixel cap,
    /// truncated or malformed samples, or an I/O failure; a failed read
    /// leaves the reader usable, and the next window repositions.
    void read_rows(std::size_t y0, std::size_t n, std::span<float> dst);

private:
    std::string path_;
    std::ifstream in_;
    PgmInfo info_;
    bool binary_ = false;  // P5 (vs P2 ASCII)
    std::streampos raster_;
    std::size_t next_row_ = 0;  // the row the stream sits at
    std::vector<unsigned char> raw_;
};

/// Windowed read: rows [y0, y0+rows) of the PGM at `path`, full width,
/// through one PgmReader. Throws like PgmReader::read_rows.
[[nodiscard]] ImageF read_pgm_rows(const std::string& path, std::size_t y0,
                                   std::size_t rows);

/// Write an 8-bit binary (P5) PGM, clamping pixels to [0, 255] and rounding
/// to nearest. Throws std::runtime_error on I/O failure.
void write_pgm(const ImageF& img, const std::string& path);

}  // namespace wavehpc::core
