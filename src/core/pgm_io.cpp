#include "core/pgm_io.hpp"

#include <cmath>
#include <cstdint>
#include <fstream>
#include <span>
#include <stdexcept>
#include <utility>

namespace wavehpc::core {

namespace {

// Refuse headers that would make us allocate multi-GB buffers: the paper's
// scenes are 512x512; allow generous headroom but nothing hostile.
constexpr std::size_t kMaxDim = 1U << 16;      // 65536 px per side
constexpr std::size_t kMaxPixels = 1U << 26;   // 64 Mpx = 256 MiB as float

// Skip whitespace and '#' comment lines between PGM header tokens.
void skip_separators(std::istream& in) {
    for (;;) {
        const int c = in.peek();
        if (c == std::char_traits<char>::eof()) return;
        if (c == '#') {
            std::string line;
            std::getline(in, line);
        } else if (std::isspace(static_cast<unsigned char>(c)) != 0) {
            // The cast matters: passing a plain char with the high bit set
            // (negative) to std::isspace is undefined behaviour.
            in.get();
        } else {
            return;
        }
    }
}

std::size_t read_header_value(std::istream& in, const char* what) {
    skip_separators(in);
    long long v = -1;
    in >> v;
    if (!in || v <= 0) {
        throw std::runtime_error(std::string("read_pgm: bad header field: ") + what);
    }
    return static_cast<std::size_t>(v);
}

// A window inside the image that the pixel cap allows, checked before
// anything it sizes is allocated. Widened to 64-bit before multiplying: on
// a 32-bit size_t the in-cap 65536 x 65536 header would wrap cols*rows to
// 0 and dodge the guard entirely.
void check_window(const PgmInfo& info, std::size_t y0, std::size_t n,
                  const std::string& path) {
    if (n == 0 || y0 > info.rows || n > info.rows - y0) {
        throw std::runtime_error("read_pgm: window outside image in " + path);
    }
    if (static_cast<std::uint64_t>(info.cols) * n > kMaxPixels) {
        throw std::runtime_error("read_pgm: implausible image dimensions in " + path);
    }
}

// Rows [y0, y0+rows) of the reader's file as a new image.
ImageF read_window(PgmReader& reader, const std::string& path, std::size_t y0,
                   std::size_t rows) {
    check_window(reader.info(), y0, rows, path);
    ImageF img(rows, reader.info().cols);
    reader.read_rows(y0, rows, img.flat());
    return img;
}

// next_row_ while a window is being read: a window that fails part-way
// leaves the stream at no known row, so the next one repositions.
constexpr std::size_t kNoRow = static_cast<std::size_t>(-1);

}  // namespace

PgmReader::PgmReader(std::string path)
    : path_(std::move(path)), in_(path_, std::ios::binary) {
    if (!in_) throw std::runtime_error("read_pgm: cannot open " + path_);
    std::string magic;
    in_ >> magic;
    if (magic != "P5" && magic != "P2") {
        throw std::runtime_error("read_pgm: not a PGM file: " + path_);
    }
    binary_ = magic == "P5";
    info_.cols = read_header_value(in_, "width");
    info_.rows = read_header_value(in_, "height");
    if (info_.cols > kMaxDim || info_.rows > kMaxDim) {
        throw std::runtime_error("read_pgm: implausible image dimensions in " + path_);
    }
    info_.maxval = read_header_value(in_, "maxval");
    if (info_.maxval > 65535) throw std::runtime_error("read_pgm: maxval out of range");
    if (binary_) {
        // Exactly one whitespace byte separates maxval from the raster.
        // Anything else (junk after maxval) would silently shift every
        // pixel by a byte.
        const int sep = in_.get();
        if (sep == std::char_traits<char>::eof() ||
            std::isspace(static_cast<unsigned char>(sep)) == 0) {
            throw std::runtime_error("read_pgm: junk after maxval in " + path_);
        }
    }
    raster_ = in_.tellg();
}

void PgmReader::read_rows(std::size_t y0, std::size_t n, std::span<float> dst) {
    check_window(info_, y0, n, path_);
    if (dst.size() != n * info_.cols) {
        throw std::invalid_argument("PgmReader: bad destination size");
    }
    const std::size_t bpp = info_.maxval > 255 ? 2 : 1;
    const bool resume = std::exchange(next_row_, kNoRow) == y0;
    if (!resume) {
        in_.clear();
        in_.seekg(raster_);
        if (binary_) {
            // The raster is fixed-pitch: the window is one seek away.
            in_.seekg(static_cast<std::streamoff>(static_cast<std::uint64_t>(y0) *
                                                  info_.cols * bpp),
                      std::ios::cur);
        } else {
            const std::uint64_t skip = static_cast<std::uint64_t>(y0) * info_.cols;
            for (std::uint64_t i = 0; i < skip && in_; ++i) {
                long long v = 0;
                in_ >> v;
            }
        }
        if (!in_) throw std::runtime_error("read_pgm: truncated raster in " + path_);
    }
    if (binary_) {
        raw_.resize(dst.size() * bpp);
        in_.read(reinterpret_cast<char*>(raw_.data()),
                 static_cast<std::streamsize>(raw_.size()));
        if (static_cast<std::size_t>(in_.gcount()) != raw_.size()) {
            throw std::runtime_error("read_pgm: truncated binary data in " + path_);
        }
        if (bpp == 2) {
            for (std::size_t i = 0; i < dst.size(); ++i) {  // big-endian samples
                dst[i] = static_cast<float>((raw_[2 * i] << 8) | raw_[2 * i + 1]);
            }
        } else {
            for (std::size_t i = 0; i < dst.size(); ++i) dst[i] = static_cast<float>(raw_[i]);
        }
    } else {
        for (float& px : dst) {
            long long v = 0;
            in_ >> v;
            if (!in_) throw std::runtime_error("read_pgm: truncated ASCII data in " + path_);
            px = static_cast<float>(v);
        }
    }
    next_row_ = y0 + n;
}

ImageF read_pgm(const std::string& path) {
    PgmReader reader(path);
    return read_window(reader, path, 0, reader.info().rows);
}

ImageF read_pgm_rows(const std::string& path, std::size_t y0, std::size_t rows) {
    PgmReader reader(path);
    return read_window(reader, path, y0, rows);
}

void write_pgm(const ImageF& img, const std::string& path) {
    std::ofstream out(path, std::ios::binary);
    if (!out) throw std::runtime_error("write_pgm: cannot open " + path);
    out << "P5\n" << img.cols() << ' ' << img.rows() << "\n255\n";
    std::vector<unsigned char> raw;
    raw.reserve(img.size());
    for (float v : img.flat()) {
        const float clamped = std::min(255.0F, std::max(0.0F, v));
        raw.push_back(static_cast<unsigned char>(std::lround(clamped)));
    }
    out.write(reinterpret_cast<const char*>(raw.data()),
              static_cast<std::streamsize>(raw.size()));
    if (!out) throw std::runtime_error("write_pgm: write failed for " + path);
}

}  // namespace wavehpc::core
