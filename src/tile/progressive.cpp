#include "tile/progressive.hpp"

#include <stdexcept>

#include "core/compress.hpp"
#include "core/knobs.hpp"

namespace wavehpc::tile {

namespace {

// Fixed per-band framing cost (header, lengths, checksums) so an all-zero
// band still takes non-zero link time and delivery times stay strictly
// increasing.
constexpr double kBandHeaderBytes = 64.0;

void recycle_bands(core::FloatBufferSource& buffers, core::DetailBands&& bands) {
    buffers.recycle(bands.lh.release_data());
    buffers.recycle(bands.hl.release_data());
    buffers.recycle(bands.hh.release_data());
}

}  // namespace

PyramidAssembler::PyramidAssembler(std::size_t rows, std::size_t cols, int levels,
                                   core::FloatBufferSource& buffers)
    : buffers_(buffers) {
    core::validate_decomposition_request(rows, cols, levels);
    pyr_.levels.reserve(static_cast<std::size_t>(levels));
    for (int l = 0; l < levels; ++l) {
        const std::size_t hr = rows >> (l + 1);
        const std::size_t hc = cols >> (l + 1);
        core::DetailBands d;
        d.lh = core::obtain_image(buffers_, hr, hc);
        d.hl = core::obtain_image(buffers_, hr, hc);
        d.hh = core::obtain_image(buffers_, hr, hc);
        pyr_.levels.push_back(std::move(d));
    }
    pyr_.approx = core::obtain_image(buffers_, rows >> levels, cols >> levels);
}

void PyramidAssembler::on_detail(const TileCoord& coord, core::DetailBands&& bands) {
    if (coord.level < 0 || static_cast<std::size_t>(coord.level) >= pyr_.depth()) {
        throw std::out_of_range("PyramidAssembler: bad detail level");
    }
    core::DetailBands& dst = pyr_.levels[static_cast<std::size_t>(coord.level)];
    dst.lh.paste(bands.lh, coord.row0, coord.col0);
    dst.hl.paste(bands.hl, coord.row0, coord.col0);
    dst.hh.paste(bands.hh, coord.row0, coord.col0);
    recycle_bands(buffers_, std::move(bands));
}

void PyramidAssembler::on_approx(const TileCoord& coord, core::ImageF&& ll) {
    pyr_.approx.paste(ll, coord.row0, coord.col0);
    buffers_.recycle(ll.release_data());
}

void DiscardSink::on_detail(const TileCoord& /*coord*/, core::DetailBands&& bands) {
    recycle_bands(buffers_, std::move(bands));
}

void DiscardSink::on_approx(const TileCoord& /*coord*/, core::ImageF&& ll) {
    buffers_.recycle(ll.release_data());
}

ProgressiveStore::ProgressiveStore(std::size_t rows, std::size_t cols, int levels,
                                   core::FloatBufferSource& buffers)
    : PyramidAssembler(rows, cols, levels, buffers),
      start_(std::chrono::steady_clock::now()),
      level_seal_(static_cast<std::size_t>(levels), 0.0) {}

void ProgressiveStore::on_level_complete(int level) {
    if (level >= 0 && static_cast<std::size_t>(level) < level_seal_.size()) {
        level_seal_[static_cast<std::size_t>(level)] =
            std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
                .count();
    }
}

void ProgressiveStore::on_approx_complete() {
    approx_seal_ =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
            .count();
}

double ProgressiveStore::level_seal_seconds(int level) const {
    if (level < 0 || static_cast<std::size_t>(level) >= level_seal_.size()) {
        throw std::out_of_range("ProgressiveStore: bad level");
    }
    return level_seal_[static_cast<std::size_t>(level)];
}

ProgressiveDelivery::ProgressiveDelivery(const core::Pyramid& pyr,
                                         double bytes_per_second,
                                         double sealed_seconds, float quant_step) {
    if (bytes_per_second <= 0.0) {
        throw std::invalid_argument("ProgressiveDelivery: bytes_per_second must be > 0");
    }
    if (pyr.depth() == 0) {
        throw std::invalid_argument("ProgressiveDelivery: empty pyramid");
    }
    const auto coded = [quant_step](const core::ImageF& band) {
        return kBandHeaderBytes +
               static_cast<double>(band.size()) *
                   core::band_entropy_bits(band, quant_step) / 8.0;
    };
    double cum_bytes = 0.0;
    const auto push = [&](BandKind kind, int level, const core::ImageF& band) {
        DeliveryItem item;
        item.kind = kind;
        item.level = level;
        item.coded_bytes = coded(band);
        cum_bytes += item.coded_bytes;
        item.deliver_seconds = sealed_seconds + cum_bytes / bytes_per_second;
        items_.push_back(item);
    };
    push(BandKind::Approx, static_cast<int>(pyr.depth()), pyr.approx);
    for (std::size_t l = pyr.depth(); l-- > 0;) {  // coarsest detail level first
        const core::DetailBands& d = pyr.levels[l];
        push(BandKind::LH, static_cast<int>(l), d.lh);
        push(BandKind::HL, static_cast<int>(l), d.hl);
        push(BandKind::HH, static_cast<int>(l), d.hh);
    }
}

double ProgressiveDelivery::time_to_first_band() const {
    return items_.front().deliver_seconds;
}

double ProgressiveDelivery::time_to_full() const {
    return items_.back().deliver_seconds;
}

double preview_bytes_per_second() {
    return core::env_real("WAVEHPC_TILE_PREVIEW_BPS").value_or(8.0 * (1 << 20));
}

core::Pyramid tiled_decompose(const core::ImageF& img, const core::FilterPair& fp,
                              int levels, core::BoundaryMode mode, const TileConfig& cfg,
                              core::FloatBufferSource* buffers,
                              TileStreamStats* stats) {
    core::HeapBufferSource fallback;
    core::FloatBufferSource& buf = buffers != nullptr ? *buffers : fallback;
    InMemoryTileSource src(img);
    PyramidAssembler sink(img.rows(), img.cols(), levels, buf);
    const TileStreamStats st =
        stream_decompose(src, fp, levels, mode, core::DwtKernel::Convolve, cfg, sink,
                         &buf);
    if (stats != nullptr) *stats = st;
    return sink.take();
}

}  // namespace wavehpc::tile
