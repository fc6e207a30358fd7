#include "tile/progressive.hpp"

#include <stdexcept>

namespace wavehpc::tile {

namespace {

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

core::Pyramid tiled_decompose(const core::ImageF& img, const core::FilterPair& fp,
                              int levels, core::BoundaryMode mode, const TileConfig& cfg,
                              core::FloatBufferSource* buffers) {
    core::HeapBufferSource fallback;
    core::FloatBufferSource& buf = buffers != nullptr ? *buffers : fallback;
    InMemoryTileSource src(img);
    PyramidAssembler sink(img.rows(), img.cols(), levels, buf);
    stream_decompose(src, fp, levels, mode, core::DwtKernel::Convolve, cfg, sink, &buf);
    return sink.take();
}

}  // namespace wavehpc::tile
