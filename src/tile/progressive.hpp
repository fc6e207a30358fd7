#pragma once
// Sinks that put the tile stream back together.
//
// The tile stream emits the approximation band and each level's detail
// subbands as independent tiles. PyramidAssembler pastes them back into a
// core::Pyramid; DiscardSink recycles them unread. tiled_decompose runs
// an in-memory image through the stream into an assembler: the
// materialized tile path the bit-identity tests and bench_tiled_stream
// compare with core::decompose.

#include "core/buffers.hpp"
#include "core/dwt.hpp"
#include "tile/tiled_dwt.hpp"

namespace wavehpc::tile {

/// Assembles the tile stream back into a core::Pyramid. Band planes come
/// from `buffers`; every delivered tile is pasted then recycled back, so
/// with an arena source the assembly is allocation-free after warmup.
class PyramidAssembler final : public TileSink {
public:
    PyramidAssembler(std::size_t rows, std::size_t cols, int levels,
                     core::FloatBufferSource& buffers);

    void on_detail(const TileCoord& coord, core::DetailBands&& bands) override;
    void on_approx(const TileCoord& coord, core::ImageF&& ll) override;

    /// The assembled pyramid; call once, after the stream completes.
    [[nodiscard]] core::Pyramid take() { return std::move(pyr_); }
    [[nodiscard]] const core::Pyramid& pyramid() const { return pyr_; }

private:
    core::FloatBufferSource& buffers_;
    core::Pyramid pyr_;
};

/// Swallows the stream, recycling every tile immediately — the
/// constant-memory consumer the bench's height-invariance gate uses.
class DiscardSink final : public TileSink {
public:
    explicit DiscardSink(core::FloatBufferSource& buffers) : buffers_(buffers) {}

    void on_detail(const TileCoord& coord, core::DetailBands&& bands) override;
    void on_approx(const TileCoord& coord, core::ImageF&& ll) override;

private:
    core::FloatBufferSource& buffers_;
};

/// One-call tiled decomposition of an in-memory image: InMemoryTileSource
/// -> stream_decompose -> PyramidAssembler. Bit-identical to
/// core::decompose for every boundary mode.
[[nodiscard]] core::Pyramid tiled_decompose(const core::ImageF& img,
                                            const core::FilterPair& fp, int levels,
                                            core::BoundaryMode mode,
                                            const TileConfig& cfg,
                                            core::FloatBufferSource* buffers);

}  // namespace wavehpc::tile
