#include "tile/tiled_dwt.hpp"

#include <algorithm>
#include <chrono>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

namespace wavehpc::tile {

namespace {

using core::ImageF;

/// Driver-resident byte gauge: obtains add, recycles and sink handoffs
/// subtract, so the peak is exactly the driver's working set regardless
/// of what the sink retains.
struct ResidentMeter {
    std::uint64_t current = 0;
    std::uint64_t peak = 0;

    void add(std::size_t floats) noexcept {
        current += static_cast<std::uint64_t>(floats) * sizeof(float);
        peak = std::max(peak, current);
    }
    void sub(std::size_t floats) noexcept {
        current -= std::min<std::uint64_t>(
            current, static_cast<std::uint64_t>(floats) * sizeof(float));
    }
};

struct LevelState {
    ImageF lo_ring;  // ring_rows x out_cols of row-pass low rows
    ImageF hi_ring;
    ImageF lo_head;  // head_rows x out_cols: the Periodic wrap target
    ImageF hi_head;
    // Cascade band toward the next level (absent at the last): each tile's
    // column pass writes its LL here, at the tile's column offset.
    ImageF ll_band;
    std::size_t ingested = 0;  // input rows pushed through the row pass
    std::size_t next_out = 0;  // first output row not yet emitted
};

class StreamContext {
public:
    StreamContext(const TilePlan& plan, const core::FilterPair& fp,
                  core::BoundaryMode mode, TileSink& sink,
                  core::FloatBufferSource& buffers)
        : plan_(plan),
          fp_(fp),
          mode_(mode),
          sink_(sink),
          buffers_(buffers),
          start_(std::chrono::steady_clock::now()) {
        states_.resize(plan_.level.size());
        for (std::size_t l = 0; l < states_.size(); ++l) {
            const LevelGeometry& g = plan_.level[l];
            LevelState& st = states_[l];
            st.lo_ring = obtain(g.ring_rows, g.out_cols);
            st.hi_ring = obtain(g.ring_rows, g.out_cols);
            if (g.head_rows > 0) {
                st.lo_head = obtain(g.head_rows, g.out_cols);
                st.hi_head = obtain(g.head_rows, g.out_cols);
            }
            if (l + 1 < states_.size()) {
                st.ll_band = obtain(std::min(plan_.tile_rows, g.out_rows), g.out_cols);
            }
        }
    }

    /// Every buffer the driver still holds goes back to the source, also
    /// when an exception (a failing TileSource read, say) ends the stream.
    ~StreamContext() {
        recycle(std::move(staging_));
        recycle(std::move(tile_ll_));
        recycle(std::move(tile_.lh));
        recycle(std::move(tile_.hl));
        recycle(std::move(tile_.hh));
        for (LevelState& st : states_) {
            recycle(std::move(st.lo_ring));
            recycle(std::move(st.hi_ring));
            recycle(std::move(st.lo_head));
            recycle(std::move(st.hi_head));
            recycle(std::move(st.ll_band));
        }
    }

    /// Level-0 ingest: read the source in bands of `band` full-width rows
    /// into the staging band, the only part of the source ever
    /// materialized, and push each row through the row pass.
    void ingest(TileSource& src, std::size_t band) {
        staging_ = obtain(band, src.cols());
        for (std::size_t y0 = 0; y0 < src.rows(); y0 += band) {
            const std::size_t n = std::min(band, src.rows() - y0);
            src.read_rows(y0, n, staging_.flat().first(n * src.cols()));
            for (std::size_t j = 0; j < n; ++j) {
                push_row(0, staging_.row(j).data());
            }
        }
        recycle(std::move(staging_));
    }

    /// Row pass: one full-width input row of level `l` lands in the ring
    /// (the horizontal halo is the shared scanline itself).
    void push_row(std::size_t l, const float* row) {
        LevelState& st = states_[l];
        const LevelGeometry& g = plan_.level[l];
        const auto lo = st.lo_ring.row(st.ingested % g.ring_rows);
        const auto hi = st.hi_ring.row(st.ingested % g.ring_rows);
        core::analyze_1d_range(std::span<const float>(row, g.in_cols), fp_, lo, hi, mode_,
                               0, g.out_cols);
        if (st.ingested < g.head_rows) {
            std::copy(lo.begin(), lo.end(), st.lo_head.row(st.ingested).begin());
            std::copy(hi.begin(), hi.end(), st.hi_head.row(st.ingested).begin());
        }
        ++st.ingested;
        drain(l, false);
    }

    /// Emit every output band whose source window is fully ingested (all
    /// of them once `final` — the boundary supplies the rest).
    void drain(std::size_t l, bool final) {
        LevelState& st = states_[l];
        const LevelGeometry& g = plan_.level[l];
        while (st.next_out < g.out_rows) {
            const std::size_t k0 = st.next_out;
            const std::size_t k1 = std::min(g.out_rows, k0 + plan_.tile_rows);
            // Band [k0, k1) reads source rows through 2*k1 + taps - 3.
            if (!final && st.ingested < 2 * k1 + plan_.taps - 2) break;
            emit_band(l, k0, k1);
            st.next_out = k1;
        }
    }

    /// Stream end: flush levels in cascade order — level l's final drain
    /// pushes its remaining LL rows into level l+1 before l+1 flushes.
    void finalize() {
        for (std::size_t l = 0; l < states_.size(); ++l) {
            drain(l, true);
        }
        seconds_ = elapsed();
    }

    [[nodiscard]] TileStreamStats stats(const TileSource& src) const {
        TileStreamStats s;
        s.rows = src.rows();
        s.cols = src.cols();
        s.levels = plan_.levels;
        s.bytes_in = static_cast<std::uint64_t>(src.rows()) * src.cols() *
                     sizeof(float);
        s.seconds = seconds_;
        s.approx_seal_seconds = approx_seal_seconds_;
        s.peak_resident_bytes = meter_.peak;
        return s;
    }

private:
    [[nodiscard]] ImageF obtain(std::size_t rows, std::size_t cols) {
        meter_.add(rows * cols);
        return core::obtain_image(buffers_, rows, cols);
    }

    void recycle(ImageF&& img) {
        if (img.size() == 0) return;
        meter_.sub(img.size());
        buffers_.recycle(img.release_data());
    }

    [[nodiscard]] double elapsed() const {
        return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                             start_)
            .count();
    }

    /// Resolve a global row-band row against ring/head storage. The
    /// emission gate and the head retention together guarantee every row
    /// the boundary maps a band onto is still resident (see plan.hpp).
    [[nodiscard]] const float* ring_row(const LevelState& st, const LevelGeometry& g,
                                        bool low, std::size_t r) const {
        if (r >= st.ingested) {
            throw std::logic_error("tile stream: row not yet produced");
        }
        if (st.ingested > g.ring_rows && r + g.ring_rows < st.ingested) {
            // Evicted from the ring: only the head retains it (Periodic
            // bottom wrap).
            if (r < g.head_rows) {
                return (low ? st.lo_head : st.hi_head).row(r).data();
            }
            throw std::logic_error("tile stream: row evicted from ring");
        }
        return (low ? st.lo_ring : st.hi_ring).row(r % g.ring_rows).data();
    }

    void emit_band(std::size_t l, std::size_t k0, std::size_t k1) {
        LevelState& st = states_[l];
        const LevelGeometry& g = plan_.level[l];
        const std::size_t th = k1 - k0;
        const bool last_level = l + 1 == states_.size();
        for (std::size_t tj = 0; tj < g.tiles_across; ++tj) {
            const std::size_t c0 = tj * plan_.tile_cols;
            const std::size_t tw = std::min(g.out_cols, c0 + plan_.tile_cols) - c0;
            // The last level's LL tiles are the approximation output; every
            // other level's LL goes straight into its cascade band.
            if (last_level) tile_ll_ = obtain(th, tw);
            tile_.lh = obtain(th, tw);
            tile_.hl = obtain(th, tw);
            tile_.hh = obtain(th, tw);
            const core::RowAccessor lo_at = [this, &st, &g, c0](std::size_t r) {
                return ring_row(st, g, true, r) + c0;
            };
            const core::RowAccessor hi_at = [this, &st, &g, c0](std::size_t r) {
                return ring_row(st, g, false, r) + c0;
            };
            core::analyze_cols_tile(lo_at, hi_at, g.in_rows, tw, fp_,
                                    last_level ? tile_ll_ : st.ll_band, tile_.lh,
                                    tile_.hl, tile_.hh, mode_, k0, k1,
                                    last_level ? 0 : c0);
            // Hand-offs move the tile out of the driver before the call, so
            // the sink owns it even if the sink throws.
            if (last_level) {
                meter_.sub(tile_ll_.size());
                sink_.on_approx(TileCoord{plan_.levels, k0, c0},
                                std::exchange(tile_ll_, ImageF{}));
            }
            meter_.sub(3 * th * tw);
            sink_.on_detail(TileCoord{static_cast<int>(l), k0, c0},
                            std::exchange(tile_, core::DetailBands{}));
        }
        if (last_level && k1 == g.out_rows) {
            approx_seal_seconds_ = elapsed();
            sink_.on_approx_complete();
        }
        if (k1 == g.out_rows) {
            sink_.on_level_complete(static_cast<int>(l));
        }
        if (!last_level) {
            for (std::size_t j = 0; j < th; ++j) {
                push_row(l + 1, st.ll_band.row(j).data());
            }
        }
    }

    const TilePlan& plan_;
    const core::FilterPair& fp_;
    const core::BoundaryMode mode_;
    TileSink& sink_;
    core::FloatBufferSource& buffers_;
    const std::chrono::steady_clock::time_point start_;
    std::vector<LevelState> states_;
    ImageF staging_;          // level-0 ingest band, held while reading
    ImageF tile_ll_;          // last level's LL tile until its hand-off
    core::DetailBands tile_;  // a tile's detail bands until their hand-off
    ResidentMeter meter_;
    double approx_seal_seconds_ = 0.0;
    double seconds_ = 0.0;
};

}  // namespace

TileStreamStats stream_decompose(TileSource& src, const core::FilterPair& fp,
                                 int levels, core::BoundaryMode mode,
                                 core::DwtKernel /*kernel*/, const TileConfig& cfg,
                                 TileSink& sink, core::FloatBufferSource* buffers) {
    core::validate_decomposition_request(src.rows(), src.cols(), levels);
    const TilePlan plan =
        TilePlan::build(src.rows(), src.cols(), levels, fp.low().size(), cfg);
    core::HeapBufferSource fallback;
    core::FloatBufferSource& buf = buffers != nullptr ? *buffers : fallback;
    StreamContext ctx(plan, fp, mode, sink, buf);
    ctx.ingest(src, std::min(cfg.tile_rows, src.rows()));
    ctx.finalize();
    return ctx.stats(src);
}

}  // namespace wavehpc::tile
