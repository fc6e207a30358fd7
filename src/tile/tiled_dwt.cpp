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
    // One output row of LL toward the next level (absent at the last): the
    // column pass writes each tile's segment at its column offset.
    ImageF ll_row;
    // The current band's tiles, left to right, from the band's first output
    // row until the sink takes them after its last; ll_tiles only at the
    // last level, whose LL tiles are the approximation output.
    std::vector<core::DetailBands> tiles;
    std::vector<ImageF> ll_tiles;
    std::size_t ingested = 0;  // input rows pushed through the row pass
    std::size_t next_out = 0;  // first output row not yet computed
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
            st.tiles.resize(g.tiles_across);
            if (last_level(l)) {
                st.ll_tiles.resize(g.tiles_across);
            } else {
                st.ll_row = obtain(1, g.out_cols);
            }
        }
    }

    /// Every buffer the driver still holds goes back to the source, also
    /// when an exception (a failing TileSource read, say) ends the stream.
    ~StreamContext() {
        recycle(std::move(staging_));
        for (LevelState& st : states_) {
            recycle(std::move(st.lo_ring));
            recycle(std::move(st.hi_ring));
            recycle(std::move(st.lo_head));
            recycle(std::move(st.hi_head));
            recycle(std::move(st.ll_row));
            for (core::DetailBands& t : st.tiles) {
                recycle(std::move(t.lh));
                recycle(std::move(t.hl));
                recycle(std::move(t.hh));
            }
            for (ImageF& ll : st.ll_tiles) recycle(std::move(ll));
        }
    }

    /// Level-0 ingest: read the source one full-width row per call into
    /// the one-row staging buffer, the only part of the source ever
    /// materialized, and push it through the row pass at once, while it is
    /// still in cache. The last row makes every remaining output row of
    /// every level due, so the whole pyramid has reached the sink when this
    /// returns.
    void ingest(TileSource& src) {
        staging_ = obtain(1, src.cols());
        for (std::size_t y = 0; y < src.rows(); ++y) {
            src.read_rows(y, 1, staging_.flat());
            push_row(0, staging_.row(0).data());
        }
        recycle(std::move(staging_));
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

    [[nodiscard]] bool last_level(std::size_t l) const noexcept {
        return l + 1 == states_.size();
    }

    [[nodiscard]] double elapsed() const {
        return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                             start_)
            .count();
    }

    /// Row pass: one full-width input row of level `l` lands in the ring
    /// (the horizontal halo is the shared scanline itself), then every
    /// output row it completes is computed. Output row k reads the rows
    /// the boundary maps 2k .. 2k+taps-1 onto: the ring's last taps rows
    /// and, for Periodic, the head, so it is due once row 2k+taps-1 (or the
    /// plane's last row) has landed.
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
        while (st.next_out < g.out_rows &&
               st.ingested >= std::min(2 * st.next_out + plan_.taps, g.in_rows)) {
            emit_row(l, st.next_out++);
        }
    }

    /// Column pass of output row k across the full width: row k-k0 of each
    /// of the band's tiles, and at a non-final level the LL row, which then
    /// cascades into level l+1's row pass.
    void emit_row(std::size_t l, std::size_t k) {
        LevelState& st = states_[l];
        const LevelGeometry& g = plan_.level[l];
        const std::size_t k0 = k - k % plan_.tile_rows;
        const std::size_t k1 = std::min(g.out_rows, k0 + plan_.tile_rows);
        if (k == k0) obtain_band(l, k1 - k0);
        for (std::size_t tj = 0; tj < g.tiles_across; ++tj) {
            const std::size_t c0 = tj * plan_.tile_cols;
            core::DetailBands& t = st.tiles[tj];
            const std::size_t tw = t.lh.cols();
            const std::span<float> ll = last_level(l) ? st.ll_tiles[tj].row(k - k0)
                                                      : st.ll_row.row(0).subspan(c0, tw);
            core::analyze_cols_row(core::RingRows{st.lo_ring, st.lo_head, st.ingested, c0},
                                   core::RingRows{st.hi_ring, st.hi_head, st.ingested, c0},
                                   g.in_rows, tw, fp_, mode_, k, ll, t.lh.row(k - k0),
                                   t.hl.row(k - k0), t.hh.row(k - k0));
        }
        if (k + 1 == k1) hand_off_band(l, k0, k1);
        if (!last_level(l)) push_row(l + 1, st.ll_row.row(0).data());
    }

    void obtain_band(std::size_t l, std::size_t th) {
        LevelState& st = states_[l];
        const LevelGeometry& g = plan_.level[l];
        for (std::size_t tj = 0; tj < g.tiles_across; ++tj) {
            const std::size_t c0 = tj * plan_.tile_cols;
            const std::size_t tw = std::min(g.out_cols, c0 + plan_.tile_cols) - c0;
            st.tiles[tj] = {obtain(th, tw), obtain(th, tw), obtain(th, tw)};
            if (last_level(l)) st.ll_tiles[tj] = obtain(th, tw);
        }
    }

    /// The band's tiles go to the sink left to right, on_approx before
    /// on_detail at the last level. Each hand-off moves the tile out of the
    /// driver before the call, so the sink owns it even if the sink
    /// throws; the tiles to its right stay the driver's.
    void hand_off_band(std::size_t l, std::size_t k0, std::size_t k1) {
        LevelState& st = states_[l];
        const LevelGeometry& g = plan_.level[l];
        for (std::size_t tj = 0; tj < g.tiles_across; ++tj) {
            const std::size_t c0 = tj * plan_.tile_cols;
            if (last_level(l)) {
                meter_.sub(st.ll_tiles[tj].size());
                sink_.on_approx(TileCoord{plan_.levels, k0, c0},
                                std::exchange(st.ll_tiles[tj], ImageF{}));
            }
            meter_.sub(3 * st.tiles[tj].lh.size());
            sink_.on_detail(TileCoord{static_cast<int>(l), k0, c0},
                            std::exchange(st.tiles[tj], core::DetailBands{}));
        }
        if (last_level(l) && k1 == g.out_rows) approx_seal_seconds_ = elapsed();
    }

    const TilePlan& plan_;
    const core::FilterPair& fp_;
    const core::BoundaryMode mode_;
    TileSink& sink_;
    core::FloatBufferSource& buffers_;
    const std::chrono::steady_clock::time_point start_;
    std::vector<LevelState> states_;
    ImageF staging_;  // level-0 ingest row, held while reading
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
    ctx.ingest(src);
    return ctx.stats(src);
}

}  // namespace wavehpc::tile
