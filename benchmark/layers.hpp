#pragma once
// Pinned configurations and per-layer metric derivations shared by the
// live workloads and the layer replay, so a metric means the same thing
// whichever phase measured it.

#include <cstdint>
#include <vector>

#include "common.hpp"
#include "svc/service.hpp"
#include "svc/shard/cluster.hpp"
#include "tile/source.hpp"
#include "tile/tiled_dwt.hpp"

namespace wavebench {

/// The slab pool posture every workload's BufferArena uses.
[[nodiscard]] wavehpc::svc::ArenaConfig pinned_arena_config();

/// Every service knob, pinned here so a changed library default cannot
/// silently change a workload.
[[nodiscard]] wavehpc::svc::ServiceConfig pinned_service_config(
    std::uint64_t cache_bytes, std::size_t max_concurrency);

/// shard_wire's cluster: 4 shards, one compute slot each, no faults. The
/// per-shard cache is small so most requests compute (a compute-bound
/// phase, unlike bench_shard_sweep's sleep-pinned one).
[[nodiscard]] wavehpc::svc::shard::ShardClusterConfig pinned_cluster_config();

/// The gigapixel tile grid.
[[nodiscard]] wavehpc::tile::TileConfig pinned_tile_config();

/// Per-request service-layer samples (the queue/compute/finish/batch
/// vectors hold replies whose own flight computed: no hits, no joiners).
struct ServiceSamples {
    std::vector<double> submit_s;
    std::vector<double> queue_s;
    std::vector<double> compute_s;
    std::vector<double> finish_s;
    std::vector<double> batch_size;

    /// Record one reply: finish = total - queue - compute.
    void add_reply(const wavehpc::svc::TransformReply& reply);
    void append(const ServiceSamples& o);
};

/// Counter snapshots bracketing a measured region.
struct ServiceSnapshot {
    wavehpc::svc::MetricsSnapshot metrics;
    wavehpc::svc::CacheStats cache;
    wavehpc::svc::ArenaStats arena;
};
[[nodiscard]] ServiceSnapshot snapshot(const wavehpc::svc::PyramidService& s);
[[nodiscard]] ServiceSnapshot snapshot(const wavehpc::svc::shard::ShardCluster& c);

/// svc.*, cache.hit_ratio, cache.evictions_per_kreq, arena.*,
/// sweep.batch_size_mean. svc.submit_us.* only when submit samples exist.
void set_service_layer_metrics(Result& r, const ServiceSamples& s, const ServiceSnapshot& a,
                               const ServiceSnapshot& b, const std::string& source);

struct ClusterSamples {
    std::vector<double> submit_s;     ///< ShardCluster::submit (the request leg)
    std::vector<double> shard_s;      ///< the shard's reply.total_seconds
    std::vector<double> reply_leg_s;  ///< client latency - shard total - submit
};

void set_cluster_layer_metrics(Result& r, const ClusterSamples& s,
                               const wavehpc::svc::shard::WireStats& w0,
                               const wavehpc::svc::shard::WireStats& w1,
                               std::uint64_t routed, const std::string& source);

/// Copies every metric of `from` that `into` lacks, marked with `source`.
void merge_absent(Result& into, const Result& from, const std::string& source);

// ----------------------------------------------------------- tile metering

/// Wraps a TileSource, timing read_rows and remembering when the latest
/// band arrived (the start of a tile's ingest-to-delivery latency).
class TimedSource final : public wavehpc::tile::TileSource {
public:
    explicit TimedSource(wavehpc::tile::TileSource& inner) : inner_(inner) {}

    [[nodiscard]] std::size_t rows() const override { return inner_.rows(); }
    [[nodiscard]] std::size_t cols() const override { return inner_.cols(); }
    void read_rows(std::size_t y0, std::size_t n, std::span<float> dst) override;

    void trace_into(SpanLog* log, std::uint64_t parent, std::uint64_t request_id);

    std::int64_t read_ns = 0;
    std::int64_t last_read_end = 0;

private:
    wavehpc::tile::TileSource& inner_;
    SpanLog* log_ = nullptr;
    std::uint64_t parent_ = 0;
    std::uint64_t request_id_ = 0;
};

/// Tile consumer: assembles the approximation plane, hands every band
/// buffer back to the stream's buffer source, and times itself.
class MeterSink final : public wavehpc::tile::TileSink {
public:
    MeterSink(const TimedSource& source, std::size_t approx_rows, std::size_t approx_cols,
              wavehpc::core::FloatBufferSource& buffers);

    void on_detail(const wavehpc::tile::TileCoord& coord,
                   wavehpc::core::DetailBands&& bands) override;
    void on_approx(const wavehpc::tile::TileCoord& coord,
                   wavehpc::core::ImageF&& ll) override;

    void trace_into(SpanLog* log, std::uint64_t parent, std::uint64_t request_id);

    /// svc::pyramid_crc32 of the assembled approximation plane.
    [[nodiscard]] std::uint32_t approx_crc() const;

    std::int64_t sink_ns = 0;
    std::vector<double> latency_s;  ///< per tile: delivery - latest band arrival

private:
    void record(std::int64_t start);

    const TimedSource& source_;
    wavehpc::core::FloatBufferSource& buffers_;
    wavehpc::core::ImageF approx_;
    SpanLog* log_ = nullptr;
    std::uint64_t parent_ = 0;
    std::uint64_t request_id_ = 0;
};

/// Summed timings of one or more metered streams.
struct TileTotals {
    double stream_s = 0.0;
    double read_s = 0.0;
    double sink_s = 0.0;
    double pixels = 0.0;
    std::uint64_t peak_resident_bytes = 0;

    void add(double stream_seconds, const TimedSource& src, const MeterSink& sink,
             const wavehpc::tile::TileStreamStats& stats);
    void merge(const TileTotals& o);
};

/// tile.driver_ns_px, tile.source_share, tile.sink_share, tile.peak_resident_mib.
void set_tile_layer_metrics(Result& r, const TileTotals& t, const std::string& source);

}  // namespace wavebench
