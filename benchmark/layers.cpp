#include "layers.hpp"

#include "stats.hpp"
#include "svc/cache.hpp"

namespace wavebench {

wavehpc::svc::ArenaConfig pinned_arena_config() {
    wavehpc::svc::ArenaConfig cfg;
    cfg.arena_bytes = 256u << 20;
    cfg.slab_classes = 12;
    cfg.min_slab_floats = 4096;
    return cfg;
}

wavehpc::svc::ServiceConfig pinned_service_config(std::uint64_t cache_bytes,
                                                  std::size_t max_concurrency) {
    wavehpc::svc::ServiceConfig cfg;
    cfg.max_queue_depth = 64;
    cfg.max_queued_bytes = 256u << 20;
    cfg.max_concurrency = max_concurrency;
    cfg.cache_bytes = cache_bytes;
    cfg.batch_max = 8;
    cfg.batch_window_us = 0;
    cfg.arena = pinned_arena_config();
    cfg.resilience.retry.max_attempts = 4;
    cfg.resilience.retry.base_seconds = 0.010;
    cfg.resilience.retry.multiplier = 2.0;
    cfg.resilience.retry.cap_seconds = 0.500;
    cfg.resilience.retry.jitter = 0.5;
    cfg.resilience.breaker.failure_threshold = 0.5;
    cfg.resilience.breaker.ewma_alpha = 0.25;
    cfg.resilience.breaker.min_samples = 4;
    cfg.resilience.breaker.open_seconds = 1.0;
    cfg.resilience.breaker.half_open_probes = 2;
    cfg.resilience.watchdog_seconds = 30.0;
    return cfg;
}

wavehpc::svc::shard::ShardClusterConfig pinned_cluster_config() {
    wavehpc::svc::shard::ShardClusterConfig cfg;
    cfg.shard_count = 4;
    cfg.vnodes = 64;
    cfg.replicas = 2;
    cfg.seed = 1;
    cfg.membership.heartbeat_interval = 0.02;
    cfg.membership.suspect_after = 0.06;
    cfg.membership.dead_after = 0.15;
    cfg.membership.readmit_oks = 2;
    cfg.service = pinned_service_config(2u << 20, 1);
    cfg.manual_clock = false;
    cfg.transport_faults = wavehpc::mesh::FaultPlan{};
    cfg.gossip_seed = 0;
    cfg.wire_retries = 4;
    cfg.gossip_fanout = 0;
    return cfg;
}

wavehpc::tile::TileConfig pinned_tile_config() {
    wavehpc::tile::TileConfig cfg;
    cfg.tile_rows = 128;
    cfg.tile_cols = 256;
    return cfg;
}

void ServiceSamples::add_reply(const wavehpc::svc::TransformReply& reply) {
    // A joiner's stamps describe the flight it joined: its queue time is
    // negative when it arrived after that compute started.
    if (reply.compute_seconds <= 0.0 || reply.shared_flight) return;
    queue_s.push_back(reply.queue_seconds);
    compute_s.push_back(reply.compute_seconds);
    finish_s.push_back(
        residual(reply.total_seconds, {reply.queue_seconds, reply.compute_seconds}));
    batch_size.push_back(reply.batch_size);
}

void ServiceSamples::append(const ServiceSamples& o) {
    const auto cat = [](std::vector<double>& a, const std::vector<double>& b) {
        a.insert(a.end(), b.begin(), b.end());
    };
    cat(submit_s, o.submit_s);
    cat(queue_s, o.queue_s);
    cat(compute_s, o.compute_s);
    cat(finish_s, o.finish_s);
    cat(batch_size, o.batch_size);
}

ServiceSnapshot snapshot(const wavehpc::svc::PyramidService& s) {
    return ServiceSnapshot{s.metrics(), s.cache_stats(), s.arena_stats()};
}

ServiceSnapshot snapshot(const wavehpc::svc::shard::ShardCluster& c) {
    return ServiceSnapshot{c.fleet_metrics(), c.fleet_cache_stats(), c.fleet_arena_stats()};
}

namespace {

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double delta(std::uint64_t a, std::uint64_t b) { return static_cast<double>(b - a); }

}  // namespace

void set_service_layer_metrics(Result& r, const ServiceSamples& s, const ServiceSnapshot& a,
                               const ServiceSnapshot& b, const std::string& source) {
    if (!s.submit_s.empty()) {
        set_percentile(r, "svc.submit_us.p50", s.submit_s, 0.50, 1e6, "us", source);
        set_percentile(r, "svc.submit_us.p99", s.submit_s, 0.99, 1e6, "us", source);
    }
    set_percentile(r, "svc.queue_ms.p50", s.queue_s, 0.50, 1e3, "ms", source);
    set_percentile(r, "svc.compute_ms.p50", s.compute_s, 0.50, 1e3, "ms", source);
    set_percentile(r, "svc.finish_ms.p50", s.finish_s, 0.50, 1e3, "ms", source);
    double batch_sum = 0.0;
    for (const double v : s.batch_size) batch_sum += v;
    r.set("sweep.batch_size_mean", ratio(batch_sum, static_cast<double>(s.batch_size.size())),
          "count", source);
    const auto& c0 = a.metrics.counters;
    const auto& c1 = b.metrics.counters;
    const double submitted = delta(c0.submitted, c1.submitted);
    r.set("svc.dedup_ratio", ratio(delta(c0.dedup_joins, c1.dedup_joins), submitted), "ratio",
          source);
    const double hits = delta(a.cache.hits, b.cache.hits);
    r.set("cache.hit_ratio", ratio(hits, hits + delta(a.cache.misses, b.cache.misses)),
          "ratio", source);
    r.set("cache.evictions_per_kreq",
          1000.0 * ratio(delta(a.cache.evictions, b.cache.evictions), submitted), "count",
          source);
    const double misses = delta(a.arena.misses, b.arena.misses);
    r.set("arena.warm_miss_ratio", ratio(misses, misses + delta(a.arena.hits, b.arena.hits)),
          "ratio", source);
    r.set("arena.high_water_mib", static_cast<double>(b.arena.high_water_bytes) / (1 << 20),
          "MiB", source);
    r.counters["arena.heap_fallbacks"] = delta(a.arena.heap_fallbacks, b.arena.heap_fallbacks);
}

void set_cluster_layer_metrics(Result& r, const ClusterSamples& s,
                               const wavehpc::svc::shard::WireStats& w0,
                               const wavehpc::svc::shard::WireStats& w1,
                               std::uint64_t routed, const std::string& source) {
    set_percentile(r, "cluster.submit_us.p50", s.submit_s, 0.50, 1e6, "us", source);
    set_percentile(r, "cluster.shard_ms.p50", s.shard_s, 0.50, 1e3, "ms", source);
    set_percentile(r, "cluster.reply_leg_ms.p50", s.reply_leg_s, 0.50, 1e3, "ms", source);
    const double n = static_cast<double>(routed);
    r.set("transport.frames_per_req", ratio(delta(w0.frames_sent, w1.frames_sent), n),
          "count", source);
    r.counters["transport.retransmits_per_req"] =
        ratio(delta(w0.retransmits, w1.retransmits), n);
}

void merge_absent(Result& into, const Result& from, const std::string& source) {
    for (const auto& [name, m] : from.metrics) {
        if (into.has(name)) continue;
        into.set(name, m.value, m.unit, source);
        for (const auto& note : from.notes) {
            if (note.rfind(name + ":", 0) == 0) into.notes.push_back(note);
        }
    }
    for (const auto& [name, v] : from.counters) {
        if (into.counters.count(name) == 0) into.counters[name] = v;
    }
    into.gates.insert(into.gates.end(), from.gates.begin(), from.gates.end());
}

// ----------------------------------------------------------- tile metering

void TimedSource::read_rows(std::size_t y0, std::size_t n, std::span<float> dst) {
    const std::int64_t t0 = now_ns();
    inner_.read_rows(y0, n, dst);
    last_read_end = now_ns();
    read_ns += last_read_end - t0;
    if (log_ != nullptr) log_->add("tile.read_rows", t0, last_read_end, parent_, request_id_);
}

void TimedSource::trace_into(SpanLog* log, std::uint64_t parent, std::uint64_t request_id) {
    log_ = log;
    parent_ = parent;
    request_id_ = request_id;
}

MeterSink::MeterSink(const TimedSource& source, std::size_t approx_rows,
                     std::size_t approx_cols, wavehpc::core::FloatBufferSource& buffers)
    : source_(source), buffers_(buffers), approx_(approx_rows, approx_cols) {}

void MeterSink::record(std::int64_t start) {
    const std::int64_t end = now_ns();
    sink_ns += end - start;
    if (log_ != nullptr) log_->add("tile.sink", start, end, parent_, request_id_);
}

void MeterSink::on_detail(const wavehpc::tile::TileCoord& coord,
                          wavehpc::core::DetailBands&& bands) {
    (void)coord;
    const std::int64_t t0 = now_ns();
    latency_s.push_back(static_cast<double>(t0 - source_.last_read_end) * 1e-9);
    buffers_.recycle(bands.lh.release_data());
    buffers_.recycle(bands.hl.release_data());
    buffers_.recycle(bands.hh.release_data());
    record(t0);
}

void MeterSink::on_approx(const wavehpc::tile::TileCoord& coord,
                          wavehpc::core::ImageF&& ll) {
    const std::int64_t t0 = now_ns();
    latency_s.push_back(static_cast<double>(t0 - source_.last_read_end) * 1e-9);
    approx_.paste(ll, coord.row0, coord.col0);
    buffers_.recycle(ll.release_data());
    record(t0);
}

void MeterSink::trace_into(SpanLog* log, std::uint64_t parent, std::uint64_t request_id) {
    log_ = log;
    parent_ = parent;
    request_id_ = request_id;
}

std::uint32_t MeterSink::approx_crc() const {
    wavehpc::core::Pyramid pyr;
    pyr.approx = approx_;
    return wavehpc::svc::pyramid_crc32(pyr);
}

void TileTotals::add(double stream_seconds, const TimedSource& src, const MeterSink& sink,
                     const wavehpc::tile::TileStreamStats& stats) {
    stream_s += stream_seconds;
    read_s += static_cast<double>(src.read_ns) * 1e-9;
    sink_s += static_cast<double>(sink.sink_ns) * 1e-9;
    pixels += static_cast<double>(stats.rows) * static_cast<double>(stats.cols);
    peak_resident_bytes = std::max(peak_resident_bytes, stats.peak_resident_bytes);
}

void TileTotals::merge(const TileTotals& o) {
    stream_s += o.stream_s;
    read_s += o.read_s;
    sink_s += o.sink_s;
    pixels += o.pixels;
    peak_resident_bytes = std::max(peak_resident_bytes, o.peak_resident_bytes);
}

void set_tile_layer_metrics(Result& r, const TileTotals& t, const std::string& source) {
    const double driver_s = std::max(0.0, t.stream_s - t.read_s - t.sink_s);
    r.set("tile.driver_ns_px", t.pixels > 0.0 ? driver_s * 1e9 / t.pixels : 0.0, "ns",
          source);
    r.set("tile.source_share", t.stream_s > 0.0 ? t.read_s / t.stream_s : 0.0, "ratio",
          source);
    r.set("tile.sink_share", t.stream_s > 0.0 ? t.sink_s / t.stream_s : 0.0, "ratio",
          source);
    r.set("tile.peak_resident_mib", static_cast<double>(t.peak_resident_bytes) / (1 << 20),
          "MiB", source);
}

}  // namespace wavebench
