// The traced run's layer replay: after the measured phases, the first
// recorded requests' inputs are driven through each public layer function
// on one thread — the kernel passes, the batched sweep, digest, cache,
// CRC, the wire codecs and the transport RPC — and, for layers the
// workload did not exercise live, through a fresh service, cluster or
// tile stream. Each call is a span under one "replay" root. Every group
// stops at its share of the replay budget (having covered every mix
// entry), so a 512x512 workload replays fewer inputs than a 192x192 one.

#include <set>

#include "common.hpp"
#include "layers.hpp"
#include "stats.hpp"
#include "svc/cache.hpp"
#include "svc/shard/transport.hpp"
#include "svc/shard/wire.hpp"
#include "wavelet/threads_dwt.hpp"

namespace wavebench {

namespace {

using wavehpc::core::BoundaryMode;
using wavehpc::core::FilterPair;
using wavehpc::core::ImageF;
using wavehpc::core::Pyramid;
using wavehpc::svc::TransformReply;
using wavehpc::svc::TransformRequest;
using wavehpc::svc::TransformResult;
namespace wire = wavehpc::svc::shard::wire;

/// Tracer slot of the replay thread (client threads use slots 0..3).
constexpr std::size_t kReplaySlot = 8;

class Budget {
public:
    explicit Budget(double seconds) : start_(now_ns()), seconds_(seconds) {}
    [[nodiscard]] bool spent() const { return seconds_since(start_) >= seconds_; }

private:
    std::int64_t start_;
    double seconds_;
};

/// Every mix entry seen at least `n` times?
bool covered_mixes(const std::size_t (&seen)[kMixCount], std::size_t n) {
    for (const std::size_t s : seen) {
        if (s < n) return false;
    }
    return true;
}

struct Ctx {
    SpanLog& log;
    std::uint64_t root;

    /// Run `f` as one span; returns its seconds.
    template <typename F>
    double timed(const char* name, std::uint64_t request_id, F&& f) {
        const std::int64_t t0 = now_ns();
        f();
        const std::int64_t t1 = now_ns();
        log.add(name, t0, t1, root, request_id);
        return static_cast<double>(t1 - t0) * 1e-9;
    }
};

wavehpc::core::DwtKernel resolved(const FilterPair& fp) {
    return wavehpc::core::resolve_dwt_kernel(wavehpc::core::DwtKernel::Auto, fp);
}

void replay_kernels(const std::vector<ReplayInput>& inputs, double budget_s, Ctx& ctx,
                    Result& r) {
    std::vector<double> rows_ns[kMixCount][4];
    std::vector<double> cols_ns[kMixCount][4];
    std::size_t seen[kMixCount] = {};
    const Budget budget(budget_s);
    for (const ReplayInput& in : inputs) {
        if (budget.spent() && covered_mixes(seen, 3)) break;
        const MixEntry& m = kMix[in.mix];
        const auto fp = FilterPair::daubechies(m.taps);
        const auto kernel = resolved(fp);
        ImageF level_in;
        const ImageF* cur = in.image.get();
        for (int k = 0; k < m.levels; ++k) {
            const std::size_t rows = cur->rows();
            const std::size_t cols = cur->cols();
            const double px = static_cast<double>(rows * cols);
            ImageF lo(rows, cols / 2);
            ImageF hi(rows, cols / 2);
            const double row_s = ctx.timed("replay.kernels.rows", in.request_id, [&] {
                wavehpc::core::analyze_rows_range(*cur, fp, lo, hi, BoundaryMode::Periodic,
                                                  kernel, 0, rows);
            });
            ImageF ll(rows / 2, cols / 2);
            ImageF lh(rows / 2, cols / 2);
            ImageF hl(rows / 2, cols / 2);
            ImageF hh(rows / 2, cols / 2);
            const double col_s = ctx.timed("replay.kernels.cols", in.request_id, [&] {
                wavehpc::core::analyze_cols_range(lo, hi, fp, ll, lh, hl, hh,
                                                  BoundaryMode::Periodic, kernel, 0, rows / 2);
            });
            rows_ns[in.mix][k].push_back(row_s * 1e9 / px);
            cols_ns[in.mix][k].push_back(col_s * 1e9 / px);
            level_in = std::move(ll);
            cur = &level_in;
        }
        ++seen[in.mix];
    }
    for (std::size_t m = 0; m < kMixCount; ++m) {
        for (int k = 0; k < kMix[m].levels; ++k) {
            const std::string suffix = std::string(kMix[m].label) + ".l" + std::to_string(k);
            set_percentile(r, "kernels.row_ns_px." + suffix, rows_ns[m][k], 0.5, 1.0, "ns");
            set_percentile(r, "kernels.col_ns_px." + suffix, cols_ns[m][k], 0.5, 1.0, "ns");
        }
    }
}

/// decompose_batch, then per member: CRC, digest, cache insert + lookup,
/// both wire legs, and the transport RPC for each leg.
class Pipeline {
public:
    Pipeline(Ctx& ctx, std::uint64_t seed) : ctx_(ctx), transport_(2, seed, 4) {
        transport_.set_handler(0, wire::kRequestTag, [](int, std::span<const std::byte>) {
            wire::AdmitWire admit;
            admit.status = wire::AdmitStatus::Accepted;
            return wire::encode_admit_payload(admit);
        });
        transport_.set_handler(1, wire::kReplyTag, [](int, std::span<const std::byte>) {
            return std::vector<std::byte>{};
        });
    }

    void run_batch(const std::vector<const ReplayInput*>& batch) {
        if (batch.empty()) return;
        const MixEntry& m = kMix[batch.front()->mix];
        const auto fp = FilterPair::daubechies(m.taps);
        const auto kernel = resolved(fp);
        std::vector<const ImageF*> images;
        for (const ReplayInput* in : batch) images.push_back(in->image.get());
        std::vector<Pyramid> pyrs;
        sweep_s_ += ctx_.timed("replay.sweep", batch.front()->request_id, [&] {
            pyrs = wavehpc::wavelet::decompose_batch(images, fp, m.levels,
                                                     BoundaryMode::Periodic, nullptr, kernel,
                                                     nullptr);
        });
        for (std::size_t j = 0; j < batch.size(); ++j) {
            member(*batch[j], m, kernel, std::move(pyrs[j]));
        }
    }

    void finish(Result& r) const {
        const double n = static_cast<double>(requests_);
        r.set("sweep.ms_per_req", n > 0.0 ? sweep_s_ * 1e3 / n : 0.0, "ms");
        set_percentile(r, "cache.crc_us", crc_us_, 0.5, 1.0, "us");
        set_percentile(r, "cache.digest_us", digest_us_, 0.5, 1.0, "us");
        set_percentile(r, "cache.insert_us", insert_us_, 0.5, 1.0, "us");
        set_percentile(r, "cache.lookup_us", lookup_us_, 0.5, 1.0, "us");
        set_percentile(r, "wire.encode_req_us", encode_req_us_, 0.5, 1.0, "us");
        set_percentile(r, "wire.decode_req_us", decode_req_us_, 0.5, 1.0, "us");
        set_percentile(r, "wire.encode_reply_us", encode_reply_us_, 0.5, 1.0, "us");
        set_percentile(r, "wire.decode_reply_us", decode_reply_us_, 0.5, 1.0, "us");
        set_percentile(r, "wire.seal_us", seal_us_, 0.5, 1.0, "us");
        set_percentile(r, "wire.unseal_us", unseal_us_, 0.5, 1.0, "us");
        set_percentile(r, "transport.rpc_us", rpc_us_, 0.5, 1.0, "us");
        r.set("wire.bytes_per_req", n > 0.0 ? bytes_ / n : 0.0, "bytes");
        const auto stats = transport_.stats();
        r.set("transport.frames_per_req",
              n > 0.0 ? static_cast<double>(stats.frames_sent) / n : 0.0, "count");
        r.counters["transport.retransmits_per_req"] =
            n > 0.0 ? static_cast<double>(stats.retransmits) / n : 0.0;
        r.counters["replay.requests"] = n;
        r.gate("replay.cache_lookup", cache_misses_ == 0,
               std::to_string(cache_misses_) + " lookups missed a just-inserted result");
        r.gate("replay.wire_roundtrip", wire_defects_ == 0,
               std::to_string(wire_defects_) + " wire round trips changed the request or reply");
        r.gate("replay.transport", rpc_failures_ == 0,
               std::to_string(rpc_failures_) + " transport RPCs gave up");
    }

private:
    void member(const ReplayInput& in, const MixEntry& m, wavehpc::core::DwtKernel kernel,
                Pyramid pyr) {
        const std::uint64_t rid = in.request_id;
        std::uint32_t crc = 0;
        crc_us_.push_back(1e6 * ctx_.timed("replay.crc", rid,
                                           [&] { crc = wavehpc::svc::pyramid_crc32(pyr); }));
        std::uint64_t lo = 0;
        std::uint64_t hi = 0;
        digest_us_.push_back(1e6 * ctx_.timed("replay.digest", rid, [&] {
            wavehpc::svc::content_digest(*in.image, lo, hi);
        }));
        const auto key = wavehpc::svc::assemble_cache_key(lo, hi, *in.image, m.taps, m.levels,
                                                          BoundaryMode::Periodic, kernel);
        auto owned = std::make_shared<TransformResult>();
        owned->result_bytes = wavehpc::svc::pyramid_bytes(pyr);
        owned->pyramid = std::move(pyr);
        owned->key = key;
        owned->crc32 = crc;
        const std::shared_ptr<const TransformResult> result = owned;
        insert_us_.push_back(1e6 * ctx_.timed("replay.cache.insert", rid,
                                              [&] { cache_.insert(key, result); }));
        std::shared_ptr<const TransformResult> hit;
        lookup_us_.push_back(1e6 * ctx_.timed("replay.cache.lookup", rid,
                                              [&] { hit = cache_.lookup(key); }));
        // A repeated input refreshes the resident entry, which may be an
        // earlier (bit-identical) result object.
        if (!hit || !(hit->key == key) || hit->crc32 != crc) ++cache_misses_;

        TransformRequest req;
        req.image = in.image;
        req.taps = m.taps;
        req.levels = m.levels;
        req.kernel = kernel;
        req.backend = wavehpc::svc::Backend::Serial;
        const auto now = Clock::now();
        std::vector<std::byte> payload;
        encode_req_us_.push_back(1e6 * ctx_.timed("replay.wire.encode_req", rid, [&] {
            payload = wire::encode_request_payload(req, now);
        }));
        wire::Header h;
        h.kind = wire::MsgKind::Request;
        h.src = 1;
        h.dst = 0;
        h.request_id = rid;
        std::vector<std::byte> frame;
        double seal = ctx_.timed("replay.wire.seal", rid, [&] { frame = wire::seal(h, payload); });
        wire::Unsealed opened;
        double unseal =
            ctx_.timed("replay.wire.unseal", rid, [&] { opened = wire::unseal(frame); });
        TransformRequest decoded;
        decode_req_us_.push_back(1e6 * ctx_.timed("replay.wire.decode_req", rid, [&] {
            decoded = wire::decode_request_payload(opened.payload, now);
        }));
        if (!decoded.image || *decoded.image != *in.image) ++wire_defects_;

        TransformReply reply;
        reply.result = result;
        std::vector<std::byte> reply_payload;
        encode_reply_us_.push_back(1e6 * ctx_.timed("replay.wire.encode_reply", rid, [&] {
            reply_payload = wire::encode_reply_payload(reply);
        }));
        wire::Header rh = h;
        rh.kind = wire::MsgKind::Reply;
        rh.src = 0;
        rh.dst = 1;
        std::vector<std::byte> reply_frame;
        seal += ctx_.timed("replay.wire.seal", rid,
                           [&] { reply_frame = wire::seal(rh, reply_payload); });
        wire::Unsealed reply_opened;
        unseal += ctx_.timed("replay.wire.unseal", rid,
                             [&] { reply_opened = wire::unseal(reply_frame); });
        wire::ReplyWire rw;
        decode_reply_us_.push_back(1e6 * ctx_.timed("replay.wire.decode_reply", rid, [&] {
            rw = wire::decode_reply_payload(reply_opened.payload);
        }));
        if (rw.is_error || !rw.reply.result || rw.reply.result->crc32 != crc ||
            !wavehpc::svc::audit_result(*rw.reply.result)) {
            ++wire_defects_;
        }
        seal_us_.push_back(seal * 1e6);
        unseal_us_.push_back(unseal * 1e6);
        bytes_ += static_cast<double>(frame.size() + reply_frame.size());

        bool delivered = false;
        double rpc = ctx_.timed("replay.transport.rpc", rid, [&] {
            delivered = transport_.rpc(1, 0, wire::kRequestTag, frame).has_value();
        });
        if (!delivered) ++rpc_failures_;
        rpc += ctx_.timed("replay.transport.rpc", rid, [&] {
            delivered = transport_.rpc(0, 1, wire::kReplyTag, reply_frame).has_value();
        });
        if (!delivered) ++rpc_failures_;
        rpc_us_.push_back(rpc * 1e6);
        ++requests_;
    }

    Ctx& ctx_;
    wavehpc::svc::ResultCache cache_{64u << 20};
    wavehpc::svc::shard::ShardTransport transport_;
    std::uint64_t requests_ = 0;
    double sweep_s_ = 0.0;
    double bytes_ = 0.0;
    std::vector<double> crc_us_, digest_us_, insert_us_, lookup_us_;
    std::vector<double> encode_req_us_, decode_req_us_, encode_reply_us_, decode_reply_us_;
    std::vector<double> seal_us_, unseal_us_, rpc_us_;
    std::uint64_t cache_misses_ = 0;
    std::uint64_t wire_defects_ = 0;
    std::uint64_t rpc_failures_ = 0;
};

void replay_pipeline(const std::vector<ReplayInput>& inputs, double budget_s, Ctx& ctx,
                     std::uint64_t seed, Result& r) {
    // Batches of up to 4 same-configuration inputs, in recorded order.
    constexpr std::size_t kBatch = 4;
    Pipeline pipeline(ctx, seed);
    std::vector<const ReplayInput*> pending[kMixCount];
    std::size_t batches[kMixCount] = {};
    const Budget budget(budget_s);
    for (const ReplayInput& in : inputs) {
        if (budget.spent() && covered_mixes(batches, 1)) break;
        pending[in.mix].push_back(&in);
        if (pending[in.mix].size() == kBatch) {
            pipeline.run_batch(pending[in.mix]);
            pending[in.mix].clear();
            ++batches[in.mix];
        }
    }
    for (std::size_t m = 0; m < kMixCount; ++m) {
        if (batches[m] == 0) pipeline.run_batch(pending[m]);
    }
    pipeline.finish(r);
}

TransformRequest request_for(const ReplayInput& in, wavehpc::svc::Backend backend) {
    TransformRequest req;
    req.image = in.image;
    req.taps = kMix[in.mix].taps;
    req.levels = kMix[in.mix].levels;
    req.kernel = wavehpc::core::DwtKernel::Auto;
    req.backend = backend;
    return req;
}

void replay_service(const std::vector<ReplayInput>& inputs, double budget_s, Ctx& ctx,
                    wavehpc::runtime::ThreadPool& pool, Result& r) {
    wavehpc::svc::PyramidService service(pool, pinned_service_config(64u << 20, 2));
    ServiceSamples samples;
    const ServiceSnapshot before = snapshot(service);
    const PoolWindow pw = open_pool_window(pool);
    std::uint64_t failed = 0;
    std::size_t n = 0;
    const Budget budget(budget_s);
    for (const ReplayInput& in : inputs) {
        if (budget.spent() && n >= 30) break;
        const std::int64_t t0 = now_ns();
        auto sub = service.submit(request_for(in, wavehpc::svc::Backend::Threads));
        const std::int64_t t1 = now_ns();
        ctx.log.add("replay.svc.submit", t0, t1, ctx.root, in.request_id);
        ++n;
        if (!sub.accepted) {
            ++failed;
            continue;
        }
        try {
            const TransformReply reply = sub.future.get();
            ctx.log.add("replay.svc.reply", t1, now_ns(), ctx.root, in.request_id);
            samples.submit_s.push_back(static_cast<double>(t1 - t0) * 1e-9);
            samples.add_reply(reply);
        } catch (const std::exception&) {
            ++failed;
        }
    }
    close_pool_window(r, pool, pw, n, "replay");
    set_service_layer_metrics(r, samples, before, snapshot(service), "replay");
    service.shutdown();
    r.gate("replay.service", failed == 0,
           std::to_string(failed) + " of " + std::to_string(n) + " replayed submits failed");
}

void replay_cluster(const std::vector<ReplayInput>& inputs, double budget_s, Ctx& ctx,
                    wavehpc::runtime::ThreadPool& pool, Result& r) {
    wavehpc::svc::shard::ShardCluster cluster(pool, pinned_cluster_config());
    ClusterSamples samples;
    const auto wire0 = cluster.wire_stats();
    const auto routed0 = cluster.counters().routed;
    std::uint64_t failed = 0;
    std::size_t n = 0;
    const Budget budget(budget_s);
    for (const ReplayInput& in : inputs) {
        if (budget.spent() && n >= 30) break;
        const std::int64_t t0 = now_ns();
        auto sub = cluster.submit(request_for(in, wavehpc::svc::Backend::Serial));
        const std::int64_t t1 = now_ns();
        ctx.log.add("replay.cluster.submit", t0, t1, ctx.root, in.request_id);
        ++n;
        if (!sub.result.accepted) {
            ++failed;
            continue;
        }
        try {
            const TransformReply reply = sub.result.future.get();
            const std::int64_t t2 = now_ns();
            ctx.log.add("replay.cluster.reply", t1, t2, ctx.root, in.request_id);
            const double latency = static_cast<double>(t2 - t0) * 1e-9;
            const double submit = static_cast<double>(t1 - t0) * 1e-9;
            samples.submit_s.push_back(submit);
            samples.shard_s.push_back(reply.total_seconds);
            samples.reply_leg_s.push_back(residual(latency, {reply.total_seconds, submit}));
        } catch (const std::exception&) {
            ++failed;
        }
    }
    set_cluster_layer_metrics(r, samples, wire0, cluster.wire_stats(),
                              cluster.counters().routed - routed0, "replay");
    cluster.shutdown();
    r.gate("replay.cluster", failed == 0,
           std::to_string(failed) + " of " + std::to_string(n) + " replayed submits failed");
}

void replay_tile(const std::vector<ReplayInput>& inputs, double budget_s, Ctx& ctx,
                 Result& r) {
    constexpr int kTaps = 8;
    constexpr int kLevels = 4;
    const auto fp = FilterPair::daubechies(kTaps);
    wavehpc::svc::BufferArena arena(pinned_arena_config());
    TileTotals totals;
    std::set<const ImageF*> streamed;
    const Budget budget(budget_s);
    for (const ReplayInput& in : inputs) {
        if (budget.spent() && streamed.size() >= 3) break;
        if (!streamed.insert(in.image.get()).second) continue;
        wavehpc::tile::InMemoryTileSource memory(*in.image);
        TimedSource src(memory);
        MeterSink sink(src, in.image->rows() >> kLevels, in.image->cols() >> kLevels, arena);
        const std::int64_t t0 = now_ns();
        const auto stats = wavehpc::tile::stream_decompose(
            src, fp, kLevels, BoundaryMode::Periodic, wavehpc::core::DwtKernel::Auto,
            pinned_tile_config(), sink, &arena);
        const std::int64_t t1 = now_ns();
        ctx.log.add("replay.tile.stream", t0, t1, ctx.root, in.request_id);
        totals.add(static_cast<double>(t1 - t0) * 1e-9, src, sink, stats);
    }
    set_tile_layer_metrics(r, totals, "replay");
}

}  // namespace

void replay_layers(const std::vector<ReplayInput>& inputs, const LiveLayers& live,
                   wavehpc::runtime::ThreadPool& pool, const Options& opt, Tracer& tracer,
                   Result& r) {
    if (inputs.empty()) {
        r.gate("replay.inputs", false, "no recorded requests to replay");
        return;
    }
    // The replay's wall budget, split across the layer groups below.
    const double budget = opt.smoke ? 0.5 : std::clamp(opt.seconds * 0.4, 1.0, 6.0);
    SpanLog& log = tracer.log(kReplaySlot);
    const std::int64_t t0 = now_ns();
    Ctx ctx{log, log.open("replay", t0, 0, 0)};

    Result kernels;
    replay_kernels(inputs, budget * 0.25, ctx, kernels);
    merge_absent(r, kernels, "replay");
    Result pipeline;
    replay_pipeline(inputs, budget * 0.35, ctx, opt.seed, pipeline);
    merge_absent(r, pipeline, "replay");
    if (!live.cluster) {
        Result cluster;
        replay_cluster(inputs, budget * 0.15, ctx, pool, cluster);
        merge_absent(r, cluster, "replay");
    }
    // shard_wire measures the shards' service stamps live but cannot time
    // PyramidService::submit from outside, so it replays the service too.
    if (!live.service) {
        Result service;
        replay_service(inputs, budget * 0.15, ctx, pool, service);
        merge_absent(r, service, "replay");
    }
    if (!live.tile) {
        Result tile;
        replay_tile(inputs, budget * 0.10, ctx, tile);
        merge_absent(r, tile, "replay");
    }
    log.close(ctx.root, now_ns());
    r.counters["replay.seconds"] = seconds_since(t0);
    r.counters["replay.inputs"] = static_cast<double>(inputs.size());
}

}  // namespace wavebench
