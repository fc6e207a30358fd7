// shard_wire: synchronous clients (window 1) driving a 4-shard
// svc::shard::ShardCluster. Per-request compute on a 192x192 scene is
// sub-millisecond, so the request leg (encode, seal, ARQ, admission), the
// transport lock and the reply pump dominate — the compute-bound shard
// phase, where bench_shard_sweep's sleep-pinned router measures only
// routing overhead.

#include "common.hpp"
#include "layers.hpp"
#include "stats.hpp"

namespace wavebench {

namespace {

using wavehpc::core::ImageF;
using wavehpc::core::Pyramid;
using wavehpc::runtime::ThreadPool;
using wavehpc::svc::TransformReply;
using wavehpc::svc::TransformRequest;
using wavehpc::svc::shard::ShardCluster;

constexpr std::size_t kEdge = 192;
constexpr std::size_t kScenes = 256;

struct Setup {
    std::vector<std::shared_ptr<const ImageF>> scenes;
    std::vector<Pyramid> refs;  ///< scene 0, per mix entry
    std::unique_ptr<ThreadPool> pool;
    std::unique_ptr<ShardCluster> cluster;  ///< after pool: drained first
};

struct ClientOut {
    Tally tally;
    std::vector<double> latency_s;  ///< submit() entry to get() return
    ClusterSamples cluster;
    ServiceSamples svc;             ///< the shards' own reply stamps
    std::vector<ReplayInput> recorded;
};

void record_spans(SpanLog& log, std::uint64_t rid, std::int64_t t0, std::int64_t t1,
                  std::int64_t t2, const TransformReply& reply) {
    const std::uint64_t root = log.add("client.request", t0, t2, 0, rid);
    log.add("cluster.submit", t0, t1, root, rid);
    // The shard's stamps start inside cluster.submit (its admission runs
    // during the request RPC); the span is placed after the request leg.
    const auto at = [&](double s) { return t1 + static_cast<std::int64_t>(s * 1e9); };
    const std::uint64_t shard = log.add("shard.service", t1, at(reply.total_seconds), root, rid);
    if (reply.compute_seconds > 0.0 && !reply.shared_flight) {
        const double q = reply.queue_seconds;
        const double qc = q + reply.compute_seconds;
        log.add("svc.queue", t1, at(q), shard, rid);
        log.add("svc.compute", at(q), at(qc), shard, rid);
        log.add("svc.finish", at(qc), at(std::max(qc, reply.total_seconds)), shard, rid);
    }
}

void client_loop(Setup& st, std::size_t c, const PhaseSpec& ph, ClientOut& out,
                 SpanLog* log) {
    wavehpc::testing::SplitMix64 rng(wavehpc::testing::derive_seed(ph.seed, c));
    AuditMemo audit;
    for (std::uint64_t i = 0;; ++i) {
        if (ph.quota != 0 && i >= ph.quota) break;
        if (ph.deadline_ns != 0 && now_ns() >= ph.deadline_ns) break;
        const std::size_t scene = rng.below(kScenes);
        const std::size_t mix = pick_mix(rng);
        TransformRequest req;
        req.image = st.scenes[scene];
        req.taps = kMix[mix].taps;
        req.levels = kMix[mix].levels;
        req.kernel = wavehpc::core::DwtKernel::Auto;
        req.backend = wavehpc::svc::Backend::Serial;
        const std::uint64_t rid = ((c + 1) << 40) | i;
        const std::int64_t t0 = now_ns();
        auto sub = st.cluster->submit(req);
        const std::int64_t t1 = now_ns();
        ++out.tally.attempted;
        if (!sub.result.accepted) {
            ++out.tally.rejected;
            continue;
        }
        if (out.recorded.size() < ph.record) {
            out.recorded.push_back(ReplayInput{req.image, mix, rid});
        }
        auto& future = sub.result.future;
        if (future.wait_for(std::chrono::seconds(30)) != std::future_status::ready) {
            ++out.tally.unresolved;
            continue;
        }
        TransformReply reply;
        try {
            reply = future.get();
        } catch (const std::exception&) {
            ++out.tally.errors;
            continue;
        }
        const std::int64_t t2 = now_ns();
        ++out.tally.values;
        if (!audit.audit(reply.result)) ++out.tally.crc_escapes;
        if (scene == 0) {
            ++out.tally.verified;
            if (!pyramids_identical(reply.result->pyramid, st.refs[mix])) {
                ++out.tally.mismatches;
            }
        }
        if (!ph.measured) continue;
        const double latency = static_cast<double>(t2 - t0) * 1e-9;
        const double submit = static_cast<double>(t1 - t0) * 1e-9;
        out.latency_s.push_back(latency);
        out.cluster.submit_s.push_back(submit);
        out.cluster.shard_s.push_back(reply.total_seconds);
        out.cluster.reply_leg_s.push_back(residual(latency, {reply.total_seconds, submit}));
        out.svc.add_reply(reply);
        if (log != nullptr) record_spans(*log, rid, t0, t1, t2, reply);
    }
}

}  // namespace

Result run_shard_workload(const Options& opt, Tracer& tracer) {
    Result r;

    auto st = timed_setup<Setup>(r, opt, [&] {
        auto s = std::make_unique<Setup>();
        s->scenes = make_scenes(kEdge, wavehpc::testing::derive_seed(opt.seed, 1), kScenes);
        s->refs = make_refs(*s->scenes[0]);
        s->pool = std::make_unique<ThreadPool>(cpu_count());
        s->cluster = std::make_unique<ShardCluster>(*s->pool, pinned_cluster_config());
        return s;
    });
    const auto run = [&](const PhaseSpec& ph) {
        return run_phase<ClientOut>(ph, tracer,
                                    [&](std::size_t c, ClientOut& out, SpanLog* log) {
                                        client_loop(*st, c, ph, out, log);
                                    });
    };

    const auto warm =
        run(warmup_phase(opt.smoke ? 40 : 200, wavehpc::testing::derive_seed(opt.seed, 2)));
    r.gate("warmup.failed", warm.tally().failed() == 0,
           std::to_string(warm.tally().failed()) + " warm-up requests failed");
    gate_tally(r, "warmup", warm.tally());

    const std::uint64_t measured_seed = wavehpc::testing::derive_seed(opt.seed, 3);
    const auto failovers0 = st->cluster->counters().failovers;
    if (!opt.trace) {
        const auto ph = run(measured_phase(opt.seconds, measured_seed, false, 0));
        const Tally t = ph.tally();
        gate_tally(r, "measured", t);
        r.attempted = t.attempted;
        r.failed = t.failed();
        std::vector<double> latency;
        for (const auto& c : ph.clients) {
            latency.insert(latency.end(), c.latency_s.begin(), c.latency_s.end());
        }
        r.set("throughput_rps", ph.throughput(), "1/s");
        set_percentile(r, "latency_p50_ms", latency, 0.50, 1e3, "ms");
        set_percentile(r, "latency_p99_ms", latency, 0.99, 1e3, "ms");
        const double scene_mib = static_cast<double>(kEdge * kEdge * sizeof(float)) / (1 << 20);
        r.set("stream_mib_s", ph.throughput() * scene_mib, "MiB/s");
        r.counters["measured.values"] = static_cast<double>(t.values);
        r.counters["measured.wall_s"] = ph.wall;
        r.counters["cluster.failovers"] =
            static_cast<double>(st->cluster->counters().failovers - failovers0);
        st->cluster->shutdown();
        r.set("peak_rss_mib", peak_rss_mib(), "MiB");
        return r;
    }

    const auto plain = run(measured_phase(opt.seconds / 2, measured_seed, false, 0));
    const ServiceSnapshot before = snapshot(*st->cluster);
    const auto wire0 = st->cluster->wire_stats();
    const auto routed0 = st->cluster->counters().routed;
    const PoolWindow pw = open_pool_window(*st->pool);
    const auto traced = run(measured_phase(opt.seconds / 2,
                                           wavehpc::testing::derive_seed(opt.seed, 4), true,
                                           2000 / client_count() + 1));
    close_pool_window(r, *st->pool, pw, traced.tally().attempted, "live");
    ServiceSamples svc;
    ClusterSamples cl;
    std::vector<std::vector<ReplayInput>> recorded;
    const auto cat = [](std::vector<double>& a, const std::vector<double>& b) {
        a.insert(a.end(), b.begin(), b.end());
    };
    for (const auto& c : traced.clients) {
        svc.append(c.svc);
        cat(cl.submit_s, c.cluster.submit_s);
        cat(cl.shard_s, c.cluster.shard_s);
        cat(cl.reply_leg_s, c.cluster.reply_leg_s);
        recorded.push_back(c.recorded);
    }
    set_service_layer_metrics(r, svc, before, snapshot(*st->cluster), "live");
    set_cluster_layer_metrics(r, cl, wire0, st->cluster->wire_stats(),
                              st->cluster->counters().routed - routed0, "live");
    r.counters["cluster.failovers"] =
        static_cast<double>(st->cluster->counters().failovers - failovers0);
    gate_tally(r, "measured", plain.tally());
    gate_tally(r, "traced", traced.tally());
    r.attempted = plain.tally().attempted + traced.tally().attempted;
    r.failed = plain.tally().failed() + traced.tally().failed();
    set_trace_overhead(r, plain.throughput(), traced.throughput());

    // The shards' submit() runs inside the request RPC where a client cannot
    // time it, so the replay also runs the service layer.
    LiveLayers live;
    live.cluster = true;
    replay_layers(interleave(recorded, 2000), live, *st->pool, opt, tracer, r);
    st->cluster->shutdown();
    r.set("trace.unattributed_share", unattributed_share(tracer.all(), "client.request"),
          "ratio");
    return r;
}

}  // namespace wavebench
