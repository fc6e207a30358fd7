// hot_browse and cold_compute: closed-loop clients driving one
// svc::PyramidService. The two workloads use the same cache layer in
// opposite ways — hot_browse is read-dominated (a cache sized for the hot
// set, ~5% of requests compute), cold_compute is write-dominated (an 8 MiB
// cache under 64 distinct 512x512 scenes, nearly every request computes,
// inserts and evicts) — so a change to one path shows on one workload and
// must not move the other.

#include <deque>

#include "common.hpp"
#include "layers.hpp"

namespace wavebench {

namespace {

using wavehpc::core::ImageF;
using wavehpc::core::Pyramid;
using wavehpc::runtime::ThreadPool;
using wavehpc::svc::PyramidService;
using wavehpc::svc::TransformReply;
using wavehpc::svc::TransformRequest;

struct Shape {
    std::size_t edge = 0;
    std::size_t hot_scenes = 0;   ///< 0: every scene is drawn uniformly
    std::size_t cold_scenes = 0;
    double hot_share = 0.0;       ///< traffic share of the hot pool
    std::size_t window = 0;       ///< in-flight futures per client
    std::uint64_t cache_bytes = 0;
    std::size_t warmup_requests = 0;
    std::uint64_t verify_every = 1;  ///< check every n-th scene-0 reply
};

Shape shape_for(const Options& opt) {
    Shape s;
    if (opt.workload == "hot_browse") {
        s.edge = 256;
        s.hot_scenes = 8;
        s.cold_scenes = 24;
        s.hot_share = 0.8;
        s.window = 12;
        // A cached pyramid holds as many floats as its scene: room for every
        // hot key plus two thirds of the cold keys, so cold traffic keeps
        // missing and evicting at a steady clip.
        const std::uint64_t entry = s.edge * s.edge * sizeof(float);
        s.cache_bytes = entry * (s.hot_scenes * kMixCount + 2 * s.cold_scenes);
        s.warmup_requests = opt.smoke ? 4000 : 40000;
        s.verify_every = 32;
    } else {
        s.edge = 512;
        s.cold_scenes = 64;
        s.window = 4;
        s.cache_bytes = 8u << 20;
        s.warmup_requests = opt.smoke ? 40 : 200;
    }
    return s;
}

struct Setup {
    std::vector<std::shared_ptr<const ImageF>> scenes;  ///< hot pool first, then cold
    std::vector<Pyramid> refs;                          ///< scene 0, per mix entry
    std::unique_ptr<ThreadPool> pool;
    std::unique_ptr<PyramidService> service;  ///< after pool: drained first
};

struct ClientOut {
    Tally tally;
    std::vector<double> latency_s;  ///< reply.total_seconds
    ServiceSamples svc;
    std::vector<ReplayInput> recorded;
};

struct Pending {
    wavehpc::svc::TransformFuture future;
    std::size_t scene = 0;
    std::size_t mix = 0;
    std::uint64_t request_id = 0;
    std::int64_t t0 = 0;  ///< submit() entry
    std::int64_t t1 = 0;  ///< submit() return
};

void record_reply_spans(SpanLog& log, const Pending& p, const TransformReply& reply,
                        std::int64_t done_ns) {
    const std::uint64_t root = log.add("client.request", p.t0, done_ns, 0, p.request_id);
    log.add("svc.submit", p.t0, p.t1, root, p.request_id);
    const auto at = [&](double s) { return p.t0 + static_cast<std::int64_t>(s * 1e9); };
    if (reply.shared_flight) {
        log.add("svc.joined", p.t0, at(reply.total_seconds), root, p.request_id);
    } else if (reply.compute_seconds > 0.0) {
        const double q = reply.queue_seconds;
        const double qc = q + reply.compute_seconds;
        log.add("svc.queue", p.t0, at(q), root, p.request_id);
        log.add("svc.compute", at(q), at(qc), root, p.request_id);
        log.add("svc.finish", at(qc), at(std::max(qc, reply.total_seconds)), root,
                p.request_id);
    } else {
        log.add("svc.hit", p.t0, at(reply.total_seconds), root, p.request_id);
    }
}

void client_loop(const Shape& shape, Setup& st, std::size_t c, const PhaseSpec& ph,
                 ClientOut& out, SpanLog* log) {
    wavehpc::testing::SplitMix64 rng(wavehpc::testing::derive_seed(ph.seed, c));
    std::deque<Pending> window;
    AuditMemo audit;
    std::uint64_t scene0_seen = 0;

    const auto drain_one = [&] {
        Pending p = std::move(window.front());
        window.pop_front();
        if (p.future.wait_for(std::chrono::seconds(30)) != std::future_status::ready) {
            ++out.tally.unresolved;
            return;
        }
        TransformReply reply;
        try {
            reply = p.future.get();
        } catch (const std::exception&) {
            ++out.tally.errors;
            return;
        }
        const std::int64_t done = now_ns();
        ++out.tally.values;
        if (!audit.audit(reply.result)) ++out.tally.crc_escapes;
        if (p.scene == 0 && scene0_seen++ % shape.verify_every == 0) {
            ++out.tally.verified;
            if (!pyramids_identical(reply.result->pyramid, st.refs[p.mix])) {
                ++out.tally.mismatches;
            }
        }
        if (!ph.measured) return;
        out.latency_s.push_back(reply.total_seconds);
        out.svc.submit_s.push_back(static_cast<double>(p.t1 - p.t0) * 1e-9);
        out.svc.add_reply(reply);
        if (log != nullptr) record_reply_spans(*log, p, reply, done);
    };

    for (std::uint64_t i = 0;; ++i) {
        if (ph.quota != 0 && i >= ph.quota) break;
        if (ph.deadline_ns != 0 && now_ns() >= ph.deadline_ns) break;
        std::size_t scene = 0;
        if (shape.hot_scenes == 0) {
            scene = rng.below(shape.cold_scenes);
        } else if (rng.uniform() < shape.hot_share) {
            // Scene 0 takes half of the hot mass.
            scene = rng.uniform() < 0.5 ? 0 : rng.below(shape.hot_scenes);
        } else {
            scene = shape.hot_scenes + rng.below(shape.cold_scenes);
        }
        const std::size_t mix = pick_mix(rng);
        TransformRequest req;
        req.image = st.scenes[scene];
        req.taps = kMix[mix].taps;
        req.levels = kMix[mix].levels;
        req.kernel = wavehpc::core::DwtKernel::Auto;
        req.backend = wavehpc::svc::Backend::Threads;
        Pending p;
        p.scene = scene;
        p.mix = mix;
        p.request_id = ((c + 1) << 40) | i;
        p.t0 = now_ns();
        auto sub = st.service->submit(req);
        p.t1 = now_ns();
        ++out.tally.attempted;
        if (!sub.accepted) {
            ++out.tally.rejected;
            if (!window.empty()) drain_one();
            continue;
        }
        if (out.recorded.size() < ph.record) {
            out.recorded.push_back(ReplayInput{req.image, mix, p.request_id});
        }
        p.future = std::move(sub.future);
        window.push_back(std::move(p));
        if (window.size() >= shape.window) drain_one();
    }
    while (!window.empty()) drain_one();
}

}  // namespace

Result run_service_workload(const Options& opt, Tracer& tracer) {
    Result r;
    const Shape shape = shape_for(opt);

    auto st = timed_setup<Setup>(r, opt, [&] {
        auto s = std::make_unique<Setup>();
        s->scenes = make_scenes(shape.edge, wavehpc::testing::derive_seed(opt.seed, 1),
                                shape.hot_scenes + shape.cold_scenes);
        s->refs = make_refs(*s->scenes[0]);
        s->pool = std::make_unique<ThreadPool>(cpu_count());
        s->service = std::make_unique<PyramidService>(
            *s->pool, pinned_service_config(shape.cache_bytes, 2));
        return s;
    });
    const auto run = [&](const PhaseSpec& ph) {
        return run_phase<ClientOut>(ph, tracer,
                                    [&](std::size_t c, ClientOut& out, SpanLog* log) {
                                        client_loop(shape, *st, c, ph, out, log);
                                    });
    };

    const auto warm = run(warmup_phase(shape.warmup_requests,
                                       wavehpc::testing::derive_seed(opt.seed, 2)));
    r.gate("warmup.failed", warm.tally().failed() == 0,
           std::to_string(warm.tally().failed()) + " warm-up requests failed");
    gate_tally(r, "warmup", warm.tally());

    const std::uint64_t measured_seed = wavehpc::testing::derive_seed(opt.seed, 3);
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
        const double scene_mib =
            static_cast<double>(shape.edge * shape.edge * sizeof(float)) / (1 << 20);
        r.set("stream_mib_s", ph.throughput() * scene_mib, "MiB/s");
        r.counters["measured.values"] = static_cast<double>(t.values);
        r.counters["measured.wall_s"] = ph.wall;
        st->service->shutdown();
        r.set("peak_rss_mib", peak_rss_mib(), "MiB");
        return r;
    }

    // Traced run: an untraced half, then a traced half (the difference is
    // the tracing overhead), then the layer replay.
    const auto plain = run(measured_phase(opt.seconds / 2, measured_seed, false, 0));
    const ServiceSnapshot before = snapshot(*st->service);
    const PoolWindow pw = open_pool_window(*st->pool);
    const auto traced = run(measured_phase(opt.seconds / 2,
                                           wavehpc::testing::derive_seed(opt.seed, 4), true,
                                           2000 / client_count() + 1));
    close_pool_window(r, *st->pool, pw, traced.tally().attempted, "live");
    ServiceSamples samples;
    std::vector<std::vector<ReplayInput>> recorded;
    for (const auto& c : traced.clients) {
        samples.append(c.svc);
        recorded.push_back(c.recorded);
    }
    set_service_layer_metrics(r, samples, before, snapshot(*st->service), "live");
    gate_tally(r, "measured", plain.tally());
    gate_tally(r, "traced", traced.tally());
    r.attempted = plain.tally().attempted + traced.tally().attempted;
    r.failed = plain.tally().failed() + traced.tally().failed();
    set_trace_overhead(r, plain.throughput(), traced.throughput());

    LiveLayers live;
    live.service = true;
    replay_layers(interleave(recorded, 2000), live, *st->pool, opt, tracer, r);
    st->service->shutdown();
    r.set("trace.unattributed_share", unattributed_share(tracer.all(), "client.request"),
          "ratio");
    return r;
}

}  // namespace wavebench
