#pragma once
// Shared plumbing of the wavebench workloads: options, the result record
// (metrics, gates, counters), the in-memory span tracer, the Table-1
// request mix, and the small helpers every workload uses.

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/dwt.hpp"
#include "core/image.hpp"
#include "runtime/thread_pool.hpp"
#include "svc/request.hpp"
#include "testing/seeds.hpp"

namespace wavebench {

using Clock = std::chrono::steady_clock;

/// Nanoseconds since process start (the span time base).
[[nodiscard]] std::int64_t now_ns();
[[nodiscard]] double seconds_since(std::int64_t start_ns);

struct Options {
    std::string workload;
    std::uint64_t seed = 1996;
    double seconds = 10.0;   ///< measured phase length
    bool trace = false;      ///< traced run: per-layer metrics instead of end-to-end
    bool smoke = false;      ///< short run, same gates
    std::string out_path;    ///< result JSON ("" = not written)
    std::string trace_path;  ///< span JSON lines ("" = not written)
};

/// The four workloads, in the order `--workload all` runs them.
inline const char* const kWorkloads[] = {"hot_browse", "cold_compute", "shard_wire",
                                         "gigapixel_stream"};

struct Metric {
    double value = 0.0;
    std::string unit;
    std::string source;  ///< "live" (measured traffic) or "replay" (layer replay)
};

struct Gate {
    std::string name;
    bool ok = true;
    std::string detail;
};

/// Everything one workload run reports.
struct Result {
    std::map<std::string, Metric> metrics;
    /// Sample counts and health counters: printed and written, but not
    /// part of the result line's metric set.
    std::map<std::string, double> counters;
    std::vector<Gate> gates;
    std::vector<std::string> notes;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    void set(const std::string& name, double value, const std::string& unit,
             const std::string& source = "live");
    [[nodiscard]] bool has(const std::string& name) const;
    void gate(const std::string& name, bool ok, const std::string& detail = "");
    [[nodiscard]] bool ok() const;
};

/// Percentile metric `name` from `samples` scaled by `scale`, following the
/// tail rule (stats.hpp); records the sample count and a note when the
/// requested percentile had to fall back.
void set_percentile(Result& r, const std::string& name, const std::vector<double>& samples,
                    double p, double scale, const std::string& unit,
                    const std::string& source = "live");

// ------------------------------------------------------------------ tracing

struct Span {
    const char* name = "";  ///< static string
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::uint64_t id = 0;
    std::uint64_t parent = 0;  ///< 0 = root
    std::uint64_t request_id = 0;
};

/// One thread's span buffer; no locking, each thread owns its log.
class SpanLog {
public:
    explicit SpanLog(std::uint64_t thread_tag) : tag_(thread_tag << 40) {}

    /// Record a finished span; returns its id (for children).
    std::uint64_t add(const char* name, std::int64_t start_ns, std::int64_t end_ns,
                      std::uint64_t parent, std::uint64_t request_id);
    /// Start a span whose children are recorded before it ends.
    std::uint64_t open(const char* name, std::int64_t start_ns, std::uint64_t parent,
                       std::uint64_t request_id);
    void close(std::uint64_t id, std::int64_t end_ns);

    [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }

private:
    std::uint64_t tag_;
    std::uint64_t next_ = 1;
    std::vector<Span> spans_;
};

/// Spans kept in memory for the whole run and written out at exit.
class Tracer {
public:
    /// The log for thread slot `slot` (created on first use; call from the
    /// main thread before the workers start).
    SpanLog& log(std::size_t slot);

    [[nodiscard]] std::vector<Span> all() const;
    void write_jsonl(const std::string& path) const;

private:
    std::vector<std::unique_ptr<SpanLog>> logs_;
};

struct SelfTime {
    std::uint64_t count = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;
};

/// Per span name: count, summed duration and summed self time.
[[nodiscard]] std::map<std::string, SelfTime> self_times(const std::vector<Span>& spans);

/// Share of the root spans named `root_name` that no child covers
/// (summed uncovered time over summed root time).
[[nodiscard]] double unattributed_share(const std::vector<Span>& spans,
                                        const std::string& root_name);

/// The throughput bound of BENCHMARK.json (throughput_rps, stream_mib_s).
inline constexpr double kRateBound = 0.25;

/// trace.overhead_share from the untraced and traced halves' rates (requests
/// or MiB per second), plus a note saying whether the traced half would
/// count as a throughput regression — if so, its layer numbers were taken
/// under a load the untraced run does not see.
void set_trace_overhead(Result& r, double untraced_rate, double traced_rate);

// --------------------------------------------------------------- workloads

/// Table 1's three (filter, levels) configurations and their traffic share.
struct MixEntry {
    int taps;
    int levels;
    const char* label;
    double weight;
};
inline constexpr MixEntry kMix[] = {
    {8, 1, "f8l1", 0.40},
    {4, 2, "f4l2", 0.35},
    {2, 4, "f2l4", 0.25},
};
inline constexpr std::size_t kMixCount = sizeof(kMix) / sizeof(kMix[0]);

[[nodiscard]] std::size_t pick_mix(wavehpc::testing::SplitMix64& rng);

/// `n` edge x edge scenes from tile::SyntheticTileSource (the gigapixel
/// workload's generator; DWT cost does not depend on the pixels), seeded
/// from `seed`.
[[nodiscard]] std::vector<std::shared_ptr<const wavehpc::core::ImageF>> make_scenes(
    std::size_t edge, std::uint64_t seed, std::size_t n);

/// Out-of-band references: core::decompose of `scene` for every mix entry,
/// with the kernel the service resolves Auto to.
[[nodiscard]] std::vector<wavehpc::core::Pyramid> make_refs(
    const wavehpc::core::ImageF& scene);

[[nodiscard]] bool pyramids_identical(const wavehpc::core::Pyramid& a,
                                      const wavehpc::core::Pyramid& b);

/// Runs svc::audit_result once per distinct delivered result object: a
/// result is immutable and shared by every cache hit on it, so re-auditing
/// the same bytes per delivery would make the client's CRC pass the
/// workload's bottleneck. A recycled address is re-audited (the weak_ptr
/// identity check, as in svc::DigestMemo).
class AuditMemo {
public:
    /// True when the result's coefficients match its recorded CRC.
    bool audit(const std::shared_ptr<const wavehpc::svc::TransformResult>& result);

private:
    std::unordered_map<const wavehpc::svc::TransformResult*,
                       std::weak_ptr<const wavehpc::svc::TransformResult>>
        seen_;
};

/// One request's inputs, kept for the layer replay of a traced run.
struct ReplayInput {
    std::shared_ptr<const wavehpc::core::ImageF> image;
    std::size_t mix = 0;
    std::uint64_t request_id = 0;
};

/// Interleave per-client request records into one list of at most `limit`.
[[nodiscard]] std::vector<ReplayInput> interleave(
    const std::vector<std::vector<ReplayInput>>& per_client, std::size_t limit);

/// Maximum resident set size of this process so far, MiB.
[[nodiscard]] double peak_rss_mib();

/// CPUs this process may run on (what `nproc` prints).
[[nodiscard]] std::size_t cpu_count();

/// Client threads of the service and shard workloads: min(nproc, 4).
[[nodiscard]] std::size_t client_count();

// ------------------------------------------------------ closed-loop clients

/// One client's request outcomes and output checks in one phase.
struct Tally {
    std::uint64_t attempted = 0;   ///< submit calls
    std::uint64_t rejected = 0;    ///< submits the service refused
    std::uint64_t errors = 0;      ///< futures that resolved with an exception
    std::uint64_t unresolved = 0;  ///< futures still pending after 30 s
    std::uint64_t values = 0;      ///< replies delivered with a value
    std::uint64_t verified = 0;    ///< scene-0 replies compared with the reference
    std::uint64_t mismatches = 0;  ///< ...that differed from it
    std::uint64_t crc_escapes = 0; ///< delivered results failing svc::audit_result

    [[nodiscard]] std::uint64_t failed() const { return rejected + errors + unresolved; }
    Tally& operator+=(const Tally& o);
};

/// Gates on a phase's tally: bit identity and the CRC audit.
void gate_tally(Result& r, const std::string& label, const Tally& t);

/// What a client phase runs: a request quota (warm-up) or a deadline.
struct PhaseSpec {
    std::size_t quota = 0;         ///< requests per client (0 = until the deadline)
    std::int64_t deadline_ns = 0;  ///< stop issuing at this time (0 = none)
    bool measured = false;         ///< keep latency and layer samples
    bool traced = false;           ///< record spans
    std::uint64_t seed = 0;
    std::size_t record = 0;        ///< requests per client kept for the replay
};

/// `requests` split across the clients, nothing measured.
[[nodiscard]] PhaseSpec warmup_phase(std::size_t requests, std::uint64_t seed);
/// `seconds` from now; `record` requests per client kept for the replay.
[[nodiscard]] PhaseSpec measured_phase(double seconds, std::uint64_t seed, bool traced,
                                       std::size_t record);

/// The clients' outputs of one phase and its wall time. `ClientOut` has a
/// `Tally tally` and a `std::vector<ReplayInput> recorded`.
template <typename ClientOut>
struct PhaseOut {
    std::vector<ClientOut> clients;
    double wall = 0.0;

    [[nodiscard]] Tally tally() const {
        Tally t;
        for (const auto& c : clients) t += c.tally;
        return t;
    }
    [[nodiscard]] double throughput() const {
        return wall > 0.0 ? static_cast<double>(tally().values) / wall : 0.0;
    }
};

/// Runs `loop(client, out, log)` on client_count() threads (log is null
/// unless the phase is traced) and rethrows the first client exception.
template <typename ClientOut, typename Loop>
PhaseOut<ClientOut> run_phase(const PhaseSpec& ph, Tracer& tracer, Loop&& loop) {
    const std::size_t n = client_count();
    PhaseOut<ClientOut> out;
    out.clients.resize(n);
    std::vector<SpanLog*> logs(n, nullptr);
    if (ph.traced) {
        for (std::size_t c = 0; c < n; ++c) logs[c] = &tracer.log(c);
    }
    std::vector<std::exception_ptr> crashed(n);
    const std::int64_t start = now_ns();
    {
        std::vector<std::thread> threads;
        struct Joiner {
            std::vector<std::thread>& threads;
            ~Joiner() {
                for (auto& t : threads) {
                    if (t.joinable()) t.join();
                }
            }
        } joiner{threads};
        for (std::size_t c = 0; c < n; ++c) {
            threads.emplace_back([&, c] {
                try {
                    loop(c, out.clients[c], logs[c]);
                } catch (...) {
                    crashed[c] = std::current_exception();
                }
            });
        }
    }
    out.wall = seconds_since(start);
    for (const auto& e : crashed) {
        if (e) std::rethrow_exception(e);
    }
    return out;
}

/// Runs `setup` `repeats` times, keeps the last result, and records the
/// median duration as setup_s (earlier results are destroyed before the
/// next repetition starts, so set-up memory is not counted twice).
template <typename T, typename Fn>
std::unique_ptr<T> timed_setup(Result& r, const Options& opt, Fn&& setup) {
    const int repeats = opt.trace ? 1 : 7;
    std::vector<double> durations;
    std::unique_ptr<T> kept;
    for (int i = 0; i < repeats; ++i) {
        kept.reset();
        const std::int64_t t0 = now_ns();
        kept = setup();
        durations.push_back(seconds_since(t0));
    }
    std::sort(durations.begin(), durations.end());
    r.set("setup_s", durations[durations.size() / 2], "s");
    r.counters["setup.repeats"] = static_cast<double>(repeats);
    r.counters["setup.min_s"] = durations.front();
    r.counters["setup.max_s"] = durations.back();
    return kept;
}

/// Pool counters over a measured region.
struct PoolWindow {
    wavehpc::runtime::PoolMetrics start;
    std::int64_t start_ns = 0;
};
[[nodiscard]] PoolWindow open_pool_window(const wavehpc::runtime::ThreadPool& pool);
/// Sets pool.busy_ratio and pool.tasks_per_req for the window.
void close_pool_window(Result& r, const wavehpc::runtime::ThreadPool& pool,
                       const PoolWindow& w, std::uint64_t requests,
                       const std::string& source);

// Workload entry points (one per translation unit).
Result run_service_workload(const Options& opt, Tracer& tracer);
Result run_shard_workload(const Options& opt, Tracer& tracer);
Result run_stream_workload(const Options& opt, Tracer& tracer);

/// Which layers the workload's own traffic already measured, so the replay
/// skips re-running them.
struct LiveLayers {
    bool service = false;
    bool cluster = false;
    bool tile = false;
};

/// The traced run's layer replay: drives `inputs` through each public
/// layer function on this thread, setting every per-layer metric the live
/// phase did not. `pool` serves the service and cluster replays.
void replay_layers(const std::vector<ReplayInput>& inputs, const LiveLayers& live,
                   wavehpc::runtime::ThreadPool& pool, const Options& opt,
                   Tracer& tracer, Result& r);

}  // namespace wavebench
