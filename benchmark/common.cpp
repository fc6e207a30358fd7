#include "common.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "stats.hpp"
#include "svc/cache.hpp"
#include "tile/source.hpp"

namespace wavebench {

namespace {

const Clock::time_point g_epoch = Clock::now();

}  // namespace

std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - g_epoch)
        .count();
}

double seconds_since(std::int64_t start_ns) {
    return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

// ------------------------------------------------------------------ Result

void Result::set(const std::string& name, double value, const std::string& unit,
                 const std::string& source) {
    metrics[name] = Metric{value, unit, source};
}

bool Result::has(const std::string& name) const { return metrics.count(name) != 0; }

void Result::gate(const std::string& name, bool ok, const std::string& detail) {
    gates.push_back(Gate{name, ok, detail});
}

bool Result::ok() const {
    for (const auto& g : gates) {
        if (!g.ok) return false;
    }
    return true;
}

void set_percentile(Result& r, const std::string& name, const std::vector<double>& samples,
                    double p, double scale, const std::string& unit,
                    const std::string& source) {
    const Percentile q = percentile(samples, p);
    r.set(name, q.value * scale, unit, source);
    r.counters[name + ".samples"] = static_cast<double>(q.samples);
    if (q.fell_back() || q.short_tail) {
        std::ostringstream os;
        os << name << ": " << q.samples << " samples; ";
        if (q.fell_back()) os << "reported p" << q.used * 100.0 << " in place of p" << p * 100.0;
        if (q.fell_back() && q.short_tail) os << ", ";
        if (q.short_tail) os << "fewer than 10 samples beyond p" << q.used * 100.0;
        r.notes.push_back(os.str());
    }
}

// ----------------------------------------------------------------- tracing

std::uint64_t SpanLog::add(const char* name, std::int64_t start_ns, std::int64_t end_ns,
                           std::uint64_t parent, std::uint64_t request_id) {
    const std::uint64_t id = tag_ | next_++;
    spans_.push_back(Span{name, start_ns, end_ns, id, parent, request_id});
    return id;
}

std::uint64_t SpanLog::open(const char* name, std::int64_t start_ns, std::uint64_t parent,
                            std::uint64_t request_id) {
    return add(name, start_ns, start_ns, parent, request_id);
}

void SpanLog::close(std::uint64_t id, std::int64_t end_ns) {
    spans_.at((id & ((std::uint64_t{1} << 40) - 1)) - 1).end_ns = end_ns;
}

SpanLog& Tracer::log(std::size_t slot) {
    while (logs_.size() <= slot) {
        logs_.push_back(std::make_unique<SpanLog>(logs_.size() + 1));
    }
    return *logs_[slot];
}

std::vector<Span> Tracer::all() const {
    std::vector<Span> out;
    for (const auto& l : logs_) {
        out.insert(out.end(), l->spans().begin(), l->spans().end());
    }
    return out;
}

void Tracer::write_jsonl(const std::string& path) const {
    std::ofstream os(path);
    if (!os) throw std::runtime_error("cannot write trace file " + path);
    for (const auto& l : logs_) {
        for (const Span& s : l->spans()) {
            os << "{\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
               << ",\"end_ns\":" << s.end_ns << ",\"id\":" << s.id
               << ",\"parent\":" << s.parent << ",\"request_id\":" << s.request_id
               << "}\n";
        }
    }
}

namespace {

std::unordered_map<std::uint64_t, std::vector<Interval>> children_of(
    const std::vector<Span>& spans) {
    std::unordered_map<std::uint64_t, std::vector<Interval>> kids;
    for (const Span& s : spans) {
        if (s.parent != 0) kids[s.parent].push_back(Interval{s.start_ns, s.end_ns});
    }
    return kids;
}

}  // namespace

std::map<std::string, SelfTime> self_times(const std::vector<Span>& spans) {
    const auto kids = children_of(spans);
    std::map<std::string, SelfTime> out;
    for (const Span& s : spans) {
        const auto it = kids.find(s.id);
        const std::int64_t self = self_time(
            Interval{s.start_ns, s.end_ns},
            it == kids.end() ? std::vector<Interval>{} : it->second);
        auto& t = out[s.name];
        ++t.count;
        t.total_ms += static_cast<double>(s.end_ns - s.start_ns) * 1e-6;
        t.self_ms += static_cast<double>(self) * 1e-6;
    }
    return out;
}

double unattributed_share(const std::vector<Span>& spans, const std::string& root_name) {
    const auto kids = children_of(spans);
    double total = 0.0;
    double uncovered = 0.0;
    for (const Span& s : spans) {
        if (s.parent != 0 || root_name != s.name) continue;
        const auto it = kids.find(s.id);
        total += static_cast<double>(s.end_ns - s.start_ns);
        uncovered += static_cast<double>(self_time(
            Interval{s.start_ns, s.end_ns},
            it == kids.end() ? std::vector<Interval>{} : it->second));
    }
    return total > 0.0 ? uncovered / total : 0.0;
}

void set_trace_overhead(Result& r, double untraced_rate, double traced_rate) {
    r.set("trace.overhead_share", untraced_rate > 0.0 ? 1.0 - traced_rate / untraced_rate : 0.0,
          "ratio");
    r.counters["trace.untraced_rate"] = untraced_rate;
    r.counters["trace.traced_rate"] = traced_rate;
    const bool within = !regressed(untraced_rate, traced_rate, kRateBound, Better::Higher);
    std::ostringstream os;
    os << "trace.overhead_share: the traced half ran at " << traced_rate / untraced_rate
       << "x the untraced half's rate, " << (within ? "within" : "beyond") << " the "
       << kRateBound * 100.0 << "% throughput bound";
    r.notes.push_back(os.str());
}

// --------------------------------------------------------------- workloads

std::size_t pick_mix(wavehpc::testing::SplitMix64& rng) {
    double u = rng.uniform();
    for (std::size_t m = 0; m + 1 < kMixCount; ++m) {
        if (u < kMix[m].weight) return m;
        u -= kMix[m].weight;
    }
    return kMixCount - 1;
}

std::vector<std::shared_ptr<const wavehpc::core::ImageF>> make_scenes(std::size_t edge,
                                                                      std::uint64_t seed,
                                                                      std::size_t n) {
    std::vector<std::shared_ptr<const wavehpc::core::ImageF>> scenes;
    scenes.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        scenes.push_back(std::make_shared<const wavehpc::core::ImageF>(
            wavehpc::tile::SyntheticTileSource(edge, edge,
                                               wavehpc::testing::derive_seed(seed, i))
                .materialize()));
    }
    return scenes;
}

std::vector<wavehpc::core::Pyramid> make_refs(const wavehpc::core::ImageF& scene) {
    std::vector<wavehpc::core::Pyramid> refs;
    for (const MixEntry& m : kMix) {
        const auto fp = wavehpc::core::FilterPair::daubechies(m.taps);
        refs.push_back(wavehpc::core::decompose(
            scene, fp, m.levels, wavehpc::core::BoundaryMode::Periodic,
            wavehpc::core::resolve_dwt_kernel(wavehpc::core::DwtKernel::Auto, fp)));
    }
    return refs;
}

bool pyramids_identical(const wavehpc::core::Pyramid& a, const wavehpc::core::Pyramid& b) {
    if (a.depth() != b.depth()) return false;
    for (std::size_t k = 0; k < a.depth(); ++k) {
        if (a.levels[k].lh != b.levels[k].lh || a.levels[k].hl != b.levels[k].hl ||
            a.levels[k].hh != b.levels[k].hh) {
            return false;
        }
    }
    return a.approx == b.approx;
}

bool AuditMemo::audit(const std::shared_ptr<const wavehpc::svc::TransformResult>& result) {
    if (!result) return false;
    const auto it = seen_.find(result.get());
    if (it != seen_.end() && it->second.lock() == result) return true;
    const bool ok = wavehpc::svc::audit_result(*result);
    if (ok) {
        if (seen_.size() >= 4096) seen_.clear();
        seen_[result.get()] = result;
    }
    return ok;
}

std::vector<ReplayInput> interleave(const std::vector<std::vector<ReplayInput>>& per_client,
                                    std::size_t limit) {
    std::vector<ReplayInput> out;
    for (std::size_t i = 0; out.size() < limit; ++i) {
        bool any = false;
        for (const auto& c : per_client) {
            if (i < c.size() && out.size() < limit) {
                out.push_back(c[i]);
                any = true;
            }
        }
        if (!any) break;
    }
    return out;
}

Tally& Tally::operator+=(const Tally& o) {
    attempted += o.attempted;
    rejected += o.rejected;
    errors += o.errors;
    unresolved += o.unresolved;
    values += o.values;
    verified += o.verified;
    mismatches += o.mismatches;
    crc_escapes += o.crc_escapes;
    return *this;
}

void gate_tally(Result& r, const std::string& label, const Tally& t) {
    r.counters[label + ".verified"] = static_cast<double>(t.verified);
    r.gate(label + ".bit_identity", t.mismatches == 0,
           std::to_string(t.verified) + " scene-0 replies checked, " +
               std::to_string(t.mismatches) + " mismatches");
    r.gate(label + ".crc_audit", t.crc_escapes == 0,
           std::to_string(t.crc_escapes) + " delivered results failed svc::audit_result");
}

PhaseSpec warmup_phase(std::size_t requests, std::uint64_t seed) {
    PhaseSpec ph;
    ph.quota = (requests + client_count() - 1) / client_count();
    ph.seed = seed;
    return ph;
}

PhaseSpec measured_phase(double seconds, std::uint64_t seed, bool traced, std::size_t record) {
    PhaseSpec ph;
    ph.deadline_ns = now_ns() + static_cast<std::int64_t>(seconds * 1e9);
    ph.measured = true;
    ph.traced = traced;
    ph.seed = seed;
    ph.record = record;
    return ph;
}

double peak_rss_mib() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

std::size_t cpu_count() {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
        const int n = CPU_COUNT(&set);
        if (n > 0) return static_cast<std::size_t>(n);
    }
    return std::max(1U, std::thread::hardware_concurrency());
}

std::size_t client_count() { return std::min<std::size_t>(cpu_count(), 4); }

PoolWindow open_pool_window(const wavehpc::runtime::ThreadPool& pool) {
    return PoolWindow{pool.metrics(), now_ns()};
}

void close_pool_window(Result& r, const wavehpc::runtime::ThreadPool& pool,
                       const PoolWindow& w, std::uint64_t requests,
                       const std::string& source) {
    const auto end = pool.metrics();
    const double wall = seconds_since(w.start_ns);
    const double capacity = wall * static_cast<double>(pool.workers());
    const double idle = end.idle_seconds - w.start.idle_seconds;
    r.set("pool.busy_ratio", capacity > 0.0 ? std::max(0.0, 1.0 - idle / capacity) : 0.0,
          "ratio", source);
    r.set("pool.tasks_per_req",
          requests > 0 ? static_cast<double>(end.tasks_executed - w.start.tasks_executed) /
                             static_cast<double>(requests)
                       : 0.0,
          "count", source);
}

}  // namespace wavebench
