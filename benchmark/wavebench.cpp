// wavebench: one end-to-end benchmark for the wavehpc service stack, with
// per-layer timings (README.md).
//
//   wavebench --workload W [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//             [--out PATH] [--trace-out PATH]
//
// W is hot_browse, cold_compute, shard_wire, gigapixel_stream, or all (each
// workload in its own process). --trace 0 measures the end-to-end metrics;
// --trace 1 is the separate traced run that reports the per-layer metrics
// (spans kept in memory, written to --trace-out at exit). Every run checks
// its outputs: any gate failure prints "correct": false and exits 1. The
// last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

#include <spawn.h>
#include <sys/wait.h>

#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string_view>
#include <thread>

#include "common.hpp"

extern char** environ;

namespace wavebench {

namespace {

/// The metric sets BENCHMARK.json declares; a run that cannot produce one
/// of them fails its metrics.complete gate.
const char* const kEndToEnd[] = {"throughput_rps", "latency_p50_ms", "latency_p99_ms",
                                 "stream_mib_s",   "setup_s",        "peak_rss_mib"};

const char* const kPerLayer[] = {
    "kernels.row_ns_px.f8l1.l0", "kernels.col_ns_px.f8l1.l0",
    "kernels.row_ns_px.f4l2.l0", "kernels.col_ns_px.f4l2.l0",
    "kernels.row_ns_px.f4l2.l1", "kernels.col_ns_px.f4l2.l1",
    "kernels.row_ns_px.f2l4.l0", "kernels.col_ns_px.f2l4.l0",
    "kernels.row_ns_px.f2l4.l1", "kernels.col_ns_px.f2l4.l1",
    "kernels.row_ns_px.f2l4.l2", "kernels.col_ns_px.f2l4.l2",
    "kernels.row_ns_px.f2l4.l3", "kernels.col_ns_px.f2l4.l3",
    "sweep.batch_size_mean",     "sweep.ms_per_req",
    "pool.busy_ratio",           "pool.tasks_per_req",
    "svc.submit_us.p50",         "svc.submit_us.p99",
    "svc.queue_ms.p50",          "svc.compute_ms.p50",
    "svc.finish_ms.p50",         "svc.dedup_ratio",
    "cache.hit_ratio",           "cache.lookup_us",
    "cache.insert_us",           "cache.crc_us",
    "cache.digest_us",           "cache.evictions_per_kreq",
    "arena.warm_miss_ratio",     "arena.high_water_mib",
    "wire.encode_req_us",        "wire.decode_req_us",
    "wire.encode_reply_us",      "wire.decode_reply_us",
    "wire.seal_us",              "wire.unseal_us",
    "wire.bytes_per_req",        "transport.rpc_us",
    "transport.frames_per_req",  "cluster.submit_us.p50",
    "cluster.shard_ms.p50",      "cluster.reply_leg_ms.p50",
    "tile.driver_ns_px",         "tile.source_share",
    "tile.sink_share",           "tile.peak_resident_mib",
    "trace.unattributed_share",  "trace.overhead_share",
};

void usage(std::ostream& os) {
    os << "usage: wavebench --workload hot_browse|cold_compute|shard_wire|"
          "gigapixel_stream|all\n"
          "                 [--seed N] [--seconds S] [--trace 0|1] [--smoke]\n"
          "                 [--out PATH] [--trace-out PATH]\n";
}

bool parse_u64(std::string_view s, std::uint64_t& out) {
    const auto [p, ec] = std::from_chars(s.data(), s.data() + s.size(), out);
    return ec == std::errc{} && p == s.data() + s.size();
}

bool parse_args(int argc, char** argv, Options& opt) {
    bool seconds_given = false;
    for (int i = 1; i < argc; ++i) {
        const std::string_view flag = argv[i];
        if (flag == "--smoke") {
            opt.smoke = true;
            continue;
        }
        if (i + 1 >= argc) return false;
        const std::string_view value = argv[++i];
        std::uint64_t n = 0;
        if (flag == "--workload") {
            opt.workload = std::string(value);
        } else if (flag == "--seed" && parse_u64(value, n)) {
            opt.seed = n;
        } else if (flag == "--seconds" && parse_u64(value, n) && n >= 1 && n <= 3600) {
            opt.seconds = static_cast<double>(n);
            seconds_given = true;
        } else if (flag == "--trace" && (value == "0" || value == "1")) {
            opt.trace = value == "1";
        } else if (flag == "--out" && !value.empty()) {
            opt.out_path = std::string(value);
        } else if (flag == "--trace-out" && !value.empty()) {
            opt.trace_path = std::string(value);
        } else {
            return false;
        }
    }
    if (opt.smoke && !seconds_given) opt.seconds = 2.0;
    return !opt.workload.empty();
}

/// The workload runs with the library's built-in defaults only.
const char* wavehpc_env_var() {
    for (char** e = environ; *e != nullptr; ++e) {
        if (std::strncmp(*e, "WAVEHPC_", 8) == 0) return *e;
    }
    return nullptr;
}

std::string json_number(double v) {
    if (!std::isfinite(v)) return "null";
    char buf[64];
    const auto [p, ec] = std::to_chars(buf, buf + sizeof(buf), v);
    return ec == std::errc{} ? std::string(buf, p) : "null";
}

std::string json_string(std::string_view s) {
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char esc[8];
            std::snprintf(esc, sizeof(esc), "\\u%04x", c);
            out += esc;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

/// The result line: exactly the declared metric set of this run kind.
std::string result_line(const Result& r, bool trace) {
    std::ostringstream os;
    os << "{\"correct\": " << (r.ok() ? "true" : "false") << ", \"attempted\": " << r.attempted
       << ", \"failed\": " << r.failed << ", \"metrics\": {";
    bool first = true;
    const auto emit = [&](const char* name) {
        const auto it = r.metrics.find(name);
        if (it == r.metrics.end()) return;
        os << (first ? "" : ", ") << json_string(name) << ": {\"value\": "
           << json_number(it->second.value) << ", \"unit\": " << json_string(it->second.unit)
           << "}";
        first = false;
    };
    if (trace) {
        for (const char* n : kPerLayer) emit(n);
    } else {
        for (const char* n : kEndToEnd) emit(n);
    }
    os << "}}";
    return os.str();
}

void write_result(const std::string& path, const Options& opt, const Result& r,
                  const std::map<std::string, SelfTime>& selfs) {
    std::ofstream os(path);
    if (!os) throw std::runtime_error("cannot write result file " + path);
    os << "{\n  \"bench\": \"wavebench\",\n  \"workload\": " << json_string(opt.workload)
       << ",\n  \"ok\": " << (r.ok() ? "true" : "false") << ",\n  \"seed\": " << opt.seed
       << ",\n  \"seconds\": " << json_number(opt.seconds)
       << ",\n  \"trace\": " << (opt.trace ? "true" : "false")
       << ",\n  \"smoke\": " << (opt.smoke ? "true" : "false")
       << ",\n  \"host\": {\"nproc\": " << cpu_count()
       << ", \"compiler\": " << json_string(WAVEBENCH_COMPILER)
       << ", \"build_type\": " << json_string(WAVEBENCH_BUILD_TYPE)
       << ", \"commit\": " << json_string(WAVEBENCH_GIT_COMMIT) << "}"
       << ",\n  \"attempted\": " << r.attempted << ",\n  \"failed\": " << r.failed
       << ",\n  \"gates\": [";
    for (std::size_t i = 0; i < r.gates.size(); ++i) {
        const Gate& g = r.gates[i];
        os << (i ? ",\n    " : "\n    ") << "{\"name\": " << json_string(g.name)
           << ", \"ok\": " << (g.ok ? "true" : "false")
           << ", \"detail\": " << json_string(g.detail) << "}";
    }
    os << "\n  ],\n  \"metrics\": {";
    bool first = true;
    for (const auto& [name, m] : r.metrics) {
        os << (first ? "\n    " : ",\n    ") << json_string(name)
           << ": {\"value\": " << json_number(m.value) << ", \"unit\": " << json_string(m.unit)
           << ", \"source\": " << json_string(m.source) << "}";
        first = false;
    }
    os << "\n  },\n  \"counters\": {";
    first = true;
    for (const auto& [name, v] : r.counters) {
        os << (first ? "\n    " : ",\n    ") << json_string(name) << ": " << json_number(v);
        first = false;
    }
    os << "\n  },\n  \"notes\": [";
    for (std::size_t i = 0; i < r.notes.size(); ++i) {
        os << (i ? ",\n    " : "\n    ") << json_string(r.notes[i]);
    }
    os << "\n  ],\n  \"self_times\": {";
    first = true;
    for (const auto& [name, t] : selfs) {
        os << (first ? "\n    " : ",\n    ") << json_string(name) << ": {\"count\": " << t.count
           << ", \"total_ms\": " << json_number(t.total_ms)
           << ", \"self_ms\": " << json_number(t.self_ms) << "}";
        first = false;
    }
    os << "\n  }\n}\n";
}

void print_summary(const Options& opt, const Result& r,
                   const std::map<std::string, SelfTime>& selfs) {
    std::cout << "wavebench " << opt.workload << ": seed " << opt.seed << ", "
              << opt.seconds << " s measured, " << (opt.trace ? "traced" : "untraced")
              << (opt.smoke ? ", smoke" : "") << "\n"
              << "host: nproc " << cpu_count() << ", " << WAVEBENCH_COMPILER << ", "
              << WAVEBENCH_BUILD_TYPE << ", commit " << WAVEBENCH_GIT_COMMIT << "\n"
              << "gates:\n";
    for (const Gate& g : r.gates) {
        std::cout << "  [" << (g.ok ? " ok " : "FAIL") << "] " << g.name
                  << (g.detail.empty() ? "" : ": " + g.detail) << "\n";
    }
    std::cout << "metrics:\n";
    for (const auto& [name, m] : r.metrics) {
        std::cout << "  " << std::left << std::setw(30) << name << std::right << std::setw(16)
                  << json_number(m.value) << " " << std::left << std::setw(6) << m.unit
                  << std::right << " (" << m.source << ")\n";
    }
    std::cout << "counters:\n";
    for (const auto& [name, v] : r.counters) {
        std::cout << "  " << std::left << std::setw(36) << name << std::right
                  << json_number(v) << "\n";
    }
    for (const auto& n : r.notes) std::cout << "note: " << n << "\n";
    if (!selfs.empty()) {
        std::cout << "self times (ms):\n  " << std::left << std::setw(28) << "span" << std::right
                  << std::setw(10) << "count" << std::setw(14) << "total" << std::setw(14)
                  << "self" << "\n";
        for (const auto& [name, t] : selfs) {
            std::cout << "  " << std::left << std::setw(28) << name << std::right
                      << std::setw(10) << t.count << std::setw(14) << std::fixed
                      << std::setprecision(3) << t.total_ms << std::setw(14) << t.self_ms
                      << std::defaultfloat << "\n";
        }
    }
}

Result run_workload(const Options& opt, Tracer& tracer) {
    if (opt.workload == "hot_browse" || opt.workload == "cold_compute") {
        return run_service_workload(opt, tracer);
    }
    if (opt.workload == "shard_wire") return run_shard_workload(opt, tracer);
    return run_stream_workload(opt, tracer);
}

/// `--workload all`: every workload in its own process, one after another.
int run_all(const Options& opt) {
    int worst = 0;
    for (const char* w : kWorkloads) {
        std::vector<std::string> args = {"wavebench", "--workload", w,
                                         "--seed", std::to_string(opt.seed),
                                         "--seconds",
                                         std::to_string(static_cast<long>(opt.seconds)),
                                         "--trace", opt.trace ? "1" : "0"};
        if (opt.smoke) args.emplace_back("--smoke");
        if (!opt.out_path.empty()) {
            args.insert(args.end(), {"--out", opt.out_path + "." + w + ".json"});
        }
        if (!opt.trace_path.empty()) {
            args.insert(args.end(), {"--trace-out", opt.trace_path + "." + w + ".jsonl"});
        }
        std::vector<char*> argv;
        for (auto& a : args) argv.push_back(a.data());
        argv.push_back(nullptr);
        std::cout.flush();
        pid_t pid = 0;
        if (posix_spawn(&pid, "/proc/self/exe", nullptr, nullptr, argv.data(), environ) != 0) {
            std::cerr << "wavebench: cannot start the " << w << " process\n";
            return 1;
        }
        int status = 0;
        while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
        }
        const int code = WIFEXITED(status) ? WEXITSTATUS(status) : 1;
        std::cout << "wavebench: " << w << (code == 0 ? " ok" : " FAILED") << "\n";
        worst = std::max(worst, code);
    }
    return worst;
}

}  // namespace

}  // namespace wavebench

int main(int argc, char** argv) {
    using namespace wavebench;
    Options opt;
    if (!parse_args(argc, argv, opt)) {
        usage(std::cerr);
        return 2;
    }
    if (const char* var = wavehpc_env_var()) {
        std::cerr << "wavebench: refusing to run with " << var
                  << " set; every configuration value is pinned in the benchmark\n";
        return 2;
    }
    if (opt.workload == "all") return run_all(opt);
    bool known = false;
    for (const char* w : kWorkloads) known = known || opt.workload == w;
    if (!known) {
        usage(std::cerr);
        return 2;
    }

    Tracer tracer;
    Result r;
    try {
        r = run_workload(opt, tracer);
    } catch (const std::exception& e) {
        std::cerr << "wavebench: " << opt.workload << " failed: " << e.what() << "\n";
        return 1;
    }
    std::string missing;
    const auto check = [&](const char* const* first, const char* const* last) {
        for (auto it = first; it != last; ++it) {
            if (!r.has(*it)) missing += std::string(missing.empty() ? "" : ", ") + *it;
        }
    };
    if (opt.trace) {
        check(std::begin(kPerLayer), std::end(kPerLayer));
    } else {
        check(std::begin(kEndToEnd), std::end(kEndToEnd));
    }
    r.gate("metrics.complete", missing.empty(), missing.empty() ? "" : "missing: " + missing);

    const std::map<std::string, SelfTime> selfs =
        opt.trace ? self_times(tracer.all()) : std::map<std::string, SelfTime>{};
    print_summary(opt, r, selfs);
    try {
        if (!opt.out_path.empty()) write_result(opt.out_path, opt, r, selfs);
        if (opt.trace && !opt.trace_path.empty()) tracer.write_jsonl(opt.trace_path);
    } catch (const std::exception& e) {
        std::cerr << "wavebench: " << e.what() << "\n";
        return 1;
    }
    std::cout << result_line(r, opt.trace) << std::endl;
    return r.ok() ? 0 : 1;
}
