// google-benchmark microbenchmarks of the host wavelet kernels: sequential
// vs thread-pool decomposition, per filter size, plus the Convolve row and
// column passes and the convolve-vs-lifting kernel comparison.
//
// Takes the shared bench knobs (--seed / --size / --smoke, common_args.hpp)
// ahead of the usual --benchmark_* flags; --smoke shrinks min_time so CI
// can pipeline-check the binary without measuring anything.
//
// Extra flags (via the shared parser's hook):
//   --json PATH        write the per-kernel ns/pixel report as JSON
//                      (--smoke defaults this to BENCH_kernels.json)
//   --min-speedup F    exit non-zero unless lifting/convolve speedup at the
//                      widest filter reaches F (the CI regression gate)

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "common_args.hpp"
#include "core/kernels.hpp"
#include "core/synthetic.hpp"
#include "wavelet/threads_dwt.hpp"

namespace {

using wavehpc::core::BoundaryMode;
using wavehpc::core::DwtKernel;
using wavehpc::core::FilterPair;
using wavehpc::core::ImageF;

// Set once in main() before benchmark::RunSpecifiedBenchmarks.
std::uint64_t g_seed = 1996;
std::size_t g_size = 512;

const ImageF& scene512() {
    static const ImageF img =
        wavehpc::core::landsat_tm_like(g_size, g_size, g_seed);
    return img;
}

// The shipped Convolve passes of one level: the fused row pass (both row
// bands) and the fused column pass (all four subbands). Outputs are
// allocated once; both passes write every output.
void BM_RowPass(benchmark::State& state) {
    const FilterPair fp = FilterPair::daubechies(static_cast<int>(state.range(0)));
    const ImageF& img = scene512();
    ImageF lo(img.rows(), img.cols() / 2), hi(img.rows(), img.cols() / 2);
    for (auto _ : state) {
        wavehpc::core::analyze_rows_range(img, fp, lo, hi, BoundaryMode::Periodic,
                                          DwtKernel::Convolve, 0, img.rows());
        benchmark::DoNotOptimize(lo.flat().data());
        benchmark::DoNotOptimize(hi.flat().data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                            static_cast<int64_t>(img.size()));
}
BENCHMARK(BM_RowPass)->Arg(2)->Arg(4)->Arg(8);

void BM_ColPass(benchmark::State& state) {
    const FilterPair fp = FilterPair::daubechies(static_cast<int>(state.range(0)));
    const ImageF& img = scene512();
    const std::size_t half_r = img.rows() / 2;
    const std::size_t half_c = img.cols() / 2;
    ImageF lo(img.rows(), half_c), hi(img.rows(), half_c);
    wavehpc::core::analyze_rows_range(img, fp, lo, hi, BoundaryMode::Periodic,
                                      DwtKernel::Convolve, 0, img.rows());
    ImageF ll(half_r, half_c), lh(half_r, half_c), hl(half_r, half_c), hh(half_r, half_c);
    for (auto _ : state) {
        wavehpc::core::analyze_cols_range(lo, hi, fp, ll, lh, hl, hh,
                                          BoundaryMode::Periodic, DwtKernel::Convolve,
                                          0, half_r);
        benchmark::DoNotOptimize(ll.flat().data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                            static_cast<int64_t>(img.size()));
}
BENCHMARK(BM_ColPass)->Arg(2)->Arg(4)->Arg(8);

// Convolve vs lifting through the unified kernel layer: one fused level
// (row pass + column pass, all four subbands). Arg 0 = taps, arg 1 = the
// DwtKernel enum value (1 = convolve, 2 = lifting).
void BM_AnalyzeLevel(benchmark::State& state) {
    const FilterPair fp = FilterPair::daubechies(static_cast<int>(state.range(0)));
    const auto kernel = static_cast<DwtKernel>(state.range(1));
    const ImageF& img = scene512();
    ImageF ll, lh, hl, hh;
    for (auto _ : state) {
        wavehpc::core::analyze_level(img, fp, ll, lh, hl, hh,
                                     BoundaryMode::Periodic, kernel);
        benchmark::DoNotOptimize(ll);
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                            static_cast<int64_t>(img.size()));
}
BENCHMARK(BM_AnalyzeLevel)
    ->ArgNames({"taps", "kernel"})
    ->Args({2, 1})->Args({2, 2})
    ->Args({4, 1})->Args({4, 2})
    ->Args({8, 1})->Args({8, 2});

void BM_SequentialDecompose(benchmark::State& state) {
    const FilterPair fp = FilterPair::daubechies(static_cast<int>(state.range(0)));
    const int levels = static_cast<int>(state.range(1));
    const ImageF& img = scene512();
    for (auto _ : state) {
        auto pyr = wavehpc::core::decompose(img, fp, levels);
        benchmark::DoNotOptimize(pyr);
    }
}
BENCHMARK(BM_SequentialDecompose)->Args({8, 1})->Args({4, 2})->Args({2, 4});

// Attach the pool-overhead counters (tasks, helper-run tasks, idle wait,
// queue high-water) per decomposition level, the way the paper's Appendix B
// budgets report per-run overhead next to useful time.
void report_pool_overhead(benchmark::State& state,
                          const wavehpc::runtime::PoolMetrics& before,
                          const wavehpc::runtime::PoolMetrics& after, int levels) {
    const double per_level =
        1.0 / (static_cast<double>(state.iterations()) * levels);
    state.counters["tasks/level"] = benchmark::Counter(
        static_cast<double>(after.tasks_executed - before.tasks_executed) * per_level);
    state.counters["helped/level"] = benchmark::Counter(
        static_cast<double>(after.helper_tasks - before.helper_tasks) * per_level);
    state.counters["idle_us/level"] = benchmark::Counter(
        (after.idle_seconds - before.idle_seconds) * 1e6 * per_level);
    state.counters["q_hwm"] =
        benchmark::Counter(static_cast<double>(after.queue_high_water));
}

void BM_ThreadedDecompose(benchmark::State& state) {
    const FilterPair fp = FilterPair::daubechies(static_cast<int>(state.range(0)));
    const int levels = static_cast<int>(state.range(1));
    const ImageF& img = scene512();
    wavehpc::runtime::ThreadPool pool;
    pool.reset_metrics();
    const auto before = pool.metrics();
    for (auto _ : state) {
        auto pyr = wavehpc::wavelet::decompose_parallel(img, fp, levels,
                                                        BoundaryMode::Periodic, pool);
        benchmark::DoNotOptimize(pyr);
    }
    report_pool_overhead(state, before, pool.metrics(), levels);
}
BENCHMARK(BM_ThreadedDecompose)->Args({8, 1})->Args({4, 2})->Args({2, 4});

void BM_ThreadedReconstruct(benchmark::State& state) {
    const FilterPair fp = FilterPair::daubechies(8);
    const int levels = 2;
    const auto pyr = wavehpc::core::decompose(scene512(), fp, levels);
    wavehpc::runtime::ThreadPool pool;
    pool.reset_metrics();
    const auto before = pool.metrics();
    for (auto _ : state) {
        auto img = wavehpc::wavelet::reconstruct_parallel(pyr, fp, pool);
        benchmark::DoNotOptimize(img);
    }
    report_pool_overhead(state, before, pool.metrics(), levels);
}
BENCHMARK(BM_ThreadedReconstruct);

void BM_Reconstruct(benchmark::State& state) {
    const FilterPair fp = FilterPair::daubechies(8);
    const auto pyr = wavehpc::core::decompose(scene512(), fp, 2);
    for (auto _ : state) {
        auto img = wavehpc::core::reconstruct(pyr, fp);
        benchmark::DoNotOptimize(img);
    }
}
BENCHMARK(BM_Reconstruct);

// ------------------------------------------------------------------ report
//
// Own-timed report, independent of google-benchmark so CI can gate on it
// and commit the numbers: best-of-R wall time of one fused analysis level
// per (taps, kernel), and of the Convolve row and column passes on their
// own, all in ns per input pixel of the level.

struct KernelRow {
    int taps = 0;
    double convolve_ns = 0.0;  // whole level
    double lifting_ns = 0.0;
    double convolve_row_ns = 0.0;  // Convolve row pass alone
    double convolve_col_ns = 0.0;  // Convolve column pass alone
    [[nodiscard]] double speedup() const { return convolve_ns / lifting_ns; }
    [[nodiscard]] double row_col_ratio() const {
        return convolve_row_ns / convolve_col_ns;
    }
};

// Best of `reps` timed calls of `work` after one warm-up call.
template <typename Work>
double best_ns_per_pixel(std::size_t pixels, int reps, Work&& work) {
    using Clock = std::chrono::steady_clock;
    double best = std::numeric_limits<double>::infinity();
    for (int r = 0; r <= reps; ++r) {
        const auto t0 = Clock::now();
        work();
        const double dt = std::chrono::duration<double>(Clock::now() - t0).count();
        if (r > 0) best = std::min(best, dt);
    }
    return best * 1e9 / static_cast<double>(pixels);
}

std::vector<KernelRow> run_kernel_report(int reps) {
    const ImageF& img = scene512();
    const std::size_t half_r = img.rows() / 2;
    const std::size_t half_c = img.cols() / 2;
    std::vector<KernelRow> rows;
    for (const int taps : {2, 4, 8}) {
        const FilterPair fp = FilterPair::daubechies(taps);
        KernelRow row;
        row.taps = taps;
        ImageF ll, lh, hl, hh;
        const auto level = [&](DwtKernel kernel) {
            return best_ns_per_pixel(img.size(), reps, [&] {
                wavehpc::core::analyze_level(img, fp, ll, lh, hl, hh,
                                             BoundaryMode::Periodic, kernel);
            });
        };
        row.convolve_ns = level(DwtKernel::Convolve);
        row.lifting_ns = level(DwtKernel::Lifting);

        ImageF lo(img.rows(), half_c), hi(img.rows(), half_c);
        row.convolve_row_ns = best_ns_per_pixel(img.size(), reps, [&] {
            wavehpc::core::analyze_rows_range(img, fp, lo, hi, BoundaryMode::Periodic,
                                              DwtKernel::Convolve, 0, img.rows());
        });
        // analyze_level above left the four bands allocated at their shape.
        row.convolve_col_ns = best_ns_per_pixel(img.size(), reps, [&] {
            wavehpc::core::analyze_cols_range(lo, hi, fp, ll, lh, hl, hh,
                                              BoundaryMode::Periodic, DwtKernel::Convolve,
                                              0, half_r);
        });
        rows.push_back(row);
    }
    return rows;
}

void write_kernel_json(const std::string& path, const std::vector<KernelRow>& rows) {
    std::ofstream out(path);
    out << "{\n"
        << "  \"bench\": \"kernels_micro\",\n"
        << "  \"size\": " << g_size << ",\n"
        << "  \"seed\": " << g_seed << ",\n"
        << "  \"mode\": \"periodic\",\n"
        << "  \"unit\": \"ns_per_pixel\",\n"
        << "  \"results\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const auto& r = rows[i];
        out << "    {\"taps\": " << r.taps                        //
            << ", \"convolve\": " << r.convolve_ns                //
            << ", \"lifting\": " << r.lifting_ns                  //
            << ", \"speedup\": " << r.speedup()                   //
            << ", \"convolve_row\": " << r.convolve_row_ns        //
            << ", \"convolve_col\": " << r.convolve_col_ns        //
            << ", \"row_col_ratio\": " << r.row_col_ratio() << "}"  //
            << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
    // Split argv: --benchmark_* flags go to google-benchmark untouched,
    // everything else is ours (--seed / --size / --smoke / --json /
    // --min-speedup).
    std::vector<char*> gb_argv = {argv[0]};
    std::vector<char*> our_argv = {argv[0]};
    for (int i = 1; i < argc; ++i) {
        const std::string_view arg(argv[i]);
        (arg.rfind("--benchmark_", 0) == 0 ? gb_argv : our_argv).push_back(argv[i]);
    }

    wavehpc::bench::CommonArgs args;
    std::string json_path;
    double min_speedup = 0.0;
    const auto extra = [&](std::string_view flag, std::string_view value) {
        if (flag == "--json" && !value.empty()) {
            json_path = std::string(value);
            return wavehpc::bench::Consume::kFlagAndValue;
        }
        if (flag == "--min-speedup" && !value.empty()) {
            char* end = nullptr;
            const std::string text(value);
            min_speedup = std::strtod(text.c_str(), &end);
            if (end != nullptr && *end == '\0' && min_speedup > 0.0) {
                return wavehpc::bench::Consume::kFlagAndValue;
            }
        }
        return wavehpc::bench::Consume::kNo;
    };
    int our_argc = static_cast<int>(our_argv.size());
    if (!wavehpc::bench::parse_bench_args(our_argc, our_argv.data(), args, extra)) {
        return 2;
    }
    g_seed = wavehpc::bench::or_default<std::uint64_t>(args.seed, 1996);
    g_size = wavehpc::bench::or_default<std::size_t>(args.size, 512);
    std::string smoke_min_time = "--benchmark_min_time=0.001";
    if (args.smoke) gb_argv.push_back(smoke_min_time.data());
    // The PR-committed artifact: --smoke emits BENCH_kernels.json by default.
    if (args.smoke && json_path.empty()) json_path = "BENCH_kernels.json";

    // Kernel comparison report (own timing, runs before google-benchmark).
    // --smoke takes the same best of 9: fewer reps let host noise swing the
    // committed ratios.
    const auto rows = run_kernel_report(9);
    std::cout << "=== DWT kernel comparison: " << g_size << "x" << g_size
              << " scene, seed " << g_seed << ", one fused level, ns/pixel ===\n";
    for (const auto& r : rows) {
        std::cout << "  taps " << r.taps << ": convolve " << r.convolve_ns
                  << "  lifting " << r.lifting_ns << "  speedup " << r.speedup()
                  << "x  | convolve row pass " << r.convolve_row_ns << "  column pass "
                  << r.convolve_col_ns << "  row/col " << r.row_col_ratio() << "x\n";
    }
    if (!json_path.empty()) {
        write_kernel_json(json_path, rows);
        std::cout << "wrote " << json_path << "\n";
    }
    std::cout << "\n";
    if (min_speedup > 0.0) {
        const auto& widest = rows.back();
        if (widest.speedup() < min_speedup) {
            std::cerr << argv[0] << ": lifting speedup " << widest.speedup()
                      << "x at " << widest.taps << " taps is below the --min-speedup "
                      << min_speedup << "x gate\n";
            return 1;
        }
    }

    int gb_argc = static_cast<int>(gb_argv.size());
    benchmark::Initialize(&gb_argc, gb_argv.data());
    if (gb_argc > 1) {
        std::cerr << argv[0] << ": unknown flag '" << gb_argv[1] << "'\n";
        return 2;
    }
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
