// The conformance matrix: every path that claims the serial pyramid's bits,
// run over shape x taps {2, 4, 6, 8} x levels {1, 2, 3, 4} x boundary mode
// (level 4 carries the paper's F2/L4). Analysis paths are compared with the
// unfused oracle (tests/convolve.hpp, once per band per level), synthesis
// paths with core::reconstruct, which SynthesisBoundary.* pins to the
// brute-force adjoint. Each path configuration is one ctest entry; each
// prints how many cells it computed and how many it rejected.
//
// A path computes a cell bit for bit, or throws std::invalid_argument when
// one of these rules names the cell (DESIGN.md section 8 has the table):
//   * every path: a zero side, or a side not divisible by 2^levels. For
//     synthesis such a cell has no pyramid; its stand-in has empty bands;
//   * mesh_decompose, mesh_reconstruct and block_decompose keep their
//     stripes across levels: more ranks than the coarsest level has rows
//     (block: grid rows, and grid columns against its columns);
//   * mesh_decompose_resilient re-stripes every level: no rule of its own;
//   * MasPar has no boundary parameter (its X-net wraps): Periodic only.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "convolve.hpp"
#include "core/synthetic.hpp"
#include "maspar/simulate.hpp"
#include "param_print.hpp"
#include "svc/shard/cluster.hpp"
#include "testing/invariants.hpp"
#include "tile/progressive.hpp"
#include "wavelet/mesh_dwt_block.hpp"
#include "wavelet/mesh_dwt_resilient.hpp"
#include "wavelet/mesh_idwt.hpp"
#include "wavelet/threads_dwt.hpp"

namespace {

using namespace wavehpc;
namespace wtest = wavehpc::testing;
using core::BoundaryMode;
using core::FilterPair;
using core::ImageF;
using core::Pyramid;
using runtime::ThreadPool;

struct Cell {
    std::size_t rows;
    std::size_t cols;
    int taps;
    int levels;
    BoundaryMode mode;
};

void PrintTo(const Cell& c, std::ostream* os) {
    *os << c.rows << 'x' << c.cols << " F" << c.taps << " L" << c.levels << ' ';
    core::PrintTo(c.mode, os);
}

/// The transform's own rule (core::validate_decomposition_request).
bool defined(const Cell& c) {
    const std::size_t div = std::size_t{1} << c.levels;
    return c.rows > 0 && c.cols > 0 && c.rows % div == 0 && c.cols % div == 0;
}

std::vector<Cell> cells(bool periodic_only) {
    constexpr std::pair<std::size_t, std::size_t> kShapes[] = {
        {64, 64}, {64, 96}, {128, 96}, {32, 96}, {8, 8},  // the per-suite tests' planes
        {2, 2},   {4, 4},                                 // sides under 6 and 8 taps
        {2, 512}, {512, 2}, {2, 16},   {16, 2},           // extreme aspect
        {24, 8},  {12, 20}, {96, 80},                     // non-square
        {6, 4},   {3, 4},   {4, 3},    {1, 8},  {8, 1}, {0, 8},  // undefined
    };
    std::vector<Cell> out;
    for (const auto& [rows, cols] : kShapes) {
        for (const int taps : {2, 4, 6, 8}) {
            for (const int levels : {1, 2, 3, 4}) {
                for (const auto mode : {BoundaryMode::Periodic, BoundaryMode::Symmetric,
                                        BoundaryMode::ZeroPad}) {
                    if (!periodic_only || mode == BoundaryMode::Periodic) {
                        out.push_back({rows, cols, taps, levels, mode});
                    }
                }
            }
        }
    }
    return out;
}

/// The cell's scene, made once per shape and seed.
const ImageF& scene(const Cell& c, std::uint64_t seed = 1996) {
    static std::map<std::tuple<std::size_t, std::size_t, std::uint64_t>, ImageF> made;
    const auto [it, fresh] = made.try_emplace({c.rows, c.cols, seed});
    if (fresh) it->second = core::landsat_tm_like(c.rows, c.cols, seed);
    return it->second;
}

Pyramid oracle(const ImageF& img, const FilterPair& fp, const Cell& c) {
    Pyramid pyr;
    pyr.approx = img;
    for (int k = 0; k < c.levels; ++k) {
        ImageF lo;
        ImageF hi;
        core::convolve_decimate_rows(pyr.approx, fp.low(), lo, c.mode);
        core::convolve_decimate_rows(pyr.approx, fp.high(), hi, c.mode);
        core::DetailBands& d = pyr.levels.emplace_back();
        core::convolve_decimate_cols(lo, fp.high(), d.lh, c.mode);
        core::convolve_decimate_cols(hi, fp.low(), d.hl, c.mode);
        core::convolve_decimate_cols(hi, fp.high(), d.hh, c.mode);
        core::convolve_decimate_cols(lo, fp.low(), pyr.approx, c.mode);
    }
    return pyr;
}

bool same(const Pyramid& a, const Pyramid& b) { return wtest::pyramids_bit_identical(a, b); }
bool same(const ImageF& a, const ImageF& b) { return a == b; }

using Analyze = std::function<Pyramid(const ImageF&, const FilterPair&, const Cell&)>;
using Synthesize = std::function<ImageF(const Pyramid&, const FilterPair&, const Cell&)>;
using Rule = std::function<bool(const Cell&)>;

bool every_cell(const Cell&) { return true; }

/// One ctest entry: `make` builds the path's pool, service or cluster and
/// returns its run function; `lays_out` is the path's rule on top of the
/// transform's.
template <typename Run>
struct Path {
    std::string name;
    std::function<Run()> make;
    Rule lays_out = every_cell;
    bool periodic_only = false;
};

template <typename Run>
void PrintTo(const Path<Run>& p, std::ostream* os) {
    *os << p.name;
}

/// A path with no machinery of its own.
template <typename Run>
std::function<Run()> stateless(Run run) {
    return [run] { return run; };
}

/// A path on a pool of `workers` threads (none: nullptr), built per entry.
template <typename Run, typename F>
std::function<Run()> pooled(std::size_t workers, F run) {
    return [workers, run] {
        auto pool = workers > 0 ? std::make_shared<ThreadPool>(workers) : nullptr;
        return Run([pool, run](auto& in, auto& fp, const Cell& c) {
            return run(pool.get(), in, fp, c);
        });
    };
}

/// A path on a simulated machine, whose virtual time must be positive.
template <typename F>
std::function<Analyze()> simulated(F run) {
    return stateless(Analyze([run](const ImageF& img, const FilterPair& fp, const Cell& c) {
        const auto res = run(img, fp, c);
        EXPECT_GT(res.seconds, 0.0);
        return res.pyramid;
    }));
}

/// Fixed stripes: each of `ranks` owns a row of the coarsest level.
Rule stripes(std::size_t ranks) {
    return [ranks](const Cell& c) { return (c.rows >> c.levels) >= ranks; };
}

std::vector<std::pair<std::string, std::size_t>> pools() {
    return {{"pool1", 1}, {"pool2", 2}, {"pool3", 3},
            {"pool_hw", std::max<std::size_t>(1, std::thread::hardware_concurrency())}};
}

constexpr std::size_t kRanks[] = {1, 2, 3, 4, 5, 7, 8};

const core::SequentialCostModel& node() { return core::SequentialCostModel::paragon_node(); }

const svc::SubmitResult& verdict(const svc::SubmitResult& r) { return r; }
const svc::SubmitResult& verdict(const svc::shard::ClusterSubmitResult& r) { return r.result; }

/// The service or the sharded cluster (`Door`), on its own pool and with no
/// chaos plan, built per entry. Requests go one at a time, so each future
/// resolves before the next.
template <typename Door, typename Config>
std::function<Analyze()> front_door(svc::Backend backend, Config cfg) {
    return [backend, cfg] {
        struct Rig {
            explicit Rig(const Config& cfg) : door(pool, cfg) { door.set_chaos_plan({}); }
            ThreadPool pool{2};
            Door door;
        };
        auto rig = std::make_shared<Rig>(cfg);
        return Analyze([rig, backend](auto& img, auto&, const Cell& c) {
            const auto answer = rig->door.submit(
                {.image = std::make_shared<const ImageF>(img), .taps = c.taps,
                 .levels = c.levels, .boundary = c.mode, .backend = backend});
            const svc::SubmitResult& r = verdict(answer);
            if (!r.accepted) throw std::runtime_error("conformance: request not accepted");
            return r.future.get().result->pyramid;
        });
    };
}

std::vector<Path<Analyze>> analysis_paths() {
    using namespace std::literals;
    std::vector<Path<Analyze>> out;
    out.push_back({"decompose", stateless(Analyze([](auto& img, auto& fp, const Cell& c) {
                       return core::decompose(img, fp, c.levels, c.mode);
                   }))});
    for (const auto& [tag, workers] : pools()) {
        out.push_back({"decompose_parallel_" + tag,
                       pooled<Analyze>(workers, [](auto* pool, auto& img, auto& fp, const Cell& c) {
                           return wavelet::decompose_parallel(img, fp, c.levels, c.mode, *pool);
                       })});
    }
    // The cell's scene sits between two other members; all are checked.
    for (const auto& [tag, workers] : {std::pair{"serial"sv, 0}, {"pooled"sv, 3}}) {
        out.push_back({"decompose_batch_" + std::string(tag),
                       pooled<Analyze>(workers, [](auto* pool, auto& img, auto& fp, const Cell& c) {
                           const ImageF& before = scene(c, 7);
                           const ImageF& after = scene(c, 8);
                           auto pyrs = wavelet::decompose_batch({&before, &img, &after}, fp,
                                                                c.levels, c.mode, pool);
                           EXPECT_TRUE(same(pyrs[0], oracle(before, fp, c)));
                           EXPECT_TRUE(same(pyrs[2], oracle(after, fp, c)));
                           return std::move(pyrs[1]);
                       })});
    }
    for (const tile::TileConfig grid : {tile::TileConfig{1, 1}, {3, 5}, {}}) {
        out.push_back({"tiled_decompose_" + std::to_string(grid.tile_rows) + "x" +
                           std::to_string(grid.tile_cols),
                       stateless(Analyze([grid](auto& img, auto& fp, const Cell& c) {
                           return tile::tiled_decompose(img, fp, c.levels, c.mode, grid, nullptr);
                       }))});
    }
    for (const std::size_t p : kRanks) {
        out.push_back({"mesh_decompose_P" + std::to_string(p),
                       simulated([p](auto& img, auto& fp, const Cell& c) {
                           mesh::Machine m(mesh::MachineProfile::paragon_pvm());
                           return wavelet::mesh_decompose(
                               m, img, fp, {.levels = c.levels, .mode = c.mode}, p, node());
                       }),
                       stripes(p)});
    }
    for (const auto& [gr, gc] : {std::pair<std::size_t, std::size_t>{1, 1}, {2, 2}, {4, 4},
                                 {2, 4}, {4, 2}, {1, 4}, {4, 1}, {3, 2}}) {
        out.push_back({"block_decompose_" + std::to_string(gr) + "x" + std::to_string(gc),
                       simulated([r = gr, k = gc](auto& img, auto& fp, const Cell& c) {
                           mesh::Machine m(mesh::MachineProfile::paragon_pvm());
                           const wavelet::BlockDwtConfig cfg{c.levels, c.mode, r, k};
                           return wavelet::block_decompose(m, img, fp, cfg, node());
                       }),
                       [r = gr, k = gc](const Cell& c) {
                           return (c.rows >> c.levels) >= r && (c.cols >> c.levels) >= k;
                       }});
    }
    for (const std::size_t p : {1U, 2U, 4U, 8U}) {
        out.push_back({"mesh_decompose_resilient_P" + std::to_string(p),
                       simulated([p](auto& img, auto& fp, const Cell& c) {
                           mesh::Machine m(mesh::MachineProfile::paragon_pvm());
                           auto res = wavelet::mesh_decompose_resilient(
                               m, img, fp, {.levels = c.levels, .mode = c.mode}, p, node());
                           EXPECT_EQ(res.level_retries, 0U);
                           EXPECT_TRUE(res.failed_ranks.empty());
                           return res;
                       })});
    }
    using maspar::Algorithm;
    using maspar::Virtualization;
    for (const auto& [fn_tag, fn] : {std::pair{"maspar"sv, &maspar::maspar_decompose},
                                     {"simulate"sv, &maspar::simulate_decompose}}) {
        for (const auto& [alg_tag, alg] : {std::pair{"Systolic"sv, Algorithm::Systolic},
                                           {"SystolicDilution"sv, Algorithm::SystolicDilution}}) {
            for (const auto& [virt_tag, virt] :
                 {std::pair{"CutAndStack"sv, Virtualization::CutAndStack},
                  {"Hierarchical"sv, Virtualization::Hierarchical}}) {
                out.push_back({std::string(fn_tag) + "_decompose_" + std::string(alg_tag) + "_" +
                                   std::string(virt_tag),
                               simulated([f = fn, a = alg, v = virt](auto& img, auto& fp,
                                                                     const Cell& c) {
                                   return f(maspar::MasParProfile::mp2_16k(), img, fp, c.levels,
                                            a, v);
                               }),
                               every_cell, true});
            }
        }
    }
    out.push_back({"service_Serial",
                   front_door<svc::PyramidService>(svc::Backend::Serial, svc::ServiceConfig{})});
    out.push_back({"service_Threads",
                   front_door<svc::PyramidService>(svc::Backend::Threads, svc::ServiceConfig{})});
    // Three shards on the manual clock over a wire that drops 5 % and
    // corrupts 2 % of frames: the pixels and the pyramid both cross it.
    svc::shard::ShardClusterConfig lossy;
    lossy.shard_count = 3;
    lossy.manual_clock = true;
    lossy.gossip_seed = 1996;
    lossy.transport_faults.drop_probability = 0.05;
    lossy.transport_faults.corrupt_probability = 0.02;
    lossy.wire_retries = 16;
    out.push_back({"shard_cluster",
                   front_door<svc::shard::ShardCluster>(svc::Backend::Threads, lossy)});
    return out;
}

std::vector<Path<Synthesize>> synthesis_paths() {
    std::vector<Path<Synthesize>> out;
    for (const auto& [tag, workers] : pools()) {
        out.push_back({"reconstruct_parallel_" + tag,
                       pooled<Synthesize>(workers,
                                          [](auto* pool, auto& pyr, auto& fp, const Cell& c) {
                                              return wavelet::reconstruct_parallel(pyr, fp, *pool,
                                                                                   c.mode);
                                          })});
    }
    for (const std::size_t p : kRanks) {
        out.push_back({"mesh_reconstruct_P" + std::to_string(p),
                       stateless(Synthesize([p](auto& pyr, auto& fp, const Cell& c) {
                           mesh::Machine m(mesh::MachineProfile::paragon_pvm());
                           const auto res =
                               wavelet::mesh_reconstruct(m, pyr, fp, {.mode = c.mode}, p, node());
                           EXPECT_GT(res.seconds, 0.0);
                           return res.image;
                       })),
                       stripes(p)});
    }
    return out;
}

/// Runs `path` on every cell: `input(c, fp)` is what the path reads and
/// `want(in, fp, c)` the reference it must match where it lays the cell out.
template <typename Run, typename Input, typename Want>
void sweep(const Path<Run>& path, Input input, Want want) {
    const Run run = path.make();
    std::size_t computed = 0;
    std::size_t rejected = 0;
    for (const Cell& c : cells(path.periodic_only)) {
        SCOPED_TRACE(::testing::PrintToString(c));
        const FilterPair fp = FilterPair::daubechies(c.taps);
        const auto& in = input(c, fp);
        if (!defined(c) || !path.lays_out(c)) {
            EXPECT_THROW((void)run(in, fp, c), std::invalid_argument);
            ++rejected;
        } else {
            EXPECT_TRUE(same(run(in, fp, c), want(in, fp, c)));
            ++computed;
        }
    }
    std::cout << "[ cells    ] " << computed << " computed, " << rejected << " rejected\n";
    EXPECT_GT(computed, 0U);
}

class Analysis : public ::testing::TestWithParam<Path<Analyze>> {};
class Synthesis : public ::testing::TestWithParam<Path<Synthesize>> {};

TEST_P(Analysis, MatchesTheOracle) {
    sweep(GetParam(), [](const Cell& c, auto&) -> const ImageF& { return scene(c); }, oracle);
}

TEST_P(Synthesis, MatchesReconstruct) {
    sweep(
        GetParam(),
        [](const Cell& c, const FilterPair& fp) {
            Pyramid pyr;
            pyr.levels.resize(static_cast<std::size_t>(c.levels));  // the empty stand-in
            return defined(c) ? oracle(scene(c), fp, c) : pyr;
        },
        [](const Pyramid& pyr, const FilterPair& fp, const Cell& c) {
            return core::reconstruct(pyr, fp, c.mode);
        });
}

template <typename Run>
std::string path_name(const ::testing::TestParamInfo<Path<Run>>& info) {
    return info.param.name;
}

INSTANTIATE_TEST_SUITE_P(Conformance, Analysis, ::testing::ValuesIn(analysis_paths()),
                         path_name<Analyze>);
INSTANTIATE_TEST_SUITE_P(Conformance, Synthesis, ::testing::ValuesIn(synthesis_paths()),
                         path_name<Synthesize>);

}  // namespace
