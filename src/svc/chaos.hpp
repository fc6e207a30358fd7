#pragma once
// Deterministic fault injection for the pyramid service stack, mirroring
// mesh/faults' FaultPlan style: every injected fault is a pure function of
// (seed, draw index), so a chaos run under a given plan replays the same
// fault sequence whenever the attempt order is deterministic (and replays
// the same fault *rate* even when concurrency shuffles the order).
//
// Injection sites:
//   * compute attempts in PyramidService::run_flight — a ChaosDecision per
//     attempt can throw ChaosComputeError, throw std::bad_alloc, stall the
//     compute (which the watchdog then catches), or flip one bit in the
//     finished result buffer (which the CRC audit then catches);
//   * the thread-pool dispatch path — pool_observer() hands back a hook
//     for runtime::ThreadPool::set_task_observer that stalls a seeded
//     fraction of task dispatches, modelling a noisy neighbour.
//
// The plan comes from WAVEHPC_CHAOS_PLAN ("compute=0.01,corrupt=0.005,...")
// seeded by WAVEHPC_CHAOS_SEED; with the variable unset chaos is fully
// disabled and the service path is byte-for-byte the non-chaos one.

#include <cstdint>
#include <functional>
#include <mutex>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "core/dwt.hpp"

namespace wavehpc::svc {

/// Thrown by an injected compute fault; retryable like any transient
/// compute failure.
class ChaosComputeError : public std::runtime_error {
public:
    explicit ChaosComputeError(std::uint64_t draw)
        : std::runtime_error("chaos: injected compute fault (draw " +
                             std::to_string(draw) + ")") {}
};

/// Per-attempt fault decision, derived deterministically from (seed, index).
struct ChaosDecision {
    std::uint64_t draw = 0;       ///< the index this decision was drawn for
    bool compute_error = false;   ///< throw ChaosComputeError mid-compute
    bool alloc_failure = false;   ///< throw std::bad_alloc before compute
    bool corrupt = false;         ///< flip one bit in the finished pyramid
    double stall_seconds = 0.0;   ///< sleep this long before computing
    std::uint64_t corrupt_word = 0;  ///< word to flip (mod pyramid words)
    unsigned corrupt_bit = 0;        ///< bit 0-31 within that float word
};

/// Cluster-level fault kinds for the shard tier (shard/cluster.hpp). The
/// engine below never interprets these — ShardCluster replays them off its
/// own timeline; they live on the plan so one spec string describes a
/// whole chaos run (compute faults riding along with shard kills).
enum class ShardEventKind : std::uint8_t {
    Kill,       ///< crash-stop: requests unreachable, service drained, state lost
    Partition,  ///< unreachable (requests + heartbeats) but the process survives
    Slow,       ///< every request to the shard stalls `stall_seconds`
};

/// One timed shard fault: [start, start + duration) on the cluster clock.
struct ShardEvent {
    ShardEventKind kind = ShardEventKind::Kill;
    std::size_t shard = 0;
    double start_seconds = 0.0;
    double duration_seconds = 0.0;
    double stall_seconds = 0.010;  ///< Slow only: added per request
};

struct ChaosPlan {
    std::uint64_t seed = 1;
    double compute_error_probability = 0.0;  ///< i.i.d. per compute attempt
    double alloc_failure_probability = 0.0;
    double stall_probability = 0.0;
    double stall_seconds = 0.05;             ///< duration of an injected stall
    double corrupt_probability = 0.0;        ///< one bit flip in the result
    double pool_stall_probability = 0.0;     ///< per pool-task dispatch
    double pool_stall_seconds = 0.002;
    /// Attempt indices that always throw ChaosComputeError — targeted
    /// deterministic tests, like FaultPlan::drop_exact.
    std::vector<std::uint64_t> compute_error_exact;
    /// Timed shard-tier faults (kill / partition / slow), replayed by
    /// ShardCluster against its own clock; ignored by the in-service
    /// engine. Kept sorted by start time after parse().
    std::vector<ShardEvent> shard_events;

    [[nodiscard]] bool enabled() const noexcept;

    /// Deterministic decision for the `index`-th compute attempt.
    [[nodiscard]] ChaosDecision decide(std::uint64_t index) const;

    /// Pool-dispatch stall (seconds, usually 0) for the `index`-th task,
    /// drawn from an independent lane of the same seed.
    [[nodiscard]] double pool_stall(std::uint64_t index) const;

    /// Parse "key=value,..." with keys compute, alloc, stall, stall_ms,
    /// corrupt, pool_stall, pool_stall_ms, compute_exact (':'-separated
    /// indices), and the shard-tier events shard_kill / shard_partition /
    /// shard_slow, each a ';'-separated list of
    /// SHARD:START_MS:DURATION_MS[:STALL_MS] entries (STALL_MS is
    /// shard_slow-only). Lists skip empty entries but need at least one.
    /// Every number follows the one number rule (core/knobs.hpp: plain
    /// decimal, no space, '+' or hex), and every millisecond value lies in
    /// [0, 3600000] (one hour). Throws std::invalid_argument, naming the
    /// token and its byte offset, on malformed input and on values it
    /// cannot honour (a NaN probability, a duration past one hour, an
    /// integer past 2^64).
    [[nodiscard]] static ChaosPlan parse(std::string_view spec, std::uint64_t seed);

    /// WAVEHPC_CHAOS_PLAN under WAVEHPC_CHAOS_SEED (default 1); a disabled
    /// (empty) plan when the plan variable is unset or empty. A malformed
    /// plan or seed throws — a chaos run that silently tested nothing
    /// would be worse than a crash.
    [[nodiscard]] static ChaosPlan from_env();
};

/// Block the calling thread for an injected stall (no-op when <= 0).
void sleep_seconds(double seconds);

/// What the engine actually injected (monotonic, snapshot any time).
struct ChaosStats {
    std::uint64_t draws = 0;
    std::uint64_t compute_errors = 0;
    std::uint64_t alloc_failures = 0;
    std::uint64_t stalls = 0;
    std::uint64_t corruptions = 0;
    std::uint64_t pool_stalls = 0;
};

/// Shared injection engine: owns the plan and the global attempt counter.
/// Thread-safe; when the plan is disabled every call is a cheap no-op.
class ChaosEngine {
public:
    ChaosEngine() = default;
    explicit ChaosEngine(ChaosPlan plan) : plan_(std::move(plan)) {}

    /// Swap the plan (test seam). Callers must be quiescent: in-flight
    /// decisions already drawn stay valid, but the draw counter is not
    /// reset, so exact-index plans should be installed before traffic.
    void set_plan(ChaosPlan plan);

    [[nodiscard]] bool enabled() const;

    /// Draw the decision for the next compute attempt.
    [[nodiscard]] ChaosDecision next_compute_decision();

    /// Apply the pre-compute faults of `d`: stall, then throw bad_alloc /
    /// ChaosComputeError if drawn. Call without holding service locks.
    void inject_before_compute(const ChaosDecision& d);

    /// Flip the drawn bit in `pyr` if `d.corrupt` — call *after* the CRC
    /// point of truth was taken, so the audit must catch it.
    void corrupt_result(const ChaosDecision& d, core::Pyramid& pyr);

    /// Hook for runtime::ThreadPool::set_task_observer: stalls a seeded
    /// fraction of task dispatches. Null when the plan injects none.
    [[nodiscard]] std::function<void()> pool_observer();

    [[nodiscard]] ChaosStats stats() const;

private:
    mutable std::mutex mu_;
    ChaosPlan plan_;
    std::uint64_t next_draw_ = 0;
    std::uint64_t next_pool_draw_ = 0;
    ChaosStats stats_;
};

}  // namespace wavehpc::svc
