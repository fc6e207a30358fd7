#pragma once
// Gossip-lite shard membership: a heartbeat failure detector with
// roster-hash epochs, in the telehash-c chat.c spirit — every observer
// runs the same small state machine over the heartbeat stream it sees, so
// observers that see the same stream agree on the roster without any
// coordination round.
//
// Per-shard state machine (time-based, driven by sweep()):
//
//           heartbeat ok                 no ok for suspect_after
//   Alive ───────────────► Alive   Alive ─────────────────────► Suspect
//   Suspect ── ok ───────► Alive   Suspect ── no ok, dead_after ► Dead
//   Dead ── readmit_oks consecutive oks at a *newer incarnation* ► Alive
//
// Re-admission is epoch-fenced: a dead shard comes back only by
// heartbeating with a higher incarnation (its replacement process), and
// the detector requires `readmit_oks` consecutive fresh beats before
// trusting it — one straggling packet from the old life cannot resurrect
// a corpse. Each transition bumps a monotonic epoch counter, and
// roster_hash() folds (shard, health, incarnation) into one 64-bit view
// id two detectors can compare for agreement.
//
// Like CircuitBreaker, this is externally synchronized pure decision
// logic: the cluster calls it under its own mutex, with wall-clock-derived
// seconds or the explicit ones of its manual clock, and unit tests drive it
// single-threaded with explicit times — the same state machine either way.

#include <cstddef>
#include <cstdint>
#include <vector>

namespace wavehpc::svc::shard {

enum class ShardHealth : std::uint8_t { Alive = 0, Suspect = 1, Dead = 2 };

[[nodiscard]] const char* health_name(ShardHealth h) noexcept;

struct MembershipConfig {
    double heartbeat_interval = 0.02;  ///< seconds between probe rounds
    double suspect_after = 0.06;       ///< no ok for this long -> Suspect
    double dead_after = 0.15;          ///< no ok for this long -> Dead
    std::uint32_t readmit_oks = 2;     ///< consecutive fresh oks to re-admit
};

struct ShardStatus {
    ShardHealth health = ShardHealth::Alive;
    std::uint64_t incarnation = 0;  ///< highest incarnation heard from
    double last_ok = 0.0;           ///< time of the newest ok heartbeat
    std::uint32_t consecutive_oks = 0;  ///< readmission progress while Dead
};

/// One roster transition, drained by the owner for counters/logging.
struct RosterTransition {
    std::size_t shard = 0;
    ShardHealth from = ShardHealth::Alive;
    ShardHealth to = ShardHealth::Alive;
    std::uint64_t incarnation = 0;
    double at = 0.0;
};

class FailureDetector {
public:
    FailureDetector() = default;
    FailureDetector(std::size_t n_shards, MembershipConfig cfg);

    /// Feed one probe result at time `now` (seconds on the caller's clock):
    /// ok=true records a live heartbeat carrying `incarnation`; ok=false is
    /// a missed probe (recorded for accounting, no state change — death is
    /// time-based via sweep()). A heartbeat with an *older* incarnation
    /// than the recorded one is stale traffic from a previous life and is
    /// ignored.
    void observe(std::size_t shard, bool ok, double now,
                 std::uint64_t incarnation = 0);

    /// Merge one gossiped roster entry about `shard`: the sender's record
    /// of (incarnation, last_ok). Counts as a heartbeat only when the
    /// entry is strictly fresher than what this detector already holds —
    /// a newer incarnation, or the same incarnation with a newer last_ok.
    /// Relayed duplicates of one beat (same incarnation, same last_ok)
    /// are ignored, so no matter how many peers relay a tick's beat it
    /// advances readmission progress at most once; the epoch fence and
    /// readmit_oks pacing are identical to direct observe(). Returns
    /// whether the entry was fresh (the dead-life epoch fence may still
    /// discard a fresh-looking beat without counting it).
    bool merge_entry(std::size_t shard, std::uint64_t incarnation,
                     double last_ok, double now);

    /// Advance time-based transitions (Alive -> Suspect -> Dead) to `now`.
    void sweep(double now);

    [[nodiscard]] ShardHealth health(std::size_t shard) const;
    [[nodiscard]] std::uint64_t incarnation(std::size_t shard) const;
    [[nodiscard]] const std::vector<ShardStatus>& snapshot() const noexcept {
        return status_;
    }
    [[nodiscard]] std::size_t shard_count() const noexcept { return status_.size(); }
    [[nodiscard]] std::size_t alive_count() const;

    /// Monotonic: +1 per roster transition (health change or re-admission).
    [[nodiscard]] std::uint64_t epoch() const noexcept { return epoch_; }

    /// 64-bit digest of the roster view: fold of (shard, health,
    /// incarnation) in shard order. Two detectors agree on the membership
    /// view iff their roster hashes match.
    [[nodiscard]] std::uint64_t roster_hash() const;

    /// Transitions since the last drain, oldest first.
    [[nodiscard]] std::vector<RosterTransition> drain_transitions();

private:
    void transition(std::size_t shard, ShardHealth to, double now);

    MembershipConfig cfg_;
    std::vector<ShardStatus> status_;
    std::uint64_t epoch_ = 0;
    std::vector<RosterTransition> transitions_;
};

}  // namespace wavehpc::svc::shard
