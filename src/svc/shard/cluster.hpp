#pragma once
// Sharded pyramid service: N PyramidService instances ("shards") behind a
// consistent-hash router (ring.hpp) and a heartbeat failure detector
// (membership.hpp), sharing one runtime::ThreadPool.
//
// Since ISSUE 10 every byte between the router and a shard crosses the
// in-process ShardTransport (transport.hpp), which speaks the mesh
// machine's reliable-frame protocol against a link-aware FaultPlan:
//   * Requests: sealed wire::Request frames (wire.hpp) under ARQ; the
//     shard answers with an AdmitWire verdict on the same channel. The
//     admission fence runs on the *receiver*: a frame whose incarnation
//     is not the shard's current life is refused as StaleEpoch.
//   * Replies: the router registers the client promise under the
//     attempt's request_id *before* the request leg (a cache-hit reply
//     can beat the admit verdict home). The shard admits with a service
//     completion hook, so whichever thread completes the request seals
//     the TransformReply (or its typed error) and ships it under ARQ.
//     Whoever removes the in-flight entry resolves the promise, exactly
//     once: the router's reply handler; the router withdrawing a refused
//     attempt; or the hook, when the reply wire gave up (shard killed or
//     partitioned), delivering the local outcome (`reply_wire_fallbacks`).
//     A reply whose entry is already gone — the request leg gave up after
//     the shard admitted — is dropped (`orphan_replies`).
//   * Membership: no direct observe() probes. Each tick every live shard
//     gossips its full (incarnation, last_ok, health) roster vector to
//     the router and its peers as wire::Gossip datagrams; every receiver
//     folds the vector through FailureDetector::merge_entry. The router's
//     detector still drives routing, and under identical fault draws its
//     epoch/roster_hash sequence is bit-for-bit the old probe loop's.
//
// Split-brain resolution: a shard that reads a gossiped claim that *it*
// is Dead — at its own (or a later) incarnation, with a last_ok stale
// enough to prove the claimant has not heard its recent beats — refutes
// by bumping its incarnation. Claimants then re-admit it through the
// ordinary epoch fence (readmit_oks fresh beats of the new life), so an
// asymmetric partition heals to one roster on every node and a healed
// partition victim rejoins instead of staying a permanent corpse.
//
// Failure semantics (replayed from ChaosPlan::shard_events or injected by
// the kill/revive test seams):
//   * Kill — crash-stop. The node's NIC goes unreachable (requests fail
//     over on the very next submit, before any heartbeat lapses), the
//     service is drained (in-flight waiters resolve with
//     ServiceShutdownError — nothing strands), its metrics are folded
//     into the retired accumulator, and its cache dies with it.
//   * Partition — the NIC is off but the process survives: beats stop,
//     requests give up, the cache and counters are intact at heal time.
//     Asymmetric partitions (A hears B but not vice versa) come from
//     LinkFault rules in `transport_faults` instead.
//   * Slow — every request to the shard stalls first (noisy neighbour).
//
// Clocking: with `manual_clock` the owner drives tick(now) explicitly and
// the cluster starts no thread of its own — the deterministic mode every
// tier-1 test uses. Otherwise a monitor thread beats every
// heartbeat_interval: gossip rounds, roster sweeps, due chaos events.
//
// Lock order: mu_ (orchestration: detectors, chaos actions, clock,
// gossip inboxes) -> nodes_mu_ (leaf: node liveness flags, in-flight
// replies, counters). The transport's locks are internal leaves it never
// holds while calling out, so its handlers and sinks run with no
// transport lock: they take nodes_mu_ (never while calling the transport
// or a service) and may send replies of their own. Only gossip sinks run
// under mu_, held by the tick that sent the beats.

#include <condition_variable>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "mesh/faults.hpp"
#include "svc/chaos.hpp"
#include "svc/service.hpp"
#include "svc/shard/membership.hpp"
#include "svc/shard/ring.hpp"
#include "svc/shard/transport.hpp"
#include "svc/shard/wire.hpp"

namespace wavehpc::svc::shard {

struct ShardClusterConfig {
    std::size_t shard_count = 4;
    std::size_t vnodes = 64;       ///< ring points per shard
    std::size_t replicas = 2;      ///< failover chain length per key
    std::uint64_t seed = 1;        ///< ring placement seed
    MembershipConfig membership;
    ServiceConfig service;         ///< per-shard service posture
    /// No monitor thread; the owner drives tick(now) with explicit
    /// seconds. Chaos events replay against that clock.
    bool manual_clock = false;

    /// Fault plan installed into the shard transport (drops, corruption,
    /// directed LinkFault windows — the partition-drill seam). A zero
    /// seed inherits `gossip_seed`.
    mesh::FaultPlan transport_faults;
    /// Transport fault-draw seed; 0 falls back to `seed`.
    std::uint64_t gossip_seed = 0;
    /// ARQ retries per transfer before the wire gives up.
    int wire_retries = 4;
    /// Peers each shard gossips its roster to per tick, in ring order
    /// after the router (which always hears every beat). 0 = all peers.
    std::size_t gossip_fanout = 0;
};

/// Why the cluster (not a shard's admission) refused a delivery attempt.
enum class RouteRefusal : std::uint8_t {
    None,        ///< delivered to the shard's submit()
    RosterDead,  ///< skipped: the roster marks the shard Dead
    Transport,   ///< refused: the request wire gave up (killed/partitioned)
    StaleEpoch,  ///< refused: shard incarnation != the router's belief
};

/// Synchronous answer of ShardCluster::submit.
struct ClusterSubmitResult {
    /// The shard that accepted (or the last one that answered), or
    /// `no_shard` when every replica was refused before any submit().
    static constexpr ShardId no_shard = static_cast<ShardId>(-1);
    ShardId shard = no_shard;
    std::size_t hops = 0;  ///< replicas whose admission answered (1 = primary)
    /// Served from another live shard's cache after the replica chain
    /// failed (allow_degraded only). result.future is ready.
    bool cross_shard_degraded = false;
    SubmitResult result;
};

/// Monotonic cluster-level counters (shard-internal counters live in each
/// service's own ServiceCounters; fleet_metrics() merges those).
struct ClusterCounters {
    std::uint64_t routed = 0;             ///< submit() calls
    std::uint64_t accepted = 0;
    std::uint64_t rejected = 0;           ///< replica chain exhausted, no degrade
    std::uint64_t failovers = 0;          ///< deliveries past the primary
    std::uint64_t roster_skips = 0;       ///< replicas skipped as Dead
    std::uint64_t transport_refusals = 0; ///< request wire gave up / node down
    std::uint64_t stale_epoch_refusals = 0;
    std::uint64_t cross_shard_degraded = 0;
    std::uint64_t kills = 0;
    std::uint64_t revivals = 0;
    std::uint64_t partitions = 0;
    std::uint64_t heals = 0;              ///< partition/slow windows ended
    std::uint64_t slowdowns = 0;
    std::uint64_t deaths = 0;             ///< roster transitions into Dead
    std::uint64_t suspicions = 0;         ///< roster transitions into Suspect
    std::uint64_t readmissions = 0;       ///< Dead -> Alive re-admissions
    std::uint64_t refutations = 0;        ///< shards refuting their own Dead claim
    /// Value replies delivered under a mismatched incarnation. The wire
    /// format makes this structurally impossible; the drills assert 0.
    std::uint64_t stale_replies_delivered = 0;
    /// Replies delivered from the locally held outcome because the reply
    /// wire gave up (shard killed/partitioned at completion time).
    std::uint64_t reply_wire_fallbacks = 0;
    /// Replies that reached the router after their attempt was withdrawn
    /// (the request leg gave up although the shard had admitted it):
    /// dropped — the client was already failed over.
    std::uint64_t orphan_replies = 0;
};

class ShardCluster {
public:
    /// Builds `cfg.shard_count` services over `pool`. The pool must
    /// outlive the cluster; the cluster drains every shard on destruction.
    /// Futures returned by submit() must not outlive the cluster.
    ShardCluster(runtime::ThreadPool& pool, ShardClusterConfig cfg = {});
    ~ShardCluster();

    ShardCluster(const ShardCluster&) = delete;
    ShardCluster& operator=(const ShardCluster&) = delete;

    /// Route and deliver: hash the scene, walk its replica chain, fail
    /// over past dead/refusing shards, degrade cross-shard as a last
    /// resort. Synchronous like PyramidService::submit; never blocks on
    /// compute (a Slow shard's injected stall does block the caller — by
    /// design, that is what a slow shard does to its clients). A request
    /// validate_request refuses throws std::invalid_argument before it is
    /// counted or sent.
    [[nodiscard]] ClusterSubmitResult submit(TransformRequest request);

    /// Drain every live shard, stop the monitor thread, and wait until
    /// every shard's reply has been shipped or fallen back. Idempotent.
    void shutdown();

    // --- fault seams (the chaos replay uses exactly these) ---

    /// Crash-stop `shard` now: the NIC goes unreachable, the service
    /// drains (waiters get ServiceShutdownError), metrics fold into the
    /// retired accumulator, cache state is lost. No-op if already killed.
    void kill(ShardId shard);

    /// Bring a killed shard back with a fresh service, a fresh membership
    /// view, and a *new* incarnation. The roster re-admits it only after
    /// readmit_oks heartbeats of the new life. No-op if not killed.
    void revive(ShardId shard);

    void set_partitioned(ShardId shard, bool on);
    void set_slow(ShardId shard, double stall_seconds);  ///< 0 clears

    /// Install `plan` cluster-wide: its shard events replay against the
    /// cluster clock, and its in-service faults (compute errors, stalls,
    /// corruptions) are pushed to every live shard — and re-installed on
    /// each revived life — so one spec string describes the whole run.
    void set_chaos_plan(const ChaosPlan& plan);

    /// Install a transport fault plan (drops / corruption / LinkFault
    /// windows) on the live wire — the partition-drill seam. A zero seed
    /// keeps the transport's current draw seed.
    void set_transport_faults(mesh::FaultPlan plan);

    /// Manual-clock step: advance to `now` seconds, replay due chaos
    /// events, run one gossip round over the wire, sweep every detector.
    /// The monitor thread calls this with wall-derived time; manual-clock
    /// owners call it directly. `now` never moves backwards.
    void tick(double now);

    // --- introspection ---
    [[nodiscard]] std::size_t shard_count() const noexcept;
    [[nodiscard]] const HashRing& ring() const noexcept { return ring_; }
    [[nodiscard]] ShardHealth health(ShardId shard) const;
    [[nodiscard]] std::uint64_t incarnation(ShardId shard) const;
    [[nodiscard]] std::uint64_t roster_epoch() const;
    [[nodiscard]] std::uint64_t roster_hash() const;
    /// The shard's *own* gossiped membership view (the drills assert that
    /// every live node converges to the router's roster_hash after heal).
    [[nodiscard]] std::uint64_t node_roster_hash(ShardId shard) const;
    [[nodiscard]] ClusterCounters counters() const;
    [[nodiscard]] WireStats wire_stats() const;
    [[nodiscard]] const ShardClusterConfig& config() const noexcept { return cfg_; }

    /// Fleet view: live shards' snapshots merged with every killed life's
    /// retired snapshot — counters never go backwards across a kill.
    [[nodiscard]] MetricsSnapshot fleet_metrics() const;
    [[nodiscard]] CacheStats fleet_cache_stats() const;
    /// Fleet slab-pool view (ISSUE 8): live shards' arena stats merged
    /// with every killed life's — a kill returns its pooled slabs to the
    /// allocator, but the hit/miss/fallback history still counts.
    [[nodiscard]] ArenaStats fleet_arena_stats() const;

    /// Replica chain the router would walk for this request's scene.
    /// Throws std::invalid_argument as submit does.
    [[nodiscard]] std::vector<ShardId> placement(const TransformRequest& request) const;

    // --- test hooks ---
    /// Direct delivery to one shard, bypassing ring + roster + wire
    /// (cache warming in tests). Throws std::out_of_range on a bad shard
    /// id; returns a Transport refusal shape if the shard is unreachable.
    [[nodiscard]] SubmitResult submit_to_shard(ShardId shard, TransformRequest request);

    /// The shard's live service, or nullptr while killed. The pointer is
    /// only stable while the caller prevents kills (test seam).
    [[nodiscard]] PyramidService* service(ShardId shard);

private:
    /// One sealed gossip frame waiting in a node's (or the router's)
    /// inbox. Filled by transport sinks during a tick's sends, drained by
    /// the same tick's merge phase — only mu_ holders ever touch inboxes.
    struct GossipMsg {
        int src = 0;
        std::vector<std::byte> frame;
        std::uint32_t crc = 0;  ///< the receiving NIC's pass over `frame`

        static GossipMsg of(int src, mesh::CheckedBytes f) {
            return {src, {f.bytes.begin(), f.bytes.end()}, f.crc};
        }
    };

    struct Node {
        std::shared_ptr<PyramidService> service;  // null while killed
        std::uint64_t incarnation = 0;
        bool killed = false;
        bool partitioned = false;
        double stall_seconds = 0.0;  ///< injected per-delivery stall (Slow)
        /// The shard's own membership view, fed purely by gossip (mu_).
        FailureDetector detector;
        std::vector<GossipMsg> inbox;  ///< sealed roster frames (mu_)
    };

    /// One side of a timed ShardEvent, flattened for ordered replay.
    struct ChaosAction {
        double at = 0.0;
        ShardId shard = 0;
        ShardEventKind kind = ShardEventKind::Kill;
        bool begin = true;
        double stall_seconds = 0.0;
    };

    /// Grab a direct-delivery ticket for `shard` under nodes_mu_: the
    /// live service (ref held), the stall to apply, or the refusal.
    struct Ticket {
        std::shared_ptr<PyramidService> service;
        double stall_seconds = 0.0;
        RouteRefusal refusal = RouteRefusal::None;
    };
    [[nodiscard]] Ticket grab_ticket(ShardId shard);

    /// A routed attempt awaiting its reply, keyed by request_id (nodes_mu_).
    struct InFlight {
        std::shared_ptr<std::promise<TransformReply>> promise;
        std::uint64_t incarnation = 0;  ///< the router's belief at dispatch
    };

    [[nodiscard]] int router_node() const noexcept {
        return static_cast<int>(cfg_.shard_count);
    }

    /// Shard-side request handler: fence, decode, admit into the shard's
    /// service with send_reply as the completion hook.
    [[nodiscard]] std::vector<std::byte> handle_request(ShardId shard,
                                                        mesh::CheckedBytes frame);

    /// Router-side reply handler: claim the in-flight entry and resolve
    /// the client promise with what crossed the wire.
    void handle_reply(mesh::CheckedBytes frame);

    /// The shard's completion hook for the request `req` names: seal the
    /// outcome, ship it to the router, and deliver it locally if the
    /// router never took it.
    void send_reply(ShardId shard, const wire::Header& req,
                    const TransformFuture& outcome);

    /// Remove `request_id`'s in-flight entry; the caller then owns (and
    /// must resolve or drop) its promise. nullopt if already removed.
    [[nodiscard]] std::optional<InFlight> claim(std::uint64_t request_id);

    /// One gossip round at `now` (mu_ held): every live shard seals its
    /// roster and beats the router + fanout peers, the router broadcasts
    /// its pre-merge roster, then every inbox is merged (self-entries run
    /// the refutation rule) and every detector sweeps.
    void gossip_round_locked(double now);
    void tick_locked(std::unique_lock<std::mutex>& lk, double now);

    void kill_locked_phase1(ShardId shard, std::unique_lock<std::mutex>& lk,
                            std::vector<std::shared_ptr<PyramidService>>& drains);
    void revive_locked(ShardId shard);
    void apply_due_actions(std::unique_lock<std::mutex>& lk, double now);
    void drain_and_retire(std::vector<std::shared_ptr<PyramidService>>& drains);
    /// The fleet view behind fleet_metrics/fleet_cache_stats/
    /// fleet_arena_stats: `retired` (read under mu_) merged with
    /// `read(service)` of every live shard.
    template <typename Stats, typename Read>
    [[nodiscard]] Stats merge_fleet(const Stats& retired, Read read) const;
    void absorb_transitions_locked();
    void sync_reachability(ShardId shard);
    void monitor_loop();
    [[nodiscard]] double now_seconds() const;

    runtime::ThreadPool& pool_;
    const ShardClusterConfig cfg_;
    HashRing ring_;
    DigestMemo digest_memo_;  ///< routing skips the pixel hash on reseen scenes
    const Clock::time_point epoch0_ = Clock::now();  ///< wall clock origin
    ShardTransport transport_;  ///< nodes 0..N-1 = shards, N = router

    mutable std::mutex mu_;
    bool stopping_ = false;
    double now_ = 0.0;  ///< cluster clock, monotonic (manual or wall-derived)
    FailureDetector detector_;          ///< the router's view; drives routing
    std::vector<GossipMsg> router_inbox_;
    std::vector<ChaosAction> actions_;  // sorted by at
    std::size_t next_action_ = 0;
    ChaosPlan service_plan_;            ///< pushed to every (re)born service
    bool have_service_plan_ = false;
    MetricsSnapshot retired_;      ///< merged snapshots of killed lives
    CacheStats retired_cache_;
    ArenaStats retired_arena_;

    mutable std::mutex nodes_mu_;  ///< leaf lock (see lock order above)
    std::vector<Node> nodes_;
    ClusterCounters counters_;
    std::map<std::uint64_t, InFlight> inflight_;
    std::uint64_t next_request_id_ = 1;
    /// Completion hooks registered with a shard service and not yet
    /// finished; shutdown() waits for zero (they use the transport).
    std::size_t replies_outstanding_ = 0;
    std::condition_variable cv_replies_;

    std::condition_variable cv_monitor_;
    std::thread monitor_;  // last member: joins before the rest tears down
};

}  // namespace wavehpc::svc::shard
