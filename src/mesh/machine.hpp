#pragma once
// The coarse-grain MIMD machine: an interconnect topology + timing profile
// executing SPMD node programs under the discrete-event kernel.
//
// Node programs are real C++ running against an NX/PVM-flavoured API
// (csend / crecv / compute); data actually moves between node address
// spaces, so parallel algorithms are verified for *correctness* against
// sequential references while the machine profile yields faithful *timings*.

#include <cstddef>
#include <cstring>
#include <functional>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "mesh/arq.hpp"
#include "mesh/faults.hpp"
#include "mesh/ledger.hpp"
#include "mesh/topology.hpp"
#include "sim/engine.hpp"

namespace wavehpc::mesh {

/// Thrown by the reliable transport when a message cannot be delivered
/// (retries exhausted against an unresponsive peer) in transparent mode.
class TransportError : public std::runtime_error {
public:
    using std::runtime_error::runtime_error;
};

/// Stop-and-wait reliable-transport tuning. Zero-valued fields are derived
/// per message from the machine profile and payload size.
struct ReliableParams {
    double rto0 = 0.0;    ///< initial retransmit timeout; 0 = derive from RTT
    int max_retries = 12;  ///< attempts beyond the first before giving up
    double rto_cap = 0.0;  ///< exponential-backoff ceiling; 0 = 64 * initial
};

/// Timing parameters of a machine. Calibration rationale: DESIGN.md §5.3.
struct MachineProfile {
    std::string name;
    Topology topo;
    double send_overhead;  ///< software cost charged to the sender per message
    double recv_overhead;  ///< software cost charged to the receiver per message
    double per_hop;        ///< wire latency per axis hop
    double byte_time;      ///< seconds per payload byte on a channel
    FaultPlan faults;      ///< injected-fault schedule (benign by default)

    /// JPL Paragon compute partition (allocated 4 nodes wide) driven through
    /// PVM, as in the wavelet study. PVM on the Paragon was slow: ~1 ms
    /// software latency and single-digit MB/s effective bandwidth.
    [[nodiscard]] static MachineProfile paragon_pvm();
    /// Same fabric through native NX calls (Appendix B's Paragon runs).
    [[nodiscard]] static MachineProfile paragon_nx();
    /// JPL Cray T3D: 8x8x4 bidirectional 3-D torus, fast links, PVM software
    /// overheads (Appendix B notes "the negative effect of PVM").
    [[nodiscard]] static MachineProfile cray_t3d_pvm();
    /// Small deterministic profile with round-number costs, for tests.
    [[nodiscard]] static MachineProfile test_profile(std::size_t sx, std::size_t sy);
};

inline constexpr int kAnySource = -1;
inline constexpr int kAnyTag = -1;

struct Message {
    int src = 0;
    int tag = 0;
    std::vector<std::byte> data;
    double arrival = 0.0;
};

/// What a node did with its time; the perf module turns these into the
/// paper's "performance budget".
struct NodeStats {
    double comm_seconds = 0.0;       ///< inside csend/crecv, call to return
    double useful_seconds = 0.0;     ///< compute()
    double redundant_seconds = 0.0;  ///< compute_redundant()
    double recovery_seconds = 0.0;   ///< all activity while in recovery mode
    double finish_time = 0.0;
    std::size_t messages_sent = 0;
    std::size_t bytes_sent = 0;
    std::size_t retransmits = 0;           ///< reliable frames re-sent
    std::size_t recv_timeouts = 0;         ///< expired waits (acks + crecv_timeout)
    std::size_t corruptions_detected = 0;  ///< inbound frames this rank's NIC rejected
    bool fail_stopped = false;             ///< rank was killed by the fault plan
};

class Machine;

/// Per-rank handle passed to the SPMD body.
class NodeCtx {
public:
    [[nodiscard]] int rank() const noexcept { return rank_; }
    [[nodiscard]] int nprocs() const noexcept;
    [[nodiscard]] double now() const { return proc_->now(); }

    /// Charge useful computation time.
    void compute(double seconds);
    /// Charge parallelization-redundancy time (Appendix B's taxonomy).
    void compute_redundant(double seconds);
    /// Charge CPU time spent *inside* a communication library call (e.g.
    /// the per-element summation a global-sum routine performs); Appendix
    /// B's instrumentation measures calls end-to-end, so this books under
    /// communication, not redundancy.
    void charge_comm(double seconds);

    /// Blocking-buffered send, NX csend flavour: returns once the message is
    /// handed to the network; the transfer itself is booked on the route.
    /// Under Machine::use_reliable_transport this transparently becomes a
    /// reliable send and throws TransportError if delivery ultimately fails.
    void csend(int tag, int dst, std::span<const std::byte> data);
    /// Blocking receive; src/tag may be kAnySource/kAnyTag wildcards. With
    /// several matches pending, the earliest-arrival one is delivered.
    [[nodiscard]] Message crecv(int tag = kAnyTag, int src = kAnySource);

    /// Blocking receive that gives up `timeout` virtual seconds after the
    /// call; returns std::nullopt on expiry (books the wait as comm time and
    /// counts a recv_timeout). The timeout is a scheduled simulation event,
    /// so expiry never masks a message that arrives before the deadline.
    [[nodiscard]] std::optional<Message> crecv_timeout(int tag, int src, double timeout);

    /// Stop-and-wait reliable send (mesh/arq.hpp): sequence number +
    /// CRC32-protected frame, NIC-level ack, retransmit on loss with capped
    /// exponential backoff. Returns false when max_retries + 1 attempts went
    /// unacknowledged (the peer is presumed dead); duplicate frames from
    /// lost acks are suppressed at the receiver, so the mailbox sees each
    /// payload at most once, in order per (source, tag). Books end-to-end
    /// time (including the ack wait) as comm time. Throws
    /// std::invalid_argument on a negative max_retries.
    [[nodiscard]] bool csend_reliable(int tag, int dst, std::span<const std::byte> data,
                                      const ReliableParams& params = {});

    /// While set, every charge (compute, comm, redundancy) books into
    /// recovery_seconds instead — the fault-recovery overhead category.
    void set_recovery_mode(bool on) noexcept { recovery_ = on; }
    [[nodiscard]] bool recovery_mode() const noexcept { return recovery_; }

    template <typename T>
    void send_value(int tag, int dst, const T& v) {
        static_assert(std::is_trivially_copyable_v<T>);
        csend(tag, dst, std::as_bytes(std::span<const T, 1>(&v, 1)));
    }
    template <typename T>
    [[nodiscard]] T recv_value(int tag = kAnyTag, int src = kAnySource,
                               int* actual_src = nullptr) {
        static_assert(std::is_trivially_copyable_v<T>);
        const Message m = crecv(tag, src);
        if (m.data.size() != sizeof(T)) {
            throw std::runtime_error("recv_value: payload size mismatch");
        }
        if (actual_src != nullptr) *actual_src = m.src;
        T v;
        std::memcpy(&v, m.data.data(), sizeof(T));
        return v;
    }
    template <typename T>
    void send_span(int tag, int dst, std::span<const T> v) {
        static_assert(std::is_trivially_copyable_v<T>);
        csend(tag, dst, std::as_bytes(v));
    }
    template <typename T>
    [[nodiscard]] std::vector<T> recv_vector(int tag = kAnyTag, int src = kAnySource,
                                             int* actual_src = nullptr) {
        static_assert(std::is_trivially_copyable_v<T>);
        const Message m = crecv(tag, src);
        if (m.data.size() % sizeof(T) != 0) {
            throw std::runtime_error("recv_vector: payload size mismatch");
        }
        if (actual_src != nullptr) *actual_src = m.src;
        std::vector<T> v(m.data.size() / sizeof(T));
        std::memcpy(v.data(), m.data.data(), m.data.size());
        return v;
    }

    [[nodiscard]] const NodeStats& stats() const;

private:
    friend class Machine;
    NodeCtx(Machine* machine, sim::Proc* proc, int rank)
        : machine_(machine), proc_(proc), rank_(rank) {}

    void charge(double seconds, double NodeStats::*category);

    Machine* machine_;
    sim::Proc* proc_;
    int rank_;
    bool recovery_ = false;
};

/// RAII recovery-mode scope for NodeCtx.
class ScopedRecovery {
public:
    explicit ScopedRecovery(NodeCtx& ctx) : ctx_(ctx), prev_(ctx.recovery_mode()) {
        ctx_.set_recovery_mode(true);
    }
    ~ScopedRecovery() { ctx_.set_recovery_mode(prev_); }
    ScopedRecovery(const ScopedRecovery&) = delete;
    ScopedRecovery& operator=(const ScopedRecovery&) = delete;

private:
    NodeCtx& ctx_;
    bool prev_;
};

/// One message in the recorded communication trace.
struct TraceEvent {
    double post_time = 0.0;     ///< sender handed the message to the network
    double start_time = 0.0;    ///< route acquired (>= post_time under conflicts)
    double arrival_time = 0.0;
    int src = 0;
    int dst = 0;
    int tag = 0;
    std::size_t bytes = 0;
};

class Machine {
public:
    explicit Machine(MachineProfile profile);

    using NodeBody = std::function<void(NodeCtx&)>;

    struct RunResult {
        double makespan = 0.0;
        std::vector<NodeStats> stats;
        double contention_delay = 0.0;   ///< total route-conflict wait
        std::size_t messages = 0;
        std::size_t injected_drops = 0;        ///< frames the fault plan lost
        std::size_t injected_corruptions = 0;  ///< frames the fault plan flipped
        /// Chronological message trace; empty unless record_trace(true).
        std::vector<TraceEvent> trace;
    };

    /// Record every message into RunResult::trace (off by default — traces
    /// of large runs are big).
    void record_trace(bool on) noexcept { record_trace_ = on; }

    /// Replace the profile's fault schedule (applies to subsequent runs).
    void set_faults(FaultPlan plan) { profile_.faults = std::move(plan); }

    /// Route every NodeCtx::csend through the reliable transport (and make
    /// a failed delivery throw TransportError). Collectives and node
    /// programs then survive message drops and corruption unchanged.
    /// Throws std::invalid_argument on a negative max_retries.
    void use_reliable_transport(bool on, ReliableParams params = {});

    /// Explore alternative-but-causally-valid schedules: subsequent runs
    /// install a sim::SeededTieBreak with this seed, randomizing which of
    /// several equal-virtual-clock ranks the engine resumes first. Same
    /// seed → bit-identical interleaving, so a failing seed is a complete
    /// repro. nullopt restores the default lowest-pid order.
    void set_schedule_seed(std::optional<std::uint64_t> seed) noexcept {
        schedule_seed_ = seed;
    }
    [[nodiscard]] std::optional<std::uint64_t> schedule_seed() const noexcept {
        return schedule_seed_;
    }

    /// Run `body` as an SPMD program on `nprocs` ranks placed at
    /// `placement[rank]`. Coordinates must be distinct and inside the mesh.
    RunResult run(std::size_t nprocs, const std::vector<Coord3>& placement,
                  const NodeBody& body);

    /// Row-major default placement.
    RunResult run(std::size_t nprocs, const NodeBody& body);

    [[nodiscard]] const MachineProfile& profile() const noexcept { return profile_; }

private:
    friend class NodeCtx;

    // Per-run state, reset by run() (and by its RAII guard on exceptions).
    struct RunState {
        std::vector<std::vector<Message>> mailbox;  // per destination rank
        std::vector<std::size_t> pid_of_rank;
        std::vector<Coord3> placement;
        std::vector<NodeStats> stats;
        std::vector<TraceEvent> trace;
        LinkLedger ledger;
        std::uint64_t msg_counter = 0;  ///< global frame index for fault draws
        std::size_t injected_drops = 0;
        std::size_t injected_corruptions = 0;
        /// Stop-and-wait sequence state per (src, dst, tag) channel.
        std::map<std::tuple<int, int, int>, arq::Channel> channels;
        explicit RunState(std::size_t links) : ledger(links) {}
    };

    void do_send(NodeCtx& ctx, int tag, int dst, std::span<const std::byte> data);
    bool do_send_reliable(NodeCtx& ctx, int tag, int dst,
                          std::span<const std::byte> data,
                          const ReliableParams& params);
    std::optional<Message> do_recv(NodeCtx& ctx, int tag, int src,
                                   std::optional<double> timeout);

    void validate_send(const NodeCtx& ctx, int tag, int dst) const;
    static void check_retries(const ReliableParams& params);
    /// Throws the internal fail-stop signal if `ctx`'s rank is past its
    /// scheduled fail time.
    void check_fail_stop(NodeCtx& ctx) const;
    /// Advance virtual time, dying mid-interval if the fail time is crossed.
    void advance_with_fail(NodeCtx& ctx, double dt, double NodeStats::*category);
    [[nodiscard]] std::optional<double> fail_time_of(int rank) const {
        return profile_.faults.fail_time(rank);
    }

    MachineProfile profile_;
    std::unique_ptr<RunState> rs_;
    bool record_trace_ = false;
    std::optional<ReliableParams> reliable_;
    std::optional<std::uint64_t> schedule_seed_;
};

}  // namespace wavehpc::mesh
