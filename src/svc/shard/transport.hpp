#pragma once
// In-process shard transport with the mesh machine's reliable-frame
// semantics (DESIGN.md §16).
//
// The live sharded cluster cannot run inside mesh::Machine — the machine
// is a run-to-completion virtual-time simulator, while the cluster serves
// real threads. ShardTransport closes that gap: rpc runs the machine's own
// stop-and-wait loop (mesh::arq::transfer: per-(src,dst,tag) sequence
// channels, the NIC check of mesh/frame.hpp, duplicate suppression, give-up
// resync) against the same link-aware FaultPlan, so every byte the router
// exchanges with a shard takes the same losses, corruptions, and asymmetric
// partitions a mesh program would — just on the caller's clock instead of
// the simulator's. Only the wire policy differs: an attempt here costs
// counters, not virtual time.
//
// Nodes are small integers: shards 0..N-1, the router N. Two delivery
// shapes:
//   - send_datagram: one unacknowledged frame (gossip beats) — delivered
//     to the destination's Sink or lost, exactly one fault draw.
//   - rpc: request bytes travel under ARQ to the destination's Handler;
//     the handler's response travels back under ARQ on the reverse
//     channel. Either leg exhausting its retries yields nullopt (the
//     at-most-once ambiguity a real RPC client faces: a request whose
//     every ack was lost still reached its handler).
//
// Every fault decision is a pure function of (plan seed, src, dst, tag,
// the channel's own frame ordinal, transport time) — draws are counted
// per channel, not globally, so concurrent request traffic can never
// shift the gossip channels' deterministic draw stream.
//
// Locking: each channel's seq, draw counter and ARQ state sit under that
// channel's mutex for one transfer's attempts (a channel is stop-and-wait,
// so its transfers serialize; different channels run in parallel). A
// registry mutex guards reachability, clock, plan and endpoints; a stats
// mutex guards WireStats. Handlers and sinks run with no transport lock
// held: they may block or make nested rpc calls on other channels.
//
// One CRC pass per frame per side (mesh/frame.hpp): a CheckedBytes
// payload — e.g. wire::checked(sealed) — costs the sender no pass; the
// receiving NIC's one pass over the clean payload (taken once per
// transfer, outside the channel lock) is what handlers are called with.
// A frame is copied, and re-checked in full, only when the plan draws a
// corruption for it.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <tuple>
#include <vector>

#include "mesh/arq.hpp"
#include "mesh/faults.hpp"
#include "mesh/frame.hpp"

namespace wavehpc::svc::shard {

struct WireStats {
    std::uint64_t frames_sent = 0;        ///< every frame handed to the wire
    std::uint64_t frames_delivered = 0;   ///< fresh payloads reaching the app
    std::uint64_t drops = 0;              ///< plan- or reachability-dropped
    std::uint64_t corrupt_rejections = 0; ///< NIC CRC rejections
    std::uint64_t retransmits = 0;
    std::uint64_t duplicates_suppressed = 0;
    std::uint64_t gave_up = 0;            ///< ARQ transfers that exhausted retries
};

class ShardTransport {
public:
    /// RPC endpoint: (source node, request payload) -> response payload.
    /// The payload arrives with the CRC the receiving NIC computed over it
    /// (a span-taking callable works too).
    using Handler = std::function<std::vector<std::byte>(int, mesh::CheckedBytes)>;
    /// Datagram endpoint: (source node, payload).
    using Sink = std::function<void(int, mesh::CheckedBytes)>;

    ShardTransport(int nodes, std::uint64_t seed, int max_retries = 4);

    /// Advance the transport clock (seconds); LinkFault windows in the
    /// plan match against this time.
    void set_time(double now);
    /// An unreachable node's NIC is off: every frame to or from it is
    /// lost (no draw consumed — the wire never saw it).
    void set_reachable(int node, bool on);
    void set_faults(mesh::FaultPlan plan);
    void set_handler(int node, int tag, Handler h);
    void set_sink(int node, int tag, Sink s);

    /// One best-effort frame. Returns true if it was delivered.
    bool send_datagram(int src, int dst, int tag, mesh::CheckedBytes data);
    bool send_datagram(int src, int dst, int tag, std::span<const std::byte> data);

    /// Reliable request/response. nullopt when either leg gives up.
    std::optional<std::vector<std::byte>> rpc(int src, int dst, int tag,
                                              mesh::CheckedBytes data);
    std::optional<std::vector<std::byte>> rpc(int src, int dst, int tag,
                                              std::span<const std::byte> data);

    [[nodiscard]] WireStats stats() const;

private:
    struct Channel {
        std::mutex mu;
        mesh::arq::Channel arq;
        std::uint64_t draws = 0;  ///< fault draws consumed on this channel
    };

    /// Outcome of one ARQ transfer.
    struct Transfer {
        bool fresh = false;  ///< the receiver accepted the payload (once)
        bool acked = false;  ///< an ack survived the reverse path
    };

    /// One attempt's view of the shared state, read under mu_.
    struct Link {
        bool up = false;
        double now = 0.0;
        std::shared_ptr<const mesh::FaultPlan> plan;
    };

    using ChannelKey = std::tuple<int, int, int>;  // (src, dst, tag)
    template <typename T>
    using Endpoints = std::map<std::pair<int, int>, std::shared_ptr<const T>>;

    template <typename T>
    [[nodiscard]] std::shared_ptr<const T> endpoint(const Endpoints<T>& table, int node,
                                                    int tag) const {
        std::lock_guard lk(mu_);
        const auto it = table.find({node, tag});
        return it == table.end() ? nullptr : it->second;
    }
    [[nodiscard]] Channel& channel(int src, int dst, int tag);
    [[nodiscard]] Link link(int src, int dst) const;
    void record(const WireStats& delta);

    /// One ARQ transfer (mesh::arq::transfer) src->dst on its channel;
    /// `rx_crc` is the receiving NIC's pass over the clean payload bytes.
    Transfer transfer(int src, int dst, int tag, mesh::CheckedBytes data,
                      std::uint32_t rx_crc);

    mutable std::mutex mu_;  ///< registry: everything below but stats
    int nodes_;
    int max_retries_;
    double now_ = 0.0;
    std::shared_ptr<const mesh::FaultPlan> plan_;
    std::vector<bool> reachable_;
    std::map<ChannelKey, Channel> channels_;  ///< nodes never move
    Endpoints<Handler> handlers_;  // (node, tag)
    Endpoints<Sink> sinks_;

    mutable std::mutex stats_mu_;
    WireStats stats_;
};

}  // namespace wavehpc::svc::shard
