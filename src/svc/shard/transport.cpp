#include "svc/shard/transport.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/splitmix.hpp"

namespace wavehpc::svc::shard {

namespace {

namespace frame = mesh::frame;
using core::mix64;

// Fault-draw index for the channel's n-th frame. Per-channel (not global)
// so concurrent traffic on other channels can never shift this channel's
// draw sequence: the gossip channels see the same deterministic stream no
// matter how request/reply RPCs interleave with the beat schedule.
[[nodiscard]] std::uint64_t draw_index(int src, int dst, int tag,
                                       std::uint64_t n) noexcept {
    const std::uint64_t key =
        (static_cast<std::uint64_t>(static_cast<std::uint32_t>(src)) << 40) ^
        (static_cast<std::uint64_t>(static_cast<std::uint32_t>(dst)) << 20) ^
        static_cast<std::uint64_t>(static_cast<std::uint32_t>(tag));
    return mix64(key) + n;
}

}  // namespace

ShardTransport::ShardTransport(int nodes, std::uint64_t seed, int max_retries)
    : nodes_(nodes), max_retries_(max_retries),
      reachable_(static_cast<std::size_t>(std::max(nodes, 0)), true) {
    if (nodes <= 0) throw std::invalid_argument("ShardTransport: nodes must be > 0");
    if (max_retries < 0) {
        throw std::invalid_argument("ShardTransport: negative max_retries");
    }
    mesh::FaultPlan plan;
    plan.seed = seed;
    plan_ = std::make_shared<const mesh::FaultPlan>(std::move(plan));
}

void ShardTransport::set_time(double now) {
    std::lock_guard lk(mu_);
    now_ = std::max(now_, now);
}

void ShardTransport::set_reachable(int node, bool on) {
    std::lock_guard lk(mu_);
    reachable_.at(static_cast<std::size_t>(node)) = on;
}

void ShardTransport::set_faults(mesh::FaultPlan plan) {
    std::lock_guard lk(mu_);
    if (plan.seed == 0) plan.seed = plan_->seed;
    plan_ = std::make_shared<const mesh::FaultPlan>(std::move(plan));
}

void ShardTransport::set_handler(int node, int tag, Handler h) {
    std::lock_guard lk(mu_);
    handlers_[{node, tag}] = std::make_shared<const Handler>(std::move(h));
}

void ShardTransport::set_sink(int node, int tag, Sink s) {
    std::lock_guard lk(mu_);
    sinks_[{node, tag}] = std::make_shared<const Sink>(std::move(s));
}

ShardTransport::Channel& ShardTransport::channel(int src, int dst, int tag) {
    std::lock_guard lk(mu_);
    return channels_[{src, dst, tag}];
}

ShardTransport::Link ShardTransport::link(int src, int dst) const {
    const auto up = [this](int node) {
        return node >= 0 && node < nodes_ && reachable_[static_cast<std::size_t>(node)];
    };
    std::lock_guard lk(mu_);
    return {up(src) && up(dst), now_, plan_};
}

void ShardTransport::record(const WireStats& d) {
    std::lock_guard lk(stats_mu_);
    stats_.frames_sent += d.frames_sent;
    stats_.frames_delivered += d.frames_delivered;
    stats_.drops += d.drops;
    stats_.corrupt_rejections += d.corrupt_rejections;
    stats_.retransmits += d.retransmits;
    stats_.duplicates_suppressed += d.duplicates_suppressed;
    stats_.gave_up += d.gave_up;
}

bool ShardTransport::send_datagram(int src, int dst, int tag,
                                   std::span<const std::byte> data) {
    return send_datagram(src, dst, tag, mesh::CheckedBytes::of(data));
}

bool ShardTransport::send_datagram(int src, int dst, int tag,
                                   mesh::CheckedBytes data) {
    Channel& ch = channel(src, dst, tag);
    mesh::FaultDecision fd;
    {
        std::lock_guard lk(ch.mu);
        const Link l = link(src, dst);
        if (!l.up) return false;
        fd = l.plan->decide_frame(draw_index(src, dst, tag, ch.draws++), src, dst,
                                  tag, l.now);
    }
    WireStats d;
    ++d.frames_sent;
    const std::uint32_t rx_crc = fd.drop ? 0 : mesh::crc32(data.bytes);
    std::shared_ptr<const Sink> sink;
    if (fd.drop) {
        ++d.drops;
    } else if (!frame::nic_accepts(frame::make_header(0, data), data.bytes, rx_crc, fd)) {
        ++d.corrupt_rejections;
    } else if ((sink = endpoint(sinks_, dst, tag))) {
        ++d.frames_delivered;
    }
    record(d);
    if (!sink) return false;
    (*sink)(src, {data.bytes, rx_crc});
    return true;
}

ShardTransport::Transfer ShardTransport::transfer(int src, int dst, int tag,
                                                  mesh::CheckedBytes data,
                                                  std::uint32_t rx_crc) {
    // What an attempt costs here: counters only. Every attempt reads the
    // ends' reachability; a down end loses the frame with no draw.
    struct Wire {
        const ShardTransport& t;
        int src;
        int dst;
        int tag;
        Channel& ch;
        WireStats d{};
        Link l{};
        bool fresh = false;

        std::optional<mesh::FaultDecision> send(bool retransmit) {
            if (retransmit) ++d.retransmits;
            ++d.frames_sent;
            l = t.link(src, dst);
            if (!l.up) return std::nullopt;
            const mesh::FaultDecision fd = l.plan->decide_frame(
                draw_index(src, dst, tag, ch.draws++), src, dst, tag, l.now);
            if (!fd.drop) return fd;
            ++d.drops;
            return std::nullopt;
        }
        void rejected() { ++d.corrupt_rejections; }
        void deliver() {
            ++d.frames_delivered;
            fresh = true;
        }
        void duplicate() { ++d.duplicates_suppressed; }
        bool ack() {
            ++d.frames_sent;
            // The ack draws from the data channel's sequence (not the reverse
            // channel's), keeping one transfer's fate a function of one stream.
            const mesh::FaultDecision fa = l.plan->decide_frame(
                draw_index(src, dst, tag, ch.draws++), dst, src, tag, l.now);
            if (fa.drop) {
                ++d.drops;
            } else if (fa.corrupt) {
                ++d.corrupt_rejections;  // the sender's NIC rejects it
            }
            return !fa.drop && !fa.corrupt;
        }
        void lost() {}
        void acked() {}
    };
    Channel& ch = channel(src, dst, tag);
    Wire wire{.t = *this, .src = src, .dst = dst, .tag = tag, .ch = ch};
    Transfer t;
    {
        std::lock_guard lk(ch.mu);
        t.acked = mesh::arq::transfer(ch.arq, data, rx_crc, max_retries_, wire);
    }
    t.fresh = wire.fresh;
    if (!t.acked) ++wire.d.gave_up;
    record(wire.d);
    return t;
}

std::optional<std::vector<std::byte>> ShardTransport::rpc(
    int src, int dst, int tag, std::span<const std::byte> data) {
    return rpc(src, dst, tag, mesh::CheckedBytes::of(data));
}

std::optional<std::vector<std::byte>> ShardTransport::rpc(int src, int dst, int tag,
                                                          mesh::CheckedBytes data) {
    const std::uint32_t rx_crc = mesh::crc32(data.bytes);
    const Transfer request = transfer(src, dst, tag, data, rx_crc);
    // The channel is stop-and-wait and starts every transfer in step with
    // its receiver, so an acked transfer was accepted fresh exactly once.
    // A fresh payload reaches the handler even when every ack was lost.
    std::vector<std::byte> response;
    if (request.fresh) {
        if (const auto handler = endpoint(handlers_, dst, tag)) {
            response = (*handler)(src, {data.bytes, rx_crc});
        }
    }
    if (!request.acked) return std::nullopt;
    // Response leg: back under the reverse channel's own ARQ.
    const auto resp = mesh::CheckedBytes::of(response);
    if (!transfer(dst, src, tag, resp, mesh::crc32(response)).acked) return std::nullopt;
    return response;
}

WireStats ShardTransport::stats() const {
    std::lock_guard lk(stats_mu_);
    return stats_;
}

}  // namespace wavehpc::svc::shard
