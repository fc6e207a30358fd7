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

/// Does the receiving NIC accept this attempt of `header` ++ `payload`?
/// `rx_crc` is its pass over the clean payload. A drawn corruption flips
/// one bit in a private copy of the part it lands in (header or payload),
/// and a flipped payload is re-checked with a pass of its own.
[[nodiscard]] bool nic_accepts(const frame::Header& header,
                               std::span<const std::byte> payload,
                               std::uint32_t rx_crc, const mesh::FaultDecision& fd) {
    if (!fd.corrupt) return frame::header_valid(header, payload.size(), rx_crc);
    const std::size_t at = fd.flip_byte % (frame::kHeaderBytes + payload.size());
    const auto bit = static_cast<std::byte>(1U << fd.flip_bit);
    if (at < frame::kHeaderBytes) {
        frame::Header flipped = header;
        flipped[at] ^= bit;
        return frame::header_valid(flipped, payload.size(), rx_crc);
    }
    std::vector<std::byte> flipped(payload.begin(), payload.end());
    flipped[at - frame::kHeaderBytes] ^= bit;
    return frame::validate(header, flipped).has_value();
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
    } else if (!nic_accepts(frame::make_header(0, data), data.bytes, rx_crc, fd)) {
        ++d.corrupt_rejections;
    } else if ((sink = endpoint(sinks_, dst, tag))) {
        ++d.frames_delivered;
    }
    record(d);
    if (!sink) return false;
    (*sink)(src, {data.bytes, rx_crc});
    return true;
}

ShardTransport::Transfer ShardTransport::arq(int src, int dst, int tag,
                                             mesh::CheckedBytes data,
                                             std::uint32_t rx_crc) {
    Channel& ch = channel(src, dst, tag);
    WireStats d;
    Transfer t;
    {
        std::lock_guard lk(ch.mu);
        const std::uint32_t seq = ch.next_seq;
        const frame::Header header = frame::make_header(seq, data);
        for (int attempt = 0; attempt <= max_retries_ && !t.acked; ++attempt) {
            if (attempt > 0) ++d.retransmits;
            ++d.frames_sent;
            const Link l = link(src, dst);
            if (!l.up) continue;

            const mesh::FaultDecision fd = l.plan->decide_frame(
                draw_index(src, dst, tag, ch.draws++), src, dst, tag, l.now);
            if (fd.drop) {
                ++d.drops;
                continue;
            }
            if (!nic_accepts(header, data.bytes, rx_crc, fd)) {
                // Receiver NIC rejects the frame (CRC/magic); no ack.
                ++d.corrupt_rejections;
                continue;
            }
            if (seq == ch.expected_seq) {
                ++ch.expected_seq;
                ++d.frames_delivered;
                t.fresh = true;
            } else {
                ++d.duplicates_suppressed;
            }
            // Valid frames — fresh or duplicate — are acknowledged; the ack
            // travels the reverse direction and draws its own fault.
            ++d.frames_sent;
            // The ack draws from the data channel's sequence (not the reverse
            // channel's), keeping one transfer's fate a function of one stream.
            const mesh::FaultDecision fa = l.plan->decide_frame(
                draw_index(src, dst, tag, ch.draws++), dst, src, tag, l.now);
            if (fa.drop) {
                ++d.drops;
            } else if (fa.corrupt) {
                // A corrupted ack is rejected by the sender's NIC.
                ++d.corrupt_rejections;
            } else {
                ch.next_seq = seq + 1;
                t.acked = true;
            }
        }
        if (!t.acked) {
            // Give up. The data frame may have been consumed even though every
            // ack was lost; mirror the receiver's expected seq (the model-level
            // stand-in for acks carrying it) so the channel stays in step.
            ++d.gave_up;
            ch.next_seq = ch.expected_seq;
        }
    }
    record(d);
    return t;
}

std::optional<std::vector<std::byte>> ShardTransport::rpc(
    int src, int dst, int tag, std::span<const std::byte> data) {
    return rpc(src, dst, tag, mesh::CheckedBytes::of(data));
}

std::optional<std::vector<std::byte>> ShardTransport::rpc(int src, int dst, int tag,
                                                          mesh::CheckedBytes data) {
    const std::uint32_t rx_crc = mesh::crc32(data.bytes);
    const Transfer request = arq(src, dst, tag, data, rx_crc);
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
    if (!arq(dst, src, tag, resp, mesh::crc32(response)).acked) return std::nullopt;
    return response;
}

WireStats ShardTransport::stats() const {
    std::lock_guard lk(stats_mu_);
    return stats_;
}

}  // namespace wavehpc::svc::shard
