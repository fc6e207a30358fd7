#pragma once
// The stop-and-wait ARQ protocol, written once for both reliable transports:
// the mesh machine's csend_reliable (virtual time) and the shard tier's
// ShardTransport::rpc (threads, the caller's clock).
//
// One transfer repeats one step until an ack survives or the retries run
// out: the wire decides the data frame's fate; the receiving NIC checks it
// (frame::nic_accepts); a frame carrying the expected seq is delivered and
// any other is a suppressed duplicate; every accepted frame is acked, and
// the wire decides the ack's fate; a surviving ack advances the sender.
// Giving up resyncs the sender to the receiver's expected seq: the data
// frame may have been consumed although every ack was lost, and mirroring
// the receiver (the model-level stand-in for acks carrying it) keeps the
// next transfer from being suppressed or skipped ahead.
//
// What an attempt costs is the caller's Wire policy, a template parameter
// (no indirect call per attempt):
//   std::optional<FaultDecision> send(bool retransmit)
//       hand the data frame to the wire; nullopt if it never reaches the
//       receiving NIC (dropped, or an end is down), else the draw the NIC
//       check applies (its corrupt flag and flip position)
//   void rejected()      the receiving NIC rejected the frame (CRC or magic)
//   void deliver()       the fresh payload reaches the receiver
//   void duplicate()     a duplicate was suppressed
//   bool ack()           the receiving NIC acks; true if the ack survives
//   void lost()          the attempt ends without a surviving ack
//   void acked()         the attempt's ack reached the sender
// The machine's wire pays send overhead, ledger reservations, the RTO
// backoff and fail-stop; the shard transport's only counts.

#include <cstdint>
#include <optional>

#include "mesh/faults.hpp"
#include "mesh/frame.hpp"

namespace wavehpc::mesh::arq {

/// One direction (src, dst, tag) of a stop-and-wait channel.
struct Channel {
    std::uint32_t next_seq = 0;      ///< sender: seq of its next transfer
    std::uint32_t expected_seq = 0;  ///< receiver: the seq it takes as fresh
};

/// One transfer of `payload` on `ch`, at most max_retries + 1 attempts.
/// `rx_crc` is the receiving NIC's CRC of the clean payload. Returns true
/// when an ack survived.
template <typename Wire>
[[nodiscard]] bool transfer(Channel& ch, CheckedBytes payload, std::uint32_t rx_crc,
                            int max_retries, Wire& wire) {
    const std::uint32_t seq = ch.next_seq;
    const frame::Header header = frame::make_header(seq, payload);
    for (int attempt = 0; attempt <= max_retries; ++attempt) {
        const std::optional<FaultDecision> fd = wire.send(attempt > 0);
        if (!fd) {
            wire.lost();
            continue;
        }
        if (!frame::nic_accepts(header, payload.bytes, rx_crc, *fd)) {
            wire.rejected();
            wire.lost();
            continue;
        }
        if (seq == ch.expected_seq) {
            ++ch.expected_seq;
            wire.deliver();
        } else {
            wire.duplicate();
        }
        if (!wire.ack()) {
            wire.lost();
            continue;
        }
        wire.acked();
        ch.next_seq = seq + 1;
        return true;
    }
    ch.next_seq = ch.expected_seq;
    return false;
}

}  // namespace wavehpc::mesh::arq
