#pragma once
// The WHRC NIC frame, the one codec of both reliable transports (the mesh
// machine's csend_reliable and the shard tier's ShardTransport):
//
//   magic u32 'WHRC' | seq u32 | crc u32 = crc32(seq bytes ++ payload) | payload
//
// little-endian. The sender derives the CRC from the payload's own CRC
// (crc32_shift), and the receiver's one pass over the payload yields the
// CRC that later checks can reuse (CheckedBytes).

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "mesh/faults.hpp"

namespace wavehpc::mesh {

/// Bytes together with their crc32 — taken once, reused by every later
/// check. Converts to the plain span, so span-taking code accepts it.
struct CheckedBytes {
    std::span<const std::byte> bytes;
    std::uint32_t crc = 0;

    [[nodiscard]] static CheckedBytes of(std::span<const std::byte> b) {
        return {b, crc32(b)};
    }
    operator std::span<const std::byte>() const noexcept { return bytes; }  // NOLINT
};

namespace frame {

constexpr std::uint32_t kMagic = 0x57485243U;  // "WHRC"
constexpr std::size_t kHeaderBytes = 12;       // magic + seq + crc

using Header = std::array<std::byte, kHeaderBytes>;

/// The header for `payload` sent at `seq`, from the payload's known CRC
/// (O(log n); the payload bytes are not read).
[[nodiscard]] Header make_header(std::uint32_t seq, CheckedBytes payload);

/// Contiguous frame: header ++ payload (one CRC pass over the payload).
[[nodiscard]] std::vector<std::byte> build(std::uint32_t seq,
                                           std::span<const std::byte> payload);

/// Receiver NIC check of `header` against a payload of `payload_size`
/// bytes whose CRC the receiver computed as `payload_crc`.
[[nodiscard]] bool header_valid(std::span<const std::byte, kHeaderBytes> header,
                                std::size_t payload_size,
                                std::uint32_t payload_crc) noexcept;

/// Receiver NIC check with its one pass over `payload`: the payload's
/// CRC if the frame is intact, nullopt if the NIC rejects it.
[[nodiscard]] std::optional<std::uint32_t> validate(
    std::span<const std::byte, kHeaderBytes> header,
    std::span<const std::byte> payload);

/// Same, over a contiguous frame.
[[nodiscard]] std::optional<std::uint32_t> validate(std::span<const std::byte> frame);

}  // namespace frame
}  // namespace wavehpc::mesh
