#pragma once
// The WHRC NIC frame and the receiving NIC's check, shared by both reliable
// transports through their one ARQ loop (mesh/arq.hpp):
//
//   magic u32 'WHRC' | seq u32 | crc u32 = crc32(seq bytes ++ payload) | payload
//
// little-endian. The sender derives the CRC from the payload's own CRC
// (crc32_shift), and the receiver's one pass over the payload yields the
// CRC that later checks can reuse (CheckedBytes). A frame is never
// assembled: the header travels beside the payload it covers.

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>

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

/// Does the receiving NIC accept this attempt of `header` ++ `payload`?
/// `rx_crc` is its pass over the clean payload. A drawn corruption flips
/// one bit in a private copy of the part it lands in (header or payload),
/// and a flipped payload is re-checked with a pass of its own.
[[nodiscard]] bool nic_accepts(const Header& header, std::span<const std::byte> payload,
                               std::uint32_t rx_crc, const FaultDecision& fd);

}  // namespace frame
}  // namespace wavehpc::mesh
