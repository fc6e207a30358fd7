#include "mesh/frame.hpp"

#include <vector>

namespace wavehpc::mesh::frame {

namespace {

/// crc32(seq bytes ++ payload) from the payload's own CRC.
std::uint32_t frame_crc(std::span<const std::byte, 4> seq, std::size_t payload_size,
                        std::uint32_t payload_crc) noexcept {
    return crc32_shift(crc32(seq), payload_size) ^ payload_crc;
}

void put_u32(std::byte* dst, std::uint32_t v) noexcept {
    for (int i = 0; i < 4; ++i) {
        dst[i] = static_cast<std::byte>((v >> (8 * i)) & 0xFFU);
    }
}

std::uint32_t get_u32(const std::byte* src) noexcept {
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
        v |= static_cast<std::uint32_t>(src[i]) << (8 * i);
    }
    return v;
}

}  // namespace

Header make_header(std::uint32_t seq, CheckedBytes payload) {
    Header h{};
    put_u32(h.data(), kMagic);
    put_u32(h.data() + 4, seq);
    put_u32(h.data() + 8, frame_crc(std::span<const std::byte, 4>(h.data() + 4, 4),
                                    payload.bytes.size(), payload.crc));
    return h;
}

bool header_valid(std::span<const std::byte, kHeaderBytes> header,
                  std::size_t payload_size, std::uint32_t payload_crc) noexcept {
    if (get_u32(header.data()) != kMagic) return false;
    return get_u32(header.data() + 8) ==
           frame_crc(header.subspan<4, 4>(), payload_size, payload_crc);
}

std::optional<std::uint32_t> validate(std::span<const std::byte, kHeaderBytes> header,
                                      std::span<const std::byte> payload) {
    const std::uint32_t crc = crc32(payload);
    if (!header_valid(header, payload.size(), crc)) return std::nullopt;
    return crc;
}

bool nic_accepts(const Header& header, std::span<const std::byte> payload,
                 std::uint32_t rx_crc, const FaultDecision& fd) {
    if (!fd.corrupt) return header_valid(header, payload.size(), rx_crc);
    const std::size_t at = fd.flip_byte % (kHeaderBytes + payload.size());
    const auto bit = static_cast<std::byte>(1U << fd.flip_bit);
    if (at < kHeaderBytes) {
        Header flipped = header;
        flipped[at] ^= bit;
        return header_valid(flipped, payload.size(), rx_crc);
    }
    std::vector<std::byte> flipped(payload.begin(), payload.end());
    flipped[at - kHeaderBytes] ^= bit;
    return validate(header, flipped).has_value();
}

}  // namespace wavehpc::mesh::frame
