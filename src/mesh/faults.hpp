#pragma once
// Deterministic fault injection for the mesh machine.
//
// A FaultPlan is a seeded, replayable schedule of network and node faults:
// per-message drop and bit-flip corruption draws, exact-index drops for
// targeted tests, link-degradation windows that dilate wire time, per-rank
// fail-stop times, and directed per-link fault windows (drop/corrupt/delay
// scoped to a (src, dst, tag) triple — the substrate for asymmetric
// partitions where A hears B but not vice versa). All per-message decisions
// are pure functions of (seed, message index); the discrete-event engine
// delivers messages in a deterministic order, so a run under a given plan
// replays bit-identically.

#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <vector>

namespace wavehpc::mesh {

/// CRC-32 (IEEE 802.3, reflected 0xEDB88320) over a byte span; `seed` chains
/// multi-span checksums: crc32(b, crc32(a)) == crc32(a ++ b).
[[nodiscard]] std::uint32_t crc32(std::span<const std::byte> data,
                                  std::uint32_t seed = 0);

/// zlib-style CRC combine in O(log len), without touching the bytes:
///   crc32(a ++ b) == crc32_shift(crc32(a), b.size()) ^ crc32(b).
/// A checksum taken once can then be extended, or split back apart, for
/// free — the frame codecs use it to CRC each payload exactly once.
[[nodiscard]] std::uint32_t crc32_shift(std::uint32_t crc, std::uint64_t len) noexcept;

/// Bytes passed through crc32() on the calling thread so far — the test
/// seam that proves how many CRC passes a code path makes.
[[nodiscard]] std::uint64_t crc32_bytes_hashed() noexcept;

/// One window of degraded wire performance: every transfer whose network
/// entry time falls in [t_begin, t_end) takes `factor` times as long
/// (factor > 1 models a link renegotiating down; the window applies
/// machine-wide, matching the single shared ledger clock).
struct LinkDegradation {
    double t_begin = 0.0;
    double t_end = 0.0;
    double factor = 1.0;
};

/// A rank that fail-stops at virtual time `at`: the node executes nothing
/// from `at` on — no sends, no acks, no further compute.
struct NodeFailure {
    int rank = 0;
    double at = 0.0;
};

/// A directed fault window on one link. Frames whose (src, dst, tag) match
/// (-1 wildcards any value) and whose network-entry time falls in
/// [t_begin, t_end) draw drop/corrupt against these probabilities instead of
/// only the plan-wide ones, and pick up `delay_seconds` of extra wire time.
/// Direction matters: a rule for src=0,dst=1 leaves 1→0 traffic untouched,
/// which is exactly how an asymmetric partition is expressed.
struct LinkFault {
    int src = -1;  ///< sender rank, -1 = any
    int dst = -1;  ///< receiver rank, -1 = any
    int tag = -1;  ///< message tag, -1 = any
    double t_begin = 0.0;
    double t_end = std::numeric_limits<double>::infinity();
    double drop_probability = 1.0;
    double corrupt_probability = 0.0;
    double delay_seconds = 0.0;

    [[nodiscard]] bool matches(int s, int d, int g, double t) const noexcept {
        return (src < 0 || src == s) && (dst < 0 || dst == d) &&
               (tag < 0 || tag == g) && t >= t_begin && t < t_end;
    }
};

/// Per-message fault decision, derived deterministically from the plan seed
/// and the global message index.
struct FaultDecision {
    bool drop = false;
    bool corrupt = false;
    std::size_t flip_byte = 0;  ///< byte index to flip (mod frame size)
    unsigned flip_bit = 0;      ///< bit 0-7 within that byte
    double delay = 0.0;         ///< extra wire seconds from matching links
};

struct FaultPlan {
    std::uint64_t seed = 1;
    double drop_probability = 0.0;     ///< i.i.d. per message (data and acks)
    double corrupt_probability = 0.0;  ///< i.i.d. per message, one bit flipped
    std::vector<std::uint64_t> drop_exact;  ///< message indices always dropped
    std::vector<LinkDegradation> degradations;
    std::vector<NodeFailure> failures;
    std::vector<LinkFault> links;  ///< directed per-link windows

    /// True if any fault source is configured.
    [[nodiscard]] bool enabled() const noexcept;

    /// Deterministic decision for the `index`-th message handed to the
    /// network (counting every frame: payloads, retransmissions, acks).
    [[nodiscard]] FaultDecision decide(std::uint64_t index) const;

    /// Link-aware decision: the plan-wide draw merged with every LinkFault
    /// window matching (src, dst, tag) at network-entry time `t`. Link rules
    /// draw from independent deterministic lanes of the same seed, so adding
    /// a directed rule never perturbs the plan-wide sequence.
    [[nodiscard]] FaultDecision decide_frame(std::uint64_t index, int src,
                                             int dst, int tag, double t) const;

    /// Wire-time dilation factor at network entry time `t` (>= 1).
    [[nodiscard]] double degradation_factor(double t) const noexcept;

    /// Fail-stop time of `rank`, if scheduled.
    [[nodiscard]] std::optional<double> fail_time(int rank) const noexcept;
};

}  // namespace wavehpc::mesh
