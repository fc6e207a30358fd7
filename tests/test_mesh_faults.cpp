// Fault-injection layer: CRC32 (and its O(log n) combine), the shared WHRC
// frame codec, FaultPlan determinism, reliable transport under
// drops/corruption, crecv_timeout, fail-stop, link degradation, and
// collectives surviving faults (with a raw-transport deadlock as contrast).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <random>
#include <string>

#include "mesh/collectives.hpp"
#include "mesh/faults.hpp"
#include "mesh/frame.hpp"
#include "mesh/machine.hpp"
#include "testing/seeds.hpp"

namespace wavehpc::mesh {
namespace {

std::span<const std::byte> bytes_of(const char* s) {
    return {reinterpret_cast<const std::byte*>(s), std::strlen(s)};
}

TEST(Crc32, MatchesIeee8023CheckValue) {
    // The standard CRC-32 check value for the ASCII digits "123456789".
    EXPECT_EQ(crc32(bytes_of("123456789")), 0xCBF43926U);
    EXPECT_EQ(crc32({}), 0x00000000U);
}

TEST(Crc32, SeedChainsSpans) {
    const auto whole = crc32(bytes_of("hello world"));
    const auto chained = crc32(bytes_of(" world"), crc32(bytes_of("hello")));
    EXPECT_EQ(whole, chained);
}

TEST(Crc32, DetectsEverySingleBitFlip) {
    const char* msg = "wavelet";
    std::vector<std::byte> buf(bytes_of(msg).begin(), bytes_of(msg).end());
    const auto ref = crc32(buf);
    for (std::size_t i = 0; i < buf.size(); ++i) {
        for (unsigned b = 0; b < 8; ++b) {
            buf[i] ^= static_cast<std::byte>(1U << b);
            EXPECT_NE(crc32(buf), ref) << "flip byte " << i << " bit " << b;
            buf[i] ^= static_cast<std::byte>(1U << b);
        }
    }
}

std::vector<std::byte> seeded_bytes(std::size_t n, std::uint64_t seed) {
    std::mt19937_64 rng(seed);
    std::vector<std::byte> v(n);
    for (auto& b : v) b = static_cast<std::byte>(rng() & 0xFFU);
    return v;
}

// crc32(a ++ b) == crc32_shift(crc32(a), |b|) ^ crc32(b), at the lengths
// the frame codecs meet: empty, sub-word, word, a sealed shard header, and
// a 192x192 float plane plus its request header.
TEST(Crc32, ShiftCombinesSpansAtEveryLength) {
    const auto a = seeded_bytes(29, 1);
    for (const std::size_t n : {0UL, 1UL, 7UL, 8UL, 48UL, 147512UL}) {
        const auto b = seeded_bytes(n, n + 2);
        std::vector<std::byte> ab(a);
        ab.insert(ab.end(), b.begin(), b.end());
        EXPECT_EQ(crc32(ab), crc32_shift(crc32(a), n) ^ crc32(b)) << "len " << n;
        // ...and the split runs backwards: the tail's CRC from the whole.
        EXPECT_EQ(crc32(b), crc32(ab) ^ crc32_shift(crc32(a), n)) << "len " << n;
    }
    EXPECT_EQ(crc32_shift(0xCBF43926U, 0), 0xCBF43926U);
}

TEST(Crc32, ShiftChainsAnySeededSplit) {
    std::mt19937_64 rng(1996);
    for (int trial = 0; trial < 20; ++trial) {
        const auto buf = seeded_bytes(1 + rng() % 4096, rng());
        std::uint32_t chained = 0;
        std::size_t at = 0;
        while (at < buf.size()) {
            const std::size_t n = std::min<std::size_t>(buf.size() - at, rng() % 700);
            const std::span<const std::byte> piece(buf.data() + at, n);
            chained = crc32_shift(chained, n) ^ crc32(piece);
            at += n;
        }
        EXPECT_EQ(chained, crc32(buf)) << "trial " << trial;
    }
}

// One WHRC codec for both transports: make_header() stays byte-identical
// to the original chained-CRC construction, validate() hands back the
// payload CRC from its one pass, and any single-bit flip is rejected, by
// validate() and by the receiving NIC's check of a drawn corruption.
TEST(Frame, HeaderMatchesChainedCrcAndValidateRejectsFlips) {
    const auto payload = seeded_bytes(300, 5);
    const auto h = frame::make_header(0x01020304U, CheckedBytes::of(payload));
    const auto u32_at = [&h](std::size_t at) {
        std::uint32_t v = 0;
        for (int i = 0; i < 4; ++i) {
            v |= std::to_integer<std::uint32_t>(h[at + i]) << (8 * i);
        }
        return v;
    };
    EXPECT_EQ(u32_at(0), frame::kMagic);
    EXPECT_EQ(u32_at(4), 0x01020304U);
    EXPECT_EQ(u32_at(8), crc32(payload, crc32({h.data() + 4, 4})));

    const auto crc = frame::validate(h, payload);
    ASSERT_TRUE(crc.has_value());
    EXPECT_EQ(*crc, crc32(payload));
    EXPECT_TRUE(frame::nic_accepts(h, payload, *crc, FaultDecision{}));
    const std::size_t frame_bytes = frame::kHeaderBytes + payload.size();
    for (const std::size_t at : {0UL, 5UL, 9UL, 12UL, 200UL, frame_bytes - 1}) {
        auto bad_header = h;
        auto bad_payload = payload;
        if (at < frame::kHeaderBytes) {
            bad_header[at] ^= std::byte{0x08};
        } else {
            bad_payload[at - frame::kHeaderBytes] ^= std::byte{0x08};
        }
        EXPECT_FALSE(frame::validate(bad_header, bad_payload)) << "flip at byte " << at;
        FaultDecision fd;
        fd.corrupt = true;
        fd.flip_byte = at + 7 * frame_bytes;  // taken mod the frame size
        fd.flip_bit = 3;
        EXPECT_FALSE(frame::nic_accepts(h, payload, *crc, fd)) << "flip at byte " << at;
    }
}

TEST(FaultPlan, DisabledByDefault) {
    const FaultPlan plan;
    EXPECT_FALSE(plan.enabled());
    const auto d = plan.decide(42);
    EXPECT_FALSE(d.drop);
    EXPECT_FALSE(d.corrupt);
}

TEST(FaultPlan, DecisionsAreDeterministicInSeedAndIndex) {
    FaultPlan plan;
    plan.seed = 1234;
    plan.drop_probability = 0.3;
    plan.corrupt_probability = 0.3;
    FaultPlan same = plan;
    FaultPlan other = plan;
    other.seed = 1235;

    bool any_difference = false;
    for (std::uint64_t i = 0; i < 512; ++i) {
        const auto a = plan.decide(i);
        const auto b = same.decide(i);
        EXPECT_EQ(a.drop, b.drop);
        EXPECT_EQ(a.corrupt, b.corrupt);
        EXPECT_EQ(a.flip_byte, b.flip_byte);
        EXPECT_EQ(a.flip_bit, b.flip_bit);
        const auto c = other.decide(i);
        any_difference |= (a.drop != c.drop) || (a.corrupt != c.corrupt);
    }
    EXPECT_TRUE(any_difference) << "different seeds should disagree somewhere";
}

TEST(FaultPlan, ExactDropsAndFailTimes) {
    FaultPlan plan;
    plan.drop_exact = {7};
    plan.failures = {{.rank = 2, .at = 1.5}, {.rank = 2, .at = 0.5}};
    EXPECT_TRUE(plan.enabled());
    EXPECT_TRUE(plan.decide(7).drop);
    EXPECT_FALSE(plan.decide(6).drop);
    ASSERT_TRUE(plan.fail_time(2).has_value());
    EXPECT_DOUBLE_EQ(*plan.fail_time(2), 0.5);  // earliest wins
    EXPECT_FALSE(plan.fail_time(0).has_value());
}

TEST(FaultPlan, DegradationWindowsTakeMaxFactor) {
    FaultPlan plan;
    plan.degradations = {{.t_begin = 1.0, .t_end = 2.0, .factor = 4.0},
                         {.t_begin = 1.5, .t_end = 3.0, .factor = 2.0}};
    EXPECT_DOUBLE_EQ(plan.degradation_factor(0.5), 1.0);
    EXPECT_DOUBLE_EQ(plan.degradation_factor(1.0), 4.0);
    EXPECT_DOUBLE_EQ(plan.degradation_factor(1.75), 4.0);
    EXPECT_DOUBLE_EQ(plan.degradation_factor(2.5), 2.0);
    EXPECT_DOUBLE_EQ(plan.degradation_factor(3.0), 1.0);
}

// ---------------------------------------------------------------- transport

TEST(FaultMachine, RawTransportDropDeadlocksAndNamesTheWait) {
    Machine machine(MachineProfile::test_profile(2, 1));
    FaultPlan plan;
    plan.drop_exact = {0};  // the first (only) message vanishes
    machine.set_faults(plan);
    try {
        (void)machine.run(2, [](NodeCtx& ctx) {
            if (ctx.rank() == 0) {
                ctx.send_value<int>(5, 1, 17);
            } else {
                (void)ctx.recv_value<int>(5, 0);
            }
        });
        FAIL() << "expected DeadlockError";
    } catch (const sim::DeadlockError& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("rank1"), std::string::npos) << what;
        EXPECT_NE(what.find("crecv(tag=5, src=0)"), std::string::npos) << what;
    }
}

TEST(FaultMachine, ReliableTransportSurvivesDropsIntact) {
    Machine machine(MachineProfile::test_profile(4, 1));
    FaultPlan plan;
    plan.seed = 7;
    plan.drop_probability = 0.2;
    machine.set_faults(plan);
    machine.use_reliable_transport(true);

    std::vector<int> received;
    const auto res = machine.run(2, [&](NodeCtx& ctx) {
        if (ctx.rank() == 0) {
            for (int i = 0; i < 64; ++i) ctx.send_value<int>(3, 1, i * i);
        } else {
            for (int i = 0; i < 64; ++i) received.push_back(ctx.recv_value<int>(3, 0));
        }
    });

    ASSERT_EQ(received.size(), 64U);
    for (int i = 0; i < 64; ++i) EXPECT_EQ(received[static_cast<std::size_t>(i)], i * i);
    EXPECT_GT(res.injected_drops, 0U);
    EXPECT_GT(res.stats[0].retransmits, 0U);
}

TEST(FaultMachine, RawCorruptionIsSilentReliableCorruptionIsCaught) {
    FaultPlan plan;
    plan.seed = 11;
    plan.corrupt_probability = 0.5;

    const std::vector<int> payload = {10, 20, 30, 40, 50, 60, 70, 80};
    const auto send_recv = [&](bool reliable) {
        Machine machine(MachineProfile::test_profile(2, 1));
        machine.set_faults(plan);
        machine.use_reliable_transport(reliable);
        std::vector<std::vector<int>> got;
        const auto res = machine.run(2, [&](NodeCtx& ctx) {
            if (ctx.rank() == 0) {
                for (int i = 0; i < 16; ++i) {
                    ctx.send_span<int>(2, 1, std::span<const int>(payload));
                }
            } else {
                for (int i = 0; i < 16; ++i) got.push_back(ctx.recv_vector<int>(2, 0));
            }
        });
        return std::make_pair(res, got);
    };

    const auto [raw_res, raw_got] = send_recv(false);
    EXPECT_GT(raw_res.injected_corruptions, 0U);
    EXPECT_EQ(raw_res.stats[1].corruptions_detected, 0U);  // no checksum on raw
    bool any_corrupted = false;
    for (const auto& v : raw_got) any_corrupted |= (v != payload);
    EXPECT_TRUE(any_corrupted);

    const auto [rel_res, rel_got] = send_recv(true);
    EXPECT_GT(rel_res.injected_corruptions, 0U);
    // Flips hitting a data frame are rejected by the receiver NIC; flips
    // hitting an ack are rejected by the sender NIC. Either way every
    // delivered payload is intact.
    EXPECT_GT(rel_res.stats[0].corruptions_detected +
                  rel_res.stats[1].corruptions_detected,
              0U);
    for (const auto& v : rel_got) EXPECT_EQ(v, payload);
}

TEST(FaultMachine, CsendReliableGivesUpOnSilentPeer) {
    Machine machine(MachineProfile::test_profile(2, 1));
    FaultPlan plan;
    plan.drop_probability = 1.0;  // nothing ever arrives
    machine.set_faults(plan);

    const auto res = machine.run(2, [](NodeCtx& ctx) {
        if (ctx.rank() == 0) {
            const int v = 9;
            ReliableParams params;
            params.max_retries = 3;
            EXPECT_FALSE(ctx.csend_reliable(
                1, 1, std::as_bytes(std::span<const int, 1>(&v, 1)), params));
        } else {
            // Peer gives the sender time to burn its retries, then stops
            // listening without ever seeing the message.
            EXPECT_FALSE(ctx.crecv_timeout(1, 0, 50.0).has_value());
        }
    });
    EXPECT_EQ(res.stats[0].retransmits, 3U);
    EXPECT_EQ(res.injected_drops, 4U);
}

// A negative retry budget is a caller bug, not a silent peer: both reliable
// entry points reject it before a frame is sent.
TEST(FaultMachine, NegativeMaxRetriesIsRejected) {
    Machine machine(MachineProfile::test_profile(2, 1));
    ReliableParams params;
    params.max_retries = -1;
    EXPECT_THROW(machine.use_reliable_transport(true, params), std::invalid_argument);
    EXPECT_THROW((void)machine.run(2,
                                   [&params](NodeCtx& ctx) {
                                       if (ctx.rank() != 0) return;
                                       const int v = 9;
                                       (void)ctx.csend_reliable(
                                           1, 1,
                                           std::as_bytes(std::span<const int, 1>(&v, 1)),
                                           params);
                                   }),
                 std::invalid_argument);
}

// One CRC pass per side per transfer, however many attempts it takes: the
// sender's pass makes the header, and the receiving NIC reuses the clean
// payload's CRC on every attempt instead of re-hashing the frame.
TEST(FaultMachine, ReliableSendHashesItsPayloadOncePerSide) {
    Machine machine(MachineProfile::test_profile(2, 1));
    FaultPlan plan;
    plan.drop_exact = {1, 3, 5};  // the first three acks: delivered on attempt 4
    machine.set_faults(plan);
    const auto payload = seeded_bytes(64 * 1024, 9);
    std::uint64_t hashed = 0;
    const auto res = machine.run(2, [&](NodeCtx& ctx) {
        if (ctx.rank() == 0) {
            const std::uint64_t before = crc32_bytes_hashed();
            EXPECT_TRUE(ctx.csend_reliable(2, 1, payload));
            hashed = crc32_bytes_hashed() - before;
        } else {
            EXPECT_EQ(ctx.crecv(2, 0).data, payload);
        }
    });
    EXPECT_EQ(res.stats[0].retransmits, 3U);
    EXPECT_LE(hashed, 2 * payload.size() + 64);
}

TEST(FaultMachine, GiveUpWithLostAcksDoesNotDesyncTheChannel) {
    // Every transmission of the first message is delivered but every ack is
    // dropped: csend_reliable gives up even though the receiver has already
    // consumed the sequence number. The next send on the same channel must
    // resynchronize to a fresh seq — not be suppressed as a duplicate at the
    // receiver while still acked (a silently lost payload reported as sent).
    Machine machine(MachineProfile::test_profile(2, 1));
    FaultPlan plan;
    plan.drop_exact = {1, 3, 5, 7};  // the ack draw of attempts 0..3
    machine.set_faults(plan);

    std::vector<int> got;
    const auto res = machine.run(2, [&](NodeCtx& ctx) {
        if (ctx.rank() == 0) {
            ReliableParams params;
            params.max_retries = 3;
            const int a = 111;
            const int b = 222;
            EXPECT_FALSE(ctx.csend_reliable(
                6, 1, std::as_bytes(std::span<const int, 1>(&a, 1)), params));
            EXPECT_TRUE(ctx.csend_reliable(
                6, 1, std::as_bytes(std::span<const int, 1>(&b, 1)), params));
        } else {
            for (int i = 0; i < 2; ++i) {
                const auto m = ctx.crecv(6, 0);
                int v = 0;
                std::memcpy(&v, m.data.data(), sizeof v);
                got.push_back(v);
            }
        }
    });
    EXPECT_EQ(got, (std::vector<int>{111, 222}));
    EXPECT_EQ(res.stats[0].retransmits, 3U);
    EXPECT_EQ(res.injected_drops, 4U);
}

TEST(FaultMachine, TransparentReliableFailureThrowsTransportError) {
    Machine machine(MachineProfile::test_profile(2, 1));
    FaultPlan plan;
    plan.drop_probability = 1.0;
    machine.set_faults(plan);
    ReliableParams params;
    params.max_retries = 2;
    machine.use_reliable_transport(true, params);
    EXPECT_THROW((void)machine.run(2,
                                   [](NodeCtx& ctx) {
                                       if (ctx.rank() == 0) {
                                           ctx.send_value<int>(1, 1, 5);
                                       } else {
                                           (void)ctx.crecv_timeout(1, 0, 100.0);
                                       }
                                   }),
                 TransportError);
}

// -------------------------------------------------------------- timeouts

TEST(FaultMachine, CrecvTimeoutExpiresAtTheDeadline) {
    Machine machine(MachineProfile::test_profile(2, 1));
    const auto res = machine.run(2, [](NodeCtx& ctx) {
        if (ctx.rank() == 0) {
            const auto m = ctx.crecv_timeout(4, 1, 0.25);
            EXPECT_FALSE(m.has_value());
            EXPECT_DOUBLE_EQ(ctx.now(), 0.25);
        } else {
            ctx.compute(1.0);  // never sends
        }
    });
    EXPECT_EQ(res.stats[0].recv_timeouts, 1U);
}

TEST(FaultMachine, CrecvTimeoutDeliversMessageArrivingBeforeDeadline) {
    Machine machine(MachineProfile::test_profile(2, 1));
    (void)machine.run(2, [](NodeCtx& ctx) {
        if (ctx.rank() == 0) {
            ctx.compute(0.5);
            ctx.send_value<int>(4, 1, 77);
        } else {
            const auto m = ctx.crecv_timeout(4, 0, 10.0);
            ASSERT_TRUE(m.has_value());
            int v = 0;
            std::memcpy(&v, m->data.data(), sizeof v);
            EXPECT_EQ(v, 77);
            EXPECT_LT(ctx.now(), 1.0);  // woke at arrival, not at deadline
        }
    });
}

TEST(FaultMachine, WildcardTimeoutRecvDeliversEarliestArrival) {
    // Three senders stagger their compute so arrivals are ordered 3, 2, 1
    // (hop latency is 1e-4, far below the 1.0 s spacing). A wildcard-source
    // crecv_timeout must hand them over in arrival order, each well before
    // the deadline.
    Machine machine(MachineProfile::test_profile(4, 1));
    (void)machine.run(4, [](NodeCtx& ctx) {
        if (ctx.rank() == 0) {
            std::vector<int> srcs;
            for (int i = 0; i < 3; ++i) {
                const auto m = ctx.crecv_timeout(4, kAnySource, 60.0);
                ASSERT_TRUE(m.has_value());
                srcs.push_back(m->src);
            }
            EXPECT_EQ(srcs, (std::vector<int>{3, 2, 1}));
            EXPECT_LT(ctx.now(), 4.0);  // woke at arrivals, not deadlines
        } else {
            ctx.compute(4.0 - static_cast<double>(ctx.rank()));
            ctx.send_value<int>(4, 0, ctx.rank());
        }
    });
}

TEST(FaultMachine, WildcardTimeoutExpiryDoesNotLoseALateMessage) {
    // The message arrives after the deadline: the wait must end empty at
    // exactly the deadline, and the payload must still be retrievable by a
    // later receive — expiry never discards anything.
    Machine machine(MachineProfile::test_profile(2, 1));
    const auto res = machine.run(2, [](NodeCtx& ctx) {
        if (ctx.rank() == 0) {
            const auto m = ctx.crecv_timeout(4, kAnySource, 1.0);
            EXPECT_FALSE(m.has_value());
            EXPECT_DOUBLE_EQ(ctx.now(), 1.0);
            const Message late = ctx.crecv(4, kAnySource);
            int v = 0;
            ASSERT_EQ(late.data.size(), sizeof v);
            std::memcpy(&v, late.data.data(), sizeof v);
            EXPECT_EQ(v, 42);
            EXPECT_EQ(late.src, 1);
        } else {
            ctx.compute(5.0);
            ctx.send_value<int>(4, 0, 42);
        }
    });
    EXPECT_EQ(res.stats[0].recv_timeouts, 1U);
}

TEST(FaultMachine, WildcardTimeoutPrefersPendingMatchOverDeadline) {
    // One message straddles each side of the deadline: the in-time one is
    // delivered (earliest arrival), the expiry then fires for the next wait
    // even though a later message is already in flight.
    Machine machine(MachineProfile::test_profile(3, 1));
    (void)machine.run(3, [](NodeCtx& ctx) {
        if (ctx.rank() == 0) {
            const auto first = ctx.crecv_timeout(4, kAnySource, 2.0);
            ASSERT_TRUE(first.has_value());
            EXPECT_EQ(first->src, 1);
            EXPECT_LT(ctx.now(), 1.0);  // woke at rank 1's arrival
            const double t1 = ctx.now();
            const auto second = ctx.crecv_timeout(4, kAnySource, 2.0);
            EXPECT_FALSE(second.has_value());
            EXPECT_DOUBLE_EQ(ctx.now(), t1 + 2.0);  // expired at its deadline
            const auto third = ctx.crecv_timeout(4, kAnySource, 60.0);
            ASSERT_TRUE(third.has_value());
            EXPECT_EQ(third->src, 2);
        } else if (ctx.rank() == 1) {
            ctx.compute(0.5);
            ctx.send_value<int>(4, 0, 1);
        } else {
            ctx.compute(6.0);
            ctx.send_value<int>(4, 0, 2);
        }
    });
}

// -------------------------------------------------------------- fail-stop

TEST(FaultMachine, FailStopKillsNodeMidComputeAtExactTime) {
    Machine machine(MachineProfile::test_profile(2, 1));
    FaultPlan plan;
    plan.failures = {{.rank = 1, .at = 0.75}};
    machine.set_faults(plan);

    const auto res = machine.run(2, [](NodeCtx& ctx) {
        if (ctx.rank() == 1) {
            ctx.compute(10.0);       // dies inside this interval
            ADD_FAILURE() << "statement after fail-stop executed";
        } else {
            ctx.compute(0.1);
        }
    });
    EXPECT_TRUE(res.stats[1].fail_stopped);
    EXPECT_FALSE(res.stats[0].fail_stopped);
    EXPECT_DOUBLE_EQ(res.stats[1].finish_time, 0.75);
    EXPECT_DOUBLE_EQ(res.stats[1].useful_seconds, 0.75);  // partial interval booked
}

TEST(FaultMachine, FailStopWakesBlockedReceiver) {
    Machine machine(MachineProfile::test_profile(2, 1));
    FaultPlan plan;
    plan.failures = {{.rank = 1, .at = 2.0}};
    machine.set_faults(plan);

    // Rank 1 blocks forever on a message that never comes; without the
    // fail-stop this program would deadlock.
    const auto res = machine.run(2, [](NodeCtx& ctx) {
        if (ctx.rank() == 1) {
            (void)ctx.recv_value<int>(1, 0);
            ADD_FAILURE() << "recv returned on a fail-stopped node";
        }
    });
    EXPECT_TRUE(res.stats[1].fail_stopped);
    EXPECT_DOUBLE_EQ(res.stats[1].finish_time, 2.0);
}

TEST(FaultMachine, ReliableSenderOutlivesFailStoppedPeer) {
    Machine machine(MachineProfile::test_profile(2, 1));
    FaultPlan plan;
    plan.failures = {{.rank = 1, .at = 0.0}};  // dead before anything runs
    machine.set_faults(plan);

    (void)machine.run(2, [](NodeCtx& ctx) {
        if (ctx.rank() == 0) {
            const int v = 1;
            ReliableParams params;
            params.max_retries = 2;
            // The peer's NIC is down with it: no acks, bounded retries.
            EXPECT_FALSE(ctx.csend_reliable(
                1, 1, std::as_bytes(std::span<const int, 1>(&v, 1)), params));
        }
    });
}

// -------------------------------------------------------- link degradation

TEST(FaultMachine, DegradationWindowStretchesTransfers) {
    const auto time_one_send = [](FaultPlan plan) {
        Machine machine(MachineProfile::test_profile(2, 1));
        machine.set_faults(std::move(plan));
        double arrival = 0.0;
        (void)machine.run(2, [&](NodeCtx& ctx) {
            if (ctx.rank() == 0) {
                const std::vector<int> big(4096, 1);
                ctx.send_span<int>(1, 1, std::span<const int>(big));
            } else {
                arrival = ctx.crecv(1, 0).arrival;
            }
        });
        return arrival;
    };

    const double clean = time_one_send({});
    FaultPlan degraded;
    degraded.degradations = {{.t_begin = 0.0, .t_end = 100.0, .factor = 8.0}};
    const double slow = time_one_send(degraded);
    EXPECT_GT(slow, clean * 4.0);
}

// ------------------------------------------------- collectives under faults

TEST(FaultCollectives, GsumBarrierBroadcastOnCrayT3dTorus) {
    Machine machine(MachineProfile::cray_t3d_pvm());
    const std::size_t p = 16;
    (void)machine.run(p, [&](NodeCtx& ctx) {
        const double r = static_cast<double>(ctx.rank());
        const double n = static_cast<double>(p);
        EXPECT_DOUBLE_EQ(gsum_prefix(ctx, r + 1.0), n * (n + 1.0) / 2.0);
        EXPECT_DOUBLE_EQ(gmax_prefix(ctx, r), n - 1.0);
        gsync(ctx);
        std::vector<int> v;
        if (ctx.rank() == 3) v = {1, 2, 3, 4};
        broadcast_vector(ctx, 3, v);
        EXPECT_EQ(v, (std::vector<int>{1, 2, 3, 4}));
    });
}

TEST(FaultCollectives, SingleDropDeadlocksRawButConvergesReliable) {
    FaultPlan plan;
    plan.drop_exact = {2};  // lose one mid-collective frame

    {
        Machine machine(MachineProfile::test_profile(4, 2));
        machine.set_faults(plan);
        EXPECT_THROW((void)machine.run(8,
                                       [](NodeCtx& ctx) {
                                           (void)gsum_prefix(
                                               ctx, static_cast<double>(ctx.rank()));
                                       }),
                     sim::DeadlockError);
    }
    {
        Machine machine(MachineProfile::test_profile(4, 2));
        machine.set_faults(plan);
        machine.use_reliable_transport(true);
        const auto res = machine.run(8, [](NodeCtx& ctx) {
            const double s = gsum_prefix(ctx, static_cast<double>(ctx.rank()));
            EXPECT_DOUBLE_EQ(s, 28.0);
            gsync(ctx);
        });
        EXPECT_EQ(res.injected_drops, 1U);
    }
}

TEST(FaultCollectives, GssumSurvivesRandomDropsOnTorus) {
    Machine machine(MachineProfile::cray_t3d_pvm());
    FaultPlan plan;
    plan.seed = 21;
    plan.drop_probability = 1e-2;
    machine.set_faults(plan);
    machine.use_reliable_transport(true);
    (void)machine.run(8, [](NodeCtx& ctx) {
        std::vector<double> v = {static_cast<double>(ctx.rank()), 1.0};
        gsum_gssum(ctx, std::span<double>(v));
        EXPECT_DOUBLE_EQ(v[0], 28.0);
        EXPECT_DOUBLE_EQ(v[1], 8.0);
    });
}

// ------------------------------------------------------ seeded stress hook

// The CI fault-stress job sweeps WAVEHPC_FAULT_SEED over several fixed
// seeds; locally this runs once with the default.
TEST(FaultStress, SeededRandomTrafficConvergesReliably) {
    const std::uint64_t seed = wavehpc::testing::env_seed("WAVEHPC_FAULT_SEED", 1);
    Machine machine(MachineProfile::test_profile(4, 2));
    FaultPlan plan;
    plan.seed = seed;
    plan.drop_probability = 5e-3;
    plan.corrupt_probability = 5e-3;
    machine.set_faults(plan);
    machine.use_reliable_transport(true);

    const std::size_t p = 8;
    const auto res = machine.run(p, [&](NodeCtx& ctx) {
        // Ring traffic + periodic collectives: every rank forwards an
        // accumulating token around the ring several times.
        const int next = (ctx.rank() + 1) % static_cast<int>(p);
        const int prev = (ctx.rank() + static_cast<int>(p) - 1) % static_cast<int>(p);
        long token = ctx.rank();
        for (int round = 0; round < 8; ++round) {
            ctx.send_value<long>(10 + round, next, token);
            token = ctx.recv_value<long>(10 + round, prev) + 1;
            if (round % 4 == 3) gsync(ctx);
        }
        const double total = gsum_prefix(ctx, static_cast<double>(token));
        // Every rank's token accumulated 8 increments over the ring.
        EXPECT_DOUBLE_EQ(total, static_cast<double>(p * (p - 1) / 2 + 8 * p));
    });
    EXPECT_GT(res.makespan, 0.0);
}

}  // namespace
}  // namespace wavehpc::mesh
