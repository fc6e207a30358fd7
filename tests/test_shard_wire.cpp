// Shard wire format + in-process reliable transport: sealed frame
// round-trips and rejection of every defect class (truncation, bad
// magic/version, payload CRC), the request/reply/roster/admit payload
// codecs (bit-exact pixel planes), ARQ behavior under seeded fault plans
// (retransmits, duplicate suppression, give-up, per-channel draw
// independence, NIC rejection of every drawn corruption), one CRC pass
// per frame per side, handlers running concurrently across and within
// channels, and the token+byte-offset contract of the chaos-spec parser.

#include "svc/shard/wire.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <future>
#include <limits>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/image.hpp"
#include "mesh/faults.hpp"
#include "svc/chaos.hpp"
#include "svc/shard/transport.hpp"

namespace {

using wavehpc::core::ImageF;
using wavehpc::mesh::FaultPlan;
using wavehpc::svc::ChaosPlan;
using wavehpc::svc::RejectReason;
using wavehpc::svc::TransformReply;
using wavehpc::svc::TransformRequest;
using wavehpc::svc::TransformResult;
namespace wire = wavehpc::svc::shard::wire;
using wavehpc::svc::shard::ShardTransport;

std::shared_ptr<const ImageF> tiny_image(std::size_t n = 4) {
    std::vector<float> px(n * n);
    for (std::size_t i = 0; i < px.size(); ++i) px[i] = 0.25f * static_cast<float>(i);
    return std::make_shared<const ImageF>(n, n, std::move(px));
}

// --------------------------------------------------------------- framing

TEST(WireFrame, SealUnsealRoundTripsEveryHeaderField) {
    wire::Header h;
    h.kind = wire::MsgKind::Reply;
    h.src = 3;
    h.dst = 7;
    h.incarnation = 0xDEADBEEFULL;
    h.epoch = 42;
    h.request_id = 0x1122334455667788ULL;
    const std::vector<std::byte> payload{std::byte{1}, std::byte{2}, std::byte{3}};
    const auto frame = wire::seal(h, payload);
    ASSERT_EQ(frame.size(), wire::kHeaderBytes + payload.size());

    const wire::Unsealed u = wire::unseal(frame);
    EXPECT_EQ(u.header.kind, h.kind);
    EXPECT_EQ(u.header.src, h.src);
    EXPECT_EQ(u.header.dst, h.dst);
    EXPECT_EQ(u.header.incarnation, h.incarnation);
    EXPECT_EQ(u.header.epoch, h.epoch);
    EXPECT_EQ(u.header.request_id, h.request_id);
    EXPECT_EQ(u.payload, payload);
}

TEST(WireFrame, RejectsTruncationBadMagicBadVersionAndPayloadCorruption) {
    wire::Header h;
    const std::vector<std::byte> payload(16, std::byte{0x5A});
    auto frame = wire::seal(h, payload);

    // Truncated: shorter than the header, and header-only with a missing
    // payload tail.
    EXPECT_FALSE(wire::try_unseal({frame.data(), wire::kHeaderBytes - 1}));
    EXPECT_FALSE(wire::try_unseal({frame.data(), frame.size() - 1}));

    auto bad_magic = frame;
    bad_magic[0] ^= std::byte{0xFF};
    EXPECT_FALSE(wire::try_unseal(bad_magic));

    auto bad_version = frame;
    bad_version[4] ^= std::byte{0x01};
    EXPECT_THROW((void)wire::unseal(bad_version), wire::WireError);

    auto flipped = frame;  // payload bit flip -> CRC mismatch
    flipped[wire::kHeaderBytes + 5] ^= std::byte{0x10};
    EXPECT_FALSE(wire::try_unseal(flipped));

    EXPECT_TRUE(wire::try_unseal(frame));  // the original is still intact
}

// --------------------------------------------------------------- payloads

TEST(WireCodec, RequestPayloadRoundTripsParamsPixelsAndDeadline) {
    TransformRequest req;
    req.image = tiny_image();
    req.taps = 6;
    req.levels = 2;
    req.allow_degraded = true;
    const auto now = wavehpc::svc::Clock::now();
    req.deadline = now + std::chrono::milliseconds(250);

    const auto payload = wire::encode_request_payload(req, now);
    const TransformRequest back = wire::decode_request_payload(payload, now);
    EXPECT_EQ(back.taps, 6);
    EXPECT_EQ(back.levels, 2);
    EXPECT_TRUE(back.allow_degraded);
    const double dl =
        std::chrono::duration<double>(back.deadline - now).count();
    EXPECT_NEAR(dl, 0.25, 1e-6);
    ASSERT_TRUE(back.image);
    EXPECT_NE(back.image.get(), req.image.get());  // pixels crossed the wire
    EXPECT_EQ(back.image->rows(), req.image->rows());
    EXPECT_EQ(back.image->flat()[5], req.image->flat()[5]);

    // No deadline stays no deadline (the +inf sentinel).
    TransformRequest open = req;
    open.deadline = wavehpc::svc::Clock::time_point::max();
    const auto back2 =
        wire::decode_request_payload(wire::encode_request_payload(open, now), now);
    EXPECT_EQ(back2.deadline, wavehpc::svc::Clock::time_point::max());

    // Trailing bytes are a defect, not padding.
    auto fat = payload;
    fat.push_back(std::byte{0});
    EXPECT_THROW((void)wire::decode_request_payload(fat, now), wire::WireError);
}

TEST(WireCodec, ReplyPayloadRoundTripsTheFullPyramidAndFlags) {
    TransformResult res;
    res.key.digest_lo = 11;
    res.key.digest_hi = 22;
    res.result_bytes = 1234;
    res.compute_seconds = 0.5;
    res.crc32 = 0xABCD1234U;
    wavehpc::core::DetailBands lv;
    lv.lh = ImageF(2, 2, {1.f, 2.f, 3.f, 4.f});
    lv.hl = ImageF(2, 2, {5.f, 6.f, 7.f, 8.f});
    lv.hh = ImageF(2, 2, {9.f, 10.f, 11.f, 12.f});
    res.pyramid.levels.push_back(std::move(lv));
    res.pyramid.approx = ImageF(2, 2, {13.f, 14.f, 15.f, 16.f});

    TransformReply reply;
    reply.result = std::make_shared<const TransformResult>(std::move(res));
    reply.cache_hit = true;
    reply.degraded = true;
    reply.attempts = 3;
    reply.batch_size = 2;
    reply.queue_seconds = 0.01;
    reply.compute_seconds = 0.02;
    reply.total_seconds = 0.03;

    const wire::ReplyWire rw =
        wire::decode_reply_payload(wire::encode_reply_payload(reply));
    ASSERT_FALSE(rw.is_error);
    EXPECT_TRUE(rw.reply.cache_hit);
    EXPECT_TRUE(rw.reply.degraded);
    EXPECT_FALSE(rw.reply.shared_flight);
    EXPECT_EQ(rw.reply.attempts, 3U);
    EXPECT_EQ(rw.reply.batch_size, 2U);
    EXPECT_EQ(rw.reply.total_seconds, 0.03);
    ASSERT_TRUE(rw.reply.result);
    EXPECT_EQ(rw.reply.result->key.digest_hi, 22U);
    EXPECT_EQ(rw.reply.result->crc32, 0xABCD1234U);
    ASSERT_EQ(rw.reply.result->pyramid.levels.size(), 1U);
    EXPECT_EQ(rw.reply.result->pyramid.levels[0].hh.flat()[3], 12.f);
    EXPECT_EQ(rw.reply.result->pyramid.approx.flat()[0], 13.f);
}

// Pixel planes move as whole-plane copies; every float bit pattern must
// survive: quiet and signalling NaNs with payloads, both zeros, the
// denormal range, infinities.
TEST(WireCodec, PixelPlanesRoundTripEveryBitPatternExactly) {
    const std::vector<std::uint32_t> patterns{
        0x7FC00000U, 0x7FC12345U, 0xFFC00001U, 0x7F800001U,  // NaNs
        0x80000000U, 0x00000000U,                             // -0.0, +0.0
        0x00000001U, 0x007FFFFFU, 0x80000001U, 0x807FFFFFU,  // denormals
        0x7F800000U, 0xFF800000U, 0x3F800000U, 0xC0490FDBU};  // inf, 1, -pi
    std::vector<float> px(16);
    for (std::size_t i = 0; i < px.size(); ++i) {
        px[i] = std::bit_cast<float>(patterns[i % patterns.size()]);
    }
    const auto bits_equal = [](const ImageF& a, const ImageF& b) {
        if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
        for (std::size_t i = 0; i < a.size(); ++i) {
            if (std::bit_cast<std::uint32_t>(a.flat()[i]) !=
                std::bit_cast<std::uint32_t>(b.flat()[i])) {
                return false;
            }
        }
        return true;
    };

    TransformRequest req;
    req.image = std::make_shared<const ImageF>(4, 4, px);
    const auto now = wavehpc::svc::Clock::now();
    const auto back = wire::decode_request_payload(wire::encode_request_payload(req, now), now);
    EXPECT_TRUE(bits_equal(*back.image, *req.image));

    TransformResult res;
    wavehpc::core::DetailBands lv;
    lv.lh = ImageF(2, 2, {px[0], px[1], px[2], px[3]});
    lv.hl = ImageF(2, 2, {px[4], px[5], px[6], px[7]});
    lv.hh = ImageF(2, 2, {px[8], px[9], px[10], px[11]});
    res.pyramid.levels.push_back(lv);
    res.pyramid.approx = ImageF(2, 2, {px[12], px[13], px[14], px[15]});
    TransformReply reply;
    reply.result = std::make_shared<const TransformResult>(res);
    // The one-buffer sealed form and the payload codec agree byte for byte.
    wire::Header h;
    h.kind = wire::MsgKind::Reply;
    const auto sealed = wire::seal_reply(h, reply);
    EXPECT_EQ(sealed, wire::seal(h, wire::encode_reply_payload(reply)));
    const auto opened = wire::try_open(wire::checked(sealed));
    ASSERT_TRUE(opened);
    const wire::ReplyWire rw = wire::decode_reply_payload(opened->payload);
    ASSERT_TRUE(rw.reply.result);
    const auto& got = rw.reply.result->pyramid;
    EXPECT_TRUE(bits_equal(got.levels[0].lh, lv.lh));
    EXPECT_TRUE(bits_equal(got.levels[0].hl, lv.hl));
    EXPECT_TRUE(bits_equal(got.levels[0].hh, lv.hh));
    EXPECT_TRUE(bits_equal(got.approx, res.pyramid.approx));
}

// checked() derives a sealed frame's whole CRC from its header, and
// try_open() verifies the payload against a receiver's whole-frame CRC —
// so a frame whose bytes disagree with its payload_crc is still refused.
TEST(WireFrame, KnownCrcOpenMatchesUnsealAndRejectsFlippedPayloads) {
    wire::Header h;
    h.request_id = 77;
    TransformRequest req;
    req.image = tiny_image(8);
    const auto now = wavehpc::svc::Clock::now();
    auto frame = wire::seal_request(h, req, now);
    EXPECT_EQ(frame, wire::seal(h, wire::encode_request_payload(req, now)));
    EXPECT_EQ(wire::checked(frame).crc, wavehpc::mesh::crc32(frame));

    const auto opened = wire::try_open(wavehpc::mesh::CheckedBytes::of(frame));
    ASSERT_TRUE(opened);
    EXPECT_EQ(opened->header.request_id, 77U);
    const auto u = wire::unseal(frame);
    EXPECT_TRUE(std::equal(u.payload.begin(), u.payload.end(), opened->payload.begin(),
                           opened->payload.end()));

    frame[wire::kHeaderBytes + 9] ^= std::byte{0x04};
    EXPECT_FALSE(wire::try_open(wavehpc::mesh::CheckedBytes::of(frame)));
    EXPECT_THROW((void)wire::unseal(frame), wire::WireError);
}

TEST(WireCodec, ReplyErrorsCarryTheirTypeAcrossTheWire) {
    const auto payload = wire::encode_reply_error_payload(
        wire::ReplyErrorKind::Deadline, "too late");
    const wire::ReplyWire rw = wire::decode_reply_payload(payload);
    ASSERT_TRUE(rw.is_error);
    EXPECT_EQ(rw.error_kind, wire::ReplyErrorKind::Deadline);
    EXPECT_EQ(rw.error_message, "too late");
    EXPECT_THROW(wire::rethrow_reply_error(rw),
                 wavehpc::svc::DeadlineExpiredError);

    const wire::ReplyWire other = wire::decode_reply_payload(
        wire::encode_reply_error_payload(wire::ReplyErrorKind::Other, "boom"));
    try {
        wire::rethrow_reply_error(other);
        FAIL() << "expected a throw";
    } catch (const std::runtime_error& e) {
        EXPECT_STREQ(e.what(), "boom");
    }

    // The kind byte (offset 1) past ReplyErrorKind::Other fails to decode,
    // naming the field, instead of decoding as an unknown kind.
    for (const int kind : {5, 0xC7}) {
        auto bad = wire::encode_reply_error_payload(wire::ReplyErrorKind::Other, "boom");
        bad[1] = static_cast<std::byte>(kind);
        try {
            (void)wire::decode_reply_payload(bad);
            ADD_FAILURE() << "kind " << kind << ": decoded";
        } catch (const wire::WireError& e) {
            EXPECT_NE(std::string(e.what()).find("error kind"), std::string::npos)
                << e.what();
        }
    }
}

// Each enum byte of a request payload (boundary, kernel, backend, priority
// at offsets 2-5) set past its enum's last value must fail to decode,
// naming the field, instead of reaching admission and the cache key raw.
// Each field tries its first value past the enum and a byte far past it.
TEST(WireCodec, RequestPayloadRejectsOutOfRangeEnumsByField) {
    TransformRequest req;
    req.image = tiny_image();
    const auto now = wavehpc::svc::Clock::now();
    const auto payload = wire::encode_request_payload(req, now);
    const struct {
        const char* name;
        int first_bad;
    } fields[] = {{"boundary", 3}, {"kernel", 2}, {"backend", 2}, {"priority", 3}};
    for (std::size_t i = 0; i < 4; ++i) {
        for (const int value : {fields[i].first_bad, 0xC7}) {
            auto bad = payload;
            bad[2 + i] = static_cast<std::byte>(value);
            try {
                (void)wire::decode_request_payload(bad, now);
                ADD_FAILURE() << fields[i].name << " = " << value << ": decoded";
            } catch (const wire::WireError& e) {
                EXPECT_NE(std::string(e.what()).find(fields[i].name), std::string::npos)
                    << e.what();
            }
        }
    }
}

// The deadline travels as f64 seconds from `now`, and +inf means none.
// NaN, -inf and values whose clock ticks overflow (1e10 s is past 292
// years) used to decode to a deadline centuries in the past.
TEST(WireCodec, RequestPayloadRejectsDeadlinesTheClockCannotHold) {
    TransformRequest req;
    req.image = tiny_image();
    const auto now = wavehpc::svc::Clock::now();
    const auto decode_with = [&](double seconds) {
        auto payload = wire::encode_request_payload(req, now);
        const auto bits = std::bit_cast<std::uint64_t>(seconds);
        for (std::size_t i = 0; i < 8; ++i) {
            payload[7 + i] = static_cast<std::byte>(bits >> (8 * i));  // after 7 u8 fields
        }
        return wire::decode_request_payload(payload, now);
    };
    constexpr double kInf = std::numeric_limits<double>::infinity();
    for (const double bad : {std::numeric_limits<double>::quiet_NaN(), -kInf, 1e10, -1e10,
                             1e300, -1e300}) {
        try {
            (void)decode_with(bad);
            ADD_FAILURE() << "deadline " << bad << " s: decoded";
        } catch (const wire::WireError& e) {
            EXPECT_NE(std::string(e.what()).find("deadline"), std::string::npos) << e.what();
        }
    }
    EXPECT_EQ(decode_with(kInf).deadline, wavehpc::svc::Clock::time_point::max());
    EXPECT_EQ(decode_with(0.25).deadline, now + std::chrono::milliseconds(250));
    EXPECT_EQ(decode_with(-0.25).deadline, now - std::chrono::milliseconds(250));
    EXPECT_EQ(decode_with(1e9).deadline, now + std::chrono::seconds(1'000'000'000));
}

TEST(WireCodec, AdmitPayloadRoundTripsAndValidatesEnums) {
    wire::AdmitWire a;
    a.status = wire::AdmitStatus::Rejected;
    a.reject_reason = RejectReason::BreakerOpen;
    a.retry_after = 0.75;
    const wire::AdmitWire b =
        wire::decode_admit_payload(wire::encode_admit_payload(a));
    EXPECT_EQ(b.status, wire::AdmitStatus::Rejected);
    EXPECT_EQ(b.reject_reason, RejectReason::BreakerOpen);
    EXPECT_EQ(b.retry_after, 0.75);

    auto bad_status = wire::encode_admit_payload(a);
    bad_status[0] = std::byte{99};
    EXPECT_THROW((void)wire::decode_admit_payload(bad_status), wire::WireError);
    auto bad_reason = wire::encode_admit_payload(a);
    bad_reason[1] = std::byte{99};
    EXPECT_THROW((void)wire::decode_admit_payload(bad_reason), wire::WireError);
}

TEST(WireCodec, RosterPayloadRoundTripsAndRejectsTrailingBytes) {
    const std::vector<wire::RosterEntry> roster{
        {1, 0.5, 0}, {7, 0.25, 2}, {0, 0.0, 1}};
    auto payload = wire::encode_roster_payload(roster);
    const auto back = wire::decode_roster_payload(payload);
    ASSERT_EQ(back.size(), 3U);
    EXPECT_EQ(back[1].incarnation, 7U);
    EXPECT_EQ(back[1].last_ok, 0.25);
    EXPECT_EQ(back[1].health, 2);

    payload.push_back(std::byte{0});
    EXPECT_THROW((void)wire::decode_roster_payload(payload), wire::WireError);
}

// -------------------------------------------------------------- transport

std::vector<std::byte> bytes_of(const std::string& s) {
    std::vector<std::byte> v(s.size());
    for (std::size_t i = 0; i < s.size(); ++i) v[i] = std::byte(s[i]);
    return v;
}

TEST(ShardTransportTest, RpcDeliversAndRetransmitsThroughALossyLink) {
    ShardTransport clean(3, 1);
    int handled = 0;
    clean.set_handler(1, 9, [&](int src, std::span<const std::byte> req) {
        ++handled;
        EXPECT_EQ(src, 0);
        std::vector<std::byte> resp(req.begin(), req.end());
        resp.push_back(std::byte{'!'});
        return resp;
    });
    const auto r = clean.rpc(0, 1, 9, bytes_of("ping"));
    ASSERT_TRUE(r);
    EXPECT_EQ(r->size(), 5U);
    EXPECT_EQ(handled, 1);
    EXPECT_EQ(clean.stats().retransmits, 0U);

    // 40% drop: ARQ still gets every payload through exactly once, paying
    // retransmits; the handler never sees a duplicate.
    ShardTransport lossy(3, 7, 16);
    FaultPlan plan;
    plan.drop_probability = 0.4;
    lossy.set_faults(plan);
    int lossy_handled = 0;
    lossy.set_handler(1, 9, [&](int, std::span<const std::byte> req) {
        ++lossy_handled;
        return std::vector<std::byte>(req.begin(), req.end());
    });
    for (int i = 0; i < 20; ++i) {
        const auto resp =
            lossy.rpc(0, 1, 9, bytes_of(std::string("m").append(std::to_string(i))));
        ASSERT_TRUE(resp) << "transfer " << i;
    }
    EXPECT_EQ(lossy_handled, 20);
    const auto st = lossy.stats();
    EXPECT_GT(st.retransmits, 0U);
    EXPECT_GT(st.drops, 0U);
}

TEST(ShardTransportTest, UnreachableNodeFailsRpcWithoutConsumingFaultDraws) {
    ShardTransport t(3, 1);
    t.set_handler(1, 9, [](int, std::span<const std::byte> req) {
        return std::vector<std::byte>(req.begin(), req.end());
    });
    t.set_reachable(1, false);
    EXPECT_FALSE(t.rpc(0, 1, 9, bytes_of("x")));
    EXPECT_GE(t.stats().gave_up, 1U);
    EXPECT_EQ(t.stats().drops, 0U);  // the NIC was off; the wire saw nothing

    t.set_reachable(1, true);
    EXPECT_TRUE(t.rpc(0, 1, 9, bytes_of("y")));  // channel resynced
}

TEST(ShardTransportTest, SameSeedReplaysIdenticalWireStats) {
    struct Run {
        wavehpc::svc::shard::WireStats stats;
        std::vector<char> fates;  // per-message outcome sequence
    };
    const auto run = [](std::uint64_t seed) {
        ShardTransport t(4, seed, 8);
        FaultPlan plan;
        plan.seed = 0;  // inherit the transport's construction seed
        plan.drop_probability = 0.3;
        plan.corrupt_probability = 0.1;
        t.set_faults(plan);
        t.set_handler(2, 5, [](int, std::span<const std::byte> req) {
            return std::vector<std::byte>(req.begin(), req.end());
        });
        t.set_sink(2, 6, [](int, std::span<const std::byte>) {});
        Run r;
        for (int i = 0; i < 30; ++i) {
            r.fates.push_back(t.rpc(0, 2, 5, bytes_of(std::to_string(i))) ? 1 : 0);
            r.fates.push_back(t.send_datagram(1, 2, 6, bytes_of("beat")) ? 1 : 0);
        }
        r.stats = t.stats();
        return r;
    };
    const auto a = run(1996);
    const auto b = run(1996);
    EXPECT_EQ(a.fates, b.fates);
    EXPECT_EQ(a.stats.frames_sent, b.stats.frames_sent);
    EXPECT_EQ(a.stats.drops, b.stats.drops);
    EXPECT_EQ(a.stats.corrupt_rejections, b.stats.corrupt_rejections);
    EXPECT_EQ(a.stats.retransmits, b.stats.retransmits);
    EXPECT_EQ(a.stats.gave_up, b.stats.gave_up);
    const auto c = run(7);
    EXPECT_NE(a.fates, c.fates);  // the seed genuinely steers the draws
}

// Every corruption the plan draws is caught by the receiving NIC — in
// the header or anywhere in the payload — and never reaches the handler;
// ARQ retransmits until a clean copy gets through.
TEST(ShardTransportTest, ReceiverNicRejectsEveryDrawnCorruption) {
    ShardTransport always(3, 5, 6);
    FaultPlan bad;
    bad.corrupt_probability = 1.0;
    always.set_faults(bad);
    int handled = 0;
    always.set_handler(1, 9, [&](int, std::span<const std::byte> req) {
        ++handled;
        return std::vector<std::byte>(req.begin(), req.end());
    });
    always.set_sink(1, 10, [&](int, std::span<const std::byte>) { ++handled; });
    const std::vector<std::byte> big(4096, std::byte{0x3C});
    EXPECT_FALSE(always.rpc(0, 1, 9, big));
    EXPECT_FALSE(always.send_datagram(0, 1, 10, big));
    EXPECT_EQ(handled, 0);
    EXPECT_EQ(always.stats().corrupt_rejections, 7U + 1U);  // 1 + 6 retries, 1 beat

    ShardTransport noisy(3, 5, 16);
    FaultPlan plan;
    plan.corrupt_probability = 0.2;
    noisy.set_faults(plan);
    std::vector<std::vector<std::byte>> seen;
    noisy.set_handler(1, 9, [&](int, std::span<const std::byte> req) {
        seen.emplace_back(req.begin(), req.end());
        return std::vector<std::byte>{};
    });
    for (int i = 0; i < 20; ++i) {
        std::vector<std::byte> msg(2000, static_cast<std::byte>(i));
        ASSERT_TRUE(noisy.rpc(0, 1, 9, msg)) << "transfer " << i;
        ASSERT_EQ(seen.back(), msg) << "transfer " << i;
    }
    EXPECT_EQ(seen.size(), 20U);
    EXPECT_GT(noisy.stats().corrupt_rejections, 0U);
    EXPECT_GT(noisy.stats().retransmits, 0U);
}

// One CRC pass per frame per side: a sealed request crosses the wire with
// the sender deriving the frame CRC from the seal's (no pass), the
// receiving NIC making one pass, and the handler's open reusing it.
TEST(ShardTransportTest, EachFrameIsCrcdOnceAtTheSenderAndOnceAtTheReceiver) {
    ShardTransport t(2, 1);
    const auto payload_crc_passes = [] { return wavehpc::mesh::crc32_bytes_hashed(); };
    std::uint64_t in_handler = 0;
    t.set_handler(1, wire::kRequestTag, [&](int, wavehpc::mesh::CheckedBytes frame) {
        const auto before = payload_crc_passes();
        const auto opened = wire::try_open(frame);
        in_handler = payload_crc_passes() - before;
        EXPECT_TRUE(opened);
        return std::vector<std::byte>{};
    });
    TransformRequest req;
    req.image = tiny_image(192);  // a 147 456-byte pixel plane
    wire::Header h;
    const auto n0 = payload_crc_passes();
    const auto sealed = wire::seal_request(h, req, wavehpc::svc::Clock::now());
    const auto n1 = payload_crc_passes();
    ASSERT_TRUE(t.rpc(0, 1, wire::kRequestTag, wire::checked(sealed)));
    const auto n2 = payload_crc_passes();

    const std::uint64_t n = sealed.size();
    EXPECT_EQ(n1 - n0, n - wire::kHeaderBytes);  // sender: the seal's one pass
    // Receiver: one pass over the frame; opening it reads only the header;
    // the rest is fixed-size (seq words, the empty response leg).
    EXPECT_EQ(in_handler, wire::kHeaderBytes);
    EXPECT_GE(n2 - n1, n);
    EXPECT_LT(n2 - n1, n + 256);
}

// Handlers run with no transport lock held: two RPCs on different
// channels whose handlers each wait for the other must both complete.
// (A transport that serialized handlers would deadlock; the bounded waits
// turn that into a test failure instead of a hang.)
TEST(ShardTransportTest, HandlersOnDifferentChannelsRunConcurrently) {
    ShardTransport t(3, 1);
    std::promise<void> a_in;
    std::promise<void> b_in;
    const auto a_ready = a_in.get_future().share();
    const auto b_ready = b_in.get_future().share();
    std::atomic<int> timed_out{0};
    const auto meet = [&](std::promise<void>& mine, const std::shared_future<void>& theirs) {
        mine.set_value();
        if (theirs.wait_for(std::chrono::seconds(5)) != std::future_status::ready) {
            ++timed_out;
        }
        return std::vector<std::byte>{std::byte{1}};
    };
    t.set_handler(1, 9, [&](int, std::span<const std::byte>) { return meet(a_in, b_ready); });
    t.set_handler(2, 9, [&](int, std::span<const std::byte>) { return meet(b_in, a_ready); });
    std::optional<std::vector<std::byte>> ra;
    std::optional<std::vector<std::byte>> rb;
    std::thread ta([&] { ra = t.rpc(0, 1, 9, bytes_of("a")); });
    std::thread tb([&] { rb = t.rpc(0, 2, 9, bytes_of("b")); });
    ta.join();
    tb.join();
    EXPECT_EQ(timed_out.load(), 0);
    EXPECT_TRUE(ra);
    EXPECT_TRUE(rb);
}

// The 40%-loss exactly-once property with four threads sharing one
// channel: transfers serialize on the channel, every payload reaches the
// handler exactly once, and every caller gets its own echo back.
TEST(ShardTransportTest, ArqExactlyOnceUnderLossFromFourThreadsOnOneChannel) {
    ShardTransport lossy(3, 7, 16);
    FaultPlan plan;
    plan.drop_probability = 0.4;
    lossy.set_faults(plan);
    std::mutex mu;
    std::multiset<std::string> handled;
    lossy.set_handler(1, 9, [&](int, std::span<const std::byte> req) {
        std::lock_guard lk(mu);
        handled.emplace(reinterpret_cast<const char*>(req.data()), req.size());
        return std::vector<std::byte>(req.begin(), req.end());
    });
    constexpr int kThreads = 4;
    constexpr int kPerThread = 20;
    const auto text = [](int c, int i) {
        return std::string("t").append(std::to_string(c)).append("m").append(std::to_string(i));
    };
    std::atomic<int> failures{0};
    std::vector<std::thread> threads;
    for (int c = 0; c < kThreads; ++c) {
        threads.emplace_back([&, c] {
            for (int i = 0; i < kPerThread; ++i) {
                const auto msg = bytes_of(text(c, i));
                const auto resp = lossy.rpc(0, 1, 9, msg);
                if (!resp || *resp != msg) ++failures;
            }
        });
    }
    for (auto& th : threads) th.join();
    EXPECT_EQ(failures.load(), 0);
    ASSERT_EQ(handled.size(), static_cast<std::size_t>(kThreads * kPerThread));
    for (int c = 0; c < kThreads; ++c) {
        for (int i = 0; i < kPerThread; ++i) {
            EXPECT_EQ(handled.count(text(c, i)), 1U);
        }
    }
    const auto st = lossy.stats();
    EXPECT_GT(st.retransmits, 0U);
    EXPECT_EQ(st.gave_up, 0U);
}

// The determinism the gossip rounds rely on: fault draws are counted per
// channel, so unrelated concurrent traffic (shards' reply RPCs, say)
// can never shift a gossip channel's drop pattern.
TEST(ShardTransportTest, PerChannelDrawsIsolateChannelsFromEachOther) {
    const auto gossip_fates = [](bool with_noise) {
        ShardTransport t(4, 11);
        FaultPlan plan;
        plan.drop_probability = 0.5;
        t.set_faults(plan);
        t.set_sink(3, 83, [](int, std::span<const std::byte>) {});
        t.set_handler(2, 81, [](int, std::span<const std::byte> req) {
            return std::vector<std::byte>(req.begin(), req.end());
        });
        std::vector<bool> fates;
        for (int i = 0; i < 40; ++i) {
            if (with_noise) (void)t.rpc(0, 2, 81, bytes_of("noise"));
            fates.push_back(t.send_datagram(0, 3, 83, bytes_of("beat")));
        }
        return fates;
    };
    EXPECT_EQ(gossip_fates(false), gossip_fates(true));
}

// ----------------------------------------------------- parse diagnostics

TEST(FaultSpecErrors, ChaosPlanParseNamesTheTokenAndByteOffset) {
    try {
        (void)ChaosPlan::parse("compute=0.1,stall=wat", 1);
        FAIL() << "expected a throw";
    } catch (const std::invalid_argument& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("'wat'"), std::string::npos) << what;
        EXPECT_NE(what.find("(byte 18)"), std::string::npos) << what;
    }
    try {
        // The bad field is the second event's START_MS, 22 bytes in.
        (void)ChaosPlan::parse("shard_kill=0:100:50;1:bad:50", 1);
        FAIL() << "expected a throw";
    } catch (const std::invalid_argument& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("'bad'"), std::string::npos) << what;
        EXPECT_NE(what.find("(byte 22)"), std::string::npos) << what;
    }
    try {
        (void)ChaosPlan::parse("compute=0.1,bogus_key=1", 1);
        FAIL() << "expected a throw";
    } catch (const std::invalid_argument& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("'bogus_key'"), std::string::npos) << what;
        EXPECT_NE(what.find("(byte 12)"), std::string::npos) << what;
    }
}

// Values the chaos grammar reads but cannot honour: infinite stalls and
// stalls past one hour (1e300 ms overflows sleep_for) and integers past
// 2^64 (which used to wrap). Each must throw and name its token.
TEST(FaultSpecErrors, UnhonourableValuesAreRejectedByToken) {
    struct Case {
        const char* spec;
        const char* token;  ///< quoted, as the error names it
    };
    const Case cases[] = {
        {"compute_exact=18446744073709551617", "'18446744073709551617'"},
        {"shard_kill=18446744073709551616:0:10", "'18446744073709551616'"},
        {"stall_ms=inf", "'inf'"},
        {"pool_stall_ms=inf", "'inf'"},
        {"stall_ms=1e18", "'1e18'"},
        {"stall_ms=1e300", "'1e300'"},
        {"pool_stall_ms=1e300", "'1e300'"},
        {"shard_slow=0:0:10:1e300", "'1e300'"},
    };
    for (const Case& c : cases) {
        try {
            (void)ChaosPlan::parse(c.spec, 1);
            ADD_FAILURE() << c.spec << ": accepted";
        } catch (const std::invalid_argument& e) {
            const std::string what = e.what();
            EXPECT_NE(what.find(c.token), std::string::npos) << c.spec << ": " << what;
        }
    }
}

}  // namespace
