#include "svc/shard/wire.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <limits>

namespace wavehpc::svc::shard::wire {

namespace {

// Little-endian scalar writer/reader over a growable byte vector. The wire
// format is explicit about byte order so the two legs (live transport,
// mesh machine) and any future cross-process peer agree bit-for-bit.
struct ByteWriter {
    std::vector<std::byte> buf;

    void u8(std::uint8_t v) { buf.push_back(static_cast<std::byte>(v)); }
    void u16(std::uint16_t v) {
        for (int i = 0; i < 2; ++i) u8(static_cast<std::uint8_t>(v >> (8 * i)));
    }
    void u32(std::uint32_t v) {
        for (int i = 0; i < 4; ++i) u8(static_cast<std::uint8_t>(v >> (8 * i)));
    }
    void u64(std::uint64_t v) {
        for (int i = 0; i < 8; ++i) u8(static_cast<std::uint8_t>(v >> (8 * i)));
    }
    void f32(float v) { u32(std::bit_cast<std::uint32_t>(v)); }
    void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
    void bytes(std::span<const std::byte> s) {
        buf.insert(buf.end(), s.begin(), s.end());
    }
};

struct ByteReader {
    std::span<const std::byte> buf;
    std::size_t pos = 0;

    [[nodiscard]] std::size_t remaining() const { return buf.size() - pos; }

    void need(std::size_t n, const char* what) const {
        if (remaining() < n) {
            throw WireError(std::string("wire: truncated ") + what);
        }
    }
    std::uint8_t u8(const char* what = "u8") {
        need(1, what);
        return static_cast<std::uint8_t>(buf[pos++]);
    }
    /// One enum byte; a value past `last` is a defect.
    template <typename E>
    E enum_u8(E last, const char* what) {
        const std::uint8_t v = u8(what);
        if (v > static_cast<std::uint8_t>(last)) {
            throw WireError(std::string("wire: bad ") + what);
        }
        return static_cast<E>(v);
    }
    std::uint16_t u16(const char* what = "u16") {
        need(2, what);
        std::uint16_t v = 0;
        for (int i = 0; i < 2; ++i) {
            v |= static_cast<std::uint16_t>(static_cast<std::uint8_t>(buf[pos++]))
                 << (8 * i);
        }
        return v;
    }
    std::uint32_t u32(const char* what = "u32") {
        need(4, what);
        std::uint32_t v = 0;
        for (int i = 0; i < 4; ++i) {
            v |= static_cast<std::uint32_t>(static_cast<std::uint8_t>(buf[pos++]))
                 << (8 * i);
        }
        return v;
    }
    std::uint64_t u64(const char* what = "u64") {
        need(8, what);
        std::uint64_t v = 0;
        for (int i = 0; i < 8; ++i) {
            v |= static_cast<std::uint64_t>(static_cast<std::uint8_t>(buf[pos++]))
                 << (8 * i);
        }
        return v;
    }
    float f32(const char* what = "f32") {
        return std::bit_cast<float>(u32(what));
    }
    double f64(const char* what = "f64") {
        return std::bit_cast<double>(u64(what));
    }
};

// Pixel planes travel as little-endian IEEE-754 binary32 bit patterns. On
// a little-endian host that is the in-memory layout, so a whole plane is
// one memcpy; NaN payloads, -0.0 and denormals cross bit-exact either way.
constexpr bool kNativeLittle = std::endian::native == std::endian::little;

void write_image(ByteWriter& w, const core::ImageF& img) {
    w.u32(static_cast<std::uint32_t>(img.rows()));
    w.u32(static_cast<std::uint32_t>(img.cols()));
    if constexpr (kNativeLittle) {
        w.bytes(std::as_bytes(img.flat()));
    } else {
        for (float v : img.flat()) w.f32(v);
    }
}

[[nodiscard]] core::ImageF read_image(ByteReader& r) {
    const std::uint32_t rows = r.u32("image rows");
    const std::uint32_t cols = r.u32("image cols");
    const std::uint64_t n = std::uint64_t{rows} * cols;
    r.need(n * 4, "image pixels");
    std::vector<float> data(n);
    if constexpr (kNativeLittle) {
        std::memcpy(data.data(), r.buf.data() + r.pos, n * 4);
        r.pos += n * 4;
    } else {
        for (std::uint64_t i = 0; i < n; ++i) data[i] = r.f32();
    }
    return core::ImageF(rows, cols, std::move(data));
}

void write_cache_key(ByteWriter& w, const CacheKey& k) {
    w.u64(k.digest_lo);
    w.u64(k.digest_hi);
    w.u32(k.rows);
    w.u32(k.cols);
    w.u8(k.taps);
    w.u8(k.levels);
    w.u8(k.boundary);
    w.u8(k.kernel);
}

[[nodiscard]] CacheKey read_cache_key(ByteReader& r) {
    CacheKey k;
    k.digest_lo = r.u64("key digest_lo");
    k.digest_hi = r.u64("key digest_hi");
    k.rows = r.u32("key rows");
    k.cols = r.u32("key cols");
    k.taps = r.u8("key taps");
    k.levels = r.u8("key levels");
    k.boundary = r.u8("key boundary");
    k.kernel = r.u8("key kernel");
    return k;
}

// A sealed frame is built in one buffer: a header-sized placeholder, the
// payload written in place after it, then the header over the placeholder
// once the payload's size and CRC are known.
[[nodiscard]] ByteWriter start_frame(std::size_t payload_hint,
                                     std::vector<std::byte> storage = {}) {
    ByteWriter w{std::move(storage)};
    w.buf.clear();
    w.buf.reserve(kHeaderBytes + payload_hint);
    w.buf.resize(kHeaderBytes);
    return w;
}

[[nodiscard]] std::vector<std::byte> finish_frame(ByteWriter& w, const Header& h) {
    const auto payload = std::span<const std::byte>(w.buf).subspan(kHeaderBytes);
    ByteWriter hw;
    hw.buf.reserve(kHeaderBytes);
    hw.u32(kMagic);
    hw.u16(kVersion);
    hw.u8(static_cast<std::uint8_t>(h.kind));
    hw.u8(0);  // flags
    hw.u32(h.src);
    hw.u32(h.dst);
    hw.u64(h.incarnation);
    hw.u64(h.epoch);
    hw.u64(h.request_id);
    hw.u32(static_cast<std::uint32_t>(payload.size()));
    hw.u32(mesh::crc32(payload));
    std::copy(hw.buf.begin(), hw.buf.end(), w.buf.begin());
    return std::move(w.buf);
}

[[nodiscard]] std::size_t request_bytes(const TransformRequest& req) {
    return 32 + req.image->size() * sizeof(float);
}

void write_request(ByteWriter& w, const TransformRequest& req, Clock::time_point now) {
    w.u8(static_cast<std::uint8_t>(req.taps));
    w.u8(static_cast<std::uint8_t>(req.levels));
    w.u8(static_cast<std::uint8_t>(req.boundary));
    w.u8(static_cast<std::uint8_t>(req.kernel));
    w.u8(static_cast<std::uint8_t>(req.backend));
    w.u8(static_cast<std::uint8_t>(req.priority));
    w.u8(req.allow_degraded ? 1 : 0);
    double deadline_rel = std::numeric_limits<double>::infinity();
    if (req.deadline != Clock::time_point::max()) {
        deadline_rel = std::chrono::duration<double>(req.deadline - now).count();
    }
    w.f64(deadline_rel);
    write_image(w, *req.image);
}

[[nodiscard]] std::size_t reply_bytes(const TransformReply& reply) {
    // Fixed fields + 8 dimension bytes per band, then the coefficients.
    const core::Pyramid& pyr = reply.result->pyramid;
    return 128 + 32 * pyr.levels.size() + pyramid_bytes(pyr);
}

void write_reply(ByteWriter& w, const TransformReply& reply) {
    const TransformResult& res = *reply.result;
    w.u8(0);  // status: value
    std::uint8_t flags = 0;
    if (reply.cache_hit) flags |= 1U;
    if (reply.shared_flight) flags |= 2U;
    if (reply.degraded) flags |= 4U;
    w.u8(flags);
    w.u32(reply.attempts);
    w.u32(reply.batch_size);
    w.f64(reply.queue_seconds);
    w.f64(reply.compute_seconds);
    w.f64(reply.total_seconds);
    write_cache_key(w, res.key);
    w.u64(res.result_bytes);
    w.f64(res.compute_seconds);
    w.u32(res.crc32);
    w.u32(static_cast<std::uint32_t>(res.pyramid.levels.size()));
    for (const core::DetailBands& lv : res.pyramid.levels) {
        write_image(w, lv.lh);
        write_image(w, lv.hl);
        write_image(w, lv.hh);
    }
    write_image(w, res.pyramid.approx);
}

// Byte offset of payload_crc within the header.
constexpr std::size_t kPayloadCrcOffset = 44;

/// Parse + verify. The payload check compares the header's payload_crc
/// against a pass of its own — or, given the CRC a receiving NIC already
/// took over the whole frame, against that CRC with the header's part
/// split off (crc32_shift), which reads only the 48 header bytes.
Opened parse_sealed(std::span<const std::byte> frame,
                    std::optional<std::uint32_t> frame_crc) {
    ByteReader r{frame};
    if (frame.size() < kHeaderBytes) throw WireError("wire: frame too short");
    if (r.u32() != kMagic) throw WireError("wire: bad magic");
    const std::uint16_t ver = r.u16();
    if (ver != kVersion) {
        throw WireError("wire: unsupported version " + std::to_string(ver));
    }
    Opened o;
    const std::uint8_t kind = r.u8();
    if (kind < static_cast<std::uint8_t>(MsgKind::Request) ||
        kind > static_cast<std::uint8_t>(MsgKind::Gossip)) {
        throw WireError("wire: unknown message kind " + std::to_string(kind));
    }
    o.header.kind = static_cast<MsgKind>(kind);
    (void)r.u8();  // flags
    o.header.src = r.u32();
    o.header.dst = r.u32();
    o.header.incarnation = r.u64();
    o.header.epoch = r.u64();
    o.header.request_id = r.u64();
    const std::uint32_t payload_size = r.u32();
    const std::uint32_t payload_crc = r.u32();
    if (r.remaining() != payload_size) {
        throw WireError("wire: payload size mismatch");
    }
    o.payload = frame.subspan(kHeaderBytes);
    const std::uint32_t crc =
        frame_crc ? *frame_crc ^ mesh::crc32_shift(mesh::crc32(frame.first(kHeaderBytes)),
                                                   o.payload.size())
                  : mesh::crc32(o.payload);
    if (crc != payload_crc) throw WireError("wire: payload CRC mismatch");
    return o;
}

}  // namespace

std::vector<std::byte> seal(const Header& h, std::span<const std::byte> payload) {
    ByteWriter w = start_frame(payload.size());
    w.bytes(payload);
    return finish_frame(w, h);
}

std::vector<std::byte> seal_request(const Header& h, const TransformRequest& req,
                                    Clock::time_point now, std::vector<std::byte> storage) {
    if (!req.image) throw WireError("wire: request has no image");
    ByteWriter w = start_frame(request_bytes(req), std::move(storage));
    write_request(w, req, now);
    return finish_frame(w, h);
}

std::vector<std::byte> seal_reply(const Header& h, const TransformReply& reply,
                                  std::vector<std::byte> storage) {
    if (!reply.result) throw WireError("wire: reply has no result");
    ByteWriter w = start_frame(reply_bytes(reply), std::move(storage));
    write_reply(w, reply);
    return finish_frame(w, h);
}

mesh::CheckedBytes checked(std::span<const std::byte> sealed) {
    if (sealed.size() < kHeaderBytes) throw WireError("wire: frame too short");
    ByteReader r{sealed.subspan(kPayloadCrcOffset, 4)};
    const std::uint32_t payload_crc = r.u32();
    return {sealed, mesh::crc32_shift(mesh::crc32(sealed.first(kHeaderBytes)),
                                      sealed.size() - kHeaderBytes) ^
                        payload_crc};
}

Unsealed unseal(std::span<const std::byte> frame) {
    const Opened o = parse_sealed(frame, std::nullopt);
    return {o.header, {o.payload.begin(), o.payload.end()}};
}

std::optional<Unsealed> try_unseal(std::span<const std::byte> frame) {
    try {
        return unseal(frame);
    } catch (const WireError&) {
        return std::nullopt;
    }
}

std::optional<Opened> try_open(mesh::CheckedBytes frame) {
    try {
        return parse_sealed(frame.bytes, frame.crc);
    } catch (const WireError&) {
        return std::nullopt;
    }
}

// ------------------------------------------------------------ request

std::vector<std::byte> encode_request_payload(const TransformRequest& req,
                                              Clock::time_point now) {
    if (!req.image) throw WireError("wire: request has no image");
    ByteWriter w;
    w.buf.reserve(request_bytes(req));
    write_request(w, req, now);
    return std::move(w.buf);
}

TransformRequest decode_request_payload(std::span<const std::byte> payload,
                                        Clock::time_point now) {
    ByteReader r{payload};
    TransformRequest req;
    req.taps = r.u8("taps");
    req.levels = r.u8("levels");
    req.boundary = r.enum_u8(core::BoundaryMode::ZeroPad, "boundary");
    req.kernel = r.enum_u8(core::DwtKernel::Convolve, "kernel");
    req.backend = r.enum_u8(Backend::Threads, "backend");
    req.priority = r.enum_u8(Priority::Interactive, "priority");
    req.allow_degraded = r.u8("allow_degraded") != 0;
    // +inf means no deadline. Anything else must land on the clock: NaN,
    // -inf and sums past the clock's ticks are defects, not deadlines.
    const double deadline_rel = r.f64("deadline");
    if (deadline_rel != std::numeric_limits<double>::infinity()) {
        using Ticks = std::numeric_limits<Clock::rep>;
        const double ticks = std::chrono::duration<double, Clock::period>(
                                 std::chrono::duration<double>(deadline_rel))
                                 .count();
        const double bound = static_cast<double>(Ticks::max());  // 2^63, exclusive
        if (!(ticks > -bound && ticks < bound)) throw WireError("wire: bad deadline");
        const auto d = static_cast<Clock::rep>(ticks);
        const Clock::rep base = now.time_since_epoch().count();
        if (d > 0 ? base > Ticks::max() - d : base < Ticks::min() - d) {
            throw WireError("wire: bad deadline");
        }
        req.deadline = now + Clock::duration(d);
    }
    req.image = std::make_shared<const core::ImageF>(read_image(r));
    if (r.remaining() != 0) throw WireError("wire: trailing request bytes");
    return req;
}

// -------------------------------------------------------------- reply

std::vector<std::byte> encode_reply_payload(const TransformReply& reply) {
    if (!reply.result) throw WireError("wire: reply has no result");
    ByteWriter w;
    w.buf.reserve(reply_bytes(reply));
    write_reply(w, reply);
    return std::move(w.buf);
}

std::vector<std::byte> encode_reply_error_payload(ReplyErrorKind kind,
                                                  std::string_view message) {
    ByteWriter w;
    w.u8(1);  // status: error
    w.u8(static_cast<std::uint8_t>(kind));
    w.u32(static_cast<std::uint32_t>(message.size()));
    w.bytes(std::as_bytes(std::span(message.data(), message.size())));
    return std::move(w.buf);
}

ReplyWire decode_reply_payload(std::span<const std::byte> payload) {
    ByteReader r{payload};
    ReplyWire rw;
    const std::uint8_t status = r.u8("reply status");
    if (status == 1) {
        rw.is_error = true;
        rw.error_kind = r.enum_u8(ReplyErrorKind::Other, "error kind");
        const std::uint32_t n = r.u32("error message size");
        r.need(n, "error message");
        rw.error_message.assign(
            reinterpret_cast<const char*>(r.buf.data() + r.pos), n);
        r.pos += n;
        return rw;
    }
    if (status != 0) throw WireError("wire: bad reply status");
    const std::uint8_t flags = r.u8("reply flags");
    rw.reply.cache_hit = (flags & 1U) != 0;
    rw.reply.shared_flight = (flags & 2U) != 0;
    rw.reply.degraded = (flags & 4U) != 0;
    rw.reply.attempts = r.u32("attempts");
    rw.reply.batch_size = r.u32("batch size");
    rw.reply.queue_seconds = r.f64("queue seconds");
    rw.reply.compute_seconds = r.f64("compute seconds");
    rw.reply.total_seconds = r.f64("total seconds");
    TransformResult res;
    res.key = read_cache_key(r);
    res.result_bytes = r.u64("result bytes");
    res.compute_seconds = r.f64("result compute seconds");
    res.crc32 = r.u32("result crc");
    const std::uint32_t n_levels = r.u32("pyramid depth");
    res.pyramid.levels.reserve(n_levels);
    for (std::uint32_t i = 0; i < n_levels; ++i) {
        core::DetailBands lv;
        lv.lh = read_image(r);
        lv.hl = read_image(r);
        lv.hh = read_image(r);
        res.pyramid.levels.push_back(std::move(lv));
    }
    res.pyramid.approx = read_image(r);
    if (r.remaining() != 0) throw WireError("wire: trailing reply bytes");
    // Not make_shared: clients watch results through weak_ptrs (audit and
    // digest memos), and a fused control block would pin the whole object
    // for as long as any of those outlive it.
    rw.reply.result = std::shared_ptr<const TransformResult>(
        new TransformResult(std::move(res)));
    return rw;
}

void rethrow_reply_error(const ReplyWire& rw) {
    switch (rw.error_kind) {
        case ReplyErrorKind::Shutdown: throw ServiceShutdownError();
        case ReplyErrorKind::Deadline: throw DeadlineExpiredError();
        case ReplyErrorKind::Watchdog: throw WatchdogTimeoutError();
        case ReplyErrorKind::CrcAudit: throw CrcAuditError();
        case ReplyErrorKind::Other: break;
    }
    throw std::runtime_error(rw.error_message.empty()
                                 ? std::string("shard wire: remote error")
                                 : rw.error_message);
}

// ------------------------------------------------------------- roster

std::vector<std::byte> encode_roster_payload(
    std::span<const RosterEntry> roster) {
    ByteWriter w;
    w.buf.reserve(4 + roster.size() * 17);
    w.u32(static_cast<std::uint32_t>(roster.size()));
    for (const RosterEntry& e : roster) {
        w.u64(e.incarnation);
        w.f64(e.last_ok);
        w.u8(e.health);
    }
    return std::move(w.buf);
}

std::vector<RosterEntry> decode_roster_payload(
    std::span<const std::byte> payload) {
    ByteReader r{payload};
    const std::uint32_t n = r.u32("roster size");
    std::vector<RosterEntry> roster;
    roster.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) {
        RosterEntry e;
        e.incarnation = r.u64("roster incarnation");
        e.last_ok = r.f64("roster last_ok");
        e.health = r.u8("roster health");
        roster.push_back(e);
    }
    if (r.remaining() != 0) throw WireError("wire: trailing roster bytes");
    return roster;
}

std::vector<std::byte> encode_admit_payload(const AdmitWire& a) {
    ByteWriter w;
    w.buf.reserve(10);
    w.u8(static_cast<std::uint8_t>(a.status));
    w.u8(static_cast<std::uint8_t>(a.reject_reason));
    w.f64(a.retry_after);
    return std::move(w.buf);
}

AdmitWire decode_admit_payload(std::span<const std::byte> payload) {
    ByteReader r{payload};
    AdmitWire a;
    a.status = r.enum_u8(AdmitStatus::Down, "admit status");
    a.reject_reason = r.enum_u8(RejectReason::Quarantined, "admit reject reason");
    a.retry_after = r.f64("admit retry_after");
    if (r.remaining() != 0) throw WireError("wire: trailing admit bytes");
    return a;
}

}  // namespace wavehpc::svc::shard::wire
