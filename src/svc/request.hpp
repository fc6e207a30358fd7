#pragma once
// Typed request/reply surface of the pyramid service (service.hpp).
//
// A TransformRequest names a scene (by shared pointer — the service holds
// a reference until the transform finishes), the paper's transform
// parameters, a backend, and scheduling attributes (priority, absolute
// deadline). submit() answers synchronously with accept-or-reject
// (backpressure), and an accepted request resolves through a shared
// future: value on success, DeadlineExpiredError / ServiceShutdownError
// on the two administrative failure paths.

#include <chrono>
#include <future>
#include <memory>
#include <stdexcept>

#include "core/boundary.hpp"
#include "core/dwt.hpp"
#include "core/image.hpp"
#include "svc/hash.hpp"

namespace wavehpc::svc {

using Clock = std::chrono::steady_clock;

/// Which transform implementation serves the request. All backends are
/// bit-identical (the cache depends on it — see hash.hpp).
enum class Backend : std::uint8_t {
    Serial,   ///< core::decompose on the service worker
    Threads,  ///< wavelet::decompose_parallel on the shared pool
};

/// Scheduling class; higher runs first. Interactive additionally maps to
/// the runtime pool's high-priority queue.
enum class Priority : std::uint8_t { Background = 0, Normal = 1, Interactive = 2 };

struct TransformRequest {
    std::shared_ptr<const core::ImageF> image;  ///< required, non-null
    int taps = 8;                               ///< filter size (2/4/6/8)
    int levels = 1;
    core::BoundaryMode boundary = core::BoundaryMode::Periodic;
    /// DWT kernel (core/kernels.hpp). Convolve is the one kernel and no
    /// code branches on this field; submit resolves Auto to Convolve, which
    /// the cache key and the shard request frame carry. It stays because
    /// the benchmark package sets it.
    core::DwtKernel kernel = core::DwtKernel::Auto;
    Backend backend = Backend::Threads;
    Priority priority = Priority::Normal;
    /// Absolute steady-clock deadline; a request still queued past it is
    /// failed, never computed. time_point::max() = no deadline.
    Clock::time_point deadline = Clock::time_point::max();
    /// Opt-in graceful degradation: when the backend's circuit breaker is
    /// open or admission is saturated, the service may answer with a
    /// cached pyramid of the *same scene* under different transform
    /// parameters (typically a coarser level count) instead of rejecting.
    /// The reply is flagged `degraded`; exact-parameter clients leave
    /// this false and get the ordinary reject + retry-after.
    bool allow_degraded = false;
};

/// The immutable computed artifact, shared (never copied) between the
/// cache and every waiter of every deduplicated request.
struct TransformResult {
    core::Pyramid pyramid;
    CacheKey key;
    std::uint64_t result_bytes = 0;    ///< pyramid payload, for cache budget
    double compute_seconds = 0.0;      ///< the cold compute that produced it
    /// CRC-32 of the pyramid coefficients, taken immediately after the
    /// compute (the point of truth). The cache audits it on insert (and
    /// on lookup when chaos is active), so an injected or real buffer
    /// corruption is caught before any waiter sees the bytes. 0 = the
    /// producer did not checksum (audit skipped).
    std::uint32_t crc32 = 0;
};

/// Per-request outcome delivered through the future. `result` is shared:
/// N deduplicated waiters observe the same TransformResult object.
struct TransformReply {
    std::shared_ptr<const TransformResult> result;
    bool cache_hit = false;       ///< served directly from the result cache
    bool shared_flight = false;   ///< joined an identical in-flight request
    /// Served a cached *variant* of the requested scene (same pixels,
    /// different taps/levels) because the exact answer was unavailable —
    /// only possible when the request set `allow_degraded`.
    bool degraded = false;
    std::uint32_t attempts = 1;   ///< compute attempts the flight needed (1 = no retry)
    /// Flights fused into the sweep that computed this reply (1 = solo or
    /// no compute happened — cache hit / degraded / joined flight shares
    /// its lead's value).
    std::uint32_t batch_size = 1;
    double queue_seconds = 0.0;   ///< submit -> compute start (0 for cache hit)
    double compute_seconds = 0.0; ///< transform time (0 unless this flight computed)
    double total_seconds = 0.0;   ///< submit -> reply
};

using TransformFuture = std::shared_future<TransformReply>;

/// The request sat in the queue past its deadline; it was failed without
/// being computed.
class DeadlineExpiredError : public std::runtime_error {
public:
    DeadlineExpiredError() : std::runtime_error("pyramid service: deadline expired before compute") {}
};

/// The service was shut down while the request was still queued; accepted
/// in-flight work was drained, queued work fails with this.
class ServiceShutdownError : public std::runtime_error {
public:
    ServiceShutdownError() : std::runtime_error("pyramid service: shut down with request still queued") {}
};

/// The compute exceeded its watchdog budget (min of the configured limit
/// and the time left to the request deadline); the request was failed and
/// its concurrency slot released so the stall could not wedge the service.
class WatchdogTimeoutError : public std::runtime_error {
public:
    WatchdogTimeoutError()
        : std::runtime_error("pyramid service: compute exceeded its watchdog budget") {}
};

/// A freshly computed result failed the CRC audit (buffer corrupted
/// between compute and finalize). Retryable, like any transient compute
/// fault — a corrupted buffer is never delivered or cached.
class CrcAuditError : public std::runtime_error {
public:
    CrcAuditError()
        : std::runtime_error("pyramid service: result failed the CRC audit") {}
};

/// Why submit() said no (accepted == false).
enum class RejectReason : std::uint8_t {
    None,          ///< accepted
    Saturated,     ///< admission budgets full (queue depth or byte budget)
    ShuttingDown,  ///< service is draining
    BreakerOpen,   ///< the backend's circuit breaker is rejecting fast
    Quarantined,   ///< this exact request exhausted its retries before;
                   ///< identical resubmissions fail immediately
};

/// Synchronous answer of PyramidService::submit.
struct SubmitResult {
    bool accepted = false;
    RejectReason reject_reason = RejectReason::None;
    /// Backpressure hint when rejected: suggested client wait before
    /// retrying, from the current backlog and smoothed service time (or
    /// the breaker's remaining open window; +inf when pointless).
    double retry_after_seconds = 0.0;
    /// Valid (joinable) only when accepted.
    TransformFuture future;
};

/// The one request check, run by PyramidService::submit and by
/// ShardCluster::submit and placement before anything is counted or sent:
/// a non-null image; boundary, kernel, backend and priority in range (any
/// byte casts into an enum); taps FilterPair::daubechies knows; and a shape
/// core::validate_decomposition_request accepts. Throws
/// std::invalid_argument naming the field; returns the request's filters.
[[nodiscard]] core::FilterPair validate_request(const TransformRequest& request);

/// Pyramid payload size in bytes, the unit of the cache byte budget.
[[nodiscard]] std::uint64_t pyramid_bytes(const core::Pyramid& pyr) noexcept;

}  // namespace wavehpc::svc
