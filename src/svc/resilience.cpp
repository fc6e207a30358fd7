#include "svc/resilience.hpp"

#include <algorithm>
#include <cmath>

#include "core/splitmix.hpp"

namespace wavehpc::svc {

double RetryPolicy::backoff_seconds(std::uint32_t attempt, std::uint64_t draw) const {
    if (attempt == 0) return 0.0;
    // The transport's shape (machine.hpp): doubling RTO under a cap. The
    // pow stays finite because cap_seconds bounds it long before overflow.
    double delay = base_seconds *
                   std::pow(multiplier, static_cast<double>(attempt - 1));
    delay = std::min(delay, cap_seconds);
    const double j = std::clamp(jitter, 0.0, 1.0);
    const double u = static_cast<double>(core::mix64(draw) >> 11) * 0x1.0p-53;
    return delay * (1.0 - j * u);
}

CircuitBreaker::State CircuitBreaker::state(Clock::time_point now) {
    if (state_ == State::Open &&
        std::chrono::duration<double>(now - opened_at_).count() >=
            cfg_.open_seconds) {
        state_ = State::HalfOpen;
        probes_allowed_ = 0;
        probes_succeeded_ = 0;
    }
    return state_;
}

bool CircuitBreaker::allow(Clock::time_point now) {
    switch (state(now)) {
    case State::Closed:
        return true;
    case State::Open:
        return false;
    case State::HalfOpen:
        if (probes_allowed_ >= cfg_.half_open_probes) return false;
        ++probes_allowed_;
        return true;
    }
    return true;  // unreachable
}

double CircuitBreaker::retry_after_seconds(Clock::time_point now) const {
    if (state_ != State::Open) {
        // Half-open with every probe slot taken: try again shortly.
        return std::max(cfg_.open_seconds * 0.1, 1e-3);
    }
    const double elapsed =
        std::chrono::duration<double>(now - opened_at_).count();
    return std::max(cfg_.open_seconds - elapsed, 1e-3);
}

void CircuitBreaker::trip(Clock::time_point now) {
    state_ = State::Open;
    opened_at_ = now;
    ++times_opened_;
}

void CircuitBreaker::record_success(Clock::time_point now) {
    ++samples_;
    ewma_ = samples_ == 1 ? 0.0 : (1.0 - cfg_.ewma_alpha) * ewma_;
    if (state(now) == State::HalfOpen) {
        if (++probes_succeeded_ >= cfg_.half_open_probes) {
            state_ = State::Closed;
            ewma_ = 0.0;       // fresh slate: the backend recovered
            samples_ = 0;
        }
    }
}

void CircuitBreaker::record_failure(Clock::time_point now) {
    ++samples_;
    ewma_ = samples_ == 1 ? 1.0
                          : (1.0 - cfg_.ewma_alpha) * ewma_ + cfg_.ewma_alpha;
    if (state(now) == State::HalfOpen) {
        trip(now);  // a failed probe re-opens immediately
        return;
    }
    if (state_ == State::Closed && samples_ >= cfg_.min_samples &&
        ewma_ > cfg_.failure_threshold) {
        trip(now);
    }
}

}  // namespace wavehpc::svc
