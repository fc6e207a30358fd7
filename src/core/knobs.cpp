#include "core/knobs.hpp"

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <sstream>

namespace wavehpc::core {

namespace {

/// The variable's value, or nullptr when it is unset or empty.
const char* value_of(const Knob& k) {
    const char* raw = std::getenv(k.name);
    return raw != nullptr && *raw != '\0' ? raw : nullptr;
}

[[noreturn]] void reject(const Knob& k, const char* value) {
    std::ostringstream os;
    os << k.name << "='" << value << "': expected ";
    switch (k.kind) {
    case KnobKind::Unsigned: os << "an integer in [" << k.min << ", " << k.max << ']'; break;
    case KnobKind::Real: os << "a number in [" << k.lo << ", " << k.hi << ']'; break;
    case KnobKind::Text: break;  // every value is in the domain
    }
    throw std::invalid_argument(os.str());
}

}  // namespace

std::optional<std::uint64_t> env_unsigned(KnobRef<KnobKind::Unsigned> knob) {
    const Knob& k = knob.row();
    const char* raw = value_of(k);
    if (raw == nullptr) return std::nullopt;
    char* end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(raw, &end, 10);
    // strtoull wraps a leading '-' and saturates on overflow; both are
    // out-of-domain values, not numbers to clamp.
    if (end == raw || *end != '\0' || errno == ERANGE || std::strchr(raw, '-') != nullptr ||
        v < k.min || v > k.max) {
        reject(k, raw);
    }
    return v;
}

std::optional<double> env_real(KnobRef<KnobKind::Real> knob) {
    const Knob& k = knob.row();
    const char* raw = value_of(k);
    if (raw == nullptr) return std::nullopt;
    char* end = nullptr;
    const double v = std::strtod(raw, &end);
    if (end == raw || *end != '\0' || !(v >= k.lo && v <= k.hi)) reject(k, raw);  // NaN fails
    return v;
}

std::optional<std::string> env_text(KnobRef<KnobKind::Text> knob) {
    const char* raw = value_of(knob.row());
    if (raw == nullptr) return std::nullopt;
    return std::string(raw);
}

}  // namespace wavehpc::core
