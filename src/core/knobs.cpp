#include "core/knobs.hpp"

#include <charconv>
#include <cstdlib>
#include <iomanip>
#include <sstream>
#include <system_error>

namespace wavehpc::core {

namespace {

/// `text` as a T by std::from_chars, only if the read consumed all of it.
template <class T>
std::optional<T> whole_number(std::string_view text) {
    T v{};
    const char* end = text.data() + text.size();
    const auto [stop, ec] = std::from_chars(text.data(), end, v);
    if (ec != std::errc{} || stop != end) return std::nullopt;
    return v;
}

/// The variable's value, or nullptr when it is unset or empty.
const char* value_of(const Knob& k) {
    const char* raw = std::getenv(k.name);
    return raw != nullptr && *raw != '\0' ? raw : nullptr;
}

[[noreturn]] void reject(const Knob& k, const char* value) {
    std::ostringstream os;
    os << std::setprecision(15) << k.name << "='" << value << "': expected ";
    switch (k.kind) {
    case KnobKind::Unsigned: os << "an integer in [" << k.min << ", " << k.max << ']'; break;
    case KnobKind::Real: os << "a number in [" << k.lo << ", " << k.hi << ']'; break;
    case KnobKind::Text: break;  // every value is in the domain
    }
    throw std::invalid_argument(os.str());
}

}  // namespace

std::optional<std::uint64_t> parse_unsigned(std::string_view text, std::uint64_t min,
                                            std::uint64_t max) {
    const auto v = whole_number<std::uint64_t>(text);
    if (!v || *v < min || *v > max) return std::nullopt;
    return v;
}

std::optional<double> parse_real(std::string_view text, double lo, double hi) {
    const auto v = whole_number<double>(text);
    if (!v || !(*v >= lo && *v <= hi)) return std::nullopt;  // NaN fails
    return v;
}

std::optional<std::uint64_t> env_unsigned(KnobRef<KnobKind::Unsigned> knob) {
    const Knob& k = knob.row();
    const char* raw = value_of(k);
    if (raw == nullptr) return std::nullopt;
    const auto v = parse_unsigned(raw, k.min, k.max);
    if (!v) reject(k, raw);
    return v;
}

std::optional<double> env_real(KnobRef<KnobKind::Real> knob) {
    const Knob& k = knob.row();
    const char* raw = value_of(k);
    if (raw == nullptr) return std::nullopt;
    const auto v = parse_real(raw, k.lo, k.hi);
    if (!v) reject(k, raw);
    return v;
}

std::optional<std::string> env_text(KnobRef<KnobKind::Text> knob) {
    const char* raw = value_of(knob.row());
    if (raw == nullptr) return std::nullopt;
    return std::string(raw);
}

}  // namespace wavehpc::core
