#pragma once
// Golden artifact regression: snapshot the numeric outputs behind the
// paper's tables and figures into checked-in text files, and compare fresh
// computations against them with per-artifact tolerances.
//
// File format: one `key value` pair per line (value printed with %.17g, so
// a regenerated-but-unchanged artifact diffs empty), '#' comment lines
// ignored. Regeneration is explicit: run the suite with --regen (or
// WAVEHPC_REGEN_GOLDEN=1) and commit the rewritten files.

#include <cstdint>
#include <string>
#include <vector>

namespace wavehpc::testing {

class GoldenArtifact {
public:
    /// Record one named value; keys must be unique within the artifact and
    /// are compared (and written) in insertion order.
    void set(const std::string& key, double value);
    /// Record a count: it must match the golden exactly, whatever
    /// tolerance check() is given.
    void set_count(const std::string& key, std::uint64_t n);

    /// Compare against `<golden_dir()>/<name>.txt`. Returns an empty string
    /// on match (every golden key present, relative error within `rel_tol`,
    /// absolute error within `abs_tol` near zero, counts equal, no keys
    /// added or removed); otherwise a multi-line mismatch report. In regen
    /// mode, rewrites the file instead and returns empty.
    [[nodiscard]] std::string check(const std::string& name, double rel_tol,
                                    double abs_tol = 1e-12) const;

private:
    struct Value {
        std::string key;
        double value = 0.0;
        bool exact = false;
    };
    void add(const std::string& key, double value, bool exact);

    std::vector<Value> values_;
};

/// Directory holding the golden files: $WAVEHPC_GOLDEN_DIR if set, else the
/// compiled-in default (tests/golden in the source tree).
[[nodiscard]] std::string golden_dir();

/// Regen mode: set by set_regen_mode (the suite's --regen flag) or the
/// WAVEHPC_REGEN_GOLDEN environment variable (any value but "0").
[[nodiscard]] bool regen_mode();
void set_regen_mode(bool on);

}  // namespace wavehpc::testing
