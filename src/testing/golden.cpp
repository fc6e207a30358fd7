#include "testing/golden.hpp"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "core/knobs.hpp"

namespace wavehpc::testing {

namespace {

#ifndef WAVEHPC_GOLDEN_DEFAULT_DIR
#define WAVEHPC_GOLDEN_DEFAULT_DIR ""
#endif

bool g_regen = false;

std::string format_value(double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

}  // namespace

void GoldenArtifact::set(const std::string& key, double value) {
    for (const auto& [k, v] : values_) {
        if (k == key) throw std::logic_error("GoldenArtifact: duplicate key " + key);
    }
    if (key.empty() || key.find_first_of(" \t\n#") != std::string::npos) {
        throw std::logic_error("GoldenArtifact: bad key '" + key + "'");
    }
    values_.emplace_back(key, value);
}

std::string GoldenArtifact::check(const std::string& name, double rel_tol,
                                  double abs_tol) const {
    const std::string path = golden_dir() + "/" + name + ".txt";

    if (regen_mode()) {
        std::ofstream out(path);
        if (!out) return "golden: cannot write " + path;
        out << "# golden artifact '" << name << "'; regenerate with --regen\n";
        for (const auto& [k, v] : values_) out << k << ' ' << format_value(v) << '\n';
        return out ? std::string{} : "golden: write failed for " + path;
    }

    std::ifstream in(path);
    if (!in) {
        return "golden: missing " + path +
               " — run the suite with --regen (or WAVEHPC_REGEN_GOLDEN=1) and "
               "commit the result";
    }
    std::map<std::string, double> golden;
    std::vector<std::string> golden_order;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#') continue;
        std::istringstream ls(line);
        std::string key;
        double value = 0.0;
        if (!(ls >> key >> value)) return "golden: unparsable line in " + path + ": " + line;
        golden[key] = value;
        golden_order.push_back(key);
    }

    std::ostringstream report;
    for (const auto& [k, computed] : values_) {
        const auto it = golden.find(k);
        if (it == golden.end()) {
            report << "  new key (not in golden): " << k << " = "
                   << format_value(computed) << '\n';
            continue;
        }
        const double want = it->second;
        const double err = std::abs(computed - want);
        const double rel = err / std::max(std::abs(want), abs_tol);
        if (err > abs_tol && rel > rel_tol) {
            report << "  " << k << ": golden " << format_value(want) << ", got "
                   << format_value(computed) << " (rel err " << rel << ", tol "
                   << rel_tol << ")\n";
        }
        golden.erase(it);
    }
    for (const auto& k : golden_order) {
        if (golden.count(k) != 0) report << "  missing key (golden only): " << k << '\n';
    }
    const std::string body = report.str();
    if (body.empty()) return {};
    return "golden mismatch vs " + path + ":\n" + body +
           "  (if the change is intentional, rerun with --regen and commit)";
}

std::string golden_dir() {
    if (auto dir = core::env_text("WAVEHPC_GOLDEN_DIR")) return *std::move(dir);
    const std::string dir = WAVEHPC_GOLDEN_DEFAULT_DIR;
    if (dir.empty()) {
        throw std::runtime_error(
            "golden_dir: WAVEHPC_GOLDEN_DIR unset and no compiled-in default");
    }
    return dir;
}

bool regen_mode() {
    return g_regen || core::env_text("WAVEHPC_REGEN_GOLDEN").value_or("0") != "0";
}

void set_regen_mode(bool on) { g_regen = on; }

}  // namespace wavehpc::testing
