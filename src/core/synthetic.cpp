#include "core/synthetic.hpp"

#include <cmath>

#include "core/splitmix.hpp"

namespace wavehpc::core {

namespace {

[[nodiscard]] float hash01(std::uint64_t seed, std::int64_t gx, std::int64_t gy) noexcept {
    const std::uint64_t h = mix64(seed ^ mix64(static_cast<std::uint64_t>(gx) *
                                               0x9e3779b97f4a7c15ULL) ^
                                  mix64(static_cast<std::uint64_t>(gy) + 0x7f4a7c15ULL));
    return static_cast<float>(h >> 11) * (1.0F / 9007199254740992.0F);  // 53-bit mantissa
}

[[nodiscard]] float smoothstep(float t) noexcept { return t * t * (3.0F - 2.0F * t); }

// Bilinear value noise on an integer lattice of spacing `cell`.
[[nodiscard]] float value_noise(std::uint64_t seed, float x, float y) noexcept {
    const auto gx = static_cast<std::int64_t>(std::floor(x));
    const auto gy = static_cast<std::int64_t>(std::floor(y));
    const float tx = smoothstep(x - static_cast<float>(gx));
    const float ty = smoothstep(y - static_cast<float>(gy));
    const float v00 = hash01(seed, gx, gy);
    const float v10 = hash01(seed, gx + 1, gy);
    const float v01 = hash01(seed, gx, gy + 1);
    const float v11 = hash01(seed, gx + 1, gy + 1);
    const float a = v00 + (v10 - v00) * tx;
    const float b = v01 + (v11 - v01) * tx;
    return a + (b - a) * ty;
}

}  // namespace

ImageF fbm_field(std::size_t rows, std::size_t cols, std::uint64_t seed, int octaves) {
    ImageF out(rows, cols);
    const float base_freq = 4.0F / static_cast<float>(std::max(rows, cols));
    for (std::size_t r = 0; r < rows; ++r) {
        for (std::size_t c = 0; c < cols; ++c) {
            float amp = 1.0F;
            float freq = base_freq;
            float acc = 0.0F;
            float norm = 0.0F;
            for (int o = 0; o < octaves; ++o) {
                acc += amp * value_noise(seed + static_cast<std::uint64_t>(o) * 0x51ed2701ULL,
                                         static_cast<float>(c) * freq,
                                         static_cast<float>(r) * freq);
                norm += amp;
                amp *= 0.55F;
                freq *= 2.0F;
            }
            out(r, c) = acc / norm;
        }
    }
    return out;
}

ImageF landsat_tm_like(std::size_t rows, std::size_t cols, std::uint64_t seed, TmBand band) {
    ImageF relief = fbm_field(rows, cols, seed, 7);
    ImageF texture = fbm_field(rows, cols, seed ^ 0xabcdef1234ULL, 5);

    ImageF out(rows, cols);
    for (std::size_t r = 0; r < rows; ++r) {
        for (std::size_t c = 0; c < cols; ++c) {
            const float h = relief(r, c);

            // Hill shading from the local relief gradient (east-facing sun).
            const std::size_t ce = (c + 1 < cols) ? c + 1 : c;
            const std::size_t rs = (r + 1 < rows) ? r + 1 : r;
            const float shade =
                0.5F + 2.5F * (relief(r, ce) - h) - 1.5F * (relief(rs, c) - h);

            // A meandering river: dark where we are close to the sine track.
            const float track = 0.5F + 0.22F * std::sin(6.28318F * static_cast<float>(r) /
                                                        static_cast<float>(rows) * 1.7F) +
                                0.08F * (texture(r, c) - 0.5F);
            const float d = std::abs(static_cast<float>(c) / static_cast<float>(cols) - track);
            const float river = std::exp(-d * d * 900.0F);

            float v = 0.0F;
            switch (band) {
                case TmBand::Visible:
                    v = 90.0F + 110.0F * h + 35.0F * (shade - 0.5F) +
                        18.0F * (texture(r, c) - 0.5F);
                    v = v * (1.0F - 0.75F * river) + 20.0F * river;
                    break;
                case TmBand::NearIr:
                    v = 60.0F + 160.0F * h + 25.0F * (texture(r, c) - 0.5F);
                    v = v * (1.0F - 0.95F * river) + 6.0F * river;
                    break;
                case TmBand::Thermal:
                    v = 120.0F + 70.0F * relief(r, c) + 10.0F * river;
                    break;
            }

            // Along-track sensor striping: TM's 16-detector whiskbroom leaves
            // a faint period-16 row signature.
            const float stripe =
                1.5F * std::sin(6.28318F * static_cast<float>(r % 16) / 16.0F);
            v += stripe;

            out(r, c) = std::min(255.0F, std::max(0.0F, v));
        }
    }
    return out;
}

}  // namespace wavehpc::core
