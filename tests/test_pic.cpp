#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "mesh/machine.hpp"
#include "pic/fft.hpp"
#include "pic/parallel.hpp"
#include "pic/serial.hpp"

namespace {

using wavehpc::pic::Complex;
using wavehpc::pic::Grid3;
using wavehpc::pic::Particle;
using wavehpc::pic::PicConfig;
using wavehpc::pic::PicCostModel;

std::vector<Complex> random_signal(std::size_t n, unsigned salt = 0) {
    std::vector<Complex> v(n);
    for (std::size_t i = 0; i < n; ++i) {
        const auto h = (i + salt) * 2654435761U;
        v[i] = Complex(static_cast<double>(h % 997) / 500.0 - 1.0,
                       static_cast<double>((h / 997) % 991) / 500.0 - 1.0);
    }
    return v;
}

// ------------------------------------------------------------------- FFT

TEST(Fft, MatchesReferenceDft) {
    for (std::size_t n : {1U, 2U, 8U, 64U}) {
        auto v = random_signal(n);
        const auto expected = wavehpc::pic::dft_reference(v, false);
        wavehpc::pic::fft_1d(v, false);
        for (std::size_t i = 0; i < n; ++i) {
            EXPECT_NEAR(v[i].real(), expected[i].real(), 1e-9) << n << ":" << i;
            EXPECT_NEAR(v[i].imag(), expected[i].imag(), 1e-9);
        }
    }
}

TEST(Fft, ForwardInverseRoundTrip) {
    auto v = random_signal(128);
    const auto original = v;
    wavehpc::pic::fft_1d(v, false);
    wavehpc::pic::fft_1d(v, true);
    for (std::size_t i = 0; i < v.size(); ++i) {
        EXPECT_NEAR(v[i].real(), original[i].real(), 1e-10);
        EXPECT_NEAR(v[i].imag(), original[i].imag(), 1e-10);
    }
}

TEST(Fft, RejectsNonPowerOfTwo) {
    auto v = random_signal(12);
    EXPECT_THROW(wavehpc::pic::fft_1d(v, false), std::invalid_argument);
    std::vector<Complex> empty;
    EXPECT_THROW(wavehpc::pic::fft_1d(empty, false), std::invalid_argument);
}

TEST(Fft, StridedMatchesContiguous) {
    auto base = random_signal(256, 7);
    // Interleave the 64-element signal at stride 4 starting at offset 2.
    auto strided = base;
    std::vector<Complex> expected(64);
    for (std::size_t i = 0; i < 64; ++i) expected[i] = base[2 + 4 * i];
    wavehpc::pic::fft_1d(expected, false);
    wavehpc::pic::fft_1d_strided(strided, 2, 4, 64, false);
    for (std::size_t i = 0; i < 64; ++i) {
        EXPECT_NEAR(strided[2 + 4 * i].real(), expected[i].real(), 1e-10);
        EXPECT_NEAR(strided[2 + 4 * i].imag(), expected[i].imag(), 1e-10);
    }
    EXPECT_THROW(wavehpc::pic::fft_1d_strided(strided, 0, 4, 128, false),
                 std::invalid_argument);
}

TEST(Fft, ThreeDimensionalRoundTripAndDelta) {
    constexpr std::size_t n = 8;
    std::vector<Complex> cube(n * n * n, Complex(0.0, 0.0));
    cube[0] = Complex(1.0, 0.0);  // delta -> flat spectrum
    wavehpc::pic::fft_3d(cube, n, false);
    for (const Complex& c : cube) {
        EXPECT_NEAR(c.real(), 1.0, 1e-10);
        EXPECT_NEAR(c.imag(), 0.0, 1e-10);
    }
    wavehpc::pic::fft_3d(cube, n, true);
    EXPECT_NEAR(cube[0].real(), 1.0, 1e-10);
    EXPECT_NEAR(cube[1].real(), 0.0, 1e-10);
    EXPECT_THROW(wavehpc::pic::fft_3d(cube, 7, false), std::invalid_argument);
}

// ------------------------------------------------------------------ grid

TEST(Grid3Test, WrappedAccessIsPeriodic) {
    Grid3 g(4);
    g.at(1, 2, 3) = 7.0;
    EXPECT_DOUBLE_EQ(g.wrapped(5, 2, 3), 7.0);
    EXPECT_DOUBLE_EQ(g.wrapped(-3, -2, -1), 7.0);
    EXPECT_DOUBLE_EQ(g.wrapped(1, 6, -5), 7.0);
}

// ------------------------------------------------------------ deposition

TEST(Deposit, ConservesTotalCharge) {
    const auto particles = wavehpc::pic::uniform_plasma(5000, 16);
    Grid3 rho(16);
    wavehpc::pic::deposit_cic(particles, 0.05, rho);
    double total = 0.0;
    for (double v : rho.flat()) total += v;
    EXPECT_NEAR(total, 0.05 * 5000.0, 1e-9);
}

TEST(Deposit, ParticleOnGridPointChargesOneCell) {
    std::vector<Particle> one(1);
    one[0].x = 3.0;
    one[0].y = 5.0;
    one[0].z = 7.0;
    Grid3 rho(16);
    wavehpc::pic::deposit_cic(one, 1.0, rho);
    EXPECT_DOUBLE_EQ(rho.at(3, 5, 7), 1.0);
    EXPECT_DOUBLE_EQ(rho.at(4, 5, 7), 0.0);
}

TEST(Deposit, MidCellParticleSplitsEvenly) {
    std::vector<Particle> one(1);
    one[0].x = 3.5;
    one[0].y = 5.0;
    one[0].z = 7.0;
    Grid3 rho(16);
    wavehpc::pic::deposit_cic(one, 1.0, rho);
    EXPECT_DOUBLE_EQ(rho.at(3, 5, 7), 0.5);
    EXPECT_DOUBLE_EQ(rho.at(4, 5, 7), 0.5);
}

// ---------------------------------------------------------- field solve

TEST(Poisson, InvertsTheDiscreteLaplacian) {
    // Build rho = -lap(phi0) for a known zero-mean phi0; the solver must
    // recover phi0.
    constexpr std::size_t n = 16;
    Grid3 phi0(n);
    for (std::size_t z = 0; z < n; ++z) {
        for (std::size_t y = 0; y < n; ++y) {
            for (std::size_t x = 0; x < n; ++x) {
                phi0.at(x, y, z) =
                    std::cos(2.0 * std::numbers::pi * static_cast<double>(x) / n) +
                    0.5 * std::sin(2.0 * std::numbers::pi * static_cast<double>(y + z) / n);
            }
        }
    }
    Grid3 rho(n);
    for (std::size_t z = 0; z < n; ++z) {
        for (std::size_t y = 0; y < n; ++y) {
            for (std::size_t x = 0; x < n; ++x) {
                const auto xi = static_cast<std::ptrdiff_t>(x);
                const auto yi = static_cast<std::ptrdiff_t>(y);
                const auto zi = static_cast<std::ptrdiff_t>(z);
                const double lap = phi0.wrapped(xi + 1, yi, zi) +
                                   phi0.wrapped(xi - 1, yi, zi) +
                                   phi0.wrapped(xi, yi + 1, zi) +
                                   phi0.wrapped(xi, yi - 1, zi) +
                                   phi0.wrapped(xi, yi, zi + 1) +
                                   phi0.wrapped(xi, yi, zi - 1) -
                                   6.0 * phi0.at(x, y, z);
                rho.at(x, y, z) = -lap;
            }
        }
    }
    Grid3 phi;
    wavehpc::pic::solve_poisson_fft(rho, phi);
    for (std::size_t i = 0; i < phi.size(); ++i) {
        EXPECT_NEAR(phi.flat()[i], phi0.flat()[i], 1e-9);
    }
}

TEST(FieldAt, MatchesCentralDifferenceOnGridPoints) {
    constexpr std::size_t n = 8;
    Grid3 phi(n);
    for (std::size_t z = 0; z < n; ++z) {
        for (std::size_t y = 0; y < n; ++y) {
            for (std::size_t x = 0; x < n; ++x) {
                phi.at(x, y, z) =
                    std::sin(2.0 * std::numbers::pi * static_cast<double>(x) / n);
            }
        }
    }
    const auto e = wavehpc::pic::field_at(phi, 2.0, 3.0, 4.0);
    const double expected = -(phi.at(3, 3, 4) - phi.at(1, 3, 4)) / 2.0;
    EXPECT_NEAR(e[0], expected, 1e-12);
    EXPECT_NEAR(e[1], 0.0, 1e-12);
    EXPECT_NEAR(e[2], 0.0, 1e-12);
}

// ---------------------------------------------------------------- push

TEST(Push, AdaptiveStepCapsDisplacement) {
    std::vector<Particle> fast(1);
    fast[0].vx = 50.0;
    Grid3 phi(8);  // zero field
    const double used =
        wavehpc::pic::push_particles(fast, phi, 1.0, wavehpc::pic::max_speed(fast));
    EXPECT_LE(used * 50.0, 0.5 + 1e-12);
    EXPECT_LT(used, 1.0);
}

TEST(Push, PositionsStayInBox) {
    auto particles = wavehpc::pic::uniform_plasma(1000, 8);
    Grid3 rho;
    Grid3 phi;
    PicConfig cfg;
    cfg.grid_n = 8;
    for (int s = 0; s < 3; ++s) {
        (void)wavehpc::pic::serial_pic_step(particles, rho, phi, cfg);
    }
    for (const Particle& p : particles) {
        EXPECT_GE(p.x, 0.0);
        EXPECT_LT(p.x, 8.0);
        EXPECT_GE(p.z, 0.0);
        EXPECT_LT(p.z, 8.0);
        EXPECT_TRUE(std::isfinite(p.vx));
    }
}

TEST(SerialStepPic, ChargeConservedAcrossSteps) {
    auto particles = wavehpc::pic::uniform_plasma(4000, 16);
    Grid3 rho;
    Grid3 phi;
    PicConfig cfg;
    cfg.grid_n = 16;
    const auto s1 = wavehpc::pic::serial_pic_step(particles, rho, phi, cfg);
    const auto s2 = wavehpc::pic::serial_pic_step(particles, rho, phi, cfg);
    EXPECT_NEAR(s1.total_charge, s2.total_charge, 1e-8);
    EXPECT_GT(s1.used_dt, 0.0);
}

// ----------------------------------------------------------- cost model

TEST(PicCostModelTest, ReproducesPublishedSerialTables) {
    // Two-point fits; the third published point is a prediction check.
    const auto p32 = PicCostModel::paragon(32);
    EXPECT_NEAR(p32.seconds(262144), 13.35, 1e-9);
    EXPECT_NEAR(p32.seconds(524288), 24.41, 1e-9);
    EXPECT_NEAR(p32.seconds(1048576), 45.93, 0.05 * 45.93);  // paper extrapolation

    const auto p64 = PicCostModel::paragon(64);
    EXPECT_NEAR(p64.seconds(262144), 21.92, 1e-9);
    EXPECT_NEAR(p64.seconds(1048576), 58.31, 0.05 * 58.31);

    const auto t32 = PicCostModel::t3d(32);
    EXPECT_NEAR(t32.seconds(1048576), 18.34, 0.05 * 18.34);
    const auto t64 = PicCostModel::t3d(64);
    EXPECT_NEAR(t64.seconds(1048576), 29.49, 0.05 * 29.49);

    EXPECT_THROW((void)PicCostModel::paragon(48), std::invalid_argument);
}

TEST(PicCostModelTest, PagingModelMatchesTheRealUniprocessorRuns) {
    const auto p32 = PicCostModel::paragon(32);
    EXPECT_DOUBLE_EQ(p32.paging_factor(262144), 1.0);  // fits in 32 MB
    // Paper: 1M particles measured 249.20 s vs 45.93 s extrapolated.
    EXPECT_NEAR(p32.seconds_paged(1048576), 249.20, 0.2 * 249.20);
    const auto p64 = PicCostModel::paragon(64);
    EXPECT_NEAR(p64.seconds_paged(1048576), 820.41, 0.2 * 820.41);
}

// -------------------------------------------------------------- parallel

PicCostModel tiny_model(std::size_t grid_n) {
    PicCostModel m;
    m.machine = "test";
    m.grid_n = grid_n;
    m.per_particle = 1e-5;
    m.per_step_grid = 0.5;
    return m;
}

struct PicCase {
    std::size_t nprocs;
    wavehpc::pic::GsumKind gsum;
};

void PrintTo(const PicCase& c, std::ostream* os) {
    *os << 'P' << c.nprocs << '_' << (c.gsum == wavehpc::pic::GsumKind::Prefix ? "Prefix" : "Gssum");
}

class ParallelPic : public ::testing::TestWithParam<PicCase> {};

TEST_P(ParallelPic, MatchesSerialWithinReductionTolerance) {
    const auto [nprocs, gsum] = GetParam();
    constexpr std::size_t kGrid = 16;
    const auto initial = wavehpc::pic::uniform_plasma(3000, kGrid);

    auto serial = initial;
    Grid3 rho;
    Grid3 phi;
    PicConfig pc;
    pc.grid_n = kGrid;
    double serial_dt = 0.0;
    for (int s = 0; s < 2; ++s) {
        serial_dt = wavehpc::pic::serial_pic_step(serial, rho, phi, pc).used_dt;
    }

    wavehpc::mesh::Machine machine(wavehpc::mesh::MachineProfile::paragon_nx());
    wavehpc::pic::ParallelPicConfig cfg;
    cfg.pic = pc;
    cfg.steps = 2;
    cfg.gsum = gsum;
    const auto res =
        wavehpc::pic::parallel_pic(machine, initial, cfg, nprocs, tiny_model(kGrid));

    ASSERT_EQ(res.particles.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); i += 13) {
        EXPECT_NEAR(res.particles[i].x, serial[i].x, 1e-8) << i;
        EXPECT_NEAR(res.particles[i].y, serial[i].y, 1e-8) << i;
        EXPECT_NEAR(res.particles[i].vz, serial[i].vz, 1e-8) << i;
    }
    EXPECT_NEAR(res.last_used_dt, serial_dt, 1e-10);
    for (std::size_t i = 0; i < res.phi.size(); i += 31) {
        EXPECT_NEAR(res.phi.flat()[i], phi.flat()[i], 1e-9);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, ParallelPic,
    ::testing::Values(PicCase{1, wavehpc::pic::GsumKind::Prefix},
                      PicCase{2, wavehpc::pic::GsumKind::Prefix},
                      PicCase{4, wavehpc::pic::GsumKind::Prefix},
                      PicCase{8, wavehpc::pic::GsumKind::Prefix},
                      PicCase{2, wavehpc::pic::GsumKind::Gssum},
                      PicCase{8, wavehpc::pic::GsumKind::Gssum}));

TEST(ParallelPicTiming, PrefixGsumBeatsGssumAtScale) {
    constexpr std::size_t kGrid = 16;
    const auto initial = wavehpc::pic::uniform_plasma(2000, kGrid);
    const auto time_with = [&](wavehpc::pic::GsumKind g) {
        wavehpc::mesh::Machine machine(wavehpc::mesh::MachineProfile::paragon_nx());
        wavehpc::pic::ParallelPicConfig cfg;
        cfg.pic.grid_n = kGrid;
        cfg.gsum = g;
        return wavehpc::pic::parallel_pic(machine, initial, cfg, 16, tiny_model(kGrid))
            .seconds;
    };
    EXPECT_LT(time_with(wavehpc::pic::GsumKind::Prefix),
              time_with(wavehpc::pic::GsumKind::Gssum));
}

TEST(ParallelPicValidation, RejectsBadConfigurations) {
    const auto initial = wavehpc::pic::uniform_plasma(100, 16);
    wavehpc::mesh::Machine machine(wavehpc::mesh::MachineProfile::paragon_nx());
    wavehpc::pic::ParallelPicConfig cfg;
    cfg.pic.grid_n = 16;
    EXPECT_THROW((void)wavehpc::pic::parallel_pic(machine, initial, cfg, 3,
                                                  tiny_model(16)),
                 std::invalid_argument);  // non power of two
    EXPECT_THROW((void)wavehpc::pic::parallel_pic(machine, initial, cfg, 2,
                                                  tiny_model(32)),
                 std::invalid_argument);  // model/grid mismatch
}

}  // namespace
