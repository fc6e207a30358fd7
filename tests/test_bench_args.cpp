// Shared bench flag parsing (bench/common_args.hpp). The overflow cases
// are the regression net for the silent-wrap bug: a --seed past 2^64 used
// to wrap modulo 2^64 and run the bench with a garbage seed instead of
// failing the flag parse. Flag numbers follow the one number rule, whose
// row-by-row table lives in test_knobs (NumberRule).

#include "common_args.hpp"

#include <gtest/gtest.h>

#include <array>
#include <string>
#include <vector>

namespace {

using wavehpc::bench::CommonArgs;
using wavehpc::bench::Consume;

bool parse(std::vector<std::string> argv_strings, CommonArgs& args,
           const wavehpc::bench::ExtraFlag& extra = {}) {
    std::vector<std::string> storage = std::move(argv_strings);
    storage.insert(storage.begin(), "bench_under_test");
    std::vector<char*> argv;
    argv.reserve(storage.size());
    for (auto& s : storage) argv.push_back(s.data());
    return wavehpc::bench::parse_bench_args(static_cast<int>(argv.size()),
                                            argv.data(), args, extra);
}

TEST(ParseBenchArgs, OverflowingSeedFailsTheParse) {
    CommonArgs args;
    EXPECT_FALSE(parse({"--seed", "18446744073709551616"}, args));
    EXPECT_FALSE(parse({"--seed=99999999999999999999"}, args));
    EXPECT_EQ(args.seed, 0U);  // never clobbered by a rejected value
}

TEST(ParseBenchArgs, CommonFlagsBothSpellings) {
    CommonArgs args;
    ASSERT_TRUE(parse({"--smoke", "--seed", "41", "--size=256"}, args));
    EXPECT_TRUE(args.smoke);
    EXPECT_EQ(args.seed, 41U);
    EXPECT_EQ(args.size, 256U);
}

TEST(ParseBenchArgs, MaxSeedStillAccepted) {
    CommonArgs args;
    ASSERT_TRUE(parse({"--seed", "18446744073709551615"}, args));
    EXPECT_EQ(args.seed, ~std::uint64_t{0});
}

TEST(ParseBenchArgs, UnknownFlagFailsUnlessExtraHookClaimsIt) {
    CommonArgs args;
    EXPECT_FALSE(parse({"--kernel", "lifting"}, args));

    std::string seen_flag, seen_value;
    const auto extra = [&](std::string_view flag, std::string_view value) {
        seen_flag = std::string(flag);
        seen_value = std::string(value);
        return flag == "--kernel" ? Consume::kFlagAndValue : Consume::kNo;
    };
    ASSERT_TRUE(parse({"--kernel", "lifting", "--smoke"}, args, extra));
    EXPECT_EQ(seen_flag, "--kernel");
    EXPECT_EQ(seen_value, "lifting");
    EXPECT_TRUE(args.smoke);  // parsing continued past the consumed value
}

// A bench flag the hook claims but whose number breaks the rule is a bad
// value, reported like --seed's, never an unknown flag.
TEST(ParseBenchArgs, HookRejectingItsValueFailsAsABadValue) {
    std::uint64_t requests = 7;
    const auto extra = [&](std::string_view flag, std::string_view value) {
        if (flag == "--requests") return wavehpc::bench::take_unsigned(value, requests);
        return Consume::kNo;
    };
    const std::vector<std::vector<std::string>> bad{
        {"--requests=+5"}, {"--requests", "0x10"}, {"--requests"}};
    for (const auto& argv : bad) {
        CommonArgs args;
        testing::internal::CaptureStderr();
        EXPECT_FALSE(parse(argv, args, extra)) << argv[0];
        const std::string err = testing::internal::GetCapturedStderr();
        EXPECT_NE(err.find("--requests needs an unsigned integer value"), std::string::npos)
            << err;
        EXPECT_EQ(err.find("unknown flag"), std::string::npos) << err;
    }
    EXPECT_EQ(requests, 7U);  // never clobbered by a rejected value

    CommonArgs args;
    ASSERT_TRUE(parse({"--requests=12", "--smoke"}, args, extra));
    EXPECT_EQ(requests, 12U);
}

}  // namespace
