// util::parse_number, the command-line number parser: a value counts only
// when the whole token is one base-10 number inside [lo, hi].
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <optional>
#include <string_view>

#include "exp/thread_pool.hpp"
#include "util/parse_number.hpp"
#include "util/process_set.hpp"

namespace nucon {
namespace {

/// parse_number's verdict as a value, for compact expectations.
template <typename T>
std::optional<T> parsed(std::string_view text, T lo,
                        T hi = std::numeric_limits<T>::max()) {
  T out{};
  if (!util::parse_number(text, out, lo, hi)) return std::nullopt;
  return out;
}

TEST(ParseNumber, TheWholeTokenMustBeTheNumber) {
  EXPECT_EQ(parsed("5", 0, 10), 5);
  EXPECT_EQ(parsed("-3", -5, 5), -3);
  for (const std::string_view bad : {"5x", "abc", "", " 5", "5 ", "+5", "0x5"}) {
    EXPECT_EQ(parsed(bad, 0, 10), std::nullopt) << bad;
  }
}

TEST(ParseNumber, ARefusalLeavesTheTargetAlone) {
  int out = 7;
  EXPECT_FALSE(util::parse_number("5x", out, 0, 10));
  EXPECT_FALSE(util::parse_number("11", out, 0, 10));
  EXPECT_EQ(out, 7);
  EXPECT_TRUE(util::parse_number("10", out, 0, 10));
  EXPECT_EQ(out, 10);
}

TEST(ParseNumber, TheRangeIsInclusive) {
  EXPECT_EQ(parsed("2", Pid{2}, kMaxProcesses), 2);
  EXPECT_EQ(parsed("1024", Pid{2}, kMaxProcesses), kMaxProcesses);
  EXPECT_EQ(parsed("1", Pid{2}, kMaxProcesses), std::nullopt);
  EXPECT_EQ(parsed("1025", Pid{2}, kMaxProcesses), std::nullopt);
}

TEST(ParseNumber, NegativeAndOverCapThreadCountsAreRefused) {
  // nucon_fuzz reads --threads as unsigned, where a cast "-1" is
  // 4294967295 workers; nucon_explore reads it as int, from 1.
  for (const std::string_view bad : {"-1", "257", "4294967295", "1e3"}) {
    EXPECT_EQ(parsed(bad, 0u, exp::kMaxThreads), std::nullopt) << bad;
  }
  EXPECT_EQ(parsed("256", 0u, exp::kMaxThreads), 256u);
  EXPECT_EQ(parsed("0", 0u, exp::kMaxThreads), 0u);
  const int cap = static_cast<int>(exp::kMaxThreads);
  for (const std::string_view bad : {"-1", "0", "257"}) {
    EXPECT_EQ(parsed(bad, 1, cap), std::nullopt) << bad;
  }
}

TEST(ParseNumber, OverflowIsRefusedNotWrapped) {
  constexpr auto kMax = std::numeric_limits<std::uint64_t>::max();
  EXPECT_EQ(parsed("18446744073709551615", std::uint64_t{0}), kMax);
  EXPECT_EQ(parsed("18446744073709551616", std::uint64_t{0}), std::nullopt);
  EXPECT_EQ(parsed("-1", std::uint64_t{0}), std::nullopt);
  EXPECT_EQ(parsed("99999999999", 1, 1'000'000), std::nullopt);
}

TEST(ParseNumber, FloatingPointRefusesNanAndInfinity) {
  EXPECT_EQ(parsed("2.5", 0.0), 2.5);
  EXPECT_EQ(parsed("10", 0.0), 10.0);
  for (const std::string_view bad : {"-0.5", "nan", "inf", "1.5s"}) {
    EXPECT_EQ(parsed(bad, 0.0), std::nullopt) << bad;
  }
}

}  // namespace
}  // namespace nucon
