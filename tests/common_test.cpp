// Tests for rejuv::common: RNG determinism and stream independence, table
// rendering, flag parsing, and the contract-check macros.
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <sstream>

#include "common/expect.h"
#include "common/flags.h"
#include "common/rng.h"
#include "common/table.h"

namespace rejuv::common {
namespace {

// ---------------------------------------------------------------- RNG

TEST(SplitMix64, IsDeterministic) {
  SplitMix64 a(12345);
  SplitMix64 b(12345);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(SplitMix64, DifferentSeedsDiverge) {
  SplitMix64 a(1);
  SplitMix64 b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += (a.next() == b.next()) ? 1 : 0;
  EXPECT_EQ(equal, 0);
}

TEST(Xoshiro256pp, ReproducibleFromSeed) {
  Xoshiro256pp a(42);
  Xoshiro256pp b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(Xoshiro256pp, JumpDecorrelatesSequences) {
  Xoshiro256pp a(42);
  Xoshiro256pp b(42);
  b.jump();
  int equal = 0;
  for (int i = 0; i < 1000; ++i) equal += (a() == b()) ? 1 : 0;
  EXPECT_EQ(equal, 0);
}

TEST(RngStream, SameSeedAndIdReproduce) {
  RngStream a(7, 3);
  RngStream b(7, 3);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(RngStream, DistinctIdsGiveDistinctStreams) {
  RngStream a(7, 0);
  RngStream b(7, 1);
  int equal = 0;
  for (int i = 0; i < 1000; ++i) equal += (a() == b()) ? 1 : 0;
  EXPECT_LE(equal, 1);
}

TEST(RngStream, Uniform01StaysInHalfOpenUnitInterval) {
  RngStream rng(11, 0);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform01();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngStream, Uniform01OpenBelowNeverReturnsZero) {
  RngStream rng(11, 1);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_GT(rng.uniform01_open_below(), 0.0);
    EXPECT_LE(rng.uniform01_open_below(), 1.0);
  }
}

TEST(RngStream, Uniform01MomentsMatchUniformDistribution) {
  RngStream rng(13, 0);
  double sum = 0.0;
  double sum_sq = 0.0;
  constexpr int kSamples = 200000;
  for (int i = 0; i < kSamples; ++i) {
    const double u = rng.uniform01();
    sum += u;
    sum_sq += u * u;
  }
  const double mean = sum / kSamples;
  const double var = sum_sq / kSamples - mean * mean;
  EXPECT_NEAR(mean, 0.5, 0.005);
  EXPECT_NEAR(var, 1.0 / 12.0, 0.005);
}

class RngStreamIndependence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RngStreamIndependence, CrossStreamCorrelationIsSmall) {
  RngStream a(99, 0);
  RngStream b(99, GetParam());
  constexpr int kSamples = 50000;
  double sum_ab = 0.0, sum_a = 0.0, sum_b = 0.0, sum_a2 = 0.0, sum_b2 = 0.0;
  for (int i = 0; i < kSamples; ++i) {
    const double x = a.uniform01();
    const double y = b.uniform01();
    sum_ab += x * y;
    sum_a += x;
    sum_b += y;
    sum_a2 += x * x;
    sum_b2 += y * y;
  }
  const double n = kSamples;
  const double cov = sum_ab / n - (sum_a / n) * (sum_b / n);
  const double var_a = sum_a2 / n - (sum_a / n) * (sum_a / n);
  const double var_b = sum_b2 / n - (sum_b / n) * (sum_b / n);
  EXPECT_LT(std::abs(cov / std::sqrt(var_a * var_b)), 0.02);
}

INSTANTIATE_TEST_SUITE_P(VariousStreamIds, RngStreamIndependence,
                         ::testing::Values(1, 2, 17, 1000, 1u << 20));

// ---------------------------------------------------------------- Table

TEST(Table, RendersAlignedText) {
  Table table({"a", "bb"});
  table.add_row({"1", "2"});
  table.add_row({"333", "4"});
  const std::string text = table.to_text();
  EXPECT_NE(text.find("a    bb"), std::string::npos);
  EXPECT_NE(text.find("333  4"), std::string::npos);
}

TEST(Table, PadsShortRows) {
  Table table({"a", "b", "c"});
  table.add_row({"1"});
  EXPECT_EQ(table.row_count(), 1u);
  EXPECT_NE(table.to_csv().find("1,,"), std::string::npos);
}

TEST(Table, RejectsTooWideRow) {
  Table table({"a"});
  EXPECT_THROW(table.add_row({"1", "2"}), std::invalid_argument);
}

TEST(Table, RejectsEmptyHeader) { EXPECT_THROW(Table({}), std::invalid_argument); }

TEST(Table, CsvEscapesCommasAndQuotes) {
  Table table({"x"});
  table.add_row({"a,b"});
  table.add_row({"say \"hi\""});
  const std::string csv = table.to_csv();
  EXPECT_NE(csv.find("\"a,b\""), std::string::npos);
  EXPECT_NE(csv.find("\"say \"\"hi\"\"\""), std::string::npos);
}

TEST(Table, PrintTableEmitsTitleAndCsvBlock) {
  Table table({"x"});
  table.add_row({"1"});
  std::ostringstream os;
  print_table(os, "demo", table);
  EXPECT_NE(os.str().find("== demo =="), std::string::npos);
  EXPECT_NE(os.str().find("# csv"), std::string::npos);
}

TEST(FormatDouble, RoundsToRequestedDigits) {
  EXPECT_EQ(format_double(3.14159, 2), "3.14");
  EXPECT_EQ(format_double(3.145, 0), "3");
  EXPECT_THROW(format_double(1.0, -1), std::invalid_argument);
}

// ---------------------------------------------------------------- Flags

TEST(Flags, ParsesKeyValueAndSwitches) {
  const char* argv[] = {"prog", "--txns=500", "--verbose", "--rate=2.5"};
  const Flags flags = Flags::parse(4, argv);
  EXPECT_TRUE(flags.has("verbose"));
  EXPECT_FALSE(flags.has("missing"));
  EXPECT_EQ(flags.get_int("txns", 0), 500);
  EXPECT_DOUBLE_EQ(flags.get_double("rate", 0.0), 2.5);
}

TEST(Flags, FallbacksApplyWhenAbsent) {
  const char* argv[] = {"prog"};
  const Flags flags = Flags::parse(1, argv);
  EXPECT_EQ(flags.get_int("n", 42), 42);
  EXPECT_DOUBLE_EQ(flags.get_double("x", 1.5), 1.5);
}

TEST(Flags, ParsesDoubleLists) {
  const char* argv[] = {"prog", "--loads=0.5,1,9.5"};
  const Flags flags = Flags::parse(2, argv);
  const auto loads = flags.get_double_list("loads", {});
  ASSERT_EQ(loads.size(), 3u);
  EXPECT_DOUBLE_EQ(loads[0], 0.5);
  EXPECT_DOUBLE_EQ(loads[2], 9.5);
}

TEST(Flags, ListFallbackUsedWhenAbsent) {
  const char* argv[] = {"prog"};
  const Flags flags = Flags::parse(1, argv);
  const auto loads = flags.get_double_list("loads", {1.0, 2.0});
  ASSERT_EQ(loads.size(), 2u);
}

TEST(Flags, RejectsNonFlagArguments) {
  const char* argv[] = {"prog", "positional"};
  EXPECT_THROW(Flags::parse(2, argv), std::invalid_argument);
}

TEST(Flags, RejectsBareDoubleDash) {
  const char* argv[] = {"prog", "--"};
  EXPECT_THROW(Flags::parse(2, argv), std::invalid_argument);
}

TEST(Flags, ExpectOnlyNamesTheUnknownFlag) {
  const char* argv[] = {"prog", "--txns=500", "--algorithmm=clta"};
  const Flags flags = Flags::parse(3, argv);
  EXPECT_NO_THROW(flags.expect_only({"txns", "algorithmm"}));
  try {
    flags.expect_only({"txns", "algorithm"});
    FAIL() << "an unknown flag must throw";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("--algorithmm"), std::string::npos) << error.what();
  }
}

// ---------------------------------------------------------------- expect

TEST(Expect, PreconditionFailureThrowsInvalidArgument) {
  EXPECT_THROW(REJUV_EXPECT(1 == 2, "never true"), std::invalid_argument);
}

TEST(Expect, InvariantFailureThrowsLogicError) {
  EXPECT_THROW(REJUV_ASSERT(false, "broken"), std::logic_error);
}

TEST(Expect, PassingChecksAreSilent) {
  EXPECT_NO_THROW(REJUV_EXPECT(true, ""));
  EXPECT_NO_THROW(REJUV_ASSERT(true, ""));
}

}  // namespace
}  // namespace rejuv::common
