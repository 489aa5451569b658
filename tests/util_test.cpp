// Tests for src/util: RNG determinism and distribution sanity, statistics
// (Welford accumulator, fairness indices, percentiles, CDFs), CSV/table
// formatting, strict flag parsing and the structured logger.
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <set>
#include <sstream>
#include <chrono>
#include <thread>
#include <vector>

#include "util/csv.hpp"
#include "util/error.hpp"
#include "util/flags.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace amf::util {
namespace {

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a() == b());
  EXPECT_LT(same, 4);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, UniformRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    double u = rng.uniform(-3.0, 5.0);
    ASSERT_GE(u, -3.0);
    ASSERT_LT(u, 5.0);
  }
}

TEST(Rng, UniformIndexCoversRange) {
  Rng rng(9);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    auto v = rng.uniform_index(5);
    ASSERT_LT(v, 5u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, UniformIndexRejectsZero) {
  Rng rng(1);
  EXPECT_THROW(rng.uniform_index(0), ContractError);
}

TEST(Rng, UniformIntInclusiveBounds) {
  Rng rng(11);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    auto v = rng.uniform_int(-2, 2);
    ASSERT_GE(v, -2);
    ASSERT_LE(v, 2);
    saw_lo |= (v == -2);
    saw_hi |= (v == 2);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, ExponentialMean) {
  Rng rng(13);
  double sum = 0.0;
  for (int i = 0; i < 20000; ++i) sum += rng.exponential(2.0);
  EXPECT_NEAR(sum / 20000.0, 0.5, 0.02);
}

TEST(Rng, NormalMoments) {
  Rng rng(17);
  Accumulator acc;
  for (int i = 0; i < 20000; ++i) acc.add(rng.normal(3.0, 2.0));
  EXPECT_NEAR(acc.mean(), 3.0, 0.1);
  EXPECT_NEAR(acc.stddev(), 2.0, 0.1);
}

TEST(Rng, LognormalPositive) {
  Rng rng(19);
  for (int i = 0; i < 1000; ++i) EXPECT_GT(rng.lognormal(0.0, 1.0), 0.0);
}

TEST(Rng, ParetoAboveScale) {
  Rng rng(23);
  for (int i = 0; i < 1000; ++i) EXPECT_GE(rng.pareto(2.0, 1.5), 2.0);
}

TEST(Rng, GammaMeanMatchesShape) {
  Rng rng(29);
  for (double shape : {0.5, 1.0, 3.0, 9.0}) {
    double sum = 0.0;
    const int trials = 20000;
    for (int i = 0; i < trials; ++i) sum += rng.gamma(shape);
    EXPECT_NEAR(sum / trials, shape, 0.06 * shape + 0.03) << "shape " << shape;
  }
}

TEST(Rng, DirichletSumsToOne) {
  Rng rng(31);
  for (double alpha : {0.1, 1.0, 10.0}) {
    auto x = rng.dirichlet(6, alpha);
    EXPECT_EQ(x.size(), 6u);
    double sum = std::accumulate(x.begin(), x.end(), 0.0);
    EXPECT_NEAR(sum, 1.0, 1e-12);
    for (double xi : x) EXPECT_GE(xi, 0.0);
  }
}

TEST(Rng, DirichletSmallAlphaIsSkewed) {
  Rng rng(37);
  // With alpha = 0.05 the largest coordinate should dominate on average.
  double max_share = 0.0;
  const int trials = 200;
  for (int i = 0; i < trials; ++i) {
    auto x = rng.dirichlet(4, 0.05);
    max_share += *std::max_element(x.begin(), x.end());
  }
  EXPECT_GT(max_share / trials, 0.9);
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng a(41);
  Rng child = a.split();
  // Parent and child should not generate identical sequences.
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a() == child());
  EXPECT_LT(same, 4);
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(43);
  std::vector<int> v(50);
  std::iota(v.begin(), v.end(), 0);
  auto orig = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(ZipfSampler, ZeroExponentIsUniform) {
  ZipfSampler z(4, 0.0);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_NEAR(z.pmf(i), 0.25, 1e-12);
}

TEST(ZipfSampler, PmfDecreasesWithRank) {
  ZipfSampler z(10, 1.2);
  for (std::size_t i = 0; i + 1 < 10; ++i) EXPECT_GT(z.pmf(i), z.pmf(i + 1));
}

TEST(ZipfSampler, EmpiricalMatchesPmf) {
  Rng rng(47);
  ZipfSampler z(5, 1.0);
  std::vector<int> counts(5, 0);
  const int trials = 50000;
  for (int i = 0; i < trials; ++i) ++counts[z(rng)];
  for (std::size_t i = 0; i < 5; ++i)
    EXPECT_NEAR(static_cast<double>(counts[i]) / trials, z.pmf(i), 0.01);
}

TEST(ZipfSampler, PmfSumsToOne) {
  ZipfSampler z(17, 0.8);
  double sum = 0.0;
  for (std::size_t i = 0; i < z.size(); ++i) sum += z.pmf(i);
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(Accumulator, BasicMoments) {
  Accumulator acc;
  for (double v : {1.0, 2.0, 3.0, 4.0}) acc.add(v);
  EXPECT_EQ(acc.count(), 4u);
  EXPECT_DOUBLE_EQ(acc.mean(), 2.5);
  EXPECT_NEAR(acc.variance(), 5.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(acc.min(), 1.0);
  EXPECT_DOUBLE_EQ(acc.max(), 4.0);
}

TEST(Accumulator, MergeMatchesSequential) {
  Rng rng(53);
  Accumulator whole, left, right;
  for (int i = 0; i < 1000; ++i) {
    double v = rng.normal();
    whole.add(v);
    (i % 2 ? left : right).add(v);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), whole.count());
  EXPECT_NEAR(left.mean(), whole.mean(), 1e-10);
  EXPECT_NEAR(left.variance(), whole.variance(), 1e-8);
  EXPECT_DOUBLE_EQ(left.min(), whole.min());
  EXPECT_DOUBLE_EQ(left.max(), whole.max());
}

TEST(Accumulator, EmptyIsZero) {
  Accumulator acc;
  EXPECT_EQ(acc.count(), 0u);
  EXPECT_EQ(acc.mean(), 0.0);
  EXPECT_EQ(acc.variance(), 0.0);
}

TEST(Stats, JainIndexEqualIsOne) {
  std::vector<double> x{5.0, 5.0, 5.0};
  EXPECT_DOUBLE_EQ(jain_index(x), 1.0);
}

TEST(Stats, JainIndexSingleWinner) {
  // One job with everything among n: index = 1/n.
  std::vector<double> x{10.0, 0.0, 0.0, 0.0};
  EXPECT_NEAR(jain_index(x), 0.25, 1e-12);
}

TEST(Stats, JainIndexEdgeCases) {
  EXPECT_DOUBLE_EQ(jain_index({}), 1.0);
  std::vector<double> zeros{0.0, 0.0};
  EXPECT_DOUBLE_EQ(jain_index(zeros), 1.0);
}

TEST(Stats, MinMaxRatio) {
  std::vector<double> x{2.0, 4.0, 8.0};
  EXPECT_DOUBLE_EQ(min_max_ratio(x), 0.25);
  std::vector<double> starved{0.0, 4.0};
  EXPECT_DOUBLE_EQ(min_max_ratio(starved), 0.0);
  std::vector<double> zeros{0.0, 0.0};
  EXPECT_DOUBLE_EQ(min_max_ratio(zeros), 1.0);
}

TEST(Stats, CoefficientOfVariation) {
  std::vector<double> equal{3.0, 3.0, 3.0};
  EXPECT_DOUBLE_EQ(coefficient_of_variation(equal), 0.0);
  std::vector<double> x{1.0, 3.0};
  // population stddev = 1, mean = 2.
  EXPECT_NEAR(coefficient_of_variation(x), 0.5, 1e-12);
}

TEST(Stats, PercentileInterpolates) {
  std::vector<double> x{4.0, 1.0, 3.0, 2.0};  // unsorted on purpose
  EXPECT_DOUBLE_EQ(percentile(x, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(x, 100.0), 4.0);
  EXPECT_DOUBLE_EQ(percentile(x, 50.0), 2.5);
}

TEST(Stats, PercentileContract) {
  std::vector<double> empty;
  EXPECT_THROW(percentile(empty, 50.0), ContractError);
  std::vector<double> one{1.0};
  EXPECT_THROW(percentile(one, 101.0), ContractError);
}

TEST(Stats, EmpiricalCdf) {
  std::vector<double> x{1.0, 1.0, 2.0, 4.0};
  auto cdf = empirical_cdf(x);
  ASSERT_EQ(cdf.size(), 3u);
  EXPECT_DOUBLE_EQ(cdf[0].first, 1.0);
  EXPECT_DOUBLE_EQ(cdf[0].second, 0.5);
  EXPECT_DOUBLE_EQ(cdf[1].second, 0.75);
  EXPECT_DOUBLE_EQ(cdf[2].second, 1.0);
}

TEST(Stats, GiniKnownValues) {
  std::vector<double> equal{2.0, 2.0, 2.0, 2.0};
  EXPECT_NEAR(gini(equal), 0.0, 1e-12);
  std::vector<double> winner{0.0, 0.0, 0.0, 8.0};
  EXPECT_NEAR(gini(winner), 0.75, 1e-12);  // (n-1)/n for a single winner
}

TEST(Stats, HistogramClampsOutliers) {
  std::vector<double> x{-5.0, 0.5, 1.5, 99.0};
  auto h = histogram(x, 0.0, 2.0, 2);
  ASSERT_EQ(h.size(), 2u);
  EXPECT_EQ(h[0], 2u);  // -5 clamped into first bucket, 0.5 in range
  EXPECT_EQ(h[1], 2u);  // 1.5 in range, 99 clamped into last
}

TEST(Flags, ParseNumberTakesWholeOperandInRange) {
  int port = -1;
  EXPECT_TRUE(parse_number("8080", &port, 0, 65535));
  EXPECT_EQ(port, 8080);
  for (const char* bad : {"", "foo", "80x", " 80", "+80", "70000", "-1"})
    EXPECT_FALSE(parse_number(bad, &port, 0, 65535)) << '"' << bad << '"';
  EXPECT_EQ(port, 8080);  // rejected operands leave the target untouched

  std::size_t count = 7;
  EXPECT_FALSE(parse_number("-1", &count));  // never wraps to SIZE_MAX
  EXPECT_FALSE(parse_number("99999999999999999999999", &count));
  EXPECT_TRUE(parse_number("0", &count));
  EXPECT_EQ(count, 0u);

  double ms = 1.0;
  EXPECT_TRUE(parse_number("2.5", &ms, 0.0));
  EXPECT_EQ(ms, 2.5);
  for (const char* bad : {"nan", "inf", "-0.5", "1e400", "2.5ms"})
    EXPECT_FALSE(parse_number(bad, &ms, 0.0)) << '"' << bad << '"';
  EXPECT_EQ(ms, 2.5);
}

TEST(Csv, EscapesSpecials) {
  EXPECT_EQ(CsvWriter::escape("plain"), "plain");
  EXPECT_EQ(CsvWriter::escape("a,b"), "\"a,b\"");
  EXPECT_EQ(CsvWriter::escape("say \"hi\""), "\"say \"\"hi\"\"\"");
}

TEST(Csv, WritesRows) {
  std::ostringstream os;
  CsvWriter csv(os, {"x", "y"});
  csv.row({"1", "2"});
  csv.row_numeric({0.5, 1.25});
  EXPECT_EQ(os.str(), "x,y\n1,2\n0.5,1.25\n");
}

TEST(Csv, RejectsWidthMismatch) {
  std::ostringstream os;
  CsvWriter csv(os, {"x", "y"});
  EXPECT_THROW(csv.row({"only-one"}), ContractError);
}

TEST(Csv, FormatsSpecialDoubles) {
  EXPECT_EQ(CsvWriter::format(std::nan("")), "nan");
  EXPECT_EQ(CsvWriter::format(INFINITY), "inf");
  EXPECT_EQ(CsvWriter::format(-INFINITY), "-inf");
  EXPECT_EQ(CsvWriter::format(2.0), "2");
}

TEST(Table, AlignsColumns) {
  Table t({"name", "value"});
  t.row({"a", "1"});
  t.row_numeric("longer", {2.5});
  std::ostringstream os;
  t.print(os);
  auto text = os.str();
  EXPECT_NE(text.find("name"), std::string::npos);
  EXPECT_NE(text.find("longer"), std::string::npos);
  EXPECT_NE(text.find("2.5"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(Log, ParseLevelRoundTrip) {
  EXPECT_EQ(parse_log_level("debug"), LogLevel::kDebug);
  EXPECT_EQ(parse_log_level("info"), LogLevel::kInfo);
  EXPECT_EQ(parse_log_level("warn"), LogLevel::kWarn);
  EXPECT_EQ(parse_log_level("error"), LogLevel::kError);
  EXPECT_EQ(parse_log_level("off"), LogLevel::kOff);
  EXPECT_THROW(parse_log_level("verbose"), ContractError);
  EXPECT_STREQ(to_string(LogLevel::kWarn), "warn");
}

TEST(Log, LineIsOneJsonObjectWithTypedFields) {
  Logger logger;
  std::vector<std::string> lines;
  logger.set_sink([&lines](std::string_view line) {
    lines.emplace_back(line);
  });
  logger.info("test.event")
      .str("name", "cli")
      .num("sites", 6)
      .num("ratio", 0.5)
      .boolean("ok", true)
      .trace(42);
  ASSERT_EQ(lines.size(), 1u);
  const std::string& line = lines[0];
  EXPECT_EQ(line.rfind("{\"ts\":", 0), 0u);  // starts with the timestamp
  EXPECT_EQ(line.substr(line.size() - 2), "}\n");
  EXPECT_NE(line.find("\"level\":\"info\""), std::string::npos);
  EXPECT_NE(line.find("\"event\":\"test.event\""), std::string::npos);
  EXPECT_NE(line.find("\"name\":\"cli\""), std::string::npos);
  EXPECT_NE(line.find("\"sites\":6"), std::string::npos);
  EXPECT_NE(line.find("\"ratio\":0.5"), std::string::npos);
  EXPECT_NE(line.find("\"ok\":true"), std::string::npos);
  EXPECT_NE(line.find("\"trace\":42"), std::string::npos);
}

TEST(Log, LevelGateSuppressesBelowThreshold) {
  Logger logger;
  int emitted = 0;
  logger.set_sink([&emitted](std::string_view) { ++emitted; });
  logger.set_level(LogLevel::kWarn);
  EXPECT_FALSE(logger.enabled(LogLevel::kInfo));
  EXPECT_TRUE(logger.enabled(LogLevel::kError));
  logger.debug("a");
  logger.info("b");
  logger.warn("c");
  logger.error("d");
  EXPECT_EQ(emitted, 2);
  logger.set_level(LogLevel::kOff);
  logger.error("e");
  EXPECT_EQ(emitted, 2);
}

TEST(Log, StringValuesAreEscaped) {
  Logger logger;
  std::string captured;
  logger.set_sink([&captured](std::string_view line) {
    captured.assign(line);
  });
  logger.info("esc").str("k", "a\"b\\c\nd");
  EXPECT_NE(captured.find("\"k\":\"a\\\"b\\\\c\\nd\""), std::string::npos);
}

TEST(Log, ZeroTraceIdIsNotStamped) {
  Logger logger;
  std::string captured;
  logger.set_sink([&captured](std::string_view line) {
    captured.assign(line);
  });
  logger.info("evt").trace(0);
  EXPECT_EQ(captured.find("trace"), std::string::npos);
}

TEST(Log, RateLimitSuppressesAndReportsOnRecovery) {
  Logger logger;
  std::vector<std::string> lines;
  logger.set_sink([&lines](std::string_view line) {
    lines.emplace_back(line);
  });
  // Burst of 2, refilling at 1000/s: the first two lines pass, the rest
  // of the tight loop is suppressed (the refill within a few micro-
  // seconds is < 1 token).
  logger.set_rate_limit(1000.0, 2.0);
  for (int i = 0; i < 50; ++i) logger.info("hot.event");
  EXPECT_GE(lines.size(), 2u);
  EXPECT_LT(lines.size(), 50u);
  EXPECT_EQ(logger.emitted(), lines.size());
  EXPECT_EQ(logger.suppressed() + logger.emitted(), 50u);
  // Other event names have their own bucket.
  logger.info("cold.event");
  EXPECT_EQ(lines.back().find("hot.event"), std::string::npos);
  // After the bucket refills, the next hot line reports what was lost.
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  const std::size_t before = lines.size();
  logger.info("hot.event");
  ASSERT_GT(lines.size(), before);
  EXPECT_NE(lines.back().find("\"suppressed\":"), std::string::npos);
}

}  // namespace
}  // namespace amf::util
