// Unit tests for src/util: RNG determinism and distribution sanity, thread
// pool correctness, CSV escaping, CLI parsing, table formatting.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <stdexcept>
#include <vector>

#include "util/cli.h"
#include "util/csv.h"
#include "util/rng.h"
#include "util/table.h"
#include "util/thread_pool.h"

namespace fitact::ut {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng r(7);
  for (int i = 0; i < 10000; ++i) {
    const double v = r.next_double();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, NextBelowIsUniformish) {
  Rng r(11);
  constexpr std::uint64_t n = 10;
  std::array<int, n> counts{};
  constexpr int draws = 100000;
  for (int i = 0; i < draws; ++i) ++counts[r.next_below(n)];
  for (const int c : counts) {
    EXPECT_NEAR(c, draws / static_cast<int>(n), draws / 50);
  }
}

TEST(Rng, NextIntRespectsBounds) {
  Rng r(13);
  for (int i = 0; i < 10000; ++i) {
    const auto v = r.next_int(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(Rng, NormalMomentsRoughlyStandard) {
  Rng r(17);
  double sum = 0.0;
  double sum2 = 0.0;
  constexpr int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double v = r.normal();
    sum += v;
    sum2 += v * v;
  }
  const double mean = sum / n;
  const double var = sum2 / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.02);
  EXPECT_NEAR(var, 1.0, 0.05);
}

TEST(Rng, BinomialSmallMeanMatchesExpectation) {
  Rng r(19);
  constexpr std::uint64_t n = 1000000;
  constexpr double p = 1e-5;  // mean 10
  double sum = 0.0;
  constexpr int draws = 2000;
  for (int i = 0; i < draws; ++i) {
    sum += static_cast<double>(r.binomial(n, p));
  }
  EXPECT_NEAR(sum / draws, 10.0, 0.6);
}

TEST(Rng, BinomialLargeMeanMatchesExpectation) {
  Rng r(23);
  constexpr std::uint64_t n = 1u << 20;
  constexpr double p = 0.25;  // mean 262144
  double sum = 0.0;
  constexpr int draws = 200;
  for (int i = 0; i < draws; ++i) {
    sum += static_cast<double>(r.binomial(n, p));
  }
  const double mean = static_cast<double>(n) * p;
  EXPECT_NEAR(sum / draws, mean, mean * 0.005);
}

TEST(Rng, BinomialEdgeCases) {
  Rng r(29);
  EXPECT_EQ(r.binomial(0, 0.5), 0u);
  EXPECT_EQ(r.binomial(100, 0.0), 0u);
  EXPECT_EQ(r.binomial(100, 1.0), 100u);
}

TEST(Rng, SampleDistinctProducesDistinctInRange) {
  Rng r(31);
  const auto s = r.sample_distinct(1000, 200);
  EXPECT_EQ(s.size(), 200u);
  std::set<std::uint64_t> uniq(s.begin(), s.end());
  EXPECT_EQ(uniq.size(), 200u);
  for (const auto v : s) EXPECT_LT(v, 1000u);
}

TEST(Rng, SampleDistinctFullRange) {
  Rng r(37);
  const auto s = r.sample_distinct(16, 16);
  std::set<std::uint64_t> uniq(s.begin(), s.end());
  EXPECT_EQ(uniq.size(), 16u);
}

TEST(Rng, SampleDistinctKGreaterThanNClamps) {
  Rng r(41);
  const auto s = r.sample_distinct(5, 50);
  EXPECT_EQ(s.size(), 5u);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng r(43);
  std::vector<std::size_t> v(100);
  for (std::size_t i = 0; i < v.size(); ++i) v[i] = i;
  r.shuffle(v);
  std::set<std::size_t> uniq(v.begin(), v.end());
  EXPECT_EQ(uniq.size(), 100u);
}

TEST(Rng, SplitStreamsAreIndependent) {
  Rng parent(47);
  Rng child = parent.split();
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (parent.next_u64() == child.next_u64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(ThreadPool, ParallelForCoversRangeExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(0, 1000, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) hits[i].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForEachCoversRange) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(777);
  pool.parallel_for_each(0, 777, 10,
                         [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, EmptyRangeIsNoop) {
  ThreadPool pool(2);
  bool called = false;
  pool.parallel_for(5, 5, [&](std::size_t, std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, NestedParallelForRunsInline) {
  ThreadPool pool(2);
  std::atomic<int> total{0};
  pool.parallel_for(0, 4, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) {
      // Nested call from a worker must not deadlock.
      pool.parallel_for(0, 10, [&](std::size_t nb, std::size_t ne) {
        total.fetch_add(static_cast<int>(ne - nb));
      });
    }
  });
  EXPECT_EQ(total.load(), 40);
}

TEST(Csv, EscapesSpecialCharacters) {
  EXPECT_EQ(csv_escape("plain"), "plain");
  EXPECT_EQ(csv_escape("a,b"), "\"a,b\"");
  EXPECT_EQ(csv_escape("q\"q"), "\"q\"\"q\"");
  EXPECT_EQ(csv_escape("line\nbreak"), "\"line\nbreak\"");
}

TEST(Csv, WritesHeaderAndRows) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "fitact_csv_test.csv").string();
  {
    CsvWriter w(path, {"a", "b"});
    w.row({"1", "x,y"});
    w.row_values({2.5, 3.0});
  }
  std::ifstream is(path);
  std::string line;
  std::getline(is, line);
  EXPECT_EQ(line, "a,b");
  std::getline(is, line);
  EXPECT_EQ(line, "1,\"x,y\"");
  std::getline(is, line);
  EXPECT_EQ(line, "2.5,3");
  std::filesystem::remove(path);
}

TEST(Csv, RowWidthMismatchThrows) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "fitact_csv_test2.csv")
          .string();
  CsvWriter w(path, {"a", "b"});
  EXPECT_THROW(w.row({"only one"}), std::invalid_argument);
  std::filesystem::remove(path);
}

TEST(Cli, ParsesForms) {
  // Note: a bare "--flag" binds a following non-option token as its value,
  // so boolean flags must come last or use the "--flag=true" form.
  const char* argv[] = {"prog",      "pos1", "--alpha", "3",
                        "--beta=x",  "--gamma", "2.5",  "--flag"};
  Cli cli(8, const_cast<char**>(argv));
  EXPECT_EQ(cli.get_int("alpha", 0), 3);
  EXPECT_EQ(cli.get("beta", ""), "x");
  EXPECT_TRUE(cli.get_flag("flag"));
  EXPECT_FALSE(cli.get_flag("missing"));
  EXPECT_DOUBLE_EQ(cli.get_double("gamma", 0.0), 2.5);
  ASSERT_EQ(cli.positional().size(), 1u);
  EXPECT_EQ(cli.positional()[0], "pos1");
}

TEST(Cli, FlagEqualsFormDisambiguates) {
  const char* argv[] = {"prog", "--flag=true", "positional"};
  Cli cli(3, const_cast<char**>(argv));
  EXPECT_TRUE(cli.get_flag("flag"));
  ASSERT_EQ(cli.positional().size(), 1u);
}

TEST(Cli, FallbacksWhenAbsent) {
  const char* argv[] = {"prog"};
  Cli cli(1, const_cast<char**>(argv));
  EXPECT_EQ(cli.get_int("n", 42), 42);
  EXPECT_EQ(cli.get("s", "dflt"), "dflt");
}

TEST(Cli, GetCountFallsBackOnInvalidValues) {
  const char* argv[] = {"prog", "--threads", "-1", "--lanes", "4",
                        "--bad",  "x2"};
  Cli cli(7, const_cast<char**>(argv));
  // Negative or non-numeric counts must fall back to the default (fail
  // safe), not wrap through size_t or select the 0 = "auto / maximum"
  // setting.
  EXPECT_EQ(cli.get_count("threads", 1), 1u);
  EXPECT_EQ(cli.get_count("bad", 1), 1u);
  EXPECT_EQ(cli.get_count("lanes", 1), 4u);
  EXPECT_EQ(cli.get_count("missing", 2), 2u);
  EXPECT_EQ(cli.get_count("missing", -3), 0u);
}

TEST(Cli, GetIntAndGetDoubleFallBackOnNonNumericValues) {
  const char* argv[] = {"prog",        "--classes", "foo",  "--requests",
                        "12x",         "--width",   "1.5x", "--rate",
                        "fast",        "--batch",   "8",    "--scale",
                        "0.25"};
  Cli cli(13, const_cast<char**>(argv));
  // strtoll/strtod with an unchecked end pointer turned "--classes foo"
  // into 0 and "--requests 12x" into 12; both must keep the fallback (0 is
  // a meaningful setting for several options, and a truncated prefix is a
  // typo, not intent).
  EXPECT_EQ(cli.get_int("classes", 10), 10);
  EXPECT_EQ(cli.get_int("requests", 256), 256);
  EXPECT_DOUBLE_EQ(cli.get_double("width", 1.0), 1.0);
  EXPECT_DOUBLE_EQ(cli.get_double("rate", 0.5), 0.5);
  // Fully numeric values still parse.
  EXPECT_EQ(cli.get_int("batch", 1), 8);
  EXPECT_DOUBLE_EQ(cli.get_double("scale", 1.0), 0.25);
}

TEST(Table, FormatsAlignedColumns) {
  TextTable t({"name", "value"});
  t.row({"alpha", "1.5"});
  t.row({"b", "22.25"});
  const std::string s = t.str();
  EXPECT_NE(s.find("name"), std::string::npos);
  EXPECT_NE(s.find("22.25"), std::string::npos);
  EXPECT_NE(s.find("----"), std::string::npos);
}

TEST(Table, Formatters) {
  EXPECT_EQ(TextTable::fixed(1.23456, 2), "1.23");
  EXPECT_EQ(TextTable::percent(0.8481, 2), "84.81%");
  EXPECT_EQ(TextTable::sci(3e-06), "3e-06");
}

}  // namespace
}  // namespace fitact::ut
