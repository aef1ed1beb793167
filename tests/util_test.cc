#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "test_seed.h"

#include "obs/time.h"
#include "util/checksum.h"
#include "util/csv.h"
#include "util/rng.h"
#include "util/string_utils.h"
#include "util/thread_pool.h"

namespace copyattack::util {
namespace {

TEST(RngTest, DeterministicForEqualSeeds) {
  Rng a(testhelpers::TestSeed(42)), b(testhelpers::TestSeed(42));
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextUint64(), b.NextUint64());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(testhelpers::TestSeed(1)), b(testhelpers::TestSeed(2));
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.NextUint64() == b.NextUint64()) ++equal;
  }
  EXPECT_LT(equal, 5);
}

TEST(RngTest, UniformDoubleInUnitInterval) {
  Rng rng(testhelpers::TestSeed(7));
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.UniformDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, UniformCoversAllBuckets) {
  Rng rng(testhelpers::TestSeed(11));
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 10000; ++i) {
    ++counts[rng.UniformUint64(10)];
  }
  for (const int c : counts) {
    EXPECT_GT(c, 800);
    EXPECT_LT(c, 1200);
  }
}

TEST(RngTest, NormalHasExpectedMoments) {
  Rng rng(testhelpers::TestSeed(13));
  double sum = 0.0, sum_sq = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.Normal();
    sum += v;
    sum_sq += v * v;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.05);
}

void ExpectSameState(const RngState& a, const RngState& b) {
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(a.words[i], b.words[i]);
  EXPECT_EQ(a.has_cached_normal, b.has_cached_normal);
  EXPECT_EQ(a.cached_normal, b.cached_normal);
}

TEST(RngTest, SkipNormalsLeavesTheStateOfDrawingThem) {
  for (const bool start_cached : {false, true}) {
    for (const std::size_t n : {0, 1, 2, 3, 4, 7, 10, 1001}) {
      SCOPED_TRACE("n=" + std::to_string(n) +
                   (start_cached ? " from a cached deviate" : ""));
      Rng drawn(testhelpers::TestSeed(17));
      Rng skipped(testhelpers::TestSeed(17));
      if (start_cached) {
        drawn.Normal();
        skipped.Normal();
        ASSERT_TRUE(skipped.SaveState().has_cached_normal);
      }
      for (std::size_t i = 0; i < n; ++i) drawn.Normal();
      skipped.SkipNormals(n);
      ExpectSameState(skipped.SaveState(), drawn.SaveState());
      EXPECT_EQ(skipped.Normal(), drawn.Normal());
      EXPECT_EQ(skipped.NextUint64(), drawn.NextUint64());
    }
  }
}

// A consumed deviate is zeroed, by Normal() and by SkipNormals alike, so
// the saved state carries no dead value and equal stream positions save
// equal bytes.
TEST(RngTest, ConsumedDeviateSavesAsZero) {
  Rng drawn(testhelpers::TestSeed(19));
  drawn.Normal();
  ASSERT_TRUE(drawn.SaveState().has_cached_normal);
  drawn.Normal();
  EXPECT_FALSE(drawn.SaveState().has_cached_normal);
  EXPECT_EQ(drawn.SaveState().cached_normal, 0.0);

  Rng skipped(testhelpers::TestSeed(19));
  skipped.Normal();
  skipped.SkipNormals(1);
  EXPECT_FALSE(skipped.SaveState().has_cached_normal);
  EXPECT_EQ(skipped.SaveState().cached_normal, 0.0);

  // A state saved with a dead value (as older checkpoints hold) still
  // resumes the stream and saves canonically.
  RngState legacy = drawn.SaveState();
  legacy.cached_normal = 1.25;
  Rng restored(legacy);
  EXPECT_EQ(restored.SaveState().cached_normal, 0.0);
  std::ostringstream a, b;
  WriteRngState(a, restored.SaveState());
  WriteRngState(b, skipped.SaveState());
  EXPECT_EQ(a.str(), b.str());
  EXPECT_EQ(restored.Normal(), skipped.Normal());
}

TEST(RngTest, StateConstructorResumesTheStream) {
  Rng original(testhelpers::TestSeed(19));
  original.Normal();  // leaves a cached deviate in the state
  Rng resumed(original.SaveState());
  EXPECT_EQ(resumed.Normal(), original.Normal());
  EXPECT_EQ(resumed.NextUint64(), original.NextUint64());
}

TEST(RngTest, RngStateCodecRoundTripsAndRejectsShortReads) {
  Rng rng(testhelpers::TestSeed(23));
  rng.Normal();
  const RngState state = rng.SaveState();
  std::ostringstream out;
  WriteRngState(out, state);
  const std::string bytes = out.str();

  std::istringstream in(bytes);
  RngState read;
  ASSERT_TRUE(ReadRngState(in, &read));
  ExpectSameState(read, state);

  for (std::size_t size = 0; size < bytes.size(); ++size) {
    std::istringstream truncated(bytes.substr(0, size));
    EXPECT_FALSE(ReadRngState(truncated, &read)) << "size " << size;
  }
}

TEST(RngTest, SampleWithoutReplacementIsDistinct) {
  Rng rng(testhelpers::TestSeed(3));
  const auto sample = rng.SampleWithoutReplacement(100, 30);
  EXPECT_EQ(sample.size(), 30U);
  std::set<std::size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 30U);
  for (const std::size_t v : sample) EXPECT_LT(v, 100U);
}

TEST(RngTest, SampleWithoutReplacementFullRange) {
  Rng rng(testhelpers::TestSeed(3));
  const auto sample = rng.SampleWithoutReplacement(10, 10);
  std::set<std::size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 10U);
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(testhelpers::TestSeed(5));
  std::vector<int> values = {1, 2, 3, 4, 5, 6, 7};
  auto shuffled = values;
  rng.Shuffle(shuffled);
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, values);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng a(testhelpers::TestSeed(9));
  Rng child = a.Fork();
  // Child stream should not replicate the parent's next outputs.
  int equal = 0;
  for (int i = 0; i < 50; ++i) {
    if (a.NextUint64() == child.NextUint64()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(StringUtilsTest, SplitKeepsEmptyFields) {
  const auto fields = Split("a,,b,", ',');
  ASSERT_EQ(fields.size(), 4U);
  EXPECT_EQ(fields[0], "a");
  EXPECT_EQ(fields[1], "");
  EXPECT_EQ(fields[2], "b");
  EXPECT_EQ(fields[3], "");
}

TEST(StringUtilsTest, TrimRemovesWhitespace) {
  EXPECT_EQ(Trim("  x y \t\n"), "x y");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("   "), "");
}

TEST(StringUtilsTest, JoinConcatenates) {
  EXPECT_EQ(Join({"a", "b", "c"}, ","), "a,b,c");
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Join({"only"}, ","), "only");
}

TEST(StringUtilsTest, StartsWithWorks) {
  EXPECT_TRUE(StartsWith("hello", "he"));
  EXPECT_FALSE(StartsWith("hello", "lo"));
  EXPECT_TRUE(StartsWith("x", ""));
  EXPECT_FALSE(StartsWith("", "x"));
}

TEST(StringUtilsTest, FormatDoublePrecision) {
  EXPECT_EQ(FormatDouble(3.14159, 2), "3.14");
  EXPECT_EQ(FormatDouble(1.0, 4), "1.0000");
}

TEST(StringUtilsTest, ParseSizeT) {
  std::size_t v = 0;
  EXPECT_TRUE(ParseSizeT("123", &v));
  EXPECT_EQ(v, 123U);
  EXPECT_TRUE(ParseSizeT(" 7 ", &v));
  EXPECT_EQ(v, 7U);
  EXPECT_FALSE(ParseSizeT("abc", &v));
  EXPECT_FALSE(ParseSizeT("", &v));
  EXPECT_FALSE(ParseSizeT("12x", &v));
  EXPECT_FALSE(ParseSizeT("-2", &v));  // strtoull would negate silently
  EXPECT_FALSE(ParseSizeT("+2", &v));
}

TEST(StringUtilsTest, ParseDouble) {
  double v = 0.0;
  EXPECT_TRUE(ParseDouble("3.5", &v));
  EXPECT_DOUBLE_EQ(v, 3.5);
  EXPECT_TRUE(ParseDouble("-2e3", &v));
  EXPECT_DOUBLE_EQ(v, -2000.0);
  EXPECT_FALSE(ParseDouble("x", &v));
}

TEST(CsvTest, WriteReadRoundTrip) {
  const std::string path = testing::TempDir() + "/ca_csv_test.csv";
  {
    CsvWriter writer(path, {"a", "b"});
    ASSERT_TRUE(writer.ok());
    writer.WriteRow({"1", "2"});
    writer.WriteRow({"x", "y"});
    writer.Flush();
  }
  std::vector<std::string> header;
  std::vector<std::vector<std::string>> rows;
  ASSERT_TRUE(ReadCsv(path, &header, &rows));
  EXPECT_EQ(header, (std::vector<std::string>{"a", "b"}));
  ASSERT_EQ(rows.size(), 2U);
  EXPECT_EQ(rows[0], (std::vector<std::string>{"1", "2"}));
  EXPECT_EQ(rows[1], (std::vector<std::string>{"x", "y"}));
  std::remove(path.c_str());
}

TEST(CsvTest, ReadMissingFileFails) {
  std::vector<std::string> header;
  std::vector<std::vector<std::string>> rows;
  EXPECT_FALSE(ReadCsv("/nonexistent/path/file.csv", &header, &rows));
}

TEST(CsvTest, EmptyFieldsSurvive) {
  const std::string path = testing::TempDir() + "/ca_csv_empty.csv";
  {
    CsvWriter writer(path, {"a", "b", "c"});
    ASSERT_TRUE(writer.ok());
    writer.WriteRow({"", "mid", ""});
    writer.WriteRow({"", "", ""});
    writer.Flush();
  }
  std::vector<std::string> header;
  std::vector<std::vector<std::string>> rows;
  ASSERT_TRUE(ReadCsv(path, &header, &rows));
  ASSERT_EQ(rows.size(), 2U);
  EXPECT_EQ(rows[0], (std::vector<std::string>{"", "mid", ""}));
  EXPECT_EQ(rows[1], (std::vector<std::string>{"", "", ""}));
  std::remove(path.c_str());
}

TEST(CsvTest, QuotedCommasAndQuotesRoundTrip) {
  const std::string path = testing::TempDir() + "/ca_csv_quoted.csv";
  {
    CsvWriter writer(path, {"label", "value"});
    ASSERT_TRUE(writer.ok());
    writer.WriteRow({"a,b", "plain"});
    writer.WriteRow({"say \"hi\"", "x,y,z"});
    writer.Flush();
  }
  std::vector<std::string> header;
  std::vector<std::vector<std::string>> rows;
  ASSERT_TRUE(ReadCsv(path, &header, &rows));
  ASSERT_EQ(rows.size(), 2U);
  EXPECT_EQ(rows[0], (std::vector<std::string>{"a,b", "plain"}));
  EXPECT_EQ(rows[1], (std::vector<std::string>{"say \"hi\"", "x,y,z"}));
  std::remove(path.c_str());
}

TEST(CsvTest, EscapeCsvFieldQuotesOnlyWhenNeeded) {
  EXPECT_EQ(EscapeCsvField("plain"), "plain");
  EXPECT_EQ(EscapeCsvField("3.14"), "3.14");
  EXPECT_EQ(EscapeCsvField("a,b"), "\"a,b\"");
  EXPECT_EQ(EscapeCsvField("he said \"x\""), "\"he said \"\"x\"\"\"");
  EXPECT_EQ(EscapeCsvField("line\nbreak"), "\"line\nbreak\"");
}

TEST(CsvTest, ParseCsvLineMalformedRowsAreLenient) {
  // Unterminated quote: remainder of the field is taken verbatim.
  EXPECT_EQ(ParseCsvLine("\"unterminated,still same field"),
            (std::vector<std::string>{"unterminated,still same field"}));
  // Quote opening mid-field is literal, not an opener.
  EXPECT_EQ(ParseCsvLine("ab\"cd,2"),
            (std::vector<std::string>{"ab\"cd", "2"}));
  // Trailing comma yields a final empty field.
  EXPECT_EQ(ParseCsvLine("a,b,"),
            (std::vector<std::string>{"a", "b", ""}));
  // A lone empty line is one empty field (callers skip blank lines).
  EXPECT_EQ(ParseCsvLine(""), (std::vector<std::string>{""}));
}

TEST(CsvTest, RaggedRowsAreReturnedAsIs) {
  // ReadCsv does not validate arity against the header — readers in
  // bench tooling decide; this pins the lenient contract.
  const std::string path = testing::TempDir() + "/ca_csv_ragged.csv";
  {
    std::ofstream out(path);
    out << "a,b\n1\nx,y,z\n";
  }
  std::vector<std::string> header;
  std::vector<std::vector<std::string>> rows;
  ASSERT_TRUE(ReadCsv(path, &header, &rows));
  ASSERT_EQ(rows.size(), 2U);
  EXPECT_EQ(rows[0].size(), 1U);
  EXPECT_EQ(rows[1].size(), 3U);
  std::remove(path.c_str());
}

TEST(CsvDeathTest, WrongArityRowAborts) {
  const std::string path = testing::TempDir() + "/ca_csv_arity.csv";
  CsvWriter writer(path, {"a", "b"});
  ASSERT_TRUE(writer.ok());
  EXPECT_DEATH(writer.WriteRow({"only-one"}), "lhs=1 rhs=2");
  std::remove(path.c_str());
}

TEST(StopwatchTest, ElapsedIsMonotonic) {
  obs::Stopwatch watch;
  const double a = watch.ElapsedSeconds();
  const double b = watch.ElapsedSeconds();
  EXPECT_GE(b, a);
  EXPECT_GE(a, 0.0);
}

TEST(ThreadPoolTest, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, ParallelForCoversRange) {
  std::vector<std::atomic<int>> hits(50);
  ThreadPool::ParallelFor(50, 4, [&](std::size_t i) {
    hits[i].fetch_add(1);
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ParallelForSequentialFallback) {
  std::vector<int> order;
  ThreadPool::ParallelFor(5, 1, [&](std::size_t i) {
    order.push_back(static_cast<int>(i));
  });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

}  // namespace
}  // namespace copyattack::util

#include "util/flags.h"

namespace copyattack::util {
namespace {

FlagParser MakeTestParser() {
  FlagParser parser;
  parser.Define("name", "default", "a string flag")
      .Define("count", "3", "an integer flag")
      .Define("rate", "0.5", "a double flag")
      .Define("verbose", "false", "a boolean switch");
  return parser;
}

TEST(FlagParserTest, DefaultsApplyWithoutArguments) {
  FlagParser parser = MakeTestParser();
  const char* argv[] = {"run"};
  ASSERT_TRUE(parser.Parse(1, argv));
  EXPECT_EQ(parser.command(), "run");
  EXPECT_EQ(parser.GetString("name"), "default");
  EXPECT_EQ(parser.GetSizeT("count"), 3U);
  EXPECT_DOUBLE_EQ(parser.GetDouble("rate"), 0.5);
  EXPECT_FALSE(parser.GetBool("verbose"));
  EXPECT_FALSE(parser.WasSupplied("name"));
}

TEST(FlagParserTest, EqualsAndSpaceForms) {
  FlagParser parser = MakeTestParser();
  const char* argv[] = {"run", "--name=alpha", "--count", "7"};
  ASSERT_TRUE(parser.Parse(4, argv));
  EXPECT_EQ(parser.GetString("name"), "alpha");
  EXPECT_EQ(parser.GetSizeT("count"), 7U);
  EXPECT_TRUE(parser.WasSupplied("name"));
  EXPECT_TRUE(parser.WasSupplied("count"));
}

TEST(FlagParserTest, BareSwitchBecomesTrue) {
  FlagParser parser = MakeTestParser();
  const char* argv[] = {"run", "--verbose"};
  ASSERT_TRUE(parser.Parse(2, argv));
  EXPECT_TRUE(parser.GetBool("verbose"));
}

TEST(FlagParserTest, SwitchFollowedByFlag) {
  FlagParser parser = MakeTestParser();
  const char* argv[] = {"run", "--verbose", "--count=2"};
  ASSERT_TRUE(parser.Parse(3, argv));
  EXPECT_TRUE(parser.GetBool("verbose"));
  EXPECT_EQ(parser.GetSizeT("count"), 2U);
}

TEST(FlagParserTest, PositionalArguments) {
  FlagParser parser = MakeTestParser();
  const char* argv[] = {"run", "a", "--count=1", "b"};
  ASSERT_TRUE(parser.Parse(4, argv));
  EXPECT_EQ(parser.command(), "run");
  EXPECT_EQ(parser.positional(),
            (std::vector<std::string>{"a", "b"}));
}

TEST(FlagParserTest, UnknownFlagFails) {
  FlagParser parser = MakeTestParser();
  const char* argv[] = {"run", "--bogus=1"};
  EXPECT_FALSE(parser.Parse(2, argv));
  EXPECT_FALSE(parser.ok());
  EXPECT_NE(parser.error().find("bogus"), std::string::npos);
}

TEST(FlagParserTest, ReparseResetsState) {
  FlagParser parser = MakeTestParser();
  const char* argv1[] = {"run", "--name=x"};
  ASSERT_TRUE(parser.Parse(2, argv1));
  const char* argv2[] = {"run"};
  ASSERT_TRUE(parser.Parse(1, argv2));
  EXPECT_EQ(parser.GetString("name"), "default");
  EXPECT_FALSE(parser.WasSupplied("name"));
}

TEST(FlagParserTest, HelpTextMentionsFlags) {
  FlagParser parser = MakeTestParser();
  const std::string help = parser.HelpText();
  EXPECT_NE(help.find("--name"), std::string::npos);
  EXPECT_NE(help.find("--rate"), std::string::npos);
}

TEST(FlagParserDeathTest, UndeclaredAccessAborts) {
  FlagParser parser = MakeTestParser();
  const char* argv[] = {"run"};
  ASSERT_TRUE(parser.Parse(1, argv));
  EXPECT_DEATH(parser.GetString("nope"), "undeclared flag");
}

TEST(FlagParserDeathTest, BadIntegerAborts) {
  FlagParser parser = MakeTestParser();
  const char* argv[] = {"run", "--count=xyz"};
  ASSERT_TRUE(parser.Parse(2, argv));
  EXPECT_DEATH(parser.GetSizeT("count"), "not an unsigned integer");
}

TEST(FlagParserTest, EmptyValueViaEqualsIsKept) {
  FlagParser parser = MakeTestParser();
  const char* argv[] = {"run", "--name="};
  ASSERT_TRUE(parser.Parse(2, argv));
  EXPECT_TRUE(parser.WasSupplied("name"));
  EXPECT_EQ(parser.GetString("name"), "");
}

TEST(FlagParserTest, DuplicateSupplyLastOneWins) {
  FlagParser parser = MakeTestParser();
  const char* argv[] = {"run", "--name=first", "--name=second"};
  ASSERT_TRUE(parser.Parse(3, argv));
  EXPECT_EQ(parser.GetString("name"), "second");
}

TEST(FlagParserTest, ValueContainingEqualsSplitsOnce) {
  FlagParser parser = MakeTestParser();
  const char* argv[] = {"run", "--name=k=v"};
  ASSERT_TRUE(parser.Parse(2, argv));
  EXPECT_EQ(parser.GetString("name"), "k=v");
}

TEST(FlagParserTest, TrailingValuelessFlagBecomesTrue) {
  FlagParser parser = MakeTestParser();
  const char* argv[] = {"run", "--verbose"};
  ASSERT_TRUE(parser.Parse(2, argv));
  EXPECT_EQ(parser.GetString("verbose"), "true");
}

TEST(FlagParserTest, BadBooleanAbortsOnAccessNotParse) {
  FlagParser parser = MakeTestParser();
  const char* argv[] = {"run", "--verbose=maybe"};
  // Parsing succeeds (values are strings); the typed accessor enforces.
  ASSERT_TRUE(parser.Parse(2, argv));
  EXPECT_DEATH(parser.GetBool("verbose"), "not a boolean");
}

TEST(FlagParserTest, PositiveIntAcceptsPositiveValues) {
  FlagParser parser;
  parser.DefinePositiveInt("jobs", "1", "worker thread count");
  const char* argv[] = {"run", "--jobs=4"};
  ASSERT_TRUE(parser.Parse(2, argv));
  EXPECT_EQ(parser.GetSizeT("jobs"), 4U);
}

TEST(FlagParserTest, PositiveIntDefaultApplies) {
  FlagParser parser;
  parser.DefinePositiveInt("jobs", "1", "worker thread count");
  const char* argv[] = {"run"};
  ASSERT_TRUE(parser.Parse(1, argv));
  EXPECT_EQ(parser.GetSizeT("jobs"), 1U);
  EXPECT_FALSE(parser.WasSupplied("jobs"));
}

TEST(FlagParserTest, PositiveIntRejectsZeroNegativeAndGarbageAtParse) {
  const char* bad_values[] = {"0", "-2", "abc", "", "1.5"};
  for (const char* value : bad_values) {
    FlagParser parser;
    parser.DefinePositiveInt("jobs", "1", "worker thread count");
    const std::string arg = std::string("--jobs=") + value;
    const char* argv[] = {"run", arg.c_str()};
    EXPECT_FALSE(parser.Parse(2, argv)) << arg;
    EXPECT_FALSE(parser.ok());
    EXPECT_NE(parser.error().find("expects a positive integer"),
              std::string::npos)
        << parser.error();
    EXPECT_NE(parser.error().find("--jobs"), std::string::npos)
        << parser.error();
  }
}

TEST(FlagParserDeathTest, DuplicateDefineAborts) {
  FlagParser parser;
  parser.Define("twice", "1", "first declaration");
  EXPECT_DEATH(parser.Define("twice", "2", "second declaration"),
               "declared twice");
}

TEST(ChecksumTest, Crc32MatchesIeeeReferenceVector) {
  // The canonical CRC-32/IEEE check value.
  EXPECT_EQ(Crc32(std::string("123456789")), 0xCBF43926U);
}

TEST(ChecksumTest, Crc32EmptyAndSensitivity) {
  EXPECT_EQ(Crc32(std::string()), 0U);
  const std::string payload = "checkpoint payload";
  std::string flipped = payload;
  flipped[3] ^= 0x01;
  EXPECT_NE(Crc32(payload), Crc32(flipped));
}

TEST(RngStateTest, SaveRestoreRoundTripContinuesStream) {
  Rng rng(testhelpers::TestSeed(12345));
  for (int i = 0; i < 10; ++i) rng.NextUint64();
  const RngState state = rng.SaveState();
  std::vector<std::uint64_t> expected;
  for (int i = 0; i < 16; ++i) expected.push_back(rng.NextUint64());

  Rng other(1);  // different seed; RestoreState must fully overwrite
  other.RestoreState(state);
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(other.NextUint64(), expected[static_cast<std::size_t>(i)]);
  }
}

TEST(RngStateTest, SaveRestorePreservesCachedNormal) {
  // Normal() generates pairs and caches the second draw; the state must
  // carry the cache or the restored stream would skew by one draw.
  Rng rng(testhelpers::TestSeed(777));
  rng.Normal();  // leaves one cached normal behind
  const RngState state = rng.SaveState();
  const double expected = rng.Normal();
  Rng other(2);
  other.RestoreState(state);
  EXPECT_EQ(other.Normal(), expected);  // exact replay
}

}  // namespace
}  // namespace copyattack::util
