#include "storage/segment.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include "common/rng.h"

namespace cqa {
namespace {

TEST(SegmentTest, IntRoundTripPlain) {
  // All-distinct ints: 2*distinct > n, so the segment must stay plain.
  std::vector<int64_t> values = {5, -3, 9, 0, 42};
  Segment s = Segment::SealInts(std::vector<int64_t>(values));
  EXPECT_EQ(s.encoding(), SegmentEncoding::kPlain);
  EXPECT_EQ(s.type(), ValueType::kInt);
  ASSERT_EQ(s.size(), values.size());
  for (size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(s.GetValue(i), Value(values[i]));
    EXPECT_TRUE(s.ValueEquals(i, Value(values[i])));
    EXPECT_FALSE(s.ValueEquals(i, Value(values[i] + 1)));
    EXPECT_FALSE(s.ValueEquals(i, Value("5")));
  }
  EXPECT_EQ(s.dict_size(), 0u);
}

TEST(SegmentTest, IntRoundTripDictionary) {
  // Two distinct values over eight rows: 2*2 <= 8 — dictionary-encoded.
  std::vector<int64_t> values = {7, 7, 1, 7, 1, 1, 7, 7};
  Segment s = Segment::SealInts(std::vector<int64_t>(values));
  EXPECT_EQ(s.encoding(), SegmentEncoding::kDictionary);
  EXPECT_EQ(s.dict_size(), 2u);
  for (size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(s.GetValue(i), Value(values[i]));
    EXPECT_TRUE(s.ValueEquals(i, Value(values[i])));
  }
  // The dictionary is sorted: code order mirrors value order.
  ColumnRun run = s.Run(0);
  ASSERT_EQ(run.dict_size, 2u);
  EXPECT_EQ(run.int_dict[0], 1);
  EXPECT_EQ(run.int_dict[1], 7);
  EXPECT_EQ(s.FindCode(Value(int64_t{1})), 0u);
  EXPECT_EQ(s.FindCode(Value(int64_t{7})), 1u);
  EXPECT_EQ(s.FindCode(Value(int64_t{3})), Segment::kNoCode);
}

TEST(SegmentTest, IntBoundaryStaysPlain) {
  // 2*distinct == n dictionary-encodes; one distinct more stays plain.
  std::vector<int64_t> exactly_half = {1, 1, 2, 2};
  EXPECT_EQ(Segment::SealInts(std::move(exactly_half)).encoding(),
            SegmentEncoding::kDictionary);
  std::vector<int64_t> over_half = {1, 1, 2, 3};
  EXPECT_EQ(Segment::SealInts(std::move(over_half)).encoding(),
            SegmentEncoding::kPlain);
}

TEST(SegmentTest, DoubleRoundTripAlwaysPlain) {
  std::vector<double> values = {0.5, 0.5, 0.5, -1.25};
  Segment s = Segment::SealDoubles(std::vector<double>(values));
  EXPECT_EQ(s.encoding(), SegmentEncoding::kPlain);
  for (size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(s.GetValue(i), Value(values[i]));
    EXPECT_TRUE(s.ValueEquals(i, Value(values[i])));
  }
}

TEST(SegmentTest, StringRoundTripDictionary) {
  // Any repeated string triggers dictionary encoding.
  std::vector<std::string> values = {"BUILDING", "AUTO", "BUILDING", "MAIL"};
  Segment s = Segment::SealStrings(std::vector<std::string>(values));
  EXPECT_EQ(s.encoding(), SegmentEncoding::kDictionary);
  EXPECT_EQ(s.dict_size(), 3u);
  for (size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(s.GetValue(i), Value(values[i]));
    EXPECT_TRUE(s.ValueEquals(i, Value(values[i])));
  }
  ColumnRun run = s.Run(4);
  EXPECT_EQ(run.row0, 4u);
  ASSERT_EQ(run.dict_size, 3u);
  EXPECT_EQ(run.string_dict[0], "AUTO");
  EXPECT_EQ(run.string_dict[1], "BUILDING");
  EXPECT_EQ(run.string_dict[2], "MAIL");
  EXPECT_EQ(s.FindCode(Value("MAIL")), 2u);
  EXPECT_EQ(s.FindCode(Value("TRUCK")), Segment::kNoCode);
}

TEST(SegmentTest, AllDistinctStringsStayPlain) {
  // A dictionary over all-distinct strings would add the code array on
  // top of the same string payload — kept plain by design.
  std::vector<std::string> values = {"a", "b", "c"};
  Segment s = Segment::SealStrings(std::move(values));
  EXPECT_EQ(s.encoding(), SegmentEncoding::kPlain);
  EXPECT_EQ(s.dict_size(), 0u);
  EXPECT_EQ(s.FindCode(Value("a")), Segment::kNoCode);
}

TEST(SegmentTest, SingleValueColumn) {
  std::vector<std::string> values(100, "only");
  Segment s = Segment::SealStrings(std::move(values));
  EXPECT_EQ(s.encoding(), SegmentEncoding::kDictionary);
  EXPECT_EQ(s.dict_size(), 1u);
  for (size_t i = 0; i < 100; ++i) {
    EXPECT_TRUE(s.ValueEquals(i, Value("only")));
  }
}

TEST(SegmentTest, EmptySegments) {
  EXPECT_EQ(Segment::SealInts({}).size(), 0u);
  EXPECT_EQ(Segment::SealInts({}).encoding(), SegmentEncoding::kPlain);
  EXPECT_EQ(Segment::SealStrings({}).size(), 0u);
  EXPECT_EQ(Segment::SealStrings({}).encoding(), SegmentEncoding::kPlain);
  EXPECT_EQ(Segment::SealDoubles({}).size(), 0u);
}

TEST(SegmentTest, RunValueAtMatchesGetValue) {
  Rng rng(20240807);
  std::vector<int64_t> ints;
  std::vector<std::string> strings;
  for (size_t i = 0; i < 500; ++i) {
    ints.push_back(rng.UniformInt(0, 9));  // Low cardinality: dictionary.
    strings.push_back("s" + std::to_string(rng.UniformInt(0, 999)));
  }
  Segment si = Segment::SealInts(std::vector<int64_t>(ints));
  Segment ss = Segment::SealStrings(std::vector<std::string>(strings));
  ColumnRun ri = si.Run(17);
  ColumnRun rs = ss.Run(17);
  ASSERT_EQ(ri.length, 500u);
  ASSERT_EQ(rs.length, 500u);
  for (size_t i = 0; i < 500; ++i) {
    EXPECT_EQ(ri.ValueAt(i), Value(ints[i]));
    EXPECT_EQ(rs.ValueAt(i), Value(strings[i]));
  }
}

TEST(SegmentTest, MemoryBytesShrinksUnderDictionary) {
  // 4096 rows of 16 distinct ints: codes (4B) + dict beats plain (8B).
  std::vector<int64_t> values;
  for (size_t i = 0; i < 4096; ++i) {
    values.push_back(static_cast<int64_t>(i % 16));
  }
  Segment dict = Segment::SealInts(std::vector<int64_t>(values));
  ASSERT_EQ(dict.encoding(), SegmentEncoding::kDictionary);
  EXPECT_LT(dict.MemoryBytes(), 4096 * sizeof(int64_t));
}

/// The seal as it was first written, kept as the oracle: a sort-unique
/// pass for the distinct count, then a sorted copy as the dictionary and a
/// lower_bound per row for the codes. The encoding rule is the one
/// documented on Segment.
template <typename T>
struct OracleSeal {
  SegmentEncoding encoding = SegmentEncoding::kPlain;
  std::vector<T> dict;
  std::vector<uint32_t> codes;
};

template <typename T>
OracleSeal<T> SealTheOldWay(const std::vector<T>& values, bool is_int) {
  OracleSeal<T> out;
  std::vector<T> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
  const size_t distinct = sorted.size();
  const bool dictionary =
      !values.empty() &&
      (is_int ? 2 * distinct <= values.size() : distinct < values.size());
  if (!dictionary) return out;
  out.encoding = SegmentEncoding::kDictionary;
  out.dict = sorted;
  for (const T& v : values) {
    out.codes.push_back(static_cast<uint32_t>(
        std::lower_bound(sorted.begin(), sorted.end(), v) - sorted.begin()));
  }
  return out;
}

/// Random column shapes a seal must handle: all-equal, all-distinct,
/// heavily repeated (a handful of values) and moderately repeated.
std::vector<int64_t> RandomInts(Rng& rng, size_t n, int shape) {
  std::vector<int64_t> values;
  for (size_t i = 0; i < n; ++i) {
    switch (shape) {
      case 0:
        values.push_back(-7);
        break;
      case 1:
        values.push_back(static_cast<int64_t>(i) * 3 - 1000);
        break;
      case 2:
        values.push_back(rng.UniformInt(-2, 2));
        break;
      default:
        values.push_back(rng.UniformInt(INT64_MIN / 2, INT64_MIN / 2 + 200));
        break;
    }
  }
  rng.Shuffle(values);
  return values;
}

/// As RandomInts, over strings that include the empty string.
std::vector<std::string> RandomStrings(Rng& rng, size_t n, int shape) {
  std::vector<std::string> values;
  for (size_t i = 0; i < n; ++i) {
    switch (shape) {
      case 0:
        values.emplace_back("");
        break;
      case 1:
        values.push_back(i == 0 ? "" : "v" + std::to_string(i));
        break;
      case 2: {
        const int64_t k = rng.UniformInt(0, 3);
        values.push_back(k == 0 ? "" : std::string(static_cast<size_t>(k), 'x'));
        break;
      }
      default:
        values.push_back("a long string with shared prefix " +
                         std::to_string(rng.UniformInt(0, 300)));
        break;
    }
  }
  rng.Shuffle(values);
  return values;
}

template <typename T>
void ExpectSealMatchesOracle(const Segment& s, const std::vector<T>& values,
                             const OracleSeal<T>& oracle) {
  ASSERT_EQ(s.size(), values.size());
  ASSERT_EQ(s.encoding(), oracle.encoding);
  const ColumnRun run = s.Run(0);
  if (oracle.encoding == SegmentEncoding::kDictionary) {
    ASSERT_EQ(s.dict_size(), oracle.dict.size());
    for (size_t i = 0; i < oracle.dict.size(); ++i) {
      if constexpr (std::is_same_v<T, int64_t>) {
        EXPECT_EQ(run.int_dict[i], oracle.dict[i]);
      } else {
        EXPECT_EQ(run.string_dict[i], oracle.dict[i]);
      }
    }
    for (size_t i = 0; i < values.size(); ++i) {
      EXPECT_EQ(run.codes[i], oracle.codes[i]) << "row " << i;
    }
  } else {
    EXPECT_EQ(s.dict_size(), 0u);
  }
  for (size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(s.GetValue(i), Value(values[i])) << "row " << i;
  }
}

TEST(SegmentPropertyTest, SealMatchesSortUniqueLowerBoundOracle) {
  Rng rng(20261019);
  for (int trial = 0; trial < 40; ++trial) {
    const int shape = trial % 4;
    const size_t n = 1 + rng.UniformIndex(trial < 20 ? 40 : 4096);
    SCOPED_TRACE("trial " + std::to_string(trial) + " shape " +
                 std::to_string(shape) + " rows " + std::to_string(n));
    const std::vector<int64_t> ints = RandomInts(rng, n, shape);
    ExpectSealMatchesOracle(Segment::SealInts(std::vector<int64_t>(ints)),
                            ints, SealTheOldWay(ints, /*is_int=*/true));
    const std::vector<std::string> strings = RandomStrings(rng, n, shape);
    ExpectSealMatchesOracle(
        Segment::SealStrings(std::vector<std::string>(strings)), strings,
        SealTheOldWay(strings, /*is_int=*/false));
  }
}

}  // namespace
}  // namespace cqa
