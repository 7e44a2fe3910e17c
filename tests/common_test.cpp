// Unit tests for the common kernel: strong ids, Result/Status, Rng,
// serialization round-trips.
#include <gtest/gtest.h>

#include <limits>
#include <set>
#include <unordered_set>

#include "common/ids.hpp"
#include "common/result.hpp"
#include "common/rng.hpp"
#include "common/serialization.hpp"
#include "common/time.hpp"

namespace ddbg {
namespace {

TEST(StrongId, DefaultIsInvalid) {
  ProcessId id;
  EXPECT_FALSE(id.valid());
  EXPECT_EQ(to_string(id), "p<invalid>");
}

TEST(StrongId, ValueRoundTrip) {
  ProcessId id(7);
  EXPECT_TRUE(id.valid());
  EXPECT_EQ(id.value(), 7u);
  EXPECT_EQ(to_string(id), "p7");
}

TEST(StrongId, Comparisons) {
  EXPECT_EQ(ProcessId(3), ProcessId(3));
  EXPECT_NE(ProcessId(3), ProcessId(4));
  EXPECT_LT(ProcessId(3), ProcessId(4));
}

TEST(StrongId, DistinctTypesAreDistinct) {
  // Compile-time property: ProcessId and ChannelId don't cross-convert.
  static_assert(!std::is_convertible_v<ProcessId, ChannelId>);
  static_assert(!std::is_convertible_v<ChannelId, ProcessId>);
}

TEST(StrongId, Hashable) {
  std::unordered_set<ProcessId> set;
  set.insert(ProcessId(1));
  set.insert(ProcessId(2));
  set.insert(ProcessId(1));
  EXPECT_EQ(set.size(), 2u);
}

TEST(Result, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(r.value_or(7), 42);
}

TEST(Result, HoldsError) {
  Result<int> r(Error(ErrorCode::kNotFound, "missing"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code(), ErrorCode::kNotFound);
  EXPECT_EQ(r.error().message(), "missing");
  EXPECT_EQ(r.value_or(7), 7);
  EXPECT_EQ(r.error().to_string(), "not_found: missing");
}

TEST(Status, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
}

TEST(Status, CarriesError) {
  Status s{Error(ErrorCode::kTimeout, "too slow")};
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.error().code(), ErrorCode::kTimeout);
}

TEST(Rng, Deterministic) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(Rng, NextBelowInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.next_below(17), 17u);
  }
}

TEST(Rng, NextBelowCoversRange) {
  Rng rng(9);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.next_below(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, NextInInclusive) {
  Rng rng(11);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const std::int64_t v = rng.next_in(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, NextInDegenerateRange) {
  // low == high is a valid (single-point) range, not a modulo-by-zero.
  Rng rng(19);
  EXPECT_EQ(rng.next_in(5, 5), 5);
  EXPECT_EQ(rng.next_in(-3, -3), -3);
  EXPECT_EQ(rng.next_in(std::numeric_limits<std::int64_t>::max(),
                        std::numeric_limits<std::int64_t>::max()),
            std::numeric_limits<std::int64_t>::max());
  EXPECT_EQ(rng.next_in(std::numeric_limits<std::int64_t>::min(),
                        std::numeric_limits<std::int64_t>::min()),
            std::numeric_limits<std::int64_t>::min());
}

TEST(Rng, NextInExtremeRanges) {
  Rng rng(23);
  // The full-int64 span overflows a uint64 width by one; the implementation
  // must fall back to a raw draw rather than computing span = 0.
  std::set<std::int64_t> full_range;
  for (int i = 0; i < 100; ++i) {
    full_range.insert(rng.next_in(std::numeric_limits<std::int64_t>::min(),
                                  std::numeric_limits<std::int64_t>::max()));
  }
  EXPECT_GT(full_range.size(), 90u);  // essentially all distinct draws
  // A range that crosses zero and nearly spans the type stays in bounds.
  for (int i = 0; i < 1000; ++i) {
    const std::int64_t v =
        rng.next_in(std::numeric_limits<std::int64_t>::min() + 2,
                    std::numeric_limits<std::int64_t>::max() - 2);
    EXPECT_GE(v, std::numeric_limits<std::int64_t>::min() + 2);
    EXPECT_LE(v, std::numeric_limits<std::int64_t>::max() - 2);
  }
  // Both endpoints of a tiny range are reachable (inclusive bounds).
  std::set<std::int64_t> seen;
  for (int i = 0; i < 200; ++i) {
    seen.insert(rng.next_in(std::numeric_limits<std::int64_t>::max() - 1,
                            std::numeric_limits<std::int64_t>::max()));
  }
  EXPECT_EQ(seen.size(), 2u);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(13);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.next_double();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, ExponentialMeanRoughlyCorrect) {
  Rng rng(17);
  double total = 0;
  constexpr int kSamples = 20000;
  for (int i = 0; i < kSamples; ++i) total += rng.next_exponential(5.0);
  const double mean = total / kSamples;
  EXPECT_NEAR(mean, 5.0, 0.3);
}

TEST(Rng, ForkIndependent) {
  Rng parent(21);
  Rng child = parent.fork();
  EXPECT_NE(parent.next_u64(), child.next_u64());
}

TEST(Serialization, FixedWidthRoundTrip) {
  ByteWriter writer;
  writer.u8(0xab);
  writer.u16(0x1234);
  writer.u32(0xdeadbeef);
  writer.u64(0x0123456789abcdefULL);
  writer.i64(-42);
  writer.f64(3.5);

  ByteReader reader(writer.buffer());
  EXPECT_EQ(reader.u8().value(), 0xab);
  EXPECT_EQ(reader.u16().value(), 0x1234);
  EXPECT_EQ(reader.u32().value(), 0xdeadbeefu);
  EXPECT_EQ(reader.u64().value(), 0x0123456789abcdefULL);
  EXPECT_EQ(reader.i64().value(), -42);
  EXPECT_EQ(reader.f64().value(), 3.5);
  EXPECT_TRUE(reader.exhausted());
}

TEST(Serialization, VarintRoundTrip) {
  const std::uint64_t values[] = {0,    1,    127,        128,
                                  300,  1u << 20, 1ull << 40, ~0ull};
  ByteWriter writer;
  for (const auto v : values) writer.varint(v);
  ByteReader reader(writer.buffer());
  for (const auto v : values) {
    EXPECT_EQ(reader.varint().value(), v);
  }
  EXPECT_TRUE(reader.exhausted());
}

TEST(Serialization, VarintCompact) {
  ByteWriter writer;
  writer.varint(5);
  EXPECT_EQ(writer.size(), 1u);
}

TEST(Serialization, StringRoundTrip) {
  ByteWriter writer;
  writer.str("hello");
  writer.str("");
  writer.str("with \0 byte");
  ByteReader reader(writer.buffer());
  EXPECT_EQ(reader.str().value(), "hello");
  EXPECT_EQ(reader.str().value(), "");
  EXPECT_EQ(reader.str().value(), "with ");  // string_view stops at NUL here
}

TEST(Serialization, BytesRoundTrip) {
  const Bytes data{1, 2, 3, 255, 0, 7};
  ByteWriter writer;
  writer.bytes(data);
  ByteReader reader(writer.buffer());
  EXPECT_EQ(reader.bytes().value(), data);
}

TEST(Serialization, UnderflowIsError) {
  const Bytes data{0x01};
  ByteReader reader(data);
  auto r = reader.u32();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code(), ErrorCode::kParseError);
}

TEST(Serialization, TruncatedStringIsError) {
  ByteWriter writer;
  writer.varint(100);  // claims 100 bytes follow
  ByteReader reader(writer.buffer());
  EXPECT_FALSE(reader.str().ok());
}

TEST(Serialization, MalformedVarintIsError) {
  Bytes data(11, 0xff);  // continuation bit forever
  ByteReader reader(data);
  EXPECT_FALSE(reader.varint().ok());
}

TEST(Time, DurationArithmetic) {
  EXPECT_EQ(Duration::millis(2) + Duration::micros(500),
            Duration::micros(2500));
  EXPECT_EQ(Duration::seconds(1) - Duration::millis(1),
            Duration::micros(999000));
  EXPECT_EQ(Duration::millis(3) * 4, Duration::millis(12));
  EXPECT_LT(Duration::millis(1), Duration::millis(2));
}

TEST(Time, TimePointArithmetic) {
  TimePoint t{1000};
  EXPECT_EQ((t + Duration::nanos(500)).ns, 1500);
  EXPECT_EQ((TimePoint{1500} - t).ns, 500);
}

}  // namespace
}  // namespace ddbg
