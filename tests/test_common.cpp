// Unit tests for the common utility layer.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <string>
#include <utility>
#include <vector>

#include "common/crc32.h"
#include "common/det_hash.h"
#include "common/logging.h"
#include "common/random.h"
#include "common/result.h"
#include "common/stats.h"
#include "common/string_util.h"
#include "common/types.h"
#include "common/uri.h"

namespace gdmp {
namespace {

TEST(Types, TransmissionDelayMatchesArithmetic) {
  // 1 MB at 8 Mbit/s = 1.048576 s.
  const SimDuration d = transmission_delay(1 * kMiB, 8 * kMbps);
  EXPECT_NEAR(to_seconds(d), 1.048576, 1e-9);
}

TEST(Types, TransmissionDelayNeverZeroForPositiveBytes) {
  EXPECT_GE(transmission_delay(1, 100 * kGbps), 1);
}

TEST(Types, ThroughputInverseOfDelay) {
  const Bytes size = 25 * kMiB;
  const SimDuration d = transmission_delay(size, 45 * kMbps);
  EXPECT_NEAR(throughput_mbps(size, d), 45.0, 0.01);
}

TEST(Result, OkStatusIsTruthy) {
  const Status status = Status::ok();
  EXPECT_TRUE(status.is_ok());
  EXPECT_EQ(status.to_string(), "OK");
}

TEST(Result, ErrorCarriesCodeAndMessage) {
  const Status status = make_error(ErrorCode::kNotFound, "no such file");
  EXPECT_FALSE(status.is_ok());
  EXPECT_EQ(status.code(), ErrorCode::kNotFound);
  EXPECT_EQ(status.to_string(), "NOT_FOUND: no such file");
}

TEST(Result, ValueAccessAndConversion) {
  Result<int> ok = 42;
  ASSERT_TRUE(ok.is_ok());
  EXPECT_EQ(*ok, 42);
  Result<int> bad = make_error(ErrorCode::kTimedOut, "slow");
  EXPECT_FALSE(bad.is_ok());
  EXPECT_EQ(bad.code(), ErrorCode::kTimedOut);
  EXPECT_EQ(bad.value_or(7), 7);
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformIntRespectsBounds) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_int(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(Rng, ExponentialMeanApproximatelyCorrect) {
  Rng rng(11);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(3.0);
  EXPECT_NEAR(sum / n, 3.0, 0.15);
}

TEST(Rng, ZipfHeadHeavierThanTail) {
  Rng rng(13);
  int head = 0, tail = 0;
  for (int i = 0; i < 10000; ++i) {
    const auto rank = rng.zipf(1000, 1.0);
    ASSERT_GE(rank, 0);
    ASSERT_LT(rank, 1000);
    if (rank < 10) ++head;
    if (rank >= 990) ++tail;
  }
  EXPECT_GT(head, tail * 3);
}

TEST(Crc32, MatchesKnownVector) {
  // CRC32("123456789") = 0xCBF43926 (IEEE).
  const std::uint8_t data[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(crc32(data), 0xCBF43926u);
}

TEST(Crc32, IncrementalEqualsOneShot) {
  const std::uint8_t data[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  Crc32 crc;
  crc.update(std::span(data, 4));
  crc.update(std::span(data + 4, 5));
  EXPECT_EQ(crc.value(), 0xCBF43926u);
}

TEST(Crc32, SyntheticDependsOnSeedOffsetAndLength) {
  const auto base = crc32_synthetic(1, 0, 10000);
  EXPECT_NE(base, crc32_synthetic(2, 0, 10000));
  EXPECT_NE(base, crc32_synthetic(1, 4096, 10000));
  EXPECT_NE(base, crc32_synthetic(1, 0, 10001));
  EXPECT_EQ(base, crc32_synthetic(1, 0, 10000));
}

TEST(Crc32, GoldenVectors) {
  // Pin the slice-by-8 path against independently known CRC-32 values so a
  // table or combination bug cannot slip through as "self-consistent".
  const auto of_string = [](std::string_view s) {
    return crc32(std::span(reinterpret_cast<const std::uint8_t*>(s.data()),
                           s.size()));
  };
  EXPECT_EQ(of_string(""), 0x00000000u);
  EXPECT_EQ(of_string("a"), 0xE8B7BE43u);
  EXPECT_EQ(of_string("abc"), 0x352441C2u);
  EXPECT_EQ(of_string("message digest"), 0x20159D7Fu);
  EXPECT_EQ(of_string("abcdefghijklmnopqrstuvwxyz"), 0x4C2750BDu);
  EXPECT_EQ(of_string("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz"
                      "0123456789"),
            0x1FC2E6D2u);
  // 256 zero bytes (exercises several full 8-byte strides).
  const std::vector<std::uint8_t> zeros(256, 0);
  EXPECT_EQ(crc32(zeros), 0x0D968558u);
}

TEST(Crc32, SliceBy8MatchesBytewiseReferenceOnAllSplits) {
  // Reference per-byte implementation, independent of the production tables.
  const auto reference = [](std::span<const std::uint8_t> data) {
    std::uint32_t c = 0xffffffffu;
    for (const std::uint8_t byte : data) {
      c ^= byte;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? (0xedb88320u ^ (c >> 1)) : (c >> 1);
      }
    }
    return c ^ 0xffffffffu;
  };
  std::vector<std::uint8_t> data(1027);  // odd length: strided body + tail
  std::uint32_t x = 0x12345678u;
  for (auto& byte : data) {
    x = x * 1664525u + 1013904223u;  // deterministic LCG fill
    byte = static_cast<std::uint8_t>(x >> 24);
  }
  EXPECT_EQ(crc32(data), reference(data));
  // Every chunking must agree: misaligned heads force the bytewise
  // prologue/epilogue around the 8-byte strides.
  for (const std::size_t split : {1u, 3u, 7u, 8u, 9u, 63u, 512u, 1026u}) {
    Crc32 crc;
    crc.update(std::span(data.data(), split));
    crc.update(std::span(data.data() + split, data.size() - split));
    EXPECT_EQ(crc.value(), reference(data)) << "split=" << split;
  }
}

TEST(Crc32, SyntheticIncrementalConsistency) {
  Crc32 a;
  a.update_synthetic(99, 0, 8192);
  a.update_synthetic(99, 8192, 8192);
  Crc32 b;
  b.update_synthetic(99, 0, 8192);
  b.update_synthetic(99, 8192, 8192);
  EXPECT_EQ(a.value(), b.value());
}

// A register in an arbitrary prior state: eight random bytes already fed.
Crc32 random_register(Rng& rng) {
  std::array<std::uint8_t, 8> bytes{};
  for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.next());
  Crc32 crc;
  crc.update(bytes);
  return crc;
}

struct SyntheticKey {
  Crc32 prior;
  std::uint64_t seed;
  std::int64_t offset;
  std::int64_t n;
};

// Feeds `key` through the memo and through Crc32::update_synthetic and
// returns {memo value, loop value}.
std::pair<std::uint32_t, std::uint32_t> both_ways(SyntheticCrcMemo& memo,
                                                  const SyntheticKey& key) {
  Crc32 memoised = key.prior;
  memo.update_synthetic(memoised, key.seed, key.offset, key.n);
  Crc32 loop = key.prior;
  loop.update_synthetic(key.seed, key.offset, key.n);
  return {memoised.value(), loop.value()};
}

TEST(SyntheticCrcMemo, MatchesLoopOnRandomKeys) {
  Rng rng(0x5eedc0de);
  std::vector<std::int64_t> lengths = {0,          1,          4095,
                                       4096,       4097,       64 * kMiB - 1,
                                       64 * kMiB,  64 * kMiB + 1};
  for (int i = 0; i < 8; ++i) lengths.push_back(rng.uniform_int(0, 80 * kMiB));
  std::vector<SyntheticKey> keys;
  for (const std::int64_t n : lengths) {
    for (int i = 0; i < 4; ++i) {
      keys.push_back({random_register(rng), rng.next(),
                      rng.uniform_int(0, std::int64_t{1} << 40), n});
    }
  }
  SyntheticCrcMemo memo;
  // Cold, then every key again (hits), then in reverse.
  for (int pass = 0; pass < 2; ++pass) {
    for (const SyntheticKey& key : keys) {
      const auto [memoised, loop] = both_ways(memo, key);
      ASSERT_EQ(memoised, loop) << "seed " << key.seed << " offset "
                                << key.offset << " n " << key.n;
    }
  }
  for (auto it = keys.rbegin(); it != keys.rend(); ++it) {
    const auto [memoised, loop] = both_ways(memo, *it);
    ASSERT_EQ(memoised, loop);
  }
  EXPECT_GE(memo.hits(), keys.size());
}

TEST(SyntheticCrcMemo, MultiRangeSequencesMatchLoop) {
  Rng rng(0x3a17);
  SyntheticCrcMemo memo;
  for (int sequence = 0; sequence < 64; ++sequence) {
    const std::uint64_t seed = rng.next() % 4;  // shared seeds: shared keys
    std::vector<std::pair<std::int64_t, std::int64_t>> ranges;  // offset, n
    std::int64_t offset = 0;
    for (std::int64_t r = rng.uniform_int(1, 5); r > 0; --r) {
      const std::int64_t n = rng.uniform_int(0, 3) * kMiB +
                             rng.uniform_int(0, 3) * 4096 +
                             rng.uniform_int(0, 2);
      ranges.emplace_back(offset, n);
      offset += n + rng.uniform_int(0, 1) * 4096;
    }
    for (int repeat = 0; repeat < 2; ++repeat) {
      Crc32 memoised;
      Crc32 loop;
      for (const auto& [range_offset, n] : ranges) {
        memo.update_synthetic(memoised, seed, range_offset, n);
        loop.update_synthetic(seed, range_offset, n);
      }
      ASSERT_EQ(memoised.value(), loop.value()) << "sequence " << sequence;
    }
  }
  EXPECT_GT(memo.hits(), 0u);
  EXPECT_EQ(memo.crc32_synthetic(9, 0, 64 * kMiB),
            crc32_synthetic(9, 0, 64 * kMiB));
}

TEST(SyntheticCrcMemo, KeysSharingASlotEvictEachOther) {
  // For each key field, a second key that differs only in that field and
  // maps to the same slot. Alternating the two misses every time and stays
  // exact, so a memo that ignores any part of the key fails here.
  Rng rng(0xe71c7);
  const auto slot = [](const SyntheticKey& key) {
    return SyntheticCrcMemo::slot_of(key.prior, key.seed, key.offset, key.n);
  };
  for (int field = 0; field < 4; ++field) {
    const SyntheticKey a{random_register(rng), rng.next(),
                         rng.uniform_int(0, std::int64_t{1} << 30),
                         rng.uniform_int(1, 8 * kMiB)};
    SyntheticKey b = a;
    do {
      switch (field) {
        case 0: b.prior = random_register(rng); break;
        case 1: b.seed = rng.next(); break;
        case 2: b.offset = rng.uniform_int(0, std::int64_t{1} << 30); break;
        default: b.n = rng.uniform_int(1, 8 * kMiB); break;
      }
    } while (slot(b) != slot(a));
    SyntheticCrcMemo memo;
    for (int round = 0; round < 4; ++round) {
      const auto [memo_a, loop_a] = both_ways(memo, a);
      const auto [memo_b, loop_b] = both_ways(memo, b);
      ASSERT_NE(loop_a, loop_b);  // so a wrong hit cannot pass unseen
      ASSERT_EQ(memo_a, loop_a) << "field " << field << " round " << round;
      ASSERT_EQ(memo_b, loop_b) << "field " << field << " round " << round;
    }
    EXPECT_EQ(memo.hits(), 0u) << "field " << field;
    EXPECT_EQ(memo.misses(), 8u) << "field " << field;
  }
}

TEST(Uri, ParsesFullGsiftpUrl) {
  auto uri = parse_uri("gsiftp://cern.ch:2811/pool/run1.db");
  ASSERT_TRUE(uri.is_ok());
  EXPECT_EQ(uri->scheme, "gsiftp");
  EXPECT_EQ(uri->host, "cern.ch");
  EXPECT_EQ(uri->port, 2811);
  EXPECT_EQ(uri->path, "/pool/run1.db");
  EXPECT_EQ(uri->to_string(), "gsiftp://cern.ch:2811/pool/run1.db");
}

TEST(Uri, DefaultPortAndRootPath) {
  auto uri = parse_uri("mss://fnal");
  ASSERT_TRUE(uri.is_ok());
  EXPECT_EQ(uri->port, 0);
  EXPECT_EQ(uri->path, "/");
}

TEST(Uri, RejectsMalformedInput) {
  EXPECT_FALSE(parse_uri("not-a-url").is_ok());
  EXPECT_FALSE(parse_uri("://host/x").is_ok());
  EXPECT_FALSE(parse_uri("ftp://:2811/x").is_ok());
  EXPECT_FALSE(parse_uri("ftp://host:99999/x").is_ok());
}

TEST(Uri, MakeGsiftpNormalizesPath) {
  const Uri uri = make_gsiftp_uri("anl", "pool/f");
  EXPECT_EQ(uri.path, "/pool/f");
  EXPECT_EQ(uri.port, 2811);
}

TEST(StringUtil, SplitAndJoinRoundTrip) {
  const auto parts = split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(join(parts, ","), "a,b,,c");
}

TEST(StringUtil, WildcardMatching) {
  EXPECT_TRUE(wildcard_match("*", "anything"));
  EXPECT_TRUE(wildcard_match("run*.db", "run42.db"));
  EXPECT_TRUE(wildcard_match("r?n", "run"));
  EXPECT_FALSE(wildcard_match("run*.db", "run42.dbx"));
  EXPECT_TRUE(wildcard_match("/O=Grid/*", "/O=Grid/OU=cern/CN=alice"));
  EXPECT_FALSE(wildcard_match("", "x"));
  EXPECT_TRUE(wildcard_match("", ""));
}

TEST(StringUtil, FormatBytesHumanReadable) {
  EXPECT_EQ(format_bytes(512), "512.0 B");
  EXPECT_EQ(format_bytes(1536), "1.5 KiB");
  EXPECT_EQ(format_bytes(25 * 1024 * 1024), "25.0 MiB");
}

TEST(Stats, RunningStatsMoments) {
  RunningStats stats;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
    stats.add(x);
  }
  EXPECT_EQ(stats.count(), 8u);
  EXPECT_DOUBLE_EQ(stats.mean(), 5.0);
  EXPECT_NEAR(stats.stddev(), 2.138, 0.001);
  EXPECT_DOUBLE_EQ(stats.min(), 2.0);
  EXPECT_DOUBLE_EQ(stats.max(), 9.0);
}

TEST(Stats, PercentilesNearestRank) {
  Percentiles p;
  for (int i = 1; i <= 100; ++i) p.add(i);
  EXPECT_DOUBLE_EQ(p.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(p.quantile(1.0), 100.0);
  EXPECT_NEAR(p.quantile(0.5), 50.0, 1.0);
  EXPECT_NEAR(p.quantile(0.9), 90.0, 1.0);
}

TEST(Stats, PercentilesInterleavedAddAndQuantile) {
  Percentiles p;
  p.add(30.0);
  p.add(10.0);
  EXPECT_DOUBLE_EQ(p.quantile(1.0), 30.0);
  // Adding after a quantile() must invalidate the lazy sort: the new
  // maximum has to be visible, not left out-of-place past the sorted run.
  p.add(50.0);
  EXPECT_DOUBLE_EQ(p.quantile(1.0), 50.0);
  p.add(1.0);
  EXPECT_DOUBLE_EQ(p.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(p.quantile(1.0), 50.0);
}

TEST(Logging, PerComponentLevelOverride) {
  Logger& logger = Logger::global();
  const LogLevel saved = logger.level();
  logger.set_level(LogLevel::kOff);
  logger.set_component_level("gridftp", LogLevel::kDebug);

  EXPECT_TRUE(logger.enabled(LogLevel::kDebug, "gridftp"));
  EXPECT_TRUE(logger.enabled(LogLevel::kDebug, "gridftp.client"));
  EXPECT_FALSE(logger.enabled(LogLevel::kTrace, "gridftp"));
  EXPECT_FALSE(logger.enabled(LogLevel::kDebug, "gridftpx"));
  EXPECT_FALSE(logger.enabled(LogLevel::kDebug, "sched"));

  logger.clear_component_levels();
  logger.set_level(saved);
  EXPECT_FALSE(logger.enabled(LogLevel::kDebug, "gridftp"));
}

TEST(Stats, TimeSeriesWindowMean) {
  TimeSeries series;
  series.add(1 * kSecond, 10.0);
  series.add(2 * kSecond, 20.0);
  series.add(3 * kSecond, 30.0);
  EXPECT_DOUBLE_EQ(series.mean_in_window(2 * kSecond, 3 * kSecond), 25.0);
  EXPECT_DOUBLE_EQ(series.mean_in_window(10 * kSecond, 20 * kSecond), 0.0);
}

TEST(DetHash, SeedZeroIsIdentityOverStdHash) {
  common::set_hash_seed(0);
  EXPECT_EQ(common::SeededHash<std::string>{}("gdmp"),
            std::hash<std::string>{}("gdmp"));
}

TEST(DetHash, DifferentSeedsPerturbIterationOrder) {
  // The determinism harness relies on GDMP_HASH_SEED actually scrambling
  // bucket layout: two seeds must yield the same contents in a different
  // iteration order, or determinism_check --hash-perturb proves nothing.
  const auto order_under = [](std::size_t seed) {
    common::set_hash_seed(seed);
    common::UnorderedMap<std::string, int> map;
    for (int i = 0; i < 64; ++i) map["lfn-" + std::to_string(i)] = i;
    std::vector<std::string> order;
    for (const auto& [key, value] : map) order.push_back(key);
    return order;
  };
  const auto first = order_under(1);
  const auto second = order_under(2654435769u);
  common::set_hash_seed(0);  // restore baseline for the rest of the suite

  auto sorted_first = first, sorted_second = second;
  std::sort(sorted_first.begin(), sorted_first.end());
  std::sort(sorted_second.begin(), sorted_second.end());
  EXPECT_EQ(sorted_first, sorted_second);  // same 64 keys...
  EXPECT_NE(first, second);                // ...visited in different order
}

// ------------------------------------------------------------------ logging

TEST(Logger, SimTimePrefixAndComponentOverride) {
  Logger& logger = Logger::global();
  std::vector<std::string> lines;
  logger.set_sink(
      [&](LogLevel, std::string_view line) { lines.emplace_back(line); });
  logger.set_clock([] { return SimTime{12 * kSecond + 500 * kMillisecond}; });
  logger.set_level(LogLevel::kWarn);
  // Per-component override covers dotted children without opening the
  // global floodgates.
  logger.set_component_level("gridftp", LogLevel::kDebug);

  GDMP_DEBUG("gridftp.client", "window update");
  GDMP_DEBUG("sched", "suppressed by the global level");
  GDMP_WARN("sched", "queue deep");

  ASSERT_EQ(lines.size(), 2u);
  // The prefix is simulated time in the fixed "[t=12.500s]" form — never
  // wallclock (gdmp_lint's wallclock rule bans the strftime family).
  EXPECT_EQ(lines[0], "[t=12.500s] gridftp.client: window update");
  EXPECT_EQ(lines[1], "[t=12.500s] sched: queue deep");

  // Without a clock there is no time prefix.
  logger.set_clock({});
  GDMP_WARN("sched", "bare");
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[2], "sched: bare");

  logger.clear_component_levels();
  logger.set_level(LogLevel::kOff);
  logger.set_sink(nullptr);
}

}  // namespace
}  // namespace gdmp
