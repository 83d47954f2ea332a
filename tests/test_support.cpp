// Unit tests for the support layer: memory tracking, tables, virtual
// time, RNG, stats, checks — and the calibration file round trip.
#include <gtest/gtest.h>

#include <cstdio>

#include <algorithm>
#include <cmath>
#include <limits>
#include <queue>
#include <random>
#include <utility>
#include <vector>

#include "core/calibration.hpp"
#include "sim/fiber.hpp"
#include "support/check.hpp"
#include "support/indexed_heap.hpp"
#include "support/memtrack.hpp"
#include "support/numparse.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"
#include "support/table.hpp"
#include "support/vtime.hpp"

namespace stgsim {
namespace {

// ---------------------------------------------------------------------------
// Checks
// ---------------------------------------------------------------------------

TEST(Check, PassingConditionIsSilent) {
  STGSIM_CHECK(1 + 1 == 2) << "never shown";
  SUCCEED();
}

TEST(Check, FailingConditionThrowsWithContext) {
  try {
    STGSIM_CHECK_EQ(2 + 2, 5) << "math is hard";
    FAIL();
  } catch (const CheckError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("math is hard"), std::string::npos);
    EXPECT_NE(what.find("test_support.cpp"), std::string::npos);
  }
}

TEST(Check, FailurePrintsToStderrBeforeThrowing) {
  testing::internal::CaptureStderr();
  try {
    STGSIM_CHECK(false) << "visible before unwind";
    FAIL();
  } catch (const CheckError&) {
  }
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find("CHECK failed"), std::string::npos);
  EXPECT_NE(err.find("visible before unwind"), std::string::npos);
  EXPECT_NE(err.find("test_support.cpp"), std::string::npos);
}

TEST(Check, FailureDuringUnwindingIsLoggedNotFatal) {
  // A check that trips in a destructor while another exception is in
  // flight must not call std::terminate (throwing from a destructor
  // during unwinding would); it logs and lets the original propagate.
  struct TrapInDtor {
    ~TrapInDtor() { STGSIM_CHECK(false) << "dtor check"; }
  };
  testing::internal::CaptureStderr();
  try {
    TrapInDtor trap;
    throw std::runtime_error("original");
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "original");
  }
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find("dtor check"), std::string::npos);
  EXPECT_NE(err.find("suppressed"), std::string::npos);
}

TEST(Check, MessageStreamIsOffTheFrame) {
  // A frame holds a few words per check; the stream is built on the heap
  // only when the check fails (fiber frames are copied at every yield).
  EXPECT_LE(sizeof(detail::CheckMessage), 4 * sizeof(void*));
  int evaluated = 0;
  auto count = [&] { return ++evaluated; };
  STGSIM_CHECK(true) << count();
  EXPECT_EQ(evaluated, 0);
  EXPECT_THROW(STGSIM_CHECK(false) << count(), CheckError);
  EXPECT_EQ(evaluated, 1);
}

TEST(Check, FailureOutsideUnwindingThrowsFromADestructor) {
  // Only a check that fails while another exception unwinds just logs.
  struct ThrowingDtor {
    ~ThrowingDtor() noexcept(false) { STGSIM_CHECK(false) << "dtor throws"; }
  };
  testing::internal::CaptureStderr();
  try {
    { ThrowingDtor d; }
    FAIL();
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("dtor throws"), std::string::npos);
  }
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_EQ(err.find("suppressed"), std::string::npos);
}

TEST(Check, FailureInsideAFiberThrowsThere) {
  // Thrown and caught on the fiber's run stack, after the fiber's frames
  // were saved at a yield and copied back.
  simk::RunStack stack(64 * 1024);
  std::string what;
  std::string logged;
  simk::Fiber f(
      [&] {
        try {
          simk::Fiber::yield_to_scheduler();
          STGSIM_CHECK_EQ(1, 2) << "in fiber " << 7;
        } catch (const CheckError& e) {
          what = e.what();
        }
        struct TrapInDtor {
          ~TrapInDtor() { STGSIM_CHECK(false) << "fiber dtor check"; }
        };
        try {
          TrapInDtor trap;
          simk::Fiber::yield_to_scheduler();
          throw std::runtime_error("original");
        } catch (const std::runtime_error& e) {
          logged = e.what();
        }
      },
      stack);
  testing::internal::CaptureStderr();
  f.resume();
  f.resume();
  f.resume();
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_TRUE(f.finished());
  EXPECT_NE(what.find("in fiber 7"), std::string::npos) << what;
  EXPECT_EQ(logged, "original");
  EXPECT_NE(err.find("fiber dtor check"), std::string::npos);
  EXPECT_NE(err.find("suppressed"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Memory tracking
// ---------------------------------------------------------------------------

TEST(MemTrack, CurrentAndPeakFollowAllocations) {
  MemoryTracker t;
  t.add(100);
  t.add(50);
  EXPECT_EQ(t.current_bytes(), 150u);
  EXPECT_EQ(t.peak_bytes(), 150u);
  t.remove(100);
  EXPECT_EQ(t.current_bytes(), 50u);
  EXPECT_EQ(t.peak_bytes(), 150u);
  t.add(10);
  EXPECT_EQ(t.peak_bytes(), 150u);
}

TEST(MemTrack, CapRejectsAndRollsBack) {
  MemoryTracker t(100);
  t.add(80);
  EXPECT_THROW(t.add(30), MemoryCapExceeded);
  EXPECT_EQ(t.current_bytes(), 80u);  // failed add rolled back
  t.add(20);                          // exactly at the cap is fine
  EXPECT_EQ(t.current_bytes(), 100u);
}

TEST(MemTrack, CapErrorCarriesNumbers) {
  MemoryTracker t(64);
  try {
    t.add(100);
    FAIL();
  } catch (const MemoryCapExceeded& e) {
    EXPECT_EQ(e.requested_bytes, 100u);
    EXPECT_EQ(e.cap_bytes, 64u);
  }
}

TEST(MemTrack, TrackedBufferChargesForItsLifetime) {
  MemoryTracker t;
  {
    TrackedBuffer buf(&t, 4096);
    EXPECT_EQ(t.current_bytes(), 4096u);
    EXPECT_TRUE(buf.valid());
    // Zero-initialized.
    EXPECT_EQ(buf.data()[0], 0);
    EXPECT_EQ(buf.data()[4095], 0);
  }
  EXPECT_EQ(t.current_bytes(), 0u);
  EXPECT_EQ(t.peak_bytes(), 4096u);
}

TEST(MemTrack, TrackedBufferMoveTransfersOwnership) {
  MemoryTracker t;
  TrackedBuffer a(&t, 128);
  TrackedBuffer b = std::move(a);
  EXPECT_FALSE(a.valid());
  EXPECT_TRUE(b.valid());
  EXPECT_EQ(t.current_bytes(), 128u);
  TrackedBuffer c(&t, 64);
  c = std::move(b);
  EXPECT_EQ(t.current_bytes(), 128u);  // the 64B buffer was released
}

// ---------------------------------------------------------------------------
// Tables
// ---------------------------------------------------------------------------

TEST(Table, AsciiAlignsColumns) {
  TablePrinter t({"a", "long header"});
  t.add_row({"1", "x"});
  t.add_row({"22", "yy"});
  const std::string out = t.to_ascii();
  EXPECT_NE(out.find("| a  | long header |"), std::string::npos);
  EXPECT_NE(out.find("| 22 | yy          |"), std::string::npos);
}

TEST(Table, RowWidthMismatchThrows) {
  TablePrinter t({"a", "b"});
  EXPECT_THROW(t.add_row({"only one"}), CheckError);
}

TEST(Table, CsvEscapesSpecials) {
  TablePrinter t({"name", "note"});
  t.add_row({"x,y", "say \"hi\""});
  const std::string csv = t.to_csv();
  EXPECT_NE(csv.find("\"x,y\""), std::string::npos);
  EXPECT_NE(csv.find("\"say \"\"hi\"\"\""), std::string::npos);
}

TEST(Table, Formatters) {
  EXPECT_EQ(TablePrinter::fmt(3.14159, 2), "3.14");
  EXPECT_EQ(TablePrinter::fmt_int(-42), "-42");
  EXPECT_EQ(TablePrinter::fmt_bytes(512), "512 B");
  EXPECT_EQ(TablePrinter::fmt_bytes(2048), "2.00 KB");
  EXPECT_EQ(TablePrinter::fmt_bytes(3 * 1024 * 1024), "3.00 MB");
  EXPECT_EQ(TablePrinter::fmt_percent(0.123, 1), "12.3%");
}

// ---------------------------------------------------------------------------
// Virtual time
// ---------------------------------------------------------------------------

TEST(VTimeTest, ConversionsRoundTrip) {
  EXPECT_EQ(vtime_from_us(1), 1000);
  EXPECT_EQ(vtime_from_ms(1), 1000000);
  EXPECT_EQ(vtime_from_sec(1.0), 1000000000);
  EXPECT_DOUBLE_EQ(vtime_to_sec(vtime_from_sec(2.5)), 2.5);
  EXPECT_DOUBLE_EQ(vtime_to_us(vtime_from_us(7.0)), 7.0);
}

TEST(VTimeTest, FormattingPicksUnits) {
  EXPECT_EQ(vtime_to_string(500), "500 ns");
  EXPECT_EQ(vtime_to_string(vtime_from_us(1.5)), "1.500 us");
  EXPECT_EQ(vtime_to_string(vtime_from_ms(2)), "2.000 ms");
  EXPECT_EQ(vtime_to_string(vtime_from_sec(3)), "3.000 s");
  EXPECT_EQ(vtime_to_string(kVTimeNever), "never");
}

// ---------------------------------------------------------------------------
// RNG
// ---------------------------------------------------------------------------

TEST(RngTest, SameSeedSameStream) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(RngTest, DoublesInUnitInterval) {
  Rng r(5);
  for (int i = 0; i < 1000; ++i) {
    const double d = r.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, NextBelowRespectsBound) {
  Rng r(7);
  for (std::uint64_t bound : {1ull, 2ull, 7ull, 1000ull}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(r.next_below(bound), bound);
  }
}

TEST(RngTest, NextInIsInclusiveAndCoversRange) {
  Rng r(11);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const auto v = r.next_in(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(RngTest, GaussianHasReasonableMoments) {
  Rng r(13);
  double sum = 0, sq = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double g = r.next_gaussian();
    sum += g;
    sq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sq / n, 1.0, 0.05);
}

// ---------------------------------------------------------------------------
// Stats
// ---------------------------------------------------------------------------

TEST(Stats, RelativeErrors) {
  EXPECT_DOUBLE_EQ(relative_error(110.0, 100.0), 0.10);
  EXPECT_DOUBLE_EQ(relative_error(90.0, 100.0), -0.10);
  EXPECT_DOUBLE_EQ(abs_relative_error(90.0, 100.0), 0.10);
  EXPECT_THROW(relative_error(1.0, 0.0), CheckError);
}

TEST(Stats, MeanMaxGeomean) {
  std::vector<double> xs{1.0, 4.0, 16.0};
  EXPECT_DOUBLE_EQ(mean(xs), 7.0);
  EXPECT_DOUBLE_EQ(max_value(xs), 16.0);
  EXPECT_NEAR(geomean(xs), 4.0, 1e-12);
}

TEST(Stats, RunningStatsTracksStream) {
  RunningStats rs;
  EXPECT_EQ(rs.count(), 0u);
  for (double x : {3.0, 1.0, 2.0}) rs.add(x);
  EXPECT_EQ(rs.count(), 3u);
  EXPECT_DOUBLE_EQ(rs.mean(), 2.0);
  EXPECT_DOUBLE_EQ(rs.min(), 1.0);
  EXPECT_DOUBLE_EQ(rs.max(), 3.0);
}

// ---------------------------------------------------------------------------
// Calibration files
// ---------------------------------------------------------------------------

TEST(Calibration, SaveLoadRoundTripsAtFullPrecision) {
  const std::string path = "/tmp/stgsim_params_test.txt";
  std::map<std::string, double> params{
      {"w_a", 1.2345678901234567e-8}, {"w_b", 3.25}, {"w_c", 0.0}};
  core::save_params(path, params);
  const auto loaded = core::load_params(path);
  EXPECT_EQ(loaded.size(), 3u);
  EXPECT_DOUBLE_EQ(loaded.at("w_a"), params.at("w_a"));
  EXPECT_DOUBLE_EQ(loaded.at("w_b"), 3.25);
  std::remove(path.c_str());
}

TEST(Calibration, MissingFileThrows) {
  EXPECT_THROW(core::load_params("/nonexistent/params.txt"), CheckError);
}

// ---------------------------------------------------------------------------

TEST(IndexedMinHeap, PopsInKeyThenIdOrder) {
  IndexedMinHeap<int> h(8);
  h.push(3, 50);
  h.push(1, 10);
  h.push(6, 10);  // same key as id 1: id tie-break, 1 first
  h.push(0, 99);
  EXPECT_EQ(h.size(), 4u);
  EXPECT_EQ(h.top(), (std::pair<int, int>{10, 1}));
  EXPECT_EQ(h.pop(), 1);
  EXPECT_EQ(h.pop(), 6);
  EXPECT_EQ(h.pop(), 3);
  EXPECT_EQ(h.pop(), 0);
  EXPECT_TRUE(h.empty());
}

TEST(IndexedMinHeap, UpdateMovesBothDirections) {
  IndexedMinHeap<int> h(4);
  for (int i = 0; i < 4; ++i) h.push(i, 10 * (i + 1));
  h.update(3, 5);    // decrease-key: now the minimum
  h.update(0, 100);  // increase-key: now the maximum
  EXPECT_EQ(h.pop(), 3);
  EXPECT_EQ(h.pop(), 1);
  EXPECT_EQ(h.pop(), 2);
  EXPECT_EQ(h.pop(), 0);
}

TEST(IndexedMinHeap, EraseAndReinsert) {
  IndexedMinHeap<int> h(4);
  for (int i = 0; i < 4; ++i) h.push(i, i);
  h.erase(0);
  EXPECT_FALSE(h.contains(0));
  EXPECT_EQ(h.pop(), 1);
  h.push(0, 2);  // same key as id 2: id tie-break
  EXPECT_EQ(h.pop(), 0);
  EXPECT_EQ(h.pop(), 2);
  EXPECT_EQ(h.pop(), 3);
}

// The heap must agree with std::priority_queue (the seed's scheduler
// structure) on every pop across a randomized workload with duplicates
// keys and interleaved re-pushes — this IS the determinism argument.
TEST(IndexedMinHeap, MatchesPriorityQueueUnderRandomWorkload) {
  using KI = std::pair<long long, int>;
  std::mt19937 rng(20260807);
  IndexedMinHeap<long long> h(64);
  std::priority_queue<KI, std::vector<KI>, std::greater<KI>> ref;
  std::vector<bool> queued(64, false);
  for (int step = 0; step < 5000; ++step) {
    const int op = static_cast<int>(rng() % 3);
    if (op != 0 && !ref.empty()) {
      auto [k, id] = ref.top();
      ref.pop();
      ASSERT_EQ(h.top(), (std::pair<long long, int>{k, id})) << "step " << step;
      ASSERT_EQ(h.pop(), id);
      queued[static_cast<std::size_t>(id)] = false;
    } else {
      const int id = static_cast<int>(rng() % 64);
      if (queued[static_cast<std::size_t>(id)]) continue;
      const long long key = static_cast<long long>(rng() % 50);
      h.push(id, key);
      ref.emplace(key, id);
      queued[static_cast<std::size_t>(id)] = true;
    }
  }
  while (!ref.empty()) {
    ASSERT_EQ(h.pop(), ref.top().second);
    ref.pop();
  }
  EXPECT_TRUE(h.empty());
}

// smallest<K> must list the K least (key, id) pairs in order, as the first
// K pops would, without changing the heap.
TEST(IndexedMinHeap, SmallestListsTheFirstPopsInOrder) {
  std::mt19937 rng(20261021);
  IndexedMinHeap<long long> h(64);
  std::vector<std::pair<long long, int>> ref;
  std::vector<int> got;
  for (int step = 0; step < 2000; ++step) {
    const int id = static_cast<int>(rng() % 64);
    const long long key = static_cast<long long>(rng() % 20);
    if (h.contains(id)) {
      h.update(id, key);
      for (auto& e : ref) {
        if (e.second == id) e.first = key;
      }
    } else {
      h.push(id, key);
      ref.emplace_back(key, id);
    }
    std::sort(ref.begin(), ref.end());
    h.smallest<8>(&got);
    ASSERT_EQ(got.size(), std::min<std::size_t>(8, ref.size()));
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i], ref[i].second) << "step " << step << " rank " << i;
    }
    ASSERT_EQ(h.top(), ref.front());
  }
}

// ---------------------------------------------------------------------------
// Locale-independent number parsing (numparse.hpp)
// ---------------------------------------------------------------------------

TEST(NumParse, ParsesIntegersIncludingSignsAndRejectsJunk) {
  using support::ParseNumStatus;
  long long v = 0;
  EXPECT_EQ(support::parse_i64("42", &v), ParseNumStatus::kOk);
  EXPECT_EQ(v, 42);
  EXPECT_EQ(support::parse_i64("-7", &v), ParseNumStatus::kOk);
  EXPECT_EQ(v, -7);
  // from_chars itself rejects a leading '+'; the helper accepts it.
  EXPECT_EQ(support::parse_i64("+8", &v), ParseNumStatus::kOk);
  EXPECT_EQ(v, 8);
  for (const char* bad : {"", "+", "12x", "1.5", " 3", "3 ", "0x10"}) {
    EXPECT_EQ(support::parse_i64(bad, &v), ParseNumStatus::kBadFormat)
        << bad;
  }
}

TEST(NumParse, IntegerOverflowIsAStructuredStatusNotUB) {
  long long v = 0;
  EXPECT_EQ(support::parse_i64("99999999999999999999", &v),
            support::ParseNumStatus::kOutOfRange);
  EXPECT_EQ(support::parse_i64("-99999999999999999999", &v),
            support::ParseNumStatus::kOutOfRange);
}

TEST(NumParse, ParsesDoublesAndRejectsNonFiniteSpellings) {
  using support::ParseNumStatus;
  double d = 0.0;
  EXPECT_EQ(support::parse_f64("3.25", &d), ParseNumStatus::kOk);
  EXPECT_DOUBLE_EQ(d, 3.25);
  EXPECT_EQ(support::parse_f64("-1e3", &d), ParseNumStatus::kOk);
  EXPECT_DOUBLE_EQ(d, -1000.0);
  EXPECT_EQ(support::parse_f64("+2.5", &d), ParseNumStatus::kOk);
  EXPECT_DOUBLE_EQ(d, 2.5);
  EXPECT_EQ(support::parse_f64("1e999", &d), ParseNumStatus::kOutOfRange);
  for (const char* nf : {"inf", "-inf", "Infinity", "nan", "NaN", "-NAN"}) {
    EXPECT_EQ(support::parse_f64(nf, &d), ParseNumStatus::kNotFinite) << nf;
  }
  for (const char* bad : {"", "+", "2,5", "1e", "12 "}) {
    EXPECT_EQ(support::parse_f64(bad, &d), ParseNumStatus::kBadFormat)
        << bad;
  }
}

// ---------------------------------------------------------------------------
// Bench ratio math (stats.hpp): degenerate runs must stay finite
// ---------------------------------------------------------------------------

TEST(Stats, SafeRateIsFiniteOnDegenerateDurations) {
  // A sub-clock-tick run reports 0.0 seconds; the rate must clamp, not
  // divide by zero (the JSON writer rejects non-finite numbers).
  EXPECT_TRUE(std::isfinite(safe_rate(1e6, 0.0)));
  EXPECT_TRUE(std::isfinite(safe_rate(0.0, 0.0)));
  EXPECT_TRUE(std::isfinite(safe_rate(1e6, -1.0)));
  EXPECT_DOUBLE_EQ(safe_rate(500.0, 2.0), 250.0);
}

TEST(Stats, SafeSpeedupIsFiniteOnDegenerateBaselines) {
  EXPECT_DOUBLE_EQ(safe_speedup(2.0, 1.0), 2.0);
  // Zero/negative/NaN durations on either side read as "no data" (0),
  // never inf or nan.
  EXPECT_DOUBLE_EQ(safe_speedup(0.0, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(safe_speedup(1.0, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(safe_speedup(0.0, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(safe_speedup(-1.0, 2.0), 0.0);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_DOUBLE_EQ(safe_speedup(nan, 2.0), 0.0);
  EXPECT_DOUBLE_EQ(safe_speedup(2.0, nan), 0.0);
}

}  // namespace
}  // namespace stgsim
