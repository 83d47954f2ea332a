// Unit tests for the PDES kernel: fibers, message delivery, scheduling
// determinism, the threaded conservative mode and abort unwinding.
#include <gtest/gtest.h>

#include <signal.h>
#include <unistd.h>
#include <xmmintrin.h>

#include <algorithm>
#include <atomic>
#include <cfenv>
#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "sim/engine.hpp"
#include "sim/mailbox.hpp"

namespace stgsim::simk {
namespace {

// ---------------------------------------------------------------------------
// Fibers
// ---------------------------------------------------------------------------

TEST(Fiber, RunsBodyToCompletion) {
  RunStack stack(64 * 1024);
  int x = 0;
  Fiber f([&] { x = 42; }, stack);
  EXPECT_FALSE(f.finished());
  f.resume();
  EXPECT_TRUE(f.finished());
  EXPECT_EQ(x, 42);
}

TEST(Fiber, YieldSuspendsAndResumes) {
  RunStack stack(64 * 1024);
  std::vector<int> log;
  Fiber f(
      [&] {
        log.push_back(1);
        Fiber::yield_to_scheduler();
        log.push_back(3);
        Fiber::yield_to_scheduler();
        log.push_back(5);
      },
      stack);
  f.resume();
  log.push_back(2);
  f.resume();
  log.push_back(4);
  EXPECT_FALSE(f.finished());
  f.resume();
  EXPECT_TRUE(f.finished());
  EXPECT_EQ(log, (std::vector<int>{1, 2, 3, 4, 5}));
}

TEST(Fiber, CurrentIsSetInsideFiberOnly) {
  RunStack stack(64 * 1024);
  EXPECT_EQ(Fiber::current(), nullptr);
  Fiber* observed = nullptr;
  Fiber f([&] { observed = Fiber::current(); }, stack);
  f.resume();
  EXPECT_EQ(observed, &f);
  EXPECT_EQ(Fiber::current(), nullptr);
}

TEST(Fiber, DeepStackUsageSurvives) {
  // Recursion touching well under the stack size must work; the guard
  // page below the stack is for the case beyond it.
  RunStack stack(256 * 1024);
  std::function<int(int)> rec = [&](int n) -> int {
    char pad[512];
    pad[0] = static_cast<char>(n);
    return n == 0 ? pad[0] : rec(n - 1) + 1;
  };
  int out = -1;
  Fiber f([&] { out = rec(200); }, stack);
  f.resume();
  EXPECT_EQ(out, 200);
}

TEST(Fiber, FloatingPointControlIsPerFiber) {
  // Rounding mode lives in both MXCSR and the x87 control word; a switch
  // must carry both with the fiber, not leak them to the scheduler.
  RunStack stack(64 * 1024);
  ASSERT_EQ(std::fegetround(), FE_TONEAREST);
  int before_yield = -1;
  int after_resume = -1;
  unsigned sse_after_resume = 0;
  Fiber f(
      [&] {
        std::fesetround(FE_UPWARD);
        before_yield = std::fegetround();
        Fiber::yield_to_scheduler();
        after_resume = std::fegetround();
        sse_after_resume = _MM_GET_ROUNDING_MODE();
      },
      stack);
  f.resume();
  EXPECT_EQ(before_yield, FE_UPWARD);
  EXPECT_EQ(std::fegetround(), FE_TONEAREST);
  EXPECT_EQ(_MM_GET_ROUNDING_MODE(), static_cast<unsigned>(_MM_ROUND_NEAREST));
  f.resume();
  EXPECT_TRUE(f.finished());
  EXPECT_EQ(after_resume, FE_UPWARD);
  EXPECT_EQ(sse_after_resume, static_cast<unsigned>(_MM_ROUND_UP));
  EXPECT_EQ(std::fegetround(), FE_TONEAREST);
  EXPECT_EQ(_MM_GET_ROUNDING_MODE(), static_cast<unsigned>(_MM_ROUND_NEAREST));
}

TEST(Fiber, FramesAreSavedAtAYieldAndFreedAtTheEnd) {
  // Fibers share one run stack: each yield moves the live frames to the
  // fiber's own buffer, and a resume puts them back at the same addresses,
  // so locals (and pointers to them) survive other fibers' turns.
  RunStack stack(64 * 1024);
  std::vector<int> seen;
  auto body = [&](int base) {
    int local = base;
    int* self = &local;
    Fiber::yield_to_scheduler();
    *self += 1;
    Fiber::yield_to_scheduler();
    seen.push_back(local);
  };
  Fiber a([&] { body(10); }, stack);
  Fiber b([&] { body(20); }, stack);
  EXPECT_EQ(a.saved_bytes(), 0u);  // never started: nothing saved
  a.resume();
  b.resume();
  EXPECT_GT(a.saved_bytes(), 0u);
  EXPECT_LT(a.saved_bytes(), 4096u);
  a.resume();
  b.resume();
  b.resume();
  a.resume();
  EXPECT_TRUE(a.finished());
  EXPECT_TRUE(b.finished());
  EXPECT_EQ(a.saved_bytes(), 0u);
  EXPECT_EQ(a.saved_frames(), nullptr);
  EXPECT_EQ(seen, (std::vector<int>{21, 11}));
}

// Stack overflow death test state: the neighbour fiber's saved frames and
// the guard page's bounds, checked by the SIGSEGV handler on its own
// signal stack.
constexpr std::size_t kSentinelBytes = 1024;
const volatile unsigned char* g_saved = nullptr;
std::size_t g_saved_bytes = 0;
std::uintptr_t g_guard_lo = 0;
std::uintptr_t g_guard_hi = 0;
volatile int g_overflow_depth_limit = 1 << 30;

/// True when `frames` hold the neighbour's sentinel: kSentinelBytes of
/// 0x5a in a row.
bool holds_sentinel(const volatile unsigned char* frames, std::size_t n) {
  std::size_t run = 0;
  for (std::size_t i = 0; i < n; ++i) {
    run = frames[i] == 0x5a ? run + 1 : 0;
    if (run == kSentinelBytes) return true;
  }
  return false;
}

void exit_on_overflow(int, siginfo_t* info, void*) {
  const auto addr = reinterpret_cast<std::uintptr_t>(info->si_addr);
  if (addr < g_guard_lo || addr >= g_guard_hi) _exit(46);  // not the guard
  if (!holds_sentinel(g_saved, g_saved_bytes)) _exit(43);  // overwritten
  _exit(42);
}

int recurse_forever(int depth) {
  volatile unsigned char pad[512];
  pad[0] = static_cast<unsigned char>(depth);
  if (depth >= g_overflow_depth_limit) return pad[0];
  return recurse_forever(depth + 1) + pad[0];
}

// The sentinel is a local of this frame on the run stack (no sanitizer
// moves it to a fake stack), so the yield saves it with the frames.
[[gnu::noinline, gnu::no_sanitize_address]] void yield_with_sentinel() {
  volatile unsigned char sentinel[kSentinelBytes];
  for (std::size_t i = 0; i < kSentinelBytes; ++i) sentinel[i] = 0x5a;
  Fiber::yield_to_scheduler();
  sentinel[0] = sentinel[1];
}

void overflow_next_to_neighbour() {
  static unsigned char alt_stack[64 * 1024];
  stack_t ss{};
  ss.ss_sp = alt_stack;
  ss.ss_size = sizeof alt_stack;
  sigaltstack(&ss, nullptr);
  struct sigaction sa {};
  sa.sa_sigaction = exit_on_overflow;
  sa.sa_flags = SA_ONSTACK | SA_SIGINFO;
  sigaction(SIGSEGV, &sa, nullptr);

  // The neighbour suspends with a sentinel in its saved frames; then a
  // fiber on the same run stack recurses until it runs off the bottom.
  RunStack stack(64 * 1024);
  Fiber neighbour([] { yield_with_sentinel(); }, stack);
  neighbour.resume();
  g_saved = neighbour.saved_frames();
  g_saved_bytes = neighbour.saved_bytes();
  if (!holds_sentinel(g_saved, g_saved_bytes)) _exit(44);
  g_guard_hi = reinterpret_cast<std::uintptr_t>(stack.lo());
  g_guard_lo = g_guard_hi - static_cast<std::uintptr_t>(sysconf(_SC_PAGESIZE));
  Fiber overflow([] { recurse_forever(0); }, stack);
  overflow.resume();
  _exit(45);  // the recursion returned: no fault
}

TEST(Fiber, StackOverflowHitsGuardPage) {
  // Exit 42: the overflow faulted in the guard page below the run stack
  // with the suspended neighbour's saved frames intact (43: they were
  // overwritten, 44: the yield did not save the sentinel, 45: no fault at
  // all, 46: the fault was not in the guard page).
  EXPECT_EXIT(overflow_next_to_neighbour(), testing::ExitedWithCode(42), "");
}

// ---------------------------------------------------------------------------
// Engine basics
// ---------------------------------------------------------------------------

Message make_msg(int src, int dst, int tag, VTime sent, VTime arrival) {
  Message m;
  m.src = src;
  m.dst = dst;
  m.tag = tag;
  m.sent_at = sent;
  m.arrival = arrival;
  return m;
}

MatchSpec match_tag(int src, int tag) {
  MatchSpec s;
  s.src = src;
  s.tag = tag;
  return s;
}

TEST(Engine, SingleProcessAdvancesClock) {
  EngineConfig cfg;
  cfg.num_processes = 1;
  Engine e(cfg);
  e.set_body([](Process& p) {
    p.advance(vtime_from_us(10));
    p.advance(vtime_from_us(5));
  });
  auto r = e.run();
  EXPECT_EQ(r.completion, vtime_from_us(15));
  EXPECT_EQ(r.per_rank_completion.size(), 1u);
}

TEST(Engine, RunIsSingleShot) {
  EngineConfig cfg;
  Engine e(cfg);
  e.set_body([](Process&) {});
  e.run();
  EXPECT_THROW(e.run(), CheckError);
}

TEST(Engine, MessageDeliveryAndMaxSemantics) {
  EngineConfig cfg;
  cfg.num_processes = 2;
  Engine e(cfg);
  e.set_body([](Process& p) {
    if (p.rank() == 0) {
      p.advance(vtime_from_us(3));
      p.send(make_msg(0, 1, 7, p.now(), p.now() + vtime_from_us(10)));
    } else {
      Message m = p.blocking_match(match_tag(0, 7));
      p.lift_clock(m.arrival);
      // Receiver was at 0, message arrives at 13us.
      EXPECT_EQ(p.now(), vtime_from_us(13));
    }
  });
  auto r = e.run();
  EXPECT_EQ(r.per_rank_completion[1], vtime_from_us(13));
  EXPECT_EQ(r.messages_delivered, 1u);
}

TEST(Engine, LateReceiverKeepsItsOwnClock) {
  EngineConfig cfg;
  cfg.num_processes = 2;
  Engine e(cfg);
  e.set_body([](Process& p) {
    if (p.rank() == 0) {
      p.send(make_msg(0, 1, 1, 0, vtime_from_us(5)));
    } else {
      p.advance(vtime_from_us(100));  // receiver is past the arrival
      Message m = p.blocking_match(match_tag(0, 1));
      p.lift_clock(m.arrival);
      EXPECT_EQ(p.now(), vtime_from_us(100));  // max(100, 5)
    }
  });
  e.run();
}

TEST(Engine, FifoPerChannelMatchingOrder) {
  EngineConfig cfg;
  cfg.num_processes = 2;
  Engine e(cfg);
  e.set_body([](Process& p) {
    if (p.rank() == 0) {
      // Second message has an earlier arrival, but same tag: matching
      // must still deliver in send order (MPI non-overtaking).
      p.send(make_msg(0, 1, 5, 0, vtime_from_us(50)));
      p.send(make_msg(0, 1, 5, 0, vtime_from_us(10)));
    } else {
      p.advance(vtime_from_us(60));
      Message first = p.blocking_match(match_tag(0, 5));
      Message second = p.blocking_match(match_tag(0, 5));
      EXPECT_EQ(first.arrival, vtime_from_us(50));
      EXPECT_EQ(second.arrival, vtime_from_us(10));
      EXPECT_LT(first.seq, second.seq);
    }
  });
  e.run();
}

TEST(Engine, TagSelectiveMatchingSkipsNonMatching) {
  EngineConfig cfg;
  cfg.num_processes = 2;
  Engine e(cfg);
  e.set_body([](Process& p) {
    if (p.rank() == 0) {
      p.send(make_msg(0, 1, 1, 0, vtime_from_us(1)));
      p.send(make_msg(0, 1, 2, 0, vtime_from_us(2)));
    } else {
      Message m2 = p.blocking_match(match_tag(0, 2));
      EXPECT_EQ(m2.tag, 2);
      Message m1 = p.blocking_match(match_tag(0, 1));
      EXPECT_EQ(m1.tag, 1);
    }
  });
  e.run();
}

TEST(Engine, WildcardPicksEarliestArrivalAcrossSources) {
  EngineConfig cfg;
  cfg.num_processes = 3;
  Engine e(cfg);
  e.set_body([](Process& p) {
    if (p.rank() == 0) {
      p.send(make_msg(0, 2, 9, 0, vtime_from_us(30)));
    } else if (p.rank() == 1) {
      p.send(make_msg(1, 2, 9, 0, vtime_from_us(20)));
    } else {
      p.advance(vtime_from_us(100));  // both candidates present
      MatchSpec any;
      any.src = MatchSpec::kAnySource;
      any.tag = 9;
      Message first = p.blocking_match(any);
      EXPECT_EQ(first.src, 1);  // earlier arrival
      Message second = p.blocking_match(any);
      EXPECT_EQ(second.src, 0);
    }
  });
  e.run();
}

TEST(Engine, TryMatchDoesNotBlock) {
  EngineConfig cfg;
  cfg.num_processes = 1;
  Engine e(cfg);
  e.set_body([](Process& p) {
    Message out;
    EXPECT_FALSE(p.try_match(match_tag(0, 1), &out));
  });
  e.run();
}

TEST(Engine, UnionSpecMatchesAnyAlternative) {
  EngineConfig cfg;
  cfg.num_processes = 3;
  Engine e(cfg);
  e.set_body([](Process& p) {
    if (p.rank() == 0) {
      p.send(make_msg(0, 2, 5, 0, vtime_from_us(9)));
    } else if (p.rank() == 1) {
      p.send(make_msg(1, 2, 6, 0, vtime_from_us(4)));
    } else {
      p.advance(vtime_from_us(50));
      MatchSpec alts[2];
      alts[0].src = 0;
      alts[0].tag = 5;
      alts[1].src = 1;
      alts[1].tag = 6;
      MatchSpec united;
      united.src = MatchSpec::kAnySource;
      united.any_of = alts;
      united.any_of_count = 2;
      // Earliest arrival among the alternatives wins.
      Message first = p.blocking_match(united);
      EXPECT_EQ(first.src, 1);
      Message second = p.blocking_match(united);
      EXPECT_EQ(second.src, 0);
    }
  });
  e.run();
}

TEST(Engine, WildcardParksUntilSafeBoundThenPicksEarliest) {
  // The wildcard race this PR fixes. Rank 2 posts an ANY_SOURCE receive
  // while rank 0's message (arrival 100us) is already queued — but rank 1,
  // whose clock is still below arrival - min_latency, has yet to send an
  // *earlier*-arriving message (60us). Committing to the queued candidate
  // on sight is wrong: the receive must park until the safe bound
  // (min unfinished peer clock + min latency) passes the candidate's
  // arrival, then take the earliest arrival among all candidates.
  //
  // Slices are run-to-block, so the interleaving is forced with a token:
  // rank 1 blocks on rank 2's "go" message, guaranteeing rank 1 is still
  // unfinished (clock 0) at the moment rank 2 sees rank 0's candidate.
  EngineConfig cfg;
  cfg.num_processes = 3;
  Engine e(cfg);
  e.set_wildcard_min_latency(vtime_from_us(5));
  e.set_body([](Process& p) {
    if (p.rank() == 0) {
      p.send(make_msg(0, 2, 9, 0, vtime_from_us(100)));
    } else if (p.rank() == 1) {
      Message go = p.blocking_match(match_tag(2, 1));
      p.lift_clock(go.arrival);   // 30us
      p.advance(vtime_from_us(20));
      p.send(make_msg(1, 2, 9, p.now(), vtime_from_us(60)));
    } else {
      p.send(make_msg(2, 1, 1, 0, vtime_from_us(30)));
      MatchSpec any;
      any.src = MatchSpec::kAnySource;
      any.tag = 9;
      Message first = p.blocking_match(any);
      EXPECT_EQ(first.src, 1);  // the late-sent but earlier-arriving one
      EXPECT_EQ(first.arrival, vtime_from_us(60));
      Message second = p.blocking_match(any);
      EXPECT_EQ(second.src, 0);
    }
  });
  e.run();
}

TEST(Engine, KindAndAuxMatchingSelectsProtocolTraffic) {
  EngineConfig cfg;
  cfg.num_processes = 2;
  Engine e(cfg);
  e.set_body([](Process& p) {
    if (p.rank() == 0) {
      Message a = make_msg(0, 1, 3, 0, vtime_from_us(1));
      a.kind = 1;
      a.aux = 77;
      p.send(std::move(a));
      Message b = make_msg(0, 1, 3, 0, vtime_from_us(2));
      b.kind = 2;
      b.aux = 88;
      p.send(std::move(b));
    } else {
      MatchSpec s;
      s.src = 0;
      s.kind_mask = 1u << 2;
      s.match_aux = true;
      s.aux = 88;
      Message m = p.blocking_match(s);
      EXPECT_EQ(m.kind, 2);
      EXPECT_EQ(m.aux, 88u);
      // The kind-1 message is still queued and matchable afterwards.
      MatchSpec r;
      r.src = 0;
      r.kind_mask = 1u << 1;
      Message n = p.blocking_match(r);
      EXPECT_EQ(n.kind, 1);
    }
  });
  e.run();
}

// Regression for inbox memory growth: after heavy message churn the
// engine's overhead must be bounded by *peak in-flight* demand, not by the
// total number of messages exchanged.
TEST(Engine, PoolOverheadBoundedUnderChurn) {
  constexpr int kRounds = 5000;
  EngineConfig cfg;
  cfg.num_processes = 2;
  Engine e(cfg);
  e.set_body([](Process& p) {
    std::vector<std::uint8_t> buf(512, 0xab);
    const int peer = 1 - p.rank();
    for (int i = 0; i < kRounds; ++i) {
      if (p.rank() == 0) {
        Message m = make_msg(0, 1, 1, p.now(), p.now() + vtime_from_us(1));
        m.payload = p.make_payload(buf.data(), buf.size());
        p.send(std::move(m));
        Message ack = p.blocking_match(match_tag(peer, 2));
        p.lift_clock(ack.arrival);
      } else {
        Message m = p.blocking_match(match_tag(peer, 1));
        p.lift_clock(m.arrival);
        EXPECT_EQ(m.payload.size(), 512u);
        Message ack = make_msg(1, 0, 2, p.now(), p.now() + vtime_from_us(1));
        ack.payload = p.make_payload(buf.data(), buf.size());
        p.send(std::move(ack));
      }
    }
  });
  e.run();

  const auto arena = e.arena_stats();
  EXPECT_EQ(arena.live, 0u);          // every message was consumed
  EXPECT_LE(arena.capacity, 1024u);   // bounded by in-flight peak, not 10k
  const auto pool = e.payload_stats();
  EXPECT_EQ(pool.outstanding, 0u);
  EXPECT_LE(pool.retained_bytes, std::size_t{1} << 16);
}

TEST(Engine, DeadlockIsDetectedAndReported) {
  EngineConfig cfg;
  cfg.num_processes = 2;
  Engine e(cfg);
  e.set_body([](Process& p) {
    // Both wait for a message that never comes.
    p.blocking_match(match_tag(1 - p.rank(), 0));
  });
  EXPECT_THROW(e.run(), DeadlockError);
}

TEST(Engine, DeadlockErrorCarriesStructuredBlockedRanks) {
  EngineConfig cfg;
  cfg.num_processes = 2;
  Engine e(cfg);
  e.set_body([](Process& p) {
    p.advance(vtime_from_us(1 + p.rank()));
    MatchSpec s = match_tag(1 - p.rank(), 4);
    s.what = "recv";
    s.user_tag = 4;
    p.blocking_match(s);
  });
  try {
    e.run();
    FAIL() << "expected DeadlockError";
  } catch (const DeadlockError& d) {
    ASSERT_EQ(d.blocked().size(), 2u);
    for (const auto& b : d.blocked()) {
      EXPECT_EQ(b.clock, vtime_from_us(1 + b.rank));
      EXPECT_EQ(b.waiting_src, 1 - b.rank);
      EXPECT_EQ(b.waiting_tag, 4);
      EXPECT_EQ(b.waiting_what, "recv");
    }
    EXPECT_NE(std::string(d.what()).find("deadlock"), std::string::npos);
    EXPECT_NE(std::string(d.what()).find("tag=4"), std::string::npos);
  }
}

TEST(Engine, VirtualTimeBudgetStopsRunawayFiber) {
  EngineConfig cfg;
  cfg.num_processes = 1;
  cfg.max_virtual_time = vtime_from_us(100);
  Engine e(cfg);
  e.set_body([](Process& p) {
    for (;;) p.advance(vtime_from_us(1));  // never returns on its own
  });
  try {
    e.run();
    FAIL() << "expected BudgetExceededError";
  } catch (const BudgetExceededError& b) {
    EXPECT_EQ(b.kind(), BudgetExceededError::Kind::kVirtualTime);
  }
}

TEST(Engine, MessageBudgetStopsChatter) {
  // Every rank but the last floods the last one, and only the last rank
  // receives, so its worker alone delivers: the run stops at exactly
  // cap + 1 messages at every worker count and under either protocol,
  // whether the crossing delivery is a mailbox drain or a send from the
  // receiver's own worker. (The budget's count is the one run-wide
  // delivered count that stays shared.)
  constexpr int kProcs = 8;
  constexpr int kSink = kProcs - 1;
  for (const bool optimistic : {false, true}) {
    for (const int workers : {1, 2, 4}) {
      EngineConfig cfg;
      cfg.num_processes = kProcs;
      cfg.host_workers = workers;
      cfg.optimistic = optimistic;
      cfg.max_messages = 50;
      Engine e(cfg);
      e.set_body([](Process& p) {
        if (p.rank() != kSink) {
          for (int i = 0; i < 200; ++i) {
            p.send(make_msg(p.rank(), kSink, 1, p.now(),
                            p.now() + vtime_from_us(1)));
            p.advance(vtime_from_us(1));
          }
          return;
        }
        for (;;) {
          for (int src = 0; src < kSink; ++src) {
            p.blocking_match(match_tag(src, 1));
          }
        }
      });
      const std::string where = "workers=" + std::to_string(workers) +
                                (optimistic ? " optimistic" : " conservative");
      try {
        e.run();
        ADD_FAILURE() << where << ": expected BudgetExceededError";
      } catch (const BudgetExceededError& b) {
        EXPECT_EQ(b.kind(), BudgetExceededError::Kind::kMessages) << where;
        EXPECT_STREQ(b.what(),
                     "message budget exceeded: 51 messages delivered (cap 50)")
            << where;
      }
    }
  }
}

TEST(Engine, HostWatchdogStopsSpinningRun) {
  EngineConfig cfg;
  cfg.num_processes = 1;
  cfg.max_host_seconds = 0.05;
  Engine e(cfg);
  e.set_body([](Process& p) {
    for (;;) p.advance(1);  // 1 ns per step: years of host time unchecked
  });
  try {
    e.run();
    FAIL() << "expected BudgetExceededError";
  } catch (const BudgetExceededError& b) {
    EXPECT_EQ(b.kind(), BudgetExceededError::Kind::kHostWallClock);
  }
}

TEST(Engine, HostWatchdogStopsSpinningThreadedWorker) {
  // Two ranks in the same partition ping-ponging zero-latency messages
  // never leave run_partition_round (every wake lands in the same worker's
  // ready list), so the between-rounds watchdog on the scheduler thread
  // never gets a chance — the in-loop probe inside the round must fire
  // instead. The same holds when a schedule oracle makes every pick (MC
  // mode): its resumes and lane deliveries run in the same round loop.
  struct FirstOption : ScheduleOracle {
    std::size_t choose(const std::vector<ChoiceOption>&) override {
      return 0;
    }
  };
  FirstOption first_option;
  for (ScheduleOracle* oracle : {static_cast<ScheduleOracle*>(nullptr),
                                 static_cast<ScheduleOracle*>(&first_option)}) {
    SCOPED_TRACE(oracle == nullptr ? "heap picks" : "oracle picks");
    EngineConfig cfg;
    cfg.num_processes = 2;
    cfg.host_workers = 1;  // both ranks share one partition
    cfg.max_host_seconds = 0.2;
    cfg.oracle = oracle;
    Engine e(cfg);
    e.set_body([](Process& p) {
      MatchSpec from_peer;
      from_peer.src = 1 - p.rank();
      from_peer.tag = 1;
      if (p.rank() == 0) p.send(make_msg(0, 1, 1, p.now(), p.now()));
      for (;;) {
        (void)p.blocking_match(from_peer);
        p.send(make_msg(p.rank(), 1 - p.rank(), 1, p.now(), p.now()));
      }
    });
    try {
      e.run();
      FAIL() << "expected BudgetExceededError";
    } catch (const BudgetExceededError& b) {
      EXPECT_EQ(b.kind(), BudgetExceededError::Kind::kHostWallClock);
    }
  }
}

TEST(Engine, AbortUnwindsBlockedFibersRunningDestructors) {
  static std::atomic<int> destroyed{0};
  struct Sentinel {
    ~Sentinel() { ++destroyed; }
  };
  destroyed = 0;
  EngineConfig cfg;
  cfg.num_processes = 3;
  Engine e(cfg);
  e.set_body([](Process& p) {
    Sentinel s;
    if (p.rank() == 0) {
      // Block until the LAST rank pokes us, so every fiber has started
      // (and suspended) by the time we blow up. Wake rank 1 first: it is
      // then ready but never resumed, and must be unwound all the same.
      p.blocking_match(match_tag(2, 1));
      p.send(make_msg(0, 1, 99, p.now(), p.now()));
      throw std::runtime_error("boom");
    }
    if (p.rank() == 2) {
      p.send(make_msg(2, 0, 1, 0, vtime_from_us(1)));
    }
    p.blocking_match(match_tag(0, 99));  // blocks forever on rank 2
  });
  EXPECT_THROW(e.run(), std::runtime_error);
  // All three fibers' stack objects were destroyed (0 threw; 1, woken,
  // and 2, blocked, were unwound via FiberAborted).
  EXPECT_EQ(destroyed.load(), 3);
}

TEST(Engine, PerProcessRngStreamsAreIndependentAndDeterministic) {
  auto collect = [] {
    std::vector<std::uint64_t> vals;
    EngineConfig cfg;
    cfg.num_processes = 4;
    cfg.seed = 99;
    Engine e(cfg);
    std::mutex m;
    e.set_body([&](Process& p) {
      std::lock_guard<std::mutex> lock(m);
      vals.push_back(p.rng().next_u64());
    });
    e.run();
    std::sort(vals.begin(), vals.end());
    return vals;
  };
  auto a = collect();
  auto b = collect();
  EXPECT_EQ(a, b);
  EXPECT_EQ(std::set<std::uint64_t>(a.begin(), a.end()).size(), a.size());
}

// ---------------------------------------------------------------------------
// Determinism: sequential vs threaded, and across runs
// ---------------------------------------------------------------------------

/// A little token-ring workload with data-dependent forwarding times.
void ring_body(Process& p) {
  const int n = p.world_size();
  const int next = (p.rank() + 1) % n;
  const int prev = (p.rank() + n - 1) % n;
  VTime hold = vtime_from_us(1 + p.rank() % 3);
  for (int round = 0; round < 5; ++round) {
    if (p.rank() == 0 && round == 0) {
      Message m;
      m.src = 0;
      m.dst = next;
      m.tag = 1;
      m.sent_at = p.now();
      m.arrival = p.now() + vtime_from_us(7);
      p.send(std::move(m));
    }
    MatchSpec spec;
    spec.src = prev;
    spec.tag = 1;
    Message tok = p.blocking_match(spec);
    p.lift_clock(tok.arrival);
    p.advance(hold);
    Message fwd;
    fwd.src = p.rank();
    fwd.dst = next;
    fwd.tag = 1;
    fwd.sent_at = p.now();
    fwd.arrival = p.now() + vtime_from_us(7);
    p.send(std::move(fwd));
  }
  // Rank 0's injected token means its successor ends with one unconsumed
  // message in its inbox — legal, like an unmatched MPI send at exit.
}

std::vector<VTime> run_ring(int procs, int workers) {
  EngineConfig cfg;
  cfg.num_processes = procs;
  cfg.host_workers = workers;
  Engine e(cfg);
  e.set_body(ring_body);
  return e.run().per_rank_completion;
}

TEST(Engine, RepeatedRunsAreBitIdentical) {
  EXPECT_EQ(run_ring(6, 1), run_ring(6, 1));
}

class ThreadedEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(ThreadedEquivalence, MatchesSequentialScheduler) {
  const int workers = GetParam();
  auto seq = run_ring(8, 1);
  auto par = run_ring(8, workers);
  EXPECT_EQ(seq, par) << "workers = " << workers;
}

INSTANTIATE_TEST_SUITE_P(Workers, ThreadedEquivalence,
                         ::testing::Values(2, 3, 4, 8));

TEST(Engine, SingleWorkerTakesSequentialFastPath) {
  // One worker must not pay for threads or mailboxes: the round driver
  // runs inline on the caller's thread, so parallel stats stay zero.
  EngineConfig cfg;
  cfg.num_processes = 6;
  cfg.host_workers = 1;
  Engine e(cfg);
  e.set_body(ring_body);
  auto par = e.run().per_rank_completion;
  EXPECT_EQ(par, run_ring(6, 1));
  EXPECT_EQ(e.parallel_stats().rounds, 0u);
  EXPECT_EQ(e.parallel_stats().cross_messages(), 0u);
}

TEST(Engine, OneWorkerPromotesParkedWildcardsBetweenSlices) {
  // Rank 0's wildcard receive parks on rank 1's message (arrival 1us)
  // while ranks 2 and 3 are still at clock 0. Once rank 2 blocks at 21us
  // with rank 3 ready at 20us, the candidate is bound-safe and rank 0 must
  // run next — before rank 3, so rank 0's reply is queued by the time
  // rank 3 asks for it. Deferring promotion until no rank is runnable
  // would cost rank 3 an extra block-and-wake slice (9 instead of 8).
  EngineConfig cfg;
  cfg.num_processes = 4;
  Engine e(cfg);
  e.set_body([](Process& p) {
    const VTime us = vtime_from_us(1);
    auto recv = [&](int src, int tag) {
      p.lift_clock(p.blocking_match(match_tag(src, tag)).arrival);
    };
    switch (p.rank()) {
      case 0:
        recv(MatchSpec::kAnySource, 1);
        p.send(make_msg(0, 2, 2, p.now(), p.now() + us));
        p.send(make_msg(0, 3, 3, p.now(), p.now() + us));
        break;
      case 1:
        p.send(make_msg(1, 0, 1, 0, us));
        break;
      case 2:
        recv(3, 4);
        p.send(make_msg(2, 3, 5, p.now(), p.now() + us));
        recv(0, 2);
        break;
      case 3:
        p.advance(20 * us);
        p.send(make_msg(3, 2, 4, p.now(), p.now() + us));
        recv(2, 5);
        recv(0, 3);
        break;
    }
  });
  const RunResult r = e.run();
  EXPECT_EQ(r.slices, 8u);
  EXPECT_EQ(r.per_rank_completion[3], vtime_from_us(22));
}

TEST(Engine, OneWorkerStopsAtFirstError) {
  // The slice that throws ends the run: no other rank is resumed after it
  // (blocked fibers are unwound without an on_resume).
  struct ResumeLog : EngineObserver {
    std::vector<int> ranks;
    void on_resume(int rank, VTime) override { ranks.push_back(rank); }
  } log;
  EngineConfig cfg;
  cfg.num_processes = 4;
  cfg.host_workers = 1;
  cfg.observer = &log;
  Engine e(cfg);
  e.set_body([](Process& p) {
    if (p.rank() == 1) throw std::runtime_error("boom");
    p.blocking_match(match_tag((p.rank() + 1) % p.world_size(), 7));
  });
  EXPECT_THROW(e.run(), std::runtime_error);
  EXPECT_EQ(log.ranks, (std::vector<int>{0, 1}));
}

TEST(Engine, ThreadedRunPopulatesParallelStats) {
  EngineConfig cfg;
  cfg.num_processes = 8;
  cfg.host_workers = 4;
  Engine e(cfg);
  e.set_body(ring_body);
  e.run();
  const ParallelStats& ps = e.parallel_stats();
  EXPECT_GT(ps.rounds, 0u);
  // The ring crosses every block boundary, so some traffic must be
  // cross-partition; the rest stays on-worker.
  EXPECT_GT(ps.cross_messages(), 0u);
  EXPECT_GT(ps.intra_messages, 0u);
  ASSERT_EQ(ps.worker_slices.size(), 4u);
  std::uint64_t slices = 0;
  for (auto s : ps.worker_slices) slices += s;
  EXPECT_GT(slices, 0u);
}

TEST(Engine, ThreadedArenasDrainAndSlicesSumWorkerSlices) {
  // Each rank exchanges kMsgs payload-carrying messages with the rank half
  // the ring away, which runs on another worker. Every node goes back to
  // its worker's arena, and the run's slice count is the sum of the
  // workers' slices.
  constexpr int kProcs = 8;
  constexpr int kMsgs = 40;
  const VTime us = vtime_from_us(1);
  auto body = [&](Process& p) {
    const std::uint8_t bytes[96] = {};
    const int to = (p.rank() + kProcs / 2) % kProcs;
    for (int i = 0; i < kMsgs; ++i) {
      Message m = make_msg(p.rank(), to, 1, p.now(), p.now() + us);
      m.payload = p.make_payload(bytes, sizeof bytes);
      p.send(std::move(m));
      p.lift_clock(p.blocking_match(match_tag(to, 1)).arrival);
      p.advance(us);
    }
  };
  for (const bool optimistic : {false, true}) {
    for (const int workers : {1, 2, 4}) {
      const std::string where = "workers=" + std::to_string(workers) +
                                (optimistic ? " optimistic" : " conservative");
      EngineConfig cfg;
      cfg.num_processes = kProcs;
      cfg.host_workers = workers;
      cfg.optimistic = optimistic;
      Engine e(cfg);
      e.set_body(body);
      const RunResult r = e.run();
      EXPECT_EQ(r.messages_delivered, std::uint64_t{kProcs} * kMsgs) << where;
      const auto arena = e.arena_stats();
      EXPECT_EQ(arena.live, 0u) << where;
      EXPECT_GT(arena.capacity, 0u) << where;
      // Time Warp's consumption logs still share the payloads they hold.
      if (!optimistic) {
        EXPECT_EQ(e.payload_stats().outstanding, 0u) << where;
      }
      const ParallelStats& ps = e.parallel_stats();
      if (workers == 1) {
        EXPECT_TRUE(ps.worker_slices.empty()) << where;
        EXPECT_GT(r.slices, 0u) << where;
        continue;
      }
      ASSERT_EQ(ps.worker_slices.size(), static_cast<std::size_t>(workers));
      std::uint64_t slices = 0;
      for (const std::uint64_t s : ps.worker_slices) slices += s;
      EXPECT_EQ(r.slices, slices) << where;
      EXPECT_GT(ps.cross_messages(), 0u) << where;
    }
  }
}

TEST(Engine, ThreadedAntiMessagesKeepDeliveredCount) {
  // Ranks 0 and 2 run on worker 0, rank 1 on worker 1 and rank 3 on the
  // last worker. Rank 0 wildcard-receives twice and forwards to rank 3
  // after the first. Under Time Warp, rank 1 sends its early-arriving
  // message only once rank 0 committed to rank 2's later one, so rank 0
  // rolls back and an anti-message annihilates the forward on rank 3's
  // worker, queued or consumed. The committed delivered count must equal
  // the conservative run's: every annihilation takes its delivery back.
  const VTime us = vtime_from_us(1);
  struct Run {
    RunResult result;
    ParallelStats stats;
  };
  auto run = [&](int workers, bool optimistic) {
    std::atomic<bool> committed{false};
    EngineConfig cfg;
    cfg.num_processes = 4;
    cfg.host_workers = workers;
    cfg.optimistic = optimistic;
    if (workers > 1) cfg.partition = {0, 1, 0, workers - 1};
    const bool force = optimistic && workers > 1;
    Engine e(cfg);
    e.set_body([&](Process& p) {
      switch (p.rank()) {
        case 0:
          for (int i = 0; i < 2; ++i) {
            const Message m =
                p.blocking_match(match_tag(MatchSpec::kAnySource, 1));
            p.lift_clock(m.arrival);
            if (i == 0) {
              committed.store(true);
              p.send(make_msg(0, 3, 2, p.now(), p.now() + us));
            }
          }
          break;
        case 1: {
          // Bounded, so a schedule that never commits cannot hang the test.
          const auto give_up =
              std::chrono::steady_clock::now() + std::chrono::seconds(10);
          while (force && !committed.load() &&
                 std::chrono::steady_clock::now() < give_up) {
            std::this_thread::yield();
          }
          p.send(make_msg(1, 0, 1, 0, us));
          break;
        }
        case 2:
          p.send(make_msg(2, 0, 1, 0, 100 * us));
          break;
        default:
          p.lift_clock(p.blocking_match(match_tag(0, 2)).arrival);
          break;
      }
    });
    Run out;
    out.result = e.run();
    out.stats = e.parallel_stats();
    return out;
  };
  const Run want = run(1, false);
  EXPECT_EQ(want.result.messages_delivered, 3u);
  for (const int workers : {2, 4}) {
    const Run conservative = run(workers, false);
    const Run got = run(workers, true);
    const std::string where = "workers=" + std::to_string(workers);
    EXPECT_EQ(conservative.result.per_rank_completion,
              want.result.per_rank_completion) << where;
    EXPECT_EQ(conservative.result.messages_delivered, 3u) << where;
    EXPECT_EQ(got.result.per_rank_completion, want.result.per_rank_completion)
        << where;
    EXPECT_GE(got.stats.rollbacks, 1u) << where;
    EXPECT_GE(got.stats.anti_messages, 1u) << where;
    EXPECT_EQ(got.result.messages_delivered,
              conservative.result.messages_delivered) << where;
  }
}

TEST(Engine, ThreadedGvtWaitsForTheReceiversRepublish) {
  // A receiver may release a drained message from its sender's floor word
  // only after its own word covers what the delivery did. Worker 0 holds
  // A (rank 0), D (2) and G (7); worker 1 holds B (1), C (3), F (4), E (5)
  // and E2 (6). Under Time Warp A commits D's message at 100 us and blocks
  // there; worker 0 publishes that, and D then holds worker 0 until B has
  // queued a straggler for A (1 us) and a message for G (600 us). Worker 0
  // drains both in one go: the straggler rolls A back, and G's wakeup
  // holds worker 0 inside the drain until worker 1 has run 2 * kPings
  // slices of E and E2 (more than one fold period) with C blocked at
  // 60 us on a speculative commit to F's message (50 us). The straggler
  // must still bound those folds: A's re-execution sends C a message at
  // 2 us that C should have taken first. Had a fold passed 50 us (worker
  // 1's word without the straggler is 60 us), C's commit would already be
  // final and C would end at 70 us instead of 60 us.
  const VTime us = vtime_from_us(1);
  constexpr int kPings = 300;
  auto run = [&](int workers, bool optimistic) {
    std::atomic<bool> published{false};
    std::atomic<bool> pushed{false};
    std::atomic<bool> stalled{false};
    std::atomic<bool> spun{false};
    std::atomic<bool> held{false};
    const bool force = optimistic && workers > 1;
    // Bounded, so a schedule that never gets there cannot hang the test.
    const auto give_up =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    auto wait_for = [&](const std::atomic<bool>& flag) {
      while (force && !flag.load() &&
             std::chrono::steady_clock::now() < give_up) {
        std::this_thread::yield();
      }
    };
    struct HoldOnWake : EngineObserver {
      std::function<void(int)> fn;
      void on_wake(int rank, VTime, VTime) override { fn(rank); }
    } hold;
    hold.fn = [&](int rank) {
      if (rank != 7 || !force || held.exchange(true)) return;
      stalled.store(true);
      wait_for(spun);
    };
    EngineConfig cfg;
    cfg.num_processes = 8;
    cfg.host_workers = workers;
    cfg.optimistic = optimistic;
    cfg.observer = &hold;
    if (workers > 1) cfg.partition = {0, 1, 0, 1, 1, 1, 1, 0};
    Engine e(cfg);
    e.set_body([&](Process& p) {
      switch (p.rank()) {
        case 0:  // A
          for (int i = 0; i < 2; ++i) {
            const Message m =
                p.blocking_match(match_tag(MatchSpec::kAnySource, 1));
            p.lift_clock(m.arrival);
            if (i > 0) continue;
            if (m.src == 1) p.send(make_msg(0, 3, 2, p.now(), p.now() + us));
            p.send(make_msg(0, 2, 8, p.now(), p.now() + us));
          }
          break;
        case 1:  // B
          wait_for(published);
          p.send(make_msg(1, 0, 1, 0, us));
          p.send(make_msg(1, 7, 12, 0, 600 * us));
          pushed.store(true);
          break;
        case 2:  // D
          p.send(make_msg(2, 0, 1, 0, 100 * us));
          p.advance(200 * us);
          p.lift_clock(p.blocking_match(match_tag(0, 8)).arrival);
          published.store(true);
          wait_for(pushed);
          break;
        case 3:  // C
          for (int i = 0; i < 2; ++i) {
            p.lift_clock(
                p.blocking_match(match_tag(MatchSpec::kAnySource, 2)).arrival);
            p.advance(10 * us);
            if (i == 0) p.send(make_msg(3, 5, 9, p.now(), p.now() + us));
          }
          break;
        case 4:  // F
          p.send(make_msg(4, 3, 2, 0, 50 * us));
          break;
        case 5:  // E
          p.advance(1000 * us);
          p.lift_clock(p.blocking_match(match_tag(3, 9)).arrival);
          wait_for(stalled);
          for (int i = 0; i < kPings; ++i) {
            p.send(make_msg(5, 6, 10, p.now(), p.now() + us));
            p.lift_clock(p.blocking_match(match_tag(6, 11)).arrival);
          }
          spun.store(true);
          break;
        case 6:  // E2
          p.advance(1000 * us);
          for (int i = 0; i < kPings; ++i) {
            p.lift_clock(p.blocking_match(match_tag(5, 10)).arrival);
            p.send(make_msg(6, 5, 11, p.now(), p.now() + us));
          }
          break;
        default:  // G
          p.advance(500 * us);
          p.lift_clock(p.blocking_match(match_tag(1, 12)).arrival);
          break;
      }
    });
    const RunResult result = e.run();
    EXPECT_EQ(held.load(), force) << "worker 0 was never held mid-drain";
    if (force) {
      EXPECT_GE(e.parallel_stats().rollbacks, 1u);
    }
    return result;
  };
  const RunResult want = run(1, false);
  EXPECT_EQ(want.per_rank_completion[3], 60 * us);
  const RunResult got = run(2, true);
  EXPECT_EQ(got.per_rank_completion, want.per_rank_completion);
}

TEST(Engine, ThreadedConservativeDeliversCrossPartitionMidRound) {
  // Four ranks on two workers (block partition: 0,1 -> worker 0; 2,3 ->
  // worker 1), chained 0 -> 2 -> 1 -> 3, so every hop crosses partitions.
  // Rank 0 pushes the first hop in its first slice, while worker 0 still
  // counts in the round; worker 1 cannot leave the round before worker 0
  // goes idle, so its drain takes that message mid-round.
  const int chain[] = {0, 2, 1, 3};
  auto body = [&](Process& p) {
    int pos = 0;
    while (chain[pos] != p.rank()) ++pos;
    if (pos > 0) {
      p.lift_clock(p.blocking_match(match_tag(chain[pos - 1], 1)).arrival);
    }
    p.advance(vtime_from_us(3));
    if (pos < 3) {
      p.send(make_msg(p.rank(), chain[pos + 1], 1, p.now(),
                      p.now() + vtime_from_us(2)));
    }
  };
  auto run = [&](int workers, ParallelStats* ps) {
    EngineConfig cfg;
    cfg.num_processes = 4;
    cfg.host_workers = workers;
    Engine e(cfg);
    e.set_body(body);
    const RunResult r = e.run();
    if (ps != nullptr) *ps = e.parallel_stats();
    return r.per_rank_completion;
  };
  ParallelStats ps;
  EXPECT_EQ(run(2, &ps), run(1, nullptr));
  EXPECT_GT(ps.mailbox_messages, 0u);
  EXPECT_EQ(ps.cross_messages(), 3u);
  EXPECT_EQ(ps.intra_messages, 0u);
}

TEST(Engine, ThreadedWildcardLosesToSlowerPeersEarlierArrival) {
  // Ranks 0 and 1 run on worker 0, ranks 2 and 3 on worker 1. Rank 0's
  // wildcard receive has rank 1's message (arrival 100us) queued while
  // rank 2, whose clock is still 0, sends one that arrives at 50us. Rank 0
  // must take rank 2's message first whichever way host time falls:
  //  * in a lane: rank 2 sends while rank 0 is inside a slice, so worker
  //    0 cannot drain it before rank 0 checks its candidate, after rank 2
  //    finished: only worker 1's in-transit term stops the commit;
  //  * not yet sent: rank 2 sends only after rank 0's candidate is queued
  //    and rank 1 has finished, so only worker 1's clock floor stops it.
  const VTime us = vtime_from_us(1);
  for (const bool in_lane : {true, false}) {
    std::atomic<bool> candidate_queued{false};
    std::atomic<bool> receiver_in_slice{false};
    std::atomic<bool> rival_sent{false};
    std::vector<int> order;
    auto settle = [] {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    };
    EngineConfig cfg;
    cfg.num_processes = 4;
    cfg.host_workers = 2;
    Engine e(cfg);
    e.set_body([&](Process& p) {
      switch (p.rank()) {
        case 0:
          if (in_lane) {
            p.blocking_match(match_tag(1, 9));
            receiver_in_slice.store(true);
            while (!rival_sent.load()) std::this_thread::yield();
            settle();
          }
          for (int i = 0; i < 2; ++i) {
            const Message m = p.blocking_match(match_tag(MatchSpec::kAnySource, 1));
            p.lift_clock(m.arrival);
            order.push_back(m.src);
          }
          break;
        case 1:
          p.send(make_msg(1, 0, 1, 0, 100 * us));
          if (in_lane) p.send(make_msg(1, 0, 9, 0, us));
          candidate_queued.store(true);
          break;
        case 2:
          if (in_lane) {
            while (!receiver_in_slice.load()) std::this_thread::yield();
          } else {
            while (!candidate_queued.load()) std::this_thread::yield();
            settle();
          }
          p.send(make_msg(2, 0, 1, 0, 50 * us));
          rival_sent.store(true);
          break;
        default:
          break;
      }
    });
    e.run();
    EXPECT_EQ(order, (std::vector<int>{2, 1})) << "in_lane=" << in_lane;
  }
}

TEST(Engine, ThreadedStuckPromotionRearmsWorkers) {
  // Rank 0, alone on worker 0, makes 2 * kSends wildcard receives from
  // ranks 1 and 2 on other workers, each of which waits for rank 0's reply
  // before it sends again. A parked candidate's sender is therefore
  // blocked at a clock below its arrival, so no bound admits it: only the
  // quiescence step's stuck promotion decides each receive (Time Warp
  // commits on sight instead), and the step must set every worker running
  // again each time.
  constexpr int kSends = 6;
  const VTime us = vtime_from_us(1);
  struct Run {
    std::vector<VTime> completion;
    std::uint64_t digest = 0;  ///< FNV-1a over rank 0's (src, arrival) picks
    std::uint64_t rounds = 0;
  };
  auto run = [&](int workers, bool optimistic) {
    EngineConfig cfg;
    cfg.num_processes = 3;
    cfg.host_workers = workers;
    cfg.optimistic = optimistic;
    if (workers > 1) cfg.partition = {0, 1, workers - 1};
    Engine e(cfg);
    Run out;
    e.set_body([&](Process& p) {
      if (p.rank() != 0) {
        for (int i = 0; i < kSends; ++i) {
          p.advance((2 + p.rank()) * us);  // the two senders interleave
          p.send(make_msg(p.rank(), 0, 1, p.now(), p.now() + 5 * us));
          p.lift_clock(p.blocking_match(match_tag(0, 2)).arrival);
        }
        return;
      }
      // Local until the end: a Time Warp rollback re-executes the body.
      std::uint64_t digest = 0xcbf29ce484222325ULL;
      for (int i = 0; i < 2 * kSends; ++i) {
        const Message m =
            p.blocking_match(match_tag(MatchSpec::kAnySource, 1));
        p.lift_clock(m.arrival);
        for (const VTime v : {static_cast<VTime>(m.src), m.arrival}) {
          digest = (digest ^ static_cast<std::uint64_t>(v)) * 0x100000001b3ULL;
        }
        p.advance(us);
        p.send(make_msg(0, m.src, 2, p.now(), p.now() + us));
      }
      out.digest = digest;
    });
    out.completion = e.run().per_rank_completion;
    out.rounds = e.parallel_stats().rounds;
    return out;
  };
  const Run want = run(1, false);
  EXPECT_EQ(want.rounds, 0u);
  for (const bool optimistic : {false, true}) {
    for (const int workers : {1, 2, 4}) {
      const Run got = run(workers, optimistic);
      const std::string where = "workers=" + std::to_string(workers) +
                                (optimistic ? " optimistic" : " conservative");
      EXPECT_EQ(got.digest, want.digest) << where;
      EXPECT_EQ(got.completion, want.completion) << where;
      if (workers > 1) {
        EXPECT_GE(got.rounds, 1u) << where;
        // Every receive took a stuck promotion, and with it a re-arm.
        if (!optimistic) {
          EXPECT_GT(got.rounds, 1u) << where;
        }
      }
    }
  }
}

TEST(Engine, ThreadedDrainPermutationPastSixtyFourWorkers) {
  // A schedule oracle may reorder each worker's mailbox drain; the engine
  // checks the order is still a permutation of the sender workers. With
  // 65 workers the sender ids reach 64, past a 64-bit mask.
  struct ReverseDrain : ScheduleOracle {
    std::size_t choose(const std::vector<ChoiceOption>&) override {
      return 0;
    }
    void permute_drain_order(int, std::vector<int>& from) override {
      std::reverse(from.begin(), from.end());
    }
  };
  ReverseDrain reverse;
  EngineConfig cfg;
  cfg.num_processes = 130;
  cfg.host_workers = 65;
  cfg.oracle = &reverse;
  Engine e(cfg);
  e.set_body(ring_body);
  EXPECT_EQ(e.run().per_rank_completion, run_ring(130, 1));
}

TEST(Engine, ThreadedDeadlockReportsPerWorkerDetail) {
  EngineConfig cfg;
  cfg.num_processes = 4;
  cfg.host_workers = 2;
  Engine e(cfg);
  e.set_body([](Process& p) {
    // Everyone waits on a tag nobody sends.
    p.blocking_match(match_tag((p.rank() + 1) % p.world_size(), 7));
  });
  try {
    e.run();
    FAIL() << "expected DeadlockError";
  } catch (const DeadlockError& d) {
    ASSERT_EQ(d.blocked().size(), 4u);
    for (const auto& b : d.blocked()) {
      // Block partition of 4 ranks over 2 workers: ranks 0,1 -> worker 0.
      EXPECT_EQ(b.home_worker, b.rank / 2);
    }
    EXPECT_NE(std::string(d.what()).find("worker"), std::string::npos);
  }
}

// ---------------------------------------------------------------------------
// SPSC mailbox lane
// ---------------------------------------------------------------------------

TEST(SpscLane, PushNeverFailsAcrossChunks) {
  // Several chunks' worth with no consumer: push never fails, and the
  // consumer then sees every value in FIFO order across chunk links.
  SpscLane<int, 4> lane;
  int out = -1;
  EXPECT_FALSE(lane.try_pop(&out));
  for (int i = 0; i < 4 * 5 + 3; ++i) lane.push(int{i});
  for (int i = 0; i < 4 * 5 + 3; ++i) {
    ASSERT_TRUE(lane.try_pop(&out));
    EXPECT_EQ(out, i);
  }
  EXPECT_FALSE(lane.try_pop(&out));
  lane.push(99);  // the consumer's chunk is still usable after draining
  ASSERT_TRUE(lane.try_pop(&out));
  EXPECT_EQ(out, 99);
}

TEST(SpscLane, WrapsAroundManyTimes) {
  // Bursts of 1..7 pushes against 3-slot chunks: the consumer empties the
  // lane at every chunk offset, and drained chunks are recycled.
  SpscLane<std::uint64_t, 3> lane;
  std::uint64_t next_push = 0;
  std::uint64_t next_pop = 0;
  for (std::uint64_t burst = 0; next_push < 1000; ++burst) {
    for (std::uint64_t k = 0; k <= burst % 7; ++k) lane.push(next_push++);
    std::uint64_t out;
    while (lane.try_pop(&out)) EXPECT_EQ(out, next_pop++);
    EXPECT_EQ(next_pop, next_push);
  }
}

TEST(SpscLane, ConcurrentProducerConsumerPreservesOrder) {
  SpscLane<std::uint64_t, 16> lane;
  constexpr std::uint64_t kCount = 100000;
  std::thread producer([&] {
    for (std::uint64_t i = 0; i < kCount; ++i) lane.push(std::uint64_t{i});
  });
  std::uint64_t expect = 0;
  while (expect < kCount) {
    std::uint64_t out;
    if (lane.try_pop(&out)) {
      ASSERT_EQ(out, expect);
      ++expect;
    }
  }
  producer.join();
  std::uint64_t out;
  EXPECT_FALSE(lane.try_pop(&out));
}

// Wait-until-blocked semantics: a process that never blocks finishes in
// one slice and others still make progress.
TEST(Engine, NonBlockingProcessesFinishIndependently) {
  EngineConfig cfg;
  cfg.num_processes = 4;
  Engine e(cfg);
  e.set_body([](Process& p) { p.advance(vtime_from_us(p.rank() + 1)); });
  auto r = e.run();
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(r.per_rank_completion[static_cast<std::size_t>(i)],
              vtime_from_us(i + 1));
  }
}

}  // namespace
}  // namespace stgsim::simk
