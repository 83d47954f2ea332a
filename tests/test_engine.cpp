// Unit tests for the PDES kernel: fibers, message delivery, scheduling
// determinism, the threaded conservative mode, abort unwinding, and the
// host-trace replay model.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "sim/engine.hpp"
#include "sim/mailbox.hpp"
#include "sim/worker_pool.hpp"

namespace stgsim::simk {
namespace {

// ---------------------------------------------------------------------------
// Fibers
// ---------------------------------------------------------------------------

TEST(Fiber, RunsBodyToCompletion) {
  int x = 0;
  Fiber f([&] { x = 42; }, 64 * 1024);
  EXPECT_FALSE(f.finished());
  f.resume();
  EXPECT_TRUE(f.finished());
  EXPECT_EQ(x, 42);
}

TEST(Fiber, YieldSuspendsAndResumes) {
  std::vector<int> log;
  Fiber f(
      [&] {
        log.push_back(1);
        Fiber::yield_to_scheduler();
        log.push_back(3);
        Fiber::yield_to_scheduler();
        log.push_back(5);
      },
      64 * 1024);
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
  EXPECT_EQ(Fiber::current(), nullptr);
  Fiber* observed = nullptr;
  Fiber f([&] { observed = Fiber::current(); }, 64 * 1024);
  f.resume();
  EXPECT_EQ(observed, &f);
  EXPECT_EQ(Fiber::current(), nullptr);
}

TEST(Fiber, DeepStackUsageSurvives) {
  // Recursion touching well under the stack size must work; the guard
  // page exists for the case beyond it (not testable without SIGSEGV).
  std::function<int(int)> rec = [&](int n) -> int {
    char pad[512];
    pad[0] = static_cast<char>(n);
    return n == 0 ? pad[0] : rec(n - 1) + 1;
  };
  int out = -1;
  Fiber f([&] { out = rec(200); }, 256 * 1024);
  f.resume();
  EXPECT_EQ(out, 200);
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
  EngineConfig cfg;
  cfg.num_processes = 2;
  cfg.max_messages = 50;
  Engine e(cfg);
  e.set_body([](Process& p) {
    if (p.rank() == 0) {
      for (;;) {
        p.send(make_msg(0, 1, 1, p.now(), p.now() + vtime_from_us(1)));
        p.advance(vtime_from_us(1));
      }
    }
    for (;;) p.blocking_match(match_tag(0, 1));
  });
  try {
    e.run();
    FAIL() << "expected BudgetExceededError";
  } catch (const BudgetExceededError& b) {
    EXPECT_EQ(b.kind(), BudgetExceededError::Kind::kMessages);
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
  // One worker must not pay for the pool or mailboxes: the round driver
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
  ASSERT_EQ(ps.worker_busy_vtime.size(), 4u);
  ASSERT_EQ(ps.worker_slices.size(), 4u);
  std::uint64_t slices = 0;
  for (auto s : ps.worker_slices) slices += s;
  EXPECT_GT(slices, 0u);
  EXPECT_FALSE(ps.window_advance_hist.empty());
  std::uint64_t hist_total = 0;
  for (auto c : ps.window_advance_hist) hist_total += c;
  EXPECT_EQ(hist_total, ps.rounds);
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

// ---------------------------------------------------------------------------
// Worker pool
// ---------------------------------------------------------------------------

TEST(WorkerPool, RunsEveryWorkerOncePerRound) {
  constexpr int kWorkers = 4;
  std::atomic<int> counts[kWorkers] = {};
  WorkerPool pool(kWorkers, [&](int w) { ++counts[w]; });
  for (int round = 1; round <= 50; ++round) {
    pool.run_round();
    for (int w = 0; w < kWorkers; ++w) EXPECT_EQ(counts[w].load(), round);
  }
}

TEST(WorkerPool, RoundsAreSequentiallyConsistentWithScheduler) {
  // Data written by the scheduler between rounds must be visible to the
  // workers in the next round, and worker writes visible back — the
  // barrier is the only fence.
  int shared = 0;  // deliberately non-atomic
  std::atomic<bool> mismatch{false};
  WorkerPool pool(2, [&](int w) {
    // Only worker 0 touches `shared` (workers within one round are
    // unordered with respect to each other; only the barrier orders them
    // against the scheduler).
    if (w == 0) {
      if (shared % 2 != 0) mismatch = true;
      ++shared;
    }
  });
  for (int round = 0; round < 100; ++round) {
    pool.run_round();
    if (shared % 2 != 1) mismatch = true;  // worker 0's write is visible
    ++shared;  // scheduler-side write: keeps `shared` even at release
  }
  EXPECT_FALSE(mismatch.load());
  EXPECT_EQ(shared, 200);
}

TEST(WorkerPool, DestructorJoinsIdlePool) {
  std::atomic<int> ran{0};
  {
    WorkerPool pool(3, [&](int) { ++ran; });
    pool.run_round();
  }  // destructor joins parked workers without a further round
  EXPECT_EQ(ran.load(), 3);
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

// ---------------------------------------------------------------------------
// Host-trace replay
// ---------------------------------------------------------------------------

Slice slice(int lp, double dur, std::vector<Slice::Dep> deps = {}) {
  Slice s;
  s.lp = lp;
  s.duration_sec = dur;
  s.deps = std::move(deps);
  return s;
}

TEST(Replay, IndependentSlicesParallelizePerfectly) {
  HostModel m;
  m.per_slice_overhead_sec = 0.0;
  std::vector<Slice> trace;
  for (int lp = 0; lp < 4; ++lp) trace.push_back(slice(lp, 1.0));
  EXPECT_DOUBLE_EQ(replay_host_trace(trace, 4, 1, m), 4.0);
  EXPECT_DOUBLE_EQ(replay_host_trace(trace, 4, 4, m), 1.0);
  EXPECT_DOUBLE_EQ(replay_host_trace(trace, 4, 2, m), 2.0);
}

TEST(Replay, DependencyChainSerializes) {
  HostModel m;
  m.per_slice_overhead_sec = 0.0;
  m.cross_worker_msg_sec = 0.0;
  std::vector<Slice> trace;
  trace.push_back(slice(0, 1.0));
  trace.push_back(slice(1, 1.0, {{0, 1.0, 0}}));  // sent at end of slice 0
  trace.push_back(slice(2, 1.0, {{1, 1.0, 1}}));
  EXPECT_DOUBLE_EQ(replay_host_trace(trace, 3, 3, m), 3.0);
}

TEST(Replay, CrossWorkerMessagesAddOverhead) {
  HostModel m;
  m.per_slice_overhead_sec = 0.0;
  m.cross_worker_msg_sec = 0.5;
  std::vector<Slice> trace;
  trace.push_back(slice(0, 1.0));
  trace.push_back(slice(1, 1.0, {{0, 1.0, 0}}));
  // Same worker: no cross cost.
  EXPECT_DOUBLE_EQ(replay_host_trace(trace, 2, 1, m), 2.0);
  // Different workers: +0.5 delivery.
  EXPECT_DOUBLE_EQ(replay_host_trace(trace, 2, 2, m), 2.5);
}

TEST(Replay, MidSliceSendOffsetsRespected) {
  HostModel m;
  m.per_slice_overhead_sec = 0.0;
  m.cross_worker_msg_sec = 0.0;
  std::vector<Slice> trace;
  trace.push_back(slice(0, 1.0));
  // Message produced 0.5s into slice 0: the consumer overlaps with the
  // rest of the producing slice instead of waiting for its end.
  trace.push_back(slice(1, 1.0, {{0, 0.5, 0}}));
  EXPECT_DOUBLE_EQ(replay_host_trace(trace, 2, 2, m), 1.5);
}

TEST(Replay, DurationScaleStretchesWorkNotMessaging) {
  HostModel m;
  m.per_slice_overhead_sec = 0.0;
  m.cross_worker_msg_sec = 0.25;
  m.duration_scale = 10.0;
  std::vector<Slice> trace;
  trace.push_back(slice(0, 1.0));
  trace.push_back(slice(1, 1.0, {{0, 1.0, 0}}));
  // (1.0 * 10) + 0.25 + (1.0 * 10)
  EXPECT_DOUBLE_EQ(replay_host_trace(trace, 2, 2, m), 20.25);
}

TEST(Replay, PerSliceOverheadAccumulates) {
  HostModel m;
  m.per_slice_overhead_sec = 0.1;
  std::vector<Slice> trace;
  for (int i = 0; i < 5; ++i) trace.push_back(slice(0, 1.0));
  EXPECT_NEAR(replay_host_trace(trace, 1, 1, m), 5.5, 1e-12);
}

TEST(Engine, HostTraceRecordsSlicesAndDeps) {
  EngineConfig cfg;
  cfg.num_processes = 2;
  cfg.record_host_trace = true;
  Engine e(cfg);
  e.set_body([](Process& p) {
    if (p.rank() == 0) {
      p.send(make_msg(0, 1, 1, 0, vtime_from_us(5)));
    } else {
      Message m = p.blocking_match(match_tag(0, 1));
      p.lift_clock(m.arrival);
    }
  });
  e.run();
  const auto& trace = e.host_trace();
  ASSERT_GE(trace.size(), 2u);
  bool found_dep = false;
  for (const auto& s : trace) {
    for (const auto& d : s.deps) {
      found_dep = true;
      EXPECT_EQ(d.producer_lp, 0);
    }
  }
  EXPECT_TRUE(found_dep);
}

}  // namespace
}  // namespace stgsim::simk
