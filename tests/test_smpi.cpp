// Unit tests for the simulated MPI layer: protocol semantics (eager vs
// rendezvous), nonblocking operations, collectives, statistics and the
// communication trace.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>

#include "apps/nas_sp.hpp"
#include "apps/sample.hpp"
#include "apps/sweep3d.hpp"
#include "apps/tomcatv.hpp"
#include "harness/digest.hpp"
#include "harness/machines.hpp"
#include "harness/runner.hpp"
#include "ir/interp.hpp"
#include "obs/obs.hpp"
#include "smpi/smpi.hpp"

namespace stgsim::smpi {
namespace {

struct Fixture {
  explicit Fixture(int nprocs, World::Options opts = {})
      : world(opts, nprocs) {
    ec.num_processes = nprocs;
  }

  simk::RunResult run(std::function<void(Comm&)> body) {
    simk::Engine engine(ec);
    engine.set_body([&](simk::Process& p) {
      Comm comm(world, p);
      body(comm);
    });
    return engine.run();
  }

  World world;
  simk::EngineConfig ec;
};

TEST(Smpi, EagerSendCompletesWithoutReceiver) {
  Fixture f(2);
  f.run([&](Comm& c) {
    if (c.rank() == 0) {
      double x = 1.0;
      c.send(1, 0, &x, sizeof x);  // far below the eager threshold
      // Sender only paid its send overhead — it never waited for rank 1,
      // which in this test does not even post a receive.
      EXPECT_EQ(c.now(), f.world.options().net.send_overhead);
    }
  });
}

TEST(Smpi, PayloadIsTransferredFaithfully) {
  Fixture f(2);
  f.run([](Comm& c) {
    double buf[4] = {1.5, 2.5, 3.5, 4.5};
    if (c.rank() == 0) {
      c.send(1, 3, buf, sizeof buf);
    } else {
      double out[4] = {};
      RecvStatus st;
      c.recv(0, 3, out, sizeof out, &st);
      EXPECT_EQ(st.src, 0);
      EXPECT_EQ(st.tag, 3);
      EXPECT_EQ(st.bytes, sizeof buf);
      for (int i = 0; i < 4; ++i) EXPECT_DOUBLE_EQ(out[i], buf[i]);
    }
  });
}

TEST(Smpi, RendezvousSendBlocksUntilReceivePosted) {
  Fixture f(2);
  const std::size_t big =
      f.world.options().net.eager_threshold + 1024;  // forces rendezvous
  std::vector<std::uint8_t> data(big, 0xab);
  f.run([&](Comm& c) {
    if (c.rank() == 0) {
      c.send(1, 0, data.data(), data.size());
      // The receiver posts its recv at t=1ms; a rendezvous send cannot
      // have completed before the CTS round trip from that post.
      EXPECT_GT(c.now(), vtime_from_ms(1));
    } else {
      c.delay(vtime_from_ms(1));
      std::vector<std::uint8_t> out(big);
      c.recv(0, 0, out.data(), out.size());
      EXPECT_EQ(out[big / 2], 0xab);
    }
  });
}

TEST(Smpi, RendezvousCostsMoreThanEagerForSameBytes) {
  // Same byte count just below vs just above the threshold: the
  // rendezvous handshake must add latency to the receiver's completion.
  auto completion = [](std::size_t bytes) {
    World::Options opts;
    Fixture f(2, opts);
    VTime done = 0;
    f.run([&](Comm& c) {
      std::vector<std::uint8_t> buf(bytes);
      if (c.rank() == 0) {
        c.send(1, 0, buf.data(), bytes);
      } else {
        c.recv(0, 0, buf.data(), bytes);
        done = c.now();
      }
    });
    return done;
  };
  World::Options opts;
  const std::size_t thr = opts.net.eager_threshold;
  EXPECT_GT(completion(thr + 1), completion(thr - 1));
}

TEST(Smpi, NonOvertakingSameTag) {
  Fixture f(2);
  f.run([](Comm& c) {
    if (c.rank() == 0) {
      double a = 1.0, b = 2.0;
      c.send(1, 0, &a, sizeof a);
      c.send(1, 0, &b, sizeof b);
    } else {
      double x = 0.0;
      c.recv(0, 0, &x, sizeof x);
      EXPECT_DOUBLE_EQ(x, 1.0);
      c.recv(0, 0, &x, sizeof x);
      EXPECT_DOUBLE_EQ(x, 2.0);
    }
  });
}

TEST(Smpi, AnySourceAndAnyTagReceive) {
  Fixture f(3);
  f.run([](Comm& c) {
    double x = static_cast<double>(c.rank());
    if (c.rank() != 2) {
      c.send(2, 10 + c.rank(), &x, sizeof x);
    } else {
      double out = -1.0;
      RecvStatus st;
      c.recv(kAnySource, kAnyTag, &out, sizeof out, &st);
      EXPECT_DOUBLE_EQ(out, static_cast<double>(st.src));
      c.recv(kAnySource, kAnyTag, &out, sizeof out, &st);
      EXPECT_DOUBLE_EQ(out, static_cast<double>(st.src));
    }
  });
}

TEST(Smpi, IsendIrecvWaitall) {
  Fixture f(2);
  f.run([](Comm& c) {
    const int peer = 1 - c.rank();
    double out = -1.0;
    double in = static_cast<double>(c.rank());
    std::vector<Request> reqs;
    reqs.push_back(c.irecv(peer, 0, &out, sizeof out));
    reqs.push_back(c.isend(peer, 0, &in, sizeof in));
    c.waitall(reqs);
    EXPECT_DOUBLE_EQ(out, static_cast<double>(peer));
  });
}

TEST(Smpi, SymmetricRendezvousExchangeDoesNotDeadlock) {
  // Both ranks isend a large message then waitall with the recv — the
  // progress-engine case §waitall handles by servicing receives first.
  Fixture f(2);
  const std::size_t big = f.world.options().net.eager_threshold * 2;
  f.run([&](Comm& c) {
    const int peer = 1 - c.rank();
    std::vector<std::uint8_t> in(big, static_cast<std::uint8_t>(c.rank()));
    std::vector<std::uint8_t> out(big, 0xff);
    std::vector<Request> reqs;
    reqs.push_back(c.isend(peer, 0, in.data(), big));
    reqs.push_back(c.irecv(peer, 0, out.data(), big));
    c.waitall(reqs);
    EXPECT_EQ(out[0], static_cast<std::uint8_t>(peer));
  });
}

TEST(Smpi, WaitanyReturnsTheReadyRequest) {
  Fixture f(3);
  f.run([](Comm& c) {
    if (c.rank() == 2) {
      // Two outstanding receives; sources answer in a known virtual order.
      double a = 0.0, b = 0.0;
      std::vector<Request> reqs;
      reqs.push_back(c.irecv(0, 1, &a, sizeof a));
      reqs.push_back(c.irecv(1, 2, &b, sizeof b));
      const std::size_t first = c.waitany(reqs);
      EXPECT_EQ(first, 1u);  // rank 1 sends immediately; rank 0 delays
      const std::size_t second = c.waitany(reqs);
      EXPECT_EQ(second, 0u);
      EXPECT_DOUBLE_EQ(a, 10.0);
      EXPECT_DOUBLE_EQ(b, 20.0);
    } else if (c.rank() == 1) {
      double v = 20.0;
      c.send(2, 2, &v, sizeof v);
    } else {
      c.delay(vtime_from_ms(5));
      double v = 10.0;
      c.send(2, 1, &v, sizeof v);
    }
  });
}

TEST(Smpi, WaitanyCompletesRendezvousSends) {
  Fixture f(2);
  const std::size_t big = f.world.options().net.eager_threshold * 2;
  f.run([&](Comm& c) {
    if (c.rank() == 0) {
      std::vector<std::uint8_t> buf(big, 1);
      std::vector<Request> reqs;
      reqs.push_back(c.isend(1, 0, buf.data(), big));
      const std::size_t idx = c.waitany(reqs);
      EXPECT_EQ(idx, 0u);
      EXPECT_TRUE(reqs[0].done());
    } else {
      std::vector<std::uint8_t> buf(big);
      c.recv(0, 0, buf.data(), big);
    }
  });
}

TEST(Smpi, WaitanyWithNothingPendingIsAnError) {
  Fixture f(1);
  EXPECT_THROW(f.run([](Comm& c) {
                 std::vector<Request> reqs;
                 reqs.push_back(Request{});
                 c.waitany(reqs);
               }),
               CheckError);
}

TEST(Smpi, GatherCollectsRankMajorBlocks) {
  const int n = 5;
  Fixture f(n);
  f.run([n](Comm& c) {
    double mine[2] = {static_cast<double>(c.rank()),
                      static_cast<double>(c.rank() * 10)};
    std::vector<double> all(static_cast<std::size_t>(2 * n), -1.0);
    c.gather(mine, sizeof mine, c.rank() == 2 ? all.data() : nullptr, 2);
    if (c.rank() == 2) {
      for (int r = 0; r < n; ++r) {
        EXPECT_DOUBLE_EQ(all[static_cast<std::size_t>(2 * r)], r);
        EXPECT_DOUBLE_EQ(all[static_cast<std::size_t>(2 * r + 1)], r * 10);
      }
    }
  });
}

TEST(Smpi, ScatterDistributesRankMajorBlocks) {
  const int n = 4;
  Fixture f(n);
  f.run([n](Comm& c) {
    std::vector<double> all;
    if (c.rank() == 0) {
      for (int r = 0; r < n; ++r) all.push_back(100.0 + r);
    }
    double mine = -1.0;
    c.scatter(c.rank() == 0 ? all.data() : nullptr, sizeof mine, &mine, 0);
    EXPECT_DOUBLE_EQ(mine, 100.0 + c.rank());
  });
}

TEST(Smpi, GatherThenScatterRoundTrips) {
  const int n = 6;
  Fixture f(n);
  f.run([n](Comm& c) {
    double v = static_cast<double>(c.rank() * 7);
    std::vector<double> all(static_cast<std::size_t>(n));
    c.gather(&v, sizeof v, c.rank() == 0 ? all.data() : nullptr, 0);
    double back = -1.0;
    c.scatter(c.rank() == 0 ? all.data() : nullptr, sizeof back, &back, 0);
    EXPECT_DOUBLE_EQ(back, v);
  });
}

TEST(Smpi, SendrecvExchangesBothWays) {
  Fixture f(4);
  f.run([](Comm& c) {
    const int right = (c.rank() + 1) % c.size();
    const int left = (c.rank() + c.size() - 1) % c.size();
    double out = -1.0;
    double in = static_cast<double>(c.rank());
    c.sendrecv(right, 1, &in, sizeof in, left, 1, &out, sizeof out);
    EXPECT_DOUBLE_EQ(out, static_cast<double>(left));
  });
}

TEST(Smpi, RecvBufferTooSmallIsAnError) {
  // A structured TargetProgramError (not a CheckError with its simulator
  // check banner): the harness maps it to RunStatus::kInternalError.
  Fixture f(2);
  try {
    f.run([](Comm& c) {
      double big[4] = {1, 2, 3, 4};
      if (c.rank() == 0) {
        c.send(1, 0, big, sizeof big);
      } else {
        double small = 0;
        c.recv(0, 0, &small, sizeof small);
      }
    });
    FAIL() << "expected TargetProgramError";
  } catch (const TargetProgramError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("buffer too small"), std::string::npos) << what;
    EXPECT_NE(what.find("rank 1"), std::string::npos) << what;
  }
}

// ---------------------------------------------------------------------------
// Collectives
// ---------------------------------------------------------------------------

class CollectiveSizes : public ::testing::TestWithParam<int> {};

TEST_P(CollectiveSizes, BcastDeliversRootValueToAll) {
  Fixture f(GetParam());
  f.run([](Comm& c) {
    double buf[3] = {0, 0, 0};
    if (c.rank() == 2 % c.size()) {
      buf[0] = 42.0;
      buf[1] = 43.0;
      buf[2] = 44.0;
    }
    c.bcast(buf, sizeof buf, 2 % c.size());
    EXPECT_DOUBLE_EQ(buf[0], 42.0);
    EXPECT_DOUBLE_EQ(buf[2], 44.0);
  });
}

TEST_P(CollectiveSizes, ReduceSumAccumulatesAtRoot) {
  const int n = GetParam();
  Fixture f(n);
  f.run([n](Comm& c) {
    double v[2] = {static_cast<double>(c.rank()), 1.0};
    c.reduce_sum(v, 2, 0);
    if (c.rank() == 0) {
      EXPECT_DOUBLE_EQ(v[0], n * (n - 1) / 2.0);
      EXPECT_DOUBLE_EQ(v[1], static_cast<double>(n));
    }
  });
}

TEST_P(CollectiveSizes, AllreduceSumAgreesEverywhere) {
  const int n = GetParam();
  Fixture f(n);
  f.run([n](Comm& c) {
    const double total = c.allreduce_sum(static_cast<double>(c.rank() + 1));
    EXPECT_DOUBLE_EQ(total, n * (n + 1) / 2.0);
  });
}

TEST_P(CollectiveSizes, AllreduceMaxAgreesEverywhere) {
  const int n = GetParam();
  Fixture f(n);
  f.run([n](Comm& c) {
    double v = static_cast<double>(c.rank());
    c.allreduce_max(&v, 1);
    EXPECT_DOUBLE_EQ(v, static_cast<double>(n - 1));
  });
}

TEST_P(CollectiveSizes, BarrierSynchronizesClocks) {
  const int n = GetParam();
  Fixture f(n);
  f.run([](Comm& c) {
    // Stagger arrival; after the barrier nobody can be earlier than the
    // latest pre-barrier time.
    const VTime mine = vtime_from_us(10 * (c.rank() + 1));
    c.delay(mine);
    const VTime latest = vtime_from_us(10 * c.size());
    c.barrier();
    EXPECT_GE(c.now(), latest);
  });
}

INSTANTIATE_TEST_SUITE_P(Sizes, CollectiveSizes,
                         ::testing::Values(1, 2, 3, 5, 8, 16, 33));

/// Every collective forced to its root-sequential (linear) algorithm.
World::Options all_linear() {
  World::Options opts;
  for (CollOp op : {CollOp::kBarrier, CollOp::kBcast, CollOp::kReduce,
                    CollOp::kAllreduce, CollOp::kAlltoall}) {
    coll_algo_field(opts.coll, op) = CollAlgo::kLinear;
  }
  return opts;
}

TEST(Smpi, LinearCollectivesProduceSameValues) {
  Fixture f(7, all_linear());
  f.run([](Comm& c) {
    double v = static_cast<double>(c.rank() + 1);
    c.allreduce_sum(&v, 1);
    EXPECT_DOUBLE_EQ(v, 28.0);
    double buf = c.rank() == 3 ? 9.0 : 0.0;
    c.bcast(&buf, sizeof buf, 3);
    EXPECT_DOUBLE_EQ(buf, 9.0);
    c.barrier();
  });
}

TEST(Smpi, TreeBeatsLinearAtScale) {
  auto barrier_time = [](bool linear, int procs) {
    Fixture f(procs, linear ? all_linear() : World::Options{});
    VTime t = 0;
    f.run([&](Comm& c) {
      c.barrier();
      if (c.rank() == 0) t = c.now();
    });
    return t;
  };
  EXPECT_LT(barrier_time(false, 64), barrier_time(true, 64));
}

// ---------------------------------------------------------------------------
// delay / read_param / stats / trace
// ---------------------------------------------------------------------------

TEST(Smpi, DelayAdvancesClockAndCountsAsCompute) {
  Fixture f(1);
  f.run([&](Comm& c) {
    c.delay(vtime_from_ms(2));
    EXPECT_EQ(c.now(), vtime_from_ms(2));
  });
  EXPECT_EQ(f.world.stats(0).compute_time, vtime_from_ms(2));
  EXPECT_EQ(f.world.stats(0).delays, 1u);
}

TEST(Smpi, NegativeDelayIsRejected) {
  Fixture f(1);
  EXPECT_THROW(f.run([](Comm& c) { c.delay(-1); }), CheckError);
}

TEST(Smpi, ReadParamBroadcastsTheTableValue) {
  Fixture f(5);
  f.world.set_param("w_foo", 3.25e-6);
  f.run([](Comm& c) {
    EXPECT_DOUBLE_EQ(c.read_param("w_foo"), 3.25e-6);
    // Collective: everyone pays at least the wire latency from rank 0.
    if (c.rank() != 0) {
      EXPECT_GT(c.now(), 0);
    }
  });
}

TEST(Smpi, MissingParamFailsWithHelpfulError) {
  Fixture f(1);
  try {
    f.run([](Comm& c) { c.read_param("w_nope"); });
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("w_nope"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("timer"), std::string::npos);
  }
}

TEST(Smpi, StatsCountOperations) {
  Fixture f(2);
  f.run([](Comm& c) {
    double x = 0;
    if (c.rank() == 0) {
      c.send(1, 0, &x, sizeof x);
      c.send(1, 0, &x, sizeof x);
    } else {
      c.recv(0, 0, &x, sizeof x);
      c.recv(0, 0, &x, sizeof x);
    }
    c.barrier();
  });
  EXPECT_EQ(f.world.stats(0).sends, 2u);
  EXPECT_EQ(f.world.stats(0).bytes_sent, 2 * sizeof(double));
  EXPECT_EQ(f.world.stats(1).recvs, 2u);
  EXPECT_EQ(f.world.stats(0).collectives, 1u);
  EXPECT_EQ(f.world.stats(1).collectives, 1u);
}

TEST(Smpi, CommTraceRecordsUserLevelOps) {
  CommTrace trace(2);
  World::Options opts;
  opts.trace = &trace;
  Fixture f(2, opts);
  f.run([](Comm& c) {
    double x = 0;
    if (c.rank() == 0) {
      c.send(1, 7, &x, sizeof x);
    } else {
      c.recv(0, 7, &x, sizeof x);
    }
    c.barrier();
  });
  const auto& r0 = trace.per_rank()[0];
  ASSERT_EQ(r0.size(), 2u);
  EXPECT_EQ(r0[0].kind, CommEvent::Kind::kSend);
  EXPECT_EQ(r0[0].peer, 1);
  EXPECT_EQ(r0[0].tag, 7);
  EXPECT_EQ(r0[0].bytes, sizeof(double));
  EXPECT_EQ(r0[1].kind, CommEvent::Kind::kBarrier);
}

TEST(Smpi, CommTraceDiffPinpointsDivergence) {
  CommTrace a(1), b(1);
  a.add(0, {CommEvent::Kind::kSend, 1, 0, 8});
  b.add(0, {CommEvent::Kind::kSend, 1, 0, 16});
  EXPECT_EQ(a.diff(a), "");
  const std::string d = a.diff(b);
  EXPECT_NE(d.find("rank 0"), std::string::npos);
  EXPECT_NE(d.find("8/16"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Comm-layer pin: every value below was captured from the build before the
// smpi message path, match specs, collective frame and reduction tree were
// folded into one each. Any drift is a behaviour change of that refactor.
// ---------------------------------------------------------------------------

std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

std::uint64_t trace_hash(const CommTrace& trace) {
  std::uint64_t h = kFnvBasis;
  for (const auto& events : trace.per_rank()) {
    const std::uint64_t count = events.size();
    h = fnv1a(h, &count, sizeof count);
    for (const CommEvent& e : events) {
      const std::int64_t fields[] = {static_cast<std::int64_t>(e.kind), e.peer,
                                     e.tag, static_cast<std::int64_t>(e.bytes)};
      h = fnv1a(h, fields, sizeof fields);
    }
  }
  return h;
}

/// Hash of the smpi-layer obs scalars (smpi.* and op.*), names and bits.
std::uint64_t obs_hash(const obs::MetricsSnapshot& m) {
  std::uint64_t h = kFnvBasis;
  for (const auto& [name, value] : m.scalars) {
    if (name.rfind("smpi.", 0) != 0 && name.rfind("op.", 0) != 0) continue;
    h = fnv1a(h, name.data(), name.size());
    std::uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof bits);
    h = fnv1a(h, &bits, sizeof bits);
  }
  return h;
}

struct RunPin {
  std::uint64_t digest, messages, slices, obs;
};

struct CommLayerPin {
  const char* app;
  const char* machine;  ///< "abstract" = ibm_sp under abstract_comm
  std::uint64_t trace;
  RunPin conservative, optimistic;
};

constexpr const char* kAllLinear =
    "ibm_sp[algo.barrier=linear,algo.bcast=linear,algo.reduce=linear,"
    "algo.allreduce=linear,algo.alltoall=linear]";

ir::Program pin_sample(apps::SamplePattern pattern) {
  apps::SampleConfig c;
  c.pattern = pattern;
  c.iterations = 5;
  c.msg_doubles = 256;
  c.work_iters = 1000;
  return apps::make_sample(c);
}

struct PinApp {
  const char* name;
  ir::Program prog;
  int nprocs;
};

/// The app shapes of test_drivers.cpp.
std::vector<PinApp> pin_apps() {
  std::vector<PinApp> apps;
  apps::TomcatvConfig tc;
  tc.n = 128;
  tc.iterations = 2;
  apps.push_back({"tomcatv", apps::make_tomcatv(tc), 8});
  apps::Sweep3DConfig sc;
  sc.it = 2;
  sc.jt = 2;
  sc.kt = 12;
  sc.kb = 4;
  sc.mm = 2;
  sc.mmi = 1;
  sc.npe_i = 2;
  sc.npe_j = 2;
  apps.push_back({"sweep3d", apps::make_sweep3d(sc), 4});
  apps.push_back({"nas_sp", apps::make_nas_sp(apps::sp_class('A', 2, 2)), 4});
  apps.push_back(
      {"sample", pin_sample(apps::SamplePattern::kNearestNeighbor), 8});
  apps.push_back(
      {"sample-anysource", pin_sample(apps::SamplePattern::kAnySource), 8});
  return apps;
}

harness::RunConfig pin_config(const char* machine, int nprocs) {
  harness::RunConfig cfg;
  cfg.nprocs = nprocs;
  cfg.mode = harness::Mode::kDirectExec;
  cfg.abstract_comm = std::string(machine) == "abstract";
  cfg.machine = harness::parse_machine_spec(cfg.abstract_comm ? "ibm_sp"
                                                              : machine);
  return cfg;
}

/// The run_program world, rebuilt by hand so a CommTrace can ride along.
std::uint64_t traced_run(const ir::Program& prog,
                         const harness::RunConfig& cfg) {
  World::Options wopts;
  wopts.net = cfg.machine.net;
  wopts.compute = cfg.machine.compute;
  wopts.coll = cfg.machine.coll;
  if (cfg.abstract_comm) {
    wopts.comm_fidelity = World::Options::CommFidelity::kAbstract;
  }
  CommTrace trace(cfg.nprocs);
  wopts.trace = &trace;
  World world(wopts, cfg.nprocs);
  simk::EngineConfig ec;
  ec.num_processes = cfg.nprocs;
  ec.seed = cfg.seed;
  const ir::Plan plan(prog);
  simk::Engine engine(ec);
  engine.set_body([&](simk::Process& p) {
    Comm comm(world, p);
    ir::execute(plan, comm);
  });
  engine.run();
  return trace_hash(trace);
}

const CommLayerPin kCommLayerPins[] = {
    {"tomcatv", "ibm_sp", 0x52585d702a56f025ULL,
     {0xf7a88373c8256116ULL, 84, 45, 0x97cdfb872c13b18cULL},
     {0xf7a88373c8256116ULL, 84, 45, 0x97cdfb872c13b18cULL}},
    {"tomcatv", "ibm_sp[eager_threshold=0]", 0x52585d702a56f025ULL,
     {0x64ca0f56f7b2e22eULL, 140, 63, 0xdf45d611581ff690ULL},
     {0x64ca0f56f7b2e22eULL, 140, 63, 0xdf45d611581ff690ULL}},
    {"tomcatv", kAllLinear, 0x52585d702a56f025ULL,
     {0x530f047a9d92d07fULL, 84, 45, 0xbe97d7a25b08a192ULL},
     {0x530f047a9d92d07fULL, 84, 45, 0xbe97d7a25b08a192ULL}},
    {"tomcatv", "ibm_sp[coll_ring_threshold=1]", 0xebdd40c82863bdd5ULL,
     {0x3e5fd67c106e858eULL, 280, 63, 0x0b26fb1a0861f801ULL},
     {0x3e5fd67c106e858eULL, 280, 63, 0x0b26fb1a0861f801ULL}},
    {"tomcatv", "abstract", 0x52585d702a56f025ULL,
     {0x32eafd90f3d02aa2ULL, 84, 38, 0x29ba7841d551af1bULL},
     {0x32eafd90f3d02aa2ULL, 84, 38, 0x29ba7841d551af1bULL}},
    {"sweep3d", "ibm_sp", 0xa562dc5e3db49065ULL,
     {0xae531a8f3b6690cfULL, 198, 27, 0xaacd0b7f9b3a141aULL},
     {0xae531a8f3b6690cfULL, 198, 27, 0xaacd0b7f9b3a141aULL}},
    {"sweep3d", "ibm_sp[eager_threshold=0]", 0xa562dc5e3db49065ULL,
     {0x4d05aeb24f976f48ULL, 390, 260, 0x7cfaf6f1bf493f52ULL},
     {0x4d05aeb24f976f48ULL, 390, 260, 0x7cfaf6f1bf493f52ULL}},
    {"sweep3d", kAllLinear, 0xa562dc5e3db49065ULL,
     {0x38ba6367df918701ULL, 198, 27, 0xdc1a2b0c02464f4dULL},
     {0x38ba6367df918701ULL, 198, 27, 0xdc1a2b0c02464f4dULL}},
    {"sweep3d", "ibm_sp[coll_ring_threshold=1]", 0x57c9b91c31c6e2e5ULL,
     {0xfd787aff5c0cc883ULL, 216, 36, 0xab1ed34bf16eff0cULL},
     {0xfd787aff5c0cc883ULL, 216, 36, 0xab1ed34bf16eff0cULL}},
    {"sweep3d", "abstract", 0xa562dc5e3db49065ULL,
     {0xc3987e0cb4b4cf46ULL, 198, 27, 0xaa5957bd9a22f451ULL},
     {0xc3987e0cb4b4cf46ULL, 198, 27, 0xaa5957bd9a22f451ULL}},
    {"nas_sp", "ibm_sp", 0xdad01248c12c4065ULL,
     {0x4ce19daf4497acf2ULL, 70, 39, 0xb4ae94b630ab0095ULL},
     {0x4ce19daf4497acf2ULL, 70, 39, 0xb4ae94b630ab0095ULL}},
    {"nas_sp", "ibm_sp[eager_threshold=0]", 0xdad01248c12c4065ULL,
     {0x4ce19daf4497acf2ULL, 70, 39, 0xb4ae94b630ab0095ULL},
     {0x4ce19daf4497acf2ULL, 70, 39, 0xb4ae94b630ab0095ULL}},
    {"nas_sp", kAllLinear, 0xdad01248c12c4065ULL,
     {0xa50c4d40b54c04ccULL, 70, 39, 0xb1c1f57a65247c8eULL},
     {0xa50c4d40b54c04ccULL, 70, 39, 0xb1c1f57a65247c8eULL}},
    {"nas_sp", "ibm_sp[coll_ring_threshold=1]", 0x6cb6a59a3e6c3325ULL,
     {0xfe582894714d8613ULL, 88, 45, 0xbaa628af82d33f8dULL},
     {0xfe582894714d8613ULL, 88, 45, 0xbaa628af82d33f8dULL}},
    {"nas_sp", "abstract", 0xdad01248c12c4065ULL,
     {0xa9e1a02aee6402dbULL, 38, 23, 0x51f413e7b29ba673ULL},
     {0xa9e1a02aee6402dbULL, 38, 23, 0x51f413e7b29ba673ULL}},
    {"sample", "ibm_sp", 0x8aa73746b10050d5ULL,
     {0x49d6f41b672638d5ULL, 70, 39, 0xb0dcc048696493a9ULL},
     {0x49d6f41b672638d5ULL, 70, 39, 0xb0dcc048696493a9ULL}},
    {"sample", "ibm_sp[eager_threshold=0]", 0x8aa73746b10050d5ULL,
     {0xa9deed411bcb8486ULL, 140, 48, 0x5ee36d2ffd691debULL},
     {0xa9deed411bcb8486ULL, 140, 48, 0x5ee36d2ffd691debULL}},
    {"sample", kAllLinear, 0x8aa73746b10050d5ULL,
     {0x49d6f41b672638d5ULL, 70, 39, 0xb0dcc048696493a9ULL},
     {0x49d6f41b672638d5ULL, 70, 39, 0xb0dcc048696493a9ULL}},
    {"sample", "ibm_sp[coll_ring_threshold=1]", 0x8aa73746b10050d5ULL,
     {0x49d6f41b672638d5ULL, 70, 39, 0xb0dcc048696493a9ULL},
     {0x49d6f41b672638d5ULL, 70, 39, 0xb0dcc048696493a9ULL}},
    {"sample", "abstract", 0x8aa73746b10050d5ULL,
     {0x49d6f41b672638d5ULL, 70, 39, 0xb0dcc048696493a9ULL},
     {0x49d6f41b672638d5ULL, 70, 39, 0xb0dcc048696493a9ULL}},
    {"sample-anysource", "ibm_sp", 0x53d4d74ab3620f9aULL,
     {0xc7157555b8de2eb1ULL, 35, 9, 0xc7eb338c21d5b093ULL},
     {0xc7157555b8de2eb1ULL, 35, 9, 0xc7eb338c21d5b093ULL}},
    // Rendezvous wildcards roll back at one worker, so the optimistic
    // slices depend on where the (fixed-interval) checkpoints sit.
    {"sample-anysource", "ibm_sp[eager_threshold=0]", 0x53d4d74ab3620f9aULL,
     {0xc71a6bf209973dd4ULL, 70, 78, 0x895bc94a0428b733ULL},
     {0xc71a6bf209973dd4ULL, 70, 53, 0x895bc94a0428b733ULL}},
    {"sample-anysource", kAllLinear, 0x53d4d74ab3620f9aULL,
     {0xc7157555b8de2eb1ULL, 35, 9, 0xc7eb338c21d5b093ULL},
     {0xc7157555b8de2eb1ULL, 35, 9, 0xc7eb338c21d5b093ULL}},
    {"sample-anysource", "ibm_sp[coll_ring_threshold=1]", 0x53d4d74ab3620f9aULL,
     {0xc7157555b8de2eb1ULL, 35, 9, 0xc7eb338c21d5b093ULL},
     {0xc7157555b8de2eb1ULL, 35, 9, 0xc7eb338c21d5b093ULL}},
    {"sample-anysource", "abstract", 0x53d4d74ab3620f9aULL,
     {0xc7157555b8de2eb1ULL, 35, 9, 0xc7eb338c21d5b093ULL},
     {0xc7157555b8de2eb1ULL, 35, 9, 0xc7eb338c21d5b093ULL}},
};

/// Direct Comm program on 5 ranks: a waitany over an ANY_SOURCE receive
/// and a pending rendezvous send (the receive matches a blocking
/// rendezvous send's RTS), sendrecv, gather, scatter, alltoall,
/// reduce_sum at a nonzero root, allreduce_max, barrier and bcast.
void pin_program(Comm& c) {
  const int r = c.rank();
  const int P = c.size();
  std::vector<double> out(48, r + 0.5), in(48, 0.0);
  const std::size_t block = out.size() * sizeof(double);
  if (r == 0) {
    std::vector<Request> reqs;
    reqs.push_back(c.irecv(kAnySource, 4, in.data(), block));
    reqs.push_back(c.isend(1, 5, out.data(), block));
    // Under abstract fidelity the send completes at once; the loop then
    // waits on the receive alone.
    while (!reqs[0].done() || !reqs[1].done()) c.waitany(reqs);
    EXPECT_DOUBLE_EQ(in[0], 2.5);
  } else if (r == 1) {
    c.delay(vtime_from_us(30));
    c.recv(0, 5, in.data(), block);
    EXPECT_DOUBLE_EQ(in[47], 0.5);
  } else if (r == 2) {
    c.delay(vtime_from_us(10));
    c.send(0, 4, out.data(), block);
  }
  double mine = r, got = -1;
  c.sendrecv((r + 1) % P, 6, &mine, sizeof mine, (r + P - 1) % P, 6, &got,
             sizeof got);
  EXPECT_DOUBLE_EQ(got, (r + P - 1) % P);
  std::vector<double> all(static_cast<std::size_t>(P), -1.0);
  mine = 10.0 * r;
  c.gather(&mine, sizeof mine, r == 2 ? all.data() : nullptr, 2);
  if (r == 2) {
    EXPECT_DOUBLE_EQ(all[4], 40.0);
  }
  for (int i = 0; i < P; ++i) all[static_cast<std::size_t>(i)] = 3.0 * i;
  c.scatter(r == 3 ? all.data() : nullptr, sizeof mine, &got, 3);
  EXPECT_DOUBLE_EQ(got, 3.0 * r);
  std::vector<double> send_all(static_cast<std::size_t>(P)),
      recv_all(static_cast<std::size_t>(P));
  for (int d = 0; d < P; ++d) {
    send_all[static_cast<std::size_t>(d)] = 100 * r + d;
  }
  c.alltoall(send_all.data(), sizeof(double), recv_all.data());
  for (int s = 0; s < P; ++s) {
    EXPECT_DOUBLE_EQ(recv_all[static_cast<std::size_t>(s)], 100 * s + r);
  }
  double v[3] = {1.0 * r, 2.0, -1.0 * r};
  c.reduce_sum(v, 3, 1);
  if (r == 1) {
    EXPECT_DOUBLE_EQ(v[0], 10.0);
  }
  double m[3] = {1.0 * r, -1.0 * r, 7.0};
  c.allreduce_max(m, 3);
  EXPECT_DOUBLE_EQ(m[0], P - 1.0);
  EXPECT_DOUBLE_EQ(m[1], 0.0);
  c.barrier();
  double b = r == 4 ? 9.0 : 0.0;
  c.bcast(&b, sizeof b, 4);
  EXPECT_DOUBLE_EQ(b, 9.0);
}

struct DirectPin {
  const char* world;
  VTime clocks[5];
  std::uint64_t trace, obs;
};

World::Options direct_world(const std::string& name) {
  World::Options o = name == "linear" ? all_linear() : World::Options{};
  o.net = harness::ibm_sp_machine().net;
  o.net.eager_threshold = 0;
  if (name == "ring") {
    o.coll.ring_threshold = 1;
  } else if (name == "abstract") {
    o.comm_fidelity = World::Options::CommFidelity::kAbstract;
  }
  return o;
}

const DirectPin kDirectPins[] = {
    {"default", {715158, 715158, 746247, 703158, 684069},
     0x8a963242c9e1614bULL, 0x64ca0759efa21962ULL},
    {"linear", {584446, 590446, 596446, 602446, 571357},
     0x8a963242c9e1614bULL, 0xbe168fa50d5b009dULL},
    {"ring", {1046980, 1084069, 1121158, 1152247, 985891},
     0x4efc620ad14b1908ULL, 0x30d00e13f0fd9535ULL},
    {"abstract", {908279, 908279, 908279, 908279, 791190},
     0x8a963242c9e1614bULL, 0x521535e7c0720ecdULL},
};

TEST(Smpi, CommLayerPinnedAtParent) {
  const std::vector<PinApp> apps = pin_apps();
  for (const CommLayerPin& pin : kCommLayerPins) {
    const auto app =
        std::find_if(apps.begin(), apps.end(), [&](const PinApp& a) {
          return std::string(a.name) == pin.app;
        });
    ASSERT_NE(app, apps.end()) << pin.app;
    const std::string where = std::string(pin.app) + " on " + pin.machine;
    harness::RunConfig cfg = pin_config(pin.machine, app->nprocs);
    EXPECT_EQ(traced_run(app->prog, cfg), pin.trace) << where;
    for (const auto& [schedule, want] :
         {std::pair{harness::Schedule::kConservative, pin.conservative},
          std::pair{harness::Schedule::kOptimistic, pin.optimistic}}) {
      obs::Recorder rec(obs::Options{}, app->nprocs);
      cfg.schedule = schedule;
      cfg.obs = &rec;
      const harness::RunOutcome out = harness::run_program(app->prog, cfg);
      const std::string run = where + " " + harness::schedule_name(schedule);
      ASSERT_TRUE(out.ok()) << run << ": " << out.diagnostic;
      EXPECT_EQ(harness::run_digest(out), want.digest) << run;
      EXPECT_EQ(out.messages, want.messages) << run;
      EXPECT_EQ(out.slices, want.slices) << run;
      EXPECT_EQ(obs_hash(out.metrics), want.obs) << run;
    }
  }
  for (const DirectPin& pin : kDirectPins) {
    World::Options wopts = direct_world(pin.world);
    CommTrace trace(5);
    obs::Recorder rec(obs::Options{}, 5);
    wopts.trace = &trace;
    wopts.obs = &rec;
    Fixture f(5, wopts);
    f.ec.observer = &rec;
    std::vector<VTime> clocks(5);
    f.run([&](Comm& c) {
      pin_program(c);
      clocks[static_cast<std::size_t>(c.rank())] = c.now();
    });
    for (int r = 0; r < 5; ++r) {
      EXPECT_EQ(clocks[static_cast<std::size_t>(r)], pin.clocks[r])
          << pin.world << " rank " << r;
    }
    EXPECT_EQ(trace_hash(trace), pin.trace) << pin.world;
    EXPECT_EQ(obs_hash(rec.snapshot()), pin.obs) << pin.world;
  }
}

}  // namespace
}  // namespace stgsim::smpi
