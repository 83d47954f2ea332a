// Host-driver regression pins. Sequential runs (workers 0) and one-worker
// runs (workers 1) both execute the partition-round driver inline on the
// caller's thread; these tests pin what that driver must reproduce exactly:
// the run digest, delivered-message count and slice (fiber resume) count
// of each app at the small shapes test_digest.cpp uses, under both
// synchronization protocols. Slice counts move when a rank is resumed
// before its message is queued (one extra block-and-wake), even when the
// digest survives; test_engine.cpp pins the wildcard-promotion case.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "apps/nas_sp.hpp"
#include "apps/sample.hpp"
#include "apps/sweep3d.hpp"
#include "apps/tomcatv.hpp"
#include "harness/digest.hpp"
#include "harness/runner.hpp"

namespace stgsim {
namespace {

struct Pin {
  std::uint64_t digest;
  std::uint64_t messages;
  std::uint64_t slices;
};

struct PinCase {
  const char* name;
  ir::Program prog;
  int nprocs;
  Pin pin;  ///< same under both protocols: these shapes never roll back
};

ir::Program sample_program(apps::SamplePattern pattern) {
  apps::SampleConfig c;
  c.pattern = pattern;
  c.iterations = 5;
  c.msg_doubles = 256;
  c.work_iters = 1000;
  return apps::make_sample(c);
}

std::vector<PinCase> pin_cases() {
  std::vector<PinCase> cases;
  {
    apps::TomcatvConfig c;
    c.n = 128;
    c.iterations = 2;
    cases.push_back({"tomcatv", apps::make_tomcatv(c), 8,
                     {0xf7a88373c8256116ULL, 84, 45}});
  }
  {
    apps::Sweep3DConfig c;
    c.it = 2;
    c.jt = 2;
    c.kt = 12;
    c.kb = 4;
    c.mm = 2;
    c.mmi = 1;
    c.npe_i = 2;
    c.npe_j = 2;
    cases.push_back({"sweep3d", apps::make_sweep3d(c), 4,
                     {0xae531a8f3b6690cfULL, 198, 27}});
  }
  cases.push_back({"nas_sp", apps::make_nas_sp(apps::sp_class('A', 2, 2)), 4,
                   {0x4ce19daf4497acf2ULL, 70, 39}});
  cases.push_back({"sample",
                   sample_program(apps::SamplePattern::kNearestNeighbor), 8,
                   {0x49d6f41b672638d5ULL, 70, 39}});
  cases.push_back({"sample-anysource",
                   sample_program(apps::SamplePattern::kAnySource), 8,
                   {0xc7157555b8de2eb1ULL, 35, 9}});
  // Many live clocks under one bound: the floor heap keys a running
  // sender at its slice-start clock, where a scan would read its live one.
  cases.push_back({"sample-anysource-64",
                   sample_program(apps::SamplePattern::kAnySource), 64,
                   {0x9813138c3dfa4942ULL, 315, 65}});
  return cases;
}

harness::RunConfig config_for(const PinCase& c, int workers,
                              harness::Schedule schedule) {
  harness::RunConfig cfg;
  cfg.nprocs = c.nprocs;
  cfg.mode = harness::Mode::kDirectExec;
  cfg.threads = workers;
  cfg.schedule = schedule;
  return cfg;
}

TEST(Drivers, InlineRoundDriverMatchesPinnedCounts) {
  for (const PinCase& c : pin_cases()) {
    for (const harness::Schedule schedule :
         {harness::Schedule::kConservative, harness::Schedule::kOptimistic}) {
      for (const int workers : {0, 1}) {
        const harness::RunOutcome out =
            harness::run_program(c.prog, config_for(c, workers, schedule));
        ASSERT_TRUE(out.ok()) << c.name << ": " << out.diagnostic;
        const std::string where =
            std::string(c.name) + " workers=" + std::to_string(workers) +
            (schedule == harness::Schedule::kOptimistic ? " optimistic"
                                                        : " conservative");
        EXPECT_EQ(harness::run_digest(out), c.pin.digest) << where;
        EXPECT_EQ(out.messages, c.pin.messages) << where;
        EXPECT_EQ(out.slices, c.pin.slices) << where;
        EXPECT_EQ(out.parallel.rounds, 0u) << where;
        EXPECT_EQ(out.parallel.cross_messages(), 0u) << where;
      }
    }
  }
}


}  // namespace
}  // namespace stgsim
