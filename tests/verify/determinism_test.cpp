#include <gtest/gtest.h>

#include "../common/test_circuits.hpp"
#include "circuits/generator.hpp"
#include "flow/flow.hpp"
#include "netlist/bench_io.hpp"
#include "verify/fuzz.hpp"

namespace tpi {
namespace {

using test::lib;
using test::ScopedEnv;

TEST(DeterminismTest, GeneratorIsBitIdenticalForSameProfileAndSeed) {
  const CircuitProfile prof = test::tiny_profile(555);
  const auto a = generate_circuit(lib(), prof);
  const auto b = generate_circuit(lib(), prof);
  EXPECT_EQ(write_bench_string(*a), write_bench_string(*b));
}

// The fuzzer digest is the determinism contract: the job-count knobs that
// parallelize other subsystems must not leak into it.
TEST(DeterminismTest, FuzzerDigestStableAcrossJobEnvKnobs) {
  FuzzOptions opts;
  opts.iterations = 4;
  std::uint64_t digest_a = 0, digest_b = 0;
  {
    ScopedEnv bench_jobs("TPI_BENCH_JOBS", "1");
    ScopedEnv atpg_jobs("TPI_ATPG_JOBS", "1");
    const FuzzReport rep = TransformFuzzer(lib(), opts).run();
    EXPECT_TRUE(rep.ok());
    EXPECT_EQ(rep.iterations_run, 4);
    digest_a = rep.digest;
  }
  {
    ScopedEnv bench_jobs("TPI_BENCH_JOBS", "4");
    ScopedEnv atpg_jobs("TPI_ATPG_JOBS", "3");
    const FuzzReport rep = TransformFuzzer(lib(), opts).run();
    EXPECT_TRUE(rep.ok());
    digest_b = rep.digest;
  }
  EXPECT_EQ(digest_a, digest_b);
  EXPECT_NE(digest_a, 0u);
}

// Flow + verify stage at different fault-sim worker counts: the verify.*
// metrics ride the deterministic (non-"rt.") snapshot, so the whole
// serialised snapshot must be bit-identical.
TEST(DeterminismTest, VerifyMetricsIdenticalAcrossAtpgJobs) {
  FlowOptions base;
  base.tp_percent = 5.0;
  base.verify = true;

  FlowOptions serial = base;
  serial.atpg.jobs = 1;
  FlowEngine e1(lib(), test::tiny_profile(777), serial);
  const FlowResult& r1 = e1.run(StageMask::all().with(Stage::kVerify));

  FlowOptions parallel = base;
  parallel.atpg.jobs = 4;
  FlowEngine e2(lib(), test::tiny_profile(777), parallel);
  const FlowResult& r2 = e2.run(StageMask::all().with(Stage::kVerify));

  ASSERT_TRUE(r1.verify.ok()) << r1.verify.error;
  ASSERT_TRUE(r2.verify.ok()) << r2.verify.error;
  EXPECT_EQ(r1.verify.replay_claimed, r2.verify.replay_claimed);
  EXPECT_EQ(r1.verify.replay_confirmed, r2.verify.replay_confirmed);
  EXPECT_EQ(r1.verify.frames_simulated, r2.verify.frames_simulated);
  EXPECT_EQ(r1.metrics.to_json(MetricsSnapshot::kNoRuntime),
            r2.metrics.to_json(MetricsSnapshot::kNoRuntime));
}

}  // namespace
}  // namespace tpi
