#include "verify/replay.hpp"

#include <gtest/gtest.h>

#include "../common/test_circuits.hpp"
#include "atpg/fault.hpp"
#include "flow/flow.hpp"
#include "netlist/design_db.hpp"

namespace tpi {
namespace {

using test::lib;

TEST(ReplayTest, CombinationalAtpgReplaysEveryClaim) {
  auto nl = test::make_small_comb();
  DesignDB db(*nl);
  const AtpgResult atpg = run_atpg(db, AtpgOptions{});
  ASSERT_GT(atpg.detected, 0);
  const ReplayReport rep = replay_patterns(db.comb_model(SeqView::kCapture), atpg);
  EXPECT_TRUE(rep.ok());
  EXPECT_GT(rep.claimed, 0);
  EXPECT_EQ(rep.confirmed, rep.claimed);
  EXPECT_EQ(rep.patterns, static_cast<std::int64_t>(atpg.patterns.size()));
}

// The acceptance check of the verify subsystem: on the default flow (1% TP,
// s38417-profile circuit) 100% of the faults ATPG claims as detected must
// reproduce under independent forced resimulation.
TEST(ReplayTest, FlowAtpgOnS38417ProfileReplaysFully) {
  FlowOptions opts;
  opts.tp_percent = 1.0;
  opts.verify = true;
  FlowEngine engine(lib(), test::small_profile(), opts);
  const FlowResult& r = engine.run(StageMask::all().with(Stage::kVerify));
  ASSERT_TRUE(r.verify.ran);
  EXPECT_TRUE(r.verify.ok()) << r.verify.error;
  ASSERT_TRUE(r.verify.replay_ran);
  EXPECT_GT(r.verify.replay_claimed, 0);
  EXPECT_EQ(r.verify.replay_confirmed, r.verify.replay_claimed);
  EXPECT_TRUE(r.verify.equivalent);
}

// Withholding the pattern set must flag every claim instead of silently
// confirming: the replayer's failure path works.
TEST(ReplayTest, MissingPatternsFlagEveryClaim) {
  auto nl = test::make_small_comb();
  DesignDB db(*nl);
  const AtpgResult atpg = run_atpg(db, AtpgOptions{});
  ASSERT_GT(atpg.detected, 0);
  const ReplayReport rep =
      replay_patterns(db.comb_model(SeqView::kCapture), atpg.faults, {});
  EXPECT_FALSE(rep.ok());
  EXPECT_EQ(rep.confirmed, 0);
  EXPECT_EQ(static_cast<std::int64_t>(rep.failures.size()), rep.claimed);
  // Failure records carry enough to locate the fault.
  ASSERT_FALSE(rep.failures.empty());
  EXPECT_NE(rep.failures[0].net, kNoNet);
}

// A truncated pattern set may drop some detections but must never invent
// one: confirmed counts stay consistent and within the claims.
TEST(ReplayTest, TruncatedPatternsNeverOverConfirm) {
  auto nl = test::make_small_comb();
  DesignDB db(*nl);
  const AtpgResult atpg = run_atpg(db, AtpgOptions{});
  ASSERT_GT(atpg.patterns.size(), 1u);
  std::vector<TestPattern> half(atpg.patterns.begin(),
                                atpg.patterns.begin() + atpg.patterns.size() / 2);
  const ReplayReport rep =
      replay_patterns(db.comb_model(SeqView::kCapture), atpg.faults, half);
  EXPECT_LE(rep.confirmed, rep.claimed);
  EXPECT_EQ(rep.confirmed + static_cast<std::int64_t>(rep.failures.size()), rep.claimed);
}

}  // namespace
}  // namespace tpi
