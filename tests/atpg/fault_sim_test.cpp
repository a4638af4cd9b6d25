#include "atpg/fault_sim.hpp"

#include <gtest/gtest.h>

#include "../common/test_circuits.hpp"
#include "circuits/generator.hpp"
#include "util/rng.hpp"

namespace tpi {
namespace {

using test::detect_word;
using test::lib;

class SmallCombFaultSim : public ::testing::Test {
 protected:
  void SetUp() override {
    nl_ = test::make_small_comb();
    model_ = std::make_unique<CombModel>(*nl_, SeqView::kCapture);
    bank_ = std::make_unique<FaultSimBank>(*model_);
  }
  // One pattern per bit: a=bit0, b=bit1, c=bit2 of the row index.
  void load_exhaustive() {
    std::vector<Word> words(3, 0);
    for (int row = 0; row < 8; ++row) {
      for (int i = 0; i < 3; ++i) {
        if (row & (1 << i)) words[static_cast<std::size_t>(i)] |= Word{1} << row;
      }
    }
    bank_->load_batch(words);
  }
  Fault stem(const char* net, bool sa1) {
    Fault f;
    f.net = nl_->find_net(net);
    f.stuck1 = sa1;
    return f;
  }
  std::unique_ptr<Netlist> nl_;
  std::unique_ptr<CombModel> model_;
  std::unique_ptr<FaultSimBank> bank_;
};

TEST_F(SmallCombFaultSim, StemFaultDetectedOnExpectedPatterns) {
  load_exhaustive();
  // y-sa0 is detected iff y==1 (a=b=0) and observable (c=1): row c=1,a=0,b=0
  // -> row 4. Observed at z and onward at w.
  const Word d = detect_word(*bank_, stem("y", false));
  EXPECT_EQ(d, Word{1} << 4);
}

TEST_F(SmallCombFaultSim, StuckValueEqualGoodIsUndetected) {
  load_exhaustive();
  // z sa0 where z is 0 in rows != 4 only detected on row 4.
  const Word d = detect_word(*bank_, stem("z", false));
  EXPECT_EQ(d, Word{1} << 4);
  // z sa1: detected whenever z==0 (all rows but 4): via po_z directly.
  // (Bits above row 7 carry the all-zero pattern, which also detects.)
  const Word d1 = detect_word(*bank_, stem("z", true));
  EXPECT_EQ(d1 & 0xFF, static_cast<Word>(0xFF & ~(1u << 4)));
}

TEST_F(SmallCombFaultSim, BranchFaultNarrowerThanStem) {
  load_exhaustive();
  // a fans out to g1 (NOR) and g3 (XOR). The stem affects both paths; the
  // g3 branch affects only w.
  Fault branch = stem("a", true);
  const Net& net = nl_->net(branch.net);
  ASSERT_EQ(net.sinks.size(), 2u);
  for (const PinRef& s : net.sinks) {
    if (nl_->cell(s.cell).name == "g3") branch.branch = s;
  }
  ASSERT_TRUE(branch.branch.valid());
  const Word stem_d = detect_word(*bank_, stem("a", true));
  const Word branch_d = detect_word(*bank_, branch);
  // Branch detection patterns form a subset... not strictly (masking), but
  // both must be nonempty here and branch must not detect where a==1.
  EXPECT_NE(stem_d, Word{0});
  EXPECT_NE(branch_d, Word{0});
  for (int row = 0; row < 8; ++row) {
    if (row & 1) {
      EXPECT_EQ((branch_d >> row) & 1, 0u) << "activation requires a=0";
    }
  }
}

TEST_F(SmallCombFaultSim, FirstDetectionsIgnoreLanesPastPatternCount) {
  // c-sa1 needs c=0 and y=1 (a=b=0): only the all-zero vector detects it.
  // The batch holds rows a, b and c (patterns 0..2); every lane past them
  // is the all-zero fill, which detects the fault but is not a pattern.
  Fault c_sa1 = stem("c", true);
  std::vector<Fault*> live{&c_sa1};
  std::vector<FaultTask> tasks = resolve_fault_tasks(*model_, live);
  std::vector<int> first;
  for (const int nw : {1, kMaxLaneWords}) {
    SCOPED_TRACE(nw);
    bank_->configure_lanes(nw);
    std::vector<Word> words(3 * static_cast<std::size_t>(nw), 0);
    for (std::size_t i = 0; i < 3; ++i) {
      words[i * static_cast<std::size_t>(nw)] = Word{1} << i;
    }
    bank_->load_batch(words);
    ASSERT_EQ(detect_word(*bank_, c_sa1), ~Word{0b111});  // the fill detects
    bank_->first_detections(live, tasks, 3, first);
    EXPECT_EQ(first, std::vector<int>{-1});
    // Counting lane 3 as a pattern makes it the first detector.
    bank_->first_detections(live, tasks, 4, first);
    EXPECT_EQ(first, std::vector<int>{3});
    drop_first_detected(live, tasks, first, 3);
    EXPECT_EQ(live.size(), 1u);
    EXPECT_EQ(tasks.size(), 1u);
    EXPECT_EQ(c_sa1.status, FaultStatus::kUndetected);
  }
}

TEST_F(SmallCombFaultSim, EveryNetReachesAnObservePoint) {
  // In the small comb circuit all nets feed po_z or po_w.
  for (std::size_t n = 0; n < nl_->num_nets(); ++n) {
    EXPECT_TRUE(model_->net_reaches_observe(static_cast<NetId>(n)))
        << nl_->net(static_cast<NetId>(n)).name;
  }
  EXPECT_EQ(model_->num_observable_cone_nets(), nl_->num_nets());
}

TEST(FaultSimConeTest, DeadConeFaultIsSkippedNotSimulated) {
  // Add a gate whose output drives nothing: its cone holds no observe
  // point, so faults there must be cut by the cone mask, not propagated.
  auto nl = test::make_small_comb();
  const CellSpec* and2 = test::lib().gate(CellFunc::kAnd, 2);
  const CellId dead = nl->add_cell(and2, "dead");
  nl->connect(dead, 0, nl->find_net("a"));
  nl->connect(dead, 1, nl->find_net("b"));
  const NetId dead_out = nl->add_net("dead_out");
  nl->connect(dead, and2->output_pin, dead_out);

  CombModel model(*nl, SeqView::kCapture);
  EXPECT_FALSE(model.net_reaches_observe(dead_out));
  EXPECT_TRUE(model.net_reaches_observe(nl->find_net("a")));
  EXPECT_EQ(model.num_observable_cone_nets(), nl->num_nets() - 1);

  FaultSimBank bank(model);
  std::vector<Word> words(3, 0);
  words[0] = 0x5555;  // a
  bank.load_batch(words);
  Fault f;
  f.net = dead_out;
  EXPECT_EQ(detect_word(bank, f), Word{0});
  const FaultSimStats s = bank.take_stats();
  EXPECT_EQ(s.cone_skips, 1u);
  EXPECT_EQ(s.node_evals, 0u);  // skipped before any propagation
  EXPECT_EQ(s.faults_graded, 1u);
  EXPECT_EQ(bank.take_stats().faults_graded, 0u);
}

TEST_F(SmallCombFaultSim, StatsCountGradedFaultsAndEvents) {
  load_exhaustive();
  detect_word(*bank_, stem("y", false));
  detect_word(*bank_, stem("a", true));
  const FaultSimStats s = bank_->take_stats();
  EXPECT_EQ(s.faults_graded, 2u);
  EXPECT_EQ(s.cone_skips, 0u);
  EXPECT_GT(s.node_evals, 0u);
  EXPECT_GT(s.events, 0u);
}

// Regression for the BM_FaultGradeLive cone_skip_pct counter: grading a
// netlist with unobservable monitor logic must exercise the cone filter,
// and the skip/graded counters must not depend on the worker count (the
// bank splits the same fault list into contiguous chunks either way).
TEST(FaultSimConeTest, ConeSkipStatsNonzeroAndJobInvariant) {
  const auto& L = test::lib();
  auto nl = generate_circuit(L, test::tiny_profile(47));
  const CellSpec* inv = L.gate(CellFunc::kInv, 1);
  ASSERT_NE(inv, nullptr);
  const int in_pin = inv->find_pin("A");
  const int npis = static_cast<int>(nl->num_pis());
  for (int i = 0; i < 32; ++i) {
    const CellId c = nl->add_cell(inv, "deadmon_u" + std::to_string(i));
    const NetId out = nl->add_net("deadmon_n" + std::to_string(i));
    nl->connect(c, in_pin, nl->pi_net(i % npis));
    nl->connect(c, inv->output_pin, out);
  }
  const CombModel model(*nl, SeqView::kCapture);
  FaultList fl = build_fault_list(model);

  FaultSimStats by_jobs[2];
  int idx = 0;
  for (const int jobs : {1, 3}) {
    FaultSimBank bank(model, jobs);
    std::vector<Fault*> live;
    for (Fault& f : fl.faults) {
      if (f.status != FaultStatus::kScanTested) live.push_back(&f);
    }
    Rng rng(9);
    std::vector<Word> words(model.input_nets().size());
    for (auto& w : words) w = rng.next_u64();
    bank.load_batch(words);
    std::vector<Word> detect;
    bank.grade(live, resolve_fault_tasks(model, live), detect);
    by_jobs[idx++] = bank.take_stats();
  }
  EXPECT_GT(by_jobs[0].cone_skips, 0u);
  EXPECT_GT(by_jobs[0].faults_graded, by_jobs[0].cone_skips);
  EXPECT_EQ(by_jobs[0].cone_skips, by_jobs[1].cone_skips);
  EXPECT_EQ(by_jobs[0].faults_graded, by_jobs[1].faults_graded);
  EXPECT_EQ(by_jobs[0].node_evals, by_jobs[1].node_evals);
}

// Cross-check: event-driven fault simulation agrees with brute-force
// "rebuild the whole circuit with the fault injected" simulation.
TEST(FaultSimPropertyTest, AgreesWithFullResimulation) {
  const auto& L = test::lib();
  auto nl = generate_circuit(L, test::tiny_profile(21));
  CombModel model(*nl, SeqView::kCapture);
  FaultSimBank bank(model);
  FaultList fl = build_fault_list(model);
  Rng rng(5);
  std::vector<Word> words(model.input_nets().size());
  for (auto& w : words) w = rng.next_u64();
  bank.load_batch(words);

  ParallelSim good(model);
  good.load_inputs(words);
  good.run();
  std::vector<Word> good_obs;
  good.read_observes(good_obs);

  int checked = 0;
  for (const Fault& f : fl.faults) {
    if (f.status == FaultStatus::kScanTested) continue;
    if (!f.is_stem()) continue;  // brute force below handles stems
    if (++checked > 120) break;
    // Brute force: force the net value and resimulate everything.
    ParallelSim bad(model);
    bad.load_inputs(words);
    // Evaluate with the stuck value overriding the net after each full run;
    // iterate to a fixed point (two passes suffice for acyclic logic).
    bad.run();
    bad.set_value(f.net, f.stuck1 ? ~Word{0} : Word{0});
    // Re-run all nodes downstream by running the full sweep again with the
    // forced value re-applied afterwards until stable.
    for (int pass = 0; pass < 2; ++pass) {
      std::vector<Word> saved(bad.values());
      saved[static_cast<std::size_t>(f.net)] = f.stuck1 ? ~Word{0} : Word{0};
      // Manual sweep honouring the forced net.
      for (const CombNode& node : model.nodes()) {
        Word in[4];
        for (int i = 0; i < node.num_inputs; ++i) {
          in[i] = saved[static_cast<std::size_t>(node.in[i])];
        }
        const Word sel = node.sel != kNoNet ? saved[static_cast<std::size_t>(node.sel)] : 0;
        if (node.out != kNoNet && node.out != f.net) {
          saved[static_cast<std::size_t>(node.out)] = eval_node_word(node, in, sel);
        }
      }
      for (std::size_t i = 0; i < saved.size(); ++i) {
        bad.set_value(static_cast<NetId>(i), saved[i]);
      }
    }
    Word brute = 0;
    for (std::size_t i = 0; i < model.observe_nets().size(); ++i) {
      brute |= bad.value(model.observe_nets()[i]) ^ good_obs[i];
    }
    EXPECT_EQ(detect_word(bank, f), brute) << "stem fault on " << nl->net(f.net).name;
  }
  EXPECT_GT(checked, 60);
}

}  // namespace
}  // namespace tpi
