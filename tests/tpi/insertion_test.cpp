#include "tpi/tpi.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "../common/test_circuits.hpp"
#include "circuits/generator.hpp"
#include "sim/seq_sim.hpp"
#include "util/ledger.hpp"
#include "util/rng.hpp"

namespace tpi {
namespace {

using test::lib;

TEST(TpiInsertionTest, InsertsRequestedCount) {
  auto nl = generate_circuit(lib(), test::tiny_profile(11));
  TpiOptions opts;
  opts.num_test_points = 5;
  DesignDB db(*nl);
  const TpiReport report = insert_test_points(db, opts);
  EXPECT_EQ(report.test_points.size(), 5u);
  EXPECT_EQ(nl->stats().test_points, 5u);
  EXPECT_TRUE(nl->validate().empty()) << nl->validate();
}

TEST(TpiInsertionTest, ZeroIsNoOp) {
  auto nl = generate_circuit(lib(), test::tiny_profile(11));
  const std::size_t cells = nl->num_cells();
  TpiOptions opts;
  opts.num_test_points = 0;
  DesignDB db(*nl);
  insert_test_points(db, opts);
  EXPECT_EQ(nl->num_cells(), cells);
}

TEST(TpiInsertionTest, TestPointsFullyConnected) {
  auto nl = generate_circuit(lib(), test::tiny_profile(12));
  TpiOptions opts;
  opts.num_test_points = 4;
  DesignDB db(*nl);
  const TpiReport report = insert_test_points(db, opts);
  for (const CellId tp : report.test_points) {
    const CellInst& inst = nl->cell(tp);
    const CellSpec* spec = inst.spec;
    EXPECT_EQ(spec->func, CellFunc::kTsff);
    EXPECT_NE(inst.conn[static_cast<std::size_t>(spec->d_pin)], kNoNet);
    EXPECT_NE(inst.conn[static_cast<std::size_t>(spec->te_pin)], kNoNet);
    EXPECT_NE(inst.conn[static_cast<std::size_t>(spec->tr_pin)], kNoNet);
    EXPECT_NE(inst.conn[static_cast<std::size_t>(spec->clock_pin)], kNoNet);
    EXPECT_NE(inst.output_net(), kNoNet);
    // TI stays open for the scan stitcher.
    EXPECT_EQ(inst.conn[static_cast<std::size_t>(spec->ti_pin)], kNoNet);
    // Clock assignment found a real clock domain (§3.1 step 2).
    EXPECT_TRUE(
        nl->is_clock_net(inst.conn[static_cast<std::size_t>(spec->clock_pin)]));
  }
}

TEST(TpiInsertionTest, ApplicationModeBehaviourPreserved) {
  // The key DfT invariant: with TE=TR=0 the circuit computes the same
  // function after TPI (test points are transparent).
  const CircuitProfile p = test::tiny_profile(13);
  auto golden = generate_circuit(lib(), p);
  auto modified = generate_circuit(lib(), p);
  TpiOptions opts;
  opts.num_test_points = 6;
  DesignDB db(*modified);
  insert_test_points(db, opts);

  SequentialSim ref(*golden);
  SequentialSim dut(*modified);
  ASSERT_EQ(ref.num_state_bits(), dut.num_state_bits());  // TSFFs transparent

  Rng rng(2024);
  const std::size_t ref_pis = ref.model().num_pi_inputs();
  const std::size_t dut_pis = dut.model().num_pi_inputs();
  ASSERT_EQ(dut_pis, ref_pis + 2);  // + tp_te, tp_tr control inputs
  for (int cycle = 0; cycle < 12; ++cycle) {
    std::vector<Word> stim(ref_pis);
    for (auto& w : stim) w = rng.next_u64();
    std::vector<Word> dut_stim = stim;
    dut_stim.push_back(0);  // tp_te = 0
    dut_stim.push_back(0);  // tp_tr = 0 -> application mode
    std::vector<Word> ref_po, dut_po;
    ref.step(stim, ref_po);
    dut.step(dut_stim, dut_po);
    ASSERT_GE(dut_po.size(), ref_po.size());
    for (std::size_t i = 0; i < ref_po.size(); ++i) {
      ASSERT_EQ(dut_po[i], ref_po[i]) << "PO " << i << " differs in cycle " << cycle;
    }
  }
}

TEST(TpiInsertionTest, ExcludedNetsAreRespected) {
  const CircuitProfile p = test::tiny_profile(14);
  auto probe = generate_circuit(lib(), p);
  TpiOptions opts;
  opts.num_test_points = 3;
  DesignDB probe_db(*probe);
  const TpiReport first = insert_test_points(probe_db, opts);
  ASSERT_EQ(first.sites.size(), 3u);

  // Re-run on a fresh copy with the first choice excluded.
  auto nl = generate_circuit(lib(), p);
  opts.excluded_nets = {first.sites.begin(), first.sites.end()};
  DesignDB db(*nl);
  const TpiReport second = insert_test_points(db, opts);
  for (const NetId site : second.sites) {
    EXPECT_FALSE(opts.excluded_nets.contains(site));
  }
}

TEST(TpiInsertionTest, HybridTargetsHardEnableNets) {
  // Build a profile where one rare wide-AND enable gates many classes; the
  // gain-driven hybrid method must put the first test point on an enable
  // (high fanout, tiny signal probability), not on a trunk-internal node.
  CircuitProfile p = test::tiny_profile(15);
  p.num_comb_gates = 800;
  p.num_hard_blocks = 2;
  p.hard_block_width = 12;
  p.hard_classes_per_block = 10;
  p.hard_mode_bits = 4;
  auto nl = generate_circuit(lib(), p);
  CombModel model(*nl, SeqView::kCapture);
  const TestabilityResult t = analyze_testability(model);
  const auto ranked = rank_tpi_candidates(*nl, t, model, TpiMethod::kHybrid, {}, 2);
  ASSERT_FALSE(ranked.empty());
  const Net& site = nl->net(ranked.front());
  EXPECT_GE(site.fanout(), 8u) << "expected a gated-region enable";
  EXPECT_LT(t.p1[static_cast<std::size_t>(ranked.front())], 0.05f);
}

TEST(TpiInsertionTest, MethodsProduceDifferentRankings) {
  auto nl = generate_circuit(lib(), test::tiny_profile(16));
  CombModel model(*nl, SeqView::kCapture);
  const TestabilityResult t = analyze_testability(model);
  const auto hybrid = rank_tpi_candidates(*nl, t, model, TpiMethod::kHybrid, {}, 8);
  const auto cop = rank_tpi_candidates(*nl, t, model, TpiMethod::kCop, {}, 8);
  const auto scoap = rank_tpi_candidates(*nl, t, model, TpiMethod::kScoap, {}, 8);
  EXPECT_FALSE(hybrid.empty());
  EXPECT_FALSE(cop.empty());
  EXPECT_FALSE(scoap.empty());
  EXPECT_TRUE(hybrid != cop || cop != scoap);
}

TEST(TpiInsertionTest, InsertionImprovesTestability) {
  auto nl = generate_circuit(lib(), test::tiny_profile(17));
  CombModel before_model(*nl, SeqView::kCapture);
  const TestabilityResult before = analyze_testability(before_model);
  double worst_before = 1.0;
  for (std::size_t n = 0; n < nl->num_nets(); ++n) {
    if (nl->is_clock_net(static_cast<NetId>(n))) continue;
    const Net& net = nl->net(static_cast<NetId>(n));
    if (!net.driver.valid() && !net.driven_by_pi()) continue;
    worst_before = std::min(worst_before,
                            static_cast<double>(before.detect_prob_min(static_cast<NetId>(n))));
  }
  TpiOptions opts;
  opts.num_test_points = 4;
  DesignDB db(*nl);
  insert_test_points(db, opts);
  CombModel after_model(*nl, SeqView::kCapture);
  const TestabilityResult after = analyze_testability(after_model);
  // Average hardness (in probability bits) must improve on hard nets.
  double sum_before = 0, sum_after = 0;
  int count = 0;
  for (std::size_t n = 0; n < before.p1.size(); ++n) {
    const NetId net = static_cast<NetId>(n);
    if (nl->is_clock_net(net)) continue;
    const Net& netr = nl->net(net);
    if (!netr.driver.valid() && !netr.driven_by_pi()) continue;
    if (before.detect_prob_min(net) < 1e-3f) {
      sum_before += before.detect_prob_min(net);
      sum_after += after.detect_prob_min(net);
      ++count;
    }
  }
  if (count > 0) {
    EXPECT_GT(sum_after, sum_before);
  }
}

std::uint64_t digest(const std::vector<NetId>& nets) {
  return fnv1a_64({reinterpret_cast<const char*>(nets.data()), nets.size() * sizeof(NetId)});
}

TEST(TpiInsertionTest, PaperScaleRankingGolden) {
  // Only full-size circuits hit the gain evaluator's caps (500-node fan-out
  // cone, 300-net fan-in, 12000-net shortlist), so pin the whole round-1
  // hybrid ranking and the 1 % TP insertion sites there, byte for byte.
  struct Golden { CircuitProfile profile; std::uint64_t ranking, sites; };
  for (const Golden& g : {Golden{s38417_profile(), 0x0d66ed330988b921ull, 0x26b989d7a081d047ull},
                          Golden{p26909_profile(), 0xbf5ae127988e78d2ull, 0x8ae630d71341137bull}}) {
    auto nl = generate_circuit(lib(), g.profile);
    DesignDB db(*nl);
    const auto ranked = rank_tpi_candidates(*nl, db.testability(SeqView::kCapture),
                                            db.comb_model(SeqView::kCapture), TpiMethod::kHybrid,
                                            {}, nl->num_nets());
    EXPECT_EQ(digest(ranked), g.ranking) << g.profile.name << " ranking";
    TpiOptions opts;  // 1 % TP, rounded as the flow does
    opts.num_test_points =
        static_cast<int>(std::lround(0.01 * static_cast<double>(nl->flip_flops().size())));
    const TpiReport report = insert_test_points(db, opts);
    EXPECT_EQ(digest(report.sites), g.sites) << g.profile.name << " sites";
  }
}

TEST(TpiInsertionTest, PrunedTopKMatchesFullRanking) {
  // The hybrid ranking stops computing gains once no remaining net's gain
  // bound can reach the top k. Its first k must equal the first k of the
  // full ranking (k = num_nets evaluates every shortlisted net), nets and
  // order, on the full-size circuits where the cone caps bind: at round 1
  // and after a 1 % TP insertion, with and without excluded nets.
  for (const CircuitProfile& profile : {s38417_profile(), circuit1_profile(), p26909_profile()}) {
    auto nl = generate_circuit(lib(), profile);
    DesignDB db(*nl);
    auto check = [&](const char* when) {
      const CombModel& model = db.comb_model(SeqView::kCapture);
      const TestabilityResult& t = db.testability(SeqView::kCapture);
      std::unordered_set<NetId> excluded;
      for (const bool exclude : {false, true}) {
        const auto full =
            rank_tpi_candidates(*nl, t, model, TpiMethod::kHybrid, excluded, nl->num_nets());
        ASSERT_GE(full.size(), 100u) << profile.name << " " << when;
        for (const std::size_t k : {1, 2, 3, 4, 8, 17, 36, 100}) {
          RankStats stats;
          const auto top =
              rank_tpi_candidates(*nl, t, model, TpiMethod::kHybrid, excluded, k, &stats);
          EXPECT_EQ(top, std::vector<NetId>(full.begin(), full.begin() + static_cast<long>(k)))
              << profile.name << " " << when << " excluded=" << exclude << " k=" << k;
          EXPECT_LT(stats.gain_evals, stats.shortlisted) << profile.name << " k=" << k;
        }
        // Exclude every third of the full top 30 for the second pass.
        for (std::size_t i = 0; i < 30; i += 3) excluded.insert(full[i]);
      }
    };
    check("round 1");
    TpiOptions opts;
    opts.num_test_points =
        static_cast<int>(std::lround(0.01 * static_cast<double>(nl->flip_flops().size())));
    insert_test_points(db, opts);
    check("after 1 % TPs");
  }
}

// Hand-built circuits for the edge cases of the best-first ranking. An
// enable is ANDn over n AND3 trees of 9 PIs: p1 = 2^-9n, and the 13n
// nets of its tree are activatable but unobservable. Each of its readers
// is AND2(enable, fresh PI) into a PO, hard today and random-detectable
// once the enable is controlled, so the enable's gain equals its bound
// when nothing reconverges.
struct Crafted {
  std::unique_ptr<Netlist> nl = std::make_unique<Netlist>(&lib(), "crafted");
  int id = 0;
  // std::string(...) + ...: GCC 12 warns -Wrestrict on "literal" + rvalue.
  std::string name() { return std::string("n") + std::to_string(id++); }
  NetId pi() { return nl->pi_net(nl->add_primary_input(name())); }
  NetId gate(const std::vector<NetId>& ins) {
    const CellSpec* spec = lib().gate(CellFunc::kAnd, static_cast<int>(ins.size()));
    const CellId c = nl->add_cell(spec, name());
    for (std::size_t i = 0; i < ins.size(); ++i) nl->connect(c, static_cast<int>(i), ins[i]);
    const NetId out = nl->add_net(name());
    nl->connect(c, spec->output_pin, out);
    return out;
  }
  NetId tree(int depth) {
    if (depth == 0) return pi();
    return gate({tree(depth - 1), tree(depth - 1), tree(depth - 1)});
  }
  NetId enable(int n) {
    std::vector<NetId> ins;
    for (int i = 0; i < n; ++i) ins.push_back(tree(2));
    return gate(ins);
  }
  void fan_out(NetId en, int readers) {
    for (int r = 0; r < readers; ++r) nl->add_primary_output(name(), gate({en, pi()}));
  }
};

TEST(TpiInsertionTest, PrunedTopKKeepsTiesAndWideCones) {
  auto expect_prefixes_match = [](const Netlist& nl, NetId best, const char* what) {
    const CombModel model(nl, SeqView::kCapture);
    const TestabilityResult t = analyze_testability(model);
    const auto full = rank_tpi_candidates(nl, t, model, TpiMethod::kHybrid, {}, nl.num_nets());
    ASSERT_GE(full.size(), 3u) << what;
    EXPECT_EQ(full.front(), best) << what;
    for (const std::size_t k : {1, 2, 3}) {
      RankStats stats;
      const auto top = rank_tpi_candidates(nl, t, model, TpiMethod::kHybrid, {}, k, &stats);
      EXPECT_EQ(top, std::vector<NetId>(full.begin(), full.begin() + static_cast<long>(k)))
          << what << " k=" << k;
      EXPECT_LT(stats.gain_evals, stats.shortlisted) << what << " k=" << k;
    }
  };
  {
    // Tie: B and A score the same, B has the lower net id, and A's bound is
    // looser by one (its extra reader stays hard), so A is scored first and
    // B's bound equals the k-th score. B must still be evaluated and win.
    Crafted c;
    const NetId b = c.enable(2);
    c.fan_out(b, 40);
    const NetId a = c.enable(2);
    c.fan_out(a, 40);
    c.nl->add_primary_output(c.name(), c.gate({a, c.enable(2)}));
    expect_prefixes_match(*c.nl, b, "tie");
  }
  {
    // Wide cone: X's 600 readers all enter the cone before the 500-node cap
    // is checked again, so X's gain exceeds 500. Y has more unobservable
    // fan-in but a smaller cone and must not displace X.
    Crafted c;
    const NetId x = c.enable(2);
    c.fan_out(x, 600);
    const NetId y = c.enable(3);
    c.fan_out(y, 550);
    expect_prefixes_match(*c.nl, x, "wide cone");
  }
}

}  // namespace
}  // namespace tpi
