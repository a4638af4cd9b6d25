#include "atpg/podem.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "../common/test_circuits.hpp"
#include "atpg/fault_sim.hpp"
#include "circuits/generator.hpp"
#include "circuits/profiles.hpp"
#include "util/ledger.hpp"

namespace tpi {
namespace {

using test::lib;

// Apply a PODEM cube (random-free: X -> 0) and check the fault is detected.
bool detected_by_cube(const CombModel& model, const Fault& f, const std::vector<Tern>& cube) {
  FaultSimBank bank(model);
  std::vector<Word> words(model.input_nets().size(), 0);
  for (std::size_t i = 0; i < cube.size(); ++i) {
    if (cube[i] == Tern::k1) words[i] = ~Word{0};
  }
  bank.load_batch(words);
  return test::detect_word(bank, f) != 0;
}

TEST(PodemTest, FindsTestsForFullyTestableCircuit) {
  auto nl = test::make_small_comb();
  CombModel model(*nl, SeqView::kCapture);
  const TestabilityResult t = analyze_testability(model);
  FaultList fl = build_fault_list(model);
  Podem podem(model, t, {});
  for (const Fault& f : fl.faults) {
    const PodemResult r = podem.generate(f);
    EXPECT_EQ(r.outcome, PodemOutcome::kTest)
        << nl->net(f.net).name << " sa" << f.stuck1;
    if (r.outcome == PodemOutcome::kTest) {
      EXPECT_TRUE(detected_by_cube(model, f, r.cube))
          << "cube does not detect " << nl->net(f.net).name << " sa" << f.stuck1;
    }
  }
}

TEST(PodemTest, ProvesRedundancyOfConstantLogic) {
  // z = AND(a, NOT(a)) is constant 0: z sa0 is undetectable.
  Netlist nl(&lib(), "const");
  const int a = nl.add_primary_input("a");
  const CellSpec* inv = lib().gate(CellFunc::kInv, 1);
  const CellSpec* and2 = lib().gate(CellFunc::kAnd, 2);
  const CellId g1 = nl.add_cell(inv, "g1");
  nl.connect(g1, 0, nl.pi_net(a));
  const NetId na = nl.add_net("na");
  nl.connect(g1, inv->output_pin, na);
  const CellId g2 = nl.add_cell(and2, "g2");
  nl.connect(g2, 0, nl.pi_net(a));
  nl.connect(g2, 1, na);
  const NetId z = nl.add_net("z");
  nl.connect(g2, and2->output_pin, z);
  nl.add_primary_output("po", z);

  CombModel model(nl, SeqView::kCapture);
  const TestabilityResult t = analyze_testability(model);
  Podem podem(model, t, {});
  Fault sa0;
  sa0.net = z;
  sa0.stuck1 = false;
  EXPECT_EQ(podem.generate(sa0).outcome, PodemOutcome::kRedundant);
  Fault sa1 = sa0;
  sa1.stuck1 = true;  // z==0 always, so sa1 is testable
  EXPECT_EQ(podem.generate(sa1).outcome, PodemOutcome::kTest);
}

TEST(PodemTest, SolvesWideDecodeStructures) {
  // The hard-block shape: a 12-wide AND decode with mixed polarities into
  // an observable XOR. PODEM must justify all 12 literals.
  Netlist nl(&lib(), "decode");
  const CellSpec* and2 = lib().gate(CellFunc::kAnd, 2);
  const CellSpec* inv = lib().gate(CellFunc::kInv, 1);
  const CellSpec* xor2 = lib().gate(CellFunc::kXor, 2);
  std::vector<NetId> lits;
  for (int i = 0; i < 12; ++i) {
    const NetId pi = nl.pi_net(nl.add_primary_input("a" + std::to_string(i)));
    if (i % 2) {
      const CellId g = nl.add_cell(inv, "i" + std::to_string(i));
      nl.connect(g, 0, pi);
      const NetId y = nl.add_net("ai" + std::to_string(i));
      nl.connect(g, inv->output_pin, y);
      lits.push_back(y);
    } else {
      lits.push_back(pi);
    }
  }
  int id = 0;
  while (lits.size() > 1) {
    std::vector<NetId> next;
    for (std::size_t i = 0; i + 1 < lits.size(); i += 2) {
      const CellId g = nl.add_cell(and2, std::string("t").append(std::to_string(id)));
      nl.connect(g, 0, lits[i]);
      nl.connect(g, 1, lits[i + 1]);
      const NetId y = nl.add_net("ty" + std::to_string(id++));
      nl.connect(g, and2->output_pin, y);
      next.push_back(y);
    }
    if (lits.size() % 2) next.push_back(lits.back());
    lits = std::move(next);
  }
  const NetId side = nl.pi_net(nl.add_primary_input("side"));
  const CellId m = nl.add_cell(xor2, "m");
  nl.connect(m, 0, lits.front());
  nl.connect(m, 1, side);
  const NetId w = nl.add_net("w");
  nl.connect(m, xor2->output_pin, w);
  nl.add_primary_output("po", w);

  CombModel model(nl, SeqView::kCapture);
  const TestabilityResult t = analyze_testability(model);
  FaultList fl = build_fault_list(model);
  Podem podem(model, t, {});
  int tests = 0;
  for (const Fault& f : fl.faults) {
    const PodemResult r = podem.generate(f);
    EXPECT_EQ(r.outcome, PodemOutcome::kTest) << nl.net(f.net).name << " sa" << f.stuck1;
    tests += r.outcome == PodemOutcome::kTest;
    if (r.outcome == PodemOutcome::kTest) {
      EXPECT_TRUE(detected_by_cube(model, f, r.cube));
    }
  }
  EXPECT_GT(tests, 20);
}

// Ground-truth property: on small generated circuits, PODEM verdicts must
// match exhaustive simulation exactly (soundness in both directions).
TEST(PodemPropertyTest, MatchesExhaustiveGroundTruth) {
  int checked = 0;
  for (unsigned seed = 1; seed <= 20; ++seed) {
    CircuitProfile p;
    p.name = "prop";
    p.num_ffs = 4;
    p.num_comb_gates = 60;
    p.num_pis = 8;
    p.num_pos = 6;
    p.num_clock_domains = 1;
    p.domain_fraction = {1.0};
    p.target_depth = 8;
    p.num_hard_blocks = 1;
    p.hard_block_width = 4;
    p.hard_classes_per_block = 3;
    p.hard_mode_bits = 2;
    p.num_hub_signals = 2;
    p.hub_pick_prob = 0.02;
    p.seed = seed * 977;
    auto nl = generate_circuit(lib(), p);
    CombModel m(*nl, SeqView::kCapture);
    const std::size_t ni = m.input_nets().size();
    if (ni > 16) continue;
    const TestabilityResult t = analyze_testability(m);
    FaultList fl = build_fault_list(m);
    FaultSimBank bank(m);
    Podem pod(m, t, {});

    std::vector<char> detectable(fl.faults.size(), 0);
    const unsigned total = 1u << ni;
    for (unsigned base = 0; base < total; base += 64) {
      std::vector<Word> words(ni, 0);
      for (unsigned k = 0; k < 64 && base + k < total; ++k) {
        for (std::size_t i = 0; i < ni; ++i) {
          if ((base + k) & (1u << i)) words[i] |= Word{1} << k;
        }
      }
      bank.load_batch(words);
      for (std::size_t fi = 0; fi < fl.faults.size(); ++fi) {
        if (detectable[fi] || fl.faults[fi].status == FaultStatus::kScanTested) continue;
        if (test::detect_word(bank, fl.faults[fi]) != 0) detectable[fi] = 1;
      }
    }
    for (std::size_t fi = 0; fi < fl.faults.size(); ++fi) {
      const Fault& f = fl.faults[fi];
      if (f.status == FaultStatus::kScanTested) continue;
      const PodemResult r = pod.generate(f);
      ++checked;
      if (r.outcome == PodemOutcome::kRedundant) {
        EXPECT_FALSE(detectable[fi])
            << "seed " << seed << ": false redundancy proof for fault on "
            << nl->net(f.net).name << " sa" << f.stuck1;
      }
      if (r.outcome == PodemOutcome::kTest) {
        EXPECT_TRUE(detectable[fi])
            << "seed " << seed << ": PODEM 'test' for undetectable fault on "
            << nl->net(f.net).name;
      }
    }
  }
  EXPECT_GT(checked, 1500);
}

TEST(PodemTest, BacktrackLimitYieldsAborted) {
  auto nl = generate_circuit(lib(), test::tiny_profile(31));
  CombModel model(*nl, SeqView::kCapture);
  const TestabilityResult t = analyze_testability(model);
  PodemOptions opts;
  opts.backtrack_limit = 0;  // give up immediately on any conflict
  Podem podem(model, t, opts);
  FaultList fl = build_fault_list(model);
  int aborted = 0;
  for (const Fault& f : fl.faults) {
    if (f.status == FaultStatus::kScanTested) continue;
    aborted += podem.generate(f).outcome == PodemOutcome::kAborted;
  }
  EXPECT_GT(aborted, 0);
}

// Paper-scale golden: the first 1500 undetected faults in run_atpg's
// hardest-first order on the three scaled paper circuits, run through one
// reused Podem (as run_atpg does) with the default limits and with
// implication limits low enough to take the abort path. At 500 most faults
// abort within their first few assignments, which pins the number of nodes
// each implication call counts. The digest covers every result's outcome,
// backtrack count and cube, so any change to the implication order, the
// D-frontier order or the decision order shows up here.
TEST(PodemTest, PaperScaleGolden) {
  struct Golden {
    CircuitProfile profile;
    std::int64_t implication_limit;
    int aborted, redundant, backtracks;
    std::uint64_t digest;
  };
  const std::int64_t kDefault = PodemOptions{}.implication_limit;
  const CircuitProfile s38417 = scaled(s38417_profile(), 0.12);
  const CircuitProfile p26909 = scaled(p26909_profile(), 0.12);
  const CircuitProfile circuit1 = scaled(circuit1_profile(), 0.12);
  for (const Golden& g : {Golden{s38417, kDefault, 156, 113, 18840, 0x384c4cd8a3277ac5ull},
                          Golden{s38417, 3000, 601, 17, 3185, 0x9577a2b572906d42ull},
                          Golden{p26909, kDefault, 95, 101, 14776, 0x84be20976ddfd33full},
                          Golden{p26909, 3000, 553, 1, 3008, 0xa319ee931935b931ull},
                          Golden{circuit1, kDefault, 75, 122, 10924, 0x31ba524e5486d0b8ull},
                          Golden{s38417, 500, 1377, 1, 122, 0x3200f66226d793b4ull},
                          Golden{circuit1, 500, 1402, 1, 49, 0x485b691d01d50435ull},
                          Golden{p26909, 500, 1419, 0, 86, 0xdb283d26d01918cbull}}) {
    auto nl = generate_circuit(lib(), g.profile);
    CombModel model(*nl, SeqView::kCapture);
    const TestabilityResult t = analyze_testability(model);
    const FaultList fl = build_fault_list(model);
    std::vector<const Fault*> order;
    for (const Fault& f : fl.faults) {
      if (f.status == FaultStatus::kUndetected) order.push_back(&f);
    }
    const auto hardness = [&](const Fault* f) {
      return f->stuck1 ? t.detect_prob_sa0(f->net) : t.detect_prob_sa1(f->net);
    };
    std::stable_sort(order.begin(), order.end(),
                     [&](const Fault* a, const Fault* b) { return hardness(a) < hardness(b); });
    order.resize(std::min<std::size_t>(order.size(), 1500));

    PodemOptions opts;
    opts.implication_limit = g.implication_limit;
    Podem podem(model, t, opts);
    std::string bytes;
    int aborted = 0, redundant = 0, backtracks = 0;
    for (const Fault* f : order) {
      const PodemResult r = podem.generate(*f);
      aborted += r.outcome == PodemOutcome::kAborted;
      redundant += r.outcome == PodemOutcome::kRedundant;
      backtracks += r.backtracks;
      bytes.push_back(static_cast<char>(r.outcome));
      bytes.append(reinterpret_cast<const char*>(&r.backtracks), sizeof r.backtracks);
      for (const Tern v : r.cube) bytes.push_back(static_cast<char>(v));
    }
    std::ostringstream label;
    label << g.profile.name << " limit " << g.implication_limit;
    EXPECT_EQ(order.size(), 1500u) << label.str();
    EXPECT_EQ(aborted, g.aborted) << label.str();
    EXPECT_EQ(redundant, g.redundant) << label.str();
    EXPECT_EQ(backtracks, g.backtracks) << label.str();
    EXPECT_EQ(fnv1a_64(bytes), g.digest) << label.str() << " digest 0x" << std::hex << fnv1a_64(bytes);
  }
}

}  // namespace
}  // namespace tpi
