// DesignDB tests: the Netlist edit version (one bump per mutator), the
// cached derived views (hit / rebuild, adoption into a copy), and the
// flow-level construction savings the cache was built for.
#include "netlist/design_db.hpp"

#include <gtest/gtest.h>

#include <string_view>
#include <thread>
#include <vector>

#include "../common/test_circuits.hpp"
#include "flow/flow.hpp"
#include "netlist/levelize.hpp"
#include "tpi/tpi.hpp"
#include "util/metrics.hpp"

namespace tpi {
namespace {

using test::lib;

// Value of the counter `name` in `reg` (0 when never touched).
std::uint64_t count_of(const MetricsRegistry& reg, std::string_view name) {
  const MetricsSnapshot snap = reg.snapshot();
  const MetricValue* v = snap.find(name);
  return v != nullptr ? v->count : 0;
}

// ---- edit version semantics ----

TEST(EditJournalTest, EveryMutatorBumpsVersionExactlyOnce) {
  Netlist nl(&lib());
  EXPECT_EQ(nl.version(), 0u);

  const int a = nl.add_primary_input("a");  // composite: also adds a net
  EXPECT_EQ(nl.version(), 1u);
  const NetId y = nl.add_net("y");
  EXPECT_EQ(nl.version(), 2u);
  const CellSpec* inv = lib().gate(CellFunc::kInv, 1);
  const CellId g = nl.add_cell(inv, "g");
  EXPECT_EQ(nl.version(), 3u);
  nl.connect(g, 0, nl.pi_net(a));
  EXPECT_EQ(nl.version(), 4u);
  nl.connect(g, inv->output_pin, y);
  EXPECT_EQ(nl.version(), 5u);
  nl.add_primary_output("po", y);  // composite with the sink bookkeeping
  EXPECT_EQ(nl.version(), 6u);
  nl.mark_clock(a);
  EXPECT_EQ(nl.version(), 7u);
  nl.disconnect(g, 0);
  EXPECT_EQ(nl.version(), 8u);
}

TEST(EditJournalTest, NoOpDisconnectDoesNotBumpVersion) {
  auto nl = test::make_small_comb();
  const CellId g2 = nl->find_cell("g2");
  const std::uint64_t v = nl->version();
  nl->disconnect(g2, 1);
  EXPECT_EQ(nl->version(), v + 1);
  nl->disconnect(g2, 1);  // pin already unconnected
  EXPECT_EQ(nl->version(), v + 1);
}

TEST(EditJournalTest, CompositeMutatorsBumpVersionExactlyOnce) {
  auto nl = test::make_shift_register();
  const std::uint64_t v0 = nl->version();

  // replace_spec = disconnect + connect per carried pin, one bump total.
  nl->replace_spec(nl->find_cell("f0"), lib().by_name("SDFF_X1"));
  EXPECT_EQ(nl->version(), v0 + 1);

  // insert_cell_in_net = add_net + disconnect/connect per moved sink.
  const CellSpec* buf = lib().gate(CellFunc::kBuf, 1);
  const CellId b = nl->add_cell(buf, "b");
  EXPECT_EQ(nl->version(), v0 + 2);
  nl->insert_cell_in_net(nl->find_net("q0"), b, buf->find_pin("A"));
  EXPECT_EQ(nl->version(), v0 + 3);
}

// ---- DesignDB: view caching ----

TEST(DesignDbTest, ViewIdentityStableAcrossReadOnlyCalls) {
  MetricsRegistry reg;
  ScopedMetricsRegistry scope(reg);
  auto nl = test::make_shift_register();
  DesignDB db(*nl);

  const TopoOrder* topo = &db.topo(SeqView::kCapture);
  const CombModel* model = &db.comb_model(SeqView::kCapture);
  const TestabilityResult* t = &db.testability(SeqView::kCapture);
  const std::uint64_t rebuilds = count_of(reg, "designdb.rebuilds");
  const std::uint64_t hits = count_of(reg, "designdb.view_hits");

  EXPECT_EQ(&db.topo(SeqView::kCapture), topo);
  EXPECT_EQ(&db.comb_model(SeqView::kCapture), model);
  EXPECT_EQ(&db.testability(SeqView::kCapture), t);

  EXPECT_EQ(count_of(reg, "designdb.rebuilds"), rebuilds);  // no extra construction
  // 4 hits: topo, comb, then testability resolves comb (hit) + its own.
  EXPECT_EQ(count_of(reg, "designdb.view_hits"), hits + 4);
}

// Reference reader lists rebuilt from nodes(): ascending node index, one
// entry per pin, MUX select included.
std::vector<std::vector<int>> reference_readers(const CombModel& model) {
  std::vector<std::vector<int>> ref(model.num_nets());
  for (std::size_t idx = 0; idx < model.nodes().size(); ++idx) {
    const CombNode& node = model.nodes()[idx];
    for (int i = 0; i < node.num_inputs; ++i) {
      ref[static_cast<std::size_t>(node.in[i])].push_back(static_cast<int>(idx));
    }
    if (node.sel != kNoNet) {
      ref[static_cast<std::size_t>(node.sel)].push_back(static_cast<int>(idx));
    }
  }
  return ref;
}

// readers_of() for every net.
std::vector<std::vector<int>> readers_table(const CombModel& model) {
  std::vector<std::vector<int>> out(model.num_nets());
  for (std::size_t n = 0; n < out.size(); ++n) {
    const auto readers = model.readers_of(static_cast<NetId>(n));
    out[n].assign(readers.begin(), readers.end());
  }
  return out;
}

TEST(CombModelTest, ReadersMatchReferenceWithDuplicatePinsAndSelect) {
  // y = AND(a, a) reads a twice; m = MUX2(A=y, B=b, S=a) reads a as select.
  Netlist nl(&lib(), "readers");
  const NetId a = nl.pi_net(nl.add_primary_input("a"));
  const NetId b = nl.pi_net(nl.add_primary_input("b"));
  const CellSpec* and2 = lib().gate(CellFunc::kAnd, 2);
  const CellSpec* mux = lib().by_name("MUX2_X1");
  const CellId g = nl.add_cell(and2, "g");
  nl.connect(g, 0, a);
  nl.connect(g, 1, a);
  const NetId y = nl.add_net("y");
  nl.connect(g, and2->output_pin, y);
  const CellId m = nl.add_cell(mux, "m");
  nl.connect(m, mux->find_pin("A"), y);
  nl.connect(m, mux->find_pin("B"), b);
  nl.connect(m, mux->select_pin, a);
  const NetId z = nl.add_net("z");
  nl.connect(m, mux->output_pin, z);
  nl.add_primary_output("po", z);

  const CombModel model(nl, SeqView::kCapture);
  const auto ref = reference_readers(model);
  EXPECT_EQ(ref[static_cast<std::size_t>(a)].size(), 3u);  // two AND pins + select
  EXPECT_EQ(readers_table(model), ref);
  EXPECT_TRUE(model.readers_of(z).empty());

  auto gen = generate_circuit(lib(), test::tiny_profile());
  const CombModel big(*gen, SeqView::kCapture);
  EXPECT_EQ(readers_table(big), reference_readers(big));
}

// The DB's topo, comb and testability views of `view` equal a fresh build
// from its netlist.
void expect_views_equal_fresh_build(DesignDB& db, SeqView view) {
  const TopoOrder& topo = db.topo(view);
  const CombModel& model = db.comb_model(view);
  const TestabilityResult& t = db.testability(view);

  const TopoOrder fresh_topo = levelize(db.netlist(), view);
  EXPECT_EQ(topo.order, fresh_topo.order);
  EXPECT_EQ(topo.level, fresh_topo.level);
  const CombModel fresh_model(db.netlist(), view);
  EXPECT_EQ(readers_table(model), readers_table(fresh_model));
  const TestabilityResult fresh = analyze_testability(fresh_model);
  EXPECT_EQ(t.cc0, fresh.cc0);
  EXPECT_EQ(t.cc1, fresh.cc1);
  EXPECT_EQ(t.co, fresh.co);
  EXPECT_EQ(t.p1, fresh.p1);
  EXPECT_EQ(t.obs, fresh.obs);
}

// Every edit since a view was built means a rebuild, including the ECO
// edits that leave the combinational graph alone (clock-tree buffers,
// fillers, DFF->SDFF swaps, unconnected nets); the rebuilt views equal a
// fresh build from the edited netlist.
TEST(DesignDbTest, EcoLikeEditsRebuildEveryViewToAFreshBuild) {
  MetricsRegistry reg;
  ScopedMetricsRegistry scope(reg);
  auto nl = generate_circuit(lib(), test::tiny_profile());
  DesignDB db(*nl);
  TpiOptions tpi_opts;
  tpi_opts.num_test_points = 3;
  ASSERT_EQ(insert_test_points(db, tpi_opts).test_points.size(), 3u);  // views differ
  constexpr SeqView kViews[] = {SeqView::kApplication, SeqView::kCapture};
  for (const SeqView view : kViews) db.testability(view);
  const std::uint64_t topo_before = count_of(reg, "designdb.rebuilds.topo");
  const std::uint64_t comb_before = count_of(reg, "designdb.rebuilds.comb");
  const std::uint64_t testab_before = count_of(reg, "designdb.rebuilds.testability");
  const std::uint64_t hits_before = count_of(reg, "designdb.view_hits");

  // Clock-buffer splice: a CLKBUF on the clock root drives one FF's clock.
  const CellSpec* clkbuf = lib().by_name("CLKBUF_X2");
  const CellId cb = nl->add_cell(clkbuf, "ctsbuf0");
  const NetId clk_leaf = nl->add_net("clk_leaf");
  nl->connect(cb, 0, nl->pi_net(nl->clock_pis().front()));
  nl->connect(cb, clkbuf->output_pin, clk_leaf);
  CellId dff = kNoCell;
  for (const CellId ff : nl->flip_flops()) {
    if (nl->cell(ff).spec->func == CellFunc::kDff) {
      dff = ff;
      break;
    }
  }
  ASSERT_NE(dff, kNoCell);
  const int ck_pin = nl->cell(dff).spec->clock_pin;
  nl->disconnect(dff, ck_pin);
  nl->connect(dff, ck_pin, clk_leaf);
  nl->add_cell(lib().by_name("FILL1"), "fill0");
  nl->replace_spec(dff, lib().by_name("SDFF_X1"));
  nl->add_net("spare");

  for (const SeqView view : kViews) expect_views_equal_fresh_build(db, view);
  EXPECT_EQ(count_of(reg, "designdb.rebuilds.topo"), topo_before + 2);
  EXPECT_EQ(count_of(reg, "designdb.rebuilds.comb"), comb_before + 2);
  EXPECT_EQ(count_of(reg, "designdb.rebuilds.testability"), testab_before + 2);
  // Per view: the comb build reads the fresh topo and the testability
  // access reads the fresh model, both at the current version.
  EXPECT_EQ(count_of(reg, "designdb.view_hits"), hits_before + 4);
}

// The design cache's pattern: a DB over a copy of a warm DB's netlist
// adopts the warm views and serves them as hits until the copy's first
// edit, then rebuilds them from the copy; the warm DB is left untouched.
TEST(DesignDbTest, AdoptedViewsServeACopyUntilItsFirstEdit) {
  MetricsRegistry reg;
  ScopedMetricsRegistry scope(reg);
  auto golden = generate_circuit(lib(), test::tiny_profile());
  DesignDB warm(*golden);
  warm.testability(SeqView::kCapture);

  Netlist copy = *golden;
  DesignDB db(copy);
  db.adopt_views_from(warm);
  EXPECT_EQ(copy.version(), golden->version());
  const std::uint64_t rebuilds = count_of(reg, "designdb.rebuilds");
  const std::uint64_t hits = count_of(reg, "designdb.view_hits");
  db.topo(SeqView::kCapture);
  EXPECT_EQ(&db.comb_model(SeqView::kCapture).netlist(), &copy);
  db.testability(SeqView::kCapture);
  EXPECT_EQ(count_of(reg, "designdb.rebuilds"), rebuilds);
  // topo, comb, then testability resolves comb (hit) + its own.
  EXPECT_EQ(count_of(reg, "designdb.view_hits"), hits + 4);

  copy.add_cell(lib().by_name("FILL1"), "fill0");
  EXPECT_NE(copy.version(), golden->version());
  expect_views_equal_fresh_build(db, SeqView::kCapture);
  EXPECT_EQ(count_of(reg, "designdb.rebuilds"), rebuilds + 3);

  const std::uint64_t warm_hits = count_of(reg, "designdb.view_hits");
  warm.topo(SeqView::kCapture);
  warm.comb_model(SeqView::kCapture);
  warm.testability(SeqView::kCapture);
  EXPECT_EQ(count_of(reg, "designdb.rebuilds"), rebuilds + 3);
  EXPECT_EQ(count_of(reg, "designdb.view_hits"), warm_hits + 4);
}

TEST(DesignDbTest, StaleViewNeverServedAfterStructuralEdit) {
  auto nl = test::make_small_comb();
  DesignDB db(*nl);
  const auto order_size = db.topo(SeqView::kCapture).order.size();

  // A real structural edit: split net z with a buffer.
  const CellSpec* buf = lib().gate(CellFunc::kBuf, 1);
  const CellId b = nl->add_cell(buf, "b");
  nl->insert_cell_in_net(nl->find_net("z"), b, buf->find_pin("A"));

  const TopoOrder& rebuilt = db.topo(SeqView::kCapture);
  EXPECT_EQ(rebuilt.order.size(), order_size + 1);
  const TopoOrder fresh = levelize(*nl, SeqView::kCapture);
  EXPECT_EQ(rebuilt.order, fresh.order);
  EXPECT_EQ(rebuilt.level, fresh.level);
}

// Read-only view access is mutex-serialised: concurrent readers (the sweep
// pool pattern) must be race-free under TSan, including the cold build.
TEST(DesignDbTest, ConcurrentReadOnlyViewAccess) {
  auto nl = generate_circuit(lib(), test::tiny_profile());
  DesignDB db(*nl);

  // Registries are scoped per thread: each worker records into the test's.
  MetricsRegistry reg;
  std::vector<std::thread> workers;
  for (int w = 0; w < 4; ++w) {
    workers.emplace_back([&db, &reg] {
      ScopedMetricsRegistry scope(reg);
      for (int i = 0; i < 50; ++i) {
        const TopoOrder& topo = db.topo(SeqView::kApplication);
        const CombModel& model = db.comb_model(SeqView::kCapture);
        const TestabilityResult& t = db.testability(SeqView::kCapture);
        ASSERT_FALSE(topo.order.empty());
        ASSERT_EQ(t.p1.size(), model.num_nets());
      }
    });
  }
  for (std::thread& t : workers) t.join();
  EXPECT_EQ(count_of(reg, "designdb.rebuilds.topo"), 2u);  // one per view, each built once
  EXPECT_EQ(count_of(reg, "designdb.rebuilds.comb"), 1u);
  EXPECT_EQ(count_of(reg, "designdb.rebuilds.testability"), 1u);
}

// ---- flow-level construction savings (the tentpole's acceptance bar) ----

// Default full flow at 1% TP on the tiny profile (0 test points, so no
// TSFFs). Before the DesignDB refactor the flow built 4 topo/comb
// structures: ATPG's CombModel + its internal levelize, then two levelize
// calls inside run_sta. With the DB, stage 3 builds one capture TopoOrder +
// one CombModel and post-ECO STA builds the application order once: 3
// constructions, each view either a hit or a rebuild.
TEST(DesignDbFlowTest, FlowReusesViewsAcrossStages) {
  FlowOptions opts;
  opts.tp_percent = 1.0;
  FlowEngine engine(lib(), test::tiny_profile(), opts);
  const FlowResult& res = engine.run(StageMask::all());

  const MetricValue* topo = res.metrics.find("designdb.rebuilds.topo");
  const MetricValue* comb = res.metrics.find("designdb.rebuilds.comb");
  const MetricValue* hits = res.metrics.find("designdb.view_hits");
  ASSERT_NE(topo, nullptr);
  ASSERT_NE(comb, nullptr);
  ASSERT_NE(hits, nullptr);
  EXPECT_EQ(topo->count, 2u);  // capture (ATPG) + application (STA)
  EXPECT_EQ(comb->count, 1u);  // ATPG's capture model; pre-refactor: 2
  EXPECT_EQ(hits->count, 1u);
}

}  // namespace
}  // namespace tpi
