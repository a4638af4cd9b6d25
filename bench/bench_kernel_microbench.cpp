// google-benchmark kernels for the flow's hot paths: testability analysis,
// fault simulation, PODEM, placement and STA. These guard the performance
// envelope that keeps the full Tables 1-3 sweeps tractable.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "atpg/atpg.hpp"
#include "atpg/fault_sim.hpp"
#include "bist/lbist.hpp"
#include "circuits/generator.hpp"
#include "extraction/extraction.hpp"
#include "layout/placement.hpp"
#include "layout/routing.hpp"
#include "netlist/design_db.hpp"
#include "netlist/levelize.hpp"
#include "scan/scan.hpp"
#include "sim/seq_sim.hpp"
#include "sim/simd.hpp"
#include "sta/sta.hpp"
#include "tpi/tpi.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"
#include "util/trace.hpp"
#include "verify/equiv.hpp"
#include "verify/miter.hpp"

namespace {

using namespace tpi;

CircuitProfile micro_profile() {
  CircuitProfile p = scaled(s38417_profile(), 0.15);
  p.name = "micro";
  return p;
}

const CellLibrary& lib() {
  static const std::unique_ptr<CellLibrary> l = make_phl130_library();
  return *l;
}

Netlist& scan_netlist_mutable() {
  static const std::unique_ptr<Netlist> nl = [] {
    auto n = generate_circuit(lib(), micro_profile());
    insert_scan(*n);
    return n;
  }();
  return *nl;
}

const Netlist& scan_netlist() { return scan_netlist_mutable(); }

void BM_GenerateCircuit(benchmark::State& state) {
  for (auto _ : state) {
    auto nl = generate_circuit(lib(), micro_profile());
    benchmark::DoNotOptimize(nl->num_cells());
  }
}
BENCHMARK(BM_GenerateCircuit)->Unit(benchmark::kMillisecond);

// Copy and destroy the full-size s38417, circuit1 and p26909 netlists: what
// each flow cell and server job pays to get its own netlist and free it.
void BM_NetlistCopy(benchmark::State& state) {
  static const std::vector<std::unique_ptr<Netlist>> originals = [] {
    std::vector<std::unique_ptr<Netlist>> v;
    for (const CircuitProfile& p : paper_profiles()) v.push_back(generate_circuit(lib(), p));
    return v;
  }();
  for (auto _ : state) {
    for (const auto& nl : originals) {
      const Netlist copy(*nl);
      benchmark::DoNotOptimize(copy.num_cells());
    }
  }
}
BENCHMARK(BM_NetlistCopy)->Unit(benchmark::kMillisecond);

void BM_TestabilityAnalysis(benchmark::State& state) {
  const CombModel model(scan_netlist(), SeqView::kCapture);
  for (auto _ : state) {
    const TestabilityResult t = analyze_testability(model);
    benchmark::DoNotOptimize(t.p1.size());
  }
}
BENCHMARK(BM_TestabilityAnalysis)->Unit(benchmark::kMillisecond);

// Round 1 of hybrid TPI on full-size s38417 at the flow's 1 % TP batch:
// the ranking computes exact gains only for the shortlisted nets whose
// gain bound can still reach the batch (gain_evals of shortlisted).
void BM_TpiRankRound(benchmark::State& state) {
  const auto nl = generate_circuit(lib(), s38417_profile());
  const CombModel model(*nl, SeqView::kCapture);
  const TestabilityResult t = analyze_testability(model);
  const TpiOptions defaults;
  const auto num_tp = std::lround(0.01 * static_cast<double>(nl->flip_flops().size()));
  const auto batch = static_cast<std::size_t>((num_tp + defaults.rounds - 1) / defaults.rounds);
  RankStats stats;
  for (auto _ : state) {
    const auto ranked =
        rank_tpi_candidates(*nl, t, model, TpiMethod::kHybrid, {}, batch, &stats);
    benchmark::DoNotOptimize(ranked.data());
  }
  state.counters["gain_evals"] = static_cast<double>(stats.gain_evals);
  state.counters["shortlisted"] = static_cast<double>(stats.shortlisted);
}
BENCHMARK(BM_TpiRankRound)->Unit(benchmark::kMillisecond);

// The full-size s38417, circuit1 and p26909 after 5 % TPI: the capture
// view, which TPI rebuilds every round, has the TSFFs as boundaries; the
// application view, which STA levelizes, has them transparent.
const std::vector<std::unique_ptr<Netlist>>& tpi_paper_netlists() {
  static const std::vector<std::unique_ptr<Netlist>> netlists = [] {
    std::vector<std::unique_ptr<Netlist>> v;
    for (const CircuitProfile& p : paper_profiles()) {
      auto nl = generate_circuit(lib(), p);
      DesignDB db(*nl);
      TpiOptions opts;
      opts.num_test_points =
          static_cast<int>(std::lround(0.05 * static_cast<double>(nl->flip_flops().size())));
      insert_test_points(db, opts);
      v.push_back(std::move(nl));
    }
    return v;
  }();
  return netlists;
}

// levelize of all three circuits; Arg 0 = application view, 1 = capture.
void BM_Levelize(benchmark::State& state) {
  const SeqView view = state.range(0) == 0 ? SeqView::kApplication : SeqView::kCapture;
  const auto& netlists = tpi_paper_netlists();
  for (auto _ : state) {
    for (const auto& nl : netlists) {
      const TopoOrder topo = levelize(*nl, view);
      benchmark::DoNotOptimize(topo.order.data());
    }
  }
}
BENCHMARK(BM_Levelize)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

// Capture-view CombModel compile of all three circuits from a given
// TopoOrder: node array, reader CSR, observe cone and structural hashing.
void BM_CombModelBuild(benchmark::State& state) {
  const auto& netlists = tpi_paper_netlists();
  std::vector<TopoOrder> topos;
  for (const auto& nl : netlists) topos.push_back(levelize(*nl, SeqView::kCapture));
  std::size_t deduped = 0;
  for (auto _ : state) {
    deduped = 0;
    for (std::size_t i = 0; i < netlists.size(); ++i) {
      const CombModel model(*netlists[i], SeqView::kCapture, topos[i]);
      deduped += model.nodes_deduped();
      benchmark::DoNotOptimize(model.eval_ops().data());
    }
  }
  state.counters["nodes_deduped"] = static_cast<double>(deduped);
}
BENCHMARK(BM_CombModelBuild)->Unit(benchmark::kMillisecond);

// Collapsed fault list of the full-size scanned s38417: what every ATPG
// run and LBIST session pays before grading. Arg 0 = stuck-at, 1 =
// transition (buffer/inverter folds only, so more representatives).
void BM_BuildFaultList(benchmark::State& state) {
  static const std::unique_ptr<Netlist> nl = [] {
    auto n = generate_circuit(lib(), s38417_profile());
    insert_scan(*n);
    return n;
  }();
  const CombModel model(*nl, SeqView::kCapture);
  const FaultModel fm = state.range(0) == 0 ? FaultModel::kStuckAt : FaultModel::kTransition;
  std::size_t faults = 0;
  for (auto _ : state) {
    const FaultList fl = build_fault_list(model, fm);
    faults = fl.faults.size();
    benchmark::DoNotOptimize(fl.faults.data());
  }
  state.counters["faults"] = static_cast<double>(faults);
}
BENCHMARK(BM_BuildFaultList)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

// PRPG draws of an LBIST session: 4096 64-pattern words per iteration
// from the default degree-32 register.
void BM_LfsrWords(benchmark::State& state) {
  Lfsr lfsr(32);
  for (auto _ : state) {
    Word acc = 0;
    for (int i = 0; i < 4096; ++i) acc ^= lfsr.next_word();
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_LfsrWords)->Unit(benchmark::kMicrosecond);

void BM_GoodSimulationBatch(benchmark::State& state) {
  const CombModel model(scan_netlist(), SeqView::kCapture);
  ParallelSim sim(model);
  Rng rng(1);
  std::vector<Word> words(model.input_nets().size());
  for (auto _ : state) {
    for (auto& w : words) w = rng.next_u64();
    sim.load_inputs(words);
    sim.run();
    benchmark::DoNotOptimize(sim.values().back());
  }
}
BENCHMARK(BM_GoodSimulationBatch)->Unit(benchmark::kMicrosecond);

void BM_FaultSimulationBatch(benchmark::State& state) {
  const CombModel model(scan_netlist(), SeqView::kCapture);
  FaultSimBank bank(model);
  FaultList fl = build_fault_list(model);
  std::vector<Fault*> all;
  for (Fault& f : fl.faults) all.push_back(&f);
  const std::vector<FaultTask> all_tasks = resolve_fault_tasks(model, all);
  Rng rng(2);
  std::vector<Word> words(model.input_nets().size());
  for (auto& w : words) w = rng.next_u64();
  bank.load_batch(words);
  // Grade a rotating window of 256 faults per iteration.
  std::size_t cursor = 0;
  std::vector<Fault*> window(256);
  std::vector<FaultTask> tasks(256);
  std::vector<Word> detect;
  for (auto _ : state) {
    for (std::size_t i = 0; i < window.size(); ++i) {
      window[i] = all[cursor];
      tasks[i] = all_tasks[cursor];
      cursor = (cursor + 1) % all.size();
    }
    bank.grade(window, tasks, detect);
    benchmark::DoNotOptimize(detect.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_FaultSimulationBatch)->Unit(benchmark::kMicrosecond);

// Grading workload: the scan netlist plus *unobservable* monitor logic —
// 256 independent inverters, each tapping a primary input and driving a
// net nothing reads. A full-scan capture model observes every net
// (num_observable_cone_nets == num_nets), so without this stub the cone
// filter legitimately never fires and cone_skip_pct reads 0.0 at every
// job count; the dead taps make the bench exercise (and keep guarding)
// the observability cut the way real designs with debug/monitor logic do.
// Independent single-gate cones resist fault-equivalence collapsing, so
// each contributes its faults to the graded list (a long chain would
// collapse to a couple of representatives).
Netlist& grade_netlist_mutable() {
  static const std::unique_ptr<Netlist> nl = [] {
    auto n = std::make_unique<Netlist>(scan_netlist());
    const CellSpec* inv = lib().gate(CellFunc::kInv, 1);
    const int in_pin = inv->find_pin("A");
    const int npis = static_cast<int>(n->num_pis());
    for (int i = 0; i < 256; ++i) {
      const CellId c = n->add_cell(inv, "deadmon_u" + std::to_string(i));
      const NetId out = n->add_net("deadmon_n" + std::to_string(i));
      n->connect(c, in_pin, n->pi_net(i % npis));
      n->connect(c, inv->output_pin, out);
    }
    return n;
  }();
  return *nl;
}

const Netlist& grade_netlist() { return grade_netlist_mutable(); }

// The ATPG inner loop proper: grade the whole live fault list against a
// fixed budget of 512 patterns per iteration through FaultSimBank — one
// 512-lane wide batch, the same logical work the scalar substrate did as
// 8 sequential 64-pattern batches (items_per_second stays in 64-pattern
// fault-grade units for comparability). Arg = fault-sim worker threads
// (results are bit-identical across args; only the wall clock moves, so it
// is timed in real time: pool work never shows in main-thread CPU time).
void BM_FaultGradeLive(benchmark::State& state) {
  const CombModel model(grade_netlist(), SeqView::kCapture);
  FaultSimBank bank(model, static_cast<int>(state.range(0)));
  bank.configure_lanes(kMaxLaneWords);
  FaultList fl = build_fault_list(model);
  std::vector<Fault*> live;
  for (Fault& f : fl.faults) {
    if (f.status != FaultStatus::kScanTested) live.push_back(&f);
  }
  const std::vector<FaultTask> tasks = resolve_fault_tasks(model, live);
  Rng rng(2);
  std::vector<Word> words(model.input_nets().size() *
                          static_cast<std::size_t>(kMaxLaneWords));
  std::vector<Word> detect;
  for (auto _ : state) {
    for (auto& w : words) w = rng.next_u64();
    bank.load_batch(words);
    bank.grade(live, tasks, detect);
    benchmark::DoNotOptimize(detect.data());
  }
  state.SetItemsProcessed(state.iterations() * kMaxLaneWords *
                          static_cast<std::int64_t>(live.size()));
  state.counters["live_faults"] = static_cast<double>(live.size());
  const FaultSimStats s = bank.take_stats();
  state.counters["cone_skip_pct"] =
      s.faults_graded > 0 ? 100.0 * static_cast<double>(s.cone_skips) /
                                static_cast<double>(s.faults_graded)
                          : 0.0;
}
BENCHMARK(BM_FaultGradeLive)->Arg(1)->Arg(2)->Arg(4)->UseRealTime()->Unit(benchmark::kMillisecond);

// Whole ATPG stage (all three phases) on the largest generated profile the
// microbench uses — the single-circuit wall clock the sweep cannot hide.
// Arg = AtpgOptions::jobs; timed in real time like BM_FaultGradeLive.
void BM_AtpgStage(benchmark::State& state) {
  const CombModel model(scan_netlist(), SeqView::kCapture);
  const TestabilityResult t = analyze_testability(model);
  AtpgOptions opts;
  opts.jobs = static_cast<int>(state.range(0));
  for (auto _ : state) {
    const AtpgResult r = run_atpg(model, t, opts);
    benchmark::DoNotOptimize(r.detected);
  }
}
BENCHMARK(BM_AtpgStage)->Arg(1)->Arg(4)->UseRealTime()->Unit(benchmark::kMillisecond);

// DesignDB cache effect, cold side: a fresh database per iteration pays
// the full levelize + CombModel compile + testability analysis — what
// every consumer paid per stage before the cache existed.
void BM_DesignDbColdRebuild(benchmark::State& state) {
  Netlist& nl = scan_netlist_mutable();
  for (auto _ : state) {
    DesignDB db(nl);
    const TestabilityResult& t = db.testability(SeqView::kCapture);
    benchmark::DoNotOptimize(t.p1.size());
  }
  state.counters["rebuilds_per_iter"] = 3;  // topo + comb + testability
}
BENCHMARK(BM_DesignDbColdRebuild)->Unit(benchmark::kMillisecond);

// Cached side: the netlist is unedited between iterations, so every access
// is a version-check hit. The cold/cached gap is the per-stage saving the
// flow engine banks whenever a stage boundary carries no netlist edit.
void BM_DesignDbCachedReuse(benchmark::State& state) {
  MetricsRegistry reg;
  ScopedMetricsRegistry scope(reg);
  DesignDB db(scan_netlist_mutable());
  db.testability(SeqView::kCapture);  // warm all three views
  for (auto _ : state) {
    const CombModel& model = db.comb_model(SeqView::kCapture);
    const TestabilityResult& t = db.testability(SeqView::kCapture);
    benchmark::DoNotOptimize(model.num_nets());
    benchmark::DoNotOptimize(t.p1.size());
  }
  const MetricsSnapshot snap = reg.snapshot();
  const MetricValue* hits = snap.find("designdb.view_hits");
  state.counters["view_hits"] = hits != nullptr ? static_cast<double>(hits->count) : 0.0;
}
BENCHMARK(BM_DesignDbCachedReuse);

void BM_PodemPerFault(benchmark::State& state) {
  const CombModel model(scan_netlist(), SeqView::kCapture);
  const TestabilityResult t = analyze_testability(model);
  FaultList fl = build_fault_list(model);
  Podem podem(model, t, {});
  std::size_t cursor = 0;
  for (auto _ : state) {
    while (fl.faults[cursor].status == FaultStatus::kScanTested) {
      cursor = (cursor + 1) % fl.faults.size();
    }
    benchmark::DoNotOptimize(podem.generate(fl.faults[cursor]).outcome);
    cursor = (cursor + 1) % fl.faults.size();
  }
}
BENCHMARK(BM_PodemPerFault)->Unit(benchmark::kMicrosecond);

// Abort-heavy PODEM: the 3,000 hardest undetected faults of the scaled
// s38417 in run_atpg's hardest-first order (lowest detection probability
// first), one pass per iteration through one reused Podem. Where
// BM_PodemPerFault cycles through mostly easy faults, this one spends its
// time in backtracking and in aborted searches.
void BM_PodemHardFaults(benchmark::State& state) {
  const CombModel model(scan_netlist(), SeqView::kCapture);
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
  order.resize(std::min<std::size_t>(order.size(), 3000));
  Podem podem(model, t, {});
  int aborted = 0;
  for (auto _ : state) {
    aborted = 0;
    for (const Fault* f : order) aborted += podem.generate(*f).outcome == PodemOutcome::kAborted;
    benchmark::DoNotOptimize(aborted);
  }
  state.counters["faults"] = static_cast<double>(order.size());
  state.counters["aborted"] = aborted;
}
BENCHMARK(BM_PodemHardFaults)->Unit(benchmark::kMillisecond);

void BM_GlobalPlacement(benchmark::State& state) {
  const Netlist& nl = scan_netlist();
  const Floorplan fp = make_floorplan(nl, {});
  for (auto _ : state) {
    const Placement pl = place(nl, fp);
    benchmark::DoNotOptimize(pl.row_used_um.size());
  }
}
BENCHMARK(BM_GlobalPlacement)->Unit(benchmark::kMillisecond);

void BM_GlobalRouting(benchmark::State& state) {
  const Netlist& nl = scan_netlist();
  const Floorplan fp = make_floorplan(nl, {});
  const Placement pl = place(nl, fp);
  for (auto _ : state) {
    const RoutingResult r = route(nl, fp, pl);
    benchmark::DoNotOptimize(r.total_wire_length_um);
  }
}
BENCHMARK(BM_GlobalRouting)->Unit(benchmark::kMillisecond);

void BM_StaFullPass(benchmark::State& state) {
  const Netlist& nl = scan_netlist();
  const Floorplan fp = make_floorplan(nl, {});
  const Placement pl = place(nl, fp);
  const RoutingResult routes = route(nl, fp, pl);
  const ExtractionResult px = extract(nl, routes);
  for (auto _ : state) {
    const StaResult sta = run_sta(nl, px);
    benchmark::DoNotOptimize(sta.worst.t_cp_ps);
  }
}
BENCHMARK(BM_StaFullPass)->Unit(benchmark::kMillisecond);

// One at-speed transition LBIST session as the flow runs it: clocked at
// the post-layout t_cp with a defect of one rated period, the flow's
// default 16384-pattern budget, fault dropping on one thread.
void BM_LbistSession(benchmark::State& state) {
  const Netlist& nl = scan_netlist();
  const Floorplan fp = make_floorplan(nl, {});
  const Placement pl = place(nl, fp);
  const RoutingResult routes = route(nl, fp, pl);
  const StaResult sta = run_sta(nl, extract(nl, routes));
  const CombModel model(nl, SeqView::kCapture);
  LbistOptions opts;
  opts.fault_model = FaultModel::kTransition;
  opts.capture_period_ps = sta.worst.t_cp_ps;
  opts.fault_size_ps = sta.worst.t_cp_ps;
  opts.arrival_ps = &sta.arrival_ps;
  int patterns = 0;
  for (auto _ : state) {
    const LbistResult r = run_lbist(model, opts);
    patterns = r.patterns_applied;
    benchmark::DoNotOptimize(r.signature);
  }
  state.SetItemsProcessed(state.iterations() * patterns);
}
BENCHMARK(BM_LbistSession)->Unit(benchmark::kMillisecond);

// Verification kernels: the miter's cost is two circuit copies plus the
// XOR/OR reduction, stepped 64 lanes at a time; the bounded unroll is the
// expensive engine of EquivChecker (paired random initial states).
const Netlist& miter_netlist() {
  static const std::unique_ptr<Netlist> m = [] {
    auto golden = generate_circuit(lib(), micro_profile());
    Netlist mutant = *golden;
    {
      DesignDB db(mutant);
      TpiOptions tpi;
      tpi.num_test_points = 10;
      insert_test_points(db, tpi);
    }
    ScanOptions so;
    so.max_chain_length = 100;
    insert_scan(mutant);
    stitch_chains(mutant, plan_chains(mutant, so, {}));
    MiterResult res = build_miter(*golden, mutant);
    return std::move(res.netlist);
  }();
  return *m;
}

// One iteration = 512 lane-frames (8 sequential 64-lane steps on the
// scalar substrate; one 512-lane wide step on the SIMD one), so pre/post
// numbers compare equal logical work.
void BM_MiterSim(benchmark::State& state) {
  SequentialSim sim(miter_netlist(), kMaxLaneWords);
  Rng rng(0xB17E);
  std::vector<Word> pi(sim.model().num_pi_inputs() *
                       static_cast<std::size_t>(kMaxLaneWords));
  std::vector<Word> po;
  for (auto _ : state) {
    for (Word& w : pi) w = rng.next_u64();
    sim.step(pi, po);
    benchmark::DoNotOptimize(po.data());
  }
}
BENCHMARK(BM_MiterSim)->Unit(benchmark::kMicrosecond);

// 8 unroll rounds x 8 frames = 4096 lane-frames per check() — one lockstep
// group at full lane width on the SIMD substrate.
void BM_BoundedUnroll(benchmark::State& state) {
  EquivOptions opts;
  opts.random_rounds = 0;  // isolate the unroll engine
  opts.unroll_rounds = 8;
  opts.unroll_frames = 8;
  opts.ternary_frames = 0;
  EquivChecker checker(miter_netlist(), opts);
  for (auto _ : state) {
    const EquivResult res = checker.check();
    benchmark::DoNotOptimize(res.frames_simulated);
  }
}
BENCHMARK(BM_BoundedUnroll)->Unit(benchmark::kMillisecond);

// Observability overhead guards: a disabled span must cost about one
// branch (< 5 ns), an enabled one a couple of clock reads plus a locked
// append to the process sink.
void BM_SpanOverheadDisabled(benchmark::State& state) {
  set_trace_enabled(false);
  for (auto _ : state) {
    TPI_SPAN("bench.disabled");
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_SpanOverheadDisabled);

void BM_SpanOverheadEnabled(benchmark::State& state) {
  trace_reset();
  set_trace_enabled(true);
  for (auto _ : state) {
    TPI_SPAN("bench.enabled");
    benchmark::ClobberMemory();
  }
  set_trace_enabled(false);
  trace_reset();  // 32 B/event: cap the resident growth across repetitions
}
// Fixed iteration count bounds the event log (~2M * 32 B ≈ 64 MB, up to
// twice that while the buffer grows) instead of letting the auto-tuner
// scale a ns-range op into the billions.
BENCHMARK(BM_SpanOverheadEnabled)->Iterations(2'000'000);

}  // namespace

// BENCHMARK_MAIN plus the kernel backend in the JSON context, so
// tools/bench_compare.py can tell when two files come from different hosts.
int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::AddCustomContext("simd_backend", tpi::simd_backend_name(tpi::simd_backend()));
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
