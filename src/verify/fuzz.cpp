#include "verify/fuzz.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <memory>
#include <utility>

#include "circuits/generator.hpp"
#include "netlist/bench_io.hpp"
#include "netlist/design_db.hpp"
#include "scan/scan.hpp"
#include "tpi/tpi.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"
#include "verify/miter.hpp"

namespace tpi {
namespace {

/// splitmix64 finalizer (same construction as the equivalence checker):
/// independent streams per (seed, salt) so a dropped transform never shifts
/// the randomness of the ones that remain.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// Each iteration draws a pipeline of kMinTransforms to kMaxTransforms steps.
constexpr int kMinTransforms = 1;
constexpr int kMaxTransforms = 4;

constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) h = (h ^ p[i]) * kFnvPrime;
  return h;
}

std::uint64_t fnv1a(std::uint64_t h, const std::string& s) { return fnv1a(h, s.data(), s.size()); }

int first_input_pin(const CellSpec* spec) {
  for (std::size_t p = 0; p < spec->pins.size(); ++p) {
    if (spec->pins[p].dir == PinDir::kInput) return static_cast<int>(p);
  }
  return -1;
}

}  // namespace

CircuitProfile default_fuzz_profile() {
  CircuitProfile p;
  p.name = "fuzz_tiny";
  p.num_ffs = 24;
  p.num_comb_gates = 320;
  p.num_pis = 10;
  p.num_pos = 8;
  p.num_clock_domains = 1;
  p.domain_fraction = {1.0};
  p.target_depth = 10;
  p.num_hard_blocks = 2;
  p.hard_block_width = 6;
  p.hard_classes_per_block = 4;
  p.hard_mode_bits = 3;
  p.num_hub_signals = 3;
  p.hub_pick_prob = 0.02;
  p.max_chain_length = 10;
  return p;
}

EquivOptions fuzz_equiv_budget() {
  EquivOptions e;
  e.random_rounds = 2;
  e.frames_per_round = 8;
  e.unroll_rounds = 1;
  e.unroll_frames = 6;
  e.ternary_frames = 6;
  return e;
}

std::vector<FuzzTransform> default_fuzz_transforms() {
  std::vector<FuzzTransform> t;

  // TSFF insertion at 0–5% of the flip-flop count (§3.1 at fuzz scale).
  t.push_back({"tpi_insert", [](DesignDB& db, Rng& rng) {
                 const int ffs = static_cast<int>(db.netlist().flip_flops().size());
                 const int cap = std::max(1, ffs / 20);
                 const int num = static_cast<int>(rng.next_range(0, cap));
                 if (num == 0) return;
                 TpiOptions opts;
                 opts.num_test_points = num;
                 opts.rounds = 2;
                 insert_test_points(db, opts);
               }});

  // DFF -> SDFF conversion with the shared scan enable.
  t.push_back({"scan_insert", [](DesignDB& db, Rng& rng) {
                 // The draw once sized chains; it stays so a seed replays the
                 // same transform sequence.
                 rng.next_range(4, 16);
                 insert_scan(db.netlist());
               }});

  // Scan-chain stitching (insert scan first when it has not run yet);
  // guarded against double stitching — TI pins connect only once.
  t.push_back({"chain_stitch", [](DesignDB& db, Rng& rng) {
                 Netlist& nl = db.netlist();
                 if (nl.find_net("si0") != kNoNet) return;
                 ScanOptions opts;
                 opts.max_chain_length = static_cast<int>(rng.next_range(4, 16));
                 if (nl.find_net("scan_en") == kNoNet) insert_scan(nl);
                 const ChainPlan plan = plan_chains(nl, opts, {});
                 stitch_chains(nl, plan);
               }});

  // Buffer tree on a DfT control net (scan enable / TSFF TE / TR).
  t.push_back({"ctrl_buffer", [](DesignDB& db, Rng& rng) {
                 Netlist& nl = db.netlist();
                 std::vector<NetId> nets;
                 for (const char* name : {"scan_en", "tp_te", "tp_tr"}) {
                   const NetId n = nl.find_net(name);
                   if (n != kNoNet && nl.net(n).fanout() >= 2) nets.push_back(n);
                 }
                 if (nets.empty()) return;
                 const NetId net = nets[rng.next_below(nets.size())];
                 const int max_fanout = static_cast<int>(rng.next_range(4, 15));
                 buffer_high_fanout_net(nl, net, max_fanout);
               }});

  // CTS-style ECO: drop a clock buffer into a clock root.
  t.push_back({"clock_buffer_eco", [](DesignDB& db, Rng& rng) {
                 Netlist& nl = db.netlist();
                 const auto& clocks = nl.clock_pis();
                 const auto& bufs = nl.library().clock_buffers();
                 if (clocks.empty() || bufs.empty()) return;
                 const NetId root = nl.pi_net(clocks[rng.next_below(clocks.size())]);
                 if (nl.net(root).fanout() == 0) return;
                 const CellSpec* spec = bufs[rng.next_below(bufs.size())];
                 const int in_pin = first_input_pin(spec);
                 if (in_pin < 0) return;
                 const CellId buf =
                     nl.add_cell(spec, "fuzz.clkbuf." + std::to_string(nl.num_cells()));
                 nl.insert_cell_in_net(root, buf, in_pin);
               }});

  // Filler ECO: pin-less cells must be invisible to every derived view.
  t.push_back({"filler_eco", [](DesignDB& db, Rng& rng) {
                 Netlist& nl = db.netlist();
                 const auto& fillers = nl.library().fillers();
                 if (fillers.empty()) return;
                 const int count = static_cast<int>(rng.next_range(1, 3));
                 for (int i = 0; i < count; ++i) {
                   const CellSpec* spec = fillers[rng.next_below(fillers.size())];
                   nl.add_cell(spec, "fuzz.fill." + std::to_string(nl.num_cells()));
                 }
               }});

  return t;
}

TransformFuzzer::TransformFuzzer(const CellLibrary& lib, FuzzOptions opts)
    : lib_(&lib), opts_(std::move(opts)), transforms_(default_fuzz_transforms()) {}

void TransformFuzzer::add_transform(FuzzTransform transform) {
  transforms_.push_back(std::move(transform));
}

std::string TransformFuzzer::apply_pipeline(Netlist& nl, std::uint64_t iter_seed,
                                            const std::vector<PlanStep>& steps) const {
  DesignDB db(nl);
  for (const PlanStep& s : steps) {
    Rng rng(mix_seed(iter_seed, 0x100u + static_cast<unsigned>(s.position)));
    transforms_[static_cast<std::size_t>(s.transform)].apply(db, rng);
  }
  return nl.validate();
}

bool TransformFuzzer::pipeline_fails(const Netlist& golden, std::uint64_t iter_seed,
                                     const std::vector<PlanStep>& steps, bool shrink_cex,
                                     std::string* error, CexTrace* cex) const {
  Netlist mutant(golden);
  const std::string err = apply_pipeline(mutant, iter_seed, steps);
  if (!err.empty()) {
    if (error != nullptr) *error = err;
    return true;
  }
  const MiterResult m = build_miter(golden, mutant);
  if (!m.ok()) {
    if (error != nullptr) *error = m.error;
    return true;
  }
  EquivOptions eo = opts_.equiv;
  eo.shrink = shrink_cex;
  const EquivResult er = EquivChecker(*m.netlist, eo).check();
  if (er.equivalent) return false;
  if (cex != nullptr) *cex = er.cex;
  return true;
}

FuzzReport TransformFuzzer::run() {
  FuzzReport rep;
  rep.digest = kFnvOffset;
  for (int i = 0; i < opts_.iterations; ++i) {
    const std::uint64_t iter_seed = mix_seed(opts_.seed, static_cast<std::uint64_t>(i));
    CircuitProfile prof = opts_.profile;
    prof.seed = mix_seed(iter_seed, 1);
    const std::unique_ptr<Netlist> golden = generate_circuit(*lib_, prof);

    Rng plan(mix_seed(iter_seed, 2));
    const int count = static_cast<int>(plan.next_range(kMinTransforms, kMaxTransforms));
    std::vector<PlanStep> steps;
    steps.reserve(static_cast<std::size_t>(count));
    for (int p = 0; p < count; ++p) {
      steps.push_back({static_cast<int>(plan.next_below(transforms_.size())), p});
    }
    rep.transforms_applied += count;

    std::string error;
    const bool failed = pipeline_fails(*golden, iter_seed, steps, /*shrink_cex=*/false, &error,
                                       nullptr);
    if (failed) {
      FuzzFailure fail;
      fail.iteration = i;
      for (const PlanStep& s : steps) {
        fail.pipeline.push_back(transforms_[static_cast<std::size_t>(s.transform)].name);
      }
      // Greedy transform dropping: each remaining step keeps its original
      // position seed, so subsets reproduce exactly.
      std::vector<PlanStep> min_steps = steps;
      bool changed = true;
      while (changed) {
        changed = false;
        for (std::size_t k = 0; k < min_steps.size(); ++k) {
          std::vector<PlanStep> trial = min_steps;
          trial.erase(trial.begin() + static_cast<std::ptrdiff_t>(k));
          if (pipeline_fails(*golden, iter_seed, trial, false, nullptr, nullptr)) {
            min_steps = std::move(trial);
            changed = true;
            break;
          }
        }
      }
      fail.error.clear();
      pipeline_fails(*golden, iter_seed, min_steps, /*shrink_cex=*/true, &fail.error, &fail.cex);
      for (const PlanStep& s : min_steps) {
        fail.minimized.push_back(transforms_[static_cast<std::size_t>(s.transform)].name);
      }
      rep.failures.push_back(std::move(fail));
    }

    // Digest folds the mutant netlist and the outcome — the determinism
    // contract tests compare across thread-count environment settings.
    Netlist mutant(*golden);
    apply_pipeline(mutant, iter_seed, steps);
    rep.digest = fnv1a(rep.digest, write_bench_string(mutant));
    const unsigned char outcome = failed ? 1 : 0;
    rep.digest = fnv1a(rep.digest, &outcome, 1);
    ++rep.iterations_run;
  }
  return rep;
}

}  // namespace tpi
