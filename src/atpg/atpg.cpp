#include "atpg/atpg.hpp"

#include <algorithm>

#include "atpg/fault_sim.hpp"
#include "netlist/design_db.hpp"
#include "util/log.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"
#include "util/trace.hpp"

namespace tpi {
namespace {

// Pure-random warm-up batches of 64 patterns (dropped again by static
// compaction when useless).
constexpr int kRandomBatches = 10;
// Stop the random warm-up early when a batch detects fewer equivalent
// faults than this.
constexpr int kRandomMinYield = 8;

// Pack batch[0..count) (count <= nw*64) into per-input lane words
// (input-major): pattern k lands in bit k%64 of words[i*nw + k/64]. Lanes
// past the pattern count stay zero (phantom all-zero vectors that
// FaultSimBank::first_detections never counts).
void pack_batch(const std::vector<TestPattern>& batch, std::size_t count, std::size_t num_inputs,
                int nw, std::vector<Word>& words) {
  words.assign(num_inputs * static_cast<std::size_t>(nw), 0);
  for (std::size_t k = 0; k < count; ++k) {
    const auto& bits = batch[k].bits;
    const std::size_t j = k / kWordBits;
    const int bit = static_cast<int>(k % kWordBits);
    for (std::size_t i = 0; i < num_inputs; ++i) {
      words[i * static_cast<std::size_t>(nw) + j] |= static_cast<Word>(bits[i] & 1) << bit;
    }
  }
}

// Live = could still be detected by a pattern: everything but kDetected and
// kScanTested (kRedundant/kAborted stay eligible — simulation evidence of
// detection overrides them). Built, with each live fault's resolved task,
// once for the random and PODEM phases and once for static compaction, and
// maintained incrementally by drop_first_detected instead of rescanning
// the whole fault list every batch.
void rebuild_live(const CombModel& model, FaultList& list, std::vector<Fault*>& live,
                  std::vector<FaultTask>& tasks) {
  live.clear();
  for (Fault& f : list.faults) {
    if (f.status != FaultStatus::kDetected && f.status != FaultStatus::kScanTested) {
      live.push_back(&f);
    }
  }
  tasks = resolve_fault_tasks(model, live);
}

}  // namespace

AtpgResult run_atpg(const CombModel& model, const TestabilityResult& testability,
                    const AtpgOptions& opts) {
  AtpgResult res;
  res.fault_model = opts.fault_model;
  res.faults = build_fault_list(model, opts.fault_model);
  res.total_faults = res.faults.total_uncollapsed;
  const bool loc = opts.fault_model == FaultModel::kTransition;

  FaultSimBank bank(model, opts.jobs);
  std::uint64_t sim_batches = 0;  ///< 64-pattern batches graded, all phases
  Podem podem(model, testability, opts.podem);
  Rng rng(opts.seed);
  const std::size_t num_inputs = model.input_nets().size();

  // Launch-on-capture loads the pattern as the launch frame and grades the
  // derived capture frame; stuck-at grades the pattern directly.
  auto load_bank = [&](const std::vector<Word>& w) {
    if (loc) {
      bank.load_batch_loc(w);
    } else {
      bank.load_batch(w);
    }
  };

  // Transition targets on pseudo-input nets need the launch frame to set
  // the site's initial value; map each pseudo-input net to its input slot.
  std::vector<int> pseudo_input_slot;
  if (loc) {
    pseudo_input_slot.assign(model.netlist().num_nets(), -1);
    for (std::size_t i = model.num_pi_inputs(); i < num_inputs; ++i) {
      pseudo_input_slot[static_cast<std::size_t>(model.input_nets()[i])] =
          static_cast<int>(i);
    }
  }

  // Reusable batch scaffolding, hoisted out of the per-batch loops: the
  // pattern slots (with their bit vectors) and the packed input words are
  // allocated once and refilled every batch.
  std::vector<TestPattern> batch(static_cast<std::size_t>(kWordBits) * kMaxLaneWords);
  for (TestPattern& p : batch) p.bits.resize(num_inputs);
  std::vector<Word> words;
  std::vector<int> first;  ///< first detecting pattern per live fault
  std::vector<Fault*> live;
  live.reserve(res.faults.faults.size());
  std::vector<FaultTask> tasks;  ///< live[i] resolved, kept aligned with it
  rebuild_live(model, res.faults, live, tasks);

  // Pack batch[0..count) into `nw` lane words, load them into the bank
  // and write each live fault's first detecting pattern into `first`.
  auto grade_batch = [&](std::size_t count, int nw) {
    pack_batch(batch, count, num_inputs, nw, words);
    bank.configure_lanes(nw);
    load_bank(words);
    bank.first_detections(live, tasks, count, first);
  };

  // ---- phase 1: pseudo-random warm-up ----
  // Super-batched: up to kMaxLaneWords 64-pattern batches are generated,
  // packed and graded in one wide pass (one net visit grades them all).
  // The legacy per-batch yield cutoff is replicated from the per-fault
  // first detecting pattern: sub-batch s's yield is the equiv count of
  // kUndetected faults first detected in lane word s, the phase stops at
  // the first sub-batch whose yield falls below kRandomMinYield (that
  // sub-batch's drops and patterns still count, as before), and faults
  // first detected after the cutoff stay live — their detecting patterns
  // were never applied.
  {
    TPI_SPAN("atpg.random");
    int b = 0;
    bool low_yield = false;
    while (b < kRandomBatches && !low_yield) {
      const int nb = super_batch_words(kRandomBatches - b);
      const std::size_t count = static_cast<std::size_t>(nb) * kWordBits;
      for (std::size_t k = 0; k < count; ++k) {
        for (auto& bit : batch[k].bits) {
          bit = static_cast<std::uint8_t>(rng.next_bool() ? 1 : 0);
        }
      }
      grade_batch(count, nb);

      std::int64_t yields[kMaxLaneWords] = {};
      for (std::size_t i = 0; i < live.size(); ++i) {
        if (first[i] >= 0 && live[i]->status == FaultStatus::kUndetected) {
          yields[first[i] / kWordBits] += live[i]->equiv_count;
        }
      }
      int applied = nb;
      for (int s = 0; s < nb; ++s) {
        if (yields[s] < kRandomMinYield) {
          applied = s + 1;
          low_yield = true;
          break;
        }
      }

      const std::size_t applied_patterns = static_cast<std::size_t>(applied) * kWordBits;
      drop_first_detected(live, tasks, first, applied_patterns);
      for (std::size_t k = 0; k < applied_patterns; ++k) res.patterns.push_back(batch[k]);
      sim_batches += static_cast<std::uint64_t>(applied);
      b += applied;
    }
  }

  // ---- phase 2: deterministic PODEM with dynamic compaction ----
  // Targets ordered hardest-first (lowest COP detection probability): hard
  // faults anchor patterns whose random fill then sweeps up easy faults.
  {
    TPI_SPAN("atpg.podem");
    std::vector<std::size_t> order;
    for (std::size_t i = 0; i < res.faults.faults.size(); ++i) {
      if (res.faults.faults[i].status == FaultStatus::kUndetected) order.push_back(i);
    }
    std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      const Fault& fa = res.faults.faults[a];
      const Fault& fb = res.faults.faults[b];
      const float pa = fa.stuck1 ? testability.detect_prob_sa0(fa.net)
                                 : testability.detect_prob_sa1(fa.net);
      const float pb = fb.stuck1 ? testability.detect_prob_sa0(fb.net)
                                 : testability.detect_prob_sa1(fb.net);
      return pa < pb;
    });

    std::size_t pos = 0;
    while (pos < order.size() &&
           static_cast<int>(res.patterns.size()) < opts.max_patterns) {
      std::size_t batch_n = 0;
      while (batch_n < kWordBits && pos < order.size()) {
        Fault& f = res.faults.faults[order[pos++]];
        if (f.status != FaultStatus::kUndetected) continue;
        ++res.podem_calls;
        const PodemResult pr = podem.generate(f);
        res.podem_backtracks += pr.backtracks;
        if (pr.outcome == PodemOutcome::kRedundant) {
          f.status = FaultStatus::kRedundant;
          continue;
        }
        if (pr.outcome == PodemOutcome::kAborted) {
          f.status = FaultStatus::kAborted;
          ++res.podem_aborts;
          continue;
        }
        TestPattern& p = batch[batch_n++];
        for (std::size_t i = 0; i < num_inputs; ++i) {
          const Tern t = pr.cube[i];
          p.bits[i] = t == Tern::kX ? static_cast<std::uint8_t>(rng.next_bool() ? 1 : 0)
                                    : static_cast<std::uint8_t>(t == Tern::k1 ? 1 : 0);
        }
        if (loc) {
          // The PODEM cube excites the capture-frame stuck-at equivalent;
          // applied as the launch frame it is a best-effort (pseudo
          // broadside) vector. When the fault site is a pseudo-input its
          // launch value is directly controllable: force the transition's
          // initial value (0 for slow-to-rise, 1 for slow-to-fall). The
          // two-cycle grading below keeps only truthful detections.
          const int slot = pseudo_input_slot[static_cast<std::size_t>(f.net)];
          if (slot >= 0) p.bits[static_cast<std::size_t>(slot)] = f.stuck1 ? 1 : 0;
        }
      }
      if (batch_n == 0) continue;
      grade_batch(batch_n, /*nw=*/1);
      drop_first_detected(live, tasks, first, batch_n);
      ++sim_batches;
      for (std::size_t k = 0; k < batch_n; ++k) res.patterns.push_back(batch[k]);
    }
  }
  res.patterns_before_compaction = static_cast<int>(res.patterns.size());

  // ---- phase 3: reverse-order static compaction ----
  if (!res.patterns.empty()) {
    TPI_SPAN("atpg.static_compaction");
    for (Fault& f : res.faults.faults) {
      if (f.status == FaultStatus::kDetected) f.status = FaultStatus::kUndetected;
    }
    rebuild_live(model, res.faults, live, tasks);
    std::vector<char> keep(res.patterns.size(), 0);
    const std::size_t n = res.patterns.size();
    std::size_t processed = 0;
    while (processed < n) {
      // Super-batch: up to kMaxLaneWords x 64 patterns graded per pass.
      // Lane k of the batch = pattern last - k, so the first detecting lane
      // is the first detector in reverse order — the same pattern the
      // 64-wide loop kept.
      const std::size_t remaining_words = (n - processed + kWordBits - 1) / kWordBits;
      const int nw = super_batch_words(static_cast<std::int64_t>(remaining_words));
      const std::size_t count =
          std::min<std::size_t>(static_cast<std::size_t>(nw) * kWordBits, n - processed);
      const std::size_t last = n - 1 - processed;
      for (std::size_t k = 0; k < count; ++k) batch[k].bits = res.patterns[last - k].bits;
      grade_batch(count, nw);
      sim_batches += (count + kWordBits - 1) / kWordBits;
      // A detected fault keeps the first pattern (in reverse order) that
      // detects it and leaves the live list.
      for (const int k : first) {
        if (k >= 0) keep[last - static_cast<std::size_t>(k)] = 1;
      }
      drop_first_detected(live, tasks, first, count);
      processed += count;
    }
    std::vector<TestPattern> kept;
    kept.reserve(res.patterns.size());
    for (std::size_t i = 0; i < n; ++i) {
      if (keep[i]) kept.push_back(std::move(res.patterns[i]));
    }
    res.patterns = std::move(kept);
  }

  // ---- metrics ----
  res.detected = res.faults.count_equiv(FaultStatus::kDetected);
  res.scan_tested = res.faults.count_equiv(FaultStatus::kScanTested);
  res.redundant = res.faults.count_equiv(FaultStatus::kRedundant);
  res.aborted = res.faults.count_equiv(FaultStatus::kAborted);
  const double total = static_cast<double>(res.total_faults);
  if (total > 0) {
    res.fault_coverage_pct = 100.0 * static_cast<double>(res.detected + res.scan_tested) / total;
    res.fault_efficiency_pct =
        100.0 * static_cast<double>(res.detected + res.scan_tested + res.redundant) / total;
  }
  log_info() << "ATPG " << model.netlist().name() << ": " << res.patterns.size()
             << " patterns (" << res.patterns_before_compaction << " pre-compaction), FC="
             << res.fault_coverage_pct << "% FE=" << res.fault_efficiency_pct << "%";
  // Fault-sim counters summed over all three phases; each fault is graded
  // exactly once per batch, so every atpg.* value below is deterministic
  // for any opts.jobs. The worker count itself is runtime-only.
  const FaultSimStats sim = bank.take_stats();
  log_info() << "ATPG kernel " << model.netlist().name() << ": jobs=" << bank.jobs()
             << " batches=" << sim_batches << " graded=" << sim.faults_graded
             << " cone_skips=" << sim.cone_skips << " node_evals=" << sim.node_evals;
  MetricsRegistry& m = metrics();
  m.add("atpg.patterns", static_cast<std::uint64_t>(res.num_patterns()));
  m.add("atpg.podem.calls", static_cast<std::uint64_t>(res.podem_calls));
  m.add("atpg.podem.aborts", static_cast<std::uint64_t>(res.podem_aborts));
  m.add("atpg.podem.backtracks", static_cast<std::uint64_t>(res.podem_backtracks));
  m.add("atpg.sim.batches", sim_batches);
  m.add("atpg.sim.faults_graded", sim.faults_graded);
  m.add("atpg.sim.cone_skips", sim.cone_skips);
  m.add("atpg.sim.node_evals", sim.node_evals);
  m.add("atpg.sim.events", sim.events);
  m.set("rt.atpg.sim.jobs", bank.jobs());
  return res;
}

AtpgResult run_atpg(DesignDB& db, const AtpgOptions& opts) {
  const CombModel& model = db.comb_model(SeqView::kCapture);
  const TestabilityResult& testability = db.testability(SeqView::kCapture);
  return run_atpg(model, testability, opts);
}

std::int64_t test_data_volume(int num_chains, int max_chain_length, int num_patterns) {
  const std::int64_t n = num_chains, l = max_chain_length, p = num_patterns;
  return 2 * n * ((l + 1) * p + l);
}

std::int64_t test_application_time(int max_chain_length, int num_patterns, int capture_cycles) {
  const std::int64_t l = max_chain_length, p = num_patterns, c = capture_cycles;
  return (l + c) * p + l;
}

}  // namespace tpi
