#include "atpg/fault_sim.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <future>

#include "util/thread_pool.hpp"
#include "util/trace.hpp"

namespace tpi {

namespace {

// Faults per grading chunk of first_detections: each worker grades its
// range in chunks this size, so its detect buffer stays at kFirstChunk x
// lane_words() words whatever the live list's length.
constexpr std::size_t kFirstChunk = 256;

// Index of the first pattern below `patterns` whose bit is set in the
// fault's detect words `d`, or -1. Pattern j*64 + k lives in bit k of word
// j, so the first detector is the lowest set bit of the first nonzero
// word; lanes at or past `patterns` are masked off.
int first_detection(const Word* d, std::size_t patterns) {
  for (std::size_t j = 0; j * kWordBits < patterns; ++j) {
    Word w = d[j];
    const std::size_t lanes = patterns - j * kWordBits;
    if (lanes < static_cast<std::size_t>(kWordBits)) w &= (Word{1} << lanes) - 1;
    if (w != 0) return static_cast<int>(j * kWordBits) + std::countr_zero(w);
  }
  return -1;
}

}  // namespace

// One worker's private grading state: the faulty-value scratch the
// kernels propagate through, a detect buffer for first_detections' chunks
// and the counters.
struct FaultSimBank::Worker {
  FaultScratch scratch;
  std::vector<Word> chunk;  ///< kFirstChunk faults' detect words
  FaultSimStats stats;

  // Write first[i] for faults[lo, hi): grade the range kFirstChunk faults
  // at a time into `chunk` and keep only each fault's first detection.
  void first_detections(const FaultSimBank& bank, Fault* const* faults, const FaultTask* tasks,
                        std::size_t lo, std::size_t hi, std::size_t patterns, int* first) {
    const std::size_t nw = static_cast<std::size_t>(bank.lane_words());
    chunk.resize(kFirstChunk * nw);
    for (std::size_t c = lo; c < hi; c += kFirstChunk) {
      const std::size_t count = std::min(kFirstChunk, hi - c);
      grade(bank, faults + c, tasks + c, count, chunk.data());
      for (std::size_t i = 0; i < count; ++i) {
        first[c + i] = first_detection(chunk.data() + i * nw, patterns);
      }
    }
  }

  // Grade `count` faults, resolved as `tasks`, against the bank's good
  // state: detect[i*lane_words() + j] is fault i's lane word j.
  void grade(const FaultSimBank& bank, Fault* const* faults, const FaultTask* tasks,
             std::size_t count, Word* detect) {
    sim_kernels().grade(*bank.model_, scratch, bank.good_.values().data(), tasks, count, detect,
                        stats);
    const std::size_t nw = static_cast<std::size_t>(bank.lane_words());
    for (std::size_t i = 0; i < count; ++i) {
      const Fault& f = *faults[i];
      if (f.model != FaultModel::kTransition) continue;
      // Transition launch mask, ANDed into the capture-frame detect words:
      // slow-to-fall needs launch 1 at the site, slow-to-rise launch 0. A
      // single-frame batch has no launch frame and detects nothing.
      Word* d = detect + i * nw;
      if (!bank.has_launch_) {
        std::fill(d, d + nw, Word{0});
        continue;
      }
      const Word* launch = bank.launch_values_.data() + static_cast<std::size_t>(f.net) * nw;
      for (std::size_t j = 0; j < nw; ++j) d[j] &= f.stuck1 ? launch[j] : ~launch[j];
    }
  }
};

FaultTask resolve_fault_task(const CombModel& model, const Fault& fault) {
  FaultTask task;
  task.net = fault.net;
  task.stuck1 = fault.stuck1;
  if (fault.is_stem()) return task;
  for (const int reader : model.readers_of(fault.net)) {
    if (model.nodes()[static_cast<std::size_t>(reader)].cell == fault.branch.cell) {
      task.branch_reader = reader;
      return task;
    }
  }
  // No logic reader: an FF D-pin branch is captured directly whenever the
  // good value differs; any other sink (PO branch, scan pin) is dead.
  const CellSpec* spec = model.netlist().cell(fault.branch.cell).spec;
  if (spec->sequential && fault.branch.pin == spec->d_pin) {
    task.direct_capture = true;
  } else {
    task.dead_branch = true;
  }
  return task;
}

std::vector<FaultTask> resolve_fault_tasks(const CombModel& model,
                                           const std::vector<Fault*>& faults) {
  std::vector<FaultTask> tasks;
  tasks.reserve(faults.size());
  for (const Fault* f : faults) tasks.push_back(resolve_fault_task(model, *f));
  return tasks;
}

FaultSimBank::FaultSimBank(const CombModel& model, int jobs) : model_(&model), good_(model) {
  unsigned n = jobs <= 0 ? ThreadPool::default_concurrency() : static_cast<unsigned>(jobs);
  if (n < 1) n = 1;
  workers_.reserve(n);
  for (unsigned i = 0; i < n; ++i) {
    workers_.push_back(std::make_unique<Worker>());
    workers_.back()->scratch.prepare(model, good_.lane_words());
  }
  if (n > 1) pool_ = std::make_unique<ThreadPool>(n);
}

FaultSimBank::~FaultSimBank() = default;

void FaultSimBank::configure_lanes(int lane_words) {
  if (lane_words == good_.lane_words()) return;
  good_.configure_lanes(lane_words);
  for (auto& w : workers_) w->scratch.prepare(*model_, lane_words);
}

void FaultSimBank::load_batch(const std::vector<Word>& input_words) {
  good_.load_inputs(input_words);
  good_.run();
  has_launch_ = false;
}

void FaultSimBank::load_batch_loc(const std::vector<Word>& input_words) {
  good_.load_inputs(input_words);
  good_.run();
  launch_values_ = good_.values();  // V1 frame, net-major
  const CombModel& m = *model_;
  const std::size_t nw = static_cast<std::size_t>(lane_words());
  capture_inputs_ = input_words;  // PIs held across launch and capture
  const std::size_t nff = m.boundary_ffs().size();
  for (std::size_t i = 0; i < nff; ++i) {
    const NetId d = m.observe_nets()[m.num_po_observes() + i];
    const Word* w = launch_values_.data() + static_cast<std::size_t>(d) * nw;
    for (std::size_t j = 0; j < nw; ++j) {
      capture_inputs_[(m.num_pi_inputs() + i) * nw + j] = w[j];
    }
  }
  good_.load_inputs(capture_inputs_);
  good_.run();
  has_launch_ = true;
}

template <class Body>
void FaultSimBank::for_each_range(std::size_t n, const Body& body) {
  const std::size_t workers = workers_.size();
  // Tiny lists are not worth the dispatch; the result is identical either
  // way (each fault is graded exactly once, output indexed by position).
  if (pool_ == nullptr || n < static_cast<std::size_t>(kWordBits) * workers) {
    body(*workers_.front(), std::size_t{0}, n);
    return;
  }
  std::vector<std::future<void>> done;
  done.reserve(workers);
  for (std::size_t c = 0; c < workers; ++c) {
    const std::size_t lo = n * c / workers;
    const std::size_t hi = n * (c + 1) / workers;
    if (lo == hi) continue;
    done.push_back(pool_->submit([this, &body, c, lo, hi] {
      TPI_SPAN("atpg.grade_chunk");
      body(*workers_[c], lo, hi);
    }));
  }
  for (auto& f : done) f.get();
}

void FaultSimBank::grade(const std::vector<Fault*>& faults, const std::vector<FaultTask>& tasks,
                         std::vector<Word>& detect) {
  assert(tasks.size() == faults.size());
  const std::size_t nw = static_cast<std::size_t>(lane_words());
  detect.resize(faults.size() * nw);
  for_each_range(faults.size(), [&](Worker& w, std::size_t lo, std::size_t hi) {
    w.grade(*this, faults.data() + lo, tasks.data() + lo, hi - lo, detect.data() + lo * nw);
  });
}

void FaultSimBank::first_detections(const std::vector<Fault*>& live,
                                    const std::vector<FaultTask>& tasks, std::size_t patterns,
                                    std::vector<int>& first) {
  assert(tasks.size() == live.size());
  const std::size_t nw = static_cast<std::size_t>(lane_words());
  patterns = std::min(patterns, nw * kWordBits);  // the batch holds no more
  first.resize(live.size());  // every entry is written by its range's worker
  for_each_range(live.size(), [&](Worker& w, std::size_t lo, std::size_t hi) {
    w.first_detections(*this, live.data(), tasks.data(), lo, hi, patterns, first.data());
  });
}

FaultSimStats FaultSimBank::take_stats() {
  FaultSimStats total;
  for (auto& w : workers_) {
    total += w->stats;
    w->stats = {};
  }
  return total;
}

void drop_first_detected(std::vector<Fault*>& live, std::vector<FaultTask>& tasks,
                         const std::vector<int>& first, std::size_t limit) {
  assert(tasks.size() == live.size());
  std::size_t w = 0;
  for (std::size_t i = 0; i < live.size(); ++i) {
    if (first[i] >= 0 && static_cast<std::size_t>(first[i]) < limit) {
      live[i]->status = FaultStatus::kDetected;
    } else {
      live[w] = live[i];
      tasks[w++] = tasks[i];
    }
  }
  live.resize(w);
  tasks.resize(w);
}

}  // namespace tpi
