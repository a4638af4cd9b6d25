#include "netlist/design_db.hpp"

#include "util/metrics.hpp"

namespace tpi {

void DesignDB::count_hit() {
  ++counters_.view_hits;
  metrics().add("designdb.view_hits");
}

void DesignDB::count_rebuild(std::uint64_t Counters::* kind) {
  ++counters_.rebuilds;
  ++(counters_.*kind);
  metrics().add("designdb.rebuilds");
  if (kind == &Counters::topo_rebuilds) metrics().add("designdb.rebuilds.topo");
  if (kind == &Counters::comb_rebuilds) metrics().add("designdb.rebuilds.comb");
  if (kind == &Counters::testability_rebuilds) {
    metrics().add("designdb.rebuilds.testability");
  }
}

template <typename T, typename Build>
const T& DesignDB::serve(Slot<T>& slot, std::uint64_t Counters::* kind, Build build) {
  const std::uint64_t v = nl_->version();
  if (slot.value && slot.built == v) {
    count_hit();
    return *slot.value;
  }
  slot.value = build();
  slot.built = v;
  count_rebuild(kind);
  return *slot.value;
}

const TopoOrder& DesignDB::topo(SeqView view) {
  std::lock_guard<std::mutex> lock(mu_);
  return topo_locked(view);
}

const TopoOrder& DesignDB::topo_locked(SeqView view) {
  return serve(topo_[static_cast<std::size_t>(view)], &Counters::topo_rebuilds,
               [&] { return std::make_unique<TopoOrder>(levelize(*nl_, view)); });
}

const CombModel& DesignDB::comb_model(SeqView view) {
  std::lock_guard<std::mutex> lock(mu_);
  return comb_locked(view);
}

const CombModel& DesignDB::comb_locked(SeqView view) {
  return serve(comb_[static_cast<std::size_t>(view)], &Counters::comb_rebuilds, [&] {
    return std::make_unique<CombModel>(*nl_, view, topo_locked(view));
  });
}

const TestabilityResult& DesignDB::testability(SeqView view) {
  std::lock_guard<std::mutex> lock(mu_);
  // Resolve the model first (counted as its own hit or rebuild).
  const CombModel& model = comb_locked(view);
  return serve(testab_[static_cast<std::size_t>(view)], &Counters::testability_rebuilds,
               [&] { return std::make_unique<TestabilityResult>(analyze_testability(model)); });
}

DesignDB::Counters DesignDB::counters() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counters_;
}

void DesignDB::adopt_views_from(const DesignDB& warm) {
  std::scoped_lock lock(mu_, warm.mu_);
  for (std::size_t i = 0; i < 2; ++i) {
    if (warm.topo_[i].value) {
      topo_[i].value = std::make_unique<TopoOrder>(*warm.topo_[i].value);
      topo_[i].built = warm.topo_[i].built;
    }
    if (warm.comb_[i].value) {
      // Rebind to this DB's netlist: the adopted model must read live
      // num_nets() from the copy it now serves, not the cache's golden.
      comb_[i].value = std::make_unique<CombModel>(*warm.comb_[i].value, *nl_);
      comb_[i].built = warm.comb_[i].built;
    }
    if (warm.testab_[i].value) {
      testab_[i].value = std::make_unique<TestabilityResult>(*warm.testab_[i].value);
      testab_[i].built = warm.testab_[i].built;
    }
  }
}

}  // namespace tpi
