#include "netlist/design_db.hpp"

#include "util/metrics.hpp"

namespace tpi {

template <typename T, typename Build>
const T& DesignDB::serve(Slot<T>& slot, const char* rebuild_metric, Build build) {
  const std::uint64_t v = nl_->version();
  if (slot.value && slot.built == v) {
    metrics().add("designdb.view_hits");
    return *slot.value;
  }
  slot.value = build();
  slot.built = v;
  metrics().add("designdb.rebuilds");
  metrics().add(rebuild_metric);
  return *slot.value;
}

const TopoOrder& DesignDB::topo(SeqView view) {
  std::lock_guard<std::mutex> lock(mu_);
  return topo_locked(view);
}

const TopoOrder& DesignDB::topo_locked(SeqView view) {
  return serve(topo_[static_cast<std::size_t>(view)], "designdb.rebuilds.topo",
               [&] { return std::make_unique<TopoOrder>(levelize(*nl_, view)); });
}

const CombModel& DesignDB::comb_model(SeqView view) {
  std::lock_guard<std::mutex> lock(mu_);
  return comb_locked(view);
}

const CombModel& DesignDB::comb_locked(SeqView view) {
  return serve(comb_[static_cast<std::size_t>(view)], "designdb.rebuilds.comb", [&] {
    return std::make_unique<CombModel>(*nl_, view, topo_locked(view));
  });
}

const TestabilityResult& DesignDB::testability(SeqView view) {
  std::lock_guard<std::mutex> lock(mu_);
  // Resolve the model first (counted as its own hit or rebuild).
  const CombModel& model = comb_locked(view);
  return serve(testab_[static_cast<std::size_t>(view)], "designdb.rebuilds.testability",
               [&] { return std::make_unique<TestabilityResult>(analyze_testability(model)); });
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
