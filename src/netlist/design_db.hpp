// DesignDB — versioned design database with cached derived views.
//
// The paper's flow (Fig. 2) re-analyzes the same circuit after every edit
// step: each TPI round recomputes testability (§3.1 step 1), ATPG compiles
// the capture model, STA levelizes the application view. Instead of every
// consumer rebuilding its own derived structure, a DesignDB wraps the
// Netlist and serves lazily built, version-checked views:
//
//   topo(view)        — TopoOrder per SeqView
//   comb_model(view)  — CombModel per SeqView (includes the
//                       fault-reachability side table, reaches_observe)
//   testability(view) — SCOAP/COP TestabilityResult over comb_model(view)
//
// Freshness is decided against the Netlist edit version: a view is a
//   * hit      — netlist version unchanged since the view was built;
//   * rebuild  — any edit since; the view is built again from the netlist.
// A stale view is NEVER served: CombModel::num_nets() reads the live
// netlist, so serving stale per-net arrays would be out-of-bounds.
//
// Accesses record deterministic counters into the active MetricsRegistry
// (designdb.view_hits / designdb.rebuilds plus per-kind rebuild counts).
// They carry no "rt." prefix: identical at any TPI_BENCH_JOBS /
// TPI_ATPG_JOBS, so they are part of the sweep-JSON determinism contract.
//
// Thread safety: all view accessors serialise on an internal mutex, so
// concurrent read-only access from pool workers is safe. Returned
// references stay valid until the next Netlist edit; editing while another
// thread holds or requests a view is the caller's race, not the DB's.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>

#include "netlist/levelize.hpp"
#include "netlist/netlist.hpp"
#include "sim/comb_model.hpp"
#include "testability/testability.hpp"

namespace tpi {

class DesignDB {
 public:
  /// Non-owning: wrap a caller-held netlist (edits must go through
  /// netlist() or the same underlying object — the version check catches
  /// either way).
  explicit DesignDB(Netlist& nl) : nl_(&nl) {}
  /// Owning: the DB holds the netlist (e.g. straight from the generator).
  explicit DesignDB(std::unique_ptr<Netlist> nl)
      : owned_nl_(std::move(nl)), nl_(owned_nl_.get()) {}

  DesignDB(const DesignDB&) = delete;
  DesignDB& operator=(const DesignDB&) = delete;

  Netlist& netlist() { return *nl_; }
  const Netlist& netlist() const { return *nl_; }

  /// Cached topological order of `view`; valid until the next edit.
  const TopoOrder& topo(SeqView view);
  /// Cached compiled comb model of `view`; valid until the next edit.
  const CombModel& comb_model(SeqView view);
  /// Cached SCOAP/COP analysis over comb_model(view); valid until the next
  /// edit.
  const TestabilityResult& testability(SeqView view);

  /// Seed this DB's view slots from `warm`, a DB whose netlist this DB's
  /// netlist was copied from (Netlist copies preserve the edit version, so
  /// the adopted built-versions stay meaningful against the copy). Views
  /// `warm` has built are deep-copied — CombModels rebound to this DB's
  /// netlist — and served as ordinary hits afterwards; slots `warm` never
  /// built stay empty. Adoption itself records no counters.
  /// Used by the flow server's design cache to let repeat requests for the
  /// same profile skip topo/comb/testability rebuilds.
  void adopt_views_from(const DesignDB& warm);

 private:
  template <typename T>
  struct Slot {
    std::unique_ptr<T> value;
    std::uint64_t built = 0;  ///< netlist version at build time
  };

  /// Hit when `slot` was built at the current netlist version, else a
  /// rebuild through `build` (returns the new std::unique_ptr<T>), counted
  /// under designdb.rebuilds and `rebuild_metric`.
  template <typename T, typename Build>
  const T& serve(Slot<T>& slot, const char* rebuild_metric, Build build);

  // Unlocked implementations (mu_ held by the public accessors).
  const TopoOrder& topo_locked(SeqView view);
  const CombModel& comb_locked(SeqView view);

  std::unique_ptr<Netlist> owned_nl_;
  Netlist* nl_;
  mutable std::mutex mu_;
  Slot<TopoOrder> topo_[2];
  Slot<CombModel> comb_[2];
  Slot<TestabilityResult> testab_[2];
};

}  // namespace tpi
