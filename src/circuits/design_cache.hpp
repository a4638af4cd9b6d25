// Keyed LRU cache of generated circuits and their warm DesignDB views,
// shared by the flow server (one cache per daemon) and the SOC composer
// (one cache per chip, so N embedded cores instantiating the same profile
// generate it once). Moved here from src/server in PR 10 — the cache only
// depends on the generator and the design database, not on the RPC front
// end.
//
// Generating a paper-sized circuit and building its capture-view
// topo/comb/testability is the dominant fixed cost of a flow request; two
// requests for the same profile at different TP percentages repeat it
// verbatim. The cache keys each entry on the full generation fingerprint
// (every CircuitProfile field, including the seed) plus the cell-library
// name, and holds the pristine generated netlist ("golden") together with
// a DesignDB whose capture-view slots were warmed once at build time.
//
// A job checks out a *copy* of the golden netlist (Netlist copies preserve
// the edit version), constructs its FlowEngine over the copy, and adopts
// the warm views via DesignDB::adopt_views_from — so repeat requests skip
// regeneration and the first topo/comb/testability rebuild while every job
// still edits a private netlist.
//
// Concurrency: one mutex over the map; a miss releases the lock for the
// build and registers the key as in flight, so concurrent first requests
// for the same profile build it exactly once (the laggards block and then
// count as hits). Entries are handed out as shared_ptr, so LRU eviction
// never invalidates a running job's checkout.
//
// Counters are recorded at event time into the registry passed at
// construction (the server's own, never a job's) as the deterministic
// server.cache.{hits,misses,evictions} metrics: for a fixed request
// multiset they are independent of arrival order and thread count (dedup
// makes the build count per key exactly one), except evictions under a
// budget tight enough that interleaving changes the LRU order.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "circuits/profiles.hpp"
#include "library/library.hpp"
#include "netlist/design_db.hpp"
#include "util/metrics.hpp"

namespace tpi {

class DesignCache {
 public:
  /// One cached design: the pristine generated netlist plus warm views.
  /// Immutable after construction apart from DesignDB's internal slots
  /// (view accessors are thread-safe; nobody edits the golden netlist).
  class Entry {
   public:
    explicit Entry(std::unique_ptr<Netlist> golden) : db_(std::move(golden)) {}
    const Netlist& netlist() const { return db_.netlist(); }
    /// Warm views to adopt_views_from after constructing an engine over a
    /// copy of netlist(). Never edit through this DB.
    DesignDB& db() { return db_; }
    std::size_t bytes() const { return bytes_; }

   private:
    friend class DesignCache;
    DesignDB db_;
    std::size_t bytes_ = 0;
  };

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::size_t bytes = 0;    ///< current resident estimate
    std::size_t entries = 0;  ///< current resident entries
  };

  /// `budget_bytes` caps the resident-entry estimate (the least recently
  /// used entries beyond it are dropped; the newest entry always stays, so
  /// a single oversized design still caches). `registry`, when non-null,
  /// receives the server.cache.* counters; the library must outlive the
  /// cache and every checked-out netlist copy.
  DesignCache(const CellLibrary& lib, std::size_t budget_bytes,
              MetricsRegistry* registry = nullptr);

  /// The cached entry for `profile`, generating and warming it on a miss.
  /// Thread-safe; concurrent misses on one key build once.
  std::shared_ptr<Entry> acquire(const CircuitProfile& profile);

  Stats stats() const;

  /// Canonical cache key: every generation-relevant CircuitProfile field
  /// plus the library name.
  static std::string key_of(const CircuitProfile& profile, const CellLibrary& lib);

 private:
  struct Resident {
    std::shared_ptr<Entry> entry;
    std::uint64_t last_used = 0;
  };

  std::shared_ptr<Entry> build(const CircuitProfile& profile) const;
  void evict_over_budget_locked(const std::string& just_inserted);

  const CellLibrary& lib_;
  const std::size_t budget_bytes_;
  MetricsRegistry* registry_;

  mutable std::mutex mu_;
  std::condition_variable built_cv_;
  std::unordered_map<std::string, Resident> map_;
  std::unordered_set<std::string> in_flight_;
  std::uint64_t tick_ = 0;
  Stats stats_;
};

}  // namespace tpi
