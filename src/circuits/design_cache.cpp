#include "circuits/design_cache.hpp"

#include <cstdio>

#include "circuits/generator.hpp"

namespace tpi {
namespace {

// Coarse resident-size estimate of one entry: the netlist's cell/net
// tables plus the warm capture-view model and testability arrays. Only
// used to apportion the MiB budget — exactness does not matter, scaling
// with design size does.
std::size_t estimate_bytes(const Netlist& nl) {
  const std::size_t cells = nl.num_cells();
  const std::size_t nets = nl.num_nets();
  return cells * 160 + nets * 224 + (1 << 12);
}

void append_num(std::string& out, double v) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%.17g;", v);
  out += buf;
}

void append_num(std::string& out, long long v) {
  out += std::to_string(v);
  out += ';';
}

}  // namespace

std::string DesignCache::key_of(const CircuitProfile& p, const CellLibrary& lib) {
  std::string key = lib.name();
  key += '|';
  key += p.name;
  key += '|';
  append_num(key, static_cast<long long>(p.num_ffs));
  append_num(key, static_cast<long long>(p.num_comb_gates));
  append_num(key, static_cast<long long>(p.num_pis));
  append_num(key, static_cast<long long>(p.num_pos));
  append_num(key, static_cast<long long>(p.num_clock_domains));
  for (const double f : p.domain_fraction) append_num(key, f);
  key += '|';
  append_num(key, static_cast<long long>(p.target_depth));
  append_num(key, static_cast<long long>(p.num_hard_blocks));
  append_num(key, static_cast<long long>(p.hard_block_width));
  append_num(key, static_cast<long long>(p.hard_classes_per_block));
  append_num(key, static_cast<long long>(p.hard_mode_bits));
  append_num(key, p.xor_bias);
  append_num(key, static_cast<long long>(p.num_hub_signals));
  append_num(key, p.hub_pick_prob);
  append_num(key, static_cast<long long>(static_cast<std::int64_t>(p.seed)));
  return key;
}

DesignCache::DesignCache(const CellLibrary& lib, std::size_t budget_bytes,
                         MetricsRegistry* registry)
    : lib_(lib), budget_bytes_(budget_bytes), registry_(registry) {}

std::shared_ptr<DesignCache::Entry> DesignCache::build(const CircuitProfile& profile) const {
  auto entry = std::make_shared<Entry>(generate_circuit(lib_, profile));
  // Warm exactly what the flow's first stage asks for: capture-view
  // testability, which forces the capture TopoOrder and CombModel. The
  // application view is built on first use, like any other view.
  entry->db_.testability(SeqView::kCapture);
  entry->bytes_ = estimate_bytes(entry->netlist());
  return entry;
}

std::shared_ptr<DesignCache::Entry> DesignCache::acquire(const CircuitProfile& profile) {
  const std::string key = key_of(profile, lib_);
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    const auto it = map_.find(key);
    if (it != map_.end()) {
      ++stats_.hits;
      if (registry_ != nullptr) registry_->add("server.cache.hits");
      it->second.last_used = ++tick_;
      return it->second.entry;
    }
    if (in_flight_.count(key) == 0) break;
    built_cv_.wait(lock);  // another thread is generating this key
  }

  ++stats_.misses;
  if (registry_ != nullptr) registry_->add("server.cache.misses");
  in_flight_.insert(key);
  lock.unlock();
  std::shared_ptr<Entry> entry;
  try {
    entry = build(profile);
  } catch (...) {
    lock.lock();
    in_flight_.erase(key);
    built_cv_.notify_all();
    throw;
  }
  lock.lock();
  in_flight_.erase(key);
  map_[key] = Resident{entry, ++tick_};
  stats_.bytes += entry->bytes();
  stats_.entries = map_.size();
  evict_over_budget_locked(key);
  built_cv_.notify_all();
  return entry;
}

void DesignCache::evict_over_budget_locked(const std::string& just_inserted) {
  while (stats_.bytes > budget_bytes_ && map_.size() > 1) {
    auto victim = map_.end();
    for (auto it = map_.begin(); it != map_.end(); ++it) {
      if (it->first == just_inserted) continue;  // newest entry always stays
      if (victim == map_.end() || it->second.last_used < victim->second.last_used) {
        victim = it;
      }
    }
    if (victim == map_.end()) break;
    stats_.bytes -= victim->second.entry->bytes();
    map_.erase(victim);
    ++stats_.evictions;
    if (registry_ != nullptr) registry_->add("server.cache.evictions");
  }
  stats_.entries = map_.size();
}

DesignCache::Stats DesignCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace tpi
