#include "netlist/netlist.hpp"

#include <algorithm>
#include <cassert>
#include <sstream>

namespace tpi {

Netlist::Netlist(const CellLibrary* lib, std::string name)
    : lib_(lib), name_(std::move(name)) {
  assert(lib_ != nullptr);
}

NetId Netlist::add_net(std::string net_name) {
  EditScope edit(*this);
  const NetId id = static_cast<NetId>(nets_.size());
  nets_.push_back(Net{std::move(net_name), {}, -1, {}, {}});
  return id;
}

CellId Netlist::add_cell(const CellSpec* spec, std::string cell_name) {
  assert(spec != nullptr);
  EditScope edit(*this);
  const CellId id = static_cast<CellId>(cells_.size());
  CellInst inst;
  inst.name = std::move(cell_name);
  inst.spec = spec;
  inst.conn.assign(spec->pins.size(), kNoNet);
  cells_.push_back(std::move(inst));
  return id;
}

void Netlist::connect(CellId cell_id, int pin, NetId net_id) {
  EditScope edit(*this);
  CellInst& inst = cell(cell_id);
  assert(pin >= 0 && static_cast<std::size_t>(pin) < inst.conn.size());
  assert(inst.conn[static_cast<std::size_t>(pin)] == kNoNet);
  inst.conn[static_cast<std::size_t>(pin)] = net_id;
  Net& n = net(net_id);
  if (inst.spec->pins[static_cast<std::size_t>(pin)].dir == PinDir::kOutput) {
    assert(!n.driver.valid() && n.pi_index < 0);
    n.driver = PinRef{cell_id, pin};
  } else {
    n.sinks.push_back(PinRef{cell_id, pin});
  }
}

void Netlist::disconnect(CellId cell_id, int pin) {
  CellInst& inst = cell(cell_id);
  const NetId net_id = inst.conn[static_cast<std::size_t>(pin)];
  if (net_id == kNoNet) return;  // no-op: no version bump
  EditScope edit(*this);
  inst.conn[static_cast<std::size_t>(pin)] = kNoNet;
  Net& n = net(net_id);
  const PinRef ref{cell_id, pin};
  if (n.driver == ref) {
    n.driver = PinRef{};
  } else {
    // connect() asserts the pin is free, so the pair is in the sinks once.
    const auto it = std::find(n.sinks.begin(), n.sinks.end(), ref);
    assert(it != n.sinks.end());
    n.sinks.erase(it);
  }
}

int Netlist::add_primary_input(std::string pi_name) {
  EditScope edit(*this);
  const int idx = static_cast<int>(pi_names_.size());
  NetId n = add_net(pi_name);
  net(n).pi_index = idx;
  pi_names_.push_back(std::move(pi_name));
  pi_nets_.push_back(n);
  return idx;
}

int Netlist::add_primary_output(std::string po_name, NetId net_id) {
  EditScope edit(*this);
  const int idx = static_cast<int>(po_names_.size());
  po_names_.push_back(std::move(po_name));
  po_nets_.push_back(net_id);
  net(net_id).po_sinks.push_back(idx);
  return idx;
}

void Netlist::mark_clock(int pi_index) {
  EditScope edit(*this);
  clock_pis_.push_back(pi_index);
}

bool Netlist::is_clock_net(NetId net_id) const {
  const Net& n = net(net_id);
  if (n.driven_by_pi()) {
    return std::find(clock_pis_.begin(), clock_pis_.end(), n.pi_index) != clock_pis_.end();
  }
  // Clock-tree buffer outputs are clock nets too.
  if (n.driver.valid()) {
    return cell(n.driver.cell).spec->func == CellFunc::kClkBuf;
  }
  return false;
}

void Netlist::replace_spec(CellId cell_id, const CellSpec* new_spec) {
  EditScope edit(*this);
  CellInst& inst = cell(cell_id);
  const CellSpec* old_spec = inst.spec;
  const PinNets old_conn = inst.conn;

  // Detach everything, swap the spec, reattach by pin name.
  for (std::size_t p = 0; p < old_conn.size(); ++p) {
    if (old_conn[p] != kNoNet) disconnect(cell_id, static_cast<int>(p));
  }
  inst.spec = new_spec;
  inst.conn.assign(new_spec->pins.size(), kNoNet);
  for (std::size_t p = 0; p < old_conn.size(); ++p) {
    if (old_conn[p] == kNoNet) continue;
    const int np = new_spec->find_pin(old_spec->pins[p].name);
    if (np >= 0) connect(cell_id, np, old_conn[p]);
  }
}

NetId Netlist::insert_cell_in_net(NetId net_id, CellId new_cell, int in_pin,
                                  const std::vector<PinRef>& sink_subset) {
  EditScope edit(*this);
  NetId fresh = add_net(net(net_id).name + "_tp" + std::to_string(new_cell));
  // Move sinks first (so the new cell's input doesn't get moved).
  std::vector<PinRef> to_move = sink_subset.empty() ? net(net_id).sinks : sink_subset;
  for (const PinRef& ref : to_move) {
    disconnect(ref.cell, ref.pin);
    connect(ref.cell, ref.pin, fresh);
  }
  if (sink_subset.empty()) {
    // Primary outputs move along when splitting the whole net.
    Net& old_net = net(net_id);
    for (int po : old_net.po_sinks) {
      po_nets_[static_cast<std::size_t>(po)] = fresh;
      net(fresh).po_sinks.push_back(po);
    }
    old_net.po_sinks.clear();
  }
  connect(new_cell, in_pin, net_id);
  const int out = cell(new_cell).spec->output_pin;
  assert(out >= 0);
  connect(new_cell, out, fresh);
  return fresh;
}

CellId Netlist::find_cell(std::string_view cell_name) const {
  for (std::size_t i = 0; i < cells_.size(); ++i) {
    if (cells_[i].name == cell_name) return static_cast<CellId>(i);
  }
  return kNoCell;
}

NetId Netlist::find_net(std::string_view net_name) const {
  for (std::size_t i = 0; i < nets_.size(); ++i) {
    if (nets_[i].name == net_name) return static_cast<NetId>(i);
  }
  return kNoNet;
}

std::vector<CellId> Netlist::flip_flops() const {
  std::vector<CellId> out;
  for (std::size_t i = 0; i < cells_.size(); ++i) {
    if (cells_[i].spec->sequential) out.push_back(static_cast<CellId>(i));
  }
  return out;
}

Netlist::Stats Netlist::stats() const {
  Stats s;
  s.cells = cells_.size();
  s.nets = nets_.size();
  s.pis = pi_names_.size();
  s.pos = po_names_.size();
  for (const auto& c : cells_) {
    s.cell_area_um2 += c.spec->area_um2();
    if (c.spec->sequential) {
      ++s.flip_flops;
      if (c.spec->func == CellFunc::kTsff) ++s.test_points;
    } else if (c.spec->func != CellFunc::kFiller) {
      ++s.combinational;
    }
  }
  return s;
}

std::string Netlist::validate() const {
  std::ostringstream err;
  for (std::size_t ci = 0; ci < cells_.size(); ++ci) {
    const CellInst& c = cells_[ci];
    if (c.conn.size() != c.spec->pins.size()) {
      err << "cell " << c.name << ": pin count mismatch";
      return err.str();
    }
    for (std::size_t p = 0; p < c.conn.size(); ++p) {
      const NetId nid = c.conn[p];
      if (nid == kNoNet) continue;
      const Net& n = net(nid);
      const PinRef ref{static_cast<CellId>(ci), static_cast<int>(p)};
      const bool is_out = c.spec->pins[p].dir == PinDir::kOutput;
      if (is_out) {
        if (!(n.driver == ref)) {
          err << "cell " << c.name << " pin " << c.spec->pins[p].name
              << ": net " << n.name << " driver mismatch";
          return err.str();
        }
      } else if (std::find(n.sinks.begin(), n.sinks.end(), ref) == n.sinks.end()) {
        err << "cell " << c.name << " pin " << c.spec->pins[p].name
            << ": missing from sinks of net " << n.name;
        return err.str();
      }
    }
  }
  for (std::size_t ni = 0; ni < nets_.size(); ++ni) {
    const Net& n = nets_[ni];
    if (n.driver.valid() && n.pi_index >= 0) {
      err << "net " << n.name << ": driven by both cell and PI";
      return err.str();
    }
    if (n.driver.valid()) {
      const CellInst& d = cell(n.driver.cell);
      if (d.conn[static_cast<std::size_t>(n.driver.pin)] != static_cast<NetId>(ni)) {
        err << "net " << n.name << ": stale driver reference";
        return err.str();
      }
    }
    for (const PinRef& s : n.sinks) {
      if (cell(s.cell).conn[static_cast<std::size_t>(s.pin)] != static_cast<NetId>(ni)) {
        err << "net " << n.name << ": stale sink reference";
        return err.str();
      }
    }
  }
  return {};
}

}  // namespace tpi
