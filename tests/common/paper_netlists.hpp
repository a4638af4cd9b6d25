// The three full-size paper circuits, each raw and again after a 5 % TP
// flow through eco, for the goldens that pin derived views byte for byte.
// The flowed netlists hold TSFFs, SDFFs, clock buffers, fillers and
// scan-enable buffers, so every cell kind the views filter occurs.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "circuits/generator.hpp"
#include "circuits/profiles.hpp"
#include "flow/flow.hpp"
#include "test_circuits.hpp"
#include "util/ledger.hpp"

namespace tpi::test {

/// Calls fn(label, netlist) six times: s38417, circuit1 and p26909, each
/// raw and then after tpi_scan, floorplan_place and eco at 5 % TP.
template <class Fn>
void for_each_paper_netlist(Fn&& fn) {
  for (const CircuitProfile& profile : {s38417_profile(), circuit1_profile(), p26909_profile()}) {
    auto nl = generate_circuit(lib(), profile);
    fn(profile.name + " raw", static_cast<const Netlist&>(*nl));
    FlowOptions opts;
    opts.tp_percent = 5.0;
    FlowEngine engine(*nl, profile, opts);
    for (const Stage s : {Stage::kTpiScan, Stage::kFloorplanPlace, Stage::kEco}) {
      ASSERT_TRUE(engine.run_stage(s)) << profile.name << " " << stage_name(s);
    }
    fn(profile.name + " 5% TP after eco", static_cast<const Netlist&>(*nl));
  }
}

/// Appends the raw bytes of `v` to `bytes` (input of fnv1a_64 digests).
template <class T>
void append_bytes(std::string& bytes, const std::vector<T>& v) {
  bytes.append(reinterpret_cast<const char*>(v.data()), v.size() * sizeof(T));
}

}  // namespace tpi::test
