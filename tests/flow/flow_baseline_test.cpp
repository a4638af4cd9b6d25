// The behavior-preservation contract of the fault-model refactor: a
// default (stuck-at) flow run serialises BYTE-identically to the
// pre-refactor baseline, at any fault-sim job count. The golden string
// below was generated by the seed code (before FaultModel existed) from
// tiny_profile(4242) with tp_percent = 10 and atpg.jobs = 1; nothing in
// the pluggable-fault-model plumbing may move a single byte of it.
//
// If an INTENDED change to the flow or its serialisation lands, regenerate
// the golden with the same recipe and update the string — but any diff
// must be explainable by that change, not by the stuck-at path having
// picked up transition-model behavior.
#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "../common/test_circuits.hpp"
#include "flow/flow.hpp"
#include "flow/flow_config.hpp"
#include "flow/flow_json.hpp"
#include "flow/sweep.hpp"

namespace tpi {
namespace {

// clang-format off
const char* kGoldenTinyFlowJson =
    R"gold({"circuit":"tiny","cancelled":false,"num_test_points":2,"num_ffs":26,"num_chains":3,"max_chain_length":9,"num_faults":2304,"fault_coverage_pct":97.569444444444443,"fault_efficiency_pct":99.913194444444443,"saf_patterns":96,"tdv_bits":5814,"tat_cycles":969,"num_cells":365,"num_rows":14,"row_length_um":52.400000000000006,"total_row_length_um":733.60000000000014,"core_area_um2":2640.96,"filler_area_pct":8.7786259541984712,"chip_area_um2":48576.160000000003,"wire_length_um":12897.226666666671,"aspect_ratio":1.0396825396825398,"row_utilization_pct":91.221374045801525,"sta_valid":true,"t_cp_ps":1389.9729865802838,"scan_enable_buffers":2,"clock_buffers":2,"scan_wire_length_um":183.19999999999999,"metrics":{"atpg.patterns":96,"atpg.podem.aborts":2,"atpg.podem.backtracks":328,"atpg.podem.calls":58,"atpg.sim.batches":16,"atpg.sim.cone_skips":6,"atpg.sim.events":44083,"atpg.sim.faults_graded":2406,"atpg.sim.node_evals":45052,"comb.nodes_deduped":33,"flow.stages_run":6,"placement.global_iterations":20,"routing.net_length_um":{"count":382,"sum":12897.226699999999,"min":0,"max":252.30670000000001,"mean":33.7624,"p50":19.043500000000002,"p95":137.1429,"p99":234.66669999999999,"buckets":{"0":1,"1":6,"2":20,"3":43,"4":103,"5":92,"6":71,"7":25,"8":21}},"routing.nets":382,"routing.overflowed_crossings":0,"sim.good_node_evals":978,"sim.good_sweeps":3,"sta.domains":1,"sta.runs":1,"sta.slow_nodes":0}})gold";
// clang-format on

std::string run_baseline_flow(int atpg_jobs) {
  FlowOptions opts;
  opts.tp_percent = 10.0;
  opts.atpg.jobs = atpg_jobs;
  FlowEngine engine(test::lib(), test::tiny_profile(4242), opts);
  return flow_result_to_json(engine.run(StageMask::all()));
}

TEST(FlowBaselineTest, StuckAtFlowJsonByteIdenticalToSeed) {
  EXPECT_EQ(run_baseline_flow(1), kGoldenTinyFlowJson);
}

TEST(FlowBaselineTest, StuckAtFlowJsonByteIdenticalAtAnyJobCount) {
  EXPECT_EQ(run_baseline_flow(4), kGoldenTinyFlowJson);
}

// The at-speed flow (tiny_profile(4242), 10 % TP, the transition LBIST
// pair on): every output byte is pinned by a golden recorded before the
// grading kernel learned the launch condition. Only the grading work
// counters lbist.sim.node_evals and lbist.sim.events may move when a
// kernel does less work for the same detect words, so they are cut out of
// the output comparison and pinned on their own.
// clang-format off
const char* kGoldenAtSpeedFlowOutputs =
    R"gold({"circuit":"tiny","cancelled":false,"num_test_points":2,"num_ffs":26,"num_chains":3,"max_chain_length":9,"num_faults":2304,"fault_coverage_pct":97.569444444444443,"fault_efficiency_pct":99.913194444444443,"saf_patterns":96,"tdv_bits":5814,"tat_cycles":969,"num_cells":365,"num_rows":14,"row_length_um":52.400000000000006,"total_row_length_um":733.60000000000014,"core_area_um2":2640.96,"filler_area_pct":8.7786259541984712,"chip_area_um2":48576.160000000003,"wire_length_um":12897.226666666671,"aspect_ratio":1.0396825396825398,"row_utilization_pct":91.221374045801525,"sta_valid":true,"t_cp_ps":1389.9729865802838,"scan_enable_buffers":2,"clock_buffers":2,"scan_wire_length_um":183.19999999999999,"at_speed":{"capture_period_ps":1389.9729865802838,"at_speed_coverage_pct":80.449826989619382,"slow_speed_coverage_pct":8.1314878892733571,"coverage_delta_pct":72.318339100346023,"qualified_faults":2028,"total_faults":2312},"metrics":{"atpg.patterns":96,"atpg.podem.aborts":2,"atpg.podem.backtracks":328,"atpg.podem.calls":58,"atpg.sim.batches":16,"atpg.sim.cone_skips":6,"atpg.sim.events":44083,"atpg.sim.faults_graded":2406,"atpg.sim.node_evals":45052,"atspeed.lbist.patterns":16384,"atspeed.lbist.qualified":2028,"comb.nodes_deduped":44,"flow.stages_run":6,"lbist.sim.faults_graded":10401,"placement.global_iterations":20,"routing.net_length_um":{"count":382,"sum":12897.226699999999,"min":0,"max":252.30670000000001,"mean":33.7624,"p50":19.043500000000002,"p95":137.1429,"p99":234.66669999999999,"buckets":{"0":1,"1":6,"2":20,"3":43,"4":103,"5":92,"6":71,"7":25,"8":21}},"routing.nets":382,"routing.overflowed_crossings":0,"sim.good_node_evals":22494,"sim.good_sweeps":69,"sta.domains":1,"sta.runs":1,"sta.slow_nodes":0}})gold";
const char* kGoldenAtSpeedWorkCounters =
    R"gold({"lbist.sim.node_evals":25773,"lbist.sim.events":21487})gold";
// clang-format on

constexpr const char* kAtSpeedWorkKeys[] = {"lbist.sim.node_evals", "lbist.sim.events"};

std::string run_at_speed_flow(int atpg_jobs) {
  FlowOptions opts;
  opts.tp_percent = 10.0;
  opts.at_speed_lbist = true;
  opts.atpg.jobs = atpg_jobs;
  FlowEngine engine(test::lib(), test::tiny_profile(4242), opts);
  return flow_result_to_json(engine.run(StageMask::all()));
}

// Removes the `"key":<number>` member from `json`, together with one
// adjacent comma, and returns the member's value text ("missing" when
// there is no such member).
std::string cut_member(std::string& json, const std::string& key) {
  const std::string tag = '"' + key + "\":";
  const std::size_t at = json.find(tag);
  if (at == std::string::npos) return "missing";
  const std::size_t begin = at + tag.size();
  const std::size_t end = json.find_first_of(",}", begin);
  std::string value = json.substr(begin, end - begin);
  if (json[end] == ',') {
    json.erase(at, end + 1 - at);
  } else {  // last member: drop the comma before it instead
    const std::size_t from = json[at - 1] == ',' ? at - 1 : at;
    json.erase(from, end - from);
  }
  return value;
}

// Splits the flow JSON into its outputs (the work counters cut out) and a
// small {"key":value,...} object of the work counters.
std::pair<std::string, std::string> split_work(std::string json) {
  std::string work;
  for (const char* key : kAtSpeedWorkKeys) {
    work += work.empty() ? '{' : ',';
    work += '"';
    work += key;
    work += "\":";
    work += cut_member(json, key);
  }
  work += '}';
  return {json, work};
}

TEST(FlowBaselineTest, AtSpeedFlowOutputsByteIdenticalAtAnyJobCount) {
  for (const int jobs : {1, 4}) {
    SCOPED_TRACE(jobs);
    const auto [outputs, work] = split_work(run_at_speed_flow(jobs));
    EXPECT_EQ(outputs, kGoldenAtSpeedFlowOutputs);
    EXPECT_EQ(work, kGoldenAtSpeedWorkCounters);
  }
}

// The SOC layer (PR 10) must be invisible to single-core flows: with all
// SocKnobs at their defaults (cores == 0), no "soc" key reaches the config
// JSON and no soc.* metric reaches the flow or sweep JSON — the goldens
// above and every pre-SOC ledger fingerprint stay byte-identical.
TEST(FlowBaselineTest, SocDefaultsLeaveSingleCoreJsonUntouched) {
  EXPECT_EQ(FlowConfig{}.to_json().find("soc"), std::string::npos);
  const std::string flow = run_baseline_flow(1);
  EXPECT_EQ(flow, kGoldenTinyFlowJson);  // golden predates the SOC layer
  EXPECT_EQ(flow.find("soc"), std::string::npos);

  for (const int jobs : {1, 4}) {
    SweepOptions opts;
    opts.jobs = jobs;
    opts.progress = false;
    const auto grid_jobs = SweepRunner::grid({test::tiny_profile(4242)}, {10.0},
                                             FlowOptions{}, StageMask::all());
    const SweepReport report = SweepRunner(opts).run(test::lib(), grid_jobs);
    const std::string json = report.to_json();
    EXPECT_EQ(json.find("soc"), std::string::npos) << "jobs=" << jobs;
    EXPECT_EQ(json.find("tam_"), std::string::npos) << "jobs=" << jobs;
    EXPECT_EQ(report.metrics.to_json(MetricsSnapshot::kNoRuntime).find("soc."),
              std::string::npos)
        << "jobs=" << jobs;
  }
}

}  // namespace
}  // namespace tpi
