// DfT insertion tool: read an ISCAS'89 .bench netlist, insert test points
// and scan, run compact ATPG, and write the DfT-ready netlist back out.
//
//   ./build/examples/dft_insertion [netlist.bench] [tp_percent]
//
// Without arguments a bundled sample netlist is used. This is the paper's
// step-1 flow as a standalone utility: the output netlist carries TSFFs
// (extended bench dialect: TSFF(d, ti, te, tr)) and stitched scan chains.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "atpg/atpg.hpp"
#include "netlist/bench_io.hpp"
#include "scan/scan.hpp"
#include "tpi/tpi.hpp"
#include "util/log.hpp"

namespace {

// A small self-contained sample: 4-bit counter-ish logic with a rare
// decode, the structure TPI exists for.
constexpr const char* kSample = R"(
INPUT(en)
INPUT(a0)
INPUT(a1)
INPUT(a2)
INPUT(a3)
OUTPUT(match_out)
OUTPUT(q3)
q0 = DFF(d0)
q1 = DFF(d1)
q2 = DFF(d2)
q3 = DFF(d3)
n0 = XOR(q0, en)
d0 = AND(n0, en)
c1 = AND(q0, en)
n1 = XOR(q1, c1)
d1 = BUFF(n1)
c2 = AND(q1, c1)
n2 = XOR(q2, c2)
d2 = BUFF(n2)
c3 = AND(q2, c2)
n3 = XOR(q3, c3)
d3 = BUFF(n3)
m0 = XNOR(q0, a0)
m1 = XNOR(q1, a1)
m2 = XNOR(q2, a2)
m3 = XNOR(q3, a3)
m01 = AND(m0, m1)
m23 = AND(m2, m3)
match_out = AND(m01, m23)
)";

}  // namespace

int main(int argc, char** argv) {
  using namespace tpi;
  set_log_level(LogLevel::kInfo);
  const auto lib = make_phl130_library();

  BenchReadResult parsed = argc > 1 ? read_bench_file(argv[1], *lib)
                                    : read_bench_string(kSample, *lib, "sample");
  if (!parsed.ok()) {
    std::fprintf(stderr, "error: %s\n", parsed.error.c_str());
    return 1;
  }
  Netlist& nl = *parsed.netlist;
  const double tp_percent = argc > 2 ? std::atof(argv[2]) : 5.0;

  const Netlist::Stats before = nl.stats();
  std::printf("loaded %s: %zu cells (%zu FFs), %zu PIs, %zu POs\n", nl.name().c_str(),
              before.cells, before.flip_flops, nl.num_pis(), nl.num_pos());

  // Step 1 of the paper's flow: TPI, then scan insertion and stitching.
  TpiOptions tpi_opts;
  tpi_opts.num_test_points = std::max(
      1, static_cast<int>(tp_percent / 100.0 * static_cast<double>(before.flip_flops)));
  DesignDB db(nl);
  const TpiReport tpi_report = insert_test_points(db, tpi_opts);
  std::printf("inserted %zu test point(s) on:", tpi_report.sites.size());
  for (const NetId site : tpi_report.sites) std::printf(" %s", nl.net(site).name.c_str());
  std::printf("\n");

  ScanOptions scan_opts;
  scan_opts.max_chain_length = 100;
  insert_scan(nl);
  const ChainPlan plan = plan_chains(nl, scan_opts, {});
  stitch_chains(nl, plan);
  std::printf("scan: %d chain(s), l_max = %d\n", plan.num_chains, plan.max_length);

  // Compact ATPG on the DfT-ready netlist.
  CombModel model(nl, SeqView::kCapture);
  const TestabilityResult testab = analyze_testability(model);
  const AtpgResult atpg = run_atpg(model, testab, {});
  std::printf("ATPG: %d patterns, FC %.2f%%, FE %.2f%% over %lld faults\n",
              atpg.num_patterns(), atpg.fault_coverage_pct, atpg.fault_efficiency_pct,
              static_cast<long long>(atpg.total_faults));
  std::printf("TDV = %lld bits, TAT = %lld cycles (eqs. 1-2)\n",
              static_cast<long long>(test_data_volume(plan.num_chains, plan.max_length,
                                                      atpg.num_patterns())),
              static_cast<long long>(
                  test_application_time(plan.max_length, atpg.num_patterns())));

  const std::string out_path = nl.name() + "_dft.bench";
  std::ofstream out(out_path);
  write_bench(nl, out);
  std::printf("wrote DfT netlist to %s\n", out_path.c_str());
  return 0;
}
