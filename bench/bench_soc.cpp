// SOC-scale workloads: composes multi-core chips from the paper circuits,
// runs wrapper/TAM co-optimization plus rectangle bin-packing test
// scheduling per cell, and reports chip-level test application time against
// the serial (one-core-at-a-time) baseline. The cores x TAM grid exercises
// the SocSweepRunner end to end; chip results are bit-identical at any
// TPI_BENCH_JOBS / TPI_ATPG_JOBS and SIMD backend, so the emitted
// TPI_BENCH_JSON doubles as a format/name-wiring baseline for
// tools/bench_compare.py (bench/BENCH_soc.json).
#include "bench_common.hpp"
#include "soc/soc_sweep.hpp"

int main() {
  using namespace tpi;
  using namespace tpi::bench;
  setup_logging();

  std::printf("=== SOC: wrapper/TAM co-optimization + test scheduling ===\n\n");

  const std::vector<int> cores{2, 4};
  const std::vector<int> tam_widths{8, 16};
  const std::vector<double> tp_percents{1.0};
  const SocSweepRunner runner(bench_config());
  const SocSweepReport report = runner.run(
      *make_phl130_library(),
      SocSweepRunner::grid(cores, tam_widths, tp_percents, bench_config()));
  write_bench_json(report.to_json());

  TextTable table({"chip", "chip TAT(cyc)", "serial TAT(cyc)", "speedup",
                   "TAM util(%)", "wall(s)"});
  for (const SocSweepCellResult& cell : report.cells) {
    const SocResult& r = cell.result;
    const double speedup =
        r.chip_tat_cycles > 0
            ? static_cast<double>(r.serial_tat_cycles) / r.chip_tat_cycles
            : 0.0;
    table.add_row({cell.job.label, std::to_string(r.chip_tat_cycles),
                   std::to_string(r.serial_tat_cycles), fmt_fixed(speedup, 2),
                   fmt_fixed(r.tam_utilization_pct, 1),
                   fmt_fixed(cell.wall_ms / 1000.0, 2)});
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf(
      "%zu chips, %d core-flow jobs: wall %.2fs, cpu %.2fs\n\n"
      "Expected shape: the diagonal-length packer never loses to the serial\n"
      "baseline (speedup >= 1.00x), and wider TAMs trade utilization for\n"
      "shorter chip TAT until the widest core wrapper saturates.\n",
      report.cells.size(), report.jobs, report.wall_ms / 1000.0,
      report.cpu_ms / 1000.0);
  return 0;
}
