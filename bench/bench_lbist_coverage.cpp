// §2 context experiment: pseudo-random LBIST fault-coverage curves with
// and without test points. "The fault coverage achieved with pseudo-random
// patterns only is generally insufficient ... test points are therefore
// inserted to increase the detectability of these faults, which results in
// higher fault coverage." Cross-references [5][6][9][10][11] of the paper.
#include <future>

#include "bench_common.hpp"
#include "bist/lbist.hpp"
#include "circuits/generator.hpp"
#include "netlist/design_db.hpp"
#include "tpi/tpi.hpp"
#include "util/thread_pool.hpp"

int main() {
  using namespace tpi;
  using namespace tpi::bench;
  setup_logging();

  std::printf("=== LBIST: pseudo-random coverage with and without test points ===\n\n");

  const auto lib = make_phl130_library();
  CircuitProfile profile = bench_profiles().front();  // s38417

  LbistOptions lbist;
  lbist.max_patterns = 16384;
  lbist.report_every = 2048;

  // The three LBIST sessions are independent: run them on the shared
  // TPI_BENCH_JOBS thread pool and collect in tp-percentage order.
  struct Session {
    int num_test_points;
    LbistResult result;
  };
  std::vector<std::future<Session>> sessions;
  {
    ThreadPool pool(static_cast<unsigned>(bench_jobs()));
    for (const double pct : {0.0, 1.0, 2.0}) {
      sessions.push_back(pool.submit([&lib, &profile, &lbist, pct] {
        // One DesignDB per session: LBIST pulls the capture model from the
        // cache (a rebuild only when the last TPI round edited the netlist).
        DesignDB db(generate_circuit(*lib, profile));
        TpiOptions tpi_opts;
        tpi_opts.num_test_points = static_cast<int>(
            pct / 100.0 * static_cast<double>(db.netlist().flip_flops().size()));
        insert_test_points(db, tpi_opts);
        std::fprintf(stderr, "[bench] LBIST with %d test points...\n",
                     tpi_opts.num_test_points);
        return Session{tpi_opts.num_test_points,
                       run_lbist(db.comb_model(SeqView::kCapture), lbist)};
      }));
    }
  }

  TextTable table({"#TP", "patterns", "pseudo-random FC(%)", "final FC(%)", "MISR signature"});
  std::vector<std::vector<std::pair<int, double>>> curves;
  for (std::future<Session>& fut : sessions) {
    const Session s = fut.get();
    const LbistResult& r = s.result;
    curves.push_back(r.coverage_curve);
    char sig[32];
    std::snprintf(sig, sizeof sig, "%016llx",
                  static_cast<unsigned long long>(r.signature));
    table.add_row({fmt_int(s.num_test_points), fmt_int(r.patterns_applied),
                   fmt_fixed(r.coverage_curve.front().second, 2),
                   fmt_fixed(r.final_coverage_pct, 2), sig});
  }
  std::printf("%s\n", table.to_string().c_str());

  std::printf("coverage curves (FC%% after N pseudo-random patterns):\n");
  TextTable curve({"patterns", "0% TP", "1% TP", "2% TP"});
  for (std::size_t i = 0; i < curves[0].size(); ++i) {
    std::vector<std::string> row{fmt_int(curves[0][i].first)};
    for (const auto& c : curves) {
      row.push_back(i < c.size() ? fmt_fixed(c[i].second, 2) : c.empty()
                        ? std::string("-")
                        : fmt_fixed(c.back().second, 2));
    }
    curve.add_row(row);
  }
  std::printf("%s\n", curve.to_string().c_str());
  std::printf("Without test points the curve saturates below the DfT target —\n"
              "pseudo-random-resistant faults are unreachable at any budget.\n"
              "Control points on the gating enables lift the plateau (§2).\n");
  return 0;
}
