// RunRecorder: the per-run trace sink, trace file and ledger line shared by
// SweepRunner, SocSweepRunner and FlowServer (their own tests pin each
// producer's file names and ledger rules). Built into observability_test,
// so the thread-sanitized smoke job races concurrent runs through one
// shared recorder.
#include "flow/run_recorder.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "../common/test_circuits.hpp"
#include "flow/flow_config.hpp"
#include "util/json.hpp"
#include "util/ledger.hpp"
#include "util/trace.hpp"

namespace tpi {
namespace {

// Each run's events land only in its own trace file, and every run appends
// exactly one ledger line.
TEST(RunRecorderTest, SharedRecorderKeepsConcurrentRunsApart) {
  const std::string dir = ::testing::TempDir() + "tpi_recorder_traces";
  const std::string ledger_path = ::testing::TempDir() + "tpi_recorder.jsonl";
  std::remove(ledger_path.c_str());
  constexpr int kRuns = 4;
  static const char* kMarkers[kRuns] = {"marker.run0", "marker.run1", "marker.run2",
                                        "marker.run3"};
  {
    const RunRecorder recorder(ledger_path);
    std::vector<std::thread> threads;
    for (int r = 0; r < kRuns; ++r) {
      threads.emplace_back([&recorder, &dir, r] {
        const std::string label = run_label("run", r);
        const RunRecorder::Trace trace(true, static_cast<std::uint64_t>(r + 1), label);
        trace.run([r] { trace_instant(kMarkers[r]); });
        trace.write(dir, sanitize_trace_label(label));
        recorder.append(label, FlowConfig{}, JsonValue(r));
      });
    }
    for (std::thread& t : threads) t.join();
  }

  const std::vector<LedgerEntry> entries = Ledger::read_file(ledger_path);
  ASSERT_EQ(entries.size(), static_cast<std::size_t>(kRuns));
  for (const LedgerEntry& e : entries) {
    EXPECT_EQ(e.label, run_label("run", e.flow.as_number()));
    EXPECT_EQ(e.config.serialise(), json_parse(FlowConfig{}.to_json()).value.serialise());
  }
  for (int r = 0; r < kRuns; ++r) {
    const std::string path =
        dir + "/" + sanitize_trace_label(run_label("run", r)) + ".trace.json";
    const std::string text = test::read_text_file(path);
    EXPECT_TRUE(json_parse(text).ok) << path;
    for (int other = 0; other < kRuns; ++other) {
      EXPECT_EQ(text.find(kMarkers[other]) != std::string::npos, other == r) << path;
    }
    std::remove(path.c_str());
  }
  ::rmdir(dir.c_str());
  std::remove(ledger_path.c_str());
}

}  // namespace
}  // namespace tpi
