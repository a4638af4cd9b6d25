// Run-ledger tests: JSONL append/read round trip, the schema-versioned
// envelope fields, config fingerprint stability, concurrent appends from
// several threads, and reader tolerance of torn/malformed lines (a crash
// mid-append must not poison the file for later consumers).
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "../common/test_circuits.hpp"
#include "util/json.hpp"
#include "util/json_check.hpp"
#include "util/ledger.hpp"

namespace tpi {
namespace {

std::string temp_ledger_path(const char* stem) {
  return ::testing::TempDir() + stem + ".jsonl";
}

JsonValue parse(const std::string& text) {
  const JsonParseResult r = json_parse(text);
  EXPECT_TRUE(r.ok) << r.error;
  return r.value;
}

TEST(LedgerTest, Fnv1aMatchesReferenceVectors) {
  // Published FNV-1a 64-bit test vectors.
  EXPECT_EQ(fnv1a_64(""), 0xcbf29ce484222325ull);
  EXPECT_EQ(fnv1a_64("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(fnv1a_64("foobar"), 0x85944171f73967e8ull);
  EXPECT_EQ(fnv1a_hex("foobar"), "85944171f73967e8");
  EXPECT_EQ(fnv1a_hex("").size(), 16u);
}

TEST(LedgerTest, AppendReadRoundTrip) {
  const std::string path = temp_ledger_path("tpi_ledger_roundtrip");
  std::remove(path.c_str());
  {
    Ledger ledger(path);
    ASSERT_TRUE(ledger.ok());
    const JsonValue config = parse("{\"profile\": \"s38417\", \"tp_percent\": 2}");
    const JsonValue flow = parse("{\"num_cells\": 1200, \"metrics\": {}}");
    EXPECT_TRUE(ledger.append("s38417/tp=2", config, flow));
    EXPECT_TRUE(ledger.append("s38417/tp=2", config, flow));
    EXPECT_EQ(ledger.lines_written(), 2u);
  }
  const std::vector<LedgerEntry> entries = Ledger::read_file(path);
  ASSERT_EQ(entries.size(), 2u);
  for (const LedgerEntry& e : entries) {
    EXPECT_EQ(e.schema, kLedgerSchemaVersion);
    EXPECT_EQ(e.label, "s38417/tp=2");
    EXPECT_EQ(e.build, build_stamp());
    EXPECT_FALSE(e.ts.empty());
    EXPECT_EQ(e.ts.back(), 'Z');  // UTC timestamp
    EXPECT_EQ(e.config_fp.size(), 16u);
    const JsonValue* cells = e.flow.find("num_cells");
    ASSERT_NE(cells, nullptr);
    EXPECT_DOUBLE_EQ(cells->as_number(), 1200.0);
    EXPECT_NE(e.config.find("profile"), nullptr);
  }
  // Same config -> same fingerprint (the drift-check join key).
  EXPECT_EQ(entries[0].config_fp, entries[1].config_fp);
  std::remove(path.c_str());
}

TEST(LedgerTest, FingerprintTracksConfigContent) {
  const std::string path = temp_ledger_path("tpi_ledger_fp");
  std::remove(path.c_str());
  {
    Ledger ledger(path);
    const JsonValue flow = parse("{}");
    ledger.append("a", parse("{\"tp_percent\": 2}"), flow);
    ledger.append("b", parse("{\"tp_percent\": 4}"), flow);
  }
  const std::vector<LedgerEntry> entries = Ledger::read_file(path);
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_NE(entries[0].config_fp, entries[1].config_fp);
  std::remove(path.c_str());
}

TEST(LedgerTest, EveryLineIsSelfContainedJson) {
  const std::string path = temp_ledger_path("tpi_ledger_lines");
  std::remove(path.c_str());
  {
    Ledger ledger(path);
    ledger.append("one", parse("{\"k\": 1}"), parse("{\"v\": 1}"));
    ledger.append("two", parse("{\"k\": 2}"), parse("{\"v\": 2}"));
  }
  const std::string raw = test::read_text_file(path);
  ASSERT_FALSE(raw.empty());
  EXPECT_EQ(raw.back(), '\n');
  std::size_t start = 0, lines = 0;
  while (start < raw.size()) {
    const std::size_t end = raw.find('\n', start);
    ASSERT_NE(end, std::string::npos);
    const std::string line = raw.substr(start, end - start);
    std::string error;
    EXPECT_TRUE(json_well_formed(line, &error)) << error;
    EXPECT_NE(line.find("\"schema\":1"), std::string::npos);
    ++lines;
    start = end + 1;
  }
  EXPECT_EQ(lines, 2u);
  std::remove(path.c_str());
}

TEST(LedgerTest, ReaderSkipsTornAndMalformedLines) {
  const std::string path = temp_ledger_path("tpi_ledger_torn");
  std::remove(path.c_str());
  {
    Ledger ledger(path);
    ledger.append("good", parse("{}"), parse("{\"ok\": true}"));
  }
  {
    // Simulate garbage between entries and a crash mid-append at the end.
    std::FILE* f = std::fopen(path.c_str(), "ab");
    ASSERT_NE(f, nullptr);
    std::fputs("not json at all\n", f);
    std::fclose(f);
  }
  {
    Ledger ledger(path);
    ledger.append("good2", parse("{}"), parse("{\"ok\": true}"));
  }
  {
    std::FILE* f = std::fopen(path.c_str(), "ab");
    ASSERT_NE(f, nullptr);
    std::fputs("{\"schema\": 1, \"label\": \"torn", f);  // no newline, truncated
    std::fclose(f);
  }
  const std::vector<LedgerEntry> entries = Ledger::read_file(path);
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].label, "good");
  EXPECT_EQ(entries[1].label, "good2");
  std::remove(path.c_str());
}

TEST(LedgerTest, ConcurrentAppendsNeverTearLines) {
  const std::string path = temp_ledger_path("tpi_ledger_mt");
  std::remove(path.c_str());
  constexpr int kThreads = 4;
  constexpr int kAppends = 50;
  {
    Ledger ledger(path);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&ledger, t] {
        const JsonValue config = json_parse("{\"t\": " + std::to_string(t) + "}").value;
        const JsonValue flow = json_parse("{}").value;
        for (int i = 0; i < kAppends; ++i) {
          ledger.append("thread" + std::to_string(t), config, flow);
        }
      });
    }
    for (std::thread& th : threads) th.join();
    EXPECT_EQ(ledger.lines_written(),
              static_cast<std::size_t>(kThreads) * kAppends);
  }
  EXPECT_EQ(Ledger::read_file(path).size(),
            static_cast<std::size_t>(kThreads) * kAppends);
  std::remove(path.c_str());
}

TEST(LedgerTest, UnopenablePathReportsNotOk) {
  Ledger ledger("/nonexistent-dir-tpi/ledger.jsonl");
  EXPECT_FALSE(ledger.ok());
  EXPECT_FALSE(ledger.append("x", JsonValue(), JsonValue()));
  EXPECT_EQ(ledger.lines_written(), 0u);
}

}  // namespace
}  // namespace tpi
