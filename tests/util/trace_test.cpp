// Span tracer tests: nesting/ordering of RAII spans, concurrent emission
// from thread-pool workers (the smoke label runs this binary under TSan),
// the disabled fast path staying allocation-free, and Chrome trace-event
// JSON well-formedness.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "util/json.hpp"
#include "util/json_check.hpp"
#include "util/thread_pool.hpp"
#include "util/trace.hpp"

// Global operator new instrumentation for the zero-allocation check. The
// counter is process-wide, so the test only asserts on the delta across a
// single-threaded disabled-span loop.
namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

// noinline keeps GCC from pairing an inlined malloc with a free it can
// see (-Wmismatched-new-delete at every new/delete in this file).
[[gnu::noinline]] void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace tpi {
namespace {

class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    set_trace_enabled(false);
    trace_reset();
  }
  void TearDown() override {
    set_trace_enabled(false);
    trace_reset();
  }
};

TEST_F(TraceTest, DisabledSpansRecordNothing) {
  {
    TPI_SPAN("disabled.outer");
    TPI_SPAN("disabled.inner");
  }
  EXPECT_EQ(trace_event_count(), 0u);
  EXPECT_EQ(trace_to_json().find("disabled.outer"), std::string::npos);
}

TEST_F(TraceTest, DisabledSpansDoNotAllocate) {
  set_trace_enabled(false);
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 10000; ++i) {
    TPI_SPAN("disabled.hot");
  }
  const std::uint64_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after, before);
}

TEST_F(TraceTest, NestedSpansAreContainedAndChildRecordedFirst) {
  set_trace_enabled(true);
  {
    TPI_SPAN("outer");
    {
      TPI_SPAN("inner");
    }
  }
  set_trace_enabled(false);
  ASSERT_EQ(trace_event_count(), 2u);
  const std::string json = trace_to_json();
  // Destruction order: the inner span completes (and is appended) first.
  const std::size_t inner_pos = json.find("\"inner\"");
  const std::size_t outer_pos = json.find("\"outer\"");
  ASSERT_NE(inner_pos, std::string::npos);
  ASSERT_NE(outer_pos, std::string::npos);
  EXPECT_LT(inner_pos, outer_pos);
}

TEST_F(TraceTest, InstantMarkersRecordWhenEnabled) {
  trace_instant("marker.off");  // disabled: dropped
  set_trace_enabled(true);
  trace_instant("marker.on");
  set_trace_enabled(false);
  EXPECT_EQ(trace_event_count(), 1u);
  const std::string json = trace_to_json();
  EXPECT_EQ(json.find("marker.off"), std::string::npos);
  EXPECT_NE(json.find("marker.on"), std::string::npos);
}

TEST_F(TraceTest, ConcurrentEmissionFromPoolWorkersLosesNothing) {
  constexpr int kTasks = 64;
  constexpr int kSpansPerTask = 100;
  set_trace_enabled(true);
  {
    ThreadPool pool(4);
    std::vector<std::future<void>> done;
    done.reserve(kTasks);
    for (int t = 0; t < kTasks; ++t) {
      done.push_back(pool.submit([] {
        for (int i = 0; i < kSpansPerTask; ++i) {
          TPI_SPAN("worker.span");
        }
      }));
    }
    for (auto& f : done) f.get();
  }
  set_trace_enabled(false);
  EXPECT_EQ(trace_event_count(), static_cast<std::size_t>(kTasks) * kSpansPerTask);
}

TEST_F(TraceTest, JsonIsWellFormedChromeTraceFormat) {
  set_trace_enabled(true);
  {
    TPI_SPAN("json.span");
    ThreadPool pool(2);
    auto f = pool.submit([] { TPI_SPAN("json.worker"); });
    f.get();
  }
  set_trace_enabled(false);
  const std::string json = trace_to_json();
  std::string error;
  EXPECT_TRUE(json_well_formed(json, &error)) << error;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\"pid\": 1"), std::string::npos);
  // Spans from two different threads carry different tids.
  const std::size_t first_tid = json.find("\"tid\": ");
  ASSERT_NE(first_tid, std::string::npos);
  EXPECT_NE(json.find("\"tid\": ", first_tid + 1), std::string::npos);
}

TEST_F(TraceTest, SinkCapturesSpansAndKeepsGlobalLogClean) {
  TraceSink sink(7, "jobA");
  EXPECT_FALSE(trace_enabled());
  {
    ScopedTraceSink scope(sink);
    // The sink alone enables tracing via the refcount: no global switch.
    EXPECT_TRUE(trace_enabled());
    TPI_SPAN("sink.span");
    trace_instant("sink.marker");
  }
  EXPECT_FALSE(trace_enabled());
  EXPECT_EQ(trace_event_count(), 0u);  // nothing leaked to the process sink
  EXPECT_EQ(sink.event_count(), 2u);
  const std::string json = sink.to_json();
  std::string error;
  EXPECT_TRUE(json_well_formed(json, &error)) << error;
  EXPECT_NE(json.find("\"pid\": 7"), std::string::npos);
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("jobA"), std::string::npos);
  EXPECT_NE(json.find("sink.span"), std::string::npos);
}

TEST_F(TraceTest, NestedSinksInnermostWinsAndRestores) {
  TraceSink outer(1, "outer");
  TraceSink inner(2, "inner");
  {
    ScopedTraceSink s1(outer);
    trace_instant("to.outer");
    {
      ScopedTraceSink s2(inner);
      trace_instant("to.inner");
    }
    trace_instant("to.outer.again");
  }
  EXPECT_EQ(outer.event_count(), 2u);
  EXPECT_EQ(inner.event_count(), 1u);
  EXPECT_EQ(inner.to_json().find("to.outer"), std::string::npos);
  EXPECT_EQ(outer.to_json().find("to.inner"), std::string::npos);
  EXPECT_EQ(trace_event_count(), 0u);
}

TEST_F(TraceTest, ManualEnableSurvivesSinkScopeExit) {
  set_trace_enabled(true);
  TraceSink sink(3, "scoped");
  {
    ScopedTraceSink scope(sink);
    trace_instant("in.sink");
  }
  // The manual switch holds its own refcount: still tracing globally.
  EXPECT_TRUE(trace_enabled());
  trace_instant("in.global");
  set_trace_enabled(false);
  EXPECT_EQ(sink.event_count(), 1u);
  EXPECT_EQ(trace_event_count(), 1u);
  EXPECT_NE(trace_to_json().find("in.global"), std::string::npos);
  EXPECT_EQ(trace_to_json().find("in.sink"), std::string::npos);
}

TEST_F(TraceTest, SinkScopeIsPerThread) {
  TraceSink sink(4, "main-thread");
  ScopedTraceSink scope(sink);
  // A pool worker has no sink scope and the process switch is off: nobody
  // would read its spans, so it records nothing. (The scope makes
  // trace_enabled() true everywhere; only its own thread gets a target.)
  ThreadPool pool(1);
  pool.submit([] {
        TPI_SPAN("worker.span");
        trace_instant("worker.marker");
      })
      .get();
  trace_instant("main.marker");
  EXPECT_EQ(sink.event_count(), 1u);
  EXPECT_EQ(sink.to_json().find("worker."), std::string::npos);
  EXPECT_EQ(trace_event_count(), 0u);
}

TEST_F(TraceTest, ConcurrentSinksStayIsolated) {
  constexpr int kJobs = 4;
  constexpr int kSpans = 200;
  std::vector<std::unique_ptr<TraceSink>> sinks;
  for (int j = 0; j < kJobs; ++j) {
    sinks.push_back(std::make_unique<TraceSink>(
        static_cast<std::uint64_t>(j + 1), "job" + std::to_string(j)));
  }
  {
    ThreadPool pool(kJobs);
    std::vector<std::future<void>> done;
    for (int j = 0; j < kJobs; ++j) {
      done.push_back(pool.submit([&sinks, j] {
        ScopedTraceSink scope(*sinks[static_cast<std::size_t>(j)]);
        for (int i = 0; i < kSpans; ++i) {
          TPI_SPAN("job.span");
        }
      }));
    }
    for (auto& f : done) f.get();
  }
  for (int j = 0; j < kJobs; ++j) {
    EXPECT_EQ(sinks[static_cast<std::size_t>(j)]->event_count(),
              static_cast<std::size_t>(kSpans));
  }
  EXPECT_EQ(trace_event_count(), 0u);
}

// Labels are caller-set and unbounded: quotes are escaped, and a long
// label is not cut off mid-record (a fixed metadata buffer used to
// truncate it into malformed JSON).
TEST_F(TraceTest, SinkJsonEscapesLabel) {
  for (const std::string& label : {std::string("writer \"quoted\""),
                                  "sweep/" + std::string(294, 'x')}) {
    SCOPED_TRACE(label.size());
    TraceSink sink(9, label);
    {
      ScopedTraceSink scope(sink);
      TPI_SPAN("write.span");
    }
    const std::string contents = sink.to_json();
    std::string error;
    EXPECT_TRUE(json_well_formed(contents, &error)) << error;
    EXPECT_NE(contents.find("write.span"), std::string::npos);
    const JsonParseResult doc = json_parse(contents);
    ASSERT_TRUE(doc.ok) << doc.error;
    const JsonValue& meta = doc.value.find("traceEvents")->as_array().front();
    EXPECT_EQ(meta.find("args")->find("name")->as_string(), label);
  }
}

TEST_F(TraceTest, ResetClearsEventsButKeepsRecording) {
  set_trace_enabled(true);
  {
    TPI_SPAN("before.reset");
  }
  EXPECT_EQ(trace_event_count(), 1u);
  trace_reset();
  EXPECT_EQ(trace_event_count(), 0u);
  {
    TPI_SPAN("after.reset");
  }
  set_trace_enabled(false);
  EXPECT_EQ(trace_event_count(), 1u);
  EXPECT_NE(trace_to_json().find("after.reset"), std::string::npos);
}

}  // namespace
}  // namespace tpi
