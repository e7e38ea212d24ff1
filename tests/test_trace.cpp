#include "trace/trace.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <clocale>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "trace/histogram.hpp"
#include "trace/json_check.hpp"
#include "trace/snapshot.hpp"
#include "util/log.hpp"

namespace hs::trace {
namespace {

// gtest_discover_tests runs every TEST in its own process, so enabling /
// resetting the process-global recorder here cannot leak into other tests.

#if HS_TRACE_ENABLED

TEST(Trace, DisabledByDefaultRecordsNothing) {
  reset();
  ASSERT_FALSE(enabled());
  {
    Span span("outer", "test");
    EXPECT_FALSE(span.active());
    span.arg("k", 1.0);
  }
  EXPECT_EQ(event_count(), 0u);
}

TEST(Trace, SpanNestingDepths) {
  reset();
  set_enabled(true);
  {
    Span outer("outer", "test");
    {
      Span mid("mid", "test");
      Span inner("inner", "test");
      inner.end();
      mid.end();
    }
    outer.end();
  }
  set_enabled(false);

  const auto events = snapshot();
  ASSERT_EQ(events.size(), 3u);
  // snapshot() is sorted by start time: outer began first.
  EXPECT_EQ(events[0].name, "outer");
  EXPECT_EQ(events[0].depth, 0);
  EXPECT_EQ(events[1].name, "mid");
  EXPECT_EQ(events[1].depth, 1);
  EXPECT_EQ(events[2].name, "inner");
  EXPECT_EQ(events[2].depth, 2);
  for (const auto& e : events) {
    EXPECT_GE(e.dur_ns, 0);
    EXPECT_GE(e.start_ns, 0);
    // Children are contained in the outer span's interval.
    EXPECT_GE(e.start_ns, events[0].start_ns);
    EXPECT_LE(e.start_ns + e.dur_ns, events[0].start_ns + events[0].dur_ns);
  }
}

TEST(Trace, SpanArgsAreRecorded) {
  reset();
  set_enabled(true);
  {
    Span span("pass", "test");
    span.arg("fragments", 4096.0);
    span.arg("program", "band_sum");
  }
  set_enabled(false);

  const auto events = snapshot();
  ASSERT_EQ(events.size(), 1u);
  ASSERT_EQ(events[0].arg_count, 2);
  EXPECT_STREQ(events[0].args[0].key, "fragments");
  EXPECT_TRUE(events[0].args[0].is_num);
  EXPECT_EQ(events[0].args[0].num, 4096.0);
  EXPECT_STREQ(events[0].args[1].key, "program");
  EXPECT_FALSE(events[0].args[1].is_num);
  EXPECT_EQ(events[0].args[1].str, "band_sum");
}

TEST(Trace, RuntimeDisableIsNoOp) {
  reset();
  set_enabled(true);
  { Span span("recorded", "test"); }
  set_enabled(false);
  { Span span("dropped", "test"); }
  EXPECT_EQ(event_count(), 1u);
}

TEST(Trace, ThreadSafetyAcrossThreads) {
  reset();
  set_enabled(true);
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kIters = 256;
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      for (std::size_t i = 0; i < kIters / kThreads; ++i) {
        Span outer("work", "mt");
        Span inner("inner", "mt");
        inner.arg("x", 1.0);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  set_enabled(false);

  const auto events = snapshot();
  EXPECT_EQ(events.size(), 2 * kIters);
  std::size_t inner_count = 0;
  for (const auto& e : events) {
    if (e.name == "inner") {
      ++inner_count;
      EXPECT_EQ(e.depth, 1);
    } else {
      EXPECT_EQ(e.name, "work");
      EXPECT_EQ(e.depth, 0);
    }
  }
  EXPECT_EQ(inner_count, kIters);
}

TEST(Trace, ConcurrentCounterAndRegistryStress) {
  // N threads hammer registry lookups and counter increments for the same
  // names concurrently; totals must be exact and addresses stable.
  reset();
  constexpr std::size_t kThreads = 8;
  constexpr int kIters = 2000;
  Counter& shared = counter("stress.shared");
  Gauge& g = gauge("stress.gauge");
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        // Registry lookup under contention must return the same instance.
        Counter& c = counter("stress.shared");
        ASSERT_EQ(&c, &shared);
        c.increment();
        counter("stress.thread." + std::to_string(t)).increment();
        g.set(static_cast<double>(i));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(shared.value(), static_cast<std::int64_t>(kThreads) * kIters);
  for (std::size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(counter("stress.thread." + std::to_string(t)).value(), kIters);
  }
}

TEST(Trace, ConcurrentSpansFromTaskGroupAllRecorded) {
  // Spans opened and closed by a group of short-lived tasks, one thread
  // each and four at a time: every span completes on its own thread, and
  // none is lost when that thread exits.
  reset();
  set_enabled(true);
  constexpr int kTasks = 300;
  constexpr int kGroup = 4;
  for (int i = 0; i < kTasks; i += kGroup) {
    std::vector<std::thread> group;
    for (int j = i; j < std::min(i + kGroup, kTasks); ++j) {
      group.emplace_back([] {
        Span span("task", "group");
        span.arg("payload", 1.0);
      });
    }
    for (std::thread& t : group) t.join();
  }
  set_enabled(false);
  const auto events = snapshot();
  std::size_t task_spans = 0;
  for (const auto& e : events) {
    if (e.name == "task" && e.cat == "group") ++task_spans;
  }
  EXPECT_EQ(task_spans, static_cast<std::size_t>(kTasks));
}

TEST(Trace, CounterAndGaugeRegistry) {
  reset();
  Counter& c = counter("test.counter");
  Gauge& g = gauge("test.gauge");
  c.increment();
  c.add(41);
  g.set(2.5);
  EXPECT_EQ(c.value(), 42);
  EXPECT_EQ(g.value(), 2.5);
  // Same name returns the same instance.
  EXPECT_EQ(&counter("test.counter"), &c);
  EXPECT_EQ(&gauge("test.gauge"), &g);

  const auto metrics = metrics_snapshot();
  const auto find = [&](const std::string& name) {
    const auto it = std::find_if(metrics.begin(), metrics.end(),
                                 [&](const auto& m) { return m.first == name; });
    return it == metrics.end() ? -1.0 : it->second;
  };
  EXPECT_EQ(find("test.counter"), 42.0);
  EXPECT_EQ(find("test.gauge"), 2.5);

  reset();
  EXPECT_EQ(c.value(), 0);
  EXPECT_EQ(g.value(), 0.0);
}

TEST(Trace, ResetClearsEventsAndRestartsClock) {
  reset();
  set_enabled(true);
  { Span span("before", "test"); }
  ASSERT_EQ(event_count(), 1u);
  reset();
  EXPECT_EQ(event_count(), 0u);
  { Span span("after", "test"); }
  set_enabled(false);
  const auto events = snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name, "after");
}

TEST(Trace, ChromeTraceRoundTripsThroughParser) {
  reset();
  set_enabled(true);
  counter("rt.counter").add(7);
  {
    Span outer("pipeline", "pipeline");
    Span stage("normalization", "stage");
    stage.arg("modeled_us", 12.5);
    stage.arg("label", "with \"quotes\" and \\ backslash\nnewline");
  }
  set_enabled(false);

  std::ostringstream os;
  write_chrome_trace(os);
  const std::string text = os.str();

  std::string error;
  const auto doc = json::parse(text, &error);
  ASSERT_TRUE(doc.has_value()) << error;
  ASSERT_TRUE(json::validate_chrome_trace(text, &error)) << error;

  const json::Value* events = doc->find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is(json::Value::Kind::Array));
  // 2 span events + at least one counter sample.
  ASSERT_GE(events->array.size(), 3u);

  std::size_t spans = 0;
  bool saw_stage = false;
  for (const auto& e : events->array) {
    const json::Value* ph = e.find("ph");
    ASSERT_NE(ph, nullptr);
    if (ph->string == "X") {
      ++spans;
      const json::Value* name = e.find("name");
      ASSERT_NE(name, nullptr);
      if (name->string == "normalization") {
        saw_stage = true;
        const json::Value* args = e.find("args");
        ASSERT_NE(args, nullptr);
        const json::Value* us = args->find("modeled_us");
        ASSERT_NE(us, nullptr);
        EXPECT_EQ(us->number, 12.5);
        const json::Value* label = args->find("label");
        ASSERT_NE(label, nullptr);
        EXPECT_EQ(label->string, "with \"quotes\" and \\ backslash\nnewline");
      }
    }
  }
  EXPECT_EQ(spans, 2u);
  EXPECT_TRUE(saw_stage);
}

TEST(Trace, MetricsJsonMatchesBenchSchema) {
  reset();
  set_enabled(true);
  counter("m.hits").add(3);
  { Span span("stage_a", "stage"); }
  { Span span("stage_a", "stage"); }
  set_enabled(false);

  std::ostringstream os;
  write_metrics_json(os, "test_metrics");
  const std::string text = os.str();

  std::string error;
  ASSERT_TRUE(json::validate_metrics_json(text, &error)) << error << "\n" << text;

  const auto doc = json::parse(text, &error);
  ASSERT_TRUE(doc.has_value()) << error;
  const json::Value* name = doc->find("name");
  ASSERT_NE(name, nullptr);
  EXPECT_EQ(name->string, "test_metrics");
  const json::Value* results = doc->find("results");
  ASSERT_NE(results, nullptr);
  bool saw_span_row = false;
  for (const auto& row : results->array) {
    const json::Value* bench = row.find("bench");
    ASSERT_NE(bench, nullptr);
    if (bench->string == "span:stage:stage_a") {
      saw_span_row = true;
      const json::Value* count = row.find("count");
      ASSERT_NE(count, nullptr);
      EXPECT_EQ(count->number, 2.0);
    }
  }
  EXPECT_TRUE(saw_span_row);
}

TEST(Trace, SpansInheritTheThreadJobTag) {
  reset();
  set_enabled(true);
  {
    util::ScopedJobTag tag(17);
    Span span("serve.job", "serve");
  }
  { Span span("untagged", "serve"); }
  set_enabled(false);

  const auto events = snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].job, 17u);
  EXPECT_EQ(events[1].job, 0u);

  // The Chrome trace exports the tag as a "job" arg on tagged spans only.
  std::ostringstream os;
  write_chrome_trace(os);
  std::string error;
  const auto doc = json::parse(os.str(), &error);
  ASSERT_TRUE(doc.has_value()) << error;
  bool saw_tagged = false, saw_untagged = false;
  for (const auto& e : doc->find("traceEvents")->array) {
    const json::Value* name = e.find("name");
    if (name == nullptr) continue;
    if (name->string == "serve.job") {
      saw_tagged = true;
      const json::Value* args = e.find("args");
      ASSERT_NE(args, nullptr);
      ASSERT_NE(args->find("job"), nullptr);
      EXPECT_EQ(args->find("job")->number, 17.0);
    } else if (name->string == "untagged") {
      saw_untagged = true;
      EXPECT_EQ(e.find("args"), nullptr);
    }
  }
  EXPECT_TRUE(saw_tagged);
  EXPECT_TRUE(saw_untagged);
}

TEST(Trace, SnapshotJsonValidatesAndCarriesRegistry) {
  reset();
  set_enabled(true);
  counter("snap.requests").add(5);
  gauge("snap.depth").set(3.0);
  histogram("snap.latency_s").record(0.010);
  histogram("snap.latency_s").record(0.020);
  set_enabled(false);

  std::ostringstream os;
  write_snapshot_json(os, "test-proc", 4);
  const std::string text = os.str();
  std::string error;
  ASSERT_TRUE(json::validate_snapshot_json(text, &error)) << error << "\n"
                                                          << text;

  const auto doc = json::parse(text, &error);
  ASSERT_TRUE(doc.has_value()) << error;
  EXPECT_EQ(doc->find("schema")->string, "hs.snapshot.v1");
  EXPECT_EQ(doc->find("name")->string, "test-proc");
  EXPECT_EQ(doc->find("sequence")->number, 4.0);
  bool saw_counter = false, saw_hist = false;
  for (const auto& m : doc->find("metrics")->array) {
    if (m.find("name")->string == "snap.requests") {
      saw_counter = true;
      EXPECT_EQ(m.find("value")->number, 5.0);
    }
  }
  for (const auto& h : doc->find("histograms")->array) {
    if (h.find("name")->string == "snap.latency_s") {
      saw_hist = true;
      EXPECT_EQ(h.find("count")->number, 2.0);
      EXPECT_NEAR(h.find("mean_ms")->number, 15.0, 1.0);
    }
  }
  EXPECT_TRUE(saw_counter);
  EXPECT_TRUE(saw_hist);
}

TEST(Trace, SnapshotFileExportIsAtomicAndValid) {
  reset();
  counter("snap.file").add(1);
  const std::string path = ::testing::TempDir() + "/hs_snapshot_test.json";
  ASSERT_TRUE(write_snapshot_json_file(path, "file-test", 1));
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream ss;
  ss << in.rdbuf();
  std::string error;
  EXPECT_TRUE(json::validate_snapshot_json(ss.str(), &error)) << error;
  // The tmp staging file must not linger after the rename.
  EXPECT_FALSE(std::ifstream(path + ".tmp").good());
  std::remove(path.c_str());
}

TEST(Trace, SummaryTablePrints) {
  reset();
  set_enabled(true);
  counter("s.count").increment();
  { Span span("stage_a", "stage"); }
  set_enabled(false);

  std::ostringstream os;
  print_summary(os);
  const std::string text = os.str();
  EXPECT_NE(text.find("stage_a"), std::string::npos);
  EXPECT_NE(text.find("s.count"), std::string::npos);
}

#else  // HS_TRACE_ENABLED == 0

TEST(Trace, DisabledBuildEmitsValidEmptyDocuments) {
  set_enabled(true);  // no-op
  { Span span("dropped", "test"); }
  EXPECT_FALSE(enabled());
  EXPECT_EQ(event_count(), 0u);

  std::ostringstream os;
  write_chrome_trace(os);
  std::string error;
  EXPECT_TRUE(json::validate_chrome_trace(os.str(), &error)) << error;

  std::ostringstream ms;
  write_metrics_json(ms, "off");
  EXPECT_TRUE(json::validate_metrics_json(ms.str(), &error)) << error;

  // The snapshot document degrades to a valid empty registry, so hsi-top
  // and pollers keep working against an HS_TRACE=OFF process.
  std::ostringstream snap;
  write_snapshot_json(snap, "off", 1);
  EXPECT_TRUE(json::validate_snapshot_json(snap.str(), &error)) << error;
}

#endif  // HS_TRACE_ENABLED

TEST(TraceJson, ParserHandlesEscapesAndRejectsGarbage) {
  std::string error;
  const auto ok = json::parse(
      "{\"a\": [1, 2.5, -3e2], \"s\": \"q\\u0041\\n\", \"b\": true, "
      "\"n\": null}",
      &error);
  ASSERT_TRUE(ok.has_value()) << error;
  const json::Value* s = ok->find("s");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->string, "qA\n");

  EXPECT_FALSE(json::parse("{", &error).has_value());
  EXPECT_FALSE(json::parse("{\"a\": 01}", &error).has_value());
  EXPECT_FALSE(json::parse("[1,]", &error).has_value());
  EXPECT_FALSE(json::parse("\"unterminated", &error).has_value());
  EXPECT_FALSE(json::parse("{} trailing", &error).has_value());
}

TEST(TraceJson, NumbersParseLocaleIndependently) {
  // Regression for strtod-based number parsing: under a comma-decimal
  // locale (de_DE style) "1.5" read back as 1, silently corrupting every
  // fractional value in a metrics document. The parser now uses
  // std::from_chars, which never consults the process locale. de_DE
  // locale data may not be installed; whatever subset of these names
  // installs (at minimum "C") must produce identical values.
  const char* const names[] = {"de_DE.UTF-8", "de_DE.utf8", "de_DE",
                               "fr_FR.UTF-8", "C"};
  const std::string saved = std::setlocale(LC_NUMERIC, nullptr);
  int tried = 0;
  for (const char* name : names) {
    if (std::setlocale(LC_NUMERIC, name) == nullptr) continue;
    SCOPED_TRACE(std::string("LC_NUMERIC=") + name);
    ++tried;
    std::string error;
    const auto doc = json::parse(
        "{\"wall_seconds\": 1.5, \"speedup\": 2.25e-1, \"neg\": -0.125}",
        &error);
    ASSERT_TRUE(doc.has_value()) << error;
    EXPECT_EQ(doc->find("wall_seconds")->number, 1.5);
    EXPECT_EQ(doc->find("speedup")->number, 0.225);
    EXPECT_EQ(doc->find("neg")->number, -0.125);
  }
  std::setlocale(LC_NUMERIC, saved.c_str());
  EXPECT_GE(tried, 1);

  // Range extremes keep strtod's saturation semantics.
  std::string error;
  const auto doc = json::parse(
      "[1e999, -1e999, 1e-999, 12345678901234567890.5]", &error);
  ASSERT_TRUE(doc.has_value()) << error;
  EXPECT_EQ(doc->array[0].number, std::numeric_limits<double>::infinity());
  EXPECT_EQ(doc->array[1].number, -std::numeric_limits<double>::infinity());
  EXPECT_EQ(doc->array[2].number, 0.0);
  EXPECT_EQ(doc->array[3].number, 12345678901234567890.5);
}

}  // namespace
}  // namespace hs::trace
