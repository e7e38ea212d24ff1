// Low-overhead tracing and metrics for the whole stack (`hs::trace`).
//
// The paper's argument is a stage-level performance breakdown of the AMC
// pipeline (Fig. 4); this subsystem makes that breakdown a first-class,
// exportable artifact instead of ad-hoc per-layer statistics. It provides:
//
//   * RAII `Span`s with nesting (pipeline -> chunk -> stage -> pass),
//     recorded into per-thread buffers with one uncontended lock per span;
//   * a process-global `Counter`/`Gauge` registry (cache hit/miss rates,
//     eviction counts, ...);
//   * sinks: Chrome trace-event JSON (loadable in chrome://tracing or
//     https://ui.perfetto.dev), a flat metrics JSON compatible with the
//     bench `BENCH_*.json` schema, and a human-readable summary table.
//
// Cost model: tracing is compiled out entirely with -DHS_TRACE=OFF
// (`HS_TRACE_ENABLED == 0`: every entry point below becomes an empty
// inline stub). When compiled in, it is disabled at runtime by default --
// a `Span` constructor is a single relaxed atomic load -- and is switched
// on with `set_enabled(true)` or the `HS_TRACE=1` environment variable.
// Span granularity is one pass/stage/chunk (never per fragment), so the
// enabled-mode overhead stays well under 2% of a draw call.
//
// Threading: spans may be opened and closed on any thread; events land in
// a per-thread buffer keyed by a small sequential thread id. A span must
// begin and end on the same thread. `reset()` must not run concurrently
// with open spans.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#ifndef HS_TRACE_ENABLED
#define HS_TRACE_ENABLED 1
#endif

namespace hs::trace {

/// Inline argument storage per span. arg() calls beyond this are dropped.
inline constexpr int kMaxSpanArgs = 20;

struct TraceArg {
  const char* key = "";  ///< must be a string literal (stored by pointer)
  bool is_num = true;
  double num = 0;
  std::string str;
};

/// One completed span. Durations are steady-clock nanoseconds relative to
/// the recorder epoch (process start or the last reset()).
struct TraceEvent {
  std::string name;
  std::string cat;
  std::uint32_t tid = 0;  ///< small sequential id, not the OS thread id
  int depth = 0;          ///< nesting depth within its thread at begin time
  /// Job context id (util::current_job_tag) at span begin; 0 = none. Set
  /// by the serving layer around job execution so every span a job emits
  /// -- pipeline, chunk, stage, pass -- joins its timeline. Exported as a
  /// "job" arg in the Chrome trace.
  std::uint64_t job = 0;
  std::int64_t start_ns = 0;
  std::int64_t dur_ns = 0;
  /// Only the populated args (size == arg_count). Kept out-of-line so a
  /// TraceEvent stays ~100 bytes and per-thread buffers move cheaply;
  /// argless spans (the common case) never allocate here.
  std::vector<TraceArg> args;
  int arg_count = 0;
};

#if HS_TRACE_ENABLED

/// Runtime switch. Initialized from the HS_TRACE environment variable
/// ("1"/"true"/"on" enables) and off otherwise.
bool enabled();
void set_enabled(bool on);

/// Drops all recorded events, zeroes every registered counter/gauge and
/// restarts the trace clock at zero.
void reset();

std::size_t event_count();

/// Copies out all completed events, sorted by start time.
std::vector<TraceEvent> snapshot();

/// Monotonic counter with a stable address for the process lifetime.
class Counter {
 public:
  void add(std::int64_t delta) { v_.fetch_add(delta, std::memory_order_relaxed); }
  void increment() { add(1); }
  std::int64_t value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> v_{0};
};

/// Last-write-wins gauge with a stable address for the process lifetime.
class Gauge {
 public:
  void set(double v) { v_.store(v, std::memory_order_relaxed); }
  double value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { set(0); }

 private:
  std::atomic<double> v_{0};
};

/// Finds or registers the named counter/gauge. References stay valid for
/// the process lifetime; registration is thread-safe.
Counter& counter(std::string_view name);
Gauge& gauge(std::string_view name);

/// (name, value) of every registered counter and gauge, sorted by name.
std::vector<std::pair<std::string, double>> metrics_snapshot();

/// RAII span. Records begin at construction and emits one TraceEvent at
/// destruction (or end()) when tracing was enabled at construction time.
class Span {
 public:
  Span(std::string_view name, std::string_view cat);
  ~Span();

  Span(Span&& other) noexcept;
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  Span& operator=(Span&&) = delete;

  /// Attaches a numeric / string argument (exported under "args" in the
  /// Chrome trace). `key` must be a string literal. No-op when inactive.
  void arg(const char* key, double value);
  void arg(const char* key, std::string_view value);

  /// Closes the span early; the destructor becomes a no-op.
  void end();

  /// True when this span is recording (tracing was enabled at begin).
  bool active() const { return active_; }

 private:
  bool active_ = false;
  int depth_ = 0;
  int arg_count_ = 0;
  std::uint64_t job_ = 0;
  std::int64_t start_ns_ = 0;
  void* buf_ = nullptr;  ///< owning thread's buffer
  std::string name_;
  std::string cat_;
  std::array<TraceArg, kMaxSpanArgs> args_{};
};

/// Chrome trace-event JSON ("X" complete events plus "C" counter samples).
void write_chrome_trace(std::ostream& os);
bool write_chrome_trace_file(const std::string& path);

/// Flat metrics JSON in the BENCH_*.json schema: per-(cat,name) span
/// aggregates plus one row holding every counter/gauge.
void write_metrics_json(std::ostream& os, std::string_view name);
bool write_metrics_json_file(const std::string& path, std::string_view name);

/// Per-span-name aggregate table plus the counter registry, via util::Table.
void print_summary(std::ostream& os);

#else  // HS_TRACE_ENABLED == 0: every entry point is an empty inline stub.

inline bool enabled() { return false; }
inline void set_enabled(bool) {}
inline void reset() {}
inline std::size_t event_count() { return 0; }
inline std::vector<TraceEvent> snapshot() { return {}; }

class Counter {
 public:
  void add(std::int64_t) {}
  void increment() {}
  std::int64_t value() const { return 0; }
  void reset() {}
};

class Gauge {
 public:
  void set(double) {}
  double value() const { return 0; }
  void reset() {}
};

Counter& counter(std::string_view name);
Gauge& gauge(std::string_view name);
inline std::vector<std::pair<std::string, double>> metrics_snapshot() {
  return {};
}

class Span {
 public:
  Span(std::string_view, std::string_view) {}
  void arg(const char*, double) {}
  void arg(const char*, std::string_view) {}
  void end() {}
  bool active() const { return false; }
};

/// The disabled-mode sinks still emit *valid* (empty) documents so tools
/// like hsi-profile keep working in an HS_TRACE=OFF build.
void write_chrome_trace(std::ostream& os);
bool write_chrome_trace_file(const std::string& path);
void write_metrics_json(std::ostream& os, std::string_view name);
bool write_metrics_json_file(const std::string& path, std::string_view name);
void print_summary(std::ostream& os);

#endif  // HS_TRACE_ENABLED

}  // namespace hs::trace
