// Always-on bounded flight recorder: the last-N structured events of
// every thread, for post-mortem capture when a job fails or a worker
// wedges.
//
// Each thread records fixed-size FlightEvents into its own ring buffer
// (fixed byte budget, overwrite-oldest). Recording is one uncontended
// mutex acquisition plus a struct copy -- no allocation, no formatting --
// so it stays on even in production runs; its cost falls inside the
// telemetry budget that perfbench's trace.overhead_pct measures. On a
// trigger (job failure, retry exhaustion, deadline expiry, or a fatal
// signal via install_flight_signal_dump) the recorder dumps every
// thread's surviving events, merged and time-sorted, to a strict-JSON file
// (schema "hs.flight.v1", validated by trace/json_check).
//
// `kind` must be a string literal (stored by pointer, like span arg
// keys); `detail` is copied and truncated to kFlightDetailBytes-1. Events
// automatically carry the thread's current job tag
// (util::current_job_tag), so a dump slices cleanly per job.
//
// With HS_TRACE=OFF recording compiles out to empty inline stubs and the
// dump writers emit valid empty documents.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#ifndef HS_TRACE_ENABLED
#define HS_TRACE_ENABLED 1
#endif

namespace hs::trace {

inline constexpr std::size_t kFlightDetailBytes = 40;

struct FlightEvent {
  std::int64_t t_ns = 0;   ///< steady-clock ns since the recorder epoch
  std::uint32_t tid = 0;   ///< small sequential thread id
  std::uint64_t job = 0;   ///< util::current_job_tag() at record time
  const char* kind = "";   ///< string literal
  std::int64_t a = 0;      ///< two integer payload slots, kind-defined
  std::int64_t b = 0;
  char detail[kFlightDetailBytes] = {};  ///< NUL-terminated, truncated copy
};

#if HS_TRACE_ENABLED

/// Records one event into the calling thread's ring.
void flight_event(const char* kind, std::int64_t a = 0, std::int64_t b = 0,
                  std::string_view detail = {});

/// Per-thread ring budget in bytes (default 32 KiB, ~240 events). Applies
/// to rings created after the call; clamped to hold at least 8 events.
void set_flight_budget_bytes(std::size_t bytes);
std::size_t flight_budget_bytes();

/// Every thread's surviving events, oldest first (merged, time-sorted).
std::vector<FlightEvent> flight_snapshot();

/// Total events ever recorded (including overwritten ones).
std::uint64_t flight_recorded_total();

/// Clears every ring (events only; budgets and thread ids survive).
void reset_flight_recorder();

#else  // HS_TRACE_ENABLED == 0: recording compiles out entirely.

inline void flight_event(const char*, std::int64_t = 0, std::int64_t = 0,
                         std::string_view = {}) {}
inline void set_flight_budget_bytes(std::size_t) {}
inline std::size_t flight_budget_bytes() { return 0; }
inline std::vector<FlightEvent> flight_snapshot() { return {}; }
inline std::uint64_t flight_recorded_total() { return 0; }
inline void reset_flight_recorder() {}

#endif  // HS_TRACE_ENABLED

/// Strict-JSON dump (schema "hs.flight.v1"); valid empty document when
/// tracing is compiled out or nothing was recorded.
void write_flight_json(std::ostream& os, std::string_view reason);
bool write_flight_json_file(const std::string& path, std::string_view reason);

/// Installs a best-effort fatal-signal handler (SIGSEGV, SIGBUS, SIGFPE,
/// SIGILL, SIGABRT) that dumps the flight recorder to `path` and then
/// re-raises with the default disposition. Best-effort by design: the
/// dump allocates and takes the (normally uncontended) ring locks, which
/// is not async-signal-safe in the general case -- acceptable for a
/// crash-path diagnostic that would otherwise not exist at all.
void install_flight_signal_dump(const std::string& path);

}  // namespace hs::trace
