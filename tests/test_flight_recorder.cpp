#include "trace/flight_recorder.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "trace/json_check.hpp"
#include "util/log.hpp"

namespace hs::trace {
namespace {

// gtest_discover_tests runs every TEST in its own process, so mutating the
// process-global flight recorder here cannot leak into other tests.

#if HS_TRACE_ENABLED

TEST(FlightRecorder, RecordsEventsWithPayloadAndDetail) {
  reset_flight_recorder();
  flight_event("job.submit", 7, 2, "unmix-batch");
  flight_event("job.dequeue", 7);
  const auto events = flight_snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_STREQ(events[0].kind, "job.submit");
  EXPECT_EQ(events[0].a, 7);
  EXPECT_EQ(events[0].b, 2);
  EXPECT_STREQ(events[0].detail, "unmix-batch");
  EXPECT_STREQ(events[1].kind, "job.dequeue");
  EXPECT_LE(events[0].t_ns, events[1].t_ns);
  EXPECT_EQ(flight_recorded_total(), 2u);
}

TEST(FlightRecorder, DetailIsTruncatedNotOverrun) {
  reset_flight_recorder();
  const std::string longd(3 * kFlightDetailBytes, 'x');
  flight_event("k", 0, 0, longd);
  const auto events = flight_snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(std::strlen(events[0].detail), kFlightDetailBytes - 1);
}

TEST(FlightRecorder, RingOverwritesOldestAndKeepsNewest) {
  reset_flight_recorder();
  // The ring holds ~budget/sizeof(FlightEvent) events; record well past
  // capacity and check the survivors are exactly the newest ones.
  const std::size_t capacity = flight_budget_bytes() / sizeof(FlightEvent);
  const std::int64_t total = static_cast<std::int64_t>(3 * capacity);
  for (std::int64_t i = 0; i < total; ++i) flight_event("seq", i);
  const auto events = flight_snapshot();
  ASSERT_EQ(events.size(), capacity);
  EXPECT_EQ(flight_recorded_total(), static_cast<std::uint64_t>(total));
  // Oldest-first order, ending at the last recorded sequence number.
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].a, total - static_cast<std::int64_t>(capacity - i));
  }
}

TEST(FlightRecorder, EventsCarryTheCurrentJobTag) {
  reset_flight_recorder();
  {
    util::ScopedJobTag tag(42);
    flight_event("tagged");
  }
  flight_event("untagged");
  const auto events = flight_snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].job, 42u);
  EXPECT_EQ(events[1].job, 0u);
}

TEST(FlightRecorder, PerThreadRingsMergeTimeSorted) {
  reset_flight_recorder();
  constexpr std::size_t kThreads = 4;
  constexpr int kPer = 50;
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      for (int i = 0; i < kPer; ++i) {
        flight_event("mt", static_cast<std::int64_t>(t), i);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const auto events = flight_snapshot();
  ASSERT_EQ(events.size(), kThreads * kPer);
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_LE(events[i - 1].t_ns, events[i].t_ns) << i;
  }
}

TEST(FlightRecorder, DumpIsStrictValidJson) {
  reset_flight_recorder();
  flight_event("job.fault", 3, 1, "TransientFault: detail with \"quotes\"");
  std::ostringstream os;
  write_flight_json(os, "test failure");
  std::string error;
  ASSERT_TRUE(json::validate_flight_json(os.str(), &error))
      << error << "\n" << os.str();
  EXPECT_NE(os.str().find("hs.flight.v1"), std::string::npos);
  EXPECT_NE(os.str().find("test failure"), std::string::npos);
}

TEST(FlightRecorder, ResetDropsEventsButRecorderKeepsWorking) {
  reset_flight_recorder();
  flight_event("before");
  reset_flight_recorder();
  EXPECT_TRUE(flight_snapshot().empty());
  flight_event("after");
  const auto events = flight_snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_STREQ(events[0].kind, "after");
}

#else  // HS_TRACE_ENABLED == 0

TEST(FlightRecorder, DisabledBuildStillWritesValidEmptyDump) {
  flight_event("dropped", 1, 2, "x");
  EXPECT_TRUE(flight_snapshot().empty());
  EXPECT_EQ(flight_recorded_total(), 0u);
  std::ostringstream os;
  write_flight_json(os, "off-build");
  std::string error;
  EXPECT_TRUE(json::validate_flight_json(os.str(), &error)) << error;
}

#endif  // HS_TRACE_ENABLED

}  // namespace
}  // namespace hs::trace
