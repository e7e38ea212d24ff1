// The TCP front door battery: frame parser torture tests, request/wire
// protocol round-trips, and socket-level NetServer behavior (streaming,
// flow control, 429 shedding, disconnects, drains) over real loopback
// connections. The NetSlow suite at the bottom holds the multi-client
// concurrency stress and the cross-worker-count witness sweep; it is
// labeled `net;slow` by tests/CMakeLists.txt.
#include "net/net_server.hpp"

#include <gtest/gtest.h>

#include <fcntl.h>
#include <netinet/in.h>
#include <sys/socket.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "net/client.hpp"
#include "net/frame.hpp"
#include "net/io.hpp"
#include "net/protocol.hpp"
#include "serve/request.hpp"
#include "serve/server.hpp"
#include "trace/json_check.hpp"

namespace hs::net {
namespace {

using namespace std::chrono_literals;

// ---------------------------------------------------------------------------
// FrameReader

std::vector<FrameEvent> drain(FrameReader& r) {
  std::vector<FrameEvent> out;
  while (auto ev = r.next()) out.push_back(*ev);
  return out;
}

TEST(NetFrame, SingleFrameStripsNewlineAndCr) {
  FrameReader r(1024);
  r.feed("{\"a\":1}\r\n");
  const auto events = drain(r);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, FrameEvent::Kind::Frame);
  EXPECT_EQ(events[0].text, "{\"a\":1}");
  EXPECT_EQ(r.pending_bytes(), 0u);
}

TEST(NetFrame, CoalescedFramesSplitCorrectly) {
  FrameReader r(1024);
  r.feed("one\ntwo\nthree\n");
  const auto events = drain(r);
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].text, "one");
  EXPECT_EQ(events[1].text, "two");
  EXPECT_EQ(events[2].text, "three");
}

TEST(NetFrame, ByteAtATime) {
  FrameReader r(1024);
  const std::string wire = "alpha\nbeta\n";
  std::vector<std::string> frames;
  for (const char c : wire) {
    r.feed(&c, 1);
    while (auto ev = r.next()) {
      ASSERT_EQ(ev->kind, FrameEvent::Kind::Frame);
      frames.push_back(ev->text);
    }
  }
  EXPECT_EQ(frames, (std::vector<std::string>{"alpha", "beta"}));
}

TEST(NetFrame, EverySplitPointOfTwoFrames) {
  const std::string wire = "{\"k\":\"morphology\"}\n{\"k\":\"unmix\"}\n";
  for (std::size_t cut = 0; cut <= wire.size(); ++cut) {
    FrameReader r(1024);
    r.feed(wire.substr(0, cut));
    r.feed(wire.substr(cut));
    const auto events = drain(r);
    ASSERT_EQ(events.size(), 2u) << "cut at " << cut;
    EXPECT_EQ(events[0].text, "{\"k\":\"morphology\"}");
    EXPECT_EQ(events[1].text, "{\"k\":\"unmix\"}");
  }
}

TEST(NetFrame, BlankLineIsAnEmptyFrame) {
  FrameReader r(64);
  r.feed("\n\r\n");
  const auto events = drain(r);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].text, "");
  EXPECT_EQ(events[1].text, "");
}

TEST(NetFrame, OversizedFrameReportsOnceAndResyncs) {
  FrameReader r(8);
  r.feed("0123456789ABCDEF\nok\n");
  const auto events = drain(r);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].kind, FrameEvent::Kind::Oversized);
  EXPECT_GT(events[0].bytes, 8u);
  EXPECT_EQ(events[1].kind, FrameEvent::Kind::Frame);
  EXPECT_EQ(events[1].text, "ok");
}

TEST(NetFrame, OversizedAcrossManyFeedsEmitsOneEvent) {
  FrameReader r(4);
  r.feed("abcd");   // exactly at the limit: still pending
  EXPECT_TRUE(drain(r).empty());
  r.feed("e");      // crosses the limit
  auto events = drain(r);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, FrameEvent::Kind::Oversized);
  r.feed("fghijklmnop");  // still the same doomed line: no new events
  EXPECT_TRUE(drain(r).empty());
  r.feed("q\nfine\n");
  events = drain(r);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, FrameEvent::Kind::Frame);
  EXPECT_EQ(events[0].text, "fine");
}

TEST(NetFrame, FrameExactlyAtLimitIsAccepted) {
  FrameReader r(4);
  r.feed("abcd\n");
  const auto events = drain(r);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, FrameEvent::Kind::Frame);
  EXPECT_EQ(events[0].text, "abcd");
}

TEST(NetFrame, MidFrameDisconnectIsTruncated) {
  FrameReader r(64);
  r.feed("complete\npart");
  r.finish();
  const auto events = drain(r);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].text, "complete");
  EXPECT_EQ(events[1].kind, FrameEvent::Kind::Truncated);
  EXPECT_EQ(events[1].text, "part");
}

TEST(NetFrame, FinishOnCleanBoundaryEmitsNothing) {
  FrameReader r(64);
  r.feed("done\n");
  r.finish();
  const auto events = drain(r);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, FrameEvent::Kind::Frame);
}

TEST(NetFrame, ZeroLimitClampsToOne) {
  FrameReader r(0);
  EXPECT_EQ(r.max_frame_bytes(), 1u);
  r.feed("x\nyy\n");
  const auto events = drain(r);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].kind, FrameEvent::Kind::Frame);
  EXPECT_EQ(events[0].text, "x");
  EXPECT_EQ(events[1].kind, FrameEvent::Kind::Oversized);
}

TEST(NetFrame, RandomSplitFuzzMatchesReference) {
  // Deterministic fuzz: random printable lines (some blank, some with
  // '\r'), serialized once, then fed in random-sized chunks. The reader
  // must reproduce the exact line sequence regardless of chunking.
  std::mt19937 rng(20260808u);
  for (int round = 0; round < 50; ++round) {
    std::vector<std::string> expected;
    std::string wire;
    const int n_lines = 1 + static_cast<int>(rng() % 20);
    for (int i = 0; i < n_lines; ++i) {
      std::string line;
      const std::size_t len = rng() % 40;
      for (std::size_t j = 0; j < len; ++j) {
        line += static_cast<char>('!' + rng() % 93);  // printable, no \r\n
      }
      expected.push_back(line);
      wire += line;
      if (rng() % 4 == 0) wire += '\r';
      wire += '\n';
    }
    FrameReader r(4096);
    std::vector<std::string> got;
    std::size_t pos = 0;
    while (pos < wire.size()) {
      const std::size_t chunk =
          std::min<std::size_t>(1 + rng() % 7, wire.size() - pos);
      r.feed(wire.data() + pos, chunk);
      pos += chunk;
      while (auto ev = r.next()) {
        ASSERT_EQ(ev->kind, FrameEvent::Kind::Frame);
        got.push_back(ev->text);
      }
    }
    EXPECT_EQ(got, expected) << "round " << round;
  }
}

// ---------------------------------------------------------------------------
// Request frames (the "id" key + source labels)

TEST(NetRequest, FrameParserCapturesClientId) {
  std::string error;
  const auto req = serve::parse_request_frame(
      "{\"id\":41,\"kind\":\"morphology\",\"size\":8,\"bands\":4}", &error);
  ASSERT_TRUE(req.has_value()) << error;
  EXPECT_TRUE(req->has_client_id);
  EXPECT_EQ(req->client_id, 41u);
}

TEST(NetRequest, FrameParserWithoutIdLeavesFlagClear) {
  const auto req = serve::parse_request_frame(
      "{\"kind\":\"morphology\",\"size\":8,\"bands\":4}");
  ASSERT_TRUE(req.has_value());
  EXPECT_FALSE(req->has_client_id);
}

TEST(NetRequest, FileParserRejectsIdKey) {
  std::string error;
  const auto spec = serve::parse_request_line(
      "{\"id\":1,\"kind\":\"morphology\",\"size\":8,\"bands\":4}", &error);
  EXPECT_FALSE(spec.has_value());
  EXPECT_NE(error.find("id"), std::string::npos) << error;
}

TEST(NetRequest, NegativeClientIdRejected) {
  std::string error;
  EXPECT_FALSE(serve::parse_request_frame(
      "{\"id\":-1,\"kind\":\"morphology\",\"size\":8,\"bands\":4}", &error));
  EXPECT_FALSE(error.empty());
}

TEST(NetRequest, SourceLabelPrefixesParseErrors) {
  std::string error;
  EXPECT_FALSE(serve::parse_request_frame("{not json", &error, "conn 3"));
  EXPECT_EQ(error.rfind("conn 3: ", 0), 0u) << error;

  error.clear();
  EXPECT_FALSE(serve::parse_request_line("{not json", &error));
  EXPECT_EQ(error.find("conn"), std::string::npos) << error;
}

TEST(NetRequest, ReadRequestsLabelsSourceAndLine) {
  std::istringstream in(
      "# comment\n"
      "{\"kind\":\"morphology\",\"size\":8,\"bands\":4}\n"
      "{broken\n");
  const auto batch = serve::read_requests(in, "req.jsonl");
  EXPECT_EQ(batch.jobs.size(), 1u);
  ASSERT_EQ(batch.errors.size(), 1u);
  EXPECT_EQ(batch.errors[0].first, 3);
  EXPECT_EQ(batch.errors[0].second.rfind("req.jsonl:3: ", 0), 0u)
      << batch.errors[0].second;
}

TEST(NetRequest, ClientIdNeverReachesTheFingerprint) {
  const char* with_id =
      "{\"id\":99,\"kind\":\"unmix\",\"size\":8,\"bands\":4,\"endmembers\":3}";
  const char* without_id =
      "{\"kind\":\"unmix\",\"size\":8,\"bands\":4,\"endmembers\":3}";
  const auto a = serve::parse_request_frame(with_id);
  const auto b = serve::parse_request_frame(without_id);
  ASSERT_TRUE(a && b);
  EXPECT_EQ(serve::job_fingerprint(a->spec), serve::job_fingerprint(b->spec));
}

// ---------------------------------------------------------------------------
// Wire protocol

TEST(NetProtocol, BuildersEmitOneStrictJsonLine) {
  serve::JobResult result;
  result.id = 3;
  result.name = "j";
  result.state = serve::JobState::Done;
  const std::string frames[] = {
      hello_frame(1 << 20),
      result_frame(result, true, 7),
      reject_frame(9, false, 0, "big", "queue full", 125.5),
      error_frame("bad \"frame\"\nhere", true),
      progress_frame(4, true, 2, 11),
  };
  for (const std::string& f : frames) {
    ASSERT_FALSE(f.empty());
    EXPECT_EQ(f.back(), '\n');
    EXPECT_EQ(f.find('\n'), f.size() - 1) << f;  // exactly one line
    std::string error;
    EXPECT_TRUE(trace::json::parse(f, &error)) << f << " -- " << error;
  }
}

TEST(NetProtocol, ResultFrameRoundTrips) {
  serve::JobResult result;
  result.id = 12;
  result.name = "quoted \"name\"";
  result.state = serve::JobState::Done;
  result.detail = "ok";
  result.attempts = 2;
  result.cached = true;
  result.queue_seconds = 0.25;
  result.exec_seconds = 0.5;
  result.chunk_count = 6;
  result.output_hash = 0xdeadbeef01ull;

  const auto r = parse_response_frame(result_frame(result, true, 77));
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->type, "result");
  EXPECT_TRUE(r->terminal());
  EXPECT_EQ(r->job, 12u);
  EXPECT_TRUE(r->has_client_id);
  EXPECT_EQ(r->client_id, 77u);
  EXPECT_EQ(r->name, "quoted \"name\"");
  EXPECT_EQ(r->state, "done");
  EXPECT_EQ(r->attempts, 2);
  EXPECT_TRUE(r->cached);
  EXPECT_NEAR(r->queue_ms, 250.0, 1e-6);
  EXPECT_NEAR(r->exec_ms, 500.0, 1e-6);
  EXPECT_EQ(r->chunks, 6u);
  EXPECT_EQ(r->output_hash, "deadbeef01");
}

TEST(NetProtocol, RejectFrameCarries429AndRetryAfter) {
  const auto r = parse_response_frame(
      reject_frame(5, true, 3, "victim", "queue full: shed", 210.25));
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->type, "reject");
  EXPECT_TRUE(r->terminal());
  EXPECT_EQ(r->code, 429);
  EXPECT_EQ(r->state, "rejected");
  EXPECT_EQ(r->error, "queue full: shed");
  EXPECT_NEAR(r->retry_after_ms, 210.25, 1e-6);
  EXPECT_EQ(r->client_id, 3u);
}

TEST(NetProtocol, ErrorAndProgressRoundTrip) {
  const auto err = parse_response_frame(error_frame("conn 1: bad", true));
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(err->type, "error");
  EXPECT_FALSE(err->terminal());
  EXPECT_TRUE(err->fatal);
  EXPECT_EQ(err->error, "conn 1: bad");

  const auto prog = parse_response_frame(progress_frame(8, true, 4, 19));
  ASSERT_TRUE(prog.has_value());
  EXPECT_EQ(prog->type, "progress");
  EXPECT_FALSE(prog->terminal());
  EXPECT_EQ(prog->job, 8u);
  EXPECT_EQ(prog->chunks, 19u);
}

TEST(NetProtocol, UnknownKeysAreSkippedForForwardCompat) {
  const auto r = parse_response_frame(
      "{\"type\":\"result\",\"job\":1,\"state\":\"done\","
      "\"new_field\":[1,2,3],\"another\":{\"x\":true}}");
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->type, "result");
  EXPECT_EQ(r->job, 1u);
}

TEST(NetProtocol, FramesWithoutTypeOrBadJsonRejected) {
  std::string error;
  EXPECT_FALSE(parse_response_frame("{\"job\":1}", &error));
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(parse_response_frame("nonsense", &error));
  EXPECT_FALSE(parse_response_frame("[1,2]", &error));
}

TEST(NetProtocol, ParsePortIsStrict) {
  EXPECT_EQ(parse_port("0"), 0);
  EXPECT_EQ(parse_port("80"), 80);
  EXPECT_EQ(parse_port("65535"), 65535);
  EXPECT_FALSE(parse_port(""));
  EXPECT_FALSE(parse_port("65536"));
  EXPECT_FALSE(parse_port("-1"));
  EXPECT_FALSE(parse_port("80x"));
  EXPECT_FALSE(parse_port("http"));
  EXPECT_FALSE(parse_port(" 80"));
  EXPECT_FALSE(parse_port("8 0"));
  EXPECT_FALSE(parse_port("123456"));
}

TEST(NetProtocol, ParseOutputHashIsStrict) {
  EXPECT_EQ(parse_output_hash("0"), 0u);
  EXPECT_EQ(parse_output_hash("12ab"), 0x12abu);
  EXPECT_EQ(parse_output_hash("12AB"), 0x12abu);
  EXPECT_EQ(parse_output_hash("ffffffffffffffff"), ~std::uint64_t{0});
  EXPECT_EQ(parse_output_hash("0000000000000001"), 1u);
  EXPECT_FALSE(parse_output_hash(""));
  EXPECT_FALSE(parse_output_hash("12g"));  // strtoull would give 0x12
  EXPECT_FALSE(parse_output_hash("g"));
  EXPECT_FALSE(parse_output_hash("1ffffffffffffffff"));  // 17 digits
  EXPECT_FALSE(parse_output_hash("00000000000000000"));  // 17 digits
  EXPECT_FALSE(parse_output_hash("0x12"));
  EXPECT_FALSE(parse_output_hash("-1"));
  EXPECT_FALSE(parse_output_hash("+1"));
  EXPECT_FALSE(parse_output_hash(" 1"));
  EXPECT_FALSE(parse_output_hash("1 "));
  // It inverts what result_frame prints.
  for (const std::uint64_t hash :
       {std::uint64_t{0}, std::uint64_t{0xabc}, ~std::uint64_t{0}}) {
    serve::JobResult r;
    r.id = 3;
    r.state = serve::JobState::Done;
    r.output_hash = hash;
    const auto resp = parse_response_frame(result_frame(r, false, 0));
    ASSERT_TRUE(resp.has_value());
    EXPECT_EQ(parse_output_hash(resp->output_hash), hash);
  }
}

// ---------------------------------------------------------------------------
// NetServer over real loopback sockets

std::string hex64(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%llx", static_cast<unsigned long long>(v));
  return buf;
}

/// Small always-Done synthetic jobs; the same lines are reused for the
/// direct (in-process) witness runs.
const std::vector<std::string>& request_lines() {
  static const std::vector<std::string> lines = {
      R"({"name":"t-mei","kind":"morphology","size":16,"bands":8,"se":1})",
      R"({"name":"t-classify","kind":"classify","size":12,"bands":8,"endmembers":3})",
      R"({"name":"t-unmix","kind":"unmix","size":16,"bands":8,"endmembers":3,"workers":2})",
      R"({"name":"t-chunked","kind":"morphology","size":24,"bands":8,"se":1,"workers":2,"chunk_texel_budget":256})",
  };
  return lines;
}

std::string with_id(const std::string& line, std::uint64_t id) {
  std::string out = line;
  out.insert(1, "\"id\":" + std::to_string(id) + ",");
  return out;
}

/// A gate for holding jobs "running" deterministically from inside the
/// fault injector (which blocks, then reports no fault).
struct Gate {
  std::mutex mu;
  std::condition_variable cv;
  bool open = false;
  void release() {
    std::lock_guard<std::mutex> lk(mu);
    open = true;
    cv.notify_all();
  }
  void wait() {
    std::unique_lock<std::mutex> lk(mu);
    cv.wait(lk, [&] { return open; });
  }
};

template <typename Predicate>
bool eventually(Predicate pred, double timeout_s = 10.0) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(timeout_s);
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(1ms);
  }
  return pred();
}

serve::ServerOptions base_server_options(std::size_t workers) {
  serve::ServerOptions options;
  options.workers = workers;
  options.keep_payloads = false;
  return options;
}

/// Reads and checks the mandatory hello greeting.
void expect_hello(Client& client) {
  std::string error;
  const auto hello = client.read_frame(10.0, &error);
  ASSERT_TRUE(hello.has_value()) << error;
  const auto r = parse_response_frame(*hello);
  ASSERT_TRUE(r.has_value()) << *hello;
  ASSERT_EQ(r->type, "hello");
}

TEST(NetServerLoop, HelloGreetingAdvertisesProtocol) {
  serve::Server server(base_server_options(1));
  NetServerOptions nopt;
  nopt.max_frame_bytes = 4096;
  NetServer ns(server, nopt);
  ns.start();
  ASSERT_GT(ns.port(), 0);

  Client client;
  std::string error;
  ASSERT_TRUE(client.connect("127.0.0.1", ns.port(), &error)) << error;
  const auto hello = client.read_frame(10.0, &error);
  ASSERT_TRUE(hello.has_value()) << error;
  EXPECT_NE(hello->find("hs.net.v1"), std::string::npos);
  EXPECT_NE(hello->find("4096"), std::string::npos);
  client.close();
  ns.stop(/*drain=*/true);
  server.shutdown(true);
}

TEST(NetServerLoop, SubmitStreamsTaggedResult) {
  serve::Server server(base_server_options(2));
  NetServer ns(server, NetServerOptions{});
  ns.start();

  Client client;
  std::string error;
  ASSERT_TRUE(client.connect("127.0.0.1", ns.port(), &error)) << error;
  expect_hello(client);
  ASSERT_TRUE(client.send_line(with_id(request_lines()[0], 42), &error))
      << error;
  const auto frame = client.read_frame(30.0, &error);
  ASSERT_TRUE(frame.has_value()) << error;
  const auto r = parse_response_frame(*frame);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->type, "result");
  EXPECT_EQ(r->state, "done");
  ASSERT_TRUE(r->has_client_id);
  EXPECT_EQ(r->client_id, 42u);
  EXPECT_FALSE(r->output_hash.empty());

  client.close();
  ns.stop(true);
  server.shutdown(true);
  const auto stats = ns.stats();
  EXPECT_EQ(stats.submitted, 1u);
  EXPECT_EQ(stats.results_sent, 1u);
  EXPECT_EQ(stats.rejected, 0u);
}

TEST(NetServerLoop, OutOfOrderCompletionsRouteByClientId) {
  // Job tagged id 1 blocks on the gate; job tagged id 2 completes first.
  auto gate = std::make_shared<Gate>();
  auto options = base_server_options(2);
  std::atomic<std::uint64_t> gated_id{0};
  options.inject_fault = [gate, &gated_id](std::uint64_t id, int) {
    if (id == gated_id.load()) gate->wait();
    return false;
  };
  serve::Server server(options);
  NetServer ns(server, NetServerOptions{});
  ns.start();

  Client client;
  std::string error;
  ASSERT_TRUE(client.connect("127.0.0.1", ns.port(), &error)) << error;
  expect_hello(client);
  gated_id.store(1);  // the first submitted job gets server id 1
  ASSERT_TRUE(client.send_line(with_id(request_lines()[0], 1), &error));
  ASSERT_TRUE(client.send_line(with_id(request_lines()[1], 2), &error));

  const auto first = client.read_frame(30.0, &error);
  ASSERT_TRUE(first.has_value()) << error;
  const auto r1 = parse_response_frame(*first);
  ASSERT_TRUE(r1.has_value());
  EXPECT_EQ(r1->client_id, 2u) << "fast job should finish first";

  gate->release();
  const auto second = client.read_frame(30.0, &error);
  ASSERT_TRUE(second.has_value()) << error;
  const auto r2 = parse_response_frame(*second);
  ASSERT_TRUE(r2.has_value());
  EXPECT_EQ(r2->client_id, 1u);
  EXPECT_EQ(r2->state, "done");

  client.close();
  ns.stop(true);
  server.shutdown(true);
}

TEST(NetServerLoop, MalformedFrameGetsErrorAndConnectionSurvives) {
  serve::Server server(base_server_options(1));
  NetServer ns(server, NetServerOptions{});
  ns.start();

  Client client;
  std::string error;
  ASSERT_TRUE(client.connect("127.0.0.1", ns.port(), &error)) << error;
  expect_hello(client);
  ASSERT_TRUE(client.send_line("{this is not json", &error));
  const auto err_frame = client.read_frame(10.0, &error);
  ASSERT_TRUE(err_frame.has_value()) << error;
  const auto e = parse_response_frame(*err_frame);
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->type, "error");
  EXPECT_FALSE(e->fatal);
  // The error names the connection as the source of the bad line.
  EXPECT_NE(e->error.find("conn "), std::string::npos) << e->error;

  // Same connection still serves requests.
  ASSERT_TRUE(client.send_line(with_id(request_lines()[0], 5), &error));
  const auto result = client.read_frame(30.0, &error);
  ASSERT_TRUE(result.has_value()) << error;
  EXPECT_EQ(parse_response_frame(*result)->state, "done");

  client.close();
  ns.stop(true);
  server.shutdown(true);
  EXPECT_EQ(ns.stats().bad_frames, 1u);
}

TEST(NetServerLoop, OversizedFrameIsFatalForTheConnection) {
  serve::Server server(base_server_options(1));
  NetServerOptions nopt;
  nopt.max_frame_bytes = 64;
  NetServer ns(server, nopt);
  ns.start();

  Client client;
  std::string error;
  ASSERT_TRUE(client.connect("127.0.0.1", ns.port(), &error)) << error;
  expect_hello(client);
  ASSERT_TRUE(client.send_line(std::string(300, 'x'), &error));
  const auto err_frame = client.read_frame(10.0, &error);
  ASSERT_TRUE(err_frame.has_value()) << error;
  const auto e = parse_response_frame(*err_frame);
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->type, "error");
  EXPECT_TRUE(e->fatal);
  // Server closes after flushing the error.
  EXPECT_FALSE(client.read_frame(10.0, &error).has_value());
  EXPECT_EQ(error, "eof");

  // A fresh connection is unaffected.
  Client second;
  ASSERT_TRUE(second.connect("127.0.0.1", ns.port(), &error)) << error;
  expect_hello(second);
  second.close();

  ns.stop(true);
  server.shutdown(true);
  EXPECT_EQ(ns.stats().oversized_frames, 1u);
}

TEST(NetIo, SendAllBoundedSurvivesFullSocketBufferAndPartialWrites) {
  // Regression for the accept-time busy reject, which used to be a single
  // fire-and-forget ::send on a SOCK_NONBLOCK socket: with the buffer
  // full the frame was silently dropped or truncated. Shrink the kernel
  // buffers, stuff the pipe until ::send reports EAGAIN, then ask
  // send_all_bounded for a frame much larger than the remaining room --
  // every byte must come out the other end, in order, while a slow reader
  // drains.
  int sv[2] = {-1, -1};
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  for (int fd : sv) {
    const int flags = ::fcntl(fd, F_GETFL, 0);
    ASSERT_EQ(::fcntl(fd, F_SETFL, flags | O_NONBLOCK), 0);
    const int small = 4096;
    ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &small, sizeof(small));
    ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &small, sizeof(small));
  }

  // Fill until the kernel pushes back.
  std::string plug(1024, 'p');
  std::size_t plugged = 0;
  for (;;) {
    const ssize_t n = ::send(sv[0], plug.data(), plug.size(), MSG_NOSIGNAL);
    if (n < 0) {
      ASSERT_TRUE(errno == EAGAIN || errno == EWOULDBLOCK);
      break;
    }
    plugged += static_cast<std::size_t>(n);
  }

  std::string frame(64 * 1024, 'x');
  for (std::size_t i = 0; i < frame.size(); ++i) {
    frame[i] = static_cast<char>('a' + (i % 26));
  }

  std::string received;
  std::thread reader([&] {
    std::this_thread::sleep_for(20ms);  // let the writer hit EAGAIN first
    char buf[512];                      // small reads force partial writes
    const std::size_t want = plugged + frame.size();
    while (received.size() < want) {
      const ssize_t n = ::recv(sv[1], buf, sizeof(buf), 0);
      if (n > 0) {
        received.append(buf, static_cast<std::size_t>(n));
      } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        std::this_thread::sleep_for(1ms);
      } else if (n < 0 && errno == EINTR) {
        continue;
      } else {
        break;
      }
    }
  });

  EXPECT_TRUE(send_all_bounded(sv[0], frame, /*timeout_ms=*/10000));
  reader.join();
  ASSERT_EQ(received.size(), plugged + frame.size());
  EXPECT_EQ(received.substr(plugged), frame);

  // With nobody draining, the bounded wait gives up instead of wedging.
  std::size_t refill = 0;
  for (;;) {
    const ssize_t n = ::send(sv[0], plug.data(), plug.size(), MSG_NOSIGNAL);
    if (n < 0) break;
    refill += static_cast<std::size_t>(n);
  }
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_FALSE(send_all_bounded(sv[0], frame, /*timeout_ms=*/50));
  const double waited =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_LT(waited, 5.0);
  (void)refill;

  ::close(sv[0]);
  ::close(sv[1]);
}

TEST(NetServerLoop, BusyRejectFrameArrivesIntactOverConnectionLimit) {
  serve::Server server(base_server_options(1));
  NetServerOptions nopt;
  nopt.max_connections = 1;
  NetServer ns(server, nopt);
  ns.start();

  Client first;
  std::string error;
  ASSERT_TRUE(first.connect("127.0.0.1", ns.port(), &error)) << error;
  expect_hello(first);

  // Over the limit: the server must deliver one complete, parseable
  // fatal error frame and close.
  Client second;
  ASSERT_TRUE(second.connect("127.0.0.1", ns.port(), &error)) << error;
  const auto frame = second.read_frame(10.0, &error);
  ASSERT_TRUE(frame.has_value()) << error;
  const auto r = parse_response_frame(*frame);
  ASSERT_TRUE(r.has_value()) << *frame;
  EXPECT_EQ(r->type, "error");
  EXPECT_TRUE(r->fatal);
  EXPECT_NE(r->error.find("busy"), std::string::npos);
  EXPECT_FALSE(second.read_frame(1.0, &error).has_value());  // then EOF

  second.close();
  first.close();
  ns.stop(true);
  server.shutdown(true);
}

TEST(NetServerLoop, SynchronousRejectStreams429WithRetryAfter) {
  auto options = base_server_options(1);
  options.admission.max_estimated_bytes = 1;  // nothing fits
  serve::Server server(options);
  NetServer ns(server, NetServerOptions{});
  ns.start();

  Client client;
  std::string error;
  ASSERT_TRUE(client.connect("127.0.0.1", ns.port(), &error)) << error;
  expect_hello(client);
  ASSERT_TRUE(client.send_line(with_id(request_lines()[0], 9), &error));
  const auto frame = client.read_frame(10.0, &error);
  ASSERT_TRUE(frame.has_value()) << error;
  const auto r = parse_response_frame(*frame);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->type, "reject");
  EXPECT_EQ(r->code, 429);
  EXPECT_EQ(r->client_id, 9u);
  EXPECT_GE(r->retry_after_ms, 25.0);  // the configured floor
  EXPECT_FALSE(r->error.empty());

  // Exactly one terminal frame: the on_terminal duplicate for a
  // synchronously-answered id must not produce a second response.
  EXPECT_FALSE(client.read_frame(0.3, &error).has_value());
  EXPECT_EQ(error, "timeout");

  client.close();
  ns.stop(true);
  server.shutdown(true);
  EXPECT_EQ(ns.stats().rejected, 1u);
  EXPECT_EQ(ns.stats().results_sent, 0u);
}

TEST(NetServerLoop, ShedQueuedJobStreams429) {
  auto gate = std::make_shared<Gate>();
  auto options = base_server_options(1);
  options.admission.max_queue_depth = 1;
  options.admission.shed_low_priority = true;
  options.inject_fault = [gate](std::uint64_t, int) {
    gate->wait();
    return false;
  };
  serve::Server server(options);
  NetServer ns(server, NetServerOptions{});
  ns.start();

  Client client;
  std::string error;
  ASSERT_TRUE(client.connect("127.0.0.1", ns.port(), &error)) << error;
  expect_hello(client);

  // id 1 occupies the worker (gated); id 2 (low) fills the queue; id 3
  // (high) sheds it.
  std::string running = with_id(request_lines()[0], 1);
  ASSERT_TRUE(client.send_line(running, &error));
  ASSERT_TRUE(eventually([&] { return server.in_flight() == 1; })) <<
      "gated job never started";
  std::string low = with_id(
      R"({"name":"victim","kind":"classify","priority":"low","size":12,"bands":8})",
      2);
  std::string high = with_id(
      R"({"name":"vip","kind":"classify","priority":"high","size":12,"bands":8})",
      3);
  ASSERT_TRUE(client.send_line(low, &error));
  ASSERT_TRUE(eventually([&] { return server.queue_depth() == 1; }));
  ASSERT_TRUE(client.send_line(high, &error));

  // The shed victim's 429 arrives while the worker is still gated.
  const auto shed = client.read_frame(10.0, &error);
  ASSERT_TRUE(shed.has_value()) << error;
  const auto r = parse_response_frame(*shed);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->type, "reject");
  EXPECT_EQ(r->code, 429);
  EXPECT_EQ(r->client_id, 2u);
  EXPECT_GT(r->retry_after_ms, 0.0);

  gate->release();
  std::set<std::uint64_t> finished;
  for (int i = 0; i < 2; ++i) {
    const auto frame = client.read_frame(30.0, &error);
    ASSERT_TRUE(frame.has_value()) << error;
    const auto done = parse_response_frame(*frame);
    ASSERT_TRUE(done.has_value());
    EXPECT_EQ(done->state, "done");
    finished.insert(done->client_id);
  }
  EXPECT_EQ(finished, (std::set<std::uint64_t>{1, 3}));

  client.close();
  ns.stop(true);
  server.shutdown(true);
}

TEST(NetServerLoop, PortInUseThrowsWithErrnoText) {
  serve::Server server_a(base_server_options(1));
  NetServer a(server_a, NetServerOptions{});
  NetServerOptions taken;
  taken.port = a.port();
  serve::Server server_b(base_server_options(1));
  EXPECT_THROW(
      { NetServer b(server_b, taken); }, std::runtime_error);
}

TEST(NetServerLoop, FlowControlPausesAndRecovers) {
  auto gate = std::make_shared<Gate>();
  auto options = base_server_options(2);
  options.inject_fault = [gate](std::uint64_t, int) {
    gate->wait();
    return false;
  };
  serve::Server server(options);
  NetServerOptions nopt;
  nopt.max_inflight_per_conn = 2;
  NetServer ns(server, nopt);
  ns.start();

  Client client;
  std::string error;
  ASSERT_TRUE(client.connect("127.0.0.1", ns.port(), &error)) << error;
  expect_hello(client);
  // One send() carrying all six frames: TCP delivers them as a single
  // recv batch, so the in-flight cap must be enforced frame by frame
  // inside the batch, not once per read.
  const int kJobs = 6;
  std::string burst;
  for (int i = 0; i < kJobs; ++i) {
    burst += with_id(request_lines()[0], i) + "\n";
  }
  ASSERT_TRUE(client.send_line(burst, &error));
  // With every worker gated and the per-connection cap at 2, the loop
  // must stop reading this connection at least once, with at most the
  // two capped jobs inside the Server; the other four wait, parsed but
  // unsubmitted, in the connection's frame buffer.
  ASSERT_TRUE(eventually([&] { return ns.stats().flow_pauses >= 1; }))
      << "flow control never paused";
  EXPECT_LE(server.in_flight() + server.queue_depth(), 2u);
  EXPECT_EQ(ns.stats().submitted, 2u);

  gate->release();
  std::set<std::uint64_t> finished;
  for (int i = 0; i < kJobs; ++i) {
    const auto frame = client.read_frame(30.0, &error);
    ASSERT_TRUE(frame.has_value()) << error;
    const auto r = parse_response_frame(*frame);
    ASSERT_TRUE(r.has_value());
    EXPECT_TRUE(r->terminal());
    finished.insert(r->client_id);
  }
  EXPECT_EQ(finished.size(), static_cast<std::size_t>(kJobs));

  client.close();
  ns.stop(true);
  server.shutdown(true);
  EXPECT_EQ(ns.stats().submitted, static_cast<std::uint64_t>(kJobs));
}

TEST(NetServerLoop, AbruptResetOrphansInflightJobs) {
  auto gate = std::make_shared<Gate>();
  auto options = base_server_options(1);
  options.inject_fault = [gate](std::uint64_t, int) {
    gate->wait();
    return false;
  };
  serve::Server server(options);
  NetServer ns(server, NetServerOptions{});
  ns.start();

  Client client;
  std::string error;
  ASSERT_TRUE(client.connect("127.0.0.1", ns.port(), &error)) << error;
  expect_hello(client);
  ASSERT_TRUE(client.send_line(with_id(request_lines()[0], 1), &error));
  ASSERT_TRUE(eventually([&] { return ns.stats().submitted == 1; }));

  // SO_LINGER(0) turns close() into a hard RST: the loop sees an error
  // (not a half-close) while the job is still gated.
  struct linger hard {};
  hard.l_onoff = 1;
  hard.l_linger = 0;
  ::setsockopt(client.fd(), SOL_SOCKET, SO_LINGER, &hard, sizeof(hard));
  client.close();
  ASSERT_TRUE(eventually([&] { return ns.open_connections() == 0; }))
      << "reset connection never closed";

  gate->release();
  // The job still reaches its terminal state; the result is accounted as
  // orphaned, never silently lost.
  ASSERT_TRUE(eventually([&] { return ns.stats().orphaned_results == 1; }));
  EXPECT_EQ(ns.stats().results_sent, 0u);

  // The front door keeps serving new clients afterwards.
  Client second;
  ASSERT_TRUE(second.connect("127.0.0.1", ns.port(), &error)) << error;
  expect_hello(second);
  ASSERT_TRUE(second.send_line(with_id(request_lines()[1], 2), &error));
  const auto frame = second.read_frame(30.0, &error);
  ASSERT_TRUE(frame.has_value()) << error;
  EXPECT_EQ(parse_response_frame(*frame)->state, "done");
  second.close();

  ns.stop(true);
  server.shutdown(true);
}

TEST(NetServerLoop, HalfCloseStillFlushesResults) {
  serve::Server server(base_server_options(2));
  NetServer ns(server, NetServerOptions{});
  ns.start();

  Client client;
  std::string error;
  ASSERT_TRUE(client.connect("127.0.0.1", ns.port(), &error)) << error;
  expect_hello(client);
  ASSERT_TRUE(client.send_line(with_id(request_lines()[0], 1), &error));
  ASSERT_TRUE(client.send_line(with_id(request_lines()[1], 2), &error));
  client.shutdown_writes();

  std::set<std::uint64_t> finished;
  for (int i = 0; i < 2; ++i) {
    const auto frame = client.read_frame(30.0, &error);
    ASSERT_TRUE(frame.has_value()) << error;
    finished.insert(parse_response_frame(*frame)->client_id);
  }
  EXPECT_EQ(finished, (std::set<std::uint64_t>{1, 2}));
  // After the owed results, the server closes its half too.
  EXPECT_FALSE(client.read_frame(10.0, &error).has_value());
  EXPECT_EQ(error, "eof");

  ns.stop(true);
  server.shutdown(true);
}

TEST(NetServerLoop, DrainStopDeliversEveryPendingResult) {
  serve::Server server(base_server_options(2));
  NetServer ns(server, NetServerOptions{});
  ns.start();

  Client client;
  std::string error;
  ASSERT_TRUE(client.connect("127.0.0.1", ns.port(), &error)) << error;
  expect_hello(client);
  const int kJobs = 4;
  for (int i = 0; i < kJobs; ++i) {
    ASSERT_TRUE(client.send_line(with_id(request_lines()[i % 4], i), &error));
  }
  ASSERT_TRUE(eventually(
      [&] { return ns.stats().submitted == static_cast<std::uint64_t>(kJobs); }));

  std::thread stopper([&] { ns.stop(/*drain=*/true); });
  std::set<std::uint64_t> finished;
  for (int i = 0; i < kJobs; ++i) {
    const auto frame = client.read_frame(30.0, &error);
    ASSERT_TRUE(frame.has_value()) << error;
    finished.insert(parse_response_frame(*frame)->client_id);
  }
  EXPECT_EQ(finished.size(), static_cast<std::size_t>(kJobs));
  EXPECT_FALSE(client.read_frame(10.0, &error).has_value());
  EXPECT_EQ(error, "eof");
  stopper.join();
  server.shutdown(true);
}

TEST(NetServerLoop, ProgressFramesStreamAtChunkBoundaries) {
  serve::Server server(base_server_options(1));
  NetServerOptions nopt;
  nopt.progress_events = true;
  NetServer ns(server, nopt);
  ns.start();

  Client client;
  std::string error;
  ASSERT_TRUE(client.connect("127.0.0.1", ns.port(), &error)) << error;
  expect_hello(client);
  ASSERT_TRUE(client.send_line(with_id(request_lines()[3], 1), &error));

  std::uint64_t progress = 0;
  for (;;) {
    const auto frame = client.read_frame(30.0, &error);
    ASSERT_TRUE(frame.has_value()) << error;
    const auto r = parse_response_frame(*frame);
    ASSERT_TRUE(r.has_value());
    if (r->type == "progress") {
      EXPECT_EQ(r->client_id, 1u);
      ++progress;
      continue;
    }
    EXPECT_EQ(r->state, "done");
    break;
  }
  EXPECT_GE(progress, 1u);
  client.close();
  ns.stop(true);
  server.shutdown(true);
}

TEST(NetServerLoop, WireWitnessMatchesInProcessPath) {
  // The acceptance contract: hashes over the wire are bit-identical to a
  // direct in-process serve of the same specs.
  std::map<std::string, std::string> direct;
  {
    serve::Server server(base_server_options(2));
    for (const std::string& line : request_lines()) {
      const auto spec = serve::parse_request_line(line);
      ASSERT_TRUE(spec.has_value());
      server.submit(*spec);
    }
    server.shutdown(true);
    for (const auto& r : server.results()) {
      ASSERT_EQ(r.state, serve::JobState::Done) << r.detail;
      direct[r.name] = hex64(r.output_hash);
    }
  }

  serve::Server server(base_server_options(2));
  NetServer ns(server, NetServerOptions{});
  ns.start();
  Client client;
  std::string error;
  ASSERT_TRUE(client.connect("127.0.0.1", ns.port(), &error)) << error;
  expect_hello(client);
  for (std::size_t i = 0; i < request_lines().size(); ++i) {
    ASSERT_TRUE(client.send_line(with_id(request_lines()[i], i), &error));
  }
  client.shutdown_writes();
  std::map<std::string, std::string> wire;
  for (std::size_t i = 0; i < request_lines().size(); ++i) {
    const auto frame = client.read_frame(30.0, &error);
    ASSERT_TRUE(frame.has_value()) << error;
    const auto r = parse_response_frame(*frame);
    ASSERT_TRUE(r.has_value());
    ASSERT_EQ(r->state, "done") << r->detail;
    wire[r->name] = r->output_hash;
  }
  EXPECT_EQ(wire, direct);
  ns.stop(true);
  server.shutdown(true);
}

// ---------------------------------------------------------------------------
// NetSlow: concurrency stress + the cross-worker-count witness sweep.
// Labeled `net;slow` by tests/CMakeLists.txt; the TSan stage runs these.

TEST(NetSlow, WitnessIdenticalAcrossWorkerCounts) {
  std::map<std::string, std::string> reference;
  for (const std::size_t workers : {1u, 2u, 4u, 7u}) {
    serve::Server server(base_server_options(workers));
    NetServer ns(server, NetServerOptions{});
    ns.start();
    Client client;
    std::string error;
    ASSERT_TRUE(client.connect("127.0.0.1", ns.port(), &error)) << error;
    expect_hello(client);
    for (std::size_t i = 0; i < request_lines().size(); ++i) {
      ASSERT_TRUE(client.send_line(with_id(request_lines()[i], i), &error));
    }
    client.shutdown_writes();
    std::map<std::string, std::string> wire;
    for (std::size_t i = 0; i < request_lines().size(); ++i) {
      const auto frame = client.read_frame(60.0, &error);
      ASSERT_TRUE(frame.has_value()) << error << " (workers " << workers << ")";
      const auto r = parse_response_frame(*frame);
      ASSERT_TRUE(r.has_value());
      ASSERT_EQ(r->state, "done") << r->detail;
      wire[r->name] = r->output_hash;
    }
    ns.stop(true);
    server.shutdown(true);
    if (reference.empty()) {
      reference = wire;
    } else {
      EXPECT_EQ(wire, reference) << "workers " << workers;
    }
  }
  EXPECT_EQ(reference.size(), request_lines().size());
}

TEST(NetSlow, ManyConcurrentClientsAllAccounted) {
  serve::Server server(base_server_options(4));
  NetServer ns(server, NetServerOptions{});
  ns.start();
  const int kClients = 6;
  const int kPerClient = 12;

  std::mutex mu;
  std::map<std::string, std::set<std::string>> hashes_by_name;
  std::atomic<int> terminals{0};
  std::atomic<int> failures{0};

  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      Client client;
      std::string error;
      if (!client.connect("127.0.0.1", ns.port(), &error)) {
        ++failures;
        return;
      }
      const auto hello = client.read_frame(30.0, &error);
      if (!hello) {
        ++failures;
        return;
      }
      for (int i = 0; i < kPerClient; ++i) {
        const auto& line = request_lines()[(c + i) % request_lines().size()];
        if (!client.send_line(with_id(line, i), &error)) {
          ++failures;
          return;
        }
        // Closed loop: wait for this request's terminal before the next.
        for (;;) {
          const auto frame = client.read_frame(60.0, &error);
          if (!frame) {
            ++failures;
            return;
          }
          const auto r = parse_response_frame(*frame);
          if (!r || !r->terminal()) continue;
          ++terminals;
          if (r->state == "done") {
            std::lock_guard<std::mutex> lk(mu);
            hashes_by_name[r->name].insert(r->output_hash);
          }
          break;
        }
      }
      client.close();
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(terminals.load(), kClients * kPerClient);
  for (const auto& [name, hashes] : hashes_by_name) {
    EXPECT_EQ(hashes.size(), 1u) << "witness drift for " << name;
  }
  ns.stop(true);
  server.shutdown(true);
  const auto stats = ns.stats();
  EXPECT_EQ(stats.accepted, static_cast<std::uint64_t>(kClients));
  EXPECT_EQ(stats.submitted,
            static_cast<std::uint64_t>(kClients * kPerClient));
  EXPECT_EQ(stats.results_sent + stats.rejected,
            static_cast<std::uint64_t>(kClients * kPerClient));
}

TEST(NetSlow, FrameFuzzThroughRealSockets) {
  // Random garbage interleaved with valid requests: every valid request
  // terminalizes, every invalid line gets an error frame, the connection
  // survives it all.
  serve::Server server(base_server_options(2));
  NetServer ns(server, NetServerOptions{});
  ns.start();

  Client client;
  std::string error;
  ASSERT_TRUE(client.connect("127.0.0.1", ns.port(), &error)) << error;
  expect_hello(client);

  std::mt19937 rng(7u);
  int valid = 0, invalid = 0;
  for (int i = 0; i < 40; ++i) {
    if (rng() % 2 == 0) {
      ASSERT_TRUE(client.send_line(
          with_id(request_lines()[rng() % request_lines().size()],
                  static_cast<std::uint64_t>(i)),
          &error));
      ++valid;
    } else {
      std::string junk;
      const std::size_t len = rng() % 30;
      for (std::size_t j = 0; j < len; ++j) {
        char c = static_cast<char>('!' + rng() % 93);
        if (c == '#') c = '!';  // comment lines are silently skipped
        junk += c;
      }
      if (!junk.empty() && junk[0] == '{') junk[0] = '(';
      if (junk.empty()) continue;  // blank frames are silently skipped
      ASSERT_TRUE(client.send_line(junk, &error));
      ++invalid;
    }
  }
  int terminals = 0, errors = 0;
  while (terminals < valid || errors < invalid) {
    const auto frame = client.read_frame(60.0, &error);
    ASSERT_TRUE(frame.has_value())
        << error << " after " << terminals << "/" << valid << " terminals, "
        << errors << "/" << invalid << " errors";
    const auto r = parse_response_frame(*frame);
    ASSERT_TRUE(r.has_value());
    if (r->terminal()) ++terminals;
    if (r->type == "error") ++errors;
  }
  EXPECT_EQ(terminals, valid);
  EXPECT_EQ(errors, invalid);

  client.close();
  ns.stop(true);
  server.shutdown(true);
}

}  // namespace
}  // namespace hs::net
