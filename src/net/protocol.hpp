// Wire protocol for the TCP front door ("hs.net.v1").
//
// Every frame, both directions, is one JSON object per line (frame.hpp
// handles the byte-level splitting). Client -> server frames are the
// serve/request.hpp schema plus an optional "id" key the client chooses;
// server -> client frames carry a "type" discriminator:
//
//   {"type":"hello","proto":"hs.net.v1","max_frame_bytes":N}
//       sent once when the connection opens.
//   {"type":"result","job":J,"id":C,"name":...,"state":"Done"|"Failed"|
//    "TimedOut"|"Cancelled","detail":...,"attempts":n,"cached":b,
//    "queue_ms":..,"run_ms":..,"exec_ms":..,"modeled_ms":..,"chunks":..,
//    "output_hash":"<hex>"}
//       the job's terminal state, streamed when it completes. "id" is
//       present only when the request carried one.
//   {"type":"reject","code":429,"job":J,"id":C,"state":"Rejected",
//    "error":reason,"retry_after_ms":R}
//       admission control said no (queue full, over budget, shed, server
//       draining). retry_after_ms is a backoff hint derived from current
//       queue depth and observed service times -- load shedding degrades
//       to a structured response, never a dropped request.
//   {"type":"error","error":msg,"fatal":b}
//       a malformed or oversized frame; fatal means the server closes the
//       connection after flushing.
//   {"type":"progress","job":J,"id":C,"chunks":n}
//       optional per-chunk-boundary progress, when the server enables it.
//
// The builders below emit frames (terminating '\n' included) that the
// bundled strict RFC-8259 parser accepts; parse_response_frame is the
// client-side decoder used by hsi-loadgen, the tests, and anyone scripting
// against the wire.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "serve/job.hpp"

namespace hs::net {

inline constexpr const char* kProtocolName = "hs.net.v1";

/// JSON string escaping for frame payloads (RFC 8259 minimal set).
std::string json_escape(std::string_view s);

std::string hello_frame(std::size_t max_frame_bytes);
std::string result_frame(const serve::JobResult& result, bool has_client_id,
                         std::uint64_t client_id);
std::string reject_frame(std::uint64_t job_id, bool has_client_id,
                         std::uint64_t client_id, std::string_view name,
                         std::string_view reason, double retry_after_ms);
std::string error_frame(std::string_view message, bool fatal);
std::string progress_frame(std::uint64_t job_id, bool has_client_id,
                           std::uint64_t client_id, std::uint64_t chunks);

/// Decoded server -> client frame; fields are meaningful per `type` as
/// documented above. Unset numerics stay 0 and unset strings empty.
struct Response {
  std::string type;
  std::uint64_t job = 0;
  std::uint64_t client_id = 0;
  bool has_client_id = false;
  std::string state;
  std::string name;
  std::string detail;
  std::string error;
  std::string output_hash;  ///< lowercase hex, as printed by the server
  int code = 0;
  double retry_after_ms = 0;
  int attempts = 0;
  bool cached = false;
  bool fatal = false;
  double queue_ms = 0;
  double run_ms = 0;
  double exec_ms = 0;
  double modeled_ms = 0;
  std::uint64_t chunks = 0;

  /// True for the two frame types that end a request's life.
  bool terminal() const { return type == "result" || type == "reject"; }
};

/// Parses one server frame; nullopt + error on malformed JSON or a frame
/// without a recognized "type".
std::optional<Response> parse_response_frame(std::string_view line,
                                             std::string* error = nullptr);

/// Strict TCP port parse: all digits consumed, value in [0, 65535]
/// (0 means "pick an ephemeral port" where accepted). nullopt otherwise.
std::optional<int> parse_port(std::string_view text);

/// Strict witness parse for a frame's "output_hash": exactly 1-16 hex
/// digits (either case), all consumed -- the inverse of what result_frame
/// prints. nullopt for anything else: empty, a stray non-hex character,
/// a sign or "0x" prefix, or more digits than 64 bits hold.
std::optional<std::uint64_t> parse_output_hash(std::string_view text);

}  // namespace hs::net
