#include "net/protocol.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "trace/json_check.hpp"

namespace hs::net {

namespace {

using trace::json::Value;

/// Doubles are printed with enough digits to round-trip small latencies;
/// the strict parser re-reads them as plain JSON numbers.
void append_number(std::string& out, double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  out += buf;
}

void append_kv(std::string& out, const char* key, std::string_view value) {
  out += '"';
  out += key;
  out += "\":\"";
  out += json_escape(value);
  out += '"';
}

std::string hex_hash(std::uint64_t hash) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%llx",
                static_cast<unsigned long long>(hash));
  return buf;
}

}  // namespace

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string hello_frame(std::size_t max_frame_bytes) {
  std::string out = "{\"type\":\"hello\",";
  append_kv(out, "proto", kProtocolName);
  out += ",\"max_frame_bytes\":" + std::to_string(max_frame_bytes) + "}\n";
  return out;
}

std::string result_frame(const serve::JobResult& result, bool has_client_id,
                         std::uint64_t client_id) {
  std::string out = "{\"type\":\"result\",\"job\":" + std::to_string(result.id);
  if (has_client_id) out += ",\"id\":" + std::to_string(client_id);
  out += ',';
  append_kv(out, "name", result.name);
  out += ',';
  append_kv(out, "kind", to_string(result.kind));
  out += ',';
  append_kv(out, "state", to_string(result.state));
  out += ',';
  append_kv(out, "detail", result.detail);
  out += ",\"attempts\":" + std::to_string(result.attempts);
  out += ",\"cached\":";
  out += result.cached ? "true" : "false";
  out += ",\"queue_ms\":";
  append_number(out, result.queue_seconds * 1e3);
  out += ",\"run_ms\":";
  append_number(out, result.run_seconds * 1e3);
  out += ",\"exec_ms\":";
  append_number(out, result.exec_seconds * 1e3);
  out += ",\"modeled_ms\":";
  append_number(out, result.modeled_seconds * 1e3);
  out += ",\"chunks\":" + std::to_string(result.chunk_count);
  out += ',';
  append_kv(out, "output_hash", hex_hash(result.output_hash));
  out += "}\n";
  return out;
}

std::string reject_frame(std::uint64_t job_id, bool has_client_id,
                         std::uint64_t client_id, std::string_view name,
                         std::string_view reason, double retry_after_ms) {
  std::string out =
      "{\"type\":\"reject\",\"code\":429,\"job\":" + std::to_string(job_id);
  if (has_client_id) out += ",\"id\":" + std::to_string(client_id);
  out += ',';
  append_kv(out, "name", name);
  out += ',';
  append_kv(out, "state", "rejected");
  out += ',';
  append_kv(out, "error", reason);
  out += ",\"retry_after_ms\":";
  append_number(out, retry_after_ms);
  out += "}\n";
  return out;
}

std::string error_frame(std::string_view message, bool fatal) {
  std::string out = "{\"type\":\"error\",";
  append_kv(out, "error", message);
  out += ",\"fatal\":";
  out += fatal ? "true" : "false";
  out += "}\n";
  return out;
}

std::string progress_frame(std::uint64_t job_id, bool has_client_id,
                           std::uint64_t client_id, std::uint64_t chunks) {
  std::string out =
      "{\"type\":\"progress\",\"job\":" + std::to_string(job_id);
  if (has_client_id) out += ",\"id\":" + std::to_string(client_id);
  out += ",\"chunks\":" + std::to_string(chunks) + "}\n";
  return out;
}

std::optional<Response> parse_response_frame(std::string_view line,
                                             std::string* error) {
  std::string parse_error;
  const auto doc = trace::json::parse(line, &parse_error);
  if (!doc) {
    if (error) *error = "invalid JSON: " + parse_error;
    return std::nullopt;
  }
  if (!doc->is(Value::Kind::Object)) {
    if (error) *error = "response must be a JSON object";
    return std::nullopt;
  }
  Response r;
  for (const auto& [key, value] : doc->object) {
    if (key == "type" && value.is(Value::Kind::String)) {
      r.type = value.string;
    } else if (key == "job" && value.is(Value::Kind::Number)) {
      r.job = static_cast<std::uint64_t>(value.number);
    } else if (key == "id" && value.is(Value::Kind::Number)) {
      r.client_id = static_cast<std::uint64_t>(value.number);
      r.has_client_id = true;
    } else if (key == "state" && value.is(Value::Kind::String)) {
      r.state = value.string;
    } else if (key == "name" && value.is(Value::Kind::String)) {
      r.name = value.string;
    } else if (key == "detail" && value.is(Value::Kind::String)) {
      r.detail = value.string;
    } else if (key == "error" && value.is(Value::Kind::String)) {
      r.error = value.string;
    } else if (key == "output_hash" && value.is(Value::Kind::String)) {
      r.output_hash = value.string;
    } else if (key == "code" && value.is(Value::Kind::Number)) {
      r.code = static_cast<int>(value.number);
    } else if (key == "retry_after_ms" && value.is(Value::Kind::Number)) {
      r.retry_after_ms = value.number;
    } else if (key == "attempts" && value.is(Value::Kind::Number)) {
      r.attempts = static_cast<int>(value.number);
    } else if (key == "cached" && value.is(Value::Kind::Bool)) {
      r.cached = value.boolean;
    } else if (key == "fatal" && value.is(Value::Kind::Bool)) {
      r.fatal = value.boolean;
    } else if (key == "queue_ms" && value.is(Value::Kind::Number)) {
      r.queue_ms = value.number;
    } else if (key == "run_ms" && value.is(Value::Kind::Number)) {
      r.run_ms = value.number;
    } else if (key == "exec_ms" && value.is(Value::Kind::Number)) {
      r.exec_ms = value.number;
    } else if (key == "modeled_ms" && value.is(Value::Kind::Number)) {
      r.modeled_ms = value.number;
    } else if (key == "chunks" && value.is(Value::Kind::Number)) {
      r.chunks = static_cast<std::uint64_t>(value.number);
    }
    // Unknown keys are skipped: the response schema may grow and older
    // clients keep working.
  }
  if (r.type.empty()) {
    if (error) *error = "response frame has no 'type'";
    return std::nullopt;
  }
  return r;
}

std::optional<int> parse_port(std::string_view text) {
  if (text.empty() || text.size() > 5) return std::nullopt;
  int value = 0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc() || ptr != text.data() + text.size()) {
    return std::nullopt;
  }
  if (value < 0 || value > 65535) return std::nullopt;
  return value;
}

std::optional<std::uint64_t> parse_output_hash(std::string_view text) {
  if (text.empty() || text.size() > 16) return std::nullopt;
  std::uint64_t value = 0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value, 16);
  if (ec != std::errc() || ptr != text.data() + text.size()) {
    return std::nullopt;
  }
  return value;
}

}  // namespace hs::net
