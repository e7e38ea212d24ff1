#include "serve/timeline.hpp"

#include <cmath>
#include <cstdio>
#include <ostream>
#include <sstream>

#include "util/fileio.hpp"

namespace hs::serve {

namespace {

std::string timeline_json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string ms(double seconds) {
  if (!std::isfinite(seconds)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.3f", seconds * 1e3);
  return buf;
}

}  // namespace

void write_timeline_json(std::ostream& os, const JobResult& r) {
  char hash[32];
  std::snprintf(hash, sizeof hash, "%016llx",
                static_cast<unsigned long long>(r.output_hash));
  os << "{\n  \"schema\": \"hs.timeline.v1\",\n  \"id\": " << r.id
     << ",\n  \"name\": \"" << timeline_json_escape(r.name)
     << "\",\n  \"kind\": \"" << to_string(r.kind)
     << "\",\n  \"priority\": \"" << to_string(r.priority)
     << "\",\n  \"state\": \"" << to_string(r.state)
     << "\",\n  \"detail\": \"" << timeline_json_escape(r.detail)
     << "\",\n  \"attempts\": " << r.attempts
     << ",\n  \"cached\": " << (r.cached ? "true" : "false")
     << ",\n  \"queue_ms\": " << ms(r.queue_seconds)
     << ",\n  \"exec_ms\": " << ms(r.exec_seconds)
     << ",\n  \"run_ms\": " << ms(r.run_seconds)
     << ",\n  \"total_ms\": " << ms(r.queue_seconds + r.run_seconds)
     << ",\n  \"output_hash\": \"" << hash << "\",\n  \"events\": [\n";
  for (std::size_t i = 0; i < r.timeline.size(); ++i) {
    const TimelineEvent& ev = r.timeline[i];
    os << "    {\"t_ms\": " << ms(ev.t_seconds) << ", \"what\": \""
       << timeline_json_escape(ev.what) << "\", \"detail\": \""
       << timeline_json_escape(ev.detail) << "\"}"
       << (i + 1 < r.timeline.size() ? ",\n" : "\n");
  }
  os << "  ]\n}\n";
}

bool write_timeline_json_file(const std::string& path, const JobResult& r) {
  std::ostringstream os;
  write_timeline_json(os, r);
  return util::write_file_atomic(path, os.str());
}

std::string timeline_filename(const JobResult& r) {
  return "timeline_job" + std::to_string(r.id) + ".json";
}

}  // namespace hs::serve
