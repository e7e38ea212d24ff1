// A stand-in shard worker for the router's witness-parsing tests.
//
// Accepts the argv a shard::Router gives its workers, binds an ephemeral
// loopback port, publishes it through --port-file, serves one connection,
// and answers every request frame with a Done result frame whose
// "output_hash" is the literal --hash value (which may be malformed on
// purpose). Every other flag is ignored. Exits on EOF or SIGTERM.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdio>
#include <string>
#include <string_view>

#include "net/frame.hpp"
#include "net/protocol.hpp"
#include "serve/request.hpp"
#include "util/fileio.hpp"

namespace {

using namespace hs;

bool send_all(int fd, std::string_view data) {
  while (!data.empty()) {
    const ssize_t n = ::send(fd, data.data(), data.size(), MSG_NOSIGNAL);
    if (n <= 0) return false;
    data.remove_prefix(static_cast<std::size_t>(n));
  }
  return true;
}

/// A Done result frame for `req` carrying `hash` verbatim as its witness.
std::string result_with_hash(const serve::ParsedRequest& req,
                             std::uint64_t job, const std::string& hash) {
  serve::JobResult r;
  r.id = job;
  r.name = req.spec.name;
  r.kind = req.spec.kind;
  r.state = serve::JobState::Done;
  r.attempts = 1;
  std::string frame = net::result_frame(r, req.has_client_id, req.client_id);
  const std::string key = "\"output_hash\":\"";
  const std::size_t at = frame.rfind(key);
  const std::size_t end = frame.find('"', at + key.size());
  frame.replace(at + key.size(), end - at - key.size(), hash);
  return frame;
}

}  // namespace

int main(int argc, char** argv) {
  std::string port_file, hash = "0";
  for (int i = 1; i + 1 < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--port-file") port_file = argv[++i];
    else if (arg == "--hash") hash = argv[++i];
  }
  if (port_file.empty()) {
    std::fprintf(stderr, "fake_shard: --port-file is required\n");
    return 1;
  }
  const int lfd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t len = sizeof(addr);
  if (lfd < 0 ||
      ::bind(lfd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(lfd, 1) != 0 ||
      ::getsockname(lfd, reinterpret_cast<sockaddr*>(&addr), &len) != 0 ||
      !util::write_file_atomic(port_file,
                               std::to_string(ntohs(addr.sin_port)) + "\n")) {
    std::perror("fake_shard: listen");
    return 1;
  }
  const int fd = ::accept(lfd, nullptr, nullptr);
  if (fd < 0) return 1;
  if (!send_all(fd, net::hello_frame(1 << 20))) return 1;
  net::FrameReader reader(1 << 20);
  std::uint64_t next_job = 1;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    reader.feed(buf, static_cast<std::size_t>(n));
    while (auto ev = reader.next()) {
      if (ev->kind != net::FrameEvent::Kind::Frame) continue;
      const auto req = serve::parse_request_frame(ev->text);
      if (!req) continue;
      if (!send_all(fd, result_with_hash(*req, next_job++, hash))) return 1;
    }
  }
  ::close(fd);
  ::close(lfd);
  return 0;
}
