#include "serve/client.h"

#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace retina::serve {

namespace {

Result<int> ConnectUnix(const std::string& path) {
  struct sockaddr_un addr;
  if (path.size() >= sizeof(addr.sun_path)) {
    return Status::InvalidArgument("socket path too long: " + path);
  }
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IOError(std::string("socket failed: ") +
                           std::strerror(errno));
  }
  std::memset(&addr, 0, sizeof(addr));
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size());
  if (::connect(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) <
      0) {
    const Status st = Status::IOError("connect " + path +
                                      " failed: " + std::strerror(errno));
    ::close(fd);
    return st;
  }
  return fd;
}

Result<int> ConnectTcp(const Endpoint& endpoint) {
  struct addrinfo hints;
  std::memset(&hints, 0, sizeof(hints));
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  struct addrinfo* res = nullptr;
  const int gai = ::getaddrinfo(endpoint.host.c_str(), endpoint.port.c_str(),
                                &hints, &res);
  if (gai != 0) {
    return Status::InvalidArgument("cannot resolve " + endpoint.Describe() +
                                   ": " + ::gai_strerror(gai));
  }
  Status st = Status::IOError("no usable address for " + endpoint.Describe());
  int fd = -1;
  for (struct addrinfo* ai = res; ai != nullptr; ai = ai->ai_next) {
    fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) continue;
    if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0) {
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      st = Status::OK();
      break;
    }
    st = Status::IOError("connect " + endpoint.Describe() +
                         " failed: " + std::strerror(errno));
    ::close(fd);
    fd = -1;
  }
  ::freeaddrinfo(res);
  if (!st.ok()) return st;
  return fd;
}

}  // namespace

std::string Endpoint::Describe() const {
  return tcp ? "tcp:" + host + ":" + port : "unix:" + path;
}

Result<Endpoint> ParseEndpoint(std::string_view uri) {
  Endpoint ep;
  if (uri.rfind("tcp:", 0) == 0) {
    const std::string_view rest = uri.substr(4);
    const size_t colon = rest.rfind(':');
    if (colon == std::string_view::npos || colon + 1 == rest.size()) {
      return Status::InvalidArgument("address '" + std::string(uri) +
                                     "' wants tcp:HOST:PORT");
    }
    ep.tcp = true;
    ep.host = rest.substr(0, colon);
    ep.port = rest.substr(colon + 1);
    if (ep.host.empty()) ep.host = "127.0.0.1";
    return ep;
  }
  ep.path = uri.rfind("unix:", 0) == 0 ? uri.substr(5) : uri;
  if (ep.path.empty()) {
    return Status::InvalidArgument("address '" + std::string(uri) +
                                   "' names no socket path");
  }
  return ep;
}

Result<int> Connect(const Endpoint& endpoint) {
  return endpoint.tcp ? ConnectTcp(endpoint) : ConnectUnix(endpoint.path);
}

Result<MetricsResponse> QueryMetrics(int fd, uint64_t request_id) {
  MetricsRequest req;
  req.request_id = request_id;
  RETINA_RETURN_NOT_OK(WriteFrame(fd, EncodeMetricsRequest(req)));
  std::string payload;
  bool eof = false;
  RETINA_RETURN_NOT_OK(ReadFrame(fd, &payload, &eof));
  if (eof) return Status::IOError("server closed before the metrics reply");
  MetricsResponse resp;
  RETINA_RETURN_NOT_OK(DecodeMetricsResponse(payload, &resp));
  return resp;
}

Result<MetricsResponse> QueryMetrics(const Endpoint& endpoint,
                                     uint64_t request_id) {
  const Result<int> fd = Connect(endpoint);
  RETINA_RETURN_NOT_OK(fd.status());
  Result<MetricsResponse> resp = QueryMetrics(fd.ValueOrDie(), request_id);
  ::close(fd.ValueOrDie());
  return resp;
}

}  // namespace retina::serve
