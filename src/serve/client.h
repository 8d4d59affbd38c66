// Client side of the retina::serve wire protocol: the one place that
// parses a daemon address, connects to it, and runs a kMetrics round
// trip. load_driver, retina_top and the serve tests all go through it.
//
// Address grammar (the --connect flag of every client tool):
//
//   unix:PATH        Unix-domain socket at PATH
//   tcp:HOST:PORT    TCP; an empty HOST means 127.0.0.1 ("tcp::7000")
//   PATH             a bare path is treated as unix:PATH

#ifndef RETINA_SERVE_CLIENT_H_
#define RETINA_SERVE_CLIENT_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/status.h"
#include "serve/protocol.h"

namespace retina::serve {

/// Where a client connects: a Unix-domain socket or a TCP host:port.
struct Endpoint {
  bool tcp = false;
  std::string path;  ///< unix socket path (tcp == false)
  std::string host;  ///< tcp host (tcp == true)
  std::string port;  ///< tcp port (tcp == true)

  /// The canonical URI form: "unix:PATH" or "tcp:HOST:PORT".
  std::string Describe() const;
};

/// Parses the address grammar above. Empty input, an empty path, or a
/// tcp: address without a port is InvalidArgument.
Result<Endpoint> ParseEndpoint(std::string_view uri);

/// Opens a connected stream socket to `endpoint` (TCP sockets get
/// TCP_NODELAY: frames are whole messages). The caller owns the fd.
Result<int> Connect(const Endpoint& endpoint);

/// One kMetrics round trip on an open connection.
Result<MetricsResponse> QueryMetrics(int fd, uint64_t request_id = 1);

/// One kMetrics round trip on a fresh connection to `endpoint`, closed
/// afterwards — a per-query connection can never wedge a daemon reader.
Result<MetricsResponse> QueryMetrics(const Endpoint& endpoint,
                                     uint64_t request_id = 1);

}  // namespace retina::serve

#endif  // RETINA_SERVE_CLIENT_H_
