// NetServer: the TCP front end of the marketplace. Wraps a
// MarketplaceServer and serves its newline-delimited wire protocol
// (service/protocol.h) to N concurrent connections from one poll()-based
// event loop thread:
//
//   MarketplaceServer server(options);
//   NetServer net(&server, {.host = "127.0.0.1", .port = 0});
//   ASSERT_TRUE(net.Start().ok());          // port() is now bound
//   ... clients connect with NetClient ...
//   net.Wait();                              // returns after a wire
//   server.Shutdown();                       //   `shutdown` op drains
//
// Guarantees, per connection:
//   - Responses return in request order (an OrderedLineWriter reorders
//     completions arriving from different tenancy shards), exactly the
//     stdin serve loop's contract — both transports share one
//     RequestDispatcher path, so their bytes cannot diverge.
//   - Framing survives hostile input: connections frame under the
//     server's line_caps().framing_bytes() (so a legal v3 batch frame is
//     never truncated mid-stream); anything longer answers a typed
//     ResourceExhausted and the rest of the oversize line is discarded
//     in-stream (common/net.h LineBuffer). Non-batch lines over the plain
//     cap answer the same bytes from protocol::AdmitRequestLine.
//   - Backpressure is bounded and local: a reader that stops draining
//     queues at most max_write_buffer_bytes of responses, then gets a
//     final ResourceExhausted line and a lingering close (FIN after the
//     verdict, its further input discarded until it closes, so no RST
//     destroys the verdict) — it never blocks the event loop or other
//     connections (the loop only ever does non-blocking writes).
//   - Disconnects are connection-scoped: requests already dispatched keep
//     executing on their shards (tenancy state stays consistent), and
//     their responses are dropped when they resolve.
//
// A wire `shutdown` request drains: the listener closes, every connection
// stops reading, queued responses flush (a connection still unflushed
// after the drain grace gets a lingering close), then the loop exits and
// Wait() returns — the caller runs MarketplaceServer::Shutdown() for the
// checkpoint path. Destroying a NetServer without a shutdown op models a
// crash (sockets drop mid-stream; a FileStateStore-backed server recovers
// from its journal).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "common/net.h"
#include "service/dispatch.h"
#include "service/marketplace_server.h"

namespace optshare::service {

struct NetServerOptions {
  /// Interface to bind ("" = all interfaces).
  std::string host = "127.0.0.1";
  /// 0 = kernel-assigned ephemeral port; read it back with port().
  uint16_t port = 0;
  /// Connections accepted beyond this answer a ResourceExhausted line
  /// (best-effort) and close immediately.
  int max_connections = 256;
  /// Per-connection response backlog cap: once a slow reader's unflushed
  /// bytes exceed this, the connection gets a final ResourceExhausted
  /// line and closes.
  size_t max_write_buffer_bytes = 8u << 20;
  /// Kernel send-buffer size for accepted sockets (0 = OS default). Tests
  /// shrink it to trip the write-buffer cap deterministically.
  int sndbuf_bytes = 0;
  /// Per-connection request-rate cap (lines/sec, token bucket with a
  /// one-second burst). 0 = off. A breaching line answers a typed
  /// ResourceExhausted with a retry_after_ms hint instead of being
  /// dispatched — transport-level admission, complementing the per-tenancy
  /// quotas in ServerOptions::admission.
  double max_connection_requests_per_sec = 0.0;
};

/// Live transport counters, also served through the wire `server_info` op
/// as the "transport" payload while the NetServer runs.
struct NetServerStats {
  uint64_t connections_accepted = 0;
  uint64_t connections_open = 0;
  uint64_t connections_refused = 0;  ///< Over max_connections.
  uint64_t connections_dropped_backpressure = 0;
  uint64_t requests = 0;            ///< Complete lines handed to dispatch.
  uint64_t responses = 0;           ///< Response lines queued for writing.
  uint64_t oversize_lines = 0;      ///< Lines rejected by the byte cap.
  uint64_t rate_limited_lines = 0;  ///< Lines rejected by the per-connection
                                    ///< request-rate cap.
  uint64_t bytes_read = 0;
  uint64_t bytes_written = 0;
};

JsonValue ToJson(const NetServerStats& stats);

class NetServer {
 public:
  /// `server` must outlive the NetServer (and its Stop()/Wait()).
  explicit NetServer(MarketplaceServer* server, NetServerOptions options = {});
  /// Stops the event loop (abrupt close, no checkpoint) if still running.
  ~NetServer();

  NetServer(const NetServer&) = delete;
  NetServer& operator=(const NetServer&) = delete;

  /// Binds, listens, registers the transport counters with the wrapped
  /// server's server_info, and starts the event loop thread. After an OK
  /// return, port() is the bound port and clients may connect.
  Status Start();

  /// The bound port (valid after Start); 0 before.
  uint16_t port() const { return port_; }
  const std::string& host() const { return options_.host; }

  /// Blocks until the event loop exits — i.e. until a wire `shutdown`
  /// request drains all connections, or Stop() is called.
  void Wait();

  /// Abrupt stop: closes the listener and every connection without
  /// draining queued responses, then joins the loop. In-flight requests
  /// still complete on their shards; their responses are dropped.
  /// Idempotent.
  void Stop();

  /// Snapshot of the live counters.
  NetServerStats stats() const;

 private:
  struct Shared;      // State shared with dispatch callbacks (see .cc).
  struct Connection;  // Per-connection state owned by the event loop.

  void Loop();

  MarketplaceServer* server_;
  NetServerOptions options_;
  RequestDispatcher dispatcher_;
  net::Socket listener_;
  uint16_t port_ = 0;
  std::shared_ptr<Shared> shared_;  ///< Outlives the loop: callbacks hold it.
  std::thread loop_;
  std::mutex join_mu_;  ///< Serializes Wait()/Stop() joining the loop.
  std::atomic<bool> started_{false};
  std::atomic<bool> stopped_{false};
};

}  // namespace optshare::service
