// The one request-dispatch path every transport shares. The stdin serve
// loop (tools/optshare_cli.cc) and the TCP NetServer (service/net_server.h)
// both hand raw request lines to a RequestDispatcher and release response
// lines through an OrderedLineWriter — so the request-line cap, the
// parse-error version echo, the oversize wording, and the shutdown
// detection are one implementation, and a recorded stream replayed over
// either transport produces byte-identical response lines
// (tests/service_net_test.cc pins this).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <string_view>

#include "service/marketplace_server.h"

namespace optshare::service {

/// Parses raw wire lines against a MarketplaceServer's cap and dispatches
/// them onto its worker pool. Stateless apart from the server reference;
/// one instance can serve many connections.
class RequestDispatcher {
 public:
  explicit RequestDispatcher(MarketplaceServer* server) : server_(server) {}

  /// Parses and dispatches one request line. `done(response_line)` fires
  /// exactly once with the serialized response (no trailing newline):
  /// inline, on the caller's thread, for lines that never reach a worker
  /// (parse errors, over-cap lines); on the tenancy's worker otherwise.
  /// The view is only valid for the duration of the call — it points into
  /// a per-thread scratch buffer that is reused for the next response on
  /// that worker, so `done` must write or copy the bytes before returning.
  /// Returns true when the line was an accepted `shutdown` request — the
  /// transport should stop reading once it has queued this response.
  /// `done` may outlive the transport; capture shared state by shared_ptr.
  bool Submit(const std::string& line,
              std::function<void(std::string_view)> done);

  /// The response line for a request the transport's own bounded reader
  /// already discarded as over the framing cap (it never saw the full
  /// line, so it cannot call Submit). Identical bytes to what Submit
  /// answers for an over-cap line it measures itself.
  std::string OversizedLineResponse() const;

  MarketplaceServer* server() const { return server_; }

 private:
  MarketplaceServer* server_;
};

/// Releases response lines to `sink` in Reserve() order, regardless of the
/// order completions arrive in across worker shards. Thread-safe; `sink`
/// runs under the internal mutex, so it is serialized and must not call
/// back into the writer.
class OrderedLineWriter {
 public:
  explicit OrderedLineWriter(std::function<void(std::string_view)> sink)
      : sink_(std::move(sink)) {}

  /// Claims the next slot in output order. Call in request-arrival order.
  uint64_t Reserve();

  /// Delivers slot `slot`'s response; flushes the contiguous ready prefix.
  /// An in-order arrival (the common case: per-tenancy FIFO sharding keeps
  /// one connection's responses mostly ordered already) passes `line`
  /// straight through to `sink` without copying; only out-of-order
  /// completions are buffered. The view need only stay valid for the
  /// duration of the call, and `sink`'s views likewise die at return.
  void Complete(uint64_t slot, std::string_view line);

  /// True when every reserved slot has been completed and flushed.
  bool Idle() const;

 private:
  mutable std::mutex mu_;
  std::function<void(std::string_view)> sink_;
  uint64_t next_reserve_ = 0;  ///< Guarded by mu_.
  uint64_t next_flush_ = 0;    ///< Guarded by mu_.
  std::map<uint64_t, std::string> ready_;  ///< Completed, awaiting order.
};

}  // namespace optshare::service
