// ClusterRouter: the cluster's front door. Speaks the ordinary wire
// protocol (v3 included) to clients — a client cannot tell a router from a
// single node — and forwards each request to the node that owns its
// tenancy under the shared PlacementMap:
//
//   tenancy ops      → OwnerOf(tenancy), with failover (below)
//   report-style     → retried transparently on a dead node
//   batch            → split into one sub-batch per owning node, forwarded,
//                      reassembled into one ordered response batch
//   list_mechanisms  → any live node
//   restore          → broadcast (summed) or owner-targeted when it names
//                      a tenancy
//   server_info      → answered by the router itself (role, placement,
//                      routing counters)
//   cluster_update   → installed if newer, then pushed to every live node
//   shutdown         → broadcast to the nodes, then the router drains
//
// Failover: when a forward fails at the transport level, the router marks
// the node dead (version bump), pushes the new placement to the surviving
// nodes, and re-resolves the owner — which, by the PlacementMap invariant,
// is the node already holding the tenancy's warm replica. The router
// issues a targeted `restore` there (single-node recovery from the
// replica's snapshot + journal) and then transparently retries reads.
// Mutations are NOT silently retried — the dead node may or may not have
// executed the request — so the client gets a typed Unavailable error
// carrying the post-failover placement version, and resends only requests
// that are safe to re-apply (idempotent at request boundaries); the resend
// routes to the recovered owner. Unavailable is the retryable signal:
// every other error code means "resending won't help".
//
// When even that live retry is impossible for a `report` — no live node
// owns the tenancy, or the restore/retry itself fails — the router
// degrades instead of failing: it sweeps the nodes (marked-dead ones too;
// "dead" is one connection's suspicion, and a cheap read is the right
// probe for a suspect) for persisted tenancy state, and serves the last
// replicated period boundary as a report marked `"stale": true`. Only
// when a reachable node positively answers "no persisted state" does the
// client get NotFound — a dead node with a replicated snapshot and a
// genuinely unknown tenancy are different failures and answer differently.
//
// The router also re-homes lazily: it remembers which node last served
// each tenancy, and when the placement's answer changes (failover seen by
// another connection, rebalance), it issues the targeted restore before
// forwarding.
//
// Rebalance(tenancy, target) is the elasticity primitive: evict the
// tenancy from its owner (period boundaries only), export its snapshot +
// journal tail, replay them into the target's store over the repl_* ops,
// restore it there, then pin it with a placement override and push the new
// map — the hand-off IS the replication path, exercised on demand.
//
// Concurrency: each transport connection gets its own Channel (private
// NetClient per node), so connections forward in parallel with no shared
// connection locks; the placement map and owner cache sit under one brief
// mutex that is never held across a network call.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "cluster/placement.h"
#include "common/net.h"
#include "service/net_client.h"
#include "service/protocol.h"

namespace optshare::cluster {

struct RouterOptions {
  PlacementMap placement;
  /// Node-connect policy. The default fails a dead-but-routable node in
  /// 500ms instead of the OS connect timeout.
  service::NetClient::ConnectOptions connect{/*timeout_ms=*/500,
                                            /*retries=*/0,
                                            /*backoff_ms=*/50};
  /// Request-line caps, as in ServerOptions (see protocol::LineCaps).
  size_t max_request_bytes = service::protocol::kDefaultMaxRequestBytes;
  size_t max_batch_request_bytes =
      service::protocol::kDefaultMaxBatchRequestBytes;
};

class ClusterRouter {
 public:
  explicit ClusterRouter(RouterOptions options);

  ClusterRouter(const ClusterRouter&) = delete;
  ClusterRouter& operator=(const ClusterRouter&) = delete;

  /// One transport connection's private state: its own connections to the
  /// nodes, so concurrent client connections never share a socket.
  struct Channel {
    std::map<std::string, service::NetClient> clients;  ///< node id → conn.
  };

  /// The router's HandleLine: admit one request line
  /// (protocol::AdmitRequestLine), route it, return the serialized
  /// response line. A rejected line answers locally, byte-identical to a
  /// node's answer.
  std::string RouteLine(const std::string& line, Channel* channel);

  /// Typed form of RouteLine (the in-process test surface).
  service::protocol::Response Route(
      const service::protocol::Request& request, Channel* channel);

  /// Moves `tenancy` to node `target_id`: evict from the current owner
  /// (FailedPrecondition while its period is open), hand off snapshot +
  /// journal tail over the repl_* ops, restore on the target, pin with a
  /// placement override and push the new map. Serialized internally.
  Status Rebalance(const std::string& tenancy, const std::string& target_id,
                   Channel* channel);

  PlacementMap CurrentPlacement() const;
  /// The router's own server_info payload.
  JsonValue InfoJson() const;
  bool shutdown_requested() const { return shutdown_requested_.load(); }
  const service::protocol::LineCaps& line_caps() const { return line_caps_; }

 private:
  using Request = service::protocol::Request;
  using Response = service::protocol::Response;

  /// One typed round trip to `node` over the channel's cached connection,
  /// reconnecting once on a stale socket. A failed Result is a transport
  /// failure (protocol errors ride inside the Response).
  Result<Response> ChannelCall(Channel* channel, const NodeInfo& node,
                               const Request& request);

  Response RouteTenancyOp(const Request& request, Channel* channel);
  /// v3 batch frame: split members by owning node (preserving order),
  /// forward one sub-batch per node, reassemble the ordered response
  /// array. A member whose tenancy has no live owner, or whose re-home
  /// restore fails, routes alone and answers what a single send answers.
  /// A sub-batch transport failure marks its node dead and answers those
  /// members Unavailable — batches may carry mutations, so the router never
  /// silently re-forwards one.
  Response RouteBatch(const Request& request, Channel* channel);
  Response RouteRestore(const Request& request, Channel* channel);
  Response RouteAnyNode(const Request& request, Channel* channel);
  Response RouteShutdown(const Request& request, Channel* channel);
  Response RouteClusterUpdate(const Request& request, Channel* channel);

  /// Marks `node_id` dead (if not already), pushes the bumped placement to
  /// the surviving nodes. Returns true if this call did the marking.
  bool HandleNodeFailure(const std::string& node_id, Channel* channel);
  /// Best-effort cluster_update of `placement` to every live node.
  void PushPlacement(const PlacementMap& placement, Channel* channel);
  /// Targeted restore of `tenancy` on `node` (the failover/re-home step).
  Status RestoreOn(const NodeInfo& node, const std::string& tenancy,
                   Channel* channel);
  /// The degraded tail of a failed report retry: sweep every node (live
  /// first, then marked-dead) for persisted tenancy state and serve the
  /// replicated period boundary with `"stale": true`; NotFound when a
  /// reachable node confirms the tenancy has no state; `live_failure`
  /// verbatim when nothing answered at all.
  Response StaleReportFallback(const Request& request, Channel* channel,
                               const Status& live_failure);

  RouterOptions options_;
  const service::protocol::LineCaps line_caps_;

  mutable std::mutex mu_;  ///< Guards placement_ + tenancy_owner_. Never
                           ///< held across a network call.
  PlacementMap placement_;
  std::map<std::string, std::string> tenancy_owner_;  ///< Last-served node.

  std::mutex rebalance_mu_;  ///< One rebalance at a time.
  std::atomic<bool> shutdown_requested_{false};

  std::atomic<uint64_t> requests_routed_{0};
  std::atomic<uint64_t> forward_failures_{0};
  std::atomic<uint64_t> failovers_{0};
  std::atomic<uint64_t> restores_issued_{0};
  std::atomic<uint64_t> placement_pushes_{0};
  std::atomic<uint64_t> rebalances_{0};
  std::atomic<uint64_t> stale_reads_{0};  ///< Reports served degraded.
};

/// RouterServer: the TCP front end of a ClusterRouter. Thread-per-
/// connection with blocking I/O — the router's work is forwarding round
/// trips, so a poll loop would serialize them; threads keep each client's
/// pipeline independent, and each thread owns its Channel.
class RouterServer {
 public:
  /// `router` must outlive the RouterServer.
  RouterServer(ClusterRouter* router, std::string host = "127.0.0.1",
               uint16_t port = 0);
  ~RouterServer();

  RouterServer(const RouterServer&) = delete;
  RouterServer& operator=(const RouterServer&) = delete;

  /// Binds + listens + starts the accept loop. port() is bound after.
  Status Start();
  /// Blocks until a wire shutdown drains the router (or Stop).
  void Wait();
  /// Abrupt stop: closes the listener and joins connection threads.
  void Stop();

  uint16_t port() const { return port_; }

 private:
  void AcceptLoop();
  void Serve(net::Socket socket);

  ClusterRouter* router_;
  std::string host_;
  uint16_t requested_port_ = 0;
  uint16_t port_ = 0;
  net::Socket listener_;
  std::thread accept_thread_;
  std::mutex threads_mu_;
  std::vector<std::thread> connection_threads_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> started_{false};
};

}  // namespace optshare::cluster
