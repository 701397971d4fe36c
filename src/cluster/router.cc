#include "cluster/router.h"

#include <fcntl.h>
#include <poll.h>

#include <utility>

#include "service/state_store.h"

namespace optshare::cluster {

using service::NetClient;
using service::protocol::AdmitRequestLine;
using service::protocol::ErrorResponse;
using service::protocol::FormatResponseLine;
using service::protocol::OkResponse;
using service::protocol::Request;
using service::protocol::RequestOp;
using service::protocol::Response;

ClusterRouter::ClusterRouter(RouterOptions options)
    : options_(std::move(options)),
      line_caps_{options_.max_request_bytes,
                 options_.max_batch_request_bytes},
      placement_(options_.placement) {}

PlacementMap ClusterRouter::CurrentPlacement() const {
  std::lock_guard<std::mutex> lock(mu_);
  return placement_;
}

Result<Response> ClusterRouter::ChannelCall(Channel* channel,
                                            const NodeInfo& node,
                                            const Request& request) {
  // Two tries: a cached connection may be stale (node restarted between
  // requests), so one transport failure reconnects before giving up.
  for (int attempt = 0; attempt < 2; ++attempt) {
    auto it = channel->clients.find(node.id);
    if (it == channel->clients.end()) {
      Result<NetClient> client =
          NetClient::Connect(node.host, node.port, options_.connect);
      if (!client.ok()) {
        if (attempt == 0) continue;
        return client.status();
      }
      it = channel->clients.emplace(node.id, std::move(*client)).first;
    }
    Result<Response> response = it->second.Call(request);
    if (response.ok()) return response;
    channel->clients.erase(it);
    if (attempt > 0) return response.status();
  }
  return Status::Internal("router: unreachable");
}

std::string ClusterRouter::RouteLine(const std::string& line,
                                     Channel* channel) {
  Request request;
  if (const std::optional<Response> rejected =
          AdmitRequestLine(line, line_caps_, &request)) {
    return FormatResponseLine(*rejected);
  }
  return FormatResponseLine(Route(request, channel));
}

Response ClusterRouter::Route(const Request& request, Channel* channel) {
  requests_routed_.fetch_add(1, std::memory_order_relaxed);
  Response response;
  switch (request.op) {
    case RequestOp::kServerInfo:
      response = OkResponse(request.id, InfoJson());
      break;
    case RequestOp::kListMechanisms:
      response = RouteAnyNode(request, channel);
      break;
    case RequestOp::kShutdown:
      response = RouteShutdown(request, channel);
      break;
    case RequestOp::kClusterUpdate:
      response = RouteClusterUpdate(request, channel);
      break;
    case RequestOp::kRestore:
      response = RouteRestore(request, channel);
      break;
    case RequestOp::kBatch:
      response = RouteBatch(request, channel);
      break;
    default:
      response = RouteTenancyOp(request, channel);
      break;
  }
  response.version = request.version;
  return response;
}

Status ClusterRouter::RestoreOn(const NodeInfo& node,
                                const std::string& tenancy,
                                Channel* channel) {
  restores_issued_.fetch_add(1, std::memory_order_relaxed);
  Request restore;
  restore.op = RequestOp::kRestore;
  restore.version = 2;
  restore.tenancy = tenancy;
  Result<Response> response = ChannelCall(channel, node, restore);
  if (!response.ok()) return response.status();
  return response->status;
}

Response ClusterRouter::RouteTenancyOp(const Request& request,
                                       Channel* channel) {
  // The report op is the only one retried transparently after a failover:
  // it is a pure read, so re-executing it on the recovered owner cannot
  // double-apply anything. Mutations surface the failure — the dead node
  // may or may not have executed them — and the client resends.
  const bool idempotent_read = request.op == RequestOp::kReport;
  for (int attempt = 0; attempt < 2; ++attempt) {
    std::optional<NodeInfo> owner;
    std::string recorded;
    {
      std::lock_guard<std::mutex> lock(mu_);
      owner = placement_.OwnerOf(request.tenancy);
      auto it = tenancy_owner_.find(request.tenancy);
      if (it != tenancy_owner_.end()) recorded = it->second;
    }
    if (!owner.has_value()) {
      const Status no_owner = Status::Internal(
          "no live node owns tenancy \"" + request.tenancy + "\"");
      if (idempotent_read) {
        return StaleReportFallback(request, channel, no_owner);
      }
      return ErrorResponse(request.id, no_owner);
    }
    // Re-home before forwarding when the owner changed under us (a failover
    // seen by another connection, a rebalance) or when we are retrying past
    // a node we just marked dead: the new owner holds the tenancy's warm
    // replica, and a targeted restore activates it. Restoring a tenancy the
    // node already serves is a no-op (restore skips live tenancies).
    if ((!recorded.empty() && recorded != owner->id) || attempt > 0) {
      Status restored = RestoreOn(*owner, request.tenancy, channel);
      if (!restored.ok()) {
        if (idempotent_read) {
          // The restore target is in trouble too: take it out of the
          // placement and degrade to the replicated boundary state.
          HandleNodeFailure(owner->id, channel);
          return StaleReportFallback(
              request, channel,
              Status::Unavailable(
                  "failover restore on node " + owner->id +
                  " failed: " + restored.message() + " (placement v" +
                  std::to_string(CurrentPlacement().version()) +
                  "); resend to retry"));
        }
        // Typed retryable signal: Unavailable + the placement version the
        // resend will route under. Only idempotent requests should resend.
        return ErrorResponse(
            request.id,
            Status::Unavailable("failover restore on node " + owner->id +
                                " failed: " + restored.message() +
                                " (placement v" +
                                std::to_string(CurrentPlacement().version()) +
                                "); resend to retry"));
      }
    }
    Result<Response> response = ChannelCall(channel, *owner, request);
    if (response.ok()) {
      std::lock_guard<std::mutex> lock(mu_);
      tenancy_owner_[request.tenancy] = owner->id;
      return std::move(*response);
    }
    forward_failures_.fetch_add(1, std::memory_order_relaxed);
    HandleNodeFailure(owner->id, channel);
    if (idempotent_read && attempt == 0) continue;
    const Status failure = Status::Unavailable(
        "node " + owner->id + " failed mid-request (" +
        response.status().message() + "); placement updated to v" +
        std::to_string(CurrentPlacement().version()) +
        " — resend to retry");
    if (idempotent_read) {
      return StaleReportFallback(request, channel, failure);
    }
    return ErrorResponse(request.id, failure);
  }
  return ErrorResponse(request.id, Status::Internal("router: unreachable"));
}

Response ClusterRouter::RouteBatch(const Request& request, Channel* channel) {
  const size_t n = request.requests.size();
  std::vector<JsonValue> docs(n);  // Response doc per member, in order.
  auto member_error = [&](size_t index, const Status& status) {
    Response error = ErrorResponse(request.requests[index].id, status);
    error.version = request.requests[index].version;
    docs[index] = service::protocol::ToJson(error);
  };

  // Split by owning node, preserving member order within each node's
  // sub-batch. Non-tenancy members route individually through the
  // ordinary paths — they are placement-independent, so there is nothing
  // to split.
  struct Group {
    NodeInfo node;
    std::vector<size_t> indices;
  };
  std::vector<Group> groups;
  std::map<std::string, size_t> group_of_node;
  std::map<std::string, Status> rehomed;  ///< Per-tenancy restore outcome.
  for (size_t i = 0; i < n; ++i) {
    const Request& member = request.requests[i];
    switch (member.op) {
      case RequestOp::kServerInfo:
      case RequestOp::kListMechanisms:
      case RequestOp::kRestore:
      case RequestOp::kClusterUpdate:
        docs[i] = service::protocol::ToJson(Route(member, channel));
        continue;
      default:
        break;
    }
    std::optional<NodeInfo> owner;
    std::string recorded;
    {
      std::lock_guard<std::mutex> lock(mu_);
      owner = placement_.OwnerOf(member.tenancy);
      auto it = tenancy_owner_.find(member.tenancy);
      if (it != tenancy_owner_.end()) recorded = it->second;
    }
    // Same lazy re-home as the single-request path: the recorded server
    // changed under us, so activate the warm replica before forwarding.
    bool rehome_failed = false;
    if (owner.has_value() && !recorded.empty() && recorded != owner->id) {
      auto [it, fresh] = rehomed.try_emplace(member.tenancy, Status::OK());
      if (fresh) it->second = RestoreOn(*owner, member.tenancy, channel);
      rehome_failed = !it->second.ok();
    }
    // No live owner, or a failed re-home: the member answers what it
    // answers sent alone — a mutation's error, a report's stale fallback.
    if (!owner.has_value() || rehome_failed) {
      docs[i] = service::protocol::ToJson(Route(member, channel));
      continue;
    }
    auto [it, fresh] = group_of_node.try_emplace(owner->id, groups.size());
    if (fresh) groups.push_back(Group{*owner, {}});
    groups[it->second].indices.push_back(i);
  }

  // Forward one sub-batch per node and scatter its ordered responses back
  // to the members' original slots.
  for (const Group& group : groups) {
    Request sub;
    sub.op = RequestOp::kBatch;
    sub.version = 3;
    sub.id = request.id;
    sub.requests.reserve(group.indices.size());
    for (size_t index : group.indices) {
      sub.requests.push_back(request.requests[index]);
    }
    Result<Response> forwarded = ChannelCall(channel, group.node, sub);
    if (!forwarded.ok()) {
      // Transport failure mid-batch: the node may or may not have executed
      // any member, so — like a single mutation — the members answer the
      // typed retryable error and the client decides what is safe to
      // resend.
      forward_failures_.fetch_add(1, std::memory_order_relaxed);
      HandleNodeFailure(group.node.id, channel);
      const Status failure = Status::Unavailable(
          "node " + group.node.id + " failed mid-batch (" +
          forwarded.status().message() + "); placement updated to v" +
          std::to_string(CurrentPlacement().version()) +
          " — resend to retry");
      for (size_t index : group.indices) member_error(index, failure);
      continue;
    }
    if (!forwarded->status.ok()) {
      for (size_t index : group.indices) {
        member_error(index, forwarded->status);
      }
      continue;
    }
    const JsonValue* responses = forwarded->payload.Find("responses");
    if (responses == nullptr || !responses->is_array() ||
        responses->AsArray().size() != group.indices.size()) {
      const Status malformed = Status::Internal(
          "node " + group.node.id + " answered a malformed batch response");
      for (size_t index : group.indices) member_error(index, malformed);
      continue;
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (size_t index : group.indices) {
        tenancy_owner_[request.requests[index].tenancy] = group.node.id;
      }
    }
    for (size_t k = 0; k < group.indices.size(); ++k) {
      docs[group.indices[k]] = responses->AsArray()[k];
    }
  }

  JsonValue array = JsonValue::MakeArray();
  array.Reserve(n);
  for (JsonValue& doc : docs) array.Append(std::move(doc));
  JsonValue payload = JsonValue::MakeObject();
  payload.Set("responses", std::move(array));
  return OkResponse(request.id, std::move(payload));
}

Response ClusterRouter::StaleReportFallback(const Request& request,
                                            Channel* channel,
                                            const Status& live_failure) {
  Request state_request;
  state_request.op = RequestOp::kTenancyState;
  state_request.version = 2;
  state_request.tenancy = request.tenancy;
  // Live nodes first (freshest placement knowledge), then marked-dead ones:
  // a node this router failed to forward to may still answer a cheap
  // single-line read (partial partition, mid-restart), and its replicated
  // snapshot is exactly what a degraded read wants.
  const PlacementMap placement = CurrentPlacement();
  std::vector<NodeInfo> sweep = placement.LiveNodes();
  for (const NodeInfo& node : placement.nodes()) {
    if (node.dead) sweep.push_back(node);
  }
  bool known_missing = false;
  for (const NodeInfo& node : sweep) {
    Result<Response> state = ChannelCall(channel, node, state_request);
    if (!state.ok()) continue;  // Unreachable: no evidence either way.
    if (!state->status.ok()) {
      // A positive "no persisted state" answer is evidence the tenancy is
      // unknown (this node never owned or replicated it); keep sweeping in
      // case another node holds it.
      if (state->status.code() == StatusCode::kNotFound) known_missing = true;
      continue;
    }
    const JsonValue* snapshot = state->payload.Find("snapshot");
    if (snapshot == nullptr) continue;  // Journal-only: no boundary yet.
    Result<service::TenancySnapshot> parsed =
        service::TenancySnapshotFromJson(*snapshot);
    if (!parsed.ok()) continue;
    // The report payload shape of a period boundary (no open session), plus
    // the stale marker. periods_run versions the answer: a client can tell
    // exactly how far behind the live tenancy this view may be.
    JsonValue payload = JsonValue::MakeObject();
    payload.Set("tenancy", JsonValue::Str(parsed->name));
    payload.Set("periods_run", JsonValue::Number(parsed->periods_run));
    payload.Set("period_open", JsonValue::Bool(false));
    payload.Set("current_slot", JsonValue::Number(0));
    payload.Set("num_tenants", JsonValue::Number(0));
    JsonValue built = JsonValue::MakeArray();
    for (const std::string& name : parsed->built) {
      built.Append(JsonValue::Str(name));
    }
    payload.Set("built_structures", std::move(built));
    payload.Set("cumulative_balance",
                JsonValue::Number(parsed->cumulative_balance));
    payload.Set("cumulative_utility",
                JsonValue::Number(parsed->cumulative_utility));
    payload.Set("stale", JsonValue::Bool(true));
    payload.Set("served_by", JsonValue::Str(node.id));
    stale_reads_.fetch_add(1, std::memory_order_relaxed);
    return OkResponse(request.id, std::move(payload));
  }
  if (known_missing) {
    return ErrorResponse(request.id,
                         Status::NotFound("unknown tenancy \"" +
                                          request.tenancy + "\""));
  }
  return ErrorResponse(request.id, live_failure);
}

Response ClusterRouter::RouteRestore(const Request& request,
                                     Channel* channel) {
  if (!request.tenancy.empty()) {
    // Targeted restore: run it on the tenancy's owner.
    std::optional<NodeInfo> owner;
    {
      std::lock_guard<std::mutex> lock(mu_);
      owner = placement_.OwnerOf(request.tenancy);
    }
    if (!owner.has_value()) {
      return ErrorResponse(request.id,
                           Status::Internal("no live node owns tenancy \"" +
                                            request.tenancy + "\""));
    }
    Result<Response> response = ChannelCall(channel, *owner, request);
    if (!response.ok()) {
      HandleNodeFailure(owner->id, channel);
      return ErrorResponse(request.id, response.status());
    }
    return std::move(*response);
  }
  // Cluster-wide restore: broadcast and sum the per-node recovery stats.
  JsonValue total = JsonValue::MakeObject();
  int nodes_restored = 0;
  for (const NodeInfo& node : CurrentPlacement().LiveNodes()) {
    Result<Response> response = ChannelCall(channel, node, request);
    if (!response.ok()) {
      HandleNodeFailure(node.id, channel);
      continue;
    }
    if (!response->status.ok()) return std::move(*response);
    ++nodes_restored;
    if (response->payload.is_object()) {
      for (const auto& [key, value] : response->payload.AsObject()) {
        if (!value.is_number()) continue;
        const JsonValue* prior = total.Find(key);
        const double sum =
            (prior != nullptr && prior->is_number() ? prior->AsNumber() : 0) +
            value.AsNumber();
        total.Set(key, JsonValue::Number(sum));
      }
    }
  }
  if (nodes_restored == 0) {
    return ErrorResponse(request.id,
                         Status::Internal("restore: no live nodes"));
  }
  total.Set("nodes", JsonValue::Number(nodes_restored));
  return OkResponse(request.id, std::move(total));
}

Response ClusterRouter::RouteAnyNode(const Request& request,
                                     Channel* channel) {
  for (const NodeInfo& node : CurrentPlacement().LiveNodes()) {
    Result<Response> response = ChannelCall(channel, node, request);
    if (response.ok()) return std::move(*response);
    HandleNodeFailure(node.id, channel);
  }
  return ErrorResponse(request.id, Status::Internal("no live nodes"));
}

Response ClusterRouter::RouteShutdown(const Request& request,
                                      Channel* channel) {
  int notified = 0;
  for (const NodeInfo& node : CurrentPlacement().LiveNodes()) {
    Result<Response> response = ChannelCall(channel, node, request);
    if (response.ok() && response->ok()) ++notified;
  }
  shutdown_requested_.store(true);
  JsonValue payload = JsonValue::MakeObject();
  payload.Set("shutting_down", JsonValue::Bool(true));
  payload.Set("nodes_notified", JsonValue::Number(notified));
  return OkResponse(request.id, payload);
}

Response ClusterRouter::RouteClusterUpdate(const Request& request,
                                           Channel* channel) {
  if (!request.placement.has_value()) {
    return ErrorResponse(
        request.id,
        Status::InvalidArgument("cluster_update: missing placement"));
  }
  Result<PlacementMap> map = PlacementMap::FromJson(*request.placement);
  if (!map.ok()) return ErrorResponse(request.id, map.status());
  bool installed = false;
  PlacementMap current;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (map->version() > placement_.version()) {
      placement_ = *map;
      installed = true;
    }
    current = placement_;
  }
  PushPlacement(current, channel);
  JsonValue payload = JsonValue::MakeObject();
  payload.Set("installed", JsonValue::Bool(installed));
  payload.Set("version",
              JsonValue::Number(static_cast<double>(current.version())));
  return OkResponse(request.id, payload);
}

bool ClusterRouter::HandleNodeFailure(const std::string& node_id,
                                      Channel* channel) {
  PlacementMap snapshot;
  bool marked = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    std::optional<NodeInfo> node = placement_.NodeById(node_id);
    if (node.has_value() && !node->dead) {
      placement_.MarkDead(node_id);
      marked = true;
    }
    snapshot = placement_;
  }
  if (marked) {
    failovers_.fetch_add(1, std::memory_order_relaxed);
    PushPlacement(snapshot, channel);
  }
  return marked;
}

void ClusterRouter::PushPlacement(const PlacementMap& placement,
                                  Channel* channel) {
  Request update;
  update.op = RequestOp::kClusterUpdate;
  update.version = 2;
  update.placement = placement.ToJson();
  for (const NodeInfo& node : placement.LiveNodes()) {
    Result<Response> response = ChannelCall(channel, node, update);
    if (response.ok() && response->ok()) {
      placement_pushes_.fetch_add(1, std::memory_order_relaxed);
    }
  }
}

Status ClusterRouter::Rebalance(const std::string& tenancy,
                                const std::string& target_id,
                                Channel* channel) {
  std::lock_guard<std::mutex> rebalance_lock(rebalance_mu_);
  PlacementMap placement = CurrentPlacement();
  std::optional<NodeInfo> target = placement.NodeById(target_id);
  if (!target.has_value() || target->dead) {
    return Status::InvalidArgument("rebalance target \"" + target_id +
                                   "\" is not a live node");
  }
  std::optional<NodeInfo> owner = placement.OwnerOf(tenancy);
  if (!owner.has_value()) {
    return Status::Internal("no live node owns tenancy \"" + tenancy + "\"");
  }
  if (owner->id == target_id) return Status::OK();  // Already home.

  // 1. Evict at the owner: checkpoint, then drop the live tenancy. Fails
  //    with FailedPrecondition while the tenancy's period is open — a
  //    rebalance is a period-boundary operation by design.
  Request evict;
  evict.op = RequestOp::kEvict;
  evict.version = 2;
  evict.tenancy = tenancy;
  Result<Response> evicted = ChannelCall(channel, *owner, evict);
  if (!evicted.ok()) return evicted.status();
  if (!evicted->status.ok()) return evicted->status;

  // 2. Export the persisted state (post-checkpoint snapshot + any tail).
  Request export_req;
  export_req.op = RequestOp::kTenancyState;
  export_req.version = 2;
  export_req.tenancy = tenancy;
  Result<Response> exported = ChannelCall(channel, *owner, export_req);
  if (!exported.ok()) return exported.status();
  if (!exported->status.ok()) return exported->status;

  // 3. Replay it into the target's store over the replication ops — the
  //    hand-off is exactly the streaming path, exercised on demand.
  const JsonValue* snapshot = exported->payload.Find("snapshot");
  if (snapshot != nullptr) {
    Request checkpoint;
    checkpoint.op = RequestOp::kReplCheckpoint;
    checkpoint.version = 2;
    checkpoint.tenancy = tenancy;
    checkpoint.snapshot = *snapshot;
    Result<Response> applied = ChannelCall(channel, *target, checkpoint);
    if (!applied.ok()) return applied.status();
    if (!applied->status.ok()) return applied->status;
  }
  const JsonValue* journal = exported->payload.Find("journal");
  if (journal != nullptr && journal->is_array()) {
    for (const JsonValue& line : journal->AsArray()) {
      if (!line.is_string()) continue;
      Request append;
      append.op = RequestOp::kReplAppend;
      append.version = 2;
      append.tenancy = tenancy;
      append.record = line.AsString();
      Result<Response> applied = ChannelCall(channel, *target, append);
      if (!applied.ok()) return applied.status();
      if (!applied->status.ok()) return applied->status;
    }
  }

  // 4. Activate on the target (single-tenancy recovery from what we just
  //    handed off), then 5. pin the new home and publish it.
  OPTSHARE_RETURN_NOT_OK(RestoreOn(*target, tenancy, channel));
  PlacementMap updated;
  {
    std::lock_guard<std::mutex> lock(mu_);
    placement_.SetOverride(tenancy, target_id);
    tenancy_owner_[tenancy] = target_id;
    updated = placement_;
  }
  PushPlacement(updated, channel);
  rebalances_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

JsonValue ClusterRouter::InfoJson() const {
  JsonValue obj = JsonValue::MakeObject();
  obj.Set("role", JsonValue::Str("router"));
  {
    std::lock_guard<std::mutex> lock(mu_);
    obj.Set("placement", placement_.ToJson());
    obj.Set("tenancies_routed",
            JsonValue::Number(static_cast<double>(tenancy_owner_.size())));
  }
  JsonValue counters = JsonValue::MakeObject();
  counters.Set("requests_routed",
               JsonValue::Number(static_cast<double>(
                   requests_routed_.load(std::memory_order_relaxed))));
  counters.Set("forward_failures",
               JsonValue::Number(static_cast<double>(
                   forward_failures_.load(std::memory_order_relaxed))));
  counters.Set("failovers",
               JsonValue::Number(static_cast<double>(
                   failovers_.load(std::memory_order_relaxed))));
  counters.Set("restores_issued",
               JsonValue::Number(static_cast<double>(
                   restores_issued_.load(std::memory_order_relaxed))));
  counters.Set("placement_pushes",
               JsonValue::Number(static_cast<double>(
                   placement_pushes_.load(std::memory_order_relaxed))));
  counters.Set("rebalances",
               JsonValue::Number(static_cast<double>(
                   rebalances_.load(std::memory_order_relaxed))));
  counters.Set("stale_reads",
               JsonValue::Number(static_cast<double>(
                   stale_reads_.load(std::memory_order_relaxed))));
  obj.Set("routing", std::move(counters));
  return obj;
}

// -- RouterServer ------------------------------------------------------------

namespace {

/// Blocking write of the whole buffer (the fd is in blocking mode; a
/// would_block can only appear transiently).
Status WriteAll(int fd, const std::string& data) {
  size_t off = 0;
  while (off < data.size()) {
    Result<net::IoChunk> chunk =
        net::WriteChunk(fd, data.data() + off, data.size() - off);
    if (!chunk.ok()) return chunk.status();
    if (chunk->eof) return Status::Internal("peer closed");
    if (chunk->would_block) {
      pollfd pfd{fd, POLLOUT, 0};
      (void)poll(&pfd, 1, 100);
      continue;
    }
    off += chunk->bytes;
  }
  return Status::OK();
}

}  // namespace

RouterServer::RouterServer(ClusterRouter* router, std::string host,
                           uint16_t port)
    : router_(router), host_(std::move(host)), requested_port_(port) {}

RouterServer::~RouterServer() { Stop(); }

Status RouterServer::Start() {
  if (started_.load()) {
    return Status::FailedPrecondition("router server already started");
  }
  Result<net::Socket> listener = net::ListenTcp(host_, requested_port_);
  if (!listener.ok()) return listener.status();
  Result<uint16_t> port = net::BoundPort(*listener);
  if (!port.ok()) return port.status();
  listener_ = std::move(*listener);
  port_ = *port;
  started_.store(true);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void RouterServer::AcceptLoop() {
  while (!stop_.load() && !router_->shutdown_requested()) {
    pollfd pfd{listener_.fd(), POLLIN, 0};
    const int rc = poll(&pfd, 1, 100);
    if (rc <= 0) continue;
    Result<net::Socket> accepted = net::AcceptNonBlocking(listener_);
    if (!accepted.ok() || !accepted->valid()) continue;
    // Thread-per-connection with blocking I/O: flip the accepted socket
    // back to blocking mode.
    const int flags = fcntl(accepted->fd(), F_GETFL, 0);
    if (flags >= 0) {
      (void)fcntl(accepted->fd(), F_SETFL, flags & ~O_NONBLOCK);
    }
    std::lock_guard<std::mutex> lock(threads_mu_);
    connection_threads_.emplace_back(
        [this, socket = std::make_shared<net::Socket>(
                   std::move(*accepted))]() mutable {
          Serve(std::move(*socket));
        });
  }
}

void RouterServer::Serve(net::Socket socket) {
  ClusterRouter::Channel channel;
  // Frame under the batch cap so a legal v3 batch frame is never torn;
  // RouteLine enforces the plain cap on non-batch lines after parsing.
  net::LineBuffer lines(router_->line_caps().framing_bytes());
  char buf[16384];
  std::string line;
  while (!stop_.load()) {
    pollfd pfd{socket.fd(), POLLIN, 0};
    const int rc = poll(&pfd, 1, 100);
    if (rc <= 0) {
      // Idle: exit once a shutdown has drained this connection's pipeline.
      if (router_->shutdown_requested()) return;
      continue;
    }
    Result<net::IoChunk> chunk = net::ReadChunk(socket.fd(), buf, sizeof(buf));
    if (!chunk.ok() || chunk->eof) return;
    lines.Append(buf, chunk->bytes);
    for (;;) {
      const net::LineBuffer::Next next = lines.NextLine(&line);
      if (next == net::LineBuffer::Next::kNeedMore) break;
      std::string response_line;
      if (next == net::LineBuffer::Next::kTooLong) {
        response_line = FormatResponseLine(
            service::protocol::OversizedLineResponse(router_->line_caps()));
      } else {
        response_line = router_->RouteLine(line, &channel);
      }
      response_line.push_back('\n');
      if (!WriteAll(socket.fd(), response_line).ok()) return;
    }
  }
}

void RouterServer::Wait() {
  if (accept_thread_.joinable()) accept_thread_.join();
  std::lock_guard<std::mutex> lock(threads_mu_);
  for (std::thread& t : connection_threads_) {
    if (t.joinable()) t.join();
  }
  connection_threads_.clear();
}

void RouterServer::Stop() {
  if (!started_.load()) return;
  stop_.store(true);
  Wait();
  listener_.Close();
}

}  // namespace optshare::cluster
