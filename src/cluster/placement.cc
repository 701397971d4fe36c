#include "cluster/placement.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <utility>

namespace optshare::cluster {

uint64_t Fnv1a64(std::string_view bytes) {
  uint64_t hash = 14695981039346656037ull;  // FNV offset basis.
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ull;  // FNV prime.
  }
  return hash;
}

namespace {

/// 64-bit avalanche finalizer (MurmurHash3's fmix64). FNV-1a alone
/// diffuses trailing-byte changes weakly — sequential names such as
/// "tenancy-17"/"tenancy-18" differ by only ~delta*prime, a hair's width
/// against ring arcs of ~2^64/(nodes*vnodes) — so without this, runs of
/// similarly-named tenancies clump onto one node.
uint64_t MixBits(uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdull;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ull;
  x ^= x >> 33;
  return x;
}

/// The position of `key` on the ring (vnode labels and tenancy names
/// alike). Deterministic across processes, like Fnv1a64 itself.
uint64_t RingPoint(std::string_view key) { return MixBits(Fnv1a64(key)); }

}  // namespace

Result<PlacementMap> PlacementMap::Create(std::vector<NodeInfo> nodes,
                                          int vnodes) {
  if (nodes.empty()) {
    return Status::InvalidArgument("placement needs at least one node");
  }
  if (vnodes < 1) {
    return Status::InvalidArgument("placement vnodes must be >= 1");
  }
  std::set<std::string> ids;
  for (const NodeInfo& node : nodes) {
    if (node.id.empty()) {
      return Status::InvalidArgument("placement node id must be non-empty");
    }
    if (!ids.insert(node.id).second) {
      return Status::InvalidArgument("duplicate placement node id \"" +
                                     node.id + "\"");
    }
  }
  PlacementMap map;
  map.nodes_ = std::move(nodes);
  map.vnodes_ = vnodes;
  map.RebuildRing();
  return map;
}

void PlacementMap::RebuildRing() {
  ring_.clear();
  ring_.reserve(nodes_.size() * static_cast<size_t>(vnodes_));
  for (size_t i = 0; i < nodes_.size(); ++i) {
    for (int k = 0; k < vnodes_; ++k) {
      ring_.emplace_back(
          RingPoint(nodes_[i].id + "#" + std::to_string(k)), i);
    }
  }
  std::sort(ring_.begin(), ring_.end());
}

std::optional<NodeInfo> PlacementMap::OwnerOf(
    const std::string& tenancy) const {
  const auto it = overrides_.find(tenancy);
  if (it != overrides_.end()) {
    std::optional<NodeInfo> pinned = NodeById(it->second);
    // A dead override is ignored, not honored: failover falls back to the
    // ring, which lands on the node holding the warm replica.
    if (pinned.has_value() && !pinned->dead) return pinned;
  }
  return ReplicaFor(tenancy, std::string());
}

std::optional<NodeInfo> PlacementMap::ReplicaFor(
    const std::string& tenancy, const std::string& exclude_id) const {
  if (ring_.empty()) return std::nullopt;
  const uint64_t point = RingPoint(tenancy);
  auto it = std::lower_bound(
      ring_.begin(), ring_.end(), std::make_pair(point, size_t{0}));
  for (size_t step = 0; step < ring_.size(); ++step, ++it) {
    if (it == ring_.end()) it = ring_.begin();
    const NodeInfo& node = nodes_[it->second];
    if (node.dead || node.id == exclude_id) continue;
    return node;
  }
  return std::nullopt;
}

bool PlacementMap::MarkDead(const std::string& id) {
  for (NodeInfo& node : nodes_) {
    if (node.id == id) {
      if (!node.dead) {
        node.dead = true;
        ++version_;
      }
      return true;
    }
  }
  return false;
}

bool PlacementMap::SetOverride(const std::string& tenancy,
                               const std::string& id) {
  if (!NodeById(id).has_value()) return false;
  overrides_[tenancy] = id;
  ++version_;
  return true;
}

std::optional<NodeInfo> PlacementMap::NodeById(const std::string& id) const {
  for (const NodeInfo& node : nodes_) {
    if (node.id == id) return node;
  }
  return std::nullopt;
}

std::vector<NodeInfo> PlacementMap::LiveNodes() const {
  std::vector<NodeInfo> live;
  for (const NodeInfo& node : nodes_) {
    if (!node.dead) live.push_back(node);
  }
  return live;
}

JsonValue PlacementMap::ToJson() const {
  JsonValue obj = JsonValue::MakeObject();
  obj.Set("v", JsonValue::Number(static_cast<double>(version_)));
  obj.Set("vnodes", JsonValue::Number(vnodes_));
  JsonValue nodes = JsonValue::MakeArray();
  nodes.Reserve(nodes_.size());
  for (const NodeInfo& node : nodes_) {
    JsonValue n = JsonValue::MakeObject();
    n.Set("id", JsonValue::Str(node.id));
    n.Set("host", JsonValue::Str(node.host));
    n.Set("port", JsonValue::Number(node.port));
    n.Set("dead", JsonValue::Bool(node.dead));
    nodes.Append(std::move(n));
  }
  obj.Set("nodes", std::move(nodes));
  JsonValue overrides = JsonValue::MakeObject();
  for (const auto& [tenancy, id] : overrides_) {
    overrides.Set(tenancy, JsonValue::Str(id));
  }
  obj.Set("overrides", std::move(overrides));
  return obj;
}

Result<PlacementMap> PlacementMap::FromJson(const JsonValue& v) {
  OPTSHARE_RETURN_NOT_OK(CheckObject(v, "placement"));
  OPTSHARE_RETURN_NOT_OK(
      CheckFields(v, {"v", "vnodes", "nodes", "overrides"}, "placement"));
  Result<int64_t> version = JsonIntField(v, "v", "placement");
  if (!version.ok()) return version.status();
  Result<int64_t> vnodes = JsonIntField(v, "vnodes", "placement");
  if (!vnodes.ok()) return vnodes.status();
  if (*vnodes < 1 || *vnodes > 4096) {
    return Status::InvalidArgument("placement: \"vnodes\" out of range");
  }
  Result<const JsonValue::Array*> nodes =
      JsonArrayField(v, "nodes", "placement");
  if (!nodes.ok()) return nodes.status();
  std::vector<NodeInfo> parsed_nodes;
  for (const JsonValue& node_v : **nodes) {
    OPTSHARE_RETURN_NOT_OK(CheckObject(node_v, "placement node"));
    OPTSHARE_RETURN_NOT_OK(CheckFields(
        node_v, {"id", "host", "port", "dead"}, "placement node"));
    NodeInfo node;
    Result<std::string> id = JsonStringField(node_v, "id", "placement node");
    if (!id.ok()) return id.status();
    node.id = std::move(*id);
    Result<std::string> host =
        JsonStringField(node_v, "host", "placement node");
    if (!host.ok()) return host.status();
    node.host = std::move(*host);
    Result<int64_t> port = JsonIntField(node_v, "port", "placement node");
    if (!port.ok()) return port.status();
    if (*port < 0 || *port > 65535) {
      return Status::InvalidArgument("placement node: \"port\" out of range");
    }
    node.port = static_cast<uint16_t>(*port);
    Result<bool> dead = JsonBoolField(node_v, "dead", "placement node");
    if (!dead.ok()) return dead.status();
    node.dead = *dead;
    parsed_nodes.push_back(std::move(node));
  }
  Result<PlacementMap> map =
      Create(std::move(parsed_nodes), static_cast<int>(*vnodes));
  if (!map.ok()) return map.status();
  map->version_ = *version;
  const JsonValue* overrides = v.Find("overrides");
  if (overrides != nullptr) {
    if (!overrides->is_object()) {
      return Status::InvalidArgument(
          "placement: field \"overrides\" must be an object");
    }
    for (const auto& [tenancy, id] : overrides->AsObject()) {
      if (!id.is_string()) {
        return Status::InvalidArgument(
            "placement override values must be node ids");
      }
      if (!map->NodeById(id.AsString()).has_value()) {
        return Status::InvalidArgument("placement override targets unknown "
                                       "node \"" + id.AsString() + "\"");
      }
      map->overrides_.emplace(tenancy, id.AsString());
    }
  }
  return map;
}

}  // namespace optshare::cluster
