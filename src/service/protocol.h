// The marketplace wire protocol: versioned, newline-delimited JSON
// request/response documents driving a MarketplaceServer
// (service/marketplace_server.h). One request per line, one response per
// line, in request order.
//
// Every request carries the schema version and an op tag:
//
//   {"v": 1, "op": "open_period", "tenancy": "acme",
//    "catalog": {"scenario": "telemetry", "tenants": 6, "slots": 12},
//    "config": {"mechanism": "addon", "slots_per_period": 12}}
//   {"v": 1, "op": "submit", "tenancy": "acme", "tenants": [
//      {"start": 1, "end": 12, "executions_per_slot": 200,
//       "workload": [{"frequency": 1, "query": {"table": "telemetry",
//         "aggregate": true, "predicates": [
//           {"column": "device_id", "selectivity": 1e-6}]}}]}]}
//   {"v": 1, "op": "depart", "tenancy": "acme", "tenant": 0}
//   {"v": 1, "op": "advance_slot", "tenancy": "acme", "slots": 3}
//   {"v": 1, "op": "close_period", "tenancy": "acme"}
//   {"v": 1, "op": "report", "tenancy": "acme"}
//   {"v": 1, "op": "list_mechanisms"}
//
// Version 2 keeps every v1 document valid (requests may carry "v":1 or
// "v":2; responses echo the request's version, so v1 clients keep parsing
// what they always parsed) and adds the durability ops, which require
// "v":2:
//
//   {"v": 2, "op": "snapshot", "tenancy": "acme"}   # checkpoint now
//   {"v": 2, "op": "restore"}                       # load store tenancies
//   {"v": 2, "op": "shutdown"}                      # drain + checkpoint
//   {"v": 2, "op": "server_info"}                   # store kind, recovery
//
// Version 3 keeps every v1/v2 document valid and adds the batch frame:
// many requests on one line, answered by one ordered response batch:
//
//   {"v": 3, "op": "batch", "id": "b1", "requests": [
//      {"v": 1, "op": "submit", "tenancy": "acme", "tenants": [...]},
//      {"v": 1, "op": "advance_slot", "tenancy": "acme", "slots": 3}]}
//   -> {"v": 3, "id": "b1", "ok": true, "result": {"responses": [
//         <response doc for requests[0]>, <response doc for requests[1]>]}}
//
// Members execute in order within each tenancy (one FIFO shard task per
// tenancy group, so the group is atomic with respect to other writers of
// that tenancy) and each member response is byte-identical to what the
// same request would have produced sent on its own line. Members may not
// themselves be batches or shutdowns. Error responses may carry a
// "retry_after_ms" hint (admission control) alongside code/message.
//
// Responses echo the request's optional "id" and carry either a payload or
// a typed error mapping onto common/Status:
//
//   {"v": 1, "ok": true, "result": {...}}
//   {"v": 1, "ok": false, "error": {"code": "NotFound", "message": "..."}}
//
// Parsing is strict: an unknown field, a missing "v", or a version other
// than kProtocolVersion rejects the document (InvalidArgument), so schema
// drift fails loudly instead of silently ignoring client intent. Every
// variant round-trips bit-identically through ToJson/FromJson (numbers use
// common/json's round-trip formatting), which is what lets a recorded
// request stream be replayed as a differential test against direct
// PricingSession calls (tests/service_server_test.cc).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/json.h"
#include "common/status.h"
#include "service/cloud_service.h"
#include "simdb/pricing.h"
#include "simdb/schema.h"

namespace optshare::service::protocol {

/// Newest version of the request/response schema this build speaks.
/// Documents carrying any version in [kMinProtocolVersion,
/// kProtocolVersion] are accepted; anything else is rejected at parse time.
inline constexpr int kProtocolVersion = 3;
/// Oldest version still accepted (v1: the pre-durability op set).
inline constexpr int kMinProtocolVersion = 1;

/// Default cap on one request line (HandleLine / the serve loop); a longer
/// line is rejected with ResourceExhausted instead of being buffered.
inline constexpr size_t kDefaultMaxRequestBytes = 1 << 20;

/// Default cap on one *batch* line. A legal v3 batch frame packs many
/// requests onto one line, so transports buffer up to this larger cap and
/// the per-request cap is enforced per plain (non-batch) document after
/// parsing — an oversized batch gets a typed ResourceExhausted response
/// instead of a silent in-stream discard.
inline constexpr size_t kDefaultMaxBatchRequestBytes = 8u << 20;

/// The request variants.
enum class RequestOp {
  kOpenPeriod,
  kSubmit,
  kDepart,
  kAdvanceSlot,
  kClosePeriod,
  kReport,
  kListMechanisms,
  // v2 durability ops.
  kSnapshot,
  kRestore,
  kShutdown,
  kServerInfo,
  // v2 cluster ops (src/cluster/): journal-streaming replication, tenancy
  // hand-off, and placement-map distribution. These carry StateStore wire
  // bytes verbatim, so a replica's journal replays bit-identically.
  kReplAppend,      ///< One journal line into the replica's store.
  kReplCheckpoint,  ///< Snapshot into the replica's store (truncates journal).
  kReplSync,        ///< Drop the replica's journal tail (mirror of Sync).
  kTenancyState,    ///< Export snapshot + journal tail (rebalance source).
  kEvict,           ///< Checkpoint + drop the live tenancy (rebalance source).
  kClusterUpdate,   ///< Install a newer placement map on a node.
  // v2 analytics ops (src/analytics/): served from the published ReadView
  // without entering the tenancy's FIFO shard.
  kQueryPrice,      ///< What-if pricing for a tenant roster, read-only.
  kExport,          ///< Columnar export of ledgers/reports to --export-dir.
  // v3 batching.
  kBatch,           ///< Many requests, one line, one ordered response batch.
};

/// Every RequestOp, in enum order — sized per-op tables (e.g. the
/// server_info request counters) iterate this.
inline constexpr RequestOp kAllRequestOps[] = {
    RequestOp::kOpenPeriod,     RequestOp::kSubmit,
    RequestOp::kDepart,         RequestOp::kAdvanceSlot,
    RequestOp::kClosePeriod,    RequestOp::kReport,
    RequestOp::kListMechanisms, RequestOp::kSnapshot,
    RequestOp::kRestore,        RequestOp::kShutdown,
    RequestOp::kServerInfo,     RequestOp::kReplAppend,
    RequestOp::kReplCheckpoint, RequestOp::kReplSync,
    RequestOp::kTenancyState,   RequestOp::kEvict,
    RequestOp::kClusterUpdate,  RequestOp::kQueryPrice,
    RequestOp::kExport,         RequestOp::kBatch,
};
inline constexpr size_t kNumRequestOps =
    sizeof(kAllRequestOps) / sizeof(kAllRequestOps[0]);

// -- The op schema ----------------------------------------------------------

/// How an op treats the "tenancy" field.
enum class TenancyRule : uint8_t {
  kRequired,  ///< Addressed to one tenancy: a non-empty name is required.
  kOptional,  ///< A global op that may be narrowed to one tenancy.
  kNone,      ///< A global op: the field is rejected.
};

/// The payload fields a request may carry beyond "v", "op", "id" and
/// "tenancy", as bits of an OpSpec mask.
namespace field {
inline constexpr uint32_t kCatalog = 1u << 0;    ///< CatalogSpec object.
inline constexpr uint32_t kConfig = 1u << 1;     ///< ServiceConfig object.
inline constexpr uint32_t kTenants = 1u << 2;    ///< Array of SimUser.
inline constexpr uint32_t kTenant = 1u << 3;     ///< Roster id.
inline constexpr uint32_t kSlots = 1u << 4;      ///< >= 1, default 1.
inline constexpr uint32_t kPeriod = 1u << 5;     ///< >= 1, absent = live.
inline constexpr uint32_t kRecord = 1u << 6;     ///< Journal line, verbatim.
inline constexpr uint32_t kSnapshot = 1u << 7;   ///< Opaque object.
inline constexpr uint32_t kPlacement = 1u << 8;  ///< Opaque object.
inline constexpr uint32_t kRequests = 1u << 9;   ///< Array of requests.
}  // namespace field

/// OpSpec::flags: the op mutates tenancy state, so it is journaled before
/// it runs and charged to the tenancy's admission bucket.
inline constexpr uint8_t kJournaled = 1u << 0;
/// OpSpec::flags: the op may be a member of a v3 batch frame.
inline constexpr uint8_t kBatchable = 1u << 1;

/// One op's wire schema. This table is the only place an op's name,
/// version, tenancy rule, fields and serving class are written down: the
/// tree parser (RequestFromJson), the serializer (ToJson(Request)), the
/// single-pass scanner (service/fast_wire.h) and the server read these
/// rows.
struct OpSpec {
  RequestOp op;
  std::string_view name;  ///< Wire tag; a literal, so NUL-terminated.
  int min_version;        ///< Lowest protocol version that may carry it.
  TenancyRule tenancy;
  uint32_t allowed;   ///< field:: bits the document may carry.
  uint32_t required;  ///< field:: bits it must carry (within `allowed`).
  uint8_t flags;      ///< kJournaled | kBatchable.
};

inline constexpr OpSpec kOpSpecs[] = {
    // {op, wire name, min version, tenancy rule,
    //  allowed fields, required fields, flags}
    {RequestOp::kOpenPeriod, "open_period", 1, TenancyRule::kRequired,
     field::kCatalog | field::kConfig, 0, kJournaled | kBatchable},
    {RequestOp::kSubmit, "submit", 1, TenancyRule::kRequired,
     field::kTenants, field::kTenants, kJournaled | kBatchable},
    {RequestOp::kDepart, "depart", 1, TenancyRule::kRequired,
     field::kTenant, field::kTenant, kJournaled | kBatchable},
    {RequestOp::kAdvanceSlot, "advance_slot", 1, TenancyRule::kRequired,
     field::kSlots, 0, kJournaled | kBatchable},
    {RequestOp::kClosePeriod, "close_period", 1, TenancyRule::kRequired,
     0, 0, kJournaled | kBatchable},
    {RequestOp::kReport, "report", 1, TenancyRule::kRequired,
     field::kPeriod, 0, kBatchable},
    {RequestOp::kListMechanisms, "list_mechanisms", 1, TenancyRule::kNone,
     0, 0, kBatchable},
    {RequestOp::kSnapshot, "snapshot", 2, TenancyRule::kRequired,
     0, 0, kBatchable},
    {RequestOp::kRestore, "restore", 2, TenancyRule::kOptional,
     0, 0, kBatchable},
    {RequestOp::kShutdown, "shutdown", 2, TenancyRule::kNone,
     0, 0, 0},
    {RequestOp::kServerInfo, "server_info", 2, TenancyRule::kNone,
     0, 0, kBatchable},
    {RequestOp::kReplAppend, "repl_append", 2, TenancyRule::kRequired,
     field::kRecord, field::kRecord, kBatchable},
    {RequestOp::kReplCheckpoint, "repl_checkpoint", 2, TenancyRule::kRequired,
     field::kSnapshot, field::kSnapshot, kBatchable},
    {RequestOp::kReplSync, "repl_sync", 2, TenancyRule::kRequired,
     0, 0, kBatchable},
    {RequestOp::kTenancyState, "tenancy_state", 2, TenancyRule::kRequired,
     0, 0, kBatchable},
    {RequestOp::kEvict, "evict", 2, TenancyRule::kRequired,
     0, 0, kBatchable},
    {RequestOp::kClusterUpdate, "cluster_update", 2, TenancyRule::kNone,
     field::kPlacement, field::kPlacement, kBatchable},
    {RequestOp::kQueryPrice, "query_price", 2, TenancyRule::kRequired,
     field::kTenants, field::kTenants, kBatchable},
    {RequestOp::kExport, "export", 2, TenancyRule::kOptional,
     0, 0, kBatchable},
    {RequestOp::kBatch, "batch", 3, TenancyRule::kNone,
     field::kRequests, field::kRequests, 0},
};

constexpr bool OpSpecsAreWellFormed() {
  if (sizeof(kOpSpecs) / sizeof(kOpSpecs[0]) != kNumRequestOps) return false;
  for (size_t i = 0; i < kNumRequestOps; ++i) {
    if (kOpSpecs[i].op != kAllRequestOps[i]) return false;
    if ((kOpSpecs[i].required & ~kOpSpecs[i].allowed) != 0) return false;
  }
  return true;
}
static_assert(OpSpecsAreWellFormed(),
              "one kOpSpecs row per RequestOp, in enum order, with its "
              "required fields among its allowed ones");

inline const OpSpec& SpecOf(RequestOp op) {
  return kOpSpecs[static_cast<size_t>(op)];
}

/// Wire tag of an op ("open_period", ...).
inline std::string_view RequestOpName(RequestOp op) { return SpecOf(op).name; }
/// Inverse of RequestOpName; nullopt for unknown tags.
std::optional<RequestOp> RequestOpFromName(std::string_view name);
/// Lowest protocol version whose documents may carry `op`.
inline int RequestOpMinVersion(RequestOp op) {
  return SpecOf(op).min_version;
}
/// True for ops addressed to one tenancy (the "tenancy" field is
/// required).
inline bool OpTakesTenancy(RequestOp op) {
  return SpecOf(op).tenancy == TenancyRule::kRequired;
}
/// True for the ops that mutate tenancy state and are therefore journaled
/// before execution.
inline bool OpMutatesTenancy(RequestOp op) {
  return (SpecOf(op).flags & kJournaled) != 0;
}

/// How a tenancy's catalog is bootstrapped over the wire (first open_period
/// for a tenancy): either a canned simdb scenario by name or inline table
/// definitions. Exactly one of the two must be present.
struct CatalogSpec {
  /// "clickstream", "retail" or "telemetry"; empty = inline tables.
  std::string scenario;
  /// Sizing arguments forwarded to the scenario constructor.
  int scenario_tenants = 6;
  int scenario_slots = 12;
  /// Inline table definitions (used when `scenario` is empty).
  std::vector<simdb::TableDef> tables;
};

/// One protocol request: the op tag plus the fields of its variant (fields
/// of other variants stay defaulted and are neither serialized nor
/// accepted when parsing that variant).
struct Request {
  RequestOp op = RequestOp::kListMechanisms;
  /// Schema version the document was (or will be) encoded with. Parsing
  /// preserves the client's version so responses — and journal replays —
  /// can echo it bit-identically.
  int version = kProtocolVersion;
  /// Client-chosen correlation id, echoed verbatim in the response (empty =
  /// absent).
  std::string id;
  /// Target tenancy; required for every op except list_mechanisms and the
  /// global v2 ops (restore, shutdown, server_info, cluster_update). A
  /// restore may carry an *optional* tenancy to recover just that tenancy
  /// (the cluster failover path).
  std::string tenancy;

  // open_period
  std::optional<CatalogSpec> catalog;      ///< Required on first touch.
  std::optional<ServiceConfig> config;     ///< Absent = tenancy's config.

  // submit
  std::vector<simdb::SimUser> tenants;

  // depart
  UserId tenant = -1;

  // advance_slot
  int slots = 1;

  // report: 0 = the live report; >= 1 selects one retained closed period
  // (served from the analytics history; NotFound when not retained).
  int period = 0;

  // repl_append: one StateStore journal line, verbatim wire bytes.
  std::string record;

  // repl_checkpoint: the tenancy snapshot as its bit-identical JSON form.
  std::optional<JsonValue> snapshot;

  // cluster_update: the serialized placement map (opaque to the protocol;
  // src/cluster/placement.h owns the schema).
  std::optional<JsonValue> placement;

  // batch: the member requests, in submission order. Members may not be
  // batches or shutdowns (rejected at parse time).
  std::vector<Request> requests;
};

/// One protocol response. `status` carries the typed error (OK = success);
/// `payload` is the op-specific result object (null on error).
struct Response {
  std::string id;
  /// Version the response line is encoded with; the server sets it to the
  /// request's version so old clients never see a document newer than what
  /// they sent.
  int version = kProtocolVersion;
  Status status;
  JsonValue payload;
  /// Pre-serialized payload: when non-empty it IS the result document, and
  /// `payload` is ignored — AppendResponseLine splices it verbatim and
  /// ToJson parses it back into a tree. Producers (the batch hot path,
  /// which assembles its response array from already-serialized member
  /// lines) must only store documents that Dump byte-identically to the
  /// tree they replace.
  std::string raw_payload;
  /// Admission-control hint on an error response: how long the client
  /// should wait before retrying (0 = absent, not serialized).
  int retry_after_ms = 0;

  bool ok() const { return status.ok(); }
};

// -- Serialization ----------------------------------------------------------

JsonValue ToJson(const Request& request);
JsonValue ToJson(const Response& response);
JsonValue ToJson(const simdb::SimUser& tenant);
JsonValue ToJson(const simdb::TableDef& table);
JsonValue ToJson(const ServiceConfig& config);
JsonValue ToJson(const CatalogSpec& spec);
JsonValue ToJson(const PeriodReport& report);

Result<Request> RequestFromJson(const JsonValue& v);
Result<Response> ResponseFromJson(const JsonValue& v);
Result<simdb::SimUser> SimUserFromJson(const JsonValue& v);
Result<simdb::TableDef> TableDefFromJson(const JsonValue& v);
Result<ServiceConfig> ServiceConfigFromJson(const JsonValue& v);
Result<CatalogSpec> CatalogSpecFromJson(const JsonValue& v);
Result<PeriodReport> PeriodReportFromJson(const JsonValue& v);

/// Parses one wire line into a request (strict: version check, unknown
/// fields rejected). No size cap: front ends admit lines through
/// AdmitRequestLine.
///
/// This is the serving hot path: it first attempts the single-pass,
/// non-materializing scanner (service/fast_wire.h), which fills the
/// Request directly from string_view spans without building a JsonValue
/// tree, and falls back to the tree parser for anything the scanner does
/// not recognize — so acceptance/rejection semantics (and every error
/// message) are exactly the tree parser's.
Result<Request> ParseRequestLine(const std::string& line);

/// The original JsonValue-tree parse path, kept callable on its own so the
/// differential and fuzz suites (and the serving gates) can pin the fast
/// scanner against it byte-for-byte.
Result<Request> ParseRequestLineTree(const std::string& line);

/// The request-line caps of one front end: a node's MarketplaceServer or a
/// ClusterRouter, whether lines arrive over TCP, stdin or in process.
struct LineCaps {
  /// A line that is not a v3 batch frame may be at most this long.
  /// 0 disables both caps.
  size_t request_bytes = kDefaultMaxRequestBytes;
  /// A batch frame may be up to max(request_bytes, batch_request_bytes).
  size_t batch_request_bytes = kDefaultMaxBatchRequestBytes;

  /// The cap transports frame lines under, so a legal batch frame is never
  /// torn mid-stream (0 = uncapped).
  size_t framing_bytes() const {
    if (request_bytes == 0) return 0;
    return request_bytes > batch_request_bytes ? request_bytes
                                               : batch_request_bytes;
  }
};

/// The line-admission rule every front end applies to one framed line:
/// a line over caps.framing_bytes(), or a non-batch line over
/// caps.request_bytes, answers OversizedLineResponse(caps); a line that
/// does not parse answers its parse error. A rejected line is answered
/// with no id at kMinProtocolVersion — neither can be read from it — so
/// a node and a router answer it with the same bytes. Returns nullopt when
/// the line is admitted, with the request in *request.
std::optional<Response> AdmitRequestLine(const std::string& line,
                                         const LineCaps& caps,
                                         Request* request);

/// The answer to a line over `caps`. Transports that discard such a line
/// while framing answer it with this too, which is why its text carries
/// the cap but not the line's length.
Response OversizedLineResponse(const LineCaps& caps);

/// Serializes a response as one compact wire line (no trailing newline).
std::string FormatResponseLine(const Response& response);

/// Append-form FormatResponseLine: serializes into *out (appending; no
/// trailing newline) so transports can reuse one scratch buffer across
/// replies instead of allocating a fresh string each. Byte-identical to
/// FormatResponseLine / ToJson(response).Dump().
void AppendResponseLine(const Response& response, std::string* out);

/// The error response for `status`, echoing `id`.
Response ErrorResponse(std::string id, Status status);
/// A success response with `payload`, echoing `id`.
Response OkResponse(std::string id, JsonValue payload);

}  // namespace optshare::service::protocol
