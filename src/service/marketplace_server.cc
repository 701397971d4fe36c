#include "service/marketplace_server.h"

#include <algorithm>
#include <chrono>
#include <functional>
#include <unordered_map>
#include <utility>

#include "analytics/columnar.h"
#include "baseline/baseline_mechanisms.h"
#include "common/logging.h"
#include "core/mechanism.h"
#include "simdb/advisor.h"
#include "simdb/scenarios.h"

namespace optshare::service {
namespace {

using protocol::ErrorResponse;
using protocol::OkResponse;
using protocol::OpMutatesTenancy;
using protocol::Request;
using protocol::RequestOp;
using protocol::Response;

/// Builds a catalog from a wire CatalogSpec: a canned scenario by name
/// (its tenants are discarded — the wire submits tenants explicitly) or
/// inline table definitions.
Result<simdb::Catalog> BuildCatalog(const protocol::CatalogSpec& spec) {
  if (!spec.scenario.empty()) {
    Result<simdb::Scenario> scenario =
        spec.scenario == "clickstream"
            ? simdb::ClickstreamScenario(spec.scenario_tenants,
                                         spec.scenario_slots)
        : spec.scenario == "retail"
            ? simdb::RetailScenario(spec.scenario_tenants, spec.scenario_slots)
        : spec.scenario == "telemetry"
            ? simdb::TelemetryScenario(spec.scenario_tenants,
                                       spec.scenario_slots)
            : Result<simdb::Scenario>(Status::NotFound(
                  "unknown scenario \"" + spec.scenario +
                  "\" (clickstream, retail, telemetry)"));
    if (!scenario.ok()) return scenario.status();
    return std::move(scenario->catalog);
  }
  simdb::Catalog catalog;
  for (const simdb::TableDef& table : spec.tables) {
    OPTSHARE_RETURN_NOT_OK(catalog.AddTable(table));
  }
  return catalog;
}

/// True when a batch member is safe to cover with one atomic group journal
/// record: plain session mutations (WAL-then-execute, no checkpoint or
/// journal truncation) and side-effect-free reads (harmless to re-execute
/// during replay). open/close_period, restore, snapshot, repl_*, evict and
/// export stay on the per-member WAL path — they truncate journals, touch
/// the store out of band, or (export) write files a replay must not redo.
bool BatchMemberAtomicWalSafe(RequestOp op) {
  switch (op) {
    case RequestOp::kSubmit:
    case RequestOp::kDepart:
    case RequestOp::kAdvanceSlot:
    case RequestOp::kReport:
    case RequestOp::kQueryPrice:
    case RequestOp::kListMechanisms:
    case RequestOp::kServerInfo:
      return true;
    default:
      return false;
  }
}

}  // namespace

JsonValue ToJson(const RecoveryStats& stats) {
  JsonValue obj = JsonValue::MakeObject();
  obj.Set("tenancies_recovered", JsonValue::Number(stats.tenancies_recovered));
  obj.Set("tenancies_skipped", JsonValue::Number(stats.tenancies_skipped));
  obj.Set("snapshots_loaded", JsonValue::Number(stats.snapshots_loaded));
  obj.Set("journal_records_replayed",
          JsonValue::Number(stats.journal_records_replayed));
  obj.Set("journal_records_failed",
          JsonValue::Number(stats.journal_records_failed));
  obj.Set("journal_torn", JsonValue::Number(stats.journal_torn));
  return obj;
}

MarketplaceServer::MarketplaceServer(ServerOptions options)
    : store_(options.store ? std::move(options.store)
                           : std::make_shared<MemoryStateStore>()),
      line_caps_{options.max_request_bytes, options.max_batch_request_bytes},
      export_dir_(std::move(options.export_dir)),
      enable_read_path_(options.enable_read_path),
      admission_(options.admission),
      pool_(options.num_workers) {
  // Resolve every registry-touching race up front: baselines register once,
  // before the first concurrent Create on a shard.
  RegisterBaselineMechanisms();
}

MarketplaceServer::~MarketplaceServer() { Drain(); }

size_t MarketplaceServer::ShardOf(const std::string& tenancy) const {
  return std::hash<std::string>{}(tenancy);
}

MarketplaceServer::Tenancy* MarketplaceServer::FindTenancy(
    const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tenancies_.find(name);
  return it == tenancies_.end() ? nullptr : it->second.get();
}

std::vector<std::string> MarketplaceServer::TenancyNames() const {
  std::vector<std::string> names;
  {
    std::lock_guard<std::mutex> lock(mu_);
    names.reserve(tenancies_.size());
    for (const auto& [name, tenancy] : tenancies_) names.push_back(name);
  }
  std::sort(names.begin(), names.end());
  return names;
}

TenancySnapshot MarketplaceServer::BoundaryOf(const Tenancy& tenancy) const {
  TenancySnapshot snapshot;
  snapshot.name = tenancy.name;
  snapshot.tables = tenancy.catalog.tables();
  snapshot.config = tenancy.config;
  snapshot.built = tenancy.built;
  snapshot.periods_run = tenancy.periods_run;
  snapshot.cumulative_balance = tenancy.cumulative_balance;
  snapshot.cumulative_utility = tenancy.cumulative_utility;
  return snapshot;
}

JsonValue MarketplaceServer::SnapshotOf(const Tenancy& tenancy) const {
  return ToJson(BoundaryOf(tenancy));
}

analytics::ReadDelta MarketplaceServer::DeltaOf(const Tenancy& tenancy) const {
  analytics::ReadDelta delta;
  if (tenancy.session.has_value()) {
    delta.period_open = true;
    delta.current_slot = tenancy.session->slots_advanced();
    delta.num_tenants = tenancy.session->num_tenants();
  }
  return delta;
}

Status MarketplaceServer::CreateTenancy(const std::string& name,
                                        simdb::Catalog catalog,
                                        ServiceConfig config) {
  if (name.empty()) {
    return Status::InvalidArgument("tenancy name must be non-empty");
  }
  OPTSHARE_RETURN_NOT_OK(config.Validate());
  // Run on the tenancy's shard so creation serializes with wire traffic
  // already queued under the same name.
  auto promise = std::make_shared<std::promise<Status>>();
  std::future<Status> done = promise->get_future();
  pool_.Post(ShardOf(name), [this, name, catalog = std::move(catalog),
                             config = std::move(config), promise]() mutable {
    try {
      if (FindTenancy(name) != nullptr) {
        promise->set_value(
            Status::AlreadyExists("tenancy \"" + name + "\" already exists"));
        return;
      }
      auto tenancy = std::make_unique<Tenancy>();
      tenancy->name = name;
      tenancy->catalog = std::move(catalog);
      tenancy->config = std::move(config);
      Tenancy* created = tenancy.get();
      {
        std::lock_guard<std::mutex> lock(mu_);
        tenancies_.emplace(name, std::move(tenancy));
      }
      // Persist the creation so an embedded tenancy (no wire bootstrap
      // record to replay) survives a restart.
      Status persisted = store_->Checkpoint(name, SnapshotOf(*created));
      if (!persisted.ok()) {
        OPTSHARE_LOG(Warning) << "tenancy \"" << name
                              << "\" creation not persisted: "
                              << persisted.ToString();
      }
      read_registry_.PublishView(name, BoundaryOf(*created), nullptr);
      promise->set_value(Status::OK());
    } catch (const std::exception& e) {
      promise->set_value(Status::Internal(e.what()));
    }
  });
  return done.get();
}

std::future<Response> MarketplaceServer::Dispatch(Request request) {
  auto promise = std::make_shared<std::promise<Response>>();
  std::future<Response> response = promise->get_future();
  DispatchCallback(std::move(request), [promise](Response resolved) {
    promise->set_value(std::move(resolved));
  });
  return response;
}

void MarketplaceServer::DispatchCallback(
    Request request, std::function<void(Response)> done,
    const std::string* raw_line) {
  // v3 batch frames fan out per tenancy group; everything else takes the
  // single-request path below.
  if (request.op == RequestOp::kBatch) {
    DispatchBatch(std::move(request), std::move(done), raw_line);
    return;
  }
  // The HTAP read path: answer snapshot-servable ops right here, on the
  // caller's thread, from the published ReadView — a read never queues
  // behind the tenancy's write FIFO, so read latency is independent of
  // write-queue depth. `done` firing synchronously is within contract
  // (Dispatch's promise and both transports handle inline completion).
  // Ordering note: a client that AWAITS its write ack reads its own write
  // (deltas publish before the ack); a pipelined, unacknowledged write may
  // not be visible to an immediately following read.
  if (enable_read_path_) {
    const auto read_start = std::chrono::steady_clock::now();
    Response served;
    if (TryServeRead(request, &served)) {
      op_latency_[static_cast<size_t>(request.op)].Record(
          static_cast<uint64_t>(
              std::chrono::duration_cast<std::chrono::microseconds>(
                  std::chrono::steady_clock::now() - read_start)
                  .count()));
      served.version = request.version;
      done(std::move(served));
      return;
    }
  }
  // Admission (protocol v3): mutating ops draw from the tenancy's token
  // bucket before they queue — a quota breach answers here, typed, with a
  // retry hint, instead of occupying the shared shard pool. Reads are
  // never throttled, and neither is journal replay (it calls Execute
  // directly).
  if (OpMutatesTenancy(request.op)) {
    const TokenBucket::Decision decision = admission_.Admit(request.tenancy,
                                                            /*cost=*/1.0);
    if (!decision.admitted) {
      Response rejected = ErrorResponse(
          request.id,
          Status::ResourceExhausted("tenancy \"" + request.tenancy +
                                    "\" is over its mutating-op quota"));
      rejected.retry_after_ms = decision.retry_after_ms;
      rejected.version = request.version;
      done(std::move(rejected));
      return;
    }
  }
  // list_mechanisms and the global v2 ops shard on the empty name: cheap,
  // and ordering against tenancy traffic is irrelevant for them.
  // The shard key must be taken before the Post call: its arguments are
  // indeterminately sequenced, and the lambda's init-capture moves
  // `request` out from under an inline ShardOf(request.tenancy).
  const size_t shard = ShardOf(request.tenancy);
  pool_.Post(shard, [this, request = std::move(request),
                     done = std::move(done)]() mutable {
               // One request's failure must stay one request's failure: an
               // exception out of Execute (e.g. bad_alloc on a huge
               // payload) becomes this response's Internal error instead
               // of tearing down the worker. `done` runs outside the catch
               // so it can never fire twice.
               Response response;
               try {
                 response = Execute(request, /*persist=*/true);
               } catch (const std::exception& e) {
                 response =
                     ErrorResponse(request.id, Status::Internal(e.what()));
                 response.version = request.version;
               } catch (...) {
                 response = ErrorResponse(
                     request.id,
                     Status::Internal("unexpected exception while serving"));
                 response.version = request.version;
               }
               done(std::move(response));
             });
}

void MarketplaceServer::DispatchBatch(Request request,
                                      std::function<void(Response)> done,
                                      const std::string* raw_line) {
  op_counts_[static_cast<size_t>(RequestOp::kBatch)].fetch_add(
      1, std::memory_order_relaxed);
  // Group members by tenancy, preserving submission order inside each
  // group. One group = one pool task on the tenancy's shard. (Parse-time
  // validation already rejected nested batches, shutdown members, and
  // empty batches.)
  struct Group {
    std::vector<size_t> members;  // Indices into request.requests.
    double mutating_cost = 0.0;
    /// Every member qualifies for the one-record atomic WAL scheme.
    bool atomic_wal = true;
    /// The group's single journal record (empty = nothing to journal, or
    /// atomic_wal is false and members journal individually in Execute).
    std::string wal_record;
  };
  std::vector<std::string> order;
  std::unordered_map<std::string, Group> groups;
  for (size_t i = 0; i < request.requests.size(); ++i) {
    const Request& member = request.requests[i];
    auto [it, inserted] = groups.try_emplace(member.tenancy);
    if (inserted) order.push_back(member.tenancy);
    it->second.members.push_back(i);
    if (OpMutatesTenancy(member.op)) it->second.mutating_cost += 1.0;
    it->second.atomic_wal =
        it->second.atomic_wal && BatchMemberAtomicWalSafe(member.op);
  }
  // Atomic WAL records (see DispatchBatch's declaration): one record per
  // qualifying mutating group, appended on the shard before any member
  // executes. A single-tenancy batch journals the raw frame verbatim —
  // zero re-serialization on the hot path; a multi-tenancy batch rebuilds
  // one sub-batch record per group. Replay parses the record as a batch
  // request and re-executes the members in order (Execute's kBatch case).
  for (auto& [tenancy, group] : groups) {
    if (!group.atomic_wal || group.mutating_cost <= 0.0) continue;
    if (raw_line != nullptr && order.size() == 1) {
      group.wal_record = *raw_line;
    } else {
      JsonValue members = JsonValue::MakeArray();
      members.Reserve(group.members.size());
      for (size_t index : group.members) {
        members.Append(protocol::ToJson(request.requests[index]));
      }
      JsonValue record = JsonValue::MakeObject();
      record.Set("v", JsonValue::Number(protocol::kProtocolVersion));
      record.Set("op", JsonValue::Str("batch"));
      record.Set("requests", std::move(members));
      group.wal_record = record.Dump();
    }
  }

  // Shared assembly state: each group fills its members' slots (disjoint
  // indices, so only `remaining` needs the mutex for publication), and the
  // last group to finish emits the ordered response batch.
  struct BatchState {
    std::mutex mu;
    /// Wire path (`raw_line` != nullptr): each member's serialized
    /// response document, spliced into the batch's raw_payload at the end
    /// — no per-member JsonValue trees. Typed path: member trees.
    std::vector<std::string> docs_raw;
    std::vector<JsonValue> docs;
    bool wire = false;
    size_t remaining = 0;
    std::string id;
    int version = protocol::kProtocolVersion;
    std::function<void(Response)> done;
  };
  auto state = std::make_shared<BatchState>();
  state->wire = raw_line != nullptr;
  if (state->wire) {
    state->docs_raw.resize(request.requests.size());
  } else {
    state->docs.resize(request.requests.size());
  }
  state->remaining = order.size();
  state->id = request.id;
  state->version = request.version;
  state->done = std::move(done);
  auto shared = std::make_shared<Request>(std::move(request));

  for (const std::string& tenancy : order) {
    Group& group = groups[tenancy];
    // One admission draw covers the whole group: either every mutating
    // member is paid for, or the whole group answers the breach — a batch
    // never lands half its mutations in the journal because of a quota.
    const TokenBucket::Decision decision =
        admission_.Admit(tenancy, group.mutating_cost);
    const size_t shard = ShardOf(tenancy);
    pool_.Post(shard, [this, state, shared, group = std::move(group),
                       decision]() mutable {
      // The atomic group record lands before any member executes, on the
      // tenancy's own shard — ordered against every other record of this
      // tenancy. If the append fails, no member runs: a batch never lands
      // half its mutations in the journal.
      Status journaled = Status::OK();
      bool member_persist = !group.atomic_wal;
      if (decision.admitted && group.atomic_wal && !group.wal_record.empty()) {
        const std::string& name = shared->requests[group.members.front()].tenancy;
        if (FindTenancy(name) == nullptr) {
          // Unknown tenancy: skip the group record (the members will fail
          // their own lookups without journaling anything, same as the
          // single-request path — no stray journal for a name that never
          // existed).
          member_persist = true;
        } else {
          journaled = store_->Append(name, group.wal_record);
          if (journaled.ok()) {
            Tenancy* tenancy = FindTenancy(name);
            ++tenancy->unsynced_appends;
            unsynced_total_.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
      for (size_t index : group.members) {
        const Request& member = shared->requests[index];
        Response response;
        if (!decision.admitted) {
          response = ErrorResponse(
              member.id,
              Status::ResourceExhausted("tenancy \"" + member.tenancy +
                                        "\" is over its mutating-op quota"));
          response.retry_after_ms = decision.retry_after_ms;
          response.version = member.version;
        } else if (!journaled.ok()) {
          response = ErrorResponse(member.id, journaled);
          response.version = member.version;
        } else {
          // Same containment contract as the single-request path: one
          // member's exception is that member's Internal error.
          try {
            response = Execute(member, /*persist=*/member_persist,
                               /*count_metrics=*/true);
          } catch (const std::exception& e) {
            response = ErrorResponse(member.id, Status::Internal(e.what()));
            response.version = member.version;
          } catch (...) {
            response = ErrorResponse(
                member.id,
                Status::Internal("unexpected exception while serving"));
            response.version = member.version;
          }
        }
        if (state->wire) {
          // AppendResponseLine mirrors ToJson(response).Dump()
          // byte-for-byte, so the spliced member document is identical to
          // the tree the typed path would have built.
          protocol::AppendResponseLine(response, &state->docs_raw[index]);
        } else {
          state->docs[index] = protocol::ToJson(response);
        }
      }
      bool last = false;
      {
        std::lock_guard<std::mutex> lock(state->mu);
        last = --state->remaining == 0;
      }
      if (!last) return;
      Response batch;
      batch.id = state->id;
      batch.version = state->version;
      if (state->wire) {
        size_t bytes = 16;
        for (const std::string& doc : state->docs_raw) bytes += doc.size() + 1;
        std::string& raw = batch.raw_payload;
        raw.reserve(bytes);
        raw.append("{\"responses\":[");
        for (size_t i = 0; i < state->docs_raw.size(); ++i) {
          if (i > 0) raw.push_back(',');
          raw.append(state->docs_raw[i]);
        }
        raw.append("]}");
      } else {
        JsonValue responses = JsonValue::MakeArray();
        responses.Reserve(state->docs.size());
        for (JsonValue& doc : state->docs) responses.Append(std::move(doc));
        JsonValue payload = JsonValue::MakeObject();
        payload.Set("responses", std::move(responses));
        batch.payload = std::move(payload);
      }
      state->done(std::move(batch));
    });
  }
}

Response MarketplaceServer::Handle(Request request) {
  return Dispatch(std::move(request)).get();
}

std::string MarketplaceServer::HandleLine(const std::string& line) {
  Request request;
  if (const std::optional<Response> rejected =
          protocol::AdmitRequestLine(line, line_caps_, &request)) {
    return protocol::FormatResponseLine(*rejected);
  }
  if (request.op == RequestOp::kBatch) {
    // Hand the raw frame along so a single-tenancy batch journals it
    // verbatim instead of re-serializing every member.
    auto promise = std::make_shared<std::promise<Response>>();
    std::future<Response> response = promise->get_future();
    DispatchCallback(
        std::move(request),
        [promise](Response resolved) { promise->set_value(std::move(resolved)); },
        &line);
    return protocol::FormatResponseLine(response.get());
  }
  return protocol::FormatResponseLine(Handle(std::move(request)));
}

void MarketplaceServer::Drain() { pool_.Drain(); }

Result<RecoveryStats> MarketplaceServer::Recover() {
  return RecoverImpl(std::nullopt);
}

Result<RecoveryStats> MarketplaceServer::RecoverMatching(
    std::function<bool(const std::string&)> want) {
  return RecoverImpl(std::nullopt, want);
}

Result<RecoveryStats> MarketplaceServer::RecoverImpl(
    std::optional<size_t> current_worker,
    const std::function<bool(const std::string&)>& want) {
  Result<std::vector<PersistedTenancy>> loaded = store_->Load();
  if (!loaded.ok()) return loaded.status();

  std::vector<RecoverOutcome> outcomes;
  std::vector<std::future<RecoverOutcome>> posted;
  for (PersistedTenancy& persisted : *loaded) {
    if (want && !want(persisted.name)) continue;
    const size_t worker = pool_.ShardOf(ShardOf(persisted.name));
    if (current_worker.has_value() && worker == *current_worker) {
      // We occupy this tenancy's shard right now, so we ARE its
      // serializer: recover it inline (posting + waiting would deadlock
      // behind ourselves).
      try {
        outcomes.push_back(RecoverTenancy(persisted));
      } catch (const std::exception& e) {
        outcomes.push_back({Status::Internal(e.what()), {}});
      } catch (...) {
        outcomes.push_back(
            {Status::Internal("unexpected exception during recovery"), {}});
      }
      continue;
    }
    auto promise = std::make_shared<std::promise<RecoverOutcome>>();
    posted.push_back(promise->get_future());
    // The shard key must be hoisted before the Post call: its arguments
    // are indeterminately sequenced, and the lambda's init-capture moves
    // `persisted` out from under an inline ShardOf(persisted.name) —
    // which would land the task on ShardOf("") (possibly this very
    // worker, i.e. a self-deadlock for the wire restore op).
    const size_t shard = ShardOf(persisted.name);
    pool_.Post(shard,
               [this, persisted = std::move(persisted), promise]() mutable {
                 // The promise must resolve on EVERY path — an unset
                 // promise would turn future.get() below into a
                 // broken_promise exception out of a Result-returning API.
                 try {
                   promise->set_value(RecoverTenancy(persisted));
                 } catch (const std::exception& e) {
                   promise->set_value(
                       RecoverOutcome{Status::Internal(e.what()), {}});
                 } catch (...) {
                   promise->set_value(RecoverOutcome{
                       Status::Internal("unexpected exception during "
                                        "recovery"),
                       {}});
                 }
               });
  }
  for (std::future<RecoverOutcome>& future : posted) {
    outcomes.push_back(future.get());
  }

  RecoveryStats total;
  Status first_error;
  for (const RecoverOutcome& outcome : outcomes) {
    if (!outcome.status.ok() && first_error.ok()) {
      first_error = outcome.status;
    }
    total.tenancies_recovered += outcome.stats.tenancies_recovered;
    total.tenancies_skipped += outcome.stats.tenancies_skipped;
    total.snapshots_loaded += outcome.stats.snapshots_loaded;
    total.journal_records_replayed += outcome.stats.journal_records_replayed;
    total.journal_records_failed += outcome.stats.journal_records_failed;
    total.journal_torn += outcome.stats.journal_torn;
  }
  {
    std::lock_guard<std::mutex> lock(recovery_mu_);
    last_recovery_ = total;
    ++recoveries_run_;
  }
  if (!first_error.ok()) return first_error;
  return total;
}

MarketplaceServer::RecoverOutcome MarketplaceServer::RecoverTenancy(
    const PersistedTenancy& persisted) {
  RecoveryStats stats;
  if (FindTenancy(persisted.name) != nullptr) {
    stats.tenancies_skipped = 1;
    return {Status::OK(), stats};
  }
  if (persisted.snapshot.has_value()) {
    Result<TenancySnapshot> snapshot =
        TenancySnapshotFromJson(*persisted.snapshot);
    if (!snapshot.ok()) {
      return {Status::Internal("tenancy \"" + persisted.name +
                               "\": corrupt snapshot: " +
                               snapshot.status().message()),
              stats};
    }
    auto tenancy = std::make_unique<Tenancy>();
    tenancy->name = persisted.name;
    for (simdb::TableDef& table : snapshot->tables) {
      Status added = tenancy->catalog.AddTable(std::move(table));
      if (!added.ok()) {
        return {Status::Internal("tenancy \"" + persisted.name +
                                 "\": snapshot catalog rejected: " +
                                 added.message()),
                stats};
      }
    }
    tenancy->config = std::move(snapshot->config);
    tenancy->built = std::move(snapshot->built);
    tenancy->periods_run = snapshot->periods_run;
    tenancy->cumulative_balance = snapshot->cumulative_balance;
    tenancy->cumulative_utility = snapshot->cumulative_utility;
    Tenancy* loaded = tenancy.get();
    {
      std::lock_guard<std::mutex> lock(mu_);
      tenancies_.emplace(persisted.name, std::move(tenancy));
    }
    stats.snapshots_loaded = 1;
    // Reads come back online at the recovered boundary; the journal replay
    // below re-publishes views/deltas through the regular execute path.
    // (The retained report history starts empty — pre-crash periods are
    // summarized by the snapshot.)
    read_registry_.PublishView(persisted.name, BoundaryOf(*loaded), nullptr);
  }
  // Replay the journal tail through the exact dispatch path that produced
  // it; persist=false keeps the on-disk journal untouched (it still
  // represents these very records, so snapshot + journal stays the truth).
  for (const std::string& line : persisted.journal) {
    Result<Request> request = protocol::ParseRequestLine(line);
    if (!request.ok()) {
      // An unparseable record can only be a torn tail; everything after it
      // was never acknowledged, so stop here.
      ++stats.journal_torn;
      break;
    }
    const Response response = Execute(*request, /*persist=*/false);
    ++stats.journal_records_replayed;
    if (!response.ok()) ++stats.journal_records_failed;
  }
  if (persisted.torn_tail) ++stats.journal_torn;
  if (FindTenancy(persisted.name) != nullptr) {
    stats.tenancies_recovered = 1;
  }
  return {Status::OK(), stats};
}

Status MarketplaceServer::Shutdown() {
  shutdown_requested_.store(true);
  pool_.Drain();
  if (shut_down_.exchange(true)) return Status::OK();
  // Post-drain and with dispatching stopped (the caller's contract),
  // nothing touches tenancy state concurrently.
  std::vector<Tenancy*> all;
  {
    std::lock_guard<std::mutex> lock(mu_);
    all.reserve(tenancies_.size());
    for (const auto& [name, tenancy] : tenancies_) {
      all.push_back(tenancy.get());
    }
  }
  Status first_error;
  for (Tenancy* tenancy : all) {
    // Period-boundary tenancies checkpoint (snapshot + truncated journal);
    // a tenancy with an open period keeps its journal — fsync'd — so the
    // period replays on the next Recover instead of being forfeited.
    const Status persisted =
        tenancy->session.has_value()
            ? store_->Sync(tenancy->name)
            : store_->Checkpoint(tenancy->name, SnapshotOf(*tenancy));
    if (persisted.ok()) {
      unsynced_total_.fetch_sub(tenancy->unsynced_appends,
                                std::memory_order_relaxed);
      tenancy->unsynced_appends = 0;
    }
    if (!persisted.ok()) {
      OPTSHARE_LOG(Warning) << "shutdown: tenancy \"" << tenancy->name
                            << "\" not fully persisted: "
                            << persisted.ToString();
      if (first_error.ok()) first_error = persisted;
    }
  }
  return first_error;
}

Response MarketplaceServer::Execute(const Request& request, bool persist) {
  // Journal replay (persist=false) re-executes past requests; only live
  // traffic counts toward the per-op request counters and latency
  // histograms. Atomic-batch members are live but already journaled, so
  // DispatchBatch calls the three-arg form with the flags split.
  return Execute(request, persist, /*count_metrics=*/persist);
}

Response MarketplaceServer::Execute(const Request& request, bool persist,
                                    bool count_metrics) {
  const auto start = std::chrono::steady_clock::now();
  if (count_metrics) {
    op_counts_[static_cast<size_t>(request.op)].fetch_add(
        1, std::memory_order_relaxed);
  }
  Response response;
  switch (request.op) {
    case RequestOp::kListMechanisms:
      response = ListMechanisms(request);
      break;
    case RequestOp::kServerInfo:
      response = ExecuteServerInfo(request);
      break;
    case RequestOp::kRestore:
      response = ExecuteRestore(request);
      break;
    case RequestOp::kReplAppend:
      response = ExecuteReplAppend(request);
      break;
    case RequestOp::kReplCheckpoint:
      response = ExecuteReplCheckpoint(request);
      break;
    case RequestOp::kReplSync:
      response = ExecuteReplSync(request);
      break;
    case RequestOp::kTenancyState:
      response = ExecuteTenancyState(request);
      break;
    case RequestOp::kEvict:
      response = ExecuteEvict(request, persist);
      break;
    case RequestOp::kClusterUpdate:
      response = ExecuteClusterUpdate(request);
      break;
    case RequestOp::kQueryPrice:
      response = ExecuteQueryPrice(request);
      break;
    case RequestOp::kExport:
      response = ExecuteExport(request);
      break;
    case RequestOp::kShutdown: {
      shutdown_requested_.store(true);
      JsonValue payload = JsonValue::MakeObject();
      payload.Set("draining", JsonValue::Bool(true));
      response = OkResponse(request.id, std::move(payload));
      break;
    }
    case RequestOp::kOpenPeriod:
      response = ExecuteOpenPeriod(request, persist);
      break;
    case RequestOp::kBatch: {
      // Only journal replay reaches here — live batch frames fan out in
      // DispatchBatch before Execute. Replaying one atomic group record
      // re-executes its members in order, all-or-nothing per tenancy.
      JsonValue docs = JsonValue::MakeArray();
      docs.Reserve(request.requests.size());
      for (const Request& member : request.requests) {
        docs.Append(protocol::ToJson(Execute(member, persist, count_metrics)));
      }
      JsonValue payload = JsonValue::MakeObject();
      payload.Set("responses", std::move(docs));
      response = OkResponse(request.id, std::move(payload));
      break;
    }
    default:
      response = ExecuteTenancyOp(request, persist);
      break;
  }
  // Responses speak the client's protocol version, never a newer one.
  response.version = request.version;
  if (count_metrics) {
    op_latency_[static_cast<size_t>(request.op)].Record(
        static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::microseconds>(
                std::chrono::steady_clock::now() - start)
                .count()));
  }
  return response;
}

Response MarketplaceServer::ListMechanisms(const Request& request) {
  JsonValue names = JsonValue::MakeArray();
  for (const std::string& name : MechanismRegistry::Global().Names()) {
    names.Append(JsonValue::Str(name));
  }
  JsonValue payload = JsonValue::MakeObject();
  payload.Set("mechanisms", std::move(names));
  return OkResponse(request.id, std::move(payload));
}

Response MarketplaceServer::ExecuteServerInfo(const Request& request) {
  JsonValue payload = JsonValue::MakeObject();
  payload.Set("store", JsonValue::Str(std::string(store_->kind())));
  payload.Set("workers", JsonValue::Number(pool_.num_threads()));
  {
    std::lock_guard<std::mutex> lock(mu_);
    payload.Set("tenancies",
                JsonValue::Number(static_cast<double>(tenancies_.size())));
  }
  JsonValue protocol_info = JsonValue::MakeObject();
  protocol_info.Set("min", JsonValue::Number(protocol::kMinProtocolVersion));
  protocol_info.Set("max", JsonValue::Number(protocol::kProtocolVersion));
  payload.Set("protocol", std::move(protocol_info));
  const StateStoreStats store_stats = store_->stats();
  JsonValue store_info = JsonValue::MakeObject();
  store_info.Set("appends",
                 JsonValue::Number(static_cast<double>(store_stats.appends)));
  store_info.Set(
      "checkpoints",
      JsonValue::Number(static_cast<double>(store_stats.checkpoints)));
  store_info.Set("syncs",
                 JsonValue::Number(static_cast<double>(store_stats.syncs)));
  payload.Set("store_stats", std::move(store_info));
  JsonValue ops = JsonValue::MakeObject();
  for (protocol::RequestOp op : protocol::kAllRequestOps) {
    const uint64_t count =
        op_counts_[static_cast<size_t>(op)].load(std::memory_order_relaxed);
    if (count > 0) {
      ops.Set(std::string(protocol::RequestOpName(op)),
              JsonValue::Number(static_cast<double>(count)));
    }
  }
  payload.Set("ops", std::move(ops));
  if (std::optional<JsonValue> replication = store_->ReplicationInfo()) {
    payload.Set("replication", std::move(*replication));
  }
  {
    std::lock_guard<std::mutex> lock(recovery_mu_);
    payload.Set("recoveries_run", JsonValue::Number(recoveries_run_));
    payload.Set("recovery", ToJson(last_recovery_));
  }
  JsonValue read_path = read_registry_.InfoJson();
  read_path.Set("enabled", JsonValue::Bool(enable_read_path_));
  read_path.Set("reads_served",
                JsonValue::Number(static_cast<double>(
                    reads_served_.load(std::memory_order_relaxed))));
  read_path.Set("fallbacks",
                JsonValue::Number(static_cast<double>(
                    read_fallbacks_.load(std::memory_order_relaxed))));
  read_path.Set("export_rows_written",
                JsonValue::Number(static_cast<double>(
                    export_rows_written_.load(std::memory_order_relaxed))));
  payload.Set("read_path", std::move(read_path));
  // The scrapeable metrics surface (protocol v3): per-op latency
  // histograms, live shard queue depths, journal fsync lag, admission
  // counters. `optshare_cli metrics` pretty-prints exactly this section.
  JsonValue metrics = JsonValue::MakeObject();
  JsonValue latency = JsonValue::MakeObject();
  for (protocol::RequestOp op : protocol::kAllRequestOps) {
    const LatencyHistogram& histogram = op_latency_[static_cast<size_t>(op)];
    if (histogram.count() > 0) {
      latency.Set(std::string(protocol::RequestOpName(op)),
                  histogram.ToJson());
    }
  }
  metrics.Set("latency_us", std::move(latency));
  JsonValue depths = JsonValue::MakeArray();
  for (size_t depth : pool_.QueueDepths()) {
    depths.Append(JsonValue::Number(static_cast<double>(depth)));
  }
  metrics.Set("shard_queue_depths", std::move(depths));
  JsonValue journal = JsonValue::MakeObject();
  journal.Set("fsync_lag",
              JsonValue::Number(static_cast<double>(
                  unsynced_total_.load(std::memory_order_relaxed))));
  metrics.Set("journal", std::move(journal));
  metrics.Set("admission", admission_.InfoJson());
  payload.Set("metrics", std::move(metrics));
  {
    // Held across the call so SetTransportInfoProvider(nullptr) cannot pull
    // the provider's state out from under an in-flight server_info.
    std::lock_guard<std::mutex> lock(transport_mu_);
    if (transport_info_) payload.Set("transport", transport_info_());
  }
  return OkResponse(request.id, std::move(payload));
}

void MarketplaceServer::SetTransportInfoProvider(
    std::function<JsonValue()> provider) {
  std::lock_guard<std::mutex> lock(transport_mu_);
  transport_info_ = std::move(provider);
}

void MarketplaceServer::SetClusterUpdateHandler(
    std::function<Result<JsonValue>(const JsonValue&)> handler) {
  std::lock_guard<std::mutex> lock(cluster_mu_);
  cluster_update_ = std::move(handler);
}

Response MarketplaceServer::ExecuteRestore(const Request& request) {
  // This runs on the worker the empty-name shard maps to; tenancies
  // hashing there are recovered inline (see RecoverImpl). A tenancy
  // filter (the cluster failover path) restricts the pass to that name,
  // so a router never resurrects tenancies this node merely replicates.
  std::function<bool(const std::string&)> want;
  if (!request.tenancy.empty()) {
    const std::string only = request.tenancy;
    want = [only](const std::string& name) { return name == only; };
  }
  // DispatchCallback sharded this request on ShardOf(request.tenancy)
  // ("" for a full restore), so that is the worker we occupy right now.
  Result<RecoveryStats> stats =
      RecoverImpl(pool_.ShardOf(ShardOf(request.tenancy)), want);
  if (!stats.ok()) return ErrorResponse(request.id, stats.status());
  return OkResponse(request.id, ToJson(*stats));
}

// -- Cluster ops ------------------------------------------------------------
//
// The repl_* ops are the replication target's write surface: they apply
// StateStore primitives with the exact wire bytes the source's store saw,
// so a replica's `snapshot + journal` is byte-identical to the source's
// and failover recovery IS single-node recovery. They write through
// ReplicationBase() — on a replicating node that is the wrapped base
// store, which keeps replica-applied records from being re-streamed
// (A→B→A forever in a two-node ring).

Response MarketplaceServer::ExecuteReplAppend(const Request& request) {
  Status appended =
      store_->ReplicationBase()->Append(request.tenancy, request.record);
  if (!appended.ok()) return ErrorResponse(request.id, appended);
  JsonValue payload = JsonValue::MakeObject();
  payload.Set("appended", JsonValue::Bool(true));
  return OkResponse(request.id, std::move(payload));
}

Response MarketplaceServer::ExecuteReplCheckpoint(const Request& request) {
  if (!request.snapshot.has_value()) {
    return ErrorResponse(request.id, Status::InvalidArgument(
                                         "repl_checkpoint needs a snapshot"));
  }
  Status checkpointed =
      store_->ReplicationBase()->Checkpoint(request.tenancy,
                                            *request.snapshot);
  if (!checkpointed.ok()) return ErrorResponse(request.id, checkpointed);
  JsonValue payload = JsonValue::MakeObject();
  payload.Set("checkpointed", JsonValue::Bool(true));
  return OkResponse(request.id, std::move(payload));
}

Response MarketplaceServer::ExecuteReplSync(const Request& request) {
  Status synced = store_->ReplicationBase()->Sync(request.tenancy);
  if (!synced.ok()) return ErrorResponse(request.id, synced);
  JsonValue payload = JsonValue::MakeObject();
  payload.Set("synced", JsonValue::Bool(true));
  return OkResponse(request.id, std::move(payload));
}

Response MarketplaceServer::ExecuteTenancyState(const Request& request) {
  Result<std::optional<PersistedTenancy>> loaded =
      store_->LoadTenancy(request.tenancy);
  if (!loaded.ok()) return ErrorResponse(request.id, loaded.status());
  if (!loaded->has_value()) {
    return ErrorResponse(request.id,
                         Status::NotFound("no persisted state for tenancy \"" +
                                          request.tenancy + "\""));
  }
  const PersistedTenancy& persisted = **loaded;
  JsonValue payload = JsonValue::MakeObject();
  payload.Set("tenancy", JsonValue::Str(persisted.name));
  if (persisted.snapshot.has_value()) {
    payload.Set("snapshot", *persisted.snapshot);
  }
  JsonValue journal = JsonValue::MakeArray();
  journal.Reserve(persisted.journal.size());
  for (const std::string& line : persisted.journal) {
    journal.Append(JsonValue::Str(line));
  }
  payload.Set("journal", std::move(journal));
  payload.Set("torn_tail", JsonValue::Bool(persisted.torn_tail));
  return OkResponse(request.id, std::move(payload));
}

Response MarketplaceServer::ExecuteEvict(const Request& request,
                                         bool persist) {
  Tenancy* tenancy = FindTenancy(request.tenancy);
  if (tenancy == nullptr) {
    // Idempotent: re-running a rebalance whose source already dropped the
    // tenancy must not fail the whole hand-off.
    JsonValue payload = JsonValue::MakeObject();
    payload.Set("evicted", JsonValue::Bool(false));
    return OkResponse(request.id, std::move(payload));
  }
  if (tenancy->session.has_value()) {
    return ErrorResponse(
        request.id,
        Status::FailedPrecondition(
            "tenancy \"" + request.tenancy +
            "\" has an open period; evict works at period boundaries"));
  }
  if (persist) {
    Status checkpointed =
        store_->Checkpoint(tenancy->name, SnapshotOf(*tenancy));
    if (!checkpointed.ok()) return ErrorResponse(request.id, checkpointed);
  }
  const int periods_run = tenancy->periods_run;
  // The live struct (and its share of the fsync-lag gauge) goes away with
  // the erase below.
  unsynced_total_.fetch_sub(tenancy->unsynced_appends,
                            std::memory_order_relaxed);
  {
    // Safe on this shard for the same reason the failed-open rollback is:
    // this worker is the only toucher of the name, and erasing one entry
    // leaves other tenancies' pointers stable. The persisted state stays —
    // evict drops the LIVE tenancy only; the store still holds the
    // checkpoint the rebalance target will import.
    std::lock_guard<std::mutex> lock(mu_);
    tenancies_.erase(request.tenancy);
  }
  // Drop the read state too: a rebalance target owns the reads from here
  // on, and a stale local view must not outlive the hand-off.
  read_registry_.Drop(request.tenancy);
  JsonValue payload = JsonValue::MakeObject();
  payload.Set("evicted", JsonValue::Bool(true));
  payload.Set("periods_run", JsonValue::Number(periods_run));
  return OkResponse(request.id, std::move(payload));
}

Response MarketplaceServer::ExecuteClusterUpdate(const Request& request) {
  if (!request.placement.has_value()) {
    return ErrorResponse(request.id, Status::InvalidArgument(
                                         "cluster_update needs a placement"));
  }
  std::lock_guard<std::mutex> lock(cluster_mu_);
  if (!cluster_update_) {
    return ErrorResponse(
        request.id,
        Status::FailedPrecondition(
            "this server is not a cluster node (no placement handler)"));
  }
  Result<JsonValue> payload = cluster_update_(*request.placement);
  if (!payload.ok()) return ErrorResponse(request.id, payload.status());
  return OkResponse(request.id, std::move(*payload));
}

// -- The HTAP read path ------------------------------------------------------
//
// TryServeRead answers snapshot-servable ops from the published ReadView
// atoms on the CALLER's thread — no shard hop, no queueing behind writes.
// Everything here must therefore be thread-safe against the shard workers:
// it only ever touches the registry's immutable snapshots, atomics, and
// mutex-guarded sections, never a live Tenancy.

bool MarketplaceServer::TryServeRead(const Request& request, Response* out) {
  switch (request.op) {
    case RequestOp::kServerInfo:
    case RequestOp::kExport:
      op_counts_[static_cast<size_t>(request.op)].fetch_add(
          1, std::memory_order_relaxed);
      *out = request.op == RequestOp::kServerInfo ? ExecuteServerInfo(request)
                                                  : ExecuteExport(request);
      reads_served_.fetch_add(1, std::memory_order_relaxed);
      return true;
    case RequestOp::kReport:
    case RequestOp::kQueryPrice: {
      if (request.tenancy.empty()) return false;  // Shard path owns the error.
      const std::shared_ptr<const analytics::ReadState> state =
          read_registry_.Read(request.tenancy);
      if (state == nullptr || state->view == nullptr) {
        // No published view — in practice an unknown tenancy. The write
        // path owns the answer (and its exact error wording).
        read_fallbacks_.fetch_add(1, std::memory_order_relaxed);
        return false;
      }
      op_counts_[static_cast<size_t>(request.op)].fetch_add(
          1, std::memory_order_relaxed);
      if (request.op == RequestOp::kQueryPrice) {
        *out = ExecuteQueryPrice(request);
      } else if (request.period > 0) {
        Result<JsonValue> payload =
            analytics::HistoricalReportPayload(*state, request.period);
        *out = payload.ok() ? OkResponse(request.id, std::move(*payload))
                            : ErrorResponse(request.id, payload.status());
      } else {
        *out = OkResponse(request.id, analytics::ReportPayload(*state));
      }
      reads_served_.fetch_add(1, std::memory_order_relaxed);
      return true;
    }
    default:
      return false;
  }
}

Response MarketplaceServer::ExecuteQueryPrice(const Request& request) {
  if (request.tenancy.empty()) {
    return ErrorResponse(
        request.id, Status::InvalidArgument("request needs a tenancy name"));
  }
  const std::shared_ptr<const analytics::ReadState> state =
      read_registry_.Read(request.tenancy);
  if (state == nullptr || state->view == nullptr) {
    return ErrorResponse(request.id,
                         Status::NotFound("unknown tenancy \"" +
                                          request.tenancy + "\""));
  }
  // What-if pricing against the period-boundary snapshot: deterministic,
  // read-only, and identical no matter which thread (or path) runs it.
  const TenancySnapshot& boundary = state->view->boundary;
  simdb::Catalog catalog;
  for (const simdb::TableDef& table : boundary.tables) {
    Status added = catalog.AddTable(table);
    if (!added.ok()) {
      return ErrorResponse(
          request.id,
          Status::Internal("tenancy \"" + request.tenancy +
                           "\": snapshot catalog rejected: " +
                           added.message()));
    }
  }
  const simdb::CostModel model(&catalog);
  const simdb::PricingModel pricing(boundary.config.pricing);
  Result<std::vector<simdb::Proposal>> proposals = simdb::ProposeOptimizations(
      catalog, model, pricing, request.tenants, boundary.config.advisor);
  if (!proposals.ok()) return ErrorResponse(request.id, proposals.status());

  JsonValue quotes = JsonValue::MakeArray();
  quotes.Reserve(proposals->size());
  double total_cost = 0.0, total_savings = 0.0;
  for (const simdb::Proposal& proposal : *proposals) {
    const std::string name = proposal.spec.DisplayName();
    JsonValue quote = JsonValue::MakeObject();
    quote.Set("name", JsonValue::Str(name));
    quote.Set("cost", JsonValue::Number(proposal.cost));
    quote.Set("total_savings", JsonValue::Number(proposal.total_savings));
    quote.Set("benefit_ratio", JsonValue::Number(proposal.BenefitRatio()));
    quote.Set("already_built",
              JsonValue::Bool(std::find(boundary.built.begin(),
                                        boundary.built.end(),
                                        name) != boundary.built.end()));
    quotes.Append(std::move(quote));
    total_cost += proposal.cost;
    total_savings += proposal.total_savings;
  }
  JsonValue payload = JsonValue::MakeObject();
  payload.Set("tenancy", JsonValue::Str(boundary.name));
  payload.Set("based_on_period", JsonValue::Number(boundary.periods_run));
  payload.Set("num_tenants",
              JsonValue::Number(static_cast<double>(request.tenants.size())));
  payload.Set("proposals", std::move(quotes));
  payload.Set("total_cost", JsonValue::Number(total_cost));
  payload.Set("total_savings", JsonValue::Number(total_savings));
  return OkResponse(request.id, std::move(payload));
}

Response MarketplaceServer::ExecuteExport(const Request& request) {
  if (export_dir_.empty()) {
    return ErrorResponse(
        request.id,
        Status::FailedPrecondition(
            "this server has no export directory (start with --export-dir)"));
  }
  std::vector<std::string> names;
  if (!request.tenancy.empty()) {
    names.push_back(request.tenancy);
  } else {
    names = read_registry_.TenancyNames();
  }
  // One export pass at a time over the directory; reads inside the pass
  // are still lock-free snapshots.
  std::lock_guard<std::mutex> lock(export_mu_);
  analytics::ColumnarWriter writer(export_dir_);
  int exported = 0;
  for (const std::string& name : names) {
    const std::shared_ptr<const analytics::ReadState> state =
        read_registry_.Read(name);
    if (state == nullptr || state->view == nullptr) {
      if (!request.tenancy.empty()) {
        return ErrorResponse(
            request.id, Status::NotFound("unknown tenancy \"" + name + "\""));
      }
      continue;  // Raced an evict; the tenancy is gone either way.
    }
    analytics::TenancyExport item;
    item.boundary = state->view->boundary;
    item.reports = *state->view->history;
    writer.Add(item);
    ++exported;
  }
  Result<analytics::ColumnarExportStats> stats = writer.Finish();
  if (!stats.ok()) return ErrorResponse(request.id, stats.status());
  export_rows_written_.fetch_add(stats->rows(), std::memory_order_relaxed);
  JsonValue payload = JsonValue::MakeObject();
  payload.Set("export_dir", JsonValue::Str(export_dir_));
  payload.Set("tenancies", JsonValue::Number(exported));
  payload.Set("ledger_rows",
              JsonValue::Number(static_cast<double>(stats->ledger_rows)));
  payload.Set("report_rows",
              JsonValue::Number(static_cast<double>(stats->report_rows)));
  payload.Set("period_rows",
              JsonValue::Number(static_cast<double>(stats->period_rows)));
  payload.Set("rows", JsonValue::Number(static_cast<double>(stats->rows())));
  payload.Set("files_written", JsonValue::Number(stats->files_written));
  return OkResponse(request.id, std::move(payload));
}

Response MarketplaceServer::ExecuteOpenPeriod(const Request& request,
                                              bool persist) {
  if (request.tenancy.empty()) {
    return ErrorResponse(request.id, Status::InvalidArgument(
                                         "open_period needs a tenancy name"));
  }
  Tenancy* tenancy = FindTenancy(request.tenancy);
  const bool creating = tenancy == nullptr;
  if (creating) {
    if (!request.catalog) {
      return ErrorResponse(
          request.id,
          Status::NotFound("unknown tenancy \"" + request.tenancy +
                           "\"; the first open_period must carry a catalog "
                           "spec"));
    }
    Result<simdb::Catalog> catalog = BuildCatalog(*request.catalog);
    if (!catalog.ok()) return ErrorResponse(request.id, catalog.status());
    // WAL: the creating open is journaled before the tenancy exists, so a
    // crash right after the append replays to the same creation.
    if (persist) {
      Status journaled = store_->Append(request.tenancy,
                                        protocol::ToJson(request).Dump());
      if (!journaled.ok()) return ErrorResponse(request.id, journaled);
    }
    auto fresh = std::make_unique<Tenancy>();
    fresh->name = request.tenancy;
    fresh->catalog = std::move(*catalog);
    // The creating append above is this tenancy's first unsynced record.
    if (persist) {
      fresh->unsynced_appends = 1;
      unsynced_total_.fetch_add(1, std::memory_order_relaxed);
    }
    tenancy = fresh.get();
    {
      std::lock_guard<std::mutex> lock(mu_);
      tenancies_.emplace(request.tenancy, std::move(fresh));
    }
    OPTSHARE_LOG(Info) << "tenancy \"" << request.tenancy << "\" created on "
                       << "shard " << pool_.ShardOf(ShardOf(request.tenancy));
  } else if (request.catalog) {
    return ErrorResponse(
        request.id,
        Status::InvalidArgument("tenancy \"" + request.tenancy +
                                "\" already exists; a catalog spec is only "
                                "accepted on the creating open_period"));
  }

  if (tenancy->session) {
    return ErrorResponse(request.id, Status::FailedPrecondition(
                                         "tenancy \"" + request.tenancy +
                                         "\" already has an open period"));
  }
  if (!creating && persist) {
    Status journaled =
        store_->Append(request.tenancy, protocol::ToJson(request).Dump());
    if (!journaled.ok()) return ErrorResponse(request.id, journaled);
    ++tenancy->unsynced_appends;
    unsynced_total_.fetch_add(1, std::memory_order_relaxed);
  }
  const ServiceConfig config =
      request.config ? *request.config : tenancy->config;
  Result<PricingSession> session = PricingSession::Open(
      &tenancy->catalog, config, tenancy->built, tenancy->periods_run + 1);
  if (!session.ok()) {
    if (creating) {
      // A creating open that fails leaves no tenancy behind: roll the
      // insertion back (safe — this shard is the only toucher of the name,
      // and erasing one entry leaves other tenancies' pointers stable).
      // The journal record stays: replaying it reproduces this exact
      // rollback (or a harmless already-exists error if a snapshot
      // restores the tenancy first). Deliberately NOT store_->Remove():
      // the store may hold a previous incarnation of the name that this
      // process never loaded (e.g. Recover was skipped or failed), and a
      // failed open must not destroy that history.
      unsynced_total_.fetch_sub(tenancy->unsynced_appends,
                                std::memory_order_relaxed);
      std::lock_guard<std::mutex> lock(mu_);
      tenancies_.erase(request.tenancy);
    }
    return ErrorResponse(request.id, session.status());
  }
  tenancy->config = config;  // The accepted config becomes sticky.
  // Admission follows the sticky config — and because open_period is
  // journaled, this very call re-runs on replay, so a recovered tenancy
  // keeps its quota. A default admission config reverts the tenancy to
  // the server-wide quota.
  admission_.SetTenancyLimit(request.tenancy, config.admission);
  tenancy->session.emplace(std::move(*session));
  // A creating open is this tenancy's first period boundary (period 0);
  // every open also publishes the fresh delta so mid-period reads see the
  // period as open before the ack fires.
  if (creating) {
    read_registry_.PublishView(request.tenancy, BoundaryOf(*tenancy), nullptr);
  }
  read_registry_.PublishDelta(request.tenancy, DeltaOf(*tenancy));

  JsonValue payload = JsonValue::MakeObject();
  payload.Set("period", JsonValue::Number(tenancy->periods_run + 1));
  payload.Set("slots_per_period",
              JsonValue::Number(tenancy->config.slots_per_period));
  payload.Set("mechanism", JsonValue::Str(tenancy->config.mechanism));
  JsonValue carried = JsonValue::MakeArray();
  for (const std::string& name : tenancy->built) {
    carried.Append(JsonValue::Str(name));
  }
  payload.Set("carried_structures", std::move(carried));
  return OkResponse(request.id, std::move(payload));
}

Response MarketplaceServer::ExecuteSnapshot(const Request& request,
                                            Tenancy& tenancy, bool persist) {
  if (tenancy.session.has_value()) {
    return ErrorResponse(
        request.id,
        Status::FailedPrecondition(
            "tenancy \"" + request.tenancy +
            "\" has an open period; snapshot works at period boundaries "
            "(the open period is already journaled)"));
  }
  if (persist) {
    Status checkpointed =
        store_->Checkpoint(tenancy.name, SnapshotOf(tenancy));
    if (!checkpointed.ok()) return ErrorResponse(request.id, checkpointed);
    unsynced_total_.fetch_sub(tenancy.unsynced_appends,
                              std::memory_order_relaxed);
    tenancy.unsynced_appends = 0;
  }
  JsonValue payload = JsonValue::MakeObject();
  payload.Set("checkpointed", JsonValue::Bool(true));
  payload.Set("store", JsonValue::Str(std::string(store_->kind())));
  payload.Set("periods_run", JsonValue::Number(tenancy.periods_run));
  return OkResponse(request.id, std::move(payload));
}

Response MarketplaceServer::ExecuteTenancyOp(const Request& request,
                                             bool persist) {
  if (request.tenancy.empty()) {
    return ErrorResponse(
        request.id, Status::InvalidArgument("request needs a tenancy name"));
  }
  Tenancy* tenancy = FindTenancy(request.tenancy);
  if (tenancy == nullptr) {
    return ErrorResponse(request.id,
                         Status::NotFound("unknown tenancy \"" +
                                          request.tenancy + "\""));
  }

  if (request.op == RequestOp::kSnapshot) {
    return ExecuteSnapshot(request, *tenancy, persist);
  }

  if (request.op == RequestOp::kReport) {
    if (request.period > 0) {
      // Historical reports live in the analytics history on BOTH paths, so
      // read-path-on and read-path-off servers answer identically.
      const std::shared_ptr<const analytics::ReadState> state =
          read_registry_.Read(request.tenancy);
      if (state == nullptr || state->view == nullptr) {
        return ErrorResponse(
            request.id,
            Status::NotFound(
                "no report retained for period " +
                std::to_string(request.period) + " of tenancy \"" +
                request.tenancy +
                "\" (reports are retained in-memory since the tenancy was "
                "rebuilt)"));
      }
      Result<JsonValue> payload =
          analytics::HistoricalReportPayload(*state, request.period);
      if (!payload.ok()) return ErrorResponse(request.id, payload.status());
      return OkResponse(request.id, std::move(*payload));
    }
    JsonValue payload = JsonValue::MakeObject();
    payload.Set("tenancy", JsonValue::Str(tenancy->name));
    payload.Set("periods_run", JsonValue::Number(tenancy->periods_run));
    payload.Set("period_open", JsonValue::Bool(tenancy->session.has_value()));
    payload.Set("current_slot",
                JsonValue::Number(
                    tenancy->session ? tenancy->session->slots_advanced() : 0));
    payload.Set("num_tenants",
                JsonValue::Number(
                    tenancy->session ? tenancy->session->num_tenants() : 0));
    JsonValue built = JsonValue::MakeArray();
    for (const std::string& name : tenancy->built) {
      built.Append(JsonValue::Str(name));
    }
    payload.Set("built_structures", std::move(built));
    payload.Set("cumulative_balance",
                JsonValue::Number(tenancy->cumulative_balance));
    payload.Set("cumulative_utility",
                JsonValue::Number(tenancy->cumulative_utility));
    return OkResponse(request.id, std::move(payload));
  }

  // Every remaining op drives the open period.
  if (!tenancy->session) {
    return ErrorResponse(request.id, Status::FailedPrecondition(
                                         "tenancy \"" + request.tenancy +
                                         "\" has no open period"));
  }
  // WAL: the record lands in the journal before the op touches the
  // session, because submit and advance_slot mutate even when they fail
  // partway — replaying the identical request reproduces the identical
  // partial effect. If the journal write fails, the op does not run.
  if (persist && OpMutatesTenancy(request.op)) {
    Status journaled =
        store_->Append(request.tenancy, protocol::ToJson(request).Dump());
    if (!journaled.ok()) return ErrorResponse(request.id, journaled);
    ++tenancy->unsynced_appends;
    unsynced_total_.fetch_add(1, std::memory_order_relaxed);
  }
  PricingSession& session = *tenancy->session;
  // Branches assign `response` and break (instead of returning) so the
  // delta publish below runs after EVERY session-touching op — including
  // partial failures: a rejected batch submit still admitted its earlier
  // tenants, and the read path must see them.
  Response response;
  switch (request.op) {
    case RequestOp::kSubmit: {
      JsonValue ids = JsonValue::MakeArray();
      ids.Reserve(request.tenants.size());
      Status first_error;
      for (const simdb::SimUser& tenant : request.tenants) {
        Result<UserId> id = session.Submit(tenant);
        // Stop at the first rejection, like PricingSession's batch Submit;
        // tenants admitted before it stay admitted.
        if (!id.ok()) {
          first_error = id.status();
          break;
        }
        ids.Append(JsonValue::Number(*id));
      }
      if (!first_error.ok()) {
        response = ErrorResponse(request.id, first_error);
        break;
      }
      JsonValue payload = JsonValue::MakeObject();
      payload.Set("tenant_ids", std::move(ids));
      response = OkResponse(request.id, std::move(payload));
      break;
    }
    case RequestOp::kDepart: {
      Status st = session.Depart(request.tenant);
      response = st.ok() ? OkResponse(request.id, JsonValue::MakeObject())
                         : ErrorResponse(request.id, st);
      break;
    }
    case RequestOp::kAdvanceSlot: {
      Status first_error;
      for (int i = 0; i < request.slots; ++i) {
        Status st = session.AdvanceSlot();
        if (!st.ok()) {
          first_error = st;
          break;
        }
      }
      if (!first_error.ok()) {
        response = ErrorResponse(request.id, first_error);
        break;
      }
      JsonValue payload = JsonValue::MakeObject();
      payload.Set("slot", JsonValue::Number(session.slots_advanced()));
      payload.Set("slots_advanced", JsonValue::Number(request.slots));
      response = OkResponse(request.id, std::move(payload));
      break;
    }
    case RequestOp::kClosePeriod: {
      Result<PeriodReport> report = session.Close();
      if (!report.ok()) {
        response = ErrorResponse(request.id, report.status());
        break;
      }
      ++tenancy->periods_run;
      tenancy->built = session.built_structures();
      tenancy->cumulative_balance += report->ledger.CloudBalance();
      tenancy->cumulative_utility += report->ledger.TotalUtility();
      tenancy->session.reset();
      if (persist) {
        // The period boundary is the durability point: snapshot the new
        // state and truncate the journal, fsync'd. A failed checkpoint is
        // survivable — the journal still holds the whole period, so
        // recovery replays it instead.
        Status checkpointed =
            store_->Checkpoint(tenancy->name, SnapshotOf(*tenancy));
        if (!checkpointed.ok()) {
          OPTSHARE_LOG(Warning)
              << "tenancy \"" << tenancy->name
              << "\": close_period checkpoint failed (journal retained): "
              << checkpointed.ToString();
        } else {
          unsynced_total_.fetch_sub(tenancy->unsynced_appends,
                                    std::memory_order_relaxed);
          tenancy->unsynced_appends = 0;
        }
      }
      // The read path's period boundary: a fresh view with this report
      // appended to the retained history, published before the close ack.
      read_registry_.PublishView(tenancy->name, BoundaryOf(*tenancy),
                                 &*report);
      JsonValue payload = JsonValue::MakeObject();
      payload.Set("report", protocol::ToJson(*report));
      response = OkResponse(request.id, std::move(payload));
      break;
    }
    default:
      response =
          ErrorResponse(request.id, Status::Internal("unhandled request op"));
      break;
  }
  // Read-your-writes: the delta lands in the registry before `done` fires,
  // so a client that awaited this op's ack observes its effect on the read
  // path. (After close_period the session is gone and PublishView above
  // already reset the delta.)
  if (tenancy->session.has_value()) {
    read_registry_.PublishDelta(tenancy->name, DeltaOf(*tenancy));
  }
  return response;
}

}  // namespace optshare::service
