// MarketplaceServer: the multi-tenant front end of the pricing service.
// Where PricingSession is one billing period for one caller,
// MarketplaceServer owns many named tenancies — each a catalog plus a
// sequence of PricingSession periods with carried-over structures — and
// drives them through the versioned wire protocol (service/protocol.h):
//
//   MarketplaceServer server({.num_workers = 8});
//   server.CreateTenancy("acme", std::move(catalog));       // or open_period
//   auto future = server.Dispatch(open_period_request);      //   with a
//   protocol::Response r = future.get();                     //   CatalogSpec
//
// Execution is sharded: tenancy names hash onto a worker pool
// (common/thread_pool.h), so requests for one tenancy execute strictly in
// dispatch order on one worker — the per-tenancy state (catalog, open
// session, built-structure set) needs no locks — while distinct tenancies
// price concurrently. Shared read paths are shareable by construction: the
// MechanismRegistry is mutex-guarded, simdb::Catalog is only read once a
// tenancy is created, and each PricingSession lives entirely on its shard.
//
// Durability (service/state_store.h): every state-mutating request is
// journaled to the server's StateStore before it executes (WAL), and each
// close_period checkpoints the tenancy's period-boundary state and
// truncates the journal. Recover() inverts that: it loads each persisted
// tenancy's snapshot and replays its journal tail through the same
// bit-identical dispatch path, restoring catalogs, carried built-sets,
// period counters and cumulative ledgers — including a period that was
// open when the process died. The default MemoryStateStore keeps the
// pre-durability behavior; FileStateStore persists across processes.
//
// Replaying a recorded request stream through Dispatch/HandleLine yields
// PeriodReports bit-identical to driving a PricingSession directly with the
// same tenants (tests/service_server_test.cc); PricingSession and
// CloudService::RunPeriod remain the embedded single-tenant adapters.
#pragma once

#include <algorithm>
#include <atomic>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "analytics/read_view.h"
#include "common/thread_pool.h"
#include "service/admission.h"
#include "service/metrics.h"
#include "service/pricing_session.h"
#include "service/protocol.h"
#include "service/state_store.h"

namespace optshare::service {

struct ServerOptions {
  /// Worker threads requests shard onto (clamped to >= 1). Tenancies whose
  /// names hash to the same shard share a worker; 8 matches the bench
  /// sweep's top end.
  int num_workers = 4;
  /// Cap on one request line that is not a v3 batch frame; longer lines
  /// answer ResourceExhausted. 0 disables both caps.
  size_t max_request_bytes = protocol::kDefaultMaxRequestBytes;
  /// Cap on one v3 batch frame line. Batch frames carry many requests, so
  /// they get their own (larger) budget instead of being silently cut off
  /// at max_request_bytes; the effective cap is the larger of the two (see
  /// protocol::LineCaps).
  size_t max_batch_request_bytes = protocol::kDefaultMaxBatchRequestBytes;
  /// Server-wide default admission quota per tenancy (mutating ops only).
  /// The default (unlimited) changes nothing; a tenancy's open_period
  /// config can override it either way.
  AdmissionConfig admission;
  /// Durability backend. Null = a fresh MemoryStateStore (no cross-process
  /// persistence, exactly the historical behavior).
  std::shared_ptr<StateStore> store;
  /// Directory the `export` op writes the columnar analytics dump into
  /// (src/analytics/columnar.h). Empty = export answers FailedPrecondition.
  /// The server never takes a path off the wire; this is the only target.
  std::string export_dir;
  /// Serve report / query_price / server_info / export inline from the
  /// published ReadView (src/analytics/read_view.h) on the caller's thread
  /// instead of queueing behind the tenancy's FIFO shard. Views and deltas
  /// are published either way — the flag only gates the inline serving, so
  /// a read-path-off server still answers query_price and historical
  /// reports identically (the differential tests rely on that).
  bool enable_read_path = true;
};

/// What one Recover() (or wire `restore`) pass did.
struct RecoveryStats {
  int tenancies_recovered = 0;   ///< Tenancies present after the pass.
  int tenancies_skipped = 0;     ///< Already live in this server.
  int snapshots_loaded = 0;
  int journal_records_replayed = 0;
  /// Replayed records whose responses were errors: the replay reproduced a
  /// request that also failed live, so this is not by itself a problem.
  int journal_records_failed = 0;
  /// Torn journal tails dropped (crash mid-append).
  int journal_torn = 0;
};

/// The stats object as served by the wire `restore` and `server_info` ops
/// (and printed by `optshare_cli recover`).
JsonValue ToJson(const RecoveryStats& stats);

class MarketplaceServer {
 public:
  explicit MarketplaceServer(ServerOptions options = {});
  /// Drains in-flight requests before shutting the pool down. Does NOT
  /// checkpoint (a destructor-only exit models a crash); call Shutdown()
  /// for a graceful, durable exit.
  ~MarketplaceServer();

  MarketplaceServer(const MarketplaceServer&) = delete;
  MarketplaceServer& operator=(const MarketplaceServer&) = delete;

  /// Creates a tenancy around an existing catalog (the embedding-caller
  /// path; wire callers bootstrap via open_period's CatalogSpec). `config`
  /// becomes the tenancy's default period configuration. AlreadyExists for
  /// duplicate names. Runs on the tenancy's shard, so it serializes with
  /// any wire traffic already queued for the name. The new tenancy is
  /// checkpointed to the state store immediately.
  Status CreateTenancy(const std::string& name, simdb::Catalog catalog,
                       ServiceConfig config = {});

  /// Enqueues `request` on its tenancy's shard and returns the response
  /// future. Requests for one tenancy execute in Dispatch order; requests
  /// for different tenancies run concurrently across workers.
  std::future<protocol::Response> Dispatch(protocol::Request request);

  /// Callback form of Dispatch for transports that deliver responses as
  /// they resolve (the stdin serve loop and the TCP NetServer): `done`
  /// fires exactly once, on the tenancy's worker thread, and must not
  /// throw. It may outlive the transport that submitted it — capture
  /// shared state by shared_ptr.
  /// `raw_line`, when non-null, is the exact wire line `request` was
  /// parsed from; batch dispatch reuses it as the journal record for a
  /// single-tenancy batch instead of re-serializing every member. It is
  /// only read during the DispatchCallback call itself — the caller's
  /// buffer may be reused as soon as the call returns.
  void DispatchCallback(protocol::Request request,
                        std::function<void(protocol::Response)> done,
                        const std::string* raw_line = nullptr);

  /// Synchronous convenience: Dispatch + wait.
  protocol::Response Handle(protocol::Request request);

  /// The wire loop's unit of work: admit one request line
  /// (protocol::AdmitRequestLine under line_caps()), execute it, serialize
  /// the response line. A rejected line answers its error, so the caller
  /// always gets exactly one line back.
  std::string HandleLine(const std::string& line);

  /// Blocks until every request dispatched before the call has finished.
  void Drain();

  /// Loads every tenancy persisted in the state store that is not already
  /// live: snapshot first, then the journal tail replayed through the
  /// regular dispatch path on the tenancy's own shard (so recovery is safe
  /// even while other tenancies serve traffic). Startup callers run it
  /// before accepting requests; the wire `restore` op runs the same pass.
  Result<RecoveryStats> Recover();

  /// Recover(), restricted to persisted tenancies `want` accepts. A
  /// cluster node booting with a placement map recovers only the
  /// tenancies it owns, even when its store also holds replica state.
  Result<RecoveryStats> RecoverMatching(
      std::function<bool(const std::string&)> want);

  /// Graceful exit: drains the worker pool, then makes every tenancy
  /// durable — period-boundary tenancies are checkpointed, tenancies with
  /// an open period get their journal fsync'd (the open period replays on
  /// the next Recover). Callers must stop dispatching first. Idempotent.
  Status Shutdown();

  /// Set once a wire `shutdown` request was accepted (or Shutdown ran);
  /// the serve loop polls this to exit its read loop.
  bool shutdown_requested() const { return shutdown_requested_.load(); }

  int num_workers() const { return pool_.num_threads(); }
  /// The request-line caps every transport in front of this server
  /// applies: frame under line_caps().framing_bytes(), then admit through
  /// protocol::AdmitRequestLine.
  const protocol::LineCaps& line_caps() const { return line_caps_; }
  const StateStore& store() const { return *store_; }

  /// Installs (or, with nullptr, removes) the transport-counters provider
  /// the wire `server_info` op folds into its payload as "transport" — the
  /// TCP front end registers its live connection/byte/request counters
  /// here. The provider runs on a worker thread; uninstalling blocks until
  /// any in-flight call returns, so the provider may reference state the
  /// caller is about to destroy.
  void SetTransportInfoProvider(std::function<JsonValue()> provider);

  /// Installs (or, with nullptr, removes) the handler for the wire
  /// `cluster_update` op — a cluster node registers its placement-map
  /// installer here. The handler receives the request's "placement"
  /// document and returns the response payload (or an error). Without a
  /// handler the op answers FailedPrecondition. Same locking contract as
  /// SetTransportInfoProvider.
  void SetClusterUpdateHandler(
      std::function<Result<JsonValue>(const JsonValue&)> handler);

  /// Names of existing tenancies, sorted.
  std::vector<std::string> TenancyNames() const;

 private:
  /// Per-tenancy state. Owned by the map; only ever touched on the
  /// tenancy's shard after creation (the map mutex guards the map shape,
  /// not the tenancy contents).
  struct Tenancy {
    std::string name;
    simdb::Catalog catalog;
    ServiceConfig config;
    std::vector<std::string> built;
    int periods_run = 0;
    double cumulative_balance = 0.0;
    double cumulative_utility = 0.0;
    std::optional<PricingSession> session;  ///< Open period, if any.
    /// Journal appends since this tenancy's last checkpoint/sync — the
    /// per-tenancy share of the server-wide fsync-lag gauge. Shard-local.
    uint64_t unsynced_appends = 0;
  };

  size_t ShardOf(const std::string& tenancy) const;
  /// Executes a v3 batch frame: members are grouped by tenancy (preserving
  /// submission order), each group runs as ONE task on its tenancy's shard,
  /// and `done` fires once with the ordered response batch after the last
  /// group completes. A group whose members are all plain session traffic
  /// journals as ONE record — the raw frame for a single-tenancy batch, a
  /// rebuilt sub-batch otherwise — appended before any member executes, so
  /// the group replays atomically per tenancy: after a crash either every
  /// member re-executes in order or none does, never a torn prefix. Groups
  /// carrying checkpoint-triggering members (open/close_period et al) keep
  /// the per-member WAL path, whose appends interleave correctly with
  /// journal truncation.
  void DispatchBatch(protocol::Request request,
                     std::function<void(protocol::Response)> done,
                     const std::string* raw_line);
  /// Executes `request` on the current (shard) thread. `persist` is false
  /// during journal replay: replayed requests must neither re-append to
  /// the journal they came from nor checkpoint mid-replay. The two-arg
  /// form counts the request toward op metrics iff it persists; the
  /// three-arg form decouples them for batch members whose group already
  /// journaled atomically (persist=false, count_metrics=true).
  protocol::Response Execute(const protocol::Request& request, bool persist);
  protocol::Response Execute(const protocol::Request& request, bool persist,
                             bool count_metrics);
  protocol::Response ExecuteOpenPeriod(const protocol::Request& request,
                                       bool persist);
  protocol::Response ExecuteTenancyOp(const protocol::Request& request,
                                      bool persist);
  protocol::Response ExecuteSnapshot(const protocol::Request& request,
                                     Tenancy& tenancy, bool persist);
  protocol::Response ExecuteRestore(const protocol::Request& request);
  protocol::Response ExecuteServerInfo(const protocol::Request& request);
  // The cluster ops (replication target + rebalance source surfaces).
  protocol::Response ExecuteReplAppend(const protocol::Request& request);
  protocol::Response ExecuteReplCheckpoint(const protocol::Request& request);
  protocol::Response ExecuteReplSync(const protocol::Request& request);
  protocol::Response ExecuteTenancyState(const protocol::Request& request);
  protocol::Response ExecuteEvict(const protocol::Request& request,
                                  bool persist);
  protocol::Response ExecuteClusterUpdate(const protocol::Request& request);
  static protocol::Response ListMechanisms(const protocol::Request& request);
  // The analytics ops. Both work exclusively off the published ReadView
  // atoms (never the live Tenancy), so they are safe on any thread — the
  // inline read path and the shard path call the very same functions.
  protocol::Response ExecuteQueryPrice(const protocol::Request& request);
  protocol::Response ExecuteExport(const protocol::Request& request);

  /// Answers a read op inline from the read path (no shard hop) when a
  /// published view allows it; false = caller must take the write path.
  bool TryServeRead(const protocol::Request& request,
                    protocol::Response* out);

  /// The tenancy's period-boundary state (what checkpoints and ReadViews
  /// are both built from).
  TenancySnapshot BoundaryOf(const Tenancy& tenancy) const;
  /// The tenancy's period-boundary state as a snapshot document.
  JsonValue SnapshotOf(const Tenancy& tenancy) const;
  /// The open session's observable scalars (all-zero when no period open).
  analytics::ReadDelta DeltaOf(const Tenancy& tenancy) const;

  struct RecoverOutcome {
    Status status;
    RecoveryStats stats;
  };
  /// Rebuilds one persisted tenancy on the current thread (must be its
  /// shard, or a quiescent server).
  RecoverOutcome RecoverTenancy(const PersistedTenancy& persisted);
  /// Shared by Recover() and the wire restore op. `current_worker` names
  /// the pool worker the caller occupies (so its own shard's tenancies are
  /// recovered inline instead of deadlocking on a self-wait); nullopt when
  /// called from outside the pool. A non-null `want` restricts the pass to
  /// the persisted tenancies it accepts.
  Result<RecoveryStats> RecoverImpl(
      std::optional<size_t> current_worker,
      const std::function<bool(const std::string&)>& want = nullptr);

  /// Map lookup (nullptr when absent). The returned pointer is stable: the
  /// map stores unique_ptrs, and a tenancy is only ever erased by its own
  /// shard (rolling back a failed creating open_period).
  Tenancy* FindTenancy(const std::string& name);

  mutable std::mutex mu_;  ///< Guards tenancies_ (the map, not its values).
  std::unordered_map<std::string, std::unique_ptr<Tenancy>> tenancies_;
  std::shared_ptr<StateStore> store_;
  protocol::LineCaps line_caps_;
  std::atomic<bool> shutdown_requested_{false};
  std::atomic<bool> shut_down_{false};
  mutable std::mutex recovery_mu_;  ///< Guards the two fields below.
  RecoveryStats last_recovery_;
  int recoveries_run_ = 0;
  mutable std::mutex transport_mu_;  ///< Guards transport_info_; held across
                                     ///< the provider call (see setter).
  std::function<JsonValue()> transport_info_;
  mutable std::mutex cluster_mu_;  ///< Guards cluster_update_; same contract.
  std::function<Result<JsonValue>(const JsonValue&)> cluster_update_;
  /// The read path's data plane. Publishes happen on each tenancy's shard
  /// worker (the single writer); reads happen anywhere.
  analytics::ReadRegistry read_registry_;
  std::string export_dir_;
  bool enable_read_path_ = true;
  std::atomic<uint64_t> reads_served_{0};    ///< Inline, shard-bypassing.
  std::atomic<uint64_t> read_fallbacks_{0};  ///< Read ops sent to the shard.
  std::atomic<uint64_t> export_rows_written_{0};
  std::mutex export_mu_;  ///< Serializes export passes over export_dir_.
  /// Live (persist=true) executions per op, indexed by RequestOp value;
  /// served by server_info as "ops" so cluster health is observable.
  std::atomic<uint64_t> op_counts_[protocol::kNumRequestOps] = {};
  /// Live execution latency per op (shard-side and inline reads alike),
  /// served by server_info as "metrics". Recording is relaxed-atomic.
  LatencyHistogram op_latency_[protocol::kNumRequestOps];
  /// Journal appends not yet covered by a checkpoint/sync, summed over
  /// tenancies — the "fsync lag" gauge in server_info's metrics section.
  std::atomic<uint64_t> unsynced_total_{0};
  /// Per-tenancy mutating-op quotas (protocol v3 admission control).
  /// Consulted by DispatchCallback/DispatchBatch only — replay calls
  /// Execute directly, so recovery is never throttled.
  AdmissionController admission_;
  ThreadPool pool_;  ///< Last member: destroyed first, so workers stop
                     ///< before the state they touch goes away.
};

}  // namespace optshare::service
