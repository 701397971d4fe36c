// The HTAP read path's data plane: per-tenancy ReadViews — immutable,
// atomically-published snapshots of tenancy state — plus a lock-free
// published delta, so `report`-style reads are answered without ever
// entering the tenancy's FIFO shard (the write path).
//
// Shape (the Polynesia-style read/write co-design the ROADMAP calls for):
//
//   ReadView   — the period-boundary truth: the same TenancySnapshot the
//                durability layer checkpoints (catalog tables, config,
//                carried built-set, period counter, cumulative ledger),
//                plus the in-memory history of closed PeriodReports. A
//                view is rebuilt only at period boundaries (close_period,
//                creation, recovery) and is immutable once published.
//   ReadDelta  — the mid-period overlay: the open session's observable
//                scalars (period open, slots advanced, roster size). The
//                write path publishes a fresh delta after every committed
//                mutating op, BEFORE acknowledging the op — so a client
//                that waits for its write ack reads its own write.
//   ReadState  — one {view, delta, version} triple behind an RcuCell.
//                Publishing swaps the whole triple with a single atomic
//                store, so a reader can never observe a view from one
//                period paired with a delta from another (no torn reads).
//
// Concurrency contract: exactly one writer per tenancy (the tenancy's
// shard worker — the same serialization the write path already relies
// on), any number of concurrent readers on any thread. Readers take one
// atomic shared_ptr load and hold the snapshot for as long as they like;
// tests/analytics_read_path_test.cc runs a writer storm against readers
// under TSan to pin this.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/rcu.h"
#include "common/status.h"
#include "service/cloud_service.h"
#include "service/state_store.h"

namespace optshare::analytics {

/// Mid-period overlay over the boundary view: the open session's
/// observable scalars. All-zero when no period is open.
struct ReadDelta {
  bool period_open = false;
  int current_slot = 0;
  int num_tenants = 0;
};

/// The immutable period-boundary state reads are served from.
struct ReadView {
  /// Bit-identical to what the durability layer checkpoints: name, catalog
  /// tables, config, carried built-set, periods_run, cumulative ledger.
  service::TenancySnapshot boundary;
  /// Closed PeriodReports retained in-memory since this process (re)built
  /// the tenancy, in close order. Shared across delta publishes — only a
  /// close_period rebuilds the vector. May start later than period 1 when
  /// earlier periods are summarized by the boundary snapshot (recovery).
  std::shared_ptr<const std::vector<service::PeriodReport>> history;
};

/// What one RcuCell publishes: the view and its delta as one atom.
struct ReadState {
  std::shared_ptr<const ReadView> view;
  ReadDelta delta;
  /// Monotonic per-tenancy publish counter (every view or delta publish
  /// bumps it) — the staleness version the cluster's stale reads carry.
  uint64_t version = 0;
};

/// The per-tenancy cells plus publish counters. One instance per
/// MarketplaceServer; the map mutex guards only the map shape (cell
/// lookup), never the read of a cell's contents.
class ReadRegistry {
 public:
  /// Lock-free-after-lookup read: the current {view, delta} atom, or null
  /// when the tenancy has never published (serve via the write path).
  std::shared_ptr<const ReadState> Read(const std::string& tenancy) const;

  /// Period-boundary publish: installs a fresh view built from `boundary`,
  /// appending `closed_report` (when non-null) to the retained history,
  /// and resets the delta. Caller must be the tenancy's single writer.
  void PublishView(const std::string& tenancy,
                   service::TenancySnapshot boundary,
                   const service::PeriodReport* closed_report);

  /// Mid-period publish: new delta over the existing view. No-op when no
  /// view exists yet. Caller must be the tenancy's single writer.
  void PublishDelta(const std::string& tenancy, ReadDelta delta);

  /// Drops the tenancy's read state (evict / rebalance hand-off).
  void Drop(const std::string& tenancy);

  /// Tenancies with a published view, sorted (the export surface).
  std::vector<std::string> TenancyNames() const;

  uint64_t views_published() const {
    return views_published_.load(std::memory_order_relaxed);
  }
  uint64_t delta_publishes() const {
    return delta_publishes_.load(std::memory_order_relaxed);
  }

  /// The registry's slice of server_info's "read_path" section.
  JsonValue InfoJson() const;

 private:
  std::shared_ptr<RcuCell<ReadState>> Cell(const std::string& tenancy,
                                           bool create) const;

  mutable std::mutex mu_;  ///< Guards cells_ (the map, not cell contents).
  mutable std::map<std::string, std::shared_ptr<RcuCell<ReadState>>> cells_;
  std::atomic<uint64_t> views_published_{0};
  std::atomic<uint64_t> delta_publishes_{0};
};

/// The live `report` payload: a tenancy's period-boundary scalars overlaid
/// with its open session's delta. The one builder of these keys: the read
/// path passes its published view, the write path its live tenancy (the
/// reference tests/analytics_read_path_test.cc compares the read path
/// against), and the cluster router's stale fallback a replicated snapshot
/// with no open session.
JsonValue ReportPayload(const std::string& tenancy, int periods_run,
                        const std::vector<std::string>& built,
                        double cumulative_balance, double cumulative_utility,
                        const ReadDelta& delta);

/// The historical `report` payload for one closed period, served from the
/// retained history. NotFound when the period's report is not retained
/// (reports live in-memory since the tenancy was last rebuilt).
Result<JsonValue> HistoricalReportPayload(const ReadState& state, int period);

}  // namespace optshare::analytics
