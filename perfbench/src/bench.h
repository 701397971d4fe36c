// Shared pieces of the optshare benchmark: statistics, the metric sink,
// process resource probes, the byte-counting/timing StateStore wrapper,
// per-tenancy wire programs generated by the trace engine, the response
// checker, and the direct PricingSession replay that every close_period
// report is compared against.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/status.h"
#include "service/protocol.h"
#include "service/state_store.h"
#include "strategy/trace.h"

namespace perfbench {

namespace protocol = optshare::service::protocol;
using optshare::JsonValue;
using optshare::Result;
using optshare::Status;
using protocol::Request;
using protocol::RequestOp;
using protocol::Response;
using Clock = std::chrono::steady_clock;

inline double MicrosBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}
inline double SecondsSince(Clock::time_point from) {
  return std::chrono::duration<double>(Clock::now() - from).count();
}

// -- Statistics ---------------------------------------------------------------

/// A bag of samples. Percentiles use the nearest-rank rule on a sorted copy.
class Samples {
 public:
  void Add(double v) { values_.push_back(v); }
  void Append(const Samples& other) {
    values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  }
  size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }
  double Sum() const;
  double Mean() const { return empty() ? 0.0 : Sum() / size(); }
  /// p in [0, 100]; 0 for an empty bag.
  double Percentile(double p) const;
  double Median() const { return Percentile(50.0); }
  /// Samples strictly above the p-th percentile (the p99 support count).
  size_t Beyond(double p) const;

 private:
  std::vector<double> values_;
};

/// The metrics one run reports, by name, with units.
class MetricSet {
 public:
  void Put(const std::string& name, double value, const std::string& unit);
  /// The value put under `name` (0 when absent).
  double Get(const std::string& name) const;
  JsonValue ToJson() const;
  /// Human-readable table on stderr.
  void Print(const char* title) const;

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> items_;
};

// -- Process probes -----------------------------------------------------------

double ProcessCpuSeconds();  ///< user + sys of the whole process.
double PeakRssMb();          ///< Max resident set size so far, MiB.
/// Bytes this process handed to write(2) and friends (/proc/self/io wchar).
/// Socket sends go through send(2) and are not counted.
uint64_t ProcessWriteBytes();
/// Fixed-size integer spin on `threads` threads; wall ms. A noisy neighbour
/// shows up as a slow calibration.
double CpuCalibrationMs(int threads);

// -- StateStore wrapper --------------------------------------------------------

/// Sees every store call with its wall interval (the in-process probe uses it
/// to attribute queue wait and journal time to one request).
class StoreObserver {
 public:
  virtual ~StoreObserver() = default;
  virtual void OnStoreCall(const std::string& tenancy, Clock::time_point start,
                           Clock::time_point end) = 0;
};

/// Delegates to a base store. Always counts the bytes handed to Append and
/// Checkpoint (the journal_bytes_per_req_byte numerator); times every call
/// once SetTracing(true).
class CountingStore : public optshare::service::StateStore {
 public:
  explicit CountingStore(std::shared_ptr<optshare::service::StateStore> base)
      : base_(std::move(base)) {}

  std::string_view kind() const override { return base_->kind(); }
  Status Append(const std::string& tenancy,
                const std::string& record) override;
  Status Checkpoint(const std::string& tenancy,
                    const JsonValue& snapshot) override;
  Status Sync(const std::string& tenancy) override;
  Status Remove(const std::string& tenancy) override {
    return base_->Remove(tenancy);
  }
  Result<std::vector<optshare::service::PersistedTenancy>> Load() override {
    return base_->Load();
  }
  optshare::service::StateStoreStats stats() const override {
    return base_->stats();
  }

  uint64_t bytes() const { return bytes_.load(std::memory_order_relaxed); }
  void SetTracing(bool on) { tracing_.store(on); }
  void SetObserver(StoreObserver* observer) { observer_ = observer; }

  struct Timings {
    Samples append_us, checkpoint_ms, sync_ms;
    uint64_t appends = 0, append_bytes = 0, checkpoints = 0;
    double busy_s = 0.0;
  };
  /// Returns and clears what was timed so far.
  Timings TakeTimings();

 private:
  void Record(const std::string& tenancy, Clock::time_point start,
              Clock::time_point end, int kind, size_t bytes);

  std::shared_ptr<optshare::service::StateStore> base_;
  std::atomic<uint64_t> bytes_{0};
  std::atomic<bool> tracing_{false};
  StoreObserver* observer_ = nullptr;
  std::mutex mu_;  ///< Guards timings_.
  Timings timings_;
};

// -- Wire programs ------------------------------------------------------------

/// One tenancy's request stream: the trace engine's wire program (open,
/// slot-major submit/depart/advance, close per period), optionally with a
/// live `report` after every advance_slot. Past its end the program wraps to
/// the start of period 2, so any run length keeps a valid stream.
struct Program {
  std::string tenancy;
  std::string mechanism;
  bool batched = false;  ///< Sent as 32-member v3 batch frames.
  std::vector<Request> requests;
  std::vector<size_t> bytes;  ///< Wire bytes of each line, newline included.
  size_t cycle_from = 0;
  size_t cycle_first_end = 0;  ///< End of the cycle's first period.

  size_t Index(size_t i) const {
    if (i < requests.size()) return i;
    return cycle_from + (i - requests.size()) % (requests.size() - cycle_from);
  }
  const Request& At(size_t i) const { return requests[Index(i)]; }
};

/// Expands `config` through strategy::GenerateTrace + TraceRequestLines.
Result<Program> MakeProgram(const optshare::strategy::TraceConfig& config,
                            const std::string& tenancy, bool report_after_advance);

bool IsReadOp(RequestOp op);
size_t WireBytes(const Request& request);  ///< Line bytes + newline.

/// Builds a v3 batch frame of program requests [pos, pos + n).
Request BatchOf(const Program& program, size_t pos, size_t n);

// -- Checking -----------------------------------------------------------------

/// What a client knows about one tenancy from the answers it has seen.
struct TenancyState {
  int periods_closed = 0;
  int slot = 0;
  bool open = false;
  std::map<int, std::string> close_reports;  ///< period -> report dump.
};

/// Outcome of checking one response against its request.
enum class Verdict { kOk, kError, kMismatch };

/// Checks `response` against `request` and the tenancy's state, advancing the
/// state. An error response is kError; a successful response whose content
/// contradicts what the client knows is kMismatch. `exact_reads` demands
/// read-your-writes on live reports (closed loops; a pipelined report may see
/// the previous state). Batch frames check every member.
Verdict CheckResponse(const Request& request, const Response& response,
                      TenancyState* state, bool exact_reads,
                      uint64_t* slots_priced);

/// Exec-layer timings from a direct PricingSession replay, per mechanism.
struct ExecTimings {
  Samples submit_us_per_tenant, advance_us, close_ms;
  Samples structures_at_close;
  uint64_t slots = 0;
};

/// Replays program requests [0, executed) straight through PricingSession
/// (no server) and compares every close_period report with the one the
/// server answered. Also checks that `addon` recovers its costs. Returns
/// false on any mismatch, with the reason in *why.
bool ReplayAndCompare(const Program& program, size_t executed,
                      const TenancyState& state, ExecTimings* timings,
                      std::string* why);

}  // namespace perfbench
