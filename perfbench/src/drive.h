// Load generation: a Sender per connection (TCP through AsyncNetClient, or
// the in-process dispatch path), and the closed- and open-loop drivers that
// walk each tenancy's wire program through them while checking every
// response.
#pragma once

#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "bench.h"
#include "service/marketplace_server.h"
#include "service/net_client.h"

namespace perfbench {

/// One connection's submission surface. Callbacks fire exactly once, in
/// submission order per tenancy.
class Sender {
 public:
  using Callback = std::function<void(Result<Response>)>;
  virtual ~Sender() = default;
  virtual Status Submit(const Request& request, Callback done) = 0;
  virtual void Drain() = 0;
};

/// A loopback TCP connection driven through AsyncNetClient. With
/// `quick_ack`, every answer is ACKed as soon as it arrives (TCP_QUICKACK).
class TcpSender : public Sender {
 public:
  static Result<std::unique_ptr<TcpSender>> Connect(uint16_t port,
                                                    size_t max_inflight,
                                                    bool quick_ack);
  Status Submit(const Request& request, Callback done) override;
  void Drain() override { (void)client_.Drain(); }

 private:
  TcpSender(optshare::service::NetClient client, size_t max_inflight,
            bool quick_ack)
      : fd_(client.fd()),
        quick_ack_(quick_ack),
        client_(std::move(client), {max_inflight}) {}
  int fd_;
  bool quick_ack_;
  optshare::service::AsyncNetClient client_;
};

/// MarketplaceServer::DispatchCallback, no transport. `before` runs just
/// before each dispatch (the in-process probe stamps dispatch times there).
class LocalSender : public Sender {
 public:
  LocalSender(optshare::service::MarketplaceServer* server,
              std::function<void(const Request&)> before)
      : server_(server), before_(std::move(before)) {}
  Status Submit(const Request& request, Callback done) override;
  void Drain() override { server_->Drain(); }

 private:
  optshare::service::MarketplaceServer* server_;
  std::function<void(const Request&)> before_;
};

/// One second of a phase, by completion time. Each end-to-end metric is
/// read from the quieter windows of a phase (see Summary), so other load on
/// a shared machine that slows some windows moves no metric, while a slower
/// program slows every window.
struct Window {
  uint64_t completed = 0;
  uint64_t slots = 0;
  Samples write_us, read_us;
  double cpu_s = 0.0;  ///< Process CPU spent in the window.
};

/// What one driven phase did and saw. Requests inside batch frames count
/// individually in attempted/completed/failed.
struct Tally {
  uint64_t attempted = 0;
  uint64_t completed = 0;
  uint64_t failed = 0;      ///< Error answers, transport failures, local rejects.
  uint64_t mismatched = 0;  ///< Successful answers with wrong content.
  uint64_t window_full = 0;
  uint64_t stalls_ge_30ms = 0;
  uint64_t slots = 0;
  uint64_t request_bytes = 0;
  Samples send_lag_ms;  ///< Open loop: how late each send was.
  std::string first_mismatch;
  double seconds = 0.0;  ///< Phase wall time, drain included.
  Clock::time_point start;      ///< Window 0 begins here.
  std::vector<Window> windows;  ///< Complete windows only, after the phase.

  void Merge(const Tally& other);
};

/// The percentile over windows a rate or cost is read at: the 25th for
/// costs, the 75th for rates.
inline constexpr double kQuietQuartile = 25.0;

/// A phase's figures. Rates and CPU cost come from the quietest quarter of
/// windows (kQuietQuartile). Each latency percentile is taken over the
/// samples pooled from the half of the windows where that percentile is
/// lowest: a single window's p99 rests on a few dozen samples and swung from
/// run to run, while a pool of half the windows rests on hundreds.
struct Summary {
  double throughput_rps = 0.0;
  double slots_per_s = 0.0;
  double write_p50_us = 0.0, write_p99_us = 0.0;
  double read_p50_us = 0.0, read_p99_us = 0.0;
  double cpu_us_per_req = 0.0;
  /// Pooled samples beyond the p99 (writes, reads): the p99 support.
  size_t write_p99_support = 0, read_p99_support = 0;
};
Summary Summarize(const Tally& tally);

/// Per-tenancy driving state shared by the phases of one run.
struct Fleet {
  std::vector<Program> programs;
  std::vector<TenancyState> states;
  std::vector<size_t> sent;      ///< Next program index to send.
  std::vector<size_t> answered;  ///< Program requests answered so far.
  /// Optional tap: every (request, response) pair, on the callback thread.
  std::function<void(const Request&, const Response&)> on_response;

  explicit Fleet(std::vector<Program> p)
      : programs(std::move(p)),
        states(programs.size()),
        sent(programs.size(), 0),
        answered(programs.size(), 0) {}
};

/// One connection plus the tenancies it carries.
struct Lane {
  Sender* sender = nullptr;
  std::vector<int> tenancies;
};

/// Sends each program's next request (or 32-member batch frame) as soon as
/// its previous one is answered: one request in flight per tenancy.
Tally RunClosedLoop(Fleet* fleet, const std::vector<Lane>& lanes,
                    double seconds, bool exact_reads);

/// Sends on a fixed schedule (`rate` requests/s over all lanes) whatever the
/// answers; each latency counts from the scheduled send time.
Tally RunOpenLoop(Fleet* fleet, const std::vector<Lane>& lanes, double seconds,
                  double rate);

/// The read-mix traffic: reads and writes on separate connections, so a read
/// never waits behind a write answer on its own connection.
struct ReadMixPlan {
  std::vector<std::vector<Request>> reads;  ///< Per tenancy, sent in turn.
  int reads_per_write = 9;
  size_t backlog = 32;  ///< Writes per burst, per writer connection.
};

/// `readers` each keep one read in flight; `writers` send the tenancies'
/// program requests in bursts of `backlog`, one write per `reads_per_write`
/// reads answered, so each burst stands queued on the shards while reads
/// go on. Readers hold back if the writes fall behind.
Tally RunReadMix(Fleet* fleet, const std::vector<Sender*>& readers,
                 const std::vector<Sender*>& writers, const ReadMixPlan& plan,
                 double seconds);

/// Sends every tenancy's next request once and waits for the answers (the
/// creating open_period during set-up). False on any failure.
bool StepAll(Fleet* fleet, const std::vector<Lane>& lanes);

/// Walks every tenancy's program on, one write at a time per lane, to the
/// middle slot of the first period of the program's cycle: the crash point.
/// However far the timed phase got, each run then recovers the same
/// journal tail. False on any failure.
bool SettleMidPeriod(Fleet* fleet, const std::vector<Lane>& lanes);

/// One request and its answer, synchronously.
Result<Response> CallAndWait(Sender* sender, const Request& request);

/// Spreads tenancies round-robin over `senders`.
std::vector<Lane> MakeLanes(const std::vector<Sender*>& senders,
                            size_t tenancies);

}  // namespace perfbench
