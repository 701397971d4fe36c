#include "drive.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>

#include <algorithm>
#include <atomic>
#include <future>
#include <thread>

namespace perfbench {

namespace {

constexpr size_t kBatchMembers = 32;
constexpr double kStallUs = 30'000.0;

/// Counts the members of a batch answer that failed.
uint64_t FailedMembers(const Response& response) {
  const JsonValue* members = response.payload.is_object()
                                 ? response.payload.Find("responses")
                                 : nullptr;
  if (members == nullptr || !members->is_array()) return 0;
  uint64_t failed = 0;
  for (const JsonValue& member : members->AsArray()) {
    const JsonValue* ok = member.is_object() ? member.Find("ok") : nullptr;
    if (ok == nullptr || !ok->is_bool() || !ok->AsBool()) ++failed;
  }
  return failed;
}

/// Checks one answer and books it into the lane's tally.
/// `state` overrides the tenancy's own state (read-mix readers check against
/// a snapshot, so they never race the writers' updates).
void Account(Fleet* fleet, int k, const Request& request, size_t members,
             const Result<Response>& result, double latency_us,
             bool exact_reads, Tally* tally, std::mutex* tally_mu,
             TenancyState* state = nullptr) {
  uint64_t slots = 0;
  uint64_t failed = 0;
  Verdict verdict = Verdict::kError;
  if (!result.ok()) {
    failed = members;
  } else {
    verdict = CheckResponse(
        request, *result,
        state != nullptr ? state : &fleet->states[static_cast<size_t>(k)],
        exact_reads, &slots);
    if (!result->ok()) {
      failed = members;
    } else if (request.op == RequestOp::kBatch) {
      failed = FailedMembers(*result);
    }
    if (fleet->on_response) fleet->on_response(request, *result);
  }
  const size_t index = static_cast<size_t>(
      std::chrono::duration<double>(Clock::now() - tally->start).count());
  std::lock_guard<std::mutex> lock(*tally_mu);
  if (tally->windows.size() <= index) tally->windows.resize(index + 1);
  Window& window = tally->windows[index];
  window.completed += members;
  window.slots += slots;
  // Batch frames and period boundaries give no latency sample. A frame is
  // 32 requests. open_period and close_period write fsync'd checkpoints, about
  // 3% of the small-ops writes, so with them the write p99 timed the disk
  // (journal.checkpoint_p50_ms times the checkpoints).
  if (IsReadOp(request.op)) {
    window.read_us.Add(latency_us);
  } else if (request.op != RequestOp::kBatch &&
             request.op != RequestOp::kOpenPeriod &&
             request.op != RequestOp::kClosePeriod) {
    window.write_us.Add(latency_us);
  }
  tally->completed += members;
  tally->failed += failed;
  tally->slots += slots;
  if (verdict == Verdict::kMismatch) {
    if (tally->mismatched++ == 0) {
      tally->first_mismatch =
          fleet->programs[static_cast<size_t>(k)].tenancy + ": " +
          std::string(protocol::RequestOpName(request.op)) +
          " answer contradicts the client's state";
    }
  }
  if (latency_us >= kStallUs) ++tally->stalls_ge_30ms;
}

/// The next unit a tenancy sends: one program request or a batch frame.
struct Unit {
  std::shared_ptr<const Request> owned;  ///< Batch frames only.
  const Request* request = nullptr;
  size_t members = 1;
  size_t bytes = 0;
};

Unit NextUnit(Fleet* fleet, int k) {
  const Program& program = fleet->programs[static_cast<size_t>(k)];
  const size_t pos = fleet->sent[static_cast<size_t>(k)];
  Unit unit;
  if (program.batched) {
    unit.owned =
        std::make_shared<const Request>(BatchOf(program, pos, kBatchMembers));
    unit.request = unit.owned.get();
    unit.members = kBatchMembers;
    unit.bytes = WireBytes(*unit.owned);
  } else {
    unit.request = &program.At(pos);
    unit.bytes = program.bytes[program.Index(pos)];
  }
  fleet->sent[static_cast<size_t>(k)] += unit.members;
  return unit;
}

void ClosedLane(Fleet* fleet, const Lane& lane, Clock::time_point deadline,
                bool exact_reads, Tally* tally) {
  std::mutex mu;  // Guards ready and outstanding.
  std::condition_variable cv;
  std::deque<int> ready(lane.tenancies.begin(), lane.tenancies.end());
  // Callbacks not yet finished. AsyncNetClient::Drain returns once the last
  // response is matched, which can be before its callback has returned.
  size_t outstanding = 0;
  std::mutex tally_mu;
  for (;;) {
    int k = -1;
    {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait_until(lock, deadline, [&ready] { return !ready.empty(); });
      if (Clock::now() >= deadline) break;
      if (ready.empty()) continue;
      k = ready.front();
      ready.pop_front();
      ++outstanding;
    }
    Unit unit = NextUnit(fleet, k);
    const auto start = Clock::now();
    Status submitted = lane.sender->Submit(
        *unit.request, [fleet, k, unit, start, exact_reads, tally, &tally_mu,
                        &mu, &cv, &ready,
                        &outstanding](Result<Response> result) {
          const double us = MicrosBetween(start, Clock::now());
          Account(fleet, k, *unit.request, unit.members, result, us,
                  exact_reads, tally, &tally_mu);
          fleet->answered[static_cast<size_t>(k)] += unit.members;
          // Notify under the lock: the lane may return (destroying mu and
          // cv) as soon as it sees outstanding reach zero.
          std::lock_guard<std::mutex> lock(mu);
          ready.push_back(k);
          --outstanding;
          cv.notify_all();
        });
    std::lock_guard<std::mutex> lock(tally_mu);
    tally->attempted += unit.members;
    if (submitted.ok()) {
      tally->request_bytes += unit.bytes;
      continue;
    }
    {
      std::lock_guard<std::mutex> ready_lock(mu);
      --outstanding;
    }
    // Rejected before sending: rewind and retry the tenancy later.
    fleet->sent[static_cast<size_t>(k)] -= unit.members;
    tally->failed += unit.members;
    if (submitted.code() == optshare::StatusCode::kResourceExhausted) {
      ++tally->window_full;
    }
    {
      std::lock_guard<std::mutex> ready_lock(mu);
      ready.push_back(k);
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  lane.sender->Drain();
  std::unique_lock<std::mutex> lock(mu);
  cv.wait(lock, [&outstanding] { return outstanding == 0; });
}

void OpenLane(Fleet* fleet, const Lane& lane, Clock::time_point t0,
              Clock::time_point deadline, double interval_s, double offset,
              Tally* tally) {
  std::mutex tally_mu;
  std::mutex mu;  // Guards outstanding (see ClosedLane).
  std::condition_variable cv;
  size_t outstanding = 0;
  size_t rr = 0;
  for (uint64_t i = 0; !lane.tenancies.empty(); ++i) {
    const auto due =
        t0 + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(interval_s * (i + offset)));
    if (due >= deadline) break;
    if (Clock::now() < due) std::this_thread::sleep_until(due);
    const double lag_ms = MicrosBetween(due, Clock::now()) / 1000.0;
    const int k = lane.tenancies[rr++ % lane.tenancies.size()];
    Unit unit = NextUnit(fleet, k);
    {
      std::lock_guard<std::mutex> lock(mu);
      ++outstanding;
    }
    Status submitted = lane.sender->Submit(
        *unit.request, [fleet, k, unit, due, tally, &tally_mu, &mu, &cv,
                        &outstanding](Result<Response> result) {
          const double us = MicrosBetween(due, Clock::now());
          Account(fleet, k, *unit.request, unit.members, result, us,
                  /*exact_reads=*/false, tally, &tally_mu);
          fleet->answered[static_cast<size_t>(k)] += unit.members;
          std::lock_guard<std::mutex> lock(mu);
          --outstanding;
          cv.notify_all();
        });
    std::lock_guard<std::mutex> lock(tally_mu);
    tally->send_lag_ms.Add(lag_ms);
    tally->attempted += unit.members;
    if (submitted.ok()) {
      tally->request_bytes += unit.bytes;
    } else {
      fleet->sent[static_cast<size_t>(k)] -= unit.members;
      tally->failed += unit.members;
      if (submitted.code() == optshare::StatusCode::kResourceExhausted) {
        ++tally->window_full;
      }
      std::lock_guard<std::mutex> out_lock(mu);
      --outstanding;
    }
  }
  lane.sender->Drain();
  std::unique_lock<std::mutex> lock(mu);
  cv.wait(lock, [&outstanding] { return outstanding == 0; });
}

}  // namespace

Result<std::unique_ptr<TcpSender>> TcpSender::Connect(uint16_t port,
                                                      size_t max_inflight,
                                                      bool quick_ack) {
  Result<optshare::service::NetClient> client =
      optshare::service::NetClient::Connect("127.0.0.1", port);
  if (!client.ok()) return client.status();
  // Neither NetServer nor AsyncNetClient sets TCP_NODELAY. With Nagle on
  // both ends of a pipelined connection, the open loop fell into ~40 ms
  // delayed-ACK stalls in some runs and not in others (write p99 ~1 ms or
  // 9-17 ms). The load generator turns Nagle off on its own end; the
  // server's end is left as it is, and read-mix measures its stall.
  const int one = 1;
  if (::setsockopt(client->fd(), IPPROTO_TCP, TCP_NODELAY, &one,
                   sizeof(one)) != 0) {
    return Status::Internal("setsockopt(TCP_NODELAY) failed");
  }
  return std::unique_ptr<TcpSender>(
      new TcpSender(std::move(*client), max_inflight, quick_ack));
}

Status TcpSender::Submit(const Request& request, Callback done) {
  if (!quick_ack_) return client_.Submit(request, std::move(done));
  return client_.Submit(
      request, [fd = fd_, done = std::move(done)](Result<Response> result) {
        if (result.ok()) {
          const int one = 1;
          (void)::setsockopt(fd, IPPROTO_TCP, TCP_QUICKACK, &one, sizeof(one));
        }
        done(std::move(result));
      });
}

Status LocalSender::Submit(const Request& request, Callback done) {
  if (before_) before_(request);
  server_->DispatchCallback(request, [done = std::move(done)](Response r) {
    done(Result<Response>(std::move(r)));
  });
  return Status::OK();
}

namespace {

Clock::time_point After(Clock::time_point start, double seconds) {
  return start + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(seconds));
}

/// Process CPU at the end of each whole second of a phase; runs on the
/// thread that started the lanes, while they work.
std::vector<double> TickCpu(Clock::time_point start, double seconds) {
  std::vector<double> marks = {ProcessCpuSeconds()};
  for (int w = 1; w <= static_cast<int>(seconds); ++w) {
    std::this_thread::sleep_until(After(start, w));
    marks.push_back(ProcessCpuSeconds());
  }
  return marks;
}

/// Merges the lanes' tallies; keeps the windows that ended before the
/// deadline and gives each its CPU time.
Tally Combine(const std::vector<Tally>& tallies, Clock::time_point start,
              const std::vector<double>& cpu_marks) {
  Tally total;
  total.start = start;
  for (const Tally& tally : tallies) total.Merge(tally);
  total.seconds = SecondsSince(start);
  total.windows.resize(cpu_marks.size() - 1);
  for (size_t w = 0; w + 1 < cpu_marks.size(); ++w) {
    total.windows[w].cpu_s = cpu_marks[w + 1] - cpu_marks[w];
  }
  return total;
}

/// The p-th percentile of the samples pooled from the half of the windows
/// whose own p-th percentile is lowest; *beyond gets the pooled samples
/// above it.
double QuietHalfPercentile(const std::vector<Window>& windows,
                           Samples Window::*member, double p, size_t* beyond) {
  std::vector<std::pair<double, const Samples*>> ranked;
  for (const Window& window : windows) {
    const Samples& samples = window.*member;
    if (!samples.empty()) ranked.emplace_back(samples.Percentile(p), &samples);
  }
  std::sort(ranked.begin(), ranked.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  Samples pooled;
  for (size_t i = 0; i < (ranked.size() + 1) / 2; ++i) {
    pooled.Append(*ranked[i].second);
  }
  *beyond = pooled.Beyond(p);
  return pooled.Percentile(p);
}

}  // namespace

Summary Summarize(const Tally& tally) {
  Samples throughput, slots, cpu;
  for (const Window& window : tally.windows) {
    throughput.Add(static_cast<double>(window.completed));
    slots.Add(static_cast<double>(window.slots));
    if (window.completed > 0) cpu.Add(window.cpu_s * 1e6 / window.completed);
  }
  Summary summary;
  summary.throughput_rps = throughput.Percentile(100 - kQuietQuartile);
  summary.slots_per_s = slots.Percentile(100 - kQuietQuartile);
  summary.cpu_us_per_req = cpu.Percentile(kQuietQuartile);
  size_t p50_support = 0;
  summary.write_p50_us = QuietHalfPercentile(tally.windows, &Window::write_us,
                                             50, &p50_support);
  summary.write_p99_us = QuietHalfPercentile(tally.windows, &Window::write_us,
                                             99, &summary.write_p99_support);
  summary.read_p50_us = QuietHalfPercentile(tally.windows, &Window::read_us,
                                            50, &p50_support);
  summary.read_p99_us = QuietHalfPercentile(tally.windows, &Window::read_us,
                                            99, &summary.read_p99_support);
  return summary;
}

void Tally::Merge(const Tally& other) {
  if (windows.size() < other.windows.size()) {
    windows.resize(other.windows.size());
  }
  for (size_t w = 0; w < other.windows.size(); ++w) {
    windows[w].completed += other.windows[w].completed;
    windows[w].slots += other.windows[w].slots;
    windows[w].write_us.Append(other.windows[w].write_us);
    windows[w].read_us.Append(other.windows[w].read_us);
    windows[w].cpu_s += other.windows[w].cpu_s;
  }
  attempted += other.attempted;
  completed += other.completed;
  failed += other.failed;
  if (mismatched == 0 && other.mismatched > 0) {
    first_mismatch = other.first_mismatch;
  }
  mismatched += other.mismatched;
  window_full += other.window_full;
  stalls_ge_30ms += other.stalls_ge_30ms;
  slots += other.slots;
  request_bytes += other.request_bytes;
  send_lag_ms.Append(other.send_lag_ms);
}

Tally RunClosedLoop(Fleet* fleet, const std::vector<Lane>& lanes,
                    double seconds, bool exact_reads) {
  const auto start = Clock::now();
  const auto deadline = After(start, seconds);
  std::vector<Tally> tallies(lanes.size());
  for (Tally& tally : tallies) tally.start = start;
  std::vector<std::thread> threads;
  for (size_t i = 0; i < lanes.size(); ++i) {
    threads.emplace_back(ClosedLane, fleet, std::cref(lanes[i]), deadline,
                         exact_reads, &tallies[i]);
  }
  const std::vector<double> cpu = TickCpu(start, seconds);
  for (std::thread& thread : threads) thread.join();
  return Combine(tallies, start, cpu);
}

Tally RunOpenLoop(Fleet* fleet, const std::vector<Lane>& lanes, double seconds,
                  double rate) {
  const auto start = Clock::now();
  const auto deadline = After(start, seconds);
  std::vector<Tally> tallies(lanes.size());
  for (Tally& tally : tallies) tally.start = start;
  const double interval = static_cast<double>(lanes.size()) / rate;
  std::vector<std::thread> threads;
  for (size_t i = 0; i < lanes.size(); ++i) {
    threads.emplace_back(OpenLane, fleet, std::cref(lanes[i]), start,
                         deadline, interval,
                         static_cast<double>(i) / lanes.size(), &tallies[i]);
  }
  const std::vector<double> cpu = TickCpu(start, seconds);
  for (std::thread& thread : threads) thread.join();
  return Combine(tallies, start, cpu);
}

namespace {

/// Keeps one read in flight, holding back while more than
/// `reads_per_write` reads per answered write have been answered.
void ReadLane(Fleet* fleet, Sender* sender, size_t first,
              Clock::time_point deadline, const ReadMixPlan& plan,
              std::atomic<uint64_t>* reads_done,
              const std::atomic<uint64_t>* writes_done, Tally* tally) {
  std::mutex tally_mu;
  // Historical reports are checked against the periods closed before the
  // phase; the writers keep updating the live states meanwhile.
  std::vector<TenancyState> snapshot = fleet->states;
  const size_t n = fleet->programs.size();
  const uint64_t slack =
      static_cast<uint64_t>(plan.reads_per_write) * plan.backlog * 2;
  for (size_t i = first; Clock::now() < deadline; ++i) {
    if (reads_done->load(std::memory_order_relaxed) >=
        static_cast<uint64_t>(plan.reads_per_write) *
                writes_done->load(std::memory_order_relaxed) +
            slack) {
      std::this_thread::sleep_for(std::chrono::microseconds(20));
      continue;
    }
    const int k = static_cast<int>(i % n);
    const std::vector<Request>& reads = plan.reads[static_cast<size_t>(k)];
    const Request& request = reads[(i / n) % reads.size()];
    TenancyState* expected = &snapshot[static_cast<size_t>(k)];
    std::promise<void> answered;
    const auto start = Clock::now();
    Status submitted = sender->Submit(
        request, [fleet, k, &request, start, tally, &tally_mu, reads_done,
                  expected, &answered](Result<Response> result) {
          Account(fleet, k, request, 1, result,
                  MicrosBetween(start, Clock::now()), false, tally, &tally_mu,
                  expected);
          reads_done->fetch_add(1, std::memory_order_relaxed);
          answered.set_value();
        });
    {
      std::lock_guard<std::mutex> lock(tally_mu);
      ++tally->attempted;
      if (!submitted.ok()) {
        ++tally->failed;
        continue;
      }
      tally->request_bytes += WireBytes(request);
    }
    answered.get_future().wait();
  }
  sender->Drain();
}

/// Sends the lane's tenancies' program requests in bursts of `backlog`, one
/// burst per `backlog` x `reads_per_write` reads answered on this lane's
/// share: each burst is a standing queue on the shards while reads go on.
void WriteLane(Fleet* fleet, Sender* sender, size_t lane, size_t lanes,
               Clock::time_point deadline, const ReadMixPlan& plan,
               const std::atomic<uint64_t>* reads_done,
               std::atomic<uint64_t>* writes_done, Tally* tally) {
  std::mutex tally_mu;
  std::mutex mu;  // Guards outstanding (see ClosedLane).
  std::condition_variable cv;
  size_t outstanding = 0;
  std::vector<int> mine;
  for (size_t k = lane; k < fleet->programs.size(); k += lanes) {
    mine.push_back(static_cast<int>(k));
  }
  const uint64_t reads_before = reads_done->load();
  uint64_t sent = 0;
  size_t burst_left = 0;
  for (size_t rr = 0; Clock::now() < deadline;) {
    if (burst_left == 0) {
      const uint64_t allowed =
          (reads_done->load(std::memory_order_relaxed) - reads_before) /
          static_cast<uint64_t>(plan.reads_per_write * lanes);
      std::unique_lock<std::mutex> lock(mu);
      if ((sent > 0 && allowed < sent) || outstanding > 0) {
        cv.wait_for(lock, std::chrono::microseconds(50));
        continue;
      }
      burst_left = plan.backlog;
    }
    --burst_left;
    ++sent;
    {
      std::lock_guard<std::mutex> lock(mu);
      ++outstanding;
    }
    const int k = mine[rr++ % mine.size()];
    Unit unit = NextUnit(fleet, k);
    const auto start = Clock::now();
    Status submitted = sender->Submit(
        *unit.request, [fleet, k, unit, start, tally, &tally_mu, &mu, &cv,
                        &outstanding, writes_done](Result<Response> result) {
          Account(fleet, k, *unit.request, unit.members, result,
                  MicrosBetween(start, Clock::now()), false, tally,
                  &tally_mu);
          fleet->answered[static_cast<size_t>(k)] += unit.members;
          writes_done->fetch_add(unit.members, std::memory_order_relaxed);
          std::lock_guard<std::mutex> lock(mu);
          --outstanding;
          cv.notify_all();
        });
    std::lock_guard<std::mutex> lock(tally_mu);
    tally->attempted += unit.members;
    if (submitted.ok()) {
      tally->request_bytes += unit.bytes;
    } else {
      fleet->sent[static_cast<size_t>(k)] -= unit.members;
      tally->failed += unit.members;
      std::lock_guard<std::mutex> out_lock(mu);
      --outstanding;
    }
  }
  sender->Drain();
  std::unique_lock<std::mutex> lock(mu);
  cv.wait(lock, [&outstanding] { return outstanding == 0; });
}

}  // namespace

Tally RunReadMix(Fleet* fleet, const std::vector<Sender*>& readers,
                 const std::vector<Sender*>& writers, const ReadMixPlan& plan,
                 double seconds) {
  const auto start = Clock::now();
  const auto deadline = After(start, seconds);
  std::vector<Tally> tallies(readers.size() + writers.size());
  for (Tally& tally : tallies) tally.start = start;
  std::atomic<uint64_t> reads_done{0};
  std::atomic<uint64_t> writes_done{0};
  std::vector<std::thread> threads;
  for (size_t r = 0; r < readers.size(); ++r) {
    threads.emplace_back(ReadLane, fleet, readers[r], r, deadline,
                         std::cref(plan), &reads_done, &writes_done,
                         &tallies[r]);
  }
  for (size_t w = 0; w < writers.size(); ++w) {
    threads.emplace_back(WriteLane, fleet, writers[w], w, writers.size(),
                         deadline, std::cref(plan), &reads_done, &writes_done,
                         &tallies[readers.size() + w]);
  }
  const std::vector<double> cpu = TickCpu(start, seconds);
  for (std::thread& thread : threads) thread.join();
  return Combine(tallies, start, cpu);
}

bool StepAll(Fleet* fleet, const std::vector<Lane>& lanes) {
  std::vector<std::future<bool>> answers;
  for (const Lane& lane : lanes) {
    for (int k : lane.tenancies) {
      auto promise = std::make_shared<std::promise<bool>>();
      answers.push_back(promise->get_future());
      Unit unit = NextUnit(fleet, k);
      Status submitted = lane.sender->Submit(
          *unit.request, [fleet, k, unit, promise](Result<Response> result) {
            uint64_t slots = 0;
            const bool ok =
                result.ok() &&
                CheckResponse(*unit.request, *result,
                              &fleet->states[static_cast<size_t>(k)], true,
                              &slots) == Verdict::kOk;
            fleet->answered[static_cast<size_t>(k)] += unit.members;
            promise->set_value(ok);
          });
      if (!submitted.ok()) return false;
    }
  }
  bool all = true;
  for (auto& answer : answers) all = answer.get() && all;
  return all;
}

bool SettleMidPeriod(Fleet* fleet, const std::vector<Lane>& lanes) {
  std::atomic<bool> ok{true};
  std::vector<std::thread> threads;
  for (const Lane& lane : lanes) {
    threads.emplace_back([fleet, &lane, &ok] {
      for (int k : lane.tenancies) {
        const size_t t = static_cast<size_t>(k);
        const Program& program = fleet->programs[t];
        const int middle =
            program.requests.front().config->slots_per_period / 2;
        TenancyState& state = fleet->states[t];
        const auto at_crash_point = [&] {
          const size_t pos = program.Index(fleet->sent[t]);
          return state.open && state.slot == middle &&
                 pos >= program.cycle_from && pos < program.cycle_first_end;
        };
        while (ok.load() && !at_crash_point()) {
          const Request& request = program.At(fleet->sent[t]);
          if (IsReadOp(request.op)) {  // Reads change nothing: skip them.
            fleet->answered[t] = ++fleet->sent[t];
            continue;
          }
          Result<Response> response = CallAndWait(lane.sender, request);
          uint64_t slots = 0;
          if (!response.ok() || CheckResponse(request, *response, &state,
                                              true, &slots) != Verdict::kOk) {
            ok.store(false);
            break;
          }
          fleet->answered[t] = ++fleet->sent[t];
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  return ok.load();
}

Result<Response> CallAndWait(Sender* sender, const Request& request) {
  auto promise = std::make_shared<std::promise<Result<Response>>>();
  std::future<Result<Response>> future = promise->get_future();
  Status submitted = sender->Submit(
      request, [promise](Result<Response> r) { promise->set_value(r); });
  if (!submitted.ok()) return submitted;
  return future.get();
}

std::vector<Lane> MakeLanes(const std::vector<Sender*>& senders,
                            size_t tenancies) {
  std::vector<Lane> lanes(senders.size());
  for (size_t i = 0; i < senders.size(); ++i) lanes[i].sender = senders[i];
  for (size_t k = 0; k < tenancies; ++k) {
    lanes[k % senders.size()].tenancies.push_back(static_cast<int>(k));
  }
  return lanes;
}

}  // namespace perfbench
