// The serving path's machine-independent ratio gates, measured in one
// process and written to BENCH_serving.json for tools/bench_compare, which
// holds each against an absolute bound (bench/baselines/gates.json; no
// snapshot is involved):
//
//   kinds[kind=submit_1|submit_32].roundtrip_speedup_fast_vs_tree  >= 2.0
//       parse + serialize of one submit line through the single-pass
//       scanner and AppendResponseLine, against the JsonValue tree.
//   batch.batch_vs_roundtrip_speedup                                >= 3.0
//       512 tiny submits over loopback TCP as v3 batch frames of 32,
//       against one blocking round trip each.
//   read_mix[workers=1|8].read_p99_vs_idle                          <= 25
//       read p99 while a burst of 1200 writes drains through the
//       tenancy's shard, against the idle read p99 (reads are served from
//       the published ReadView, never queued behind the writes).
//   journal_overhead                                                <= 4.0
//       wall time of a journaled (FileStateStore) fleet program against
//       the same program on the in-memory store.
//
// The two sides of each of the three speedup ratios are timed the same
// way: repetitions in alternation, swapping which side goes first, and the
// fastest of each side (Alternate).
//
//   serving_gates
//
// End-to-end serving throughput and latency are measured by perfbench/,
// the repository's benchmark; this binary only pins the ratios.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <future>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "common/fs.h"
#include "common/json.h"
#include "common/rng.h"
#include "service/fast_wire.h"
#include "service/marketplace_server.h"
#include "service/net_client.h"
#include "service/net_server.h"
#include "service/protocol.h"
#include "service/state_store.h"
#include "simdb/scenarios.h"

namespace optshare {
namespace {

using Clock = std::chrono::steady_clock;
namespace protocol = service::protocol;
using protocol::Request;
using protocol::RequestOp;
using protocol::Response;
using service::MarketplaceServer;
using service::ServerOptions;

double ElapsedMs(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

[[noreturn]] void Die(const std::string& what) {
  std::cerr << "serving_gates: " << what << "\n";
  std::exit(1);
}

void Check(const Response& response, const std::string& what) {
  if (!response.ok()) Die(what + ": " + response.status.ToString());
}

ServerOptions Workers(int workers) {
  ServerOptions options;
  options.num_workers = workers;
  return options;
}

// -- Fast vs tree wire round trip -------------------------------------------

/// Tenant `i` of a request: one aggregate query on `device_column` and
/// metric, present for slots [start, end].
simdb::SimUser BenchTenant(int i, const char* device_column, int start,
                           int end) {
  simdb::SimUser tenant;
  tenant.start = start;
  tenant.end = end;
  tenant.executions_per_slot = 100.0 + i;
  simdb::Workload::Entry entry;
  entry.frequency = 1.5;
  entry.query.table = "telemetry";
  entry.query.aggregate = true;
  entry.query.predicates = {{device_column, 1e-6}, {"metric", 0.03125}};
  tenant.workload.entries.push_back(entry);
  return tenant;
}

/// Repetitions per side of each speedup ratio.
constexpr int kAlternations = 6;

/// The two sides of a ratio, each the fastest of its repetitions.
struct Sides {
  double a;
  double b;
};

/// Runs `a(rep)` and `b(rep)` kAlternations times each, in alternation,
/// swapping which goes first on every repetition, so neither side gets
/// the cold process or a quiet spell of the machine to itself. Each call
/// returns its own wall time; other load on the machine only adds to it,
/// so each side keeps its fastest.
template <typename A, typename B>
Sides Alternate(A&& a, B&& b) {
  Sides best{1e300, 1e300};
  for (int rep = 0; rep < kAlternations; ++rep) {
    if (rep % 2 == 0) {
      best.a = std::min(best.a, a(rep));
      best.b = std::min(best.b, b(rep));
    } else {
      best.b = std::min(best.b, b(rep));
      best.a = std::min(best.a, a(rep));
    }
  }
  return best;
}

/// Wall time of `iters` calls of `fn`, in seconds.
template <typename Fn>
double TimeSeconds(long long iters, Fn&& fn) {
  const auto start = Clock::now();
  for (long long i = 0; i < iters; ++i) fn();
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// An iteration count that makes one repeat of `fn` run for about
/// `target_seconds`.
template <typename Fn>
long long Calibrate(double target_seconds, Fn&& fn) {
  long long iters = 64;
  for (;;) {
    const auto start = Clock::now();
    for (long long i = 0; i < iters; ++i) fn();
    const double s =
        std::chrono::duration<double>(Clock::now() - start).count();
    if (s >= target_seconds || iters >= (1LL << 26)) return iters;
    const double scale = target_seconds / (s > 1e-9 ? s : 1e-9);
    iters = static_cast<long long>(iters * (scale > 8.0 ? 8.0 : scale)) + 1;
  }
}

/// parse + serialize of a `tenants`-tenant submit, fast path against tree.
JsonValue WireRoundTrip(int tenants) {
  const std::string kind = "submit_" + std::to_string(tenants);
  Request request;
  request.op = RequestOp::kSubmit;
  request.tenancy = "acme";
  request.id = "bench";
  for (int i = 0; i < tenants; ++i) {
    request.tenants.push_back(BenchTenant(i, "device_id", 1 + (i % 4), 12));
  }
  const std::string line = protocol::ToJson(request).Dump();
  JsonValue ids = JsonValue::MakeArray();
  for (int i = 0; i < tenants; ++i) ids.Append(JsonValue::Number(i));
  JsonValue payload = JsonValue::MakeObject();
  payload.Set("tenant_ids", std::move(ids));
  const Response response = protocol::OkResponse("bench", std::move(payload));

  // The scanner must engage on the line and agree with the tree; a silent
  // fallback would time the tree twice and read as a 1x speedup.
  Request probe;
  const Result<Request> tree = protocol::ParseRequestLineTree(line);
  if (!protocol::TryFastParseRequestLine(line, &probe) || !tree.ok() ||
      protocol::ToJson(*tree).Dump() != protocol::ToJson(probe).Dump()) {
    Die(kind + ": fast parser fell back or disagrees with the tree");
  }

  std::string scratch;
  const auto fast = [&] {
    if (!protocol::ParseRequestLine(line).ok()) std::exit(1);
    scratch.clear();
    protocol::AppendResponseLine(response, &scratch);
  };
  const auto slow = [&] {
    if (!protocol::ParseRequestLineTree(line).ok()) std::exit(1);
    scratch = protocol::ToJson(response).Dump();
  };
  const long long iters = Calibrate(0.05, fast);
  const auto [fast_s, tree_s] =
      Alternate([&](int) { return TimeSeconds(iters, fast); },
                [&](int) { return TimeSeconds(iters, slow); });

  JsonValue entry = JsonValue::MakeObject();
  entry.Set("kind", JsonValue::Str(kind));
  entry.Set("iters", JsonValue::Number(static_cast<double>(iters)));
  entry.Set("roundtrip_speedup_fast_vs_tree",
            JsonValue::Number(tree_s / fast_s));
  std::cout << kind << ": fast vs tree round trip " << tree_s / fast_s
            << "x\n";
  return entry;
}

// -- Batch frames vs blocking round trips -----------------------------------

/// One tenancy per timed rep, one open period, then 512 single-tenant
/// submits sent as blocking round trips and as batch frames of 32, the
/// two modes alternating.
JsonValue BatchFrames() {
  constexpr int kRequests = 512;
  constexpr int kFrame = 32;
  MarketplaceServer server(Workers(2));
  service::NetServer net(&server, service::NetServerOptions{});
  if (Status started = net.Start(); !started.ok()) {
    Die("listen failed: " + started.ToString());
  }
  const auto connect = [&] {
    Result<service::NetClient> client =
        service::NetClient::Connect("127.0.0.1", net.port());
    if (!client.ok()) Die("connect failed: " + client.status().ToString());
    return std::move(*client);
  };
  const auto call = [](service::NetClient& client, const Request& request) {
    Result<Response> response = client.Call(request);
    if (!response.ok()) Die("call failed: " + response.status().ToString());
    Check(*response, "request");
    return std::move(*response);
  };
  const auto open_tenancy = [&](service::NetClient& client,
                                const std::string& tenancy) {
    Request open;
    open.op = RequestOp::kOpenPeriod;
    open.tenancy = tenancy;
    protocol::CatalogSpec catalog;
    catalog.scenario = "telemetry";
    catalog.scenario_tenants = 64;
    catalog.scenario_slots = 12;
    open.catalog = catalog;
    call(client, open);
  };
  // One aggregate-less scan: each submit's fixed cost is a few
  // microseconds, so the ratio measures framing and round trips.
  simdb::SimUser tiny;
  tiny.start = 1;
  tiny.end = 1;
  tiny.executions_per_slot = 1.0;
  simdb::Workload::Entry scan;
  scan.frequency = 1.0;
  scan.query.table = "telemetry";
  scan.query.aggregate = false;
  tiny.workload.entries.push_back(scan);
  const auto submit = [&](const std::string& tenancy) {
    Request request;
    request.op = RequestOp::kSubmit;
    request.tenancy = tenancy;
    request.tenants = {tiny};
    return request;
  };

  service::NetClient roundtrip_client = connect();
  service::NetClient batch_client = connect();
  const auto roundtrips = [&](int rep) {
    const std::string tenancy = "batch-roundtrip-" + std::to_string(rep);
    open_tenancy(roundtrip_client, tenancy);
    const auto start = Clock::now();
    for (int i = 0; i < kRequests; ++i) {
      call(roundtrip_client, submit(tenancy));
    }
    return ElapsedMs(start);
  };
  const auto frames = [&](int rep) {
    const std::string tenancy = "batch-framed-" + std::to_string(rep);
    open_tenancy(batch_client, tenancy);
    const auto start = Clock::now();
    for (int i = 0; i < kRequests; i += kFrame) {
      Request batch;
      batch.op = RequestOp::kBatch;
      batch.version = 3;
      for (int j = i; j < i + kFrame && j < kRequests; ++j) {
        batch.requests.push_back(submit(tenancy));
      }
      const Response response = call(batch_client, batch);
      const JsonValue* docs = response.payload.Find("responses");
      if (docs == nullptr ||
          docs->AsArray().size() != batch.requests.size()) {
        Die("batch answered the wrong member count");
      }
    }
    return ElapsedMs(start);
  };
  const auto [roundtrip_ms, batch_ms] = Alternate(roundtrips, frames);
  net.Stop();

  JsonValue batch = JsonValue::MakeObject();
  batch.Set("requests", JsonValue::Number(kRequests));
  batch.Set("batch_frame", JsonValue::Number(kFrame));
  batch.Set("roundtrip_ms", JsonValue::Number(roundtrip_ms));
  batch.Set("batch_ms", JsonValue::Number(batch_ms));
  batch.Set("batch_vs_roundtrip_speedup",
            JsonValue::Number(roundtrip_ms / batch_ms));
  std::cout << "batch frames vs round trips: " << roundtrip_ms / batch_ms
            << "x\n";
  return batch;
}

// -- Read p99 under a write burst --------------------------------------------

double P99(std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  return samples[static_cast<size_t>(0.99 * (samples.size() - 1))];
}

/// One tenancy with 4 tenants in an open period wide enough that every
/// write is a plain advance_slot. 600 reads give the idle p99; then a 1200
/// advance_slot burst is posted and reads are timed while more than half
/// of it is still queued on the tenancy's shard; between the two, reads
/// run interleaved with writes at 99:1.
JsonValue ReadUnderWrites(int workers) {
  constexpr long long kReads = 600;
  constexpr long long kBurst = 1200;
  MarketplaceServer server(Workers(workers));
  Request open;
  open.op = RequestOp::kOpenPeriod;
  open.tenancy = "acme";
  protocol::CatalogSpec spec;
  spec.scenario = "telemetry";
  open.catalog = spec;
  service::ServiceConfig config;
  config.slots_per_period = 1 << 20;
  open.config = config;
  Check(server.Handle(std::move(open)), "open_period");
  Request submit;
  submit.op = RequestOp::kSubmit;
  submit.tenancy = "acme";
  for (int i = 0; i < 4; ++i) {
    submit.tenants.push_back(BenchTenant(i, "device", 1, 1 << 20));
  }
  Check(server.Handle(std::move(submit)), "submit");

  Request read;
  read.op = RequestOp::kReport;
  read.tenancy = "acme";
  Request write;
  write.op = RequestOp::kAdvanceSlot;
  write.tenancy = "acme";
  write.slots = 1;
  std::atomic<long long> pending{0};
  const auto post_write = [&] {
    pending.fetch_add(1, std::memory_order_relaxed);
    server.DispatchCallback(write, [&pending](Response) {
      pending.fetch_sub(1, std::memory_order_relaxed);
    });
  };
  const auto timed_read_us = [&] {
    const auto start = Clock::now();
    const Response response = server.Handle(read);
    const double us =
        std::chrono::duration<double, std::micro>(Clock::now() - start)
            .count();
    Check(response, "report");
    return us;
  };

  std::vector<double> idle;
  for (long long i = 0; i < kReads; ++i) idle.push_back(timed_read_us());
  const double idle_p99 = P99(idle);

  for (long long reads = 0; reads < kReads;) {
    post_write();
    for (int r = 0; r < 99 && reads < kReads; ++r, ++reads) {
      (void)timed_read_us();
    }
  }
  server.Drain();

  for (long long i = 0; i < kBurst; ++i) post_write();
  std::vector<double> deep;
  while (pending.load(std::memory_order_relaxed) > kBurst / 2 &&
         static_cast<long long>(deep.size()) < kReads) {
    deep.push_back(timed_read_us());
  }
  server.Drain();
  const double deep_p99 = deep.empty() ? idle_p99 : P99(deep);
  const double ratio = idle_p99 > 0.0 ? deep_p99 / idle_p99 : 1.0;

  JsonValue entry = JsonValue::MakeObject();
  entry.Set("workers", JsonValue::Number(workers));
  entry.Set("read_p99_idle_us", JsonValue::Number(idle_p99));
  entry.Set("read_p99_deep_us", JsonValue::Number(deep_p99));
  entry.Set("deep_reads_sampled",
            JsonValue::Number(static_cast<double>(deep.size())));
  entry.Set("read_p99_vs_idle", JsonValue::Number(ratio));
  std::cout << "read p99 under writes, " << workers << " workers: " << ratio
            << "x idle\n";
  return entry;
}

// -- Journal overhead ---------------------------------------------------------

constexpr int kFleetTenants = 150;

/// Drives 2 tenancies of kFleetTenants tenants through one closed 12-slot
/// period and an open second one whose tenants are submitted one by one (a
/// long journal tail). Returns wall ms.
double DriveFleet(MarketplaceServer& server,
                  const std::vector<simdb::SimUser>& tenants) {
  constexpr int kTenancies = 2;
  constexpr int kSlots = 12;
  const auto start = Clock::now();
  std::vector<std::future<Response>> lasts;
  for (int t = 0; t < kTenancies; ++t) {
    const std::string name = "tenancy-" + std::to_string(t);
    Rng rng(4200 + static_cast<uint64_t>(t));
    const std::vector<simdb::SimUser> jittered =
        simdb::JitterTenants(tenants, kSlots, rng);
    for (int period = 0; period < 2; ++period) {
      Request open;
      open.op = RequestOp::kOpenPeriod;
      open.tenancy = name;
      if (period == 0) {
        protocol::CatalogSpec catalog;
        catalog.scenario = "telemetry";
        catalog.scenario_tenants = kFleetTenants;
        catalog.scenario_slots = kSlots;
        open.catalog = catalog;
        service::ServiceConfig config;
        config.slots_per_period = kSlots;
        open.config = config;
      }
      server.Dispatch(std::move(open));
      for (const simdb::SimUser& tenant : jittered) {
        Request submit;
        submit.op = RequestOp::kSubmit;
        submit.tenancy = name;
        submit.tenants = {tenant};
        server.Dispatch(std::move(submit));
      }
      for (int s = 0; s < kSlots; ++s) {
        Request advance;
        advance.op = RequestOp::kAdvanceSlot;
        advance.tenancy = name;
        if (period == 1 && s + 1 == kSlots) {
          lasts.push_back(server.Dispatch(std::move(advance)));
        } else {
          server.Dispatch(std::move(advance));
        }
      }
      if (period == 0) {
        Request close;
        close.op = RequestOp::kClosePeriod;
        close.tenancy = name;
        server.Dispatch(std::move(close));
      }
    }
  }
  for (auto& last : lasts) Check(last.get(), "fleet program");
  return ElapsedMs(start);
}

JsonValue JournalOverhead() {
  constexpr int kWorkers = 4;
  auto scenario = simdb::TelemetryScenario(kFleetTenants, 12);
  if (!scenario.ok()) Die("scenario: " + scenario.status().ToString());
  const std::string data_dir = "serving_gates_data";

  const auto memory = [&](int) {
    MarketplaceServer server(Workers(kWorkers));
    return DriveFleet(server, scenario->tenants);
  };
  const auto file = [&](int) {
    if (!fs::RemoveAll(data_dir).ok()) Die("cannot clear " + data_dir);
    auto store = service::FileStateStore::Open(data_dir);
    if (!store.ok()) Die(store.status().ToString());
    ServerOptions options;
    options.num_workers = kWorkers;
    options.store = std::move(*store);
    MarketplaceServer server(std::move(options));
    return DriveFleet(server, scenario->tenants);
  };
  const auto [memory_ms, file_ms] = Alternate(memory, file);
  (void)fs::RemoveAll(data_dir);
  std::cout << "journaled fleet: " << file_ms << " ms (memory " << memory_ms
            << " ms, overhead " << file_ms / memory_ms << "x)\n";
  return JsonValue::Number(file_ms / memory_ms);
}

}  // namespace
}  // namespace optshare

int main(int argc, char**) {
  using namespace optshare;
  if (argc > 1) {
    std::cerr << "usage: serving_gates\n";
    return 2;
  }
  JsonValue kinds = JsonValue::MakeArray();
  kinds.Append(WireRoundTrip(1));
  kinds.Append(WireRoundTrip(32));
  JsonValue read_mix = JsonValue::MakeArray();
  read_mix.Append(ReadUnderWrites(1));
  read_mix.Append(ReadUnderWrites(8));

  JsonValue doc = JsonValue::MakeObject();
  doc.Set("benchmark", JsonValue::Str("serving_gates"));
  doc.Set("hardware_threads",
          JsonValue::Number(std::thread::hardware_concurrency()));
  doc.Set("kinds", std::move(kinds));
  doc.Set("batch", BatchFrames());
  doc.Set("read_mix", std::move(read_mix));
  doc.Set("journal_overhead", JournalOverhead());

  const std::string out_path = "BENCH_serving.json";
  std::ofstream out(out_path);
  out << doc.Dump(2) << "\n";
  std::cout << "wrote " << out_path << "\n";
  return out ? 0 : 1;
}
