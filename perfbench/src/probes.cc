#include "probes.h"

#include <atomic>
#include <filesystem>
#include <thread>
#include <unordered_map>

#include "common/net.h"
#include "service/admission.h"
#include "service/fast_wire.h"
#include "service/net_client.h"

namespace perfbench {

using optshare::service::MarketplaceServer;
using optshare::service::NetClient;

namespace {

constexpr size_t kMaxLines = 50'000;
constexpr size_t kMaxCaptured = 2'000;
constexpr int kProbePairs = 2'000;
constexpr double kMinProbeSeconds = 0.1;

bool Mutates(RequestOp op) {
  return op == RequestOp::kOpenPeriod || op == RequestOp::kSubmit ||
         op == RequestOp::kDepart || op == RequestOp::kAdvanceSlot ||
         op == RequestOp::kClosePeriod;
}

/// The units the workload actually sent: program requests, or batch frames
/// for batched programs. Capped at `cap`, spread over the tenancies.
std::vector<Request> SentUnits(const Fleet& fleet, size_t cap) {
  std::vector<Request> units;
  const size_t per = cap / std::max<size_t>(1, fleet.programs.size()) + 1;
  for (size_t k = 0; k < fleet.programs.size(); ++k) {
    const Program& program = fleet.programs[k];
    const size_t end = fleet.answered[k];
    for (size_t pos = 0, n = 0; pos < end && n < per; ++n) {
      if (program.batched) {
        units.push_back(BatchOf(program, pos, 32));
        pos += 32;
      } else {
        units.push_back(program.At(pos));
        ++pos;
      }
    }
  }
  return units;
}

/// Loops `body` over `items` until kMinProbeSeconds pass; ns per item.
template <typename T, typename F>
double NsPerItem(const std::vector<T>& items, F body) {
  if (items.empty()) return 0.0;
  size_t done = 0;
  const auto start = Clock::now();
  do {
    for (const T& item : items) body(item);
    done += items.size();
  } while (SecondsSince(start) < kMinProbeSeconds);
  return SecondsSince(start) * 1e9 / static_cast<double>(done);
}

Request ProbeOpen(const std::string& tenancy) {
  Request open = TenancyRequest(RequestOp::kOpenPeriod, tenancy);
  protocol::CatalogSpec catalog;
  catalog.tables = {TinyTable()};
  open.catalog = catalog;
  optshare::service::ServiceConfig config;
  config.slots_per_period = 100'000;
  open.config = config;
  return open;
}

Request ProbeSubmit(const std::string& tenancy) {
  Request submit = TenancyRequest(RequestOp::kSubmit, tenancy);
  optshare::simdb::SimUser tenant;
  tenant.start = 1;
  tenant.end = 100'000;
  tenant.executions_per_slot = 10.0;
  tenant.workload = TinyQuery();
  submit.tenants = {tenant};
  return submit;
}

bool CallOk(NetClient& client, const Request& request) {
  Result<Response> response = client.Call(request);
  return response.ok() && response->ok();
}

/// Attributes store time and queue wait to the one in-flight request of
/// each tenancy (closed loop: at most one per tenancy).
class DispatchTracer : public StoreObserver {
 public:
  struct Open {
    Clock::time_point dispatched;
    Clock::time_point first_store{};
    double store_us = 0.0;
    bool stored = false;
  };

  static const std::string& TenancyOf(const Request& request) {
    return request.op == RequestOp::kBatch && !request.requests.empty()
               ? request.requests[0].tenancy
               : request.tenancy;
  }

  void Dispatched(const Request& request) {
    Open open;
    open.dispatched = Clock::now();
    std::lock_guard<std::mutex> lock(mu_);
    open_[TenancyOf(request)] = open;
  }

  void OnStoreCall(const std::string& tenancy, Clock::time_point start,
                   Clock::time_point end) override {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = open_.find(tenancy);
    if (it == open_.end()) return;
    if (!it->second.stored) it->second.first_store = start;
    it->second.stored = true;
    it->second.store_us += MicrosBetween(start, end);
  }

  bool Take(const std::string& tenancy, Open* out) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = open_.find(tenancy);
    if (it == open_.end()) return false;
    *out = it->second;
    open_.erase(it);
    return true;
  }

 private:
  std::mutex mu_;
  std::unordered_map<std::string, Open> open_;
};

}  // namespace

JsonValue ServerInfo(MarketplaceServer* server) {
  Request request;
  request.op = RequestOp::kServerInfo;
  request.version = 3;
  Response response = server->Handle(request);
  return response.ok() ? response.payload : JsonValue::MakeObject();
}

double NumberAtPath(const JsonValue& doc, const std::string& path) {
  const JsonValue* at = &doc;
  size_t begin = 0;
  while (begin <= path.size()) {
    const size_t dot = path.find('.', begin);
    const std::string key = path.substr(
        begin, dot == std::string::npos ? std::string::npos : dot - begin);
    if (!at->is_object()) return 0.0;
    at = at->Find(key);
    if (at == nullptr) return 0.0;
    if (dot == std::string::npos) break;
    begin = dot + 1;
  }
  return at->is_number() ? at->AsNumber() : 0.0;
}

double FrameNsPerLine(const Fleet& fleet) {
  std::string stream;
  size_t lines = 0;
  for (const Request& unit : SentUnits(fleet, kMaxLines)) {
    stream += protocol::ToJson(unit).Dump();
    stream += '\n';
    ++lines;
  }
  if (lines == 0) return 0.0;
  constexpr size_t kChunk = 4096;
  size_t framed = 0;
  std::string line;
  const auto start = Clock::now();
  do {
    optshare::net::LineBuffer buffer(protocol::kDefaultMaxBatchRequestBytes);
    for (size_t at = 0; at < stream.size(); at += kChunk) {
      buffer.Append(stream.data() + at, std::min(kChunk, stream.size() - at));
      while (buffer.NextLine(&line) ==
             optshare::net::LineBuffer::Next::kLine) {
        ++framed;
      }
    }
  } while (SecondsSince(start) < kMinProbeSeconds);
  return SecondsSince(start) * 1e9 / static_cast<double>(framed);
}

void WireProbe(const Fleet& fleet, const CapturedResponses& responses,
               MetricSet* metrics) {
  const std::vector<Request> units = SentUnits(fleet, kMaxLines);
  // Batch frames: the ones sent, or frames cut from the sent programs when
  // the workload sends none.
  std::vector<Request> frames;
  for (const Request& unit : units) {
    if (unit.op == RequestOp::kBatch) frames.push_back(unit);
  }
  for (size_t k = 0; frames.empty() && k < fleet.programs.size(); ++k) {
    for (size_t pos = 0; pos + 32 <= fleet.answered[k]; pos += 32) {
      frames.push_back(BatchOf(fleet.programs[k], pos, 32));
    }
  }
  size_t fast = 0;
  std::map<RequestOp, std::vector<std::string>> lines;
  for (const Request& unit : units) {
    const std::string line = protocol::ToJson(unit).Dump();
    Request scratch;
    if (protocol::TryFastParseRequestLine(line, &scratch)) ++fast;
    if (unit.op != RequestOp::kBatch) lines[unit.op].push_back(line);
  }
  for (const Request& frame : frames) {
    lines[RequestOp::kBatch].push_back(protocol::ToJson(frame).Dump());
  }
  metrics->Put("wire.fast_share",
               units.empty() ? 0.0 : static_cast<double>(fast) / units.size(),
               "ratio");

  // Batch answers: the captured ones, or ones assembled from captured
  // member answers exactly as the server nests them.
  CapturedResponses all = responses;
  if (all[RequestOp::kBatch].empty()) {
    std::vector<const Response*> members;
    for (RequestOp op : {RequestOp::kAdvanceSlot, RequestOp::kReport,
                         RequestOp::kSubmit}) {
      for (const Response& r : all[op]) members.push_back(&r);
    }
    for (size_t b = 0; b + 32 <= members.size() && b < 32 * 200; b += 32) {
      JsonValue docs = JsonValue::MakeArray();
      for (size_t i = b; i < b + 32; ++i) {
        docs.Append(protocol::ToJson(*members[i]));
      }
      JsonValue payload = JsonValue::MakeObject();
      payload.Set("responses", std::move(docs));
      all[RequestOp::kBatch].push_back(protocol::OkResponse("", payload));
    }
  }

  for (RequestOp op : {RequestOp::kSubmit, RequestOp::kAdvanceSlot,
                       RequestOp::kBatch, RequestOp::kReport}) {
    const std::string name(protocol::RequestOpName(op));
    std::vector<std::string>& op_lines = lines[op];
    if (op_lines.size() > 4000) op_lines.resize(4000);
    metrics->Put("wire.parse_ns." + name,
                 NsPerItem(op_lines,
                           [](const std::string& line) {
                             Result<Request> parsed =
                                 protocol::ParseRequestLine(line);
                             (void)parsed;
                           }),
                 "ns");
    const std::vector<Response>& answers = all[op];
    std::string out;
    metrics->Put("wire.serialize_ns." + name,
                 NsPerItem(answers,
                           [&out](const Response& r) {
                             out.clear();
                             protocol::AppendResponseLine(r, &out);
                           }),
                 "ns");
    Samples bytes;
    for (const Response& r : answers) {
      out.clear();
      protocol::AppendResponseLine(r, &out);
      bytes.Add(static_cast<double>(out.size()));
    }
    metrics->Put("wire.response_bytes." + name, bytes.Mean(), "bytes");
  }
}

double AdmitNsPerCall(const Fleet& fleet) {
  std::vector<std::pair<std::string, double>> charges;
  for (const Request& unit : SentUnits(fleet, kMaxLines)) {
    double cost = Mutates(unit.op) ? 1.0 : 0.0;
    for (const Request& member : unit.requests) {
      if (Mutates(member.op)) cost += 1.0;
    }
    if (cost > 0) {
      charges.push_back({DispatchTracer::TenancyOf(unit), cost});
    }
  }
  optshare::service::AdmissionController admission;
  return NsPerItem(charges, [&admission](const auto& charge) {
    (void)admission.Admit(charge.first, charge.second);
  });
}

InprocResult InprocProbe(const Workload& workload,
                         const std::vector<Program>& programs,
                         const std::string& data_dir, double seconds) {
  InprocResult result;
  std::error_code ignored;
  std::filesystem::remove_all(data_dir, ignored);
  std::shared_ptr<optshare::service::StateStore> base;
  if (workload.file_store() || workload.clustered()) {
    auto file = optshare::service::FileStateStore::Open(data_dir);
    if (!file.ok()) {
      result.ok = false;
      result.why = file.status().ToString();
      return result;
    }
    base = std::move(*file);
  } else {
    base = std::make_shared<optshare::service::MemoryStateStore>();
  }
  auto store = std::make_shared<CountingStore>(base);
  DispatchTracer tracer;
  store->SetObserver(&tracer);
  optshare::service::ServerOptions options;
  options.num_workers = kWorkers;
  options.store = store;
  auto server = std::make_unique<MarketplaceServer>(std::move(options));

  Fleet fleet(programs);
  std::mutex mu;  // Guards the result samples written from callbacks.
  fleet.on_response = [&](const Request& request, const Response& response) {
    DispatchTracer::Open open;
    const bool traced = tracer.Take(DispatchTracer::TenancyOf(request), &open);
    std::lock_guard<std::mutex> lock(mu);
    std::vector<Response>& kept = result.responses[request.op];
    if (kept.size() < kMaxCaptured) kept.push_back(response);
    if (!traced || !open.stored || IsReadOp(request.op)) return;
    const double total = MicrosBetween(open.dispatched, Clock::now());
    const double wait = MicrosBetween(open.dispatched, open.first_store);
    result.queue_wait_us.Add(wait);
    result.journal_us.Add(open.store_us);
    result.exec_us.Add(std::max(0.0, total - wait - open.store_us));
  };
  std::vector<std::unique_ptr<LocalSender>> senders;
  std::vector<Sender*> pointers;
  for (int i = 0; i + 1 < kConnections; ++i) {
    senders.push_back(std::make_unique<LocalSender>(
        server.get(), [&tracer](const Request& r) { tracer.Dispatched(r); }));
    pointers.push_back(senders.back().get());
  }
  const std::vector<Lane> lanes = MakeLanes(pointers, programs.size());
  if (!StepAll(&fleet, lanes)) {
    result.ok = false;
    result.why = "in-process set-up failed";
    return result;
  }
  store->SetTracing(true);
  (void)store->TakeTimings();

  // The fourth thread times inline reads beside the write load.
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    Samples local, bytes;
    std::string line;
    for (size_t i = 0; !stop.load(); ++i) {
      const Program& program = programs[i % programs.size()];
      Request read = TenancyRequest(RequestOp::kReport, program.tenancy);
      if (i % 2 == 1) {
        for (const Request& r : program.requests) {
          if (r.op == RequestOp::kSubmit && !r.tenants.empty()) {
            read.op = RequestOp::kQueryPrice;
            read.tenants = {r.tenants[0]};
            break;
          }
        }
      }
      const auto start = Clock::now();
      const Response response = server->Handle(read);
      if (!response.ok()) continue;
      local.Add(MicrosBetween(start, Clock::now()));
      if (read.op == RequestOp::kReport) {
        line.clear();
        protocol::AppendResponseLine(response, &line);
        bytes.Add(static_cast<double>(line.size()));
      }
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    std::lock_guard<std::mutex> lock(mu);
    result.read_inline_us = local;
    result.report_bytes = bytes;
  });
  const Tally tally = workload.DriveInProcess(&fleet, lanes, seconds);
  stop.store(true);
  reader.join();
  server->Drain();
  result.seconds = tally.seconds;
  result.journal = store->TakeTimings();
  // A graceful shutdown fsyncs every tenancy left mid-period.
  (void)server->Shutdown();
  result.journal.sync_ms = store->TakeTimings().sync_ms;
  if (tally.mismatched > 0 || tally.failed > 0) {
    result.ok = false;
    result.why = "in-process replay: " + std::to_string(tally.failed) +
                 " failed, " + std::to_string(tally.mismatched) +
                 " mismatched " + tally.first_mismatch;
  }
  fleet.on_response = nullptr;
  server.reset();
  store->SetObserver(nullptr);
  std::filesystem::remove_all(data_dir, ignored);
  return result;
}

Samples TransportProbe(MarketplaceServer* server, uint16_t port,
                       std::string* why) {
  Samples overhead;
  const std::string tenancy = "perfbench-transport";
  Result<NetClient> client = NetClient::Connect("127.0.0.1", port);
  if (!client.ok() || !CallOk(*client, ProbeOpen(tenancy)) ||
      !CallOk(*client, ProbeSubmit(tenancy))) {
    *why = "transport probe set-up failed";
    return overhead;
  }
  const Request advance = TenancyRequest(RequestOp::kAdvanceSlot, tenancy);
  for (int i = 0; i < kProbePairs; ++i) {
    auto start = Clock::now();
    const bool ok = CallOk(*client, advance);
    const double tcp = MicrosBetween(start, Clock::now());
    start = Clock::now();
    const bool local_ok = server->Handle(advance).ok();
    const double local = MicrosBetween(start, Clock::now());
    if (!ok || !local_ok) {
      *why = "transport probe request failed";
      break;
    }
    overhead.Add(tcp - local);
  }
  return overhead;
}

ClusterNumbers ClusterProbe(Cluster* cluster, const Fleet& fleet,
                            std::string* why) {
  ClusterNumbers numbers;
  std::unique_ptr<Cluster> own;
  if (cluster == nullptr) {
    Result<std::unique_ptr<Cluster>> started = StartCluster("");
    if (!started.ok()) {
      *why = "probe cluster: " + started.status().ToString();
      return numbers;
    }
    own = std::move(*started);
    cluster = own.get();
  }
  const std::string tenancy = "perfbench-router";
  const auto owner = cluster->placement.OwnerOf(tenancy);
  uint16_t owner_port = 0;
  for (size_t n = 0; n < cluster->nodes.size(); ++n) {
    if (cluster->nodes[n] != nullptr && owner &&
        cluster->nodes[n]->id() == owner->id) {
      owner_port = cluster->nodes[n]->port();
    }
  }
  Result<NetClient> via = NetClient::Connect("127.0.0.1", cluster->front->port());
  Result<NetClient> direct = NetClient::Connect("127.0.0.1", owner_port);
  if (owner_port == 0 || !via.ok() || !direct.ok() ||
      !CallOk(*via, ProbeOpen(tenancy)) || !CallOk(*via, ProbeSubmit(tenancy))) {
    *why = "router probe set-up failed";
    return numbers;
  }
  const Request advance = TenancyRequest(RequestOp::kAdvanceSlot, tenancy);
  for (int i = 0; i < kProbePairs; ++i) {
    auto start = Clock::now();
    const bool routed = CallOk(*via, advance);
    const double through = MicrosBetween(start, Clock::now());
    start = Clock::now();
    const bool straight = CallOk(*direct, advance);
    const double to_owner = MicrosBetween(start, Clock::now());
    if (!routed || !straight) {
      *why = "router probe request failed";
      break;
    }
    numbers.router_overhead_us.Add(through - to_owner);
  }
  std::vector<std::string> names;
  for (const Program& program : fleet.programs) names.push_back(program.tenancy);
  const optshare::cluster::PlacementMap& placement = cluster->placement;
  numbers.owner_of_ns = NsPerItem(names, [&placement](const std::string& n) {
    auto node = placement.OwnerOf(n);
    (void)node;
  });
  for (const auto& node : cluster->nodes) {
    if (node == nullptr) continue;
    const JsonValue info = ServerInfo(node->server());
    numbers.node_connections +=
        NumberAtPath(info, "transport.connections_accepted");
    numbers.repl_lag_max =
        std::max(numbers.repl_lag_max, NumberAtPath(info, "replication.lag"));
    numbers.repl_failures += NumberAtPath(info, "replication.failures");
  }
  return numbers;
}

}  // namespace perfbench
