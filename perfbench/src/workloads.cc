#include "workloads.h"

#include <algorithm>
#include <filesystem>
#include <iostream>

#include "service/state_store.h"

namespace perfbench {

namespace fs = std::filesystem;
using optshare::cluster::ClusterNode;
using optshare::cluster::ClusterNodeOptions;
using optshare::cluster::NodeInfo;
using optshare::cluster::PlacementMap;
using optshare::service::MarketplaceServer;
using optshare::strategy::ArrivalSpec;
using optshare::strategy::DurationSpec;
using optshare::strategy::ExecutionsSpec;
using optshare::strategy::IntervalSpec;
using optshare::strategy::TenantClass;
using optshare::strategy::TraceConfig;
namespace simdb = optshare::simdb;

namespace {

uint64_t Mix(uint64_t seed, uint64_t k) {
  uint64_t z = seed * 0x9E3779B97F4A7C15ull + k + 0x632BE59BD9B4E019ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

simdb::Workload Query(const std::string& table,
                      std::vector<simdb::Predicate> predicates) {
  simdb::Workload workload;
  simdb::Workload::Entry entry;
  entry.frequency = 1.0;
  entry.query.table = table;
  entry.query.aggregate = true;
  entry.query.predicates = std::move(predicates);
  workload.entries.push_back(std::move(entry));
  return workload;
}

simdb::TableDef TelemetryTable() {
  simdb::TableDef table;
  table.name = "telemetry";
  table.columns = {{"device", simdb::ColumnType::kInt64, 5'000'000},
                   {"metric", simdb::ColumnType::kInt64, 64},
                   {"value", simdb::ColumnType::kDouble, 1'000'000}};
  table.row_count = 1'000'000'000;
  return table;
}

/// A tenancy of the pricing mix: Pareto-sized tenants arriving on a diurnal
/// cycle over the telemetry catalog, half of them leaving at once in period
/// 2, mechanisms alternating between the paper's addon and regret.
TraceConfig PricingConfig(uint64_t seed, int k) {
  TraceConfig config;
  config.name = "pricing";
  config.seed = Mix(seed, static_cast<uint64_t>(k));
  // The server keeps every closed period's report in memory and copies
  // that history at each close, so a close costs more the more periods a
  // run has closed. Long periods keep that growth small within a run.
  config.periods = 8;
  config.slots_per_period = 96;
  config.mechanism = k % 2 == 0 ? "addon" : "regret";
  config.catalog.tables.push_back(TelemetryTable());
  TenantClass steady;
  steady.name = "steady";
  steady.count = 160;
  steady.workloads = {
      Query("telemetry", {{"device", 2e-7}}),
      Query("telemetry", {{"metric", 1.0 / 64}, {"device", 1e-5}}),
      Query("telemetry", {{"value", 1e-4}}),
      Query("telemetry", {{"metric", 1.0 / 64}, {"value", 1e-3}}),
      Query("telemetry", {{"device", 1e-6}, {"value", 1e-2}}),
      Query("telemetry", {{"metric", 1.0 / 64}})};
  steady.executions.kind = ExecutionsSpec::Kind::kPareto;
  steady.executions.scale = 150.0;
  steady.executions.alpha = 1.3;
  steady.executions.cap = 50'000.0;
  steady.interval.kind = IntervalSpec::Kind::kSampled;
  steady.interval.arrival.process = ArrivalSpec::Process::kDiurnal;
  steady.interval.arrival.amplitude = 0.8;
  steady.interval.arrival.wavelength = 24.0;
  steady.interval.arrival.phase = k;
  config.classes.push_back(std::move(steady));
  optshare::strategy::DepartureSpec exodus;
  exodus.period = 2;
  exodus.slot = 48;
  exodus.fraction = 0.5;
  exodus.class_name = "steady";
  config.departures.push_back(exodus);
  return config;
}

/// A tenancy of the small-ops mix: a one-column catalog and 1-4 tenants
/// that come and go within a period.
TraceConfig SmallOpsConfig(uint64_t seed, int k) {
  TraceConfig config;
  config.name = "small-ops";
  config.seed = Mix(seed, 1000 + static_cast<uint64_t>(k));
  // Long periods keep close_period's fsync'd checkpoint rare, so the
  // per-request path, not the disk, sets the pace.
  config.periods = 12;
  config.slots_per_period = 64;
  config.mechanism = k % 2 == 0 ? "addon" : "regret";
  config.catalog.tables.push_back(TinyTable());
  TenantClass tiny;
  tiny.name = "tiny";
  tiny.count = 1 + k % 4;
  tiny.workloads = {TinyQuery()};
  tiny.executions.kind = ExecutionsSpec::Kind::kFixed;
  tiny.executions.fixed = 10.0;
  tiny.interval.kind = IntervalSpec::Kind::kSampled;
  tiny.interval.duration.kind = DurationSpec::Kind::kUniform;
  tiny.interval.duration.lo = 2;
  tiny.interval.duration.hi = 8;
  config.classes.push_back(std::move(tiny));
  optshare::strategy::DepartureSpec leave;
  leave.period = 0;
  leave.slot = 8;
  leave.fraction = 0.5;
  config.departures.push_back(leave);
  return config;
}

Result<std::vector<Program>> SmallOpsPrograms(uint64_t seed, int tenancies) {
  std::vector<Program> programs;
  for (int k = 0; k < tenancies; ++k) {
    Result<Program> program = MakeProgram(
        SmallOpsConfig(seed, k), "ops-" + std::to_string(k), true);
    if (!program.ok()) return program.status();
    program->batched = k % 4 == 3;  // A fixed share rides in batch frames.
    programs.push_back(std::move(*program));
  }
  return programs;
}

Workload::Phase FromTally(Tally tally) {
  Workload::Phase phase;
  phase.summary = Summarize(tally);
  phase.all = std::move(tally);
  return phase;
}

class PricingWorkload : public Workload {
 public:
  const char* name() const override { return "pricing"; }
  Result<std::vector<Program>> MakePrograms(uint64_t seed) const override {
    std::vector<Program> programs;
    for (int k = 0; k < 16; ++k) {
      Result<Program> program = MakeProgram(
          PricingConfig(seed, k), "pricing-" + std::to_string(k), true);
      if (!program.ok()) return program.status();
      programs.push_back(std::move(*program));
    }
    return programs;
  }
  Phase Run(World* world, Fleet* fleet, double seconds) override {
    return FromTally(RunClosedLoop(
        fleet, MakeLanes(world->SenderPointers(), fleet->programs.size()),
        seconds, true));
  }
};

class SmallOpsWorkload : public Workload {
 public:
  /// Open-loop send rate, requests (or batch frames) per second.
  static constexpr double kOpenLoopRate = 8000.0;

  const char* name() const override { return "small-ops"; }
  Result<std::vector<Program>> MakePrograms(uint64_t seed) const override {
    return SmallOpsPrograms(seed, 64);
  }
  // NetServer leaves Nagle on. Once one answer waits for the client's ACK,
  // each later answer on the connection waits for the ACK riding on the next
  // request, 0.5 ms later at this rate, and the open loop stays there: in 4
  // of 10 runs write p50 was ~570 us and p99 6-7 ms, in the rest 130 us and
  // 0.7 ms. ACKing every answer at once keeps the open loop out of that
  // mode; read-mix keeps the stall in view.
  bool quick_ack() const override { return true; }
  Phase Run(World* world, Fleet* fleet, double seconds) override {
    const std::vector<Lane> lanes =
        MakeLanes(world->SenderPointers(), fleet->programs.size());
    Tally closed = RunClosedLoop(fleet, lanes, seconds / 2, true);
    Tally open = RunOpenLoop(fleet, SingleRequestLanes(*fleet, lanes),
                             seconds / 2, kOpenLoopRate);
    // Rate and CPU cost from the saturated closed loop; latencies from the
    // open loop.
    Phase phase = FromTally(std::move(closed));
    const Summary latencies = Summarize(open);
    phase.summary.write_p50_us = latencies.write_p50_us;
    phase.summary.write_p99_us = latencies.write_p99_us;
    phase.summary.read_p50_us = latencies.read_p50_us;
    phase.summary.read_p99_us = latencies.read_p99_us;
    phase.summary.write_p99_support = latencies.write_p99_support;
    phase.summary.read_p99_support = latencies.read_p99_support;
    phase.all.Merge(open);
    phase.all.seconds += open.seconds;
    return phase;
  }
  Tally DriveInProcess(Fleet* fleet, const std::vector<Lane>& lanes,
                       double seconds) const override {
    return RunOpenLoop(fleet, SingleRequestLanes(*fleet, lanes), seconds,
                       kOpenLoopRate);
  }

 private:
  /// The open loop sends the single-request tenancies only: a 32-member
  /// frame holds its shard ~32 times longer, and the single requests queued
  /// behind one made the open-loop p99 swing from run to run.
  static std::vector<Lane> SingleRequestLanes(const Fleet& fleet,
                                              std::vector<Lane> lanes) {
    for (Lane& lane : lanes) lane.tenancies.clear();
    size_t next = 0;
    for (size_t k = 0; k < fleet.programs.size(); ++k) {
      if (fleet.programs[k].batched) continue;
      lanes[next++ % lanes.size()].tenancies.push_back(static_cast<int>(k));
    }
    return lanes;
  }
};

class ReadMixWorkload : public Workload {
 public:
  static constexpr int kHistoryPeriods = 3;

  const char* name() const override { return "read-mix"; }
  bool file_store() const override { return false; }
  Result<std::vector<Program>> MakePrograms(uint64_t seed) const override {
    std::vector<Program> programs;
    // 16 tenancies, not 4: journal_bytes_per_req_byte follows each
    // tenancy's seeded arrivals, and with 4 it spread 0.18 over ten seeds.
    for (int k = 0; k < 16; ++k) {
      TraceConfig config = PricingConfig(seed + 7, k);
      config.name = "read-mix";
      config.periods = 6;
      config.slots_per_period = 48;
      config.classes[0].count = 16;
      config.classes[0].interval.arrival.wavelength = 12.0;
      config.departures[0].slot = 24;
      Result<Program> program =
          MakeProgram(config, "mix-" + std::to_string(k), false);
      if (!program.ok()) return program.status();
      programs.push_back(std::move(*program));
    }
    return programs;
  }

  /// Runs every tenancy through its first periods, so reads have history.
  bool WarmUp(World* world, Fleet* fleet) override {
    const std::vector<Sender*> senders = world->SenderPointers();
    plan_ = ReadMixPlan();
    plan_.reads.resize(fleet->programs.size());
    for (size_t k = 0; k < fleet->programs.size(); ++k) {
      const Program& program = fleet->programs[k];
      TenancyState& state = fleet->states[k];
      // Up to the kHistoryPeriods-th close_period, in 32-member batch
      // frames: set-up then costs the server's work, not one round trip
      // per request, whose time swung with the machine's wake-up latency.
      size_t end = 0;
      for (int closes = 0; closes < kHistoryPeriods; ++end) {
        if (end == program.requests.size()) return false;
        if (program.requests[end].op == RequestOp::kClosePeriod) ++closes;
      }
      while (fleet->answered[k] < end) {
        const size_t n = std::min<size_t>(32, end - fleet->answered[k]);
        const Request frame = BatchOf(program, fleet->answered[k], n);
        Result<Response> response =
            CallAndWait(senders[k % senders.size()], frame);
        uint64_t slots = 0;
        if (!response.ok() || CheckResponse(frame, *response, &state, true,
                                            &slots) != Verdict::kOk) {
          return false;
        }
        fleet->answered[k] += n;
        fleet->sent[k] = fleet->answered[k];
      }
      // Reads: the live report, each warm-up period's report, and a what-if
      // price for the first tenants the program submitted.
      std::vector<Request>& reads = plan_.reads[k];
      reads.push_back(TenancyRequest(RequestOp::kReport, program.tenancy));
      for (int p = 1; p <= kHistoryPeriods; ++p) {
        Request historical =
            TenancyRequest(RequestOp::kReport, program.tenancy);
        historical.period = p;
        reads.push_back(historical);
      }
      for (const Request& r : program.requests) {
        if (r.op != RequestOp::kSubmit) continue;
        Request quote =
            TenancyRequest(RequestOp::kQueryPrice, program.tenancy);
        quote.tenants.assign(r.tenants.begin(),
                             r.tenants.begin() +
                                 std::min<size_t>(2, r.tenants.size()));
        reads.push_back(quote);
        break;
      }
    }
    return true;
  }

  Phase Run(World* world, Fleet* fleet, double seconds) override {
    const std::vector<Sender*> senders = world->SenderPointers();
    return FromTally(RunReadMix(fleet, {senders[0], senders[1]},
                                {senders[2], senders[3]}, plan_, seconds));
  }

 private:
  ReadMixPlan plan_;
};

class ClusterWorkload : public Workload {
 public:
  const char* name() const override { return "cluster"; }
  bool clustered() const override { return true; }
  // One connection: replication streams synchronously from a node's shard
  // worker into the replica's shard of the same index, so two requests in
  // flight on different owners can wait on each other forever (two router
  // connections hang a 3-node cluster within seconds). One connection keeps
  // one request in flight cluster-wide.
  int connections() const override { return 1; }
  // In 5 of 10 runs the p99s rose from ~12 ms to 18-35 ms with p50 unchanged:
  // answers held by the router's Nagle for the client's delayed ACK.
  bool quick_ack() const override { return true; }
  Result<std::vector<Program>> MakePrograms(uint64_t seed) const override {
    return SmallOpsPrograms(seed, 16);
  }
  Phase Run(World* world, Fleet* fleet, double seconds) override {
    return FromTally(RunClosedLoop(
        fleet, MakeLanes(world->SenderPointers(), fleet->programs.size()),
        seconds, true));
  }
};

}  // namespace

Request TenancyRequest(RequestOp op, const std::string& tenancy) {
  Request request;
  request.op = op;
  request.version = 2;
  request.tenancy = tenancy;
  return request;
}

simdb::TableDef TinyTable() {
  simdb::TableDef table;
  table.name = "t";
  table.columns = {{"k", simdb::ColumnType::kInt64, 1000}};
  table.row_count = 1'000'000;
  return table;
}

simdb::Workload TinyQuery() { return Query("t", {{"k", 0.01}}); }

std::unique_ptr<Workload> MakeWorkload(const std::string& name) {
  if (name == "pricing") return std::make_unique<PricingWorkload>();
  if (name == "small-ops") return std::make_unique<SmallOpsWorkload>();
  if (name == "read-mix") return std::make_unique<ReadMixWorkload>();
  if (name == "cluster") return std::make_unique<ClusterWorkload>();
  return nullptr;
}

// -- Worlds -------------------------------------------------------------------

Cluster::~Cluster() {
  if (front != nullptr) front->Stop();
  for (auto& node : nodes) {
    if (node != nullptr) node->Stop();
  }
}

Result<std::unique_ptr<Cluster>> StartCluster(const std::string& data_root) {
  std::vector<NodeInfo> entries;
  for (int n = 0; n < 3; ++n) {
    entries.push_back({"node-" + std::to_string(n), "127.0.0.1", 0, false});
  }
  Result<PlacementMap> provisional = PlacementMap::Create(entries);
  if (!provisional.ok()) return provisional.status();
  auto cluster = std::make_unique<Cluster>();
  for (int n = 0; n < 3; ++n) {
    ClusterNodeOptions options;
    options.node_id = entries[static_cast<size_t>(n)].id;
    options.placement = *provisional;
    options.num_workers = kWorkers;
    options.connect.timeout_ms = 1000;
    if (!data_root.empty()) {
      options.data_dir = data_root + "/" + options.node_id;
    }
    cluster->nodes.push_back(std::make_unique<ClusterNode>(options));
    OPTSHARE_RETURN_NOT_OK(cluster->nodes.back()->Start());
    entries[static_cast<size_t>(n)].port = cluster->nodes.back()->port();
    cluster->options.push_back(std::move(options));
  }
  Result<PlacementMap> bound = PlacementMap::Create(entries);
  if (!bound.ok()) return bound.status();
  bound->SetVersion(provisional->version() + 1);
  for (size_t n = 0; n < cluster->nodes.size(); ++n) {
    cluster->nodes[n]->replication()->UpdatePlacement(*bound);
    cluster->options[n].placement = *bound;
  }
  cluster->placement = *bound;
  optshare::cluster::RouterOptions router_options;
  router_options.placement = *bound;
  cluster->router =
      std::make_unique<optshare::cluster::ClusterRouter>(router_options);
  cluster->front = std::make_unique<optshare::cluster::RouterServer>(
      cluster->router.get());
  OPTSHARE_RETURN_NOT_OK(cluster->front->Start());
  return cluster;
}

World::~World() {
  senders.clear();
  if (net != nullptr) net->Stop();
  net.reset();
  server.reset();
  cluster.reset();
}

std::vector<Sender*> World::SenderPointers() const {
  std::vector<Sender*> pointers;
  for (const auto& sender : senders) pointers.push_back(sender.get());
  return pointers;
}

std::vector<MarketplaceServer*> World::Servers() const {
  std::vector<MarketplaceServer*> servers;
  if (server != nullptr) servers.push_back(server.get());
  if (cluster != nullptr) {
    for (const auto& node : cluster->nodes) {
      if (node != nullptr) servers.push_back(node->server());
    }
  }
  return servers;
}

uint16_t World::FirstServerPort() const {
  if (net != nullptr) return net->port();
  return cluster != nullptr && cluster->nodes[0] != nullptr
             ? cluster->nodes[0]->port()
             : 0;
}

Result<std::unique_ptr<World>> Boot(const Workload& workload,
                                    const std::string& data_dir) {
  auto world = std::make_unique<World>();
  world->data_dir = data_dir;
  uint16_t port = 0;
  if (workload.clustered()) {
    Result<std::unique_ptr<Cluster>> cluster = StartCluster(data_dir);
    if (!cluster.ok()) return cluster.status();
    world->cluster = std::move(*cluster);
    port = world->cluster->front->port();
  } else {
    if (workload.file_store()) {
      auto file = optshare::service::FileStateStore::Open(data_dir);
      if (!file.ok()) return file.status();
      world->base = std::move(*file);
    } else {
      world->base = std::make_shared<optshare::service::MemoryStateStore>();
    }
    world->store = std::make_shared<CountingStore>(world->base);
    optshare::service::ServerOptions options;
    options.num_workers = kWorkers;
    options.store = world->store;
    world->server = std::make_unique<MarketplaceServer>(std::move(options));
    world->net = std::make_unique<optshare::service::NetServer>(
        world->server.get(), optshare::service::NetServerOptions{});
    OPTSHARE_RETURN_NOT_OK(world->net->Start());
    port = world->net->port();
  }
  for (int c = 0; c < workload.connections(); ++c) {
    Result<std::unique_ptr<TcpSender>> sender =
        TcpSender::Connect(port, 1 << 16, workload.quick_ack());
    if (!sender.ok()) return sender.status();
    world->senders.push_back(std::move(*sender));
  }
  return world;
}

}  // namespace perfbench
