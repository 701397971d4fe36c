// perfbench: the optshare benchmark. One workload per invocation:
//
//   perfbench --workload pricing|small-ops|read-mix|cluster --seed N
//             --seconds S --trace 0|1 [--tmp-dir DIR] [--commit SHA]
//
// --trace 0 measures the end-to-end metrics; --trace 1 is the separate
// traced run that measures each layer from outside. Either way every answer
// is checked, close_period reports are compared with a direct PricingSession
// replay, and a crashed server's recovered reports must equal the pre-crash
// ones. The last stdout line is the result document:
//
//   {"attempted":N,"correct":true,"failed":0,"metrics":{...}}
//
// See perfbench/README.md for the workloads and every metric.
#include <fcntl.h>
#include <unistd.h>

#include <filesystem>
#include <iostream>
#include <thread>

#include "bench.h"
#include "common/logging.h"
#include "drive.h"
#include "probes.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

using optshare::service::MarketplaceServer;

/// Set-ups and recoveries per measured run. setup_s is the median set-up;
/// recover_s is the fastest recovery, because a recovery takes a few
/// milliseconds and any other load on a shared machine only slows it. The
/// gap spreads the repetitions over time, so a burst of other load moves
/// few of them.
constexpr int kSetUps = 9;
constexpr int kRecoveries = 40;
constexpr auto kRepeatGap = std::chrono::milliseconds(40);

struct Outcome {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  MetricSet metrics;

  void Problem(const std::string& what) {
    correct = false;
    std::cerr << "perfbench: CHECK FAILED: " << what << "\n";
  }
};

const Clock::time_point kProcessStart = Clock::now();

/// Progress on stderr, with seconds since start, so a run cut short shows
/// where it was and a slow one where the time went.
void Stage(const char* what) {
  std::cerr << "perfbench: [" << SecondsSince(kProcessStart) << " s] " << what
            << "\n";
}

std::string DataDir(const Options& options, const char* what) {
  return options.tmp_dir + "/" + options.workload + "-" + what;
}

/// fsyncs every file and directory under `root`. Run before a timed step
/// that touches the disk, so the kernel's write-back of earlier steps' data
/// does not land inside it at random.
void FlushTree(const std::filesystem::path& root) {
  std::error_code error;
  std::vector<std::filesystem::path> paths = {root};
  for (auto it = std::filesystem::recursive_directory_iterator(root, error);
       !error && it != std::filesystem::recursive_directory_iterator();
       it.increment(error)) {
    paths.push_back(it->path());
  }
  for (const std::filesystem::path& path : paths) {
    const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0) continue;
    (void)::fsync(fd);
    ::close(fd);
  }
}

/// Everything before the first timed request: the inputs generated from the
/// seed, boot + connect, every tenancy created (its catalog-carrying
/// open_period), and the workload's warm-up.
Result<std::unique_ptr<World>> SetUp(Workload& workload, uint64_t seed,
                                     Fleet* fleet, const std::string& dir,
                                     double* seconds) {
  std::filesystem::remove_all(dir);
  FlushTree(std::filesystem::path(dir).parent_path());
  const auto start = Clock::now();
  Result<std::vector<Program>> programs = workload.MakePrograms(seed);
  if (!programs.ok()) return programs.status();
  *fleet = Fleet(std::move(*programs));
  Result<std::unique_ptr<World>> world = Boot(workload, dir);
  if (!world.ok()) return world.status();
  if (!StepAll(fleet, MakeLanes((*world)->SenderPointers(),
                                fleet->programs.size()))) {
    return Status::Internal("creating the tenancies failed");
  }
  if (!workload.WarmUp(world->get(), fleet)) {
    return Status::Internal("warm-up failed");
  }
  *seconds = SecondsSince(start);
  return world;
}

uint64_t JournalBytes(const Workload& workload, const World& world) {
  // ClusterNodes build their own stores, so a cluster counts what its
  // FileStateStores write to disk instead.
  return workload.clustered() ? ProcessWriteBytes() : world.store->bytes();
}

Request LiveReport(const std::string& tenancy) {
  return TenancyRequest(RequestOp::kReport, tenancy);
}

struct Recovery {
  Samples seconds;
  double replayed = 0.0;
};

/// Crashes the server (node 0 in a cluster) after the timed phase and times
/// fresh servers recovering its data `reps` times. The first recovered
/// server's reports must equal the ones taken before the crash. A cluster
/// node's recovery is timed without its listener and replication start-up,
/// which took longer than the node's sub-millisecond replay and swung more.
Recovery CrashAndRecover(const Workload& workload, World* world,
                         const Fleet& fleet, int reps, Outcome* out) {
  Recovery recovery;
  Cluster* cluster = world->cluster.get();
  MarketplaceServer* victim =
      cluster != nullptr ? cluster->nodes[0]->server() : world->server.get();
  // In a cluster, node 0's data dir holds replicas of other nodes'
  // tenancies too; a booting node recovers only the tenancies it owns.
  const std::string node_id =
      cluster != nullptr ? cluster->options[0].node_id : "";
  const auto owned = [cluster, &node_id](const std::string& tenancy) {
    auto owner = cluster->placement.OwnerOf(tenancy);
    return owner.has_value() && owner->id == node_id;
  };
  const std::string data_dir =
      cluster != nullptr ? cluster->options[0].data_dir : world->data_dir;
  std::map<std::string, std::string> before;
  for (const Program& program : fleet.programs) {
    if (cluster != nullptr && !owned(program.tenancy)) continue;
    const Response report = victim->Handle(LiveReport(program.tenancy));
    if (!report.ok()) {
      out->Problem("pre-crash report of " + program.tenancy + " failed");
      continue;
    }
    before[program.tenancy] = report.payload.Dump();
  }
  world->senders.clear();
  if (cluster != nullptr) {
    cluster->nodes[0].reset();  // Crash: no checkpoint.
  } else {
    world->net->Stop();
    world->net.reset();
    world->server.reset();  // Crash: drains, does not checkpoint.
  }
  // The crash leaves the OS cache intact; flushing it now keeps write-back
  // out of the timed recoveries.
  FlushTree(world->data_dir);

  const auto compare = [&](MarketplaceServer* server) {
    for (const auto& [tenancy, dump] : before) {
      const Response report = server->Handle(LiveReport(tenancy));
      if (!report.ok() || report.payload.Dump() != dump) {
        out->Problem("recovered report of " + tenancy +
                     " differs from the pre-crash report");
      }
    }
  };
  for (int rep = 0; rep < reps; ++rep) {
    std::this_thread::sleep_for(kRepeatGap);
    std::shared_ptr<optshare::service::StateStore> base = world->base;
    if (workload.file_store()) {
      auto file = optshare::service::FileStateStore::Open(data_dir);
      if (!file.ok()) {
        out->Problem("reopening the data dir failed");
        return recovery;
      }
      base = std::move(*file);
    }
    optshare::service::ServerOptions options;
    options.num_workers = kWorkers;
    options.store = std::make_shared<CountingStore>(base);
    const auto start = Clock::now();
    auto server = std::make_unique<MarketplaceServer>(std::move(options));
    Result<optshare::service::RecoveryStats> stats =
        cluster != nullptr ? server->RecoverMatching(owned) : server->Recover();
    recovery.seconds.Add(SecondsSince(start));
    if (!stats.ok()) {
      out->Problem("recovery failed: " + stats.status().ToString());
      return recovery;
    }
    recovery.replayed = stats->journal_records_replayed;
    if (rep == 0) compare(server.get());
  }
  return recovery;
}

/// Replays every tenancy's answered program through PricingSession on four
/// threads; exec timings per mechanism.
std::map<std::string, ExecTimings> ReplayAll(const Fleet& fleet,
                                             Outcome* out) {
  constexpr size_t kThreads = 4;
  std::vector<std::map<std::string, ExecTimings>> timings(kThreads);
  std::vector<std::string> failures(kThreads);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (size_t k = t; k < fleet.programs.size(); k += kThreads) {
        const Program& program = fleet.programs[k];
        std::string why;
        if (!ReplayAndCompare(program, fleet.answered[k], fleet.states[k],
                              &timings[t][program.mechanism], &why) &&
            failures[t].empty()) {
          failures[t] = why;
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  std::map<std::string, ExecTimings> merged;
  for (size_t t = 0; t < kThreads; ++t) {
    if (!failures[t].empty()) out->Problem(failures[t]);
    for (auto& [mechanism, exec] : timings[t]) {
      ExecTimings& into = merged[mechanism];
      into.submit_us_per_tenant.Append(exec.submit_us_per_tenant);
      into.advance_us.Append(exec.advance_us);
      into.close_ms.Append(exec.close_ms);
      into.structures_at_close.Append(exec.structures_at_close);
      into.slots += exec.slots;
    }
  }
  return merged;
}

void CheckPhase(const Tally& tally, Outcome* out) {
  out->attempted += tally.attempted;
  out->failed += tally.failed;
  if (tally.mismatched > 0) {
    out->Problem(std::to_string(tally.mismatched) +
                 " answers contradicted the client's state; first: " +
                 tally.first_mismatch);
  }
}

void NoteSupport(const char* name, size_t beyond) {
  if (beyond < 10) {
    std::cerr << "perfbench: note: " << name << " has only " << beyond
              << " samples beyond it; that p99 is not supported\n";
  }
}

Outcome RunMeasured(Workload& workload, Fleet& fleet,
                    const Options& options) {
  Outcome out;
  const std::string dir = DataDir(options, "data");
  Samples setup;
  std::unique_ptr<World> world;
  for (int rep = 0; rep < kSetUps; ++rep) {
    world.reset();
    std::this_thread::sleep_for(kRepeatGap);
    double seconds = 0.0;
    Result<std::unique_ptr<World>> booted =
        SetUp(workload, options.seed, &fleet, dir, &seconds);
    if (!booted.ok()) {
      out.Problem("set-up: " + booted.status().ToString());
      return out;
    }
    world = std::move(*booted);
    setup.Add(seconds);
  }
  Stage("set up");

  const uint64_t bytes_before = JournalBytes(workload, *world);
  Workload::Phase phase = workload.Run(world.get(), &fleet, options.seconds);
  const double journal_bytes =
      static_cast<double>(JournalBytes(workload, *world) - bytes_before);
  CheckPhase(phase.all, &out);
  Stage("timed phase done");
  if (!SettleMidPeriod(&fleet, MakeLanes(world->SenderPointers(),
                                         fleet.programs.size()))) {
    out.Problem("walking the tenancies to mid-period failed");
  }
  Stage("settled at the crash point");

  const Recovery recovery =
      CrashAndRecover(workload, world.get(), fleet, kRecoveries, &out);
  Stage("recovered");
  std::cerr << "perfbench: each recovery replayed " << recovery.replayed
            << " journal records\n";
  ReplayAll(fleet, &out);
  Stage("replayed");
  world.reset();
  std::filesystem::remove_all(dir);

  const Summary& s = phase.summary;
  NoteSupport("write_p99_us", s.write_p99_support);
  NoteSupport("read_p99_us", s.read_p99_support);
  std::cerr << "perfbench: error_rate "
            << (out.attempted ? static_cast<double>(out.failed) / out.attempted
                              : 0.0)
            << " (" << out.failed << " of " << out.attempted << ")\n";
  MetricSet& m = out.metrics;
  m.Put("setup_s", setup.Median(), "s");
  m.Put("throughput_rps", s.throughput_rps, "req/s");
  m.Put("slots_per_s", s.slots_per_s, "slots/s");
  m.Put("write_p50_us", s.write_p50_us, "us");
  m.Put("write_p99_us", s.write_p99_us, "us");
  m.Put("read_p50_us", s.read_p50_us, "us");
  m.Put("read_p99_us", s.read_p99_us, "us");
  m.Put("recover_s", recovery.seconds.Percentile(0), "s");
  m.Put("journal_bytes_per_req_byte",
        phase.all.request_bytes ? journal_bytes / phase.all.request_bytes : 0,
        "ratio");
  m.Put("cpu_us_per_req", s.cpu_us_per_req, "us");
  m.Put("peak_rss_mb", PeakRssMb(), "MiB");
  return out;
}

/// Samples shard queue depths (and replication lag) from server_info while
/// the traced phase runs.
class Sampler {
 public:
  explicit Sampler(std::vector<MarketplaceServer*> servers)
      : servers_(std::move(servers)), thread_([this] { Loop(); }) {}
  ~Sampler() { Stop(); }
  Sampler(const Sampler&) = delete;
  Sampler& operator=(const Sampler&) = delete;

  void Stop() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
  }
  double depth_max = 0.0;
  double sum_max = 0.0;   ///< Sum over samples of the deepest shard.
  double sum_mean = 0.0;  ///< Sum over samples of the mean shard depth.
  double lag_max = 0.0;

 private:
  void Loop() {
    while (!stop_.load()) {
      for (MarketplaceServer* server : servers_) {
        const JsonValue info = ServerInfo(server);
        lag_max = std::max(lag_max, NumberAtPath(info, "replication.lag"));
        const JsonValue* metrics = info.Find("metrics");
        const JsonValue* depths =
            metrics != nullptr ? metrics->Find("shard_queue_depths") : nullptr;
        if (depths == nullptr || !depths->is_array() ||
            depths->AsArray().empty()) {
          continue;
        }
        double deepest = 0.0;
        double total = 0.0;
        for (const JsonValue& d : depths->AsArray()) {
          deepest = std::max(deepest, d.AsNumber());
          total += d.AsNumber();
        }
        depth_max = std::max(depth_max, deepest);
        sum_max += deepest;
        sum_mean += total / depths->AsArray().size();
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }

  std::vector<MarketplaceServer*> servers_;
  std::atomic<bool> stop_{false};
  std::thread thread_;  ///< Last member: started after the rest exists.
};

Outcome RunTraced(Workload& workload, Fleet& fleet, const Options& options,
                  double calibration_ms) {
  Outcome out;
  const std::string dir = DataDir(options, "data");
  double setup_seconds = 0.0;
  Result<std::unique_ptr<World>> booted =
      SetUp(workload, options.seed, &fleet, dir, &setup_seconds);
  if (!booted.ok()) {
    out.Problem("set-up: " + booted.status().ToString());
    return out;
  }
  std::unique_ptr<World> world = std::move(*booted);
  const double third = options.seconds / 3.0;

  // Untraced, then traced, on the same world: the overhead comparison.
  const Workload::Phase plain = workload.Run(world.get(), &fleet, third);
  CheckPhase(plain.all, &out);
  Sampler sampler(world->Servers());
  const Workload::Phase traced = workload.Run(world.get(), &fleet, third);
  sampler.Stop();
  CheckPhase(traced.all, &out);

  double bytes_in = 0, bytes_out = 0, requests = 0, responses = 0;
  double dropped = 0, rejected = 0, inline_reads = 0, fallbacks = 0;
  double views = 0, deltas = 0;
  for (MarketplaceServer* server : world->Servers()) {
    const JsonValue info = ServerInfo(server);
    bytes_in += NumberAtPath(info, "transport.bytes_read");
    bytes_out += NumberAtPath(info, "transport.bytes_written");
    requests += NumberAtPath(info, "transport.requests");
    responses += NumberAtPath(info, "transport.responses");
    dropped += NumberAtPath(info, "transport.connections_dropped_backpressure") +
               NumberAtPath(info, "transport.connections_refused");
    rejected += NumberAtPath(info, "metrics.admission.rejected");
    inline_reads += NumberAtPath(info, "read_path.reads_served");
    fallbacks += NumberAtPath(info, "read_path.fallbacks");
    views += NumberAtPath(info, "read_path.views_published");
    deltas += NumberAtPath(info, "read_path.delta_publishes");
  }
  std::string why;
  MarketplaceServer* first = world->Servers().front();
  const Samples transport =
      TransportProbe(first, world->FirstServerPort(), &why);
  ClusterNumbers cluster = ClusterProbe(world->cluster.get(), fleet, &why);
  if (!why.empty()) out.Problem(why);

  if (!SettleMidPeriod(&fleet, MakeLanes(world->SenderPointers(),
                                         fleet.programs.size()))) {
    out.Problem("walking the tenancies to mid-period failed");
  }
  const Recovery recovery =
      CrashAndRecover(workload, world.get(), fleet, 5, &out);
  std::map<std::string, ExecTimings> exec = ReplayAll(fleet, &out);
  world.reset();
  std::filesystem::remove_all(dir);

  InprocResult inproc = InprocProbe(workload, fleet.programs,
                                    DataDir(options, "inproc"), third);
  if (!inproc.ok) out.Problem(inproc.why);

  MetricSet& m = out.metrics;
  // net
  m.Put("net.frame_ns_per_line", FrameNsPerLine(fleet), "ns");
  m.Put("net.bytes_in_per_req", requests ? bytes_in / requests : 0, "bytes");
  m.Put("net.bytes_out_per_req", responses ? bytes_out / responses : 0,
        "bytes");
  m.Put("net.transport_p50_us", transport.Median(), "us");
  m.Put("net.transport_p99_us", transport.Percentile(99), "us");
  m.Put("net.dropped_connections", dropped, "count");
  // wire
  WireProbe(fleet, inproc.responses, &m);
  // admission
  m.Put("admission.admit_ns", AdmitNsPerCall(fleet), "ns");
  m.Put("admission.rejected", rejected, "count");
  // pool
  m.Put("pool.queue_wait_p50_us", inproc.queue_wait_us.Median(), "us");
  m.Put("pool.queue_wait_p99_us", inproc.queue_wait_us.Percentile(99), "us");
  m.Put("pool.depth_max", sampler.depth_max, "count");
  m.Put("pool.depth_imbalance",
        sampler.sum_mean > 0 ? sampler.sum_max / sampler.sum_mean : 0.0,
        "ratio");
  // exec
  Samples structures;
  uint64_t slots = 0;
  for (const char* mechanism : {"addon", "regret"}) {
    const ExecTimings& e = exec[mechanism];
    const std::string p = std::string("exec.") + mechanism + ".";
    m.Put(p + "submit_us_per_tenant", e.submit_us_per_tenant.Mean(), "us");
    m.Put(p + "advance_p50_us", e.advance_us.Median(), "us");
    m.Put(p + "advance_p99_us", e.advance_us.Percentile(99), "us");
    m.Put(p + "close_p50_ms", e.close_ms.Median(), "ms");
    structures.Append(e.structures_at_close);
    slots += e.slots;
  }
  m.Put("exec.structures_per_period", structures.Mean(), "count");
  m.Put("exec.slots_priced", static_cast<double>(slots), "count");
  // journal
  const CountingStore::Timings& j = inproc.journal;
  m.Put("journal.appends", static_cast<double>(j.appends), "count");
  m.Put("journal.append_bytes", static_cast<double>(j.append_bytes), "bytes");
  m.Put("journal.append_p50_us", j.append_us.Median(), "us");
  m.Put("journal.append_p99_us", j.append_us.Percentile(99), "us");
  m.Put("journal.checkpoints", static_cast<double>(j.checkpoints), "count");
  m.Put("journal.checkpoint_p50_ms", j.checkpoint_ms.Median(), "ms");
  m.Put("journal.sync_ms", j.sync_ms.Sum(), "ms");
  m.Put("journal.busy_share",
        inproc.seconds > 0 ? j.busy_s / (inproc.seconds * kWorkers) : 0.0,
        "ratio");
  m.Put("journal.replay_records_per_s",
        recovery.seconds.Median() > 0
            ? recovery.replayed / recovery.seconds.Median()
            : 0.0,
        "1/s");
  // read
  m.Put("read.inline_share",
        inline_reads + fallbacks > 0 ? inline_reads / (inline_reads + fallbacks)
                                     : 0.0,
        "ratio");
  m.Put("read.inline_p50_us", inproc.read_inline_us.Median(), "us");
  m.Put("read.inline_p99_us", inproc.read_inline_us.Percentile(99), "us");
  m.Put("read.report_bytes", inproc.report_bytes.Mean(), "bytes");
  m.Put("read.views_published", views, "count");
  m.Put("read.delta_publishes", deltas, "count");
  // cluster
  m.Put("cluster.router_overhead_p50_us", cluster.router_overhead_us.Median(),
        "us");
  m.Put("cluster.router_overhead_p99_us",
        cluster.router_overhead_us.Percentile(99), "us");
  m.Put("cluster.owner_of_ns", cluster.owner_of_ns, "ns");
  m.Put("cluster.node_connections", cluster.node_connections, "count");
  m.Put("cluster.repl_lag_max", std::max(cluster.repl_lag_max, sampler.lag_max),
        "count");
  m.Put("cluster.repl_failures", cluster.repl_failures, "count");
  // client
  m.Put("client.send_lag_p99_ms", traced.all.send_lag_ms.Percentile(99), "ms");
  m.Put("client.window_full", static_cast<double>(traced.all.window_full),
        "count");
  m.Put("client.stalls_ge_30ms", static_cast<double>(traced.all.stalls_ge_30ms),
        "count");
  m.Put("client.error_rate",
        out.attempted ? static_cast<double>(out.failed) / out.attempted : 0.0,
        "ratio");
  // tracing cost and the write_p50_us breakdown
  const double w0 = plain.summary.write_p50_us;
  const double w1 = traced.summary.write_p50_us;
  m.Put("trace.overhead_pct.throughput_rps",
        plain.summary.throughput_rps > 0
            ? 100.0 *
                  (plain.summary.throughput_rps -
                   traced.summary.throughput_rps) /
                  plain.summary.throughput_rps
            : 0.0,
        "%");
  m.Put("trace.overhead_pct.write_p50_us", w0 > 0 ? 100.0 * (w1 - w0) / w0 : 0,
        "%");
  // The wire share of one write: parse + serialize of advance_slot, the
  // dominant write in every mix.
  const double wire_us = (m.Get("wire.parse_ns.advance_slot") +
                          m.Get("wire.serialize_ns.advance_slot")) /
                         1000.0;
  const double net_us = std::max(0.0, transport.Median() - wire_us);
  const double pool_us = inproc.queue_wait_us.Median();
  const double journal_us = inproc.journal_us.Median();
  const double exec_us = inproc.exec_us.Median();
  m.Put("breakdown.write_p50_us.net", net_us, "us");
  m.Put("breakdown.write_p50_us.wire", wire_us, "us");
  m.Put("breakdown.write_p50_us.pool", pool_us, "us");
  m.Put("breakdown.write_p50_us.journal", journal_us, "us");
  m.Put("breakdown.write_p50_us.exec", exec_us, "us");
  m.Put("breakdown.write_p50_us.unattributed",
        w1 - net_us - wire_us - pool_us - journal_us - exec_us, "us");
  m.Put("env.cpu_calib_ms", calibration_ms, "ms");
  m.Put("env.hardware_threads", std::thread::hardware_concurrency(), "count");
  std::cerr << "perfbench: traced set-up " << setup_seconds << " s; write_p50 "
            << w1 << " us traced vs " << w0 << " us plain\n";
  return out;
}

int Usage() {
  std::cerr << "usage: perfbench --workload pricing|small-ops|read-mix|cluster"
               " --seed N --seconds S --trace 0|1 [--tmp-dir DIR]"
               " [--commit SHA]\n";
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options options;
  for (int a = 1; a + 1 < argc; a += 2) {
    const std::string flag = argv[a];
    const std::string value = argv[a + 1];
    try {
      if (flag == "--workload") {
        options.workload = value;
      } else if (flag == "--seed") {
        options.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        options.seconds = std::stod(value);
      } else if (flag == "--trace") {
        options.trace = value == "1";
      } else if (flag == "--tmp-dir") {
        options.tmp_dir = value;
      } else if (flag == "--commit") {
        options.commit = value;
      } else {
        return Usage();
      }
    } catch (const std::exception&) {
      return Usage();
    }
  }
  if (argc % 2 == 0 || options.seconds <= 0) return Usage();
  std::unique_ptr<Workload> workload = MakeWorkload(options.workload);
  if (workload == nullptr) return Usage();
  optshare::SetLogLevel(optshare::LogLevel::kWarning);
  std::filesystem::create_directories(options.tmp_dir);

  const unsigned threads = std::thread::hardware_concurrency();
  const double calibration_ms =
      CpuCalibrationMs(static_cast<int>(std::max(1u, threads)));
  JsonValue env = JsonValue::MakeObject();
  env.Set("workload", JsonValue::Str(options.workload));
  env.Set("seed", JsonValue::Number(static_cast<double>(options.seed)));
  env.Set("seconds", JsonValue::Number(options.seconds));
  env.Set("trace", JsonValue::Bool(options.trace));
  env.Set("hardware_threads", JsonValue::Number(threads));
  env.Set("build_type", JsonValue::Str(PERFBENCH_BUILD_TYPE));
  env.Set("compiler", JsonValue::Str(__VERSION__));
  env.Set("commit", JsonValue::Str(options.commit));
  env.Set("cpu_calib_ms", JsonValue::Number(calibration_ms));
  std::cerr << "perfbench env " << env.Dump() << "\n";

  Fleet fleet({});  // Each set-up generates the inputs from the seed.
  Outcome outcome = options.trace
                        ? RunTraced(*workload, fleet, options, calibration_ms)
                        : RunMeasured(*workload, fleet, options);
  outcome.metrics.Print(options.trace ? "per-layer" : "end-to-end");
  if (outcome.attempted == 0) {
    std::cerr << "perfbench: nothing was attempted\n";
    return 1;
  }
  JsonValue result = JsonValue::MakeObject();
  result.Set("correct", JsonValue::Bool(outcome.correct));
  result.Set("attempted",
             JsonValue::Number(static_cast<double>(outcome.attempted)));
  result.Set("failed", JsonValue::Number(static_cast<double>(outcome.failed)));
  result.Set("metrics", outcome.metrics.ToJson());
  std::cout << result.Dump() << std::endl;
  return 0;
}
