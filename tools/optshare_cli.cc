// optshare CLI: run the pricing mechanisms on game files and event logs,
// and serve the multi-tenant marketplace protocol.
//
//   optshare_cli sample <type>            # emit a sample game document
//   optshare_cli validate <file>          # parse + validate a game file
//   optshare_cli run <file> [--mechanism NAME] [--json]
//   optshare_cli replay <file> [--mechanism NAME] [--json]
//   optshare_cli attack [--scenario-file FILE] [--player SPEC] [--json]
//                                         # strategy lab: attack a mechanism
//   optshare_cli serve [--workers N] [--data-dir DIR] [--listen HOST:PORT]
//                      [--scenario-file FILE]
//                                         # wire-protocol loop: stdin, or TCP
//   optshare_cli connect HOST:PORT        # drive a remote serve --listen
//   optshare_cli metrics HOST:PORT        # scrape a server's metrics
//   optshare_cli node --id ID --cluster FILE [--data-dir DIR] [--workers N]
//                                         # one node of a pricing cluster
//   optshare_cli route --cluster FILE [--listen HOST:PORT]
//                                         # cluster router front end
//   optshare_cli recover <data-dir>       # replay a data dir, print state
//   optshare_cli mechanisms               # list registered mechanisms
//   optshare_cli help [subcommand]        # detailed per-subcommand usage
//
// Game types: additive_offline, additive_online, subst_offline,
// subst_online, plus event_log — a streamed period (tenants arriving,
// declaring and departing slot by slot; see core/serialization.h for both
// schemas). `run` prices a batch game; `replay` feeds an event log through
// the streaming surface (core/online_mechanism.h), slot by slot, the way a
// live PricingSession would; `serve` reads newline-delimited protocol
// requests (service/protocol.h) from stdin and answers one response line
// per request, pricing distinct tenancies concurrently. Mechanisms are
// resolved by name against the MechanismRegistry — the paper's mechanisms
// ("addoff"/"shapley", "addon", "substoff", "subston") plus the baselines
// ("naive", "naive_online", "vcg", "regret"). The default is the paper's
// mechanism for the game's type.
#include <cerrno>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <mutex>
#include <sstream>
#include <string>

#include "baseline/baseline_mechanisms.h"
#include "cluster/node.h"
#include "cluster/placement.h"
#include "cluster/router.h"
#include "common/money.h"
#include "common/net.h"
#include "core/accounting.h"
#include "core/mechanism.h"
#include "core/online_mechanism.h"
#include "core/serialization.h"
#include "service/dispatch.h"
#include "service/marketplace_server.h"
#include "service/net_client.h"
#include "service/net_server.h"
#include "strategy/harness.h"
#include "strategy/player.h"
#include "strategy/trace.h"

namespace optshare {
namespace {

int Fail(const std::string& message) {
  std::cerr << "error: " << message << "\n";
  return 1;
}

struct SubcommandHelp {
  const char* name;
  const char* synopsis;
  const char* details;
};

constexpr SubcommandHelp kSubcommands[] = {
    {"sample", "optshare_cli sample <type>",
     "Emits a ready-made sample document for a game type, or a trace\n"
     "scenario config (strategy/trace.h) demonstrating the full schema —\n"
     "diurnal arrivals, a flash crowd, Pareto-tailed intensities and a\n"
     "correlated mass-departure. The trace sample round-trips through the\n"
     "strict loader, so it is guaranteed to parse.\n"
     "types: additive_offline additive_online subst_offline subst_online\n"
     "       event_log trace\n"
     "example:\n"
     "  optshare_cli sample additive_online > game.json\n"
     "  optshare_cli sample trace > scenario.json\n"
     "  optshare_cli serve --scenario-file scenario.json\n"},
    {"validate", "optshare_cli validate <file>",
     "Parses a game or event-log file and checks its invariants; prints\n"
     "the detected type on success.\n"
     "example:\n"
     "  optshare_cli sample event_log > log.json\n"
     "  optshare_cli validate log.json\n"},
    {"run", "optshare_cli run <file> [--mechanism NAME] [--json]",
     "Prices a batch game file with the named (or default) mechanism and\n"
     "prints the resulting ledger.\n"
     "example:\n"
     "  optshare_cli sample additive_offline > game.json\n"
     "  optshare_cli run game.json --mechanism shapley --json\n"},
    {"replay", "optshare_cli replay <file> [--mechanism NAME] [--json]",
     "Feeds an event-log file through the streaming mechanism surface slot\n"
     "by slot, the way a live PricingSession ingests a period — natively\n"
     "incremental for \"addon\"/\"subston\", buffered for the baselines —\n"
     "then accounts the outcome against the log's materialized truth.\n"
     "example:\n"
     "  optshare_cli sample event_log > log.json\n"
     "  optshare_cli replay log.json                   # paper mechanism\n"
     "  optshare_cli replay log.json --mechanism naive_online --json\n"},
    {"attack",
     "optshare_cli attack [--scenario-file FILE] [--mechanism NAME] "
     "[--player SPEC] [--periods N] [--workers N] [--dry-run] [--json]",
     "The strategy lab: boots a real marketplace server, drives a\n"
     "trace-generated background population plus one strategist tenant\n"
     "over the v2 wire protocol, and replays the identical multi-period\n"
     "program twice — strategist truthful vs. playing an attack — to\n"
     "measure what the lie bought in *realized* utility (true value of\n"
     "serviced slots minus ledger payments; declared values are never\n"
     "trusted). A truthful mechanism keeps the gain at <= epsilon; the\n"
     "naive baseline pays attackers.\n"
     "players: truthful  misreport:<factor>  sybil:<k>  delay:<slots>\n"
     "         freeride          (default: the whole attack battery)\n"
     "--scenario-file FILE uses a trace config (`help sample`) as the\n"
     "background world; the default is a three-period telemetry scenario.\n"
     "--mechanism / --periods override the config. --dry-run prints the\n"
     "background trace's wire program (one request line per line, ready\n"
     "for `serve` or `connect`) instead of running the harness.\n"
     "example:\n"
     "  optshare_cli attack --player freeride --json\n"
     "  optshare_cli attack --mechanism naive_online   # exploitable\n"},
    {"serve",
     "optshare_cli serve [--workers N] [--data-dir DIR] "
     "[--export-dir DIR] [--listen HOST:PORT] [--max-request-bytes B] "
     "[--admit-mutations-per-sec R] [--admit-burst B] "
     "[--connection-requests-per-sec R] [--scenario-file FILE]",
     "Reads newline-delimited marketplace protocol requests (one JSON\n"
     "document per line, schema versions 1 and 2; see service/protocol.h)\n"
     "from stdin and writes one response line per request, in request\n"
     "order. Requests for one tenancy execute in order; distinct tenancies\n"
     "price concurrently on N workers (default 4).\n"
     "--listen HOST:PORT serves the identical protocol over TCP instead:\n"
     "many concurrent connections, per-connection response ordering, slow\n"
     "readers bounded then disconnected with a typed error. Port 0 picks\n"
     "an ephemeral port (printed to stderr). Drive it interactively with\n"
     "`optshare_cli connect HOST:PORT`.\n"
     "--data-dir makes tenancy state durable: requests are journaled,\n"
     "close_period checkpoints, and startup recovers whatever the\n"
     "directory holds. EOF or a v2 shutdown request drains in-flight work\n"
     "and checkpoints every tenancy before exit. Request lines longer\n"
     "than B bytes (default 1 MiB, 0 = unlimited) answer a typed\n"
     "ResourceExhausted error instead of being buffered.\n"
     "--export-dir DIR arms the v2 `export` op: it streams every\n"
     "tenancy's ledger, structure outcomes and period totals into DIR as\n"
     "CSV + binary column chunks + manifest.json (`help export`).\n"
     "--admit-mutations-per-sec R arms per-tenancy admission control: each\n"
     "tenancy may run R mutating ops per second (token bucket, burst\n"
     "--admit-burst, default R); a breaching request answers a typed\n"
     "ResourceExhausted with a retry_after_ms hint. 0 (default) = off.\n"
     "--connection-requests-per-sec R additionally rate-caps each TCP\n"
     "connection at the transport (--listen only).\n"
     "--scenario-file FILE pre-creates a tenancy from a trace scenario\n"
     "config (strategy/trace.h; `optshare_cli sample trace` emits one):\n"
     "the config's catalog, mechanism, slots_per_period and\n"
     "maintenance_fraction become the tenancy named by the config, ready\n"
     "for open_period without a CatalogSpec.\n"
     "ops: open_period submit depart advance_slot close_period report\n"
     "     query_price list_mechanisms snapshot restore export shutdown\n"
     "     server_info batch (v3: many requests in one frame, one\n"
     "     ordered response array; single-tenancy session batches\n"
     "     journal atomically)\n"
     "example session:\n"
     "  $ optshare_cli serve --data-dir /var/lib/optshare\n"
     "  {\"v\":1,\"op\":\"open_period\",\"tenancy\":\"acme\",\"catalog\":"
     "{\"scenario\":\"telemetry\"}}\n"
     "  {\"ok\":true,\"result\":{\"carried_structures\":[],\"mechanism\":"
     "\"addon\",...},\"v\":1}\n"
     "  {\"v\":1,\"op\":\"advance_slot\",\"tenancy\":\"acme\","
     "\"slots\":12}\n"
     "  {\"ok\":true,\"result\":{\"slot\":12,\"slots_advanced\":12},"
     "\"v\":1}\n"
     "  {\"v\":1,\"op\":\"close_period\",\"tenancy\":\"acme\"}\n"
     "  {\"ok\":true,\"result\":{\"report\":{...}},\"v\":1}\n"
     "  {\"v\":2,\"op\":\"shutdown\"}\n"
     "  {\"ok\":true,\"result\":{\"draining\":true},\"v\":2}\n"},
    {"connect", "optshare_cli connect HOST:PORT",
     "Connects to a `serve --listen` server and round-trips protocol\n"
     "request lines from stdin, printing one response line per request —\n"
     "a transcript of the same session `serve` would run locally.\n"
     "example:\n"
     "  $ optshare_cli serve --listen 127.0.0.1:7421 &\n"
     "  $ optshare_cli connect 127.0.0.1:7421\n"
     "  {\"v\":1,\"op\":\"list_mechanisms\"}\n"
     "  {\"ok\":true,\"result\":{\"mechanisms\":[...]},\"v\":1}\n"
     "  {\"v\":2,\"op\":\"server_info\"}\n"
     "  {\"ok\":true,\"result\":{...,\"transport\":{\"connections_open\":1,"
     "...}},\"v\":2}\n"},
    {"node",
     "optshare_cli node --id ID --cluster FILE [--data-dir DIR] "
     "[--workers N]",
     "Runs one node of a multi-node pricing cluster. FILE is the shared\n"
     "placement map — a JSON document naming every node's id, host and\n"
     "port (src/cluster/placement.h):\n"
     "  {\"v\":1,\"vnodes\":64,\"overrides\":{},\"nodes\":[\n"
     "    {\"id\":\"node-0\",\"host\":\"127.0.0.1\",\"port\":7501,"
     "\"dead\":false},\n"
     "    {\"id\":\"node-1\",\"host\":\"127.0.0.1\",\"port\":7502,"
     "\"dead\":false},\n"
     "    {\"id\":\"node-2\",\"host\":\"127.0.0.1\",\"port\":7503,"
     "\"dead\":false}]}\n"
     "The node binds its own entry's host:port, recovers the tenancies the\n"
     "map assigns to it from --data-dir, streams every journal write to\n"
     "the next live node on the hash ring (its replica), and serves the\n"
     "regular v2 wire protocol until a shutdown request drains it. Start\n"
     "one `optshare_cli node` per map entry, then front them with\n"
     "`optshare_cli route`.\n"},
    {"route", "optshare_cli route --cluster FILE [--listen HOST:PORT]",
     "Runs the cluster router: a front end speaking the same wire protocol\n"
     "as a single node, forwarding each request to the node that owns its\n"
     "tenancy under the placement map in FILE. When a node dies, the\n"
     "router marks it dead, pushes the updated map to the survivors, and\n"
     "restores affected tenancies from their replicas — reads retry\n"
     "transparently; mutations answer a typed error asking the client to\n"
     "resend. Default listen address is 127.0.0.1:0 (ephemeral, printed\n"
     "to stderr).\n"
     "example:\n"
     "  $ optshare_cli node --id node-0 --cluster cluster.json &\n"
     "  $ optshare_cli node --id node-1 --cluster cluster.json &\n"
     "  $ optshare_cli node --id node-2 --cluster cluster.json &\n"
     "  $ optshare_cli route --cluster cluster.json --listen :7500 &\n"
     "  $ optshare_cli connect 127.0.0.1:7500\n"},
    {"recover", "optshare_cli recover <data-dir> [--json]",
     "Rebuilds every tenancy persisted under a serve --data-dir (latest\n"
     "snapshot + journal replay through the regular dispatch path) and\n"
     "prints the recovery stats plus each tenancy's report — without\n"
     "serving. Use it to inspect what a crashed server would recover to.\n"
     "example:\n"
     "  optshare_cli recover /var/lib/optshare --json\n"},
    {"export",
     "optshare_cli export <data-dir> --export-dir DIR [--tenancy NAME] "
     "[--json]",
     "Recovers a serve --data-dir (like `recover`) and writes the\n"
     "columnar analytics export: ledger.csv / reports.csv / periods.csv,\n"
     "one binary column chunk per column (<table>.<column>.col), and\n"
     "manifest.json describing every file (src/analytics/columnar.h).\n"
     "Summing periods.csv's cloud_balance column in row order reproduces\n"
     "each tenancy's cumulative_balance bit for bit. A running server\n"
     "writes the same layout live via the v2 `export` op when started\n"
     "with `serve --export-dir DIR`.\n"
     "example:\n"
     "  optshare_cli export /var/lib/optshare --export-dir /tmp/columns\n"
     "  python3 -c 'import csv; print(sum(float(r[\"cloud_balance\"])\n"
     "      for r in csv.DictReader(open(\"/tmp/columns/periods.csv\"))))'\n"},
    {"metrics", "optshare_cli metrics HOST:PORT [--json]",
     "Scrapes a running server's metrics surface: one v3 server_info\n"
     "round trip, printing the \"metrics\" section — per-op latency\n"
     "histograms (fixed log-spaced microsecond buckets), shard queue\n"
     "depths, journal fsync lag (appends not yet checkpointed) and\n"
     "admission counters (mutating-op quota admits/rejects). The default\n"
     "output is a human summary with histogram-derived p50/p99 upper\n"
     "bounds; --json dumps the section verbatim, ready for a scraper.\n"
     "example:\n"
     "  $ optshare_cli serve --listen 127.0.0.1:7421 &\n"
     "  $ optshare_cli metrics 127.0.0.1:7421 --json\n"},
    {"mechanisms", "optshare_cli mechanisms",
     "Lists every mechanism registered with the MechanismRegistry, one\n"
     "name per line (paper mechanisms and baselines).\n"},
    {"help", "optshare_cli help [subcommand]",
     "Prints the command summary, or a subcommand's detailed usage.\n"},
};

int Usage() {
  std::cerr << "usage:\n";
  for (const SubcommandHelp& sub : kSubcommands) {
    std::cerr << "  " << sub.synopsis << "\n";
  }
  std::cerr << "run `optshare_cli help <subcommand>` for details and worked "
               "examples\n";
  return 2;
}

int Help(int argc, char** argv) {
  if (argc < 3) {
    Usage();
    return 0;
  }
  const std::string name = argv[2];
  for (const SubcommandHelp& sub : kSubcommands) {
    if (name == sub.name) {
      std::cout << "usage: " << sub.synopsis << "\n\n" << sub.details;
      return 0;
    }
  }
  return Fail("unknown subcommand \"" + name + "\"; run `optshare_cli help`");
}

/// Bounded line reader: like getline, but a line longer than `cap` bytes
/// is discarded (rest of the line skipped) instead of buffered, so a
/// hostile or broken client cannot balloon the server's memory. cap 0 =
/// unlimited.
enum class LineRead { kOk, kEof, kTooLong };

LineRead ReadBoundedLine(std::istream& in, std::string* line, size_t cap) {
  line->clear();
  std::streambuf* buf = in.rdbuf();
  for (;;) {
    const int c = buf->sbumpc();
    if (c == std::char_traits<char>::eof()) {
      return line->empty() ? LineRead::kEof : LineRead::kOk;
    }
    if (c == '\n') return LineRead::kOk;
    if (cap > 0 && line->size() >= cap) {
      for (int d = buf->sbumpc(); d != std::char_traits<char>::eof();
           d = buf->sbumpc()) {
        if (d == '\n') break;
      }
      return LineRead::kTooLong;
    }
    line->push_back(static_cast<char>(c));
  }
}

Result<strategy::TraceConfig> LoadTraceConfig(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot open " + path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return strategy::ParseTraceConfig(buffer.str());
}

/// The tenancy configuration a trace scenario config prescribes.
service::ServiceConfig ServiceConfigOf(const strategy::TraceConfig& config) {
  service::ServiceConfig service_config;
  service_config.slots_per_period = config.slots_per_period;
  service_config.maintenance_fraction = config.maintenance_fraction;
  service_config.mechanism = config.mechanism;
  return service_config;
}

/// The stdin wire loop: one request line in, one response line out, in
/// request order. Parsing and dispatch go through the same
/// RequestDispatcher the TCP NetServer uses, and ordering through the same
/// OrderedLineWriter — responses flush the moment they resolve (never
/// waiting for the next stdin line), so an interactive client that awaits
/// its response before sending the next request is never deadlocked
/// against a blocked getline. With --data-dir, state is
/// journaled/checkpointed as it changes, startup recovers the directory,
/// and EOF or a shutdown request checkpoints every tenancy before exit (no
/// lost final period on pipe close). With --listen HOST:PORT the same
/// server is exposed over TCP instead (service/net_server.h), serving many
/// concurrent connections.
int Serve(int argc, char** argv) {
  int workers = 4;
  std::string data_dir;
  std::string export_dir;
  std::string listen;
  std::string scenario_file;
  size_t max_request_bytes = service::protocol::kDefaultMaxRequestBytes;
  double admit_rate = 0.0;
  double admit_burst = 0.0;
  double connection_rate = 0.0;
  for (int a = 2; a < argc; ++a) {
    const std::string arg = argv[a];
    if (arg == "--workers" && a + 1 < argc) {
      workers = std::atoi(argv[++a]);
      if (workers < 1) return Fail("--workers must be >= 1");
    } else if (arg == "--data-dir" && a + 1 < argc) {
      data_dir = argv[++a];
    } else if (arg == "--export-dir" && a + 1 < argc) {
      export_dir = argv[++a];
    } else if (arg == "--listen" && a + 1 < argc) {
      listen = argv[++a];
    } else if (arg == "--scenario-file" && a + 1 < argc) {
      scenario_file = argv[++a];
    } else if (arg == "--max-request-bytes" && a + 1 < argc) {
      // A silently-misparsed cap either disables the protection (garbage
      // -> 0) or rejects everything ("2M" -> 2); insist on a clean number.
      const char* text = argv[++a];
      char* end = nullptr;
      errno = 0;
      const long long parsed = std::strtoll(text, &end, 10);
      if (end == text || *end != '\0' || errno == ERANGE || parsed < 0) {
        return Fail("--max-request-bytes must be a non-negative byte count");
      }
      max_request_bytes = static_cast<size_t>(parsed);
    } else if (arg == "--admit-mutations-per-sec" && a + 1 < argc) {
      admit_rate = std::atof(argv[++a]);
      if (admit_rate < 0) {
        return Fail("--admit-mutations-per-sec must be >= 0");
      }
    } else if (arg == "--admit-burst" && a + 1 < argc) {
      admit_burst = std::atof(argv[++a]);
      if (admit_burst < 0) return Fail("--admit-burst must be >= 0");
    } else if (arg == "--connection-requests-per-sec" && a + 1 < argc) {
      connection_rate = std::atof(argv[++a]);
      if (connection_rate < 0) {
        return Fail("--connection-requests-per-sec must be >= 0");
      }
    } else {
      return Usage();
    }
  }
  service::ServerOptions options;
  options.num_workers = workers;
  options.max_request_bytes = max_request_bytes;
  options.export_dir = export_dir;
  options.admission.mutating_ops_per_sec = admit_rate;
  options.admission.burst = admit_burst;  // <= 0 = same as the rate.
  if (!data_dir.empty()) {
    auto store = service::FileStateStore::Open(data_dir);
    if (!store.ok()) return Fail(store.status().ToString());
    options.store = std::move(*store);
  }
  service::MarketplaceServer server(std::move(options));
  if (!data_dir.empty()) {
    Result<service::RecoveryStats> recovered = server.Recover();
    if (!recovered.ok()) return Fail(recovered.status().ToString());
    std::cerr << "recovered " << recovered->tenancies_recovered
              << " tenancies (" << recovered->snapshots_loaded
              << " snapshots, " << recovered->journal_records_replayed
              << " journal records) from " << data_dir << "\n";
  }
  // --scenario-file: pre-create the config's tenancy so clients can
  // open_period on it without shipping a CatalogSpec. A tenancy of the
  // same name recovered from --data-dir wins (its carried state is real).
  if (!scenario_file.empty()) {
    Result<strategy::TraceConfig> config = LoadTraceConfig(scenario_file);
    if (!config.ok()) return Fail(config.status().ToString());
    Result<simdb::Catalog> catalog =
        strategy::BuildTraceCatalog(config->catalog);
    if (!catalog.ok()) return Fail(catalog.status().ToString());
    const std::string tenancy = config->name.empty() ? "trace" : config->name;
    Status created = server.CreateTenancy(tenancy, std::move(*catalog),
                                          ServiceConfigOf(*config));
    if (created.code() == StatusCode::kAlreadyExists) {
      std::cerr << "tenancy \"" << tenancy
                << "\" already recovered; keeping its state\n";
    } else if (!created.ok()) {
      return Fail(created.ToString());
    } else {
      std::cerr << "created tenancy \"" << tenancy << "\" from "
                << scenario_file << " (mechanism " << config->mechanism
                << ", " << config->slots_per_period << " slots/period)\n";
    }
  }

  // --listen: the TCP front end serves the same MarketplaceServer through
  // the same dispatcher; Wait() returns once a wire shutdown op drains
  // every connection, and the checkpoint below runs exactly as for stdin.
  if (!listen.empty()) {
    auto host_port = net::ParseHostPort(listen);
    if (!host_port.ok()) return Fail(host_port.status().ToString());
    service::NetServerOptions net_options;
    net_options.host = host_port->first;
    net_options.port = host_port->second;
    net_options.max_connection_requests_per_sec = connection_rate;
    service::NetServer net(&server, net_options);
    Status started = net.Start();
    if (!started.ok()) return Fail(started.ToString());
    std::cerr << "serving on "
              << (net.host().empty() ? "0.0.0.0" : net.host()) << ":"
              << net.port() << " (" << workers << " workers); send "
              << "{\"v\":2,\"op\":\"shutdown\"} to drain and exit\n";
    net.Wait();
    Status shutdown = server.Shutdown();
    if (!shutdown.ok()) {
      std::cerr << "warning: shutdown left state unpersisted: "
                << shutdown.ToString() << "\n";
    }
    return 0;
  }

  service::RequestDispatcher dispatcher(&server);
  // Only the writer's sink touches stdout: responses flush strictly in
  // request order, as soon as each completes.
  service::OrderedLineWriter writer([](std::string_view response) {
    std::cout << response << "\n";
    std::cout.flush();
  });
  // Bound the in-flight window so a firehose client cannot queue unbounded
  // work on the pool.
  std::mutex mu;
  std::condition_variable cv;
  size_t inflight = 0;

  std::string line;
  bool reading = true;
  while (reading) {
    switch (ReadBoundedLine(std::cin, &line,
                            server.line_caps().framing_bytes())) {
      case LineRead::kEof:
        reading = false;
        continue;
      case LineRead::kTooLong:
        writer.Complete(writer.Reserve(), dispatcher.OversizedLineResponse());
        continue;
      case LineRead::kOk:
        break;
    }
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return inflight < 1024; });
      ++inflight;
    }
    const uint64_t slot = writer.Reserve();
    const bool is_shutdown =
        dispatcher.Submit(line, [slot, &writer, &mu, &cv,
                                 &inflight](std::string_view response) {
          writer.Complete(slot, response);
          {
            std::lock_guard<std::mutex> lock(mu);
            --inflight;
          }
          cv.notify_all();
        });
    // A shutdown request ends the read loop once acknowledged; whatever
    // stdin still holds is intentionally unread.
    if (is_shutdown) reading = false;
  }
  {
    // Every submitted callback references this frame; wait them out.
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return inflight == 0; });
  }
  // Graceful exit: drain the pool and checkpoint every tenancy, so the
  // final (possibly still-open) period survives the pipe closing.
  Status shutdown = server.Shutdown();
  if (!shutdown.ok()) {
    std::cerr << "warning: shutdown left state unpersisted: "
              << shutdown.ToString() << "\n";
  }
  return 0;
}

/// Interactive remote client: reads request lines from stdin, round-trips
/// each over TCP, prints the response line. EOF closes the connection and
/// leaves the server running (send a v2 shutdown op to stop it).
int ConnectRemote(int argc, char** argv) {
  if (argc < 3) return Usage();
  auto host_port = net::ParseHostPort(argv[2]);
  if (!host_port.ok()) return Fail(host_port.status().ToString());
  for (int a = 3; a < argc; ++a) return Usage();
  Result<service::NetClient> client =
      service::NetClient::Connect(host_port->first, host_port->second);
  if (!client.ok()) return Fail(client.status().ToString());
  std::cerr << "connected to "
            << (host_port->first.empty() ? "127.0.0.1" : host_port->first)
            << ":" << host_port->second << "\n";
  std::string line;
  while (std::getline(std::cin, line)) {
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    Result<std::string> response = client->Call(line);
    if (!response.ok()) {
      // A shutdown op drains the server, which then closes the socket —
      // possibly right after (or instead of) delivering the final line.
      return Fail(response.status().ToString());
    }
    std::cout << *response << "\n";
    std::cout.flush();
  }
  return 0;
}

/// Scrapes a running server's metrics surface: one v3 server_info round
/// trip, printing the "metrics" section — per-op latency histograms,
/// shard queue depths, journal fsync lag, admission counters. --json
/// dumps the section verbatim for a scraper; the default is a human
/// summary with histogram-derived quantile upper bounds.
int Metrics(int argc, char** argv) {
  if (argc < 3) return Usage();
  auto host_port = net::ParseHostPort(argv[2]);
  if (!host_port.ok()) return Fail(host_port.status().ToString());
  bool json = false;
  for (int a = 3; a < argc; ++a) {
    if (std::string(argv[a]) == "--json") {
      json = true;
    } else {
      return Usage();
    }
  }
  Result<service::NetClient> client =
      service::NetClient::Connect(host_port->first, host_port->second);
  if (!client.ok()) return Fail(client.status().ToString());
  service::protocol::Request request;
  request.op = service::protocol::RequestOp::kServerInfo;
  request.version = 3;
  Result<service::protocol::Response> response = client->Call(request);
  if (!response.ok()) return Fail(response.status().ToString());
  if (!response->ok()) return Fail(response->status.ToString());
  const JsonValue* metrics = response->payload.Find("metrics");
  if (metrics == nullptr) {
    return Fail("server_info carried no metrics section (pre-v3 server?)");
  }
  if (json) {
    std::cout << metrics->Dump(2) << "\n";
    return 0;
  }
  const JsonValue* latency = metrics->Find("latency_us");
  if (latency != nullptr && latency->is_object()) {
    for (const auto& [op, hist] : latency->AsObject()) {
      const double count = hist.Find("count")->AsNumber();
      const double total = hist.Find("total_us")->AsNumber();
      const auto& bounds = hist.Find("le_us")->AsArray();
      const auto& counts = hist.Find("counts")->AsArray();
      // The histogram answers quantiles as bucket upper bounds; the last
      // bucket is unbounded (le_us -1).
      const auto quantile = [&](double q) {
        double seen = 0.0;
        for (size_t b = 0; b < counts.size(); ++b) {
          seen += counts[b].AsNumber();
          if (seen >= q * count) return bounds[b].AsNumber();
        }
        return -1.0;
      };
      const auto bound = [](double le) {
        return le < 0 ? std::string("inf") : std::to_string(
                                                 static_cast<long long>(le));
      };
      std::cout << "latency " << op << ": count "
                << static_cast<long long>(count) << ", mean "
                << (count > 0 ? total / count : 0.0) << "us, p50 <= "
                << bound(quantile(0.5)) << "us, p99 <= "
                << bound(quantile(0.99)) << "us\n";
    }
  }
  const JsonValue* depths = metrics->Find("shard_queue_depths");
  if (depths != nullptr && depths->is_array()) {
    std::cout << "shard queue depths:";
    for (const JsonValue& depth : depths->AsArray()) {
      std::cout << " " << static_cast<long long>(depth.AsNumber());
    }
    std::cout << "\n";
  }
  const JsonValue* journal = metrics->Find("journal");
  if (journal != nullptr) {
    std::cout << "journal fsync lag: "
              << static_cast<long long>(journal->Find("fsync_lag")->AsNumber())
              << " appends\n";
  }
  const JsonValue* admission = metrics->Find("admission");
  if (admission != nullptr) {
    std::cout << "admission: admitted "
              << static_cast<long long>(
                     admission->Find("admitted")->AsNumber())
              << ", rejected "
              << static_cast<long long>(
                     admission->Find("rejected")->AsNumber())
              << ", default quota "
              << admission->Find("default_mutating_ops_per_sec")->AsNumber()
              << " mutating ops/sec ("
              << static_cast<long long>(
                     admission->Find("tenancy_overrides")->AsNumber())
              << " tenancy overrides)\n";
  }
  return 0;
}

Result<cluster::PlacementMap> LoadPlacementFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot open " + path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  Result<JsonValue> doc = JsonValue::Parse(buffer.str());
  if (!doc.ok()) return doc.status();
  return cluster::PlacementMap::FromJson(*doc);
}

/// One node of the pricing cluster: binds its placement-map entry's
/// host:port, recovers its owned tenancies, streams journal writes to its
/// replica, serves until a wire shutdown drains it.
int RunClusterNode(int argc, char** argv) {
  std::string id;
  std::string cluster_file;
  std::string data_dir;
  int workers = 4;
  for (int a = 2; a < argc; ++a) {
    const std::string arg = argv[a];
    if (arg == "--id" && a + 1 < argc) {
      id = argv[++a];
    } else if (arg == "--cluster" && a + 1 < argc) {
      cluster_file = argv[++a];
    } else if (arg == "--data-dir" && a + 1 < argc) {
      data_dir = argv[++a];
    } else if (arg == "--workers" && a + 1 < argc) {
      workers = std::atoi(argv[++a]);
      if (workers < 1) return Fail("--workers must be >= 1");
    } else {
      return Usage();
    }
  }
  if (id.empty() || cluster_file.empty()) {
    return Fail("node requires --id and --cluster; see `optshare_cli help "
                "node`");
  }
  Result<cluster::PlacementMap> placement = LoadPlacementFile(cluster_file);
  if (!placement.ok()) return Fail(placement.status().ToString());
  std::optional<cluster::NodeInfo> self = placement->NodeById(id);
  if (!self.has_value()) {
    return Fail("node id \"" + id + "\" is not in " + cluster_file);
  }
  cluster::ClusterNodeOptions options;
  options.node_id = id;
  options.placement = std::move(*placement);
  options.host = self->host;
  options.port = self->port;
  options.data_dir = data_dir;
  options.num_workers = workers;
  options.connect.timeout_ms = 500;
  cluster::ClusterNode node(std::move(options));
  Status started = node.Start();
  if (!started.ok()) return Fail(started.ToString());
  std::cerr << "cluster node " << id << " serving on "
            << (self->host.empty() ? "0.0.0.0" : self->host) << ":"
            << node.port() << " (" << workers << " workers)\n";
  node.Wait();
  Status shutdown = node.Shutdown();
  if (!shutdown.ok()) {
    std::cerr << "warning: shutdown left state unpersisted: "
              << shutdown.ToString() << "\n";
  }
  return 0;
}

/// The router front end: serves the wire protocol, forwarding each request
/// to the owning node, with failover.
int RunClusterRouter(int argc, char** argv) {
  std::string cluster_file;
  std::string listen = ":0";
  for (int a = 2; a < argc; ++a) {
    const std::string arg = argv[a];
    if (arg == "--cluster" && a + 1 < argc) {
      cluster_file = argv[++a];
    } else if (arg == "--listen" && a + 1 < argc) {
      listen = argv[++a];
    } else {
      return Usage();
    }
  }
  if (cluster_file.empty()) {
    return Fail("route requires --cluster; see `optshare_cli help route`");
  }
  Result<cluster::PlacementMap> placement = LoadPlacementFile(cluster_file);
  if (!placement.ok()) return Fail(placement.status().ToString());
  auto host_port = net::ParseHostPort(listen);
  if (!host_port.ok()) return Fail(host_port.status().ToString());
  cluster::RouterOptions options;
  options.placement = std::move(*placement);
  cluster::ClusterRouter router(std::move(options));
  cluster::RouterServer server(&router, host_port->first, host_port->second);
  Status started = server.Start();
  if (!started.ok()) return Fail(started.ToString());
  std::cerr << "cluster router serving on "
            << (host_port->first.empty() ? "127.0.0.1" : host_port->first)
            << ":" << server.port() << " ("
            << router.CurrentPlacement().nodes().size() << " nodes); send "
            << "{\"v\":2,\"op\":\"shutdown\"} to drain the cluster\n";
  server.Wait();
  return 0;
}

/// Rebuilds the state a crashed `serve --data-dir` session would recover
/// to, and prints it.
int Recover(int argc, char** argv) {
  if (argc < 3) return Usage();
  const std::string data_dir = argv[2];
  bool json = false;
  for (int a = 3; a < argc; ++a) {
    if (std::string(argv[a]) == "--json") {
      json = true;
    } else {
      return Usage();
    }
  }
  auto store = service::FileStateStore::Open(data_dir);
  if (!store.ok()) return Fail(store.status().ToString());
  service::ServerOptions options;
  options.num_workers = 1;
  options.store = std::move(*store);
  service::MarketplaceServer server(std::move(options));
  Result<service::RecoveryStats> stats = server.Recover();
  if (!stats.ok()) return Fail(stats.status().ToString());

  JsonValue doc = JsonValue::MakeObject();
  // The same encoding the wire restore/server_info ops serve.
  doc.Set("recovery", service::ToJson(*stats));
  JsonValue tenancies = JsonValue::MakeObject();
  for (const std::string& name : server.TenancyNames()) {
    service::protocol::Request report;
    report.op = service::protocol::RequestOp::kReport;
    report.tenancy = name;
    service::protocol::Response response = server.Handle(std::move(report));
    if (!response.ok()) return Fail(response.status.ToString());
    tenancies.Set(name, std::move(response.payload));
  }
  doc.Set("tenancies", std::move(tenancies));
  if (json) {
    std::cout << doc.Dump(2) << "\n";
  } else {
    std::cout << "recovered " << stats->tenancies_recovered
              << " tenancies from " << data_dir << " ("
              << stats->snapshots_loaded << " snapshots, "
              << stats->journal_records_replayed << " journal records, "
              << stats->journal_torn << " torn tails)\n";
    for (const auto& [name, payload] : doc.Find("tenancies")->AsObject()) {
      std::cout << "tenancy " << name << ": periods_run "
                << payload.Find("periods_run")->AsNumber()
                << ", period_open "
                << (payload.Find("period_open")->AsBool() ? "yes" : "no")
                << ", built " << payload.Find("built_structures")->AsArray().size()
                << ", cumulative_balance "
                << FormatDollars(payload.Find("cumulative_balance")->AsNumber())
                << "\n";
    }
  }
  return 0;
}

/// Recovers a serve --data-dir like Recover(), then streams every
/// tenancy's ledger, per-structure outcomes and period totals into the
/// columnar analytics layout (src/analytics/columnar.h) — the offline twin
/// of the wire `export` op.
int ExportColumnar(int argc, char** argv) {
  if (argc < 3) return Usage();
  const std::string data_dir = argv[2];
  std::string export_dir;
  std::string tenancy;
  bool json = false;
  for (int a = 3; a < argc; ++a) {
    const std::string arg = argv[a];
    if (arg == "--export-dir" && a + 1 < argc) {
      export_dir = argv[++a];
    } else if (arg == "--tenancy" && a + 1 < argc) {
      tenancy = argv[++a];
    } else if (arg == "--json") {
      json = true;
    } else {
      return Usage();
    }
  }
  if (export_dir.empty()) return Fail("export needs --export-dir DIR");
  auto store = service::FileStateStore::Open(data_dir);
  if (!store.ok()) return Fail(store.status().ToString());
  service::ServerOptions options;
  options.num_workers = 1;
  options.store = std::move(*store);
  options.export_dir = export_dir;
  service::MarketplaceServer server(std::move(options));
  Result<service::RecoveryStats> stats = server.Recover();
  if (!stats.ok()) return Fail(stats.status().ToString());

  service::protocol::Request request;
  request.op = service::protocol::RequestOp::kExport;
  request.version = 2;
  request.tenancy = tenancy;  // Empty = every recovered tenancy.
  service::protocol::Response response = server.Handle(std::move(request));
  if (!response.ok()) return Fail(response.status.ToString());
  if (json) {
    std::cout << response.payload.Dump(2) << "\n";
    return 0;
  }
  // Reports recovered from a snapshot have only the journal tail's closed
  // periods in memory; say so rather than printing a mute small number.
  std::cout << "exported " << response.payload.Find("tenancies")->AsNumber()
            << " tenancies to " << export_dir << ": "
            << response.payload.Find("period_rows")->AsNumber()
            << " period rows, "
            << response.payload.Find("report_rows")->AsNumber()
            << " structure rows, "
            << response.payload.Find("ledger_rows")->AsNumber()
            << " ledger rows across "
            << response.payload.Find("files_written")->AsNumber()
            << " files (closed periods retained in-memory since each "
               "tenancy was rebuilt)\n";
  return 0;
}

Result<JsonValue> LoadGameFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot open " + path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return JsonValue::Parse(buffer.str());
}

/// The `sample trace` document: one scenario config exercising the whole
/// schema — a diurnal Pareto-tailed steady class, a flash-crowd class and
/// a correlated mass-departure. Emitted through the strict loader so the
/// sample can never drift from what ParseTraceConfig accepts.
constexpr char kSampleTraceConfig[] = R"({
  "name": "flash-telemetry",
  "seed": 7,
  "periods": 3,
  "slots_per_period": 24,
  "mechanism": "addon",
  "maintenance_fraction": 0.25,
  "catalog": {"tables": [{"name": "telemetry", "row_count": 1000000000,
    "columns": [{"name": "device", "type": "int64",
                 "distinct_values": 5000000}]}]},
  "classes": [
    {"name": "steady", "count": 24,
     "workloads": [[{"frequency": 1, "query": {"table": "telemetry",
        "aggregate": true,
        "predicates": [{"column": "device", "selectivity": 2e-7}]}}]],
     "executions": {"pareto": {"scale": 150, "alpha": 1.3, "cap": 50000}},
     "interval": {"kind": "sampled",
                  "arrival": {"process": "diurnal", "amplitude": 0.8,
                              "wavelength": 24, "phase": 0},
                  "duration": {"to_horizon": true}}},
    {"name": "crowd", "count": 16,
     "workloads": [[{"frequency": 1, "query": {"table": "telemetry",
        "aggregate": true,
        "predicates": [{"column": "device", "selectivity": 2e-7}]}}]],
     "executions": {"fixed": 400},
     "interval": {"kind": "sampled",
                  "arrival": {"process": "flash", "peak_slot": 8,
                              "width": 1, "multiplier": 25},
                  "duration": {"uniform": [2, 6]}}}
  ],
  "departures": [{"period": 2, "slot": 12, "fraction": 0.5,
                  "class": "steady"}]
})";

int EmitSample(const std::string& type) {
  JsonValue doc;
  if (type == "additive_offline") {
    AdditiveOfflineGame g;
    g.costs = {90.0, 50.0};
    g.bids = {{40.0, 0.0}, {30.0, 60.0}, {35.0, 10.0}};
    doc = ToJson(g);
  } else if (type == "additive_online") {
    AdditiveOnlineGame g;
    g.num_slots = 3;
    g.cost = 100.0;
    g.users = {SlotValues::Single(1, 101.0),
               *SlotValues::Make(1, 3, {16.0, 16.0, 16.0}),
               SlotValues::Single(2, 26.0), SlotValues::Single(2, 26.0)};
    doc = ToJson(g);
  } else if (type == "subst_offline") {
    SubstOfflineGame g;
    g.costs = {60.0, 180.0, 100.0};
    g.users = {{{0, 1}, 100.0}, {{2}, 101.0}, {{0, 1, 2}, 60.0}, {{1}, 70.0}};
    doc = ToJson(g);
  } else if (type == "subst_online") {
    SubstOnlineGame g;
    g.num_slots = 3;
    g.costs = {60.0, 100.0, 50.0};
    g.users = {{SlotValues::Constant(1, 2, 50.0), {0, 1}},
               {SlotValues::Constant(2, 3, 50.0), {0, 1, 2}},
               {SlotValues::Single(3, 100.0), {2}}};
    doc = ToJson(g);
  } else if (type == "event_log") {
    // A streamed period: three tenants declare at their arrival slots and
    // one departs early — the scenario a batch game file cannot express.
    SlotEventLog log;
    log.kind = GameKind::kAdditiveOnline;
    log.num_slots = 4;
    log.costs = {100.0};
    log.events.resize(4);
    log.events[0].push_back(SlotEvent::DeclareValues(
        0, 0, *SlotValues::Make(1, 4, {30.0, 30.0, 30.0, 30.0})));
    log.events[1].push_back(SlotEvent::DeclareValues(
        1, 0, *SlotValues::Make(2, 4, {40.0, 40.0, 40.0})));
    log.events[2].push_back(
        SlotEvent::DeclareValues(2, 0, SlotValues::Single(3, 55.0)));
    log.events[2].push_back(SlotEvent::UserDepart(1));
    doc = ToJson(log);
  } else if (type == "trace") {
    Result<strategy::TraceConfig> config =
        strategy::ParseTraceConfig(kSampleTraceConfig);
    if (!config.ok()) return Fail(config.status().ToString());
    doc = strategy::ToJson(*config);
  } else {
    return Fail("unknown game type: " + type);
  }
  std::cout << doc.Dump(2) << "\n";
  return 0;
}

void PrintLedger(const Accounting& acc) {
  std::cout << "total value    " << FormatDollars(acc.TotalValue()) << "\n"
            << "total payments " << FormatDollars(acc.TotalPayment()) << "\n"
            << "total cost     " << FormatDollars(acc.total_cost) << "\n"
            << "total utility  " << FormatDollars(acc.TotalUtility()) << "\n"
            << "cloud balance  " << FormatDollars(acc.CloudBalance()) << "\n";
  for (size_t i = 0; i < acc.user_value.size(); ++i) {
    std::cout << "user " << i << ": value "
              << FormatDollars(acc.user_value[i]) << ", pays "
              << FormatDollars(acc.user_payment[i]) << ", utility "
              << FormatDollars(acc.UserUtility(static_cast<UserId>(i)))
              << "\n";
  }
}

JsonValue LedgerToJson(const Accounting& acc) {
  JsonValue obj = JsonValue::MakeObject();
  obj.Set("total_value", JsonValue::Number(acc.TotalValue()));
  obj.Set("total_payments", JsonValue::Number(acc.TotalPayment()));
  obj.Set("total_cost", JsonValue::Number(acc.total_cost));
  obj.Set("total_utility", JsonValue::Number(acc.TotalUtility()));
  obj.Set("cloud_balance", JsonValue::Number(acc.CloudBalance()));
  JsonValue users = JsonValue::MakeArray();
  for (size_t i = 0; i < acc.user_value.size(); ++i) {
    JsonValue u = JsonValue::MakeObject();
    u.Set("value", JsonValue::Number(acc.user_value[i]));
    u.Set("payment", JsonValue::Number(acc.user_payment[i]));
    users.Append(std::move(u));
  }
  obj.Set("users", std::move(users));
  return obj;
}

/// Runs the named (or default) mechanism on the parsed game and accounts
/// the outcome against the same game as truth — one registry-driven path
/// for every game type and mechanism.
int RunView(const GameView& view, std::string mechanism, bool json) {
  if (mechanism == "default") {
    mechanism = MechanismRegistry::DefaultFor(view.kind());
  }
  Result<MechanismResult> result = RunMechanism(mechanism, view);
  if (!result.ok()) return Fail(result.status().ToString());
  const Accounting acc = AccountResult(view, *result);

  if (json) {
    std::cout << LedgerToJson(acc).Dump(2) << "\n";
  } else {
    PrintLedger(acc);
  }
  return 0;
}

int RunGame(const JsonValue& doc, const std::string& mechanism, bool json) {
  const std::string type = GameTypeOf(doc);
  if (type == "additive_offline") {
    Result<AdditiveOfflineGame> game = AdditiveOfflineGameFromJson(doc);
    if (!game.ok()) return Fail(game.status().ToString());
    return RunView(GameView(*game), mechanism, json);
  }
  if (type == "additive_online") {
    Result<AdditiveOnlineGame> game = AdditiveOnlineGameFromJson(doc);
    if (!game.ok()) return Fail(game.status().ToString());
    return RunView(GameView(*game), mechanism, json);
  }
  if (type == "subst_offline") {
    Result<SubstOfflineGame> game = SubstOfflineGameFromJson(doc);
    if (!game.ok()) return Fail(game.status().ToString());
    return RunView(GameView(*game), mechanism, json);
  }
  if (type == "subst_online") {
    Result<SubstOnlineGame> game = SubstOnlineGameFromJson(doc);
    if (!game.ok()) return Fail(game.status().ToString());
    return RunView(GameView(*game), mechanism, json);
  }
  return Fail("unknown or missing game type: \"" + type + "\"");
}

/// Replays an event-log document through the streaming surface: the named
/// (or default) mechanism ingests the period slot by slot, then the
/// outcome is accounted against the log's materialized truth game.
int ReplayLogFile(const JsonValue& doc, std::string mechanism, bool json) {
  Result<SlotEventLog> log = EventLogFromJson(doc);
  if (!log.ok()) return Fail(log.status().ToString());
  if (mechanism == "default") {
    mechanism = MechanismRegistry::DefaultFor(log->kind);
  }
  Result<std::unique_ptr<OnlineMechanism>> mech =
      ResolveOnlineMechanism(mechanism, log->kind);
  if (!mech.ok()) return Fail(mech.status().ToString());
  Result<MechanismResult> result = ReplayLog(*log, **mech);
  if (!result.ok()) return Fail(result.status().ToString());

  // Offline-collapsed mechanisms report no slot structure; account them
  // against the collapsed (per-user total) truth instead.
  const bool collapsed = result->num_slots == 0;
  Accounting acc;
  if (log->kind == GameKind::kSubstOnline) {
    Result<SubstOnlineGame> truth = MaterializeSubstLog(*log);
    if (!truth.ok()) return Fail(truth.status().ToString());
    if (collapsed) {
      SubstOfflineGame off;
      off.costs = truth->costs;
      for (const auto& u : truth->users) {
        off.users.push_back({u.substitutes, u.stream.Total()});
      }
      acc = AccountResult(GameView(off), *result);
    } else {
      acc = AccountResult(GameView(*truth), *result);
    }
  } else {
    Result<MultiAdditiveOnlineGame> truth = MaterializeAdditiveLog(*log);
    if (!truth.ok()) return Fail(truth.status().ToString());
    if (collapsed) {
      AdditiveOfflineGame off;
      off.costs = truth->costs;
      for (const auto& row : truth->bids) {
        std::vector<double> totals;
        totals.reserve(row.size());
        for (const auto& stream : row) totals.push_back(stream.Total());
        off.bids.push_back(std::move(totals));
      }
      acc = AccountResult(GameView(off), *result);
    } else {
      acc = AccountResult(GameView(*truth), *result);
    }
  }
  if (json) {
    JsonValue obj = LedgerToJson(acc);
    obj.Set("mechanism", JsonValue::Str(mechanism));
    obj.Set("native_online",
            JsonValue::Bool(NativelyOnline(mechanism, log->kind)));
    std::cout << obj.Dump(2) << "\n";
  } else {
    std::cout << "replayed " << log->num_slots << " slots through \""
              << mechanism << "\" ("
              << (NativelyOnline(mechanism, log->kind) ? "native online"
                                                       : "buffered")
              << ")\n";
    PrintLedger(acc);
  }
  return 0;
}

/// Models the strategist on the background world: the first class's first
/// workload template at a representative intensity, subscribed for the
/// whole period — a tenant the advisor would genuinely want to serve.
Result<simdb::SimUser> DefaultStrategist(const strategy::TraceConfig& config) {
  if (config.classes.empty() || config.classes.front().workloads.empty()) {
    return Status::InvalidArgument(
        "scenario config has no tenant classes to model the strategist on");
  }
  const strategy::TenantClass& cls = config.classes.front();
  simdb::SimUser strategist;
  strategist.workload = cls.workloads.front();
  switch (cls.executions.kind) {
    case strategy::ExecutionsSpec::Kind::kFixed:
      strategist.executions_per_slot = cls.executions.fixed;
      break;
    case strategy::ExecutionsSpec::Kind::kCycle:
      strategist.executions_per_slot =
          cls.executions.cycle.empty() ? 1.0 : cls.executions.cycle.front();
      break;
    case strategy::ExecutionsSpec::Kind::kUniform:
      strategist.executions_per_slot =
          0.5 * (cls.executions.lo + cls.executions.hi);
      break;
    case strategy::ExecutionsSpec::Kind::kPareto:
      strategist.executions_per_slot = cls.executions.scale;
      break;
  }
  strategist.start = 1;
  strategist.end = config.slots_per_period;
  return strategist;
}

/// The strategy lab: replays one multi-period wire program twice — the
/// strategist truthful, then playing an attack — and prints what the lie
/// bought (strategy/harness.h).
int Attack(int argc, char** argv) {
  std::string scenario_file;
  std::string mechanism;
  std::string player_spec;
  int periods = 0;
  int workers = 2;
  bool dry_run = false;
  bool json = false;
  for (int a = 2; a < argc; ++a) {
    const std::string arg = argv[a];
    if (arg == "--scenario-file" && a + 1 < argc) {
      scenario_file = argv[++a];
    } else if (arg == "--mechanism" && a + 1 < argc) {
      mechanism = argv[++a];
    } else if (arg == "--player" && a + 1 < argc) {
      player_spec = argv[++a];
    } else if (arg == "--periods" && a + 1 < argc) {
      periods = std::atoi(argv[++a]);
      if (periods < 1) return Fail("--periods must be >= 1");
    } else if (arg == "--workers" && a + 1 < argc) {
      workers = std::atoi(argv[++a]);
      if (workers < 1) return Fail("--workers must be >= 1");
    } else if (arg == "--dry-run") {
      dry_run = true;
    } else if (arg == "--json") {
      json = true;
    } else {
      return Usage();
    }
  }

  strategy::TraceConfig config;
  if (!scenario_file.empty()) {
    Result<strategy::TraceConfig> loaded = LoadTraceConfig(scenario_file);
    if (!loaded.ok()) return Fail(loaded.status().ToString());
    config = std::move(*loaded);
  } else {
    // The default background world: the telemetry preset over three
    // periods, so periods 2+ exercise carried structures.
    Result<JsonValue> preset =
        strategy::PresetConfigDocument("telemetry", 6, 12);
    if (!preset.ok()) return Fail(preset.status().ToString());
    Result<strategy::TraceConfig> parsed =
        strategy::TraceConfigFromJson(*preset);
    if (!parsed.ok()) return Fail(parsed.status().ToString());
    config = std::move(*parsed);
    config.name = "attack-lab";
    config.periods = 3;
  }
  if (!mechanism.empty()) config.mechanism = mechanism;
  if (periods > 0) config.periods = periods;

  if (dry_run) {
    Result<strategy::Trace> trace = strategy::GenerateTrace(config);
    if (!trace.ok()) return Fail(trace.status().ToString());
    Result<std::vector<std::string>> lines = strategy::TraceRequestLines(
        config, *trace, config.name.empty() ? "trace" : config.name);
    if (!lines.ok()) return Fail(lines.status().ToString());
    for (const std::string& line : *lines) std::cout << line << "\n";
    return 0;
  }

  Result<simdb::SimUser> strategist = DefaultStrategist(config);
  if (!strategist.ok()) return Fail(strategist.status().ToString());
  strategy::StrategyOptions options;
  options.background = std::move(config);
  options.strategist = *strategist;
  options.num_workers = workers;
  Result<strategy::StrategyHarness> harness =
      strategy::StrategyHarness::Make(std::move(options));
  if (!harness.ok()) return Fail(harness.status().ToString());

  std::vector<std::string> specs;
  if (player_spec.empty()) {
    specs = strategy::DefaultAttackSpecs();
  } else {
    specs.push_back(player_spec);
  }
  JsonValue outcomes = JsonValue::MakeArray();
  for (const std::string& spec : specs) {
    Result<std::unique_ptr<strategy::StrategyPlayer>> player =
        strategy::MakePlayer(spec);
    if (!player.ok()) return Fail(player.status().ToString());
    Result<strategy::AttackOutcome> outcome = harness->Run(**player);
    if (!outcome.ok()) return Fail(outcome.status().ToString());
    if (json) {
      outcomes.Append(strategy::ToJson(*outcome));
    } else {
      std::cout << outcome->player << " vs " << outcome->mechanism << " over "
                << outcome->periods << " periods: gain "
                << FormatDollars(outcome->gain) << " (truthful utility "
                << FormatDollars(outcome->truthful_utility) << ", strategic "
                << FormatDollars(outcome->strategic_utility)
                << "), cost-recovery error " << outcome->cost_recovery_error
                << ", regret " << FormatDollars(outcome->regret) << "\n";
    }
  }
  if (json) std::cout << outcomes.Dump(2) << "\n";
  return 0;
}

int Main(int argc, char** argv) {
  RegisterBaselineMechanisms();
  if (argc >= 2 && std::string(argv[1]) == "mechanisms") {
    for (const std::string& name : MechanismRegistry::Global().Names()) {
      std::cout << name << "\n";
    }
    return 0;
  }
  if (argc >= 2 && std::string(argv[1]) == "help") return Help(argc, argv);
  if (argc >= 2 && std::string(argv[1]) == "serve") return Serve(argc, argv);
  if (argc >= 2 && std::string(argv[1]) == "attack") {
    return Attack(argc, argv);
  }
  if (argc >= 2 && std::string(argv[1]) == "connect") {
    return ConnectRemote(argc, argv);
  }
  if (argc >= 2 && std::string(argv[1]) == "metrics") {
    return Metrics(argc, argv);
  }
  if (argc >= 2 && std::string(argv[1]) == "node") {
    return RunClusterNode(argc, argv);
  }
  if (argc >= 2 && std::string(argv[1]) == "route") {
    return RunClusterRouter(argc, argv);
  }
  if (argc >= 2 && std::string(argv[1]) == "recover") {
    return Recover(argc, argv);
  }
  if (argc >= 2 && std::string(argv[1]) == "export") {
    return ExportColumnar(argc, argv);
  }
  if (argc < 3) return Usage();
  const std::string command = argv[1];

  if (command == "sample") return EmitSample(argv[2]);

  Result<JsonValue> doc = LoadGameFile(argv[2]);
  if (!doc.ok()) return Fail(doc.status().ToString());

  if (command == "validate") {
    const std::string type = GameTypeOf(*doc);
    Status st;
    if (type == "additive_offline") {
      auto g = AdditiveOfflineGameFromJson(*doc);
      st = g.ok() ? Status::OK() : g.status();
    } else if (type == "event_log") {
      auto log = EventLogFromJson(*doc);
      st = log.ok() ? Status::OK() : log.status();
    } else if (type == "additive_online") {
      auto g = AdditiveOnlineGameFromJson(*doc);
      st = g.ok() ? Status::OK() : g.status();
    } else if (type == "subst_offline") {
      auto g = SubstOfflineGameFromJson(*doc);
      st = g.ok() ? Status::OK() : g.status();
    } else if (type == "subst_online") {
      auto g = SubstOnlineGameFromJson(*doc);
      st = g.ok() ? Status::OK() : g.status();
    } else {
      return Fail("unknown game type: \"" + type + "\"");
    }
    if (!st.ok()) return Fail(st.ToString());
    std::cout << "valid " << type << " game\n";
    return 0;
  }

  if (command == "run" || command == "replay") {
    std::string mechanism = "default";
    bool json = false;
    for (int a = 3; a < argc; ++a) {
      const std::string arg = argv[a];
      if (arg == "--mechanism" && a + 1 < argc) {
        mechanism = argv[++a];
      } else if (arg == "--json") {
        json = true;
      } else {
        return Usage();
      }
    }
    if (command == "replay") return ReplayLogFile(*doc, mechanism, json);
    return RunGame(*doc, mechanism, json);
  }

  return Usage();
}

}  // namespace
}  // namespace optshare

int main(int argc, char** argv) { return optshare::Main(argc, argv); }
