// The four traffic mixes and the worlds they run against.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "cluster/node.h"
#include "cluster/router.h"
#include "drive.h"
#include "service/net_server.h"

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string tmp_dir = ".perfbench_tmp";
  std::string commit = "unknown";
};

constexpr int kWorkers = 4;      ///< Server (or per-node) worker threads.
constexpr int kConnections = 4;  ///< Client connections, one thread each.

/// Three ClusterNodes with journal-streaming replication, fronted by a
/// ClusterRouter on its own TCP listener.
struct Cluster {
  std::vector<optshare::cluster::ClusterNodeOptions> options;
  std::vector<std::unique_ptr<optshare::cluster::ClusterNode>> nodes;
  optshare::cluster::PlacementMap placement;
  std::unique_ptr<optshare::cluster::ClusterRouter> router;
  std::unique_ptr<optshare::cluster::RouterServer> front;

  ~Cluster();
};

/// Boots a cluster; `data_root` empty keeps node state in memory.
Result<std::unique_ptr<Cluster>> StartCluster(const std::string& data_root);

/// The system under test for one run, plus the client connections into it.
struct World {
  std::shared_ptr<optshare::service::StateStore> base;  ///< Single node.
  std::shared_ptr<CountingStore> store;
  std::unique_ptr<optshare::service::MarketplaceServer> server;
  std::unique_ptr<optshare::service::NetServer> net;
  std::unique_ptr<Cluster> cluster;
  std::vector<std::unique_ptr<TcpSender>> senders;
  std::string data_dir;

  ~World();
  std::vector<Sender*> SenderPointers() const;
  /// Every MarketplaceServer in the world (one, or one per node).
  std::vector<optshare::service::MarketplaceServer*> Servers() const;
  /// The TCP port of the first server (node 0 in a cluster).
  uint16_t FirstServerPort() const;
};

/// A workload: its inputs, and how one timed phase drives them.
class Workload {
 public:
  virtual ~Workload() = default;
  virtual const char* name() const = 0;
  /// Deterministic inputs from the seed.
  virtual Result<std::vector<Program>> MakePrograms(uint64_t seed) const = 0;
  virtual bool file_store() const { return true; }
  virtual bool clustered() const { return false; }
  /// Client connections (one driving thread each).
  virtual int connections() const { return kConnections; }
  /// Whether the client ACKs every answer at once (see TcpSender).
  virtual bool quick_ack() const { return false; }
  /// Untimed work after set-up (read-mix builds its history here).
  virtual bool WarmUp(World*, Fleet*) { return true; }

  struct Phase {
    Tally all;        ///< Totals over the whole phase.
    Summary summary;  ///< The per-window medians the metrics report.
  };
  virtual Phase Run(World* world, Fleet* fleet, double seconds) = 0;
  /// The same traffic shape over in-process lanes (the traced run's
  /// queue-wait probe): closed loop unless the mix measures open-loop.
  virtual Tally DriveInProcess(Fleet* fleet, const std::vector<Lane>& lanes,
                               double seconds) const {
    return RunClosedLoop(fleet, lanes, seconds, true);
  }
};

std::unique_ptr<Workload> MakeWorkload(const std::string& name);

/// Boots the world a workload runs against, with its client connections.
/// `data_dir` must not exist yet.
Result<std::unique_ptr<World>> Boot(const Workload& workload,
                                    const std::string& data_dir);

/// Wire helpers shared with the probes.
Request TenancyRequest(RequestOp op, const std::string& tenancy);
optshare::simdb::TableDef TinyTable();
optshare::simdb::Workload TinyQuery();

}  // namespace perfbench
