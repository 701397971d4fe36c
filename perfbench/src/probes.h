// Per-layer probes for the traced run. Each times calls into one layer's
// public functions from outside, on the traffic the workload just sent.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "bench.h"
#include "drive.h"
#include "workloads.h"

namespace perfbench {

/// Responses captured per op (server-side objects, capped per op).
using CapturedResponses = std::map<RequestOp, std::vector<Response>>;

/// LineBuffer fed the workload's request byte stream in 4 KiB chunks.
double FrameNsPerLine(const Fleet& fleet);

/// ParseRequestLine / TryFastParseRequestLine over the workload's request
/// lines, AppendResponseLine over `responses`: wire.* metrics.
void WireProbe(const Fleet& fleet, const CapturedResponses& responses,
               MetricSet* metrics);

/// AdmissionController::Admit replayed over the workload's mutating requests.
double AdmitNsPerCall(const Fleet& fleet);

/// The workload's programs replayed in-process through DispatchCallback
/// (no transport) against a fresh server whose store is timed.
struct InprocResult {
  Samples queue_wait_us, journal_us, exec_us;  ///< Per write request.
  Samples read_inline_us;  ///< Handle(report / query_price) beside the load.
  Samples report_bytes;    ///< Serialized size of those live reports.
  CountingStore::Timings journal;
  CapturedResponses responses;
  double seconds = 0.0;
  bool ok = true;
  std::string why;
};
InprocResult InprocProbe(const Workload& workload,
                         const std::vector<Program>& programs,
                         const std::string& data_dir, double seconds);

/// TCP round trip minus in-process Handle of the same kind of request, on a
/// probe tenancy of `server` (listening on `port`).
Samples TransportProbe(optshare::service::MarketplaceServer* server,
                       uint16_t port, std::string* why);

struct ClusterNumbers {
  Samples router_overhead_us;  ///< Via-router minus direct-to-owner RTT.
  double owner_of_ns = 0.0;
  double node_connections = 0.0;
  double repl_lag_max = 0.0;
  double repl_failures = 0.0;
};
/// Runs on `cluster`, or on a fresh in-memory cluster when null.
ClusterNumbers ClusterProbe(Cluster* cluster, const Fleet& fleet,
                            std::string* why);

/// server_info, in-process.
JsonValue ServerInfo(optshare::service::MarketplaceServer* server);
/// Number at a dotted path of a JSON document (0 when absent).
double NumberAtPath(const JsonValue& doc, const std::string& path);

}  // namespace perfbench
