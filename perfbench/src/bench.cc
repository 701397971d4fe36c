#include "bench.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

#include "service/pricing_session.h"
#include "strategy/harness.h"

namespace perfbench {

// -- Statistics ---------------------------------------------------------------

double Samples::Sum() const {
  double total = 0.0;
  for (double v : values_) total += v;
  return total;
}

double Samples::Percentile(double p) const {
  if (values_.empty()) return 0.0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(sorted.size()));
  const size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return sorted[std::min(index, sorted.size() - 1)];
}

size_t Samples::Beyond(double p) const {
  const double cut = Percentile(p);
  return static_cast<size_t>(
      std::count_if(values_.begin(), values_.end(),
                    [cut](double v) { return v > cut; }));
}

void MetricSet::Put(const std::string& name, double value,
                    const std::string& unit) {
  if (!std::isfinite(value)) value = 0.0;
  items_.push_back({name, {value, unit}});
}

double MetricSet::Get(const std::string& name) const {
  for (const auto& [key, entry] : items_) {
    if (key == name) return entry.first;
  }
  return 0.0;
}

JsonValue MetricSet::ToJson() const {
  JsonValue metrics = JsonValue::MakeObject();
  for (const auto& [name, entry] : items_) {
    JsonValue m = JsonValue::MakeObject();
    m.Set("value", JsonValue::Number(entry.first));
    m.Set("unit", JsonValue::Str(entry.second));
    metrics.Set(name, std::move(m));
  }
  return metrics;
}

void MetricSet::Print(const char* title) const {
  std::fprintf(stderr, "== %s\n", title);
  for (const auto& [name, entry] : items_) {
    std::fprintf(stderr, "  %-44s %16.6g %s\n", name.c_str(), entry.first,
                 entry.second.c_str());
  }
}

// -- Process probes -----------------------------------------------------------

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + tv.tv_usec / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

uint64_t ProcessWriteBytes() {
  std::ifstream io("/proc/self/io");
  std::string key;
  uint64_t value = 0;
  while (io >> key >> value) {
    if (key == "wchar:") return value;
  }
  return 0;
}

double CpuCalibrationMs(int threads) {
  const auto start = Clock::now();
  std::vector<std::thread> spinners;
  std::atomic<uint64_t> sink{0};
  for (int t = 0; t < threads; ++t) {
    spinners.emplace_back([&sink, t] {
      uint64_t x = 0x9E3779B97F4A7C15ull + static_cast<uint64_t>(t);
      for (int i = 0; i < 60'000'000; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
      }
      sink.fetch_add(x, std::memory_order_relaxed);
    });
  }
  for (std::thread& spinner : spinners) spinner.join();
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

// -- StateStore wrapper --------------------------------------------------------

namespace {
enum StoreCall { kAppend, kCheckpoint, kSync };
}  // namespace

void CountingStore::Record(const std::string& tenancy, Clock::time_point start,
                           Clock::time_point end, int kind, size_t bytes) {
  if (observer_ != nullptr) observer_->OnStoreCall(tenancy, start, end);
  const double us = MicrosBetween(start, end);
  std::lock_guard<std::mutex> lock(mu_);
  timings_.busy_s += us / 1e6;
  if (kind == kAppend) {
    timings_.append_us.Add(us);
    ++timings_.appends;
    timings_.append_bytes += bytes;
  } else if (kind == kCheckpoint) {
    timings_.checkpoint_ms.Add(us / 1000.0);
    ++timings_.checkpoints;
  } else {
    timings_.sync_ms.Add(us / 1000.0);
  }
}

Status CountingStore::Append(const std::string& tenancy,
                             const std::string& record) {
  bytes_.fetch_add(record.size(), std::memory_order_relaxed);
  if (!tracing_.load(std::memory_order_relaxed)) {
    return base_->Append(tenancy, record);
  }
  const auto start = Clock::now();
  Status status = base_->Append(tenancy, record);
  Record(tenancy, start, Clock::now(), kAppend, record.size());
  return status;
}

Status CountingStore::Checkpoint(const std::string& tenancy,
                                 const JsonValue& snapshot) {
  bytes_.fetch_add(snapshot.Dump().size(), std::memory_order_relaxed);
  if (!tracing_.load(std::memory_order_relaxed)) {
    return base_->Checkpoint(tenancy, snapshot);
  }
  const auto start = Clock::now();
  Status status = base_->Checkpoint(tenancy, snapshot);
  Record(tenancy, start, Clock::now(), kCheckpoint, 0);
  return status;
}

Status CountingStore::Sync(const std::string& tenancy) {
  if (!tracing_.load(std::memory_order_relaxed)) return base_->Sync(tenancy);
  const auto start = Clock::now();
  Status status = base_->Sync(tenancy);
  Record(tenancy, start, Clock::now(), kSync, 0);
  return status;
}

CountingStore::Timings CountingStore::TakeTimings() {
  std::lock_guard<std::mutex> lock(mu_);
  Timings taken = std::move(timings_);
  timings_ = Timings();
  return taken;
}

// -- Wire programs ------------------------------------------------------------

bool IsReadOp(RequestOp op) {
  return op == RequestOp::kReport || op == RequestOp::kQueryPrice;
}

size_t WireBytes(const Request& request) {
  return protocol::ToJson(request).Dump().size() + 1;
}

Result<Program> MakeProgram(const optshare::strategy::TraceConfig& config,
                            const std::string& tenancy,
                            bool report_after_advance) {
  if (config.periods < 2) {
    return Status::InvalidArgument("a program needs at least two periods");
  }
  Result<optshare::strategy::Trace> trace =
      optshare::strategy::GenerateTrace(config);
  if (!trace.ok()) return trace.status();
  Result<std::vector<std::string>> lines =
      optshare::strategy::TraceRequestLines(config, *trace, tenancy);
  if (!lines.ok()) return lines.status();

  Program program;
  program.tenancy = tenancy;
  program.mechanism = config.mechanism;
  int opens = 0;
  for (const std::string& line : *lines) {
    Result<Request> request = protocol::ParseRequestLine(line);
    if (!request.ok()) return request.status();
    if (request->op == RequestOp::kOpenPeriod) {
      ++opens;
      if (opens == 2) program.cycle_from = program.requests.size();
      if (opens == 3) program.cycle_first_end = program.requests.size();
    }
    const bool advance = request->op == RequestOp::kAdvanceSlot;
    program.bytes.push_back(line.size() + 1);
    program.requests.push_back(std::move(*request));
    if (advance && report_after_advance) {
      Request report;
      report.op = RequestOp::kReport;
      report.version = 2;
      report.tenancy = tenancy;
      program.bytes.push_back(WireBytes(report));
      program.requests.push_back(std::move(report));
    }
  }
  if (opens < 3) program.cycle_first_end = program.requests.size();
  return program;
}

Request BatchOf(const Program& program, size_t pos, size_t n) {
  Request batch;
  batch.op = RequestOp::kBatch;
  batch.version = 3;
  batch.requests.reserve(n);
  for (size_t i = 0; i < n; ++i) batch.requests.push_back(program.At(pos + i));
  return batch;
}

// -- Checking -----------------------------------------------------------------

namespace {

double NumberAt(const JsonValue& payload, const char* key, double fallback) {
  const JsonValue* v = payload.is_object() ? payload.Find(key) : nullptr;
  return v != nullptr && v->is_number() ? v->AsNumber() : fallback;
}

}  // namespace

Verdict CheckResponse(const Request& request, const Response& response,
                      TenancyState* state, bool exact_reads,
                      uint64_t* slots_priced) {
  if (!response.ok()) return Verdict::kError;
  const JsonValue& payload = response.payload;
  switch (request.op) {
    case RequestOp::kOpenPeriod:
      if (NumberAt(payload, "period", -1) != state->periods_closed + 1) {
        return Verdict::kMismatch;
      }
      state->open = true;
      state->slot = 0;
      return Verdict::kOk;
    case RequestOp::kSubmit: {
      const JsonValue* ids = payload.Find("tenant_ids");
      if (ids == nullptr || !ids->is_array() ||
          ids->AsArray().size() != request.tenants.size()) {
        return Verdict::kMismatch;
      }
      return Verdict::kOk;
    }
    case RequestOp::kDepart:
      return Verdict::kOk;
    case RequestOp::kAdvanceSlot:
      if (NumberAt(payload, "slot", -1) != state->slot + request.slots) {
        return Verdict::kMismatch;
      }
      state->slot += request.slots;
      *slots_priced += static_cast<uint64_t>(request.slots);
      return Verdict::kOk;
    case RequestOp::kClosePeriod: {
      const JsonValue* report = payload.Find("report");
      if (report == nullptr) return Verdict::kMismatch;
      ++state->periods_closed;
      state->open = false;
      state->slot = 0;
      state->close_reports[state->periods_closed] = report->Dump();
      return Verdict::kOk;
    }
    case RequestOp::kReport: {
      if (request.period > 0) {
        const JsonValue* report = payload.Find("report");
        auto expected = state->close_reports.find(request.period);
        if (report == nullptr || (expected != state->close_reports.end() &&
                                  report->Dump() != expected->second)) {
          return Verdict::kMismatch;
        }
        return Verdict::kOk;
      }
      const JsonValue* name = payload.Find("tenancy");
      if (name == nullptr || !name->is_string() ||
          name->AsString() != request.tenancy) {
        return Verdict::kMismatch;
      }
      if (exact_reads &&
          (NumberAt(payload, "periods_run", -1) != state->periods_closed ||
           NumberAt(payload, "current_slot", -1) != state->slot)) {
        return Verdict::kMismatch;
      }
      return Verdict::kOk;
    }
    case RequestOp::kQueryPrice: {
      const JsonValue* name = payload.Find("tenancy");
      return name != nullptr && name->is_string() &&
                     name->AsString() == request.tenancy
                 ? Verdict::kOk
                 : Verdict::kMismatch;
    }
    case RequestOp::kBatch: {
      const JsonValue* members = payload.Find("responses");
      if (members == nullptr || !members->is_array() ||
          members->AsArray().size() != request.requests.size()) {
        return Verdict::kMismatch;
      }
      Verdict worst = Verdict::kOk;
      for (size_t i = 0; i < request.requests.size(); ++i) {
        Result<Response> member =
            protocol::ResponseFromJson(members->AsArray()[i]);
        if (!member.ok()) return Verdict::kMismatch;
        const Verdict v = CheckResponse(request.requests[i], *member, state,
                                        exact_reads, slots_priced);
        if (v == Verdict::kMismatch) return v;
        if (v == Verdict::kError) worst = v;
      }
      return worst;
    }
    default:
      return Verdict::kOk;
  }
}

// -- Replay -------------------------------------------------------------------

namespace {

optshare::strategy::TraceCatalog TraceCatalogOf(
    const protocol::CatalogSpec& spec) {
  optshare::strategy::TraceCatalog catalog;
  catalog.scenario = spec.scenario;
  catalog.scenario_tenants = spec.scenario_tenants;
  catalog.scenario_slots = spec.scenario_slots;
  catalog.tables = spec.tables;
  return catalog;
}

/// The replay's view of one tenancy (mirrors MarketplaceServer's Tenancy).
struct ReplayTenancy {
  std::optional<optshare::simdb::Catalog> catalog;
  optshare::service::ServiceConfig config;
  std::vector<std::string> built;
  int periods_run = 0;
  std::optional<optshare::service::PricingSession> session;
};

double MicrosSince(Clock::time_point start) {
  return MicrosBetween(start, Clock::now());
}

/// Applies one request; false + *why on a divergence from the server.
bool ReplayOne(const Request& request, ReplayTenancy* t,
               const TenancyState& state, bool addon, ExecTimings* timings,
               std::string* why) {
  using optshare::service::PricingSession;
  switch (request.op) {
    case RequestOp::kOpenPeriod: {
      if (!t->catalog) {
        if (!request.catalog) {
          *why = "first open_period carries no catalog";
          return false;
        }
        Result<optshare::simdb::Catalog> catalog =
            optshare::strategy::BuildTraceCatalog(
                TraceCatalogOf(*request.catalog));
        if (!catalog.ok()) {
          *why = catalog.status().ToString();
          return false;
        }
        t->catalog.emplace(std::move(*catalog));
      }
      if (request.config) t->config = *request.config;
      Result<PricingSession> session = PricingSession::Open(
          &*t->catalog, t->config, t->built, t->periods_run + 1);
      if (!session.ok()) {
        *why = session.status().ToString();
        return false;
      }
      t->session.emplace(std::move(*session));
      return true;
    }
    case RequestOp::kSubmit: {
      if (!t->session) return true;
      const auto start = Clock::now();
      (void)t->session->Submit(request.tenants);
      if (!request.tenants.empty()) {
        timings->submit_us_per_tenant.Add(MicrosSince(start) /
                                          request.tenants.size());
      }
      return true;
    }
    case RequestOp::kDepart:
      if (t->session) (void)t->session->Depart(request.tenant);
      return true;
    case RequestOp::kAdvanceSlot:
      for (int i = 0; t->session && i < request.slots; ++i) {
        const auto start = Clock::now();
        const Status st = t->session->AdvanceSlot();
        timings->advance_us.Add(MicrosSince(start));
        if (!st.ok()) break;
        ++timings->slots;
      }
      return true;
    case RequestOp::kClosePeriod: {
      if (!t->session) return true;
      const int structures = t->session->num_structures();
      const auto start = Clock::now();
      Result<optshare::service::PeriodReport> report = t->session->Close();
      timings->close_ms.Add(MicrosSince(start) / 1000.0);
      if (!report.ok()) {
        *why = "replayed close failed: " + report.status().ToString();
        return false;
      }
      timings->structures_at_close.Add(structures);
      ++t->periods_run;
      t->built = t->session->built_structures();
      t->session.reset();
      auto seen = state.close_reports.find(t->periods_run);
      if (seen == state.close_reports.end()) return true;  // Not answered.
      if (protocol::ToJson(*report).Dump() != seen->second) {
        *why = "period " + std::to_string(t->periods_run) +
               " report differs from the direct PricingSession replay";
        return false;
      }
      const double balance = report->ledger.CloudBalance();
      if (addon && balance < -1e-6 * std::max(1.0, report->ledger.total_cost)) {
        *why = "addon did not recover its costs in period " +
               std::to_string(t->periods_run);
        return false;
      }
      return true;
    }
    case RequestOp::kBatch:
      for (const Request& member : request.requests) {
        if (!ReplayOne(member, t, state, addon, timings, why)) return false;
      }
      return true;
    default:
      return true;  // Reads change nothing.
  }
}

}  // namespace

bool ReplayAndCompare(const Program& program, size_t executed,
                      const TenancyState& state, ExecTimings* timings,
                      std::string* why) {
  ReplayTenancy tenancy;
  const bool addon = program.mechanism == "addon";
  for (size_t i = 0; i < executed; ++i) {
    if (!ReplayOne(program.At(i), &tenancy, state, addon, timings, why)) {
      *why = program.tenancy + ": " + *why;
      return false;
    }
  }
  if (tenancy.periods_run != state.periods_closed) {
    *why = program.tenancy + ": replay closed " +
           std::to_string(tenancy.periods_run) + " periods, server " +
           std::to_string(state.periods_closed);
    return false;
  }
  return true;
}

}  // namespace perfbench
