// Strategy-lab sweep: benchmarks the trace-shaped workload engine and
// pins the incentive outcomes of the attack battery. Three sections, one
// BENCH_strategy.json:
//
//   trace_gen  how fast GenerateTrace expands a mixed diurnal/flash/
//              Pareto scenario into tenants (tenants/s, the fastest of the
//              timed repetitions), plus the shape statistics the engine
//              promises (flash spike, heavy tail).
//   wire       the same trace serialized to its wire program
//              (TraceRequestLines) and replayed through a real
//              MarketplaceServer via HandleLine, in requests/s: the
//              fastest of 3 replays, each into a fresh server.
//   attacks    StrategyHarness gains for the attack battery against the
//              paper mechanism ("addon") and the exploitable naive
//              baseline ("naive_online"). Every draw is seeded, so the
//              gains are bit-deterministic and machine-independent — the
//              perf gate bounds them absolutely: a truthful mechanism
//              must keep gains ~0 while the naive baseline pays the
//              delay and free-ride attackers.
//
//   strategy_sweep [--quick] [--out PATH]
#include <chrono>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "common/json.h"
#include "service/marketplace_server.h"
#include "strategy/harness.h"
#include "strategy/player.h"
#include "strategy/trace.h"

namespace optshare {
namespace {

using Clock = std::chrono::steady_clock;

double ElapsedMs(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// The generation-throughput scenario: a diurnal Pareto-tailed steady
/// class plus a flash crowd, the shapes the engine exists to produce.
strategy::TraceConfig GenScenario(int steady, int crowd, int periods) {
  strategy::TraceConfig config;
  config.name = "sweep-gen";
  config.seed = 11;
  config.periods = periods;
  config.slots_per_period = 24;

  simdb::TableDef telemetry;
  telemetry.name = "telemetry";
  telemetry.columns = {{"device", simdb::ColumnType::kInt64, 5'000'000}};
  telemetry.row_count = 1'000'000'000;
  config.catalog.tables.push_back(std::move(telemetry));

  simdb::Workload workload;
  simdb::Workload::Entry entry;
  entry.frequency = 1.0;
  entry.query.table = "telemetry";
  entry.query.aggregate = true;
  entry.query.predicates = {{"device", 2e-7}};
  workload.entries.push_back(std::move(entry));

  strategy::TenantClass steady_class;
  steady_class.name = "steady";
  steady_class.count = steady;
  steady_class.workloads.push_back(workload);
  steady_class.executions.kind = strategy::ExecutionsSpec::Kind::kPareto;
  steady_class.executions.scale = 150.0;
  steady_class.executions.alpha = 1.3;
  steady_class.executions.cap = 50'000.0;
  steady_class.interval.kind = strategy::IntervalSpec::Kind::kSampled;
  steady_class.interval.arrival.process =
      strategy::ArrivalSpec::Process::kDiurnal;
  steady_class.interval.arrival.amplitude = 0.8;
  steady_class.interval.arrival.wavelength = 24.0;
  config.classes.push_back(std::move(steady_class));

  strategy::TenantClass crowd_class;
  crowd_class.name = "crowd";
  crowd_class.count = crowd;
  crowd_class.workloads.push_back(std::move(workload));
  crowd_class.executions.kind = strategy::ExecutionsSpec::Kind::kFixed;
  crowd_class.executions.fixed = 400.0;
  crowd_class.interval.kind = strategy::IntervalSpec::Kind::kSampled;
  crowd_class.interval.arrival.process = strategy::ArrivalSpec::Process::kFlash;
  crowd_class.interval.arrival.peak_slot = 8;
  crowd_class.interval.arrival.width = 1;
  crowd_class.interval.arrival.multiplier = 25.0;
  crowd_class.interval.duration.kind = strategy::DurationSpec::Kind::kUniform;
  crowd_class.interval.duration.lo = 2;
  crowd_class.interval.duration.hi = 6;
  config.classes.push_back(std::move(crowd_class));

  strategy::DepartureSpec exodus;
  exodus.period = 0;  // Every period.
  exodus.slot = 16;
  exodus.fraction = 0.3;
  exodus.class_name = "steady";
  config.departures.push_back(exodus);
  return config;
}

/// The incentive scenario: the telemetry preset over three periods (so
/// periods 2+ carry funded structures), one strategist modeled on the
/// background class.
strategy::StrategyOptions AttackScenario(const std::string& mechanism) {
  Result<JsonValue> preset = strategy::PresetConfigDocument("telemetry", 6, 12);
  Result<strategy::TraceConfig> config =
      strategy::TraceConfigFromJson(*preset);
  strategy::StrategyOptions options;
  options.background = std::move(*config);
  options.background.name = "sweep-attack";
  options.background.periods = 3;
  options.background.mechanism = mechanism;

  simdb::SimUser strategist;
  simdb::Workload::Entry entry;
  entry.frequency = 1.0;
  entry.query.table = "telemetry";
  entry.query.aggregate = true;
  entry.query.predicates = {{"device", 2e-7}};
  strategist.workload.entries.push_back(std::move(entry));
  strategist.executions_per_slot = 150.0;
  strategist.start = 1;
  strategist.end = options.background.slots_per_period;
  options.strategist = strategist;
  options.num_workers = 2;
  return options;
}

int Die(const Status& status) {
  std::cerr << "strategy_sweep failed: " << status.ToString() << "\n";
  return 1;
}

}  // namespace
}  // namespace optshare

int main(int argc, char** argv) {
  using namespace optshare;

  bool quick = false;
  std::string out_path = "BENCH_strategy.json";
  for (int a = 1; a < argc; ++a) {
    const std::string arg = argv[a];
    if (arg == "--quick") {
      quick = true;
    } else if (arg == "--out" && a + 1 < argc) {
      out_path = argv[++a];
    } else {
      std::cerr << "usage: strategy_sweep [--quick] [--out PATH]\n";
      return 2;
    }
  }

  JsonValue doc = JsonValue::MakeObject();
  doc.Set("bench", JsonValue::Str("strategy_sweep"));
  doc.Set("quick", JsonValue::Bool(quick));

  // -- trace_gen: expansion throughput + shape stats ----------------------
  {
    const int steady = quick ? 400 : 4000;
    const int crowd = quick ? 100 : 1000;
    const int periods = quick ? 3 : 5;
    const int reps = quick ? 3 : 10;
    const strategy::TraceConfig config = GenScenario(steady, crowd, periods);
    strategy::Trace trace;
    double best_ms = 0.0;
    for (int r = 0; r < reps; ++r) {
      const auto start = Clock::now();
      Result<strategy::Trace> generated = strategy::GenerateTrace(config);
      const double ms = ElapsedMs(start);
      if (!generated.ok()) return Die(generated.status());
      if (r == 0 || ms < best_ms) best_ms = ms;
      trace = std::move(*generated);
    }
    size_t tenants = 0;
    for (const strategy::TracePeriod& period : trace.periods) {
      tenants += period.tenants.size();
    }
    const double total = static_cast<double>(tenants);

    // Shape: the flash-crowd spike vs. the average off-peak slot, and the
    // heavy tail of the steady class (both must hold on any machine).
    const strategy::TracePeriod& first = trace.periods.front();
    const std::vector<int> histogram =
        strategy::ArrivalHistogram(first, config.slots_per_period);
    double off_peak = 0.0;
    int off_slots = 0;
    for (int s = 1; s <= config.slots_per_period; ++s) {
      if (s < 7 || s > 9) {
        off_peak += histogram[static_cast<size_t>(s - 1)];
        ++off_slots;
      }
    }
    off_peak /= off_slots;
    const double peak = histogram[7];  // peak_slot 8.

    JsonValue gen = JsonValue::MakeObject();
    gen.Set("tenants_generated", JsonValue::Number(total));
    gen.Set("repetitions", JsonValue::Number(reps));
    gen.Set("ms_fastest", JsonValue::Number(best_ms));
    gen.Set("tenants_per_sec",
            JsonValue::Number(best_ms > 0.0 ? total / (best_ms / 1000.0)
                                            : 0.0));
    gen.Set("flash_peak_vs_off_peak",
            JsonValue::Number(off_peak > 0.0 ? peak / off_peak : 0.0));
    gen.Set("steady_tail_ratio", JsonValue::Number(strategy::TailRatio(first)));
    doc.Set("trace_gen", std::move(gen));
  }

  // -- wire: the trace's request program through a real server ------------
  {
    const strategy::TraceConfig config =
        GenScenario(quick ? 150 : 600, quick ? 50 : 200, quick ? 2 : 4);
    Result<strategy::Trace> trace = strategy::GenerateTrace(config);
    if (!trace.ok()) return Die(trace.status());
    Result<std::vector<std::string>> lines =
        strategy::TraceRequestLines(config, *trace, "sweep-wire");
    if (!lines.ok()) return Die(lines.status());

    constexpr int kWireRepetitions = 3;
    double best_ms = 0.0;
    for (int r = 0; r < kWireRepetitions; ++r) {
      service::ServerOptions options;
      options.num_workers = 2;
      service::MarketplaceServer server(std::move(options));
      const auto start = Clock::now();
      for (const std::string& line : *lines) {
        const std::string response = server.HandleLine(line);
        if (response.find("\"ok\":true") == std::string::npos &&
            response.find("\"ok\": true") == std::string::npos) {
          std::cerr << "wire replay failed: " << response << "\n";
          return 1;
        }
      }
      const double ms = ElapsedMs(start);
      if (r == 0 || ms < best_ms) best_ms = ms;
    }
    JsonValue wire = JsonValue::MakeObject();
    wire.Set("requests", JsonValue::Number(static_cast<double>(lines->size())));
    wire.Set("repetitions", JsonValue::Number(kWireRepetitions));
    wire.Set("ms_fastest", JsonValue::Number(best_ms));
    wire.Set("requests_per_sec",
             JsonValue::Number(best_ms > 0.0
                                   ? static_cast<double>(lines->size()) /
                                         (best_ms / 1000.0)
                                   : 0.0));
    doc.Set("wire", std::move(wire));
  }

  // -- attacks: deterministic incentive gains -----------------------------
  {
    const std::vector<std::string> mechanisms = {"addon", "naive_online"};
    std::vector<std::string> players = {"freeride", "delay:3"};
    if (!quick) {
      players.push_back("misreport:0.25");
      players.push_back("sybil:3");
    }
    JsonValue attacks = JsonValue::MakeArray();
    for (const std::string& mechanism : mechanisms) {
      Result<strategy::StrategyHarness> harness =
          strategy::StrategyHarness::Make(AttackScenario(mechanism));
      if (!harness.ok()) return Die(harness.status());
      for (const std::string& spec : players) {
        Result<std::unique_ptr<strategy::StrategyPlayer>> player =
            strategy::MakePlayer(spec);
        if (!player.ok()) return Die(player.status());
        Result<strategy::AttackOutcome> outcome = harness->Run(**player);
        if (!outcome.ok()) return Die(outcome.status());
        JsonValue row = strategy::ToJson(*outcome);
        // Gate selectors match on the bare player kind.
        row.Set("player", JsonValue::Str(spec));
        attacks.Append(std::move(row));
        std::cout << mechanism << " vs " << spec << ": gain "
                  << outcome->gain << " (truthful " << outcome->truthful_utility
                  << " -> strategic " << outcome->strategic_utility << ")\n";
      }
    }
    doc.Set("attacks", std::move(attacks));
  }

  std::ofstream out(out_path);
  out << doc.Dump(2) << "\n";
  std::cout << "wrote " << out_path << "\n";
  return 0;
}
