// Trace engine suite: determinism (one config document, byte-identical
// traces forever), the distribution shapes the schema promises (diurnal
// cycles, flash crowds, heavy tails, correlated mass-departures), strict
// typed rejection of malformed documents, the pinned preset regression
// (simdb/scenarios.cc now expands PresetConfigDocument, and these tests
// hard-code the historical formulas so the rewrite can never drift), and
// the wire soak: a generated trace's request program replayed through a
// real MarketplaceServer, twice, to identical reports.
#include "strategy/trace.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "service/marketplace_server.h"
#include "simdb/scenarios.h"
#include "strategy/harness.h"

namespace optshare::strategy {
namespace {

/// A document exercising every distribution family at once.
constexpr char kMixedConfig[] = R"({
  "name": "mixed", "seed": 99, "periods": 3, "slots_per_period": 24,
  "mechanism": "addon", "maintenance_fraction": 0.25,
  "catalog": {"tables": [{"name": "telemetry", "row_count": 1000000000,
    "columns": [{"name": "device", "type": "int64",
                 "distinct_values": 5000000}]}]},
  "classes": [
    {"name": "steady", "count": 60,
     "workloads": [[{"frequency": 1, "query": {"table": "telemetry",
        "aggregate": true,
        "predicates": [{"column": "device", "selectivity": 2e-7}]}}]],
     "executions": {"pareto": {"scale": 100, "alpha": 1.2, "cap": 100000}},
     "interval": {"kind": "sampled",
                  "arrival": {"process": "diurnal", "amplitude": 0.9,
                              "wavelength": 24, "phase": 0},
                  "duration": {"to_horizon": true}}},
    {"name": "crowd", "count": 40,
     "workloads": [[{"frequency": 1, "query": {"table": "telemetry",
        "aggregate": true,
        "predicates": [{"column": "device", "selectivity": 2e-7}]}}]],
     "executions": {"uniform": [50, 150]},
     "interval": {"kind": "sampled",
                  "arrival": {"process": "flash", "peak_slot": 10,
                              "width": 1, "multiplier": 30},
                  "duration": {"uniform": [2, 5]}}}
  ],
  "departures": [{"period": 2, "slot": 12, "fraction": 0.5,
                  "class": "steady"}]
})";

Result<TraceConfig> ParseMixed() { return ParseTraceConfig(kMixedConfig); }

// -- Determinism ------------------------------------------------------------

TEST(StrategyTraceTest, SameConfigProducesByteIdenticalTraces) {
  auto config = ParseMixed();
  ASSERT_TRUE(config.ok()) << config.status().ToString();
  auto first = GenerateTrace(*config);
  auto second = GenerateTrace(*config);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(ToJson(*first).Dump(), ToJson(*second).Dump());

  // A round-tripped document (parse -> serialize -> parse) draws the same
  // trace: the canonical form carries everything the generator reads.
  auto reparsed = ParseTraceConfig(ToJson(*config).Dump());
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  auto third = GenerateTrace(*reparsed);
  ASSERT_TRUE(third.ok());
  EXPECT_EQ(ToJson(*first).Dump(), ToJson(*third).Dump());
}

TEST(StrategyTraceTest, ConfigDocumentRoundTripsCanonically) {
  auto config = ParseMixed();
  ASSERT_TRUE(config.ok());
  const std::string canonical = ToJson(*config).Dump();
  auto reparsed = ParseTraceConfig(canonical);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  EXPECT_EQ(ToJson(*reparsed).Dump(), canonical);
}

TEST(StrategyTraceTest, DifferentSeedsDrawDifferentPopulations) {
  auto config = ParseMixed();
  ASSERT_TRUE(config.ok());
  auto base = GenerateTrace(*config);
  config->seed = 100;
  auto other = GenerateTrace(*config);
  ASSERT_TRUE(base.ok());
  ASSERT_TRUE(other.ok());
  EXPECT_NE(ToJson(*base).Dump(), ToJson(*other).Dump());
}

TEST(StrategyTraceTest, PeriodsDrawFromIndependentStreams) {
  // Shrinking the horizon from 3 periods to 2 must not perturb the
  // surviving periods' draws: each period forks its own stream.
  auto config = ParseMixed();
  ASSERT_TRUE(config.ok());
  auto three = GenerateTrace(*config);
  config->periods = 2;
  auto two = GenerateTrace(*config);
  ASSERT_TRUE(three.ok());
  ASSERT_TRUE(two.ok());
  ASSERT_EQ(two->periods.size(), 2u);
  for (size_t p = 0; p < 2; ++p) {
    EXPECT_EQ(ToJson(*two).Find("periods")->AsArray()[p].Dump(),
              ToJson(*three).Find("periods")->AsArray()[p].Dump());
  }
}

// -- Shape ------------------------------------------------------------------

TEST(StrategyTraceTest, FlashCrowdSpikesAroundThePeakSlot) {
  auto config = ParseMixed();
  ASSERT_TRUE(config.ok());
  auto trace = GenerateTrace(*config);
  ASSERT_TRUE(trace.ok());
  const TracePeriod& period = trace->periods.front();
  const std::vector<int> histogram = ArrivalHistogram(period, 24);

  // Count only the crowd class (the steady class arrives diurnally).
  std::vector<int> crowd(24, 0);
  for (const TraceTenant& tenant : period.tenants) {
    if (tenant.class_index == 1) {
      crowd[static_cast<size_t>(tenant.tenant.start - 1)]++;
    }
  }
  int spike = 0, off = 0;
  for (int s = 1; s <= 24; ++s) {
    (s >= 9 && s <= 11 ? spike : off) += crowd[static_cast<size_t>(s - 1)];
  }
  // 3 spike slots at weight 30 vs 21 slots at weight 1: the spike holds
  // ~81% of the mass in expectation. Half is a generous deterministic bar.
  EXPECT_GT(spike, 20) << "spike " << spike << " of 40";
  EXPECT_GT(spike, off);
  // The full histogram covers every tenant exactly once.
  int total = 0;
  for (int count : histogram) total += count;
  EXPECT_EQ(total, static_cast<int>(period.tenants.size()));
}

TEST(StrategyTraceTest, DiurnalArrivalsFollowTheCycle) {
  auto config = ParseMixed();
  ASSERT_TRUE(config.ok());
  auto trace = GenerateTrace(*config);
  ASSERT_TRUE(trace.ok());
  // Weight 1 + 0.9*sin(2*pi*(s-1)/24): the first half-cycle (slots 1..12)
  // is the crest, the second half the trough. Aggregate over all periods
  // for statistical weight (180 steady draws).
  int crest = 0, trough = 0;
  for (const TracePeriod& period : trace->periods) {
    for (const TraceTenant& tenant : period.tenants) {
      if (tenant.class_index != 0) continue;
      (tenant.tenant.start <= 12 ? crest : trough)++;
    }
  }
  EXPECT_GT(crest, trough * 2) << crest << " vs " << trough;
}

TEST(StrategyTraceTest, ParetoIntensitiesAreHeavyTailed) {
  auto config = ParseMixed();
  ASSERT_TRUE(config.ok());
  auto trace = GenerateTrace(*config);
  ASSERT_TRUE(trace.ok());
  // The mixed period's tail is dominated by the Pareto class; a bounded
  // distribution (uniform [50, 150]) alone cannot exceed max/median 3.
  EXPECT_GT(TailRatio(trace->periods.front()), 10.0);

  // Control: an all-uniform population stays near 1.
  auto bounded = ParseMixed();
  ASSERT_TRUE(bounded.ok());
  bounded->classes[0].executions.kind = ExecutionsSpec::Kind::kUniform;
  bounded->classes[0].executions.lo = 50.0;
  bounded->classes[0].executions.hi = 150.0;
  auto control = GenerateTrace(*bounded);
  ASSERT_TRUE(control.ok());
  EXPECT_LT(TailRatio(control->periods.front()), 3.5);

  // The cap clamps the tail.
  auto capped = ParseMixed();
  ASSERT_TRUE(capped.ok());
  capped->classes[0].executions.cap = 120.0;
  auto clamped = GenerateTrace(*capped);
  ASSERT_TRUE(clamped.ok());
  for (const TraceTenant& tenant : clamped->periods.front().tenants) {
    if (tenant.class_index == 0) {
      EXPECT_LE(tenant.tenant.executions_per_slot, 120.0);
    }
  }
}

TEST(StrategyTraceTest, MassDeparturesAreCorrelatedAndSorted) {
  auto config = ParseMixed();
  ASSERT_TRUE(config.ok());
  auto trace = GenerateTrace(*config);
  ASSERT_TRUE(trace.ok());
  // The exodus fires in period 2 only, at slot 12, on the steady class.
  EXPECT_TRUE(trace->periods[0].departures.empty());
  EXPECT_TRUE(trace->periods[2].departures.empty());
  const TracePeriod& hit = trace->periods[1];
  ASSERT_FALSE(hit.departures.empty());

  int steady_present = 0;
  for (const TraceTenant& tenant : hit.tenants) {
    if (tenant.class_index == 0 && tenant.tenant.start <= 12 &&
        tenant.tenant.end > 12) {
      ++steady_present;
    }
  }
  // Half of the then-present steady tenants leave, rounded to nearest.
  EXPECT_EQ(static_cast<int>(hit.departures.size()),
            static_cast<int>(steady_present * 0.5 + 0.5));
  for (size_t d = 0; d < hit.departures.size(); ++d) {
    const TraceDeparture& departure = hit.departures[d];
    EXPECT_EQ(departure.slot, 12);
    const TraceTenant& victim =
        hit.tenants[static_cast<size_t>(departure.tenant_index)];
    EXPECT_EQ(victim.class_index, 0);       // Only the named class.
    EXPECT_LE(victim.tenant.start, 12);     // Present when it fired.
    EXPECT_GT(victim.tenant.end, 12);
    if (d > 0) {  // Sorted by (slot, tenant_index).
      EXPECT_LT(hit.departures[d - 1].tenant_index, departure.tenant_index);
    }
  }
}

// -- Strict parsing ---------------------------------------------------------

struct BadDocCase {
  const char* label;
  const char* mutation;  ///< JSON document (whole).
  const char* want;      ///< Substring of the error message.
};

class StrategyTraceBadDocTest : public ::testing::TestWithParam<BadDocCase> {};

TEST_P(StrategyTraceBadDocTest, RejectedWithTypedError) {
  const BadDocCase& bad = GetParam();
  auto config = ParseTraceConfig(bad.mutation);
  ASSERT_FALSE(config.ok()) << bad.label;
  EXPECT_EQ(config.status().code(), StatusCode::kInvalidArgument)
      << bad.label << ": " << config.status().ToString();
  EXPECT_NE(config.status().ToString().find(bad.want), std::string::npos)
      << bad.label << ": " << config.status().ToString();
}

constexpr char kMinimalClasses[] =
    R"("classes": [{"name": "c", "count": 1,
        "workloads": [[{"frequency": 1, "query": {"table": "t",
          "aggregate": true,
          "predicates": [{"column": "a", "selectivity": 0.1}]}}]],
        "executions": {"fixed": 10},
        "interval": {"kind": "full"}}])";

INSTANTIATE_TEST_SUITE_P(
    MalformedDocuments, StrategyTraceBadDocTest,
    ::testing::Values(
        BadDocCase{"not an object", R"(["not", "an", "object"])", "trace"},
        BadDocCase{"unknown top-level field",
                   R"({"catalog": {"scenario": "telemetry"}, "bogus": 1})",
                   "unknown field \"bogus\""},
        BadDocCase{"missing catalog", R"({"periods": 2})", "catalog"},
        BadDocCase{"both catalog sources",
                   R"({"classes": [],
                       "catalog": {"scenario": "telemetry",
                       "tables": [{"name": "t", "row_count": 10,
                                   "columns": [{"name": "a",
                                     "type": "int64",
                                     "distinct_values": 10}]}]}})",
                   "catalog"},
        BadDocCase{"zero periods",
                   R"({"periods": 0, "classes": [],
                       "catalog": {"scenario": "telemetry"}})",
                   "periods"},
        BadDocCase{"mechanism wrong type",
                   R"({"mechanism": 7,
                       "catalog": {"scenario": "telemetry"}})",
                   "mechanism"},
        BadDocCase{"maintenance out of range",
                   R"({"maintenance_fraction": 1.5, "classes": [],
                       "catalog": {"scenario": "telemetry"}})",
                   "maintenance_fraction"},
        BadDocCase{"unknown arrival process",
                   R"({"catalog": {"scenario": "telemetry"},
                       "classes": [{"name": "c", "count": 1,
                        "workloads": [[{"frequency": 1, "query":
                          {"table": "t", "aggregate": true, "predicates":
                           [{"column": "a", "selectivity": 0.1}]}}]],
                        "executions": {"fixed": 1},
                        "interval": {"kind": "sampled",
                          "arrival": {"process": "lunar"},
                          "duration": {"to_horizon": true}}}]})",
                   "arrival"},
        BadDocCase{"two executions kinds",
                   R"({"catalog": {"scenario": "telemetry"},
                       "classes": [{"name": "c", "count": 1,
                        "workloads": [[{"frequency": 1, "query":
                          {"table": "t", "aggregate": true, "predicates":
                           [{"column": "a", "selectivity": 0.1}]}}]],
                        "executions": {"fixed": 1, "uniform": [1, 2]},
                        "interval": {"kind": "full"}}]})",
                   "executions"},
        BadDocCase{"duration empty object",
                   R"({"catalog": {"scenario": "telemetry"},
                       "classes": [{"name": "c", "count": 1,
                        "workloads": [[{"frequency": 1, "query":
                          {"table": "t", "aggregate": true, "predicates":
                           [{"column": "a", "selectivity": 0.1}]}}]],
                        "executions": {"fixed": 1},
                        "interval": {"kind": "sampled",
                          "arrival": {"process": "uniform"},
                          "duration": {}}}]})",
                   "duration"},
        BadDocCase{"departure fraction out of range",
                   R"({"catalog": {"scenario": "telemetry"}, "classes": [],
                       "departures": [{"period": 1, "slot": 1,
                                       "fraction": 2.0}]})",
                   "fraction"},
        BadDocCase{"departure names unknown class",
                   R"({"catalog": {"scenario": "telemetry"}, "classes": [],
                       "departures": [{"period": 1, "slot": 1,
                                       "fraction": 0.5,
                                       "class": "ghosts"}]})",
                   "ghosts"}));

TEST(StrategyTraceTest, DuplicateClassNamesRejected) {
  std::string doc = std::string(R"({"catalog": {"scenario": "telemetry"},)") +
                    kMinimalClasses + "}";
  // Make it two classes of the same name.
  auto parsed = ParseTraceConfig(doc);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  parsed->classes.push_back(parsed->classes.front());
  EXPECT_EQ(parsed->Validate().code(), StatusCode::kInvalidArgument);
}

// Trace configs and open_period catalogs share simdb's table codec: the
// same malformed column is rejected with the same text by both.
TEST(StrategyTraceTest, MalformedTableAnswersTheWireErrorText) {
  const std::string table =
      R"({"name": "t", "row_count": 10, "columns": [{"name": "a",
          "type": "int128", "distinct_values": 10}]})";
  Result<TraceConfig> config = ParseTraceConfig(
      R"({"catalog": {"tables": [)" + table + R"(]}, "classes": []})");
  ASSERT_FALSE(config.ok());
  EXPECT_EQ(config.status().ToString(),
            "InvalidArgument: column: unknown type \"int128\" "
            "(int64, double, string)");

  service::MarketplaceServer server;
  Result<JsonValue> answer = JsonValue::Parse(server.HandleLine(
      R"({"v":1,"op":"open_period","tenancy":"acme","catalog":{"tables":[)" +
      table + "]}}"));
  ASSERT_TRUE(answer.ok());
  Result<service::protocol::Response> response =
      service::protocol::ResponseFromJson(*answer);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->status.ToString(), config.status().ToString());
}

TEST(StrategyTraceTest, UnknownScenarioCatalogFailsOnBuild) {
  TraceCatalog catalog;
  catalog.scenario = "galaxies";
  auto built = BuildTraceCatalog(catalog);
  EXPECT_FALSE(built.ok());
  EXPECT_EQ(built.status().code(), StatusCode::kNotFound);
}

// -- Preset regression ------------------------------------------------------
//
// simdb/scenarios.cc historically hard-coded these populations in C++;
// they are now expanded from PresetConfigDocument through GenerateTrace.
// These literals pin the historical formulas bit for bit.

TEST(StrategyTraceTest, TelemetryPresetPinnedToHistoricalDraws) {
  auto scenario = simdb::TelemetryScenario(6, 12);
  ASSERT_TRUE(scenario.ok());
  ASSERT_EQ(scenario->tenants.size(), 6u);
  const double cycle[] = {2500.0, 150.0, 150.0};
  for (size_t i = 0; i < 6; ++i) {
    const simdb::SimUser& tenant = scenario->tenants[i];
    EXPECT_EQ(tenant.start, 1);
    EXPECT_EQ(tenant.end, 12);
    EXPECT_EQ(tenant.executions_per_slot, cycle[i % 3]) << i;
    ASSERT_EQ(tenant.workload.entries.size(), 1u);
    EXPECT_EQ(tenant.workload.entries[0].query.table, "telemetry");
    ASSERT_EQ(tenant.workload.entries[0].query.predicates.size(), 1u);
    EXPECT_EQ(tenant.workload.entries[0].query.predicates[0].column,
              "device");
    EXPECT_EQ(tenant.workload.entries[0].query.predicates[0].selectivity,
              2e-7);
  }
}

TEST(StrategyTraceTest, ClickstreamPresetPinnedToHistoricalDraws) {
  auto scenario = simdb::ClickstreamScenario(8, 12);
  ASSERT_TRUE(scenario.ok());
  ASSERT_EQ(scenario->tenants.size(), 8u);
  const double cycle[] = {200.0, 400.0, 600.0, 800.0};
  for (size_t i = 0; i < 8; ++i) {
    const simdb::SimUser& tenant = scenario->tenants[i];
    // Staggered: start = 1 + (i % (slots/2)), end = min(start + slots/2, z).
    const TimeSlot start = 1 + static_cast<TimeSlot>(i % 6);
    EXPECT_EQ(tenant.start, start) << i;
    EXPECT_EQ(tenant.end, std::min<TimeSlot>(start + 6, 12)) << i;
    EXPECT_EQ(tenant.executions_per_slot, cycle[i % 4]) << i;
    EXPECT_EQ(tenant.workload.entries[0].query.table, "events");
  }
}

TEST(StrategyTraceTest, RetailPresetPinnedToHistoricalDraws) {
  auto scenario = simdb::RetailScenario(5, 12);
  ASSERT_TRUE(scenario.ok());
  ASSERT_EQ(scenario->tenants.size(), 5u);
  const double cycle[] = {50.0, 100.0, 150.0};
  for (size_t i = 0; i < 5; ++i) {
    const simdb::SimUser& tenant = scenario->tenants[i];
    EXPECT_EQ(tenant.start, 1);
    EXPECT_EQ(tenant.end, 12);
    EXPECT_EQ(tenant.executions_per_slot, cycle[i % 3]) << i;
    // Workload templates alternate region rollups and sku drill-downs.
    const std::string column =
        tenant.workload.entries[0].query.predicates[0].column;
    EXPECT_EQ(column, i % 2 == 0 ? "region" : "sku") << i;
  }
}

TEST(StrategyTraceTest, PresetDocumentsMatchScenarioEntryPoints) {
  // The C++ entry points are thin adapters over the documents: expanding
  // the document by hand reproduces their tenants exactly.
  for (const char* name : {"clickstream", "retail", "telemetry"}) {
    auto doc = PresetConfigDocument(name, 6, 12);
    ASSERT_TRUE(doc.ok()) << name;
    auto config = TraceConfigFromJson(*doc);
    ASSERT_TRUE(config.ok()) << name << ": " << config.status().ToString();
    auto trace = GenerateTrace(*config);
    ASSERT_TRUE(trace.ok()) << name;
    ASSERT_EQ(trace->periods.size(), 1u);

    auto scenario = name == std::string("clickstream")
                        ? simdb::ClickstreamScenario(6, 12)
                        : name == std::string("retail")
                              ? simdb::RetailScenario(6, 12)
                              : simdb::TelemetryScenario(6, 12);
    ASSERT_TRUE(scenario.ok()) << name;
    ASSERT_EQ(trace->periods[0].tenants.size(), scenario->tenants.size());
    for (size_t i = 0; i < scenario->tenants.size(); ++i) {
      const simdb::SimUser& expanded = trace->periods[0].tenants[i].tenant;
      const simdb::SimUser& canned = scenario->tenants[i];
      EXPECT_EQ(expanded.start, canned.start) << name << " tenant " << i;
      EXPECT_EQ(expanded.end, canned.end) << name << " tenant " << i;
      EXPECT_EQ(expanded.executions_per_slot, canned.executions_per_slot)
          << name << " tenant " << i;
    }
  }
  EXPECT_FALSE(PresetConfigDocument("galaxies", 6, 12).ok());
  EXPECT_FALSE(PresetConfigDocument("telemetry", 0, 12).ok());
}

// -- Wire soak --------------------------------------------------------------

TEST(StrategyTraceTest, TraceProgramReplaysThroughTheServerDeterministically) {
  auto config = ParseMixed();
  ASSERT_TRUE(config.ok());
  // Small enough to stay fast, big enough to carry structures.
  config->classes[0].count = 10;
  config->classes[1].count = 6;
  auto trace = GenerateTrace(*config);
  ASSERT_TRUE(trace.ok());
  auto lines = TraceRequestLines(*config, *trace, "soak");
  ASSERT_TRUE(lines.ok()) << lines.status().ToString();

  std::vector<std::string> close_lines[2];
  for (int run = 0; run < 2; ++run) {
    service::MarketplaceServer server(service::ServerOptions{2});
    for (const std::string& line : *lines) {
      const std::string response = server.HandleLine(line);
      ASSERT_NE(response.find("\"ok\":true"), std::string::npos)
          << "request " << line << " -> " << response;
      if (line.find("close_period") != std::string::npos) {
        close_lines[run].push_back(response);
      }
    }
  }
  ASSERT_EQ(close_lines[0].size(), 3u);  // One report per period.
  EXPECT_EQ(close_lines[0], close_lines[1]);
}

}  // namespace
}  // namespace optshare::strategy
