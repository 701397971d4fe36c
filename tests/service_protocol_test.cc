// Protocol-layer coverage: JSON round-trips of every request/response
// variant, strict rejection of unknown fields and foreign schema versions,
// and the typed error mapping onto common/Status.
#include "service/protocol.h"

#include <gtest/gtest.h>

namespace optshare::service::protocol {
namespace {

simdb::SimUser SampleTenant() {
  simdb::SimUser tenant;
  tenant.start = 2;
  tenant.end = 9;
  tenant.executions_per_slot = 137.5;
  simdb::Workload::Entry entry;
  entry.frequency = 2.5;
  entry.query.table = "telemetry";
  entry.query.aggregate = true;
  entry.query.predicates = {{"device", 2e-7}, {"metric", 0.015625}};
  tenant.workload.entries.push_back(entry);
  simdb::Workload::Entry scan;
  scan.frequency = 1.0;
  scan.query.table = "telemetry";
  scan.query.aggregate = false;
  tenant.workload.entries.push_back(scan);
  return tenant;
}

Request SampleRequest(RequestOp op) {
  Request request;
  request.op = op;
  request.id = "req-42";
  if (OpTakesTenancy(op)) request.tenancy = "acme";
  switch (op) {
    case RequestOp::kOpenPeriod: {
      CatalogSpec catalog;
      catalog.scenario = "telemetry";
      catalog.scenario_tenants = 5;
      catalog.scenario_slots = 8;
      request.catalog = catalog;
      ServiceConfig config;
      config.slots_per_period = 8;
      config.maintenance_fraction = 0.125;
      config.mechanism = "naive_online";
      config.advisor.min_benefit_ratio = 0.25;
      config.advisor.propose_replicas = true;
      config.advisor.max_proposals = 3;
      config.pricing.instance_per_hour = 0.75;
      config.pricing.storage_per_gb_month = 0.21;
      request.config = config;
      break;
    }
    case RequestOp::kSubmit:
    case RequestOp::kQueryPrice:
      request.tenants = {SampleTenant(), SampleTenant()};
      break;
    case RequestOp::kDepart:
      request.tenant = 3;
      break;
    case RequestOp::kAdvanceSlot:
      request.slots = 4;
      break;
    case RequestOp::kReplAppend:
      request.record =
          R"({"op":"advance_slot","slots":1,"tenancy":"acme","v":1})";
      break;
    case RequestOp::kReplCheckpoint:
      request.snapshot = JsonValue::MakeObject();
      request.snapshot->Set("periods_run", JsonValue::Number(2));
      break;
    case RequestOp::kClusterUpdate:
      request.placement = JsonValue::MakeObject();
      request.placement->Set("version", JsonValue::Number(4));
      break;
    case RequestOp::kExport:
      request.tenancy = "acme";  // The optional filter.
      break;
    case RequestOp::kBatch:
      request.requests = {SampleRequest(RequestOp::kAdvanceSlot),
                          SampleRequest(RequestOp::kQueryPrice)};
      break;
    default:
      break;
  }
  return request;
}

class RequestRoundTripTest : public ::testing::TestWithParam<RequestOp> {};

TEST_P(RequestRoundTripTest, SerializesParsesAndReserializesIdentically) {
  const Request original = SampleRequest(GetParam());
  const JsonValue doc = ToJson(original);
  const std::string wire = doc.Dump();

  Result<Request> parsed = ParseRequestLine(wire);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->op, original.op);
  EXPECT_EQ(parsed->id, original.id);
  EXPECT_EQ(parsed->tenancy, original.tenancy);

  // Bit-identical re-serialization is the round-trip guarantee the
  // differential replay suite rests on.
  EXPECT_EQ(ToJson(*parsed).Dump(), wire);
}

INSTANTIATE_TEST_SUITE_P(AllOps, RequestRoundTripTest,
                         ::testing::ValuesIn(kAllRequestOps));

TEST(RequestParsing, PreservesTheClientVersion) {
  // A v1 document parses to a v1 request and re-serializes as v1 — the
  // round-trip that keeps journal replay and response echoing faithful.
  Request report = SampleRequest(RequestOp::kReport);
  report.version = 1;
  const std::string wire = ToJson(report).Dump();
  EXPECT_NE(wire.find("\"v\":1"), std::string::npos);
  Result<Request> parsed = ParseRequestLine(wire);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->version, 1);
  EXPECT_EQ(ToJson(*parsed).Dump(), wire);
  // Default construction speaks the newest version.
  EXPECT_EQ(SampleRequest(RequestOp::kReport).version, kProtocolVersion);
}

TEST(RequestParsing, DurabilityOpsRequireVersion2) {
  for (RequestOp op : {RequestOp::kSnapshot, RequestOp::kRestore,
                       RequestOp::kShutdown, RequestOp::kServerInfo}) {
    EXPECT_EQ(RequestOpMinVersion(op), 2) << RequestOpName(op);
    JsonValue doc = ToJson(SampleRequest(op));
    doc.Set("v", JsonValue::Number(1.0));
    Result<Request> parsed = RequestFromJson(doc);
    ASSERT_FALSE(parsed.ok()) << RequestOpName(op);
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(parsed.status().message().find("version"), std::string::npos);
  }
  EXPECT_EQ(RequestOpMinVersion(RequestOp::kReport), 1);
}

TEST(RequestParsing, PreservesVariantPayloads) {
  const Request submit = SampleRequest(RequestOp::kSubmit);
  Result<Request> parsed = ParseRequestLine(ToJson(submit).Dump());
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed->tenants.size(), 2u);
  EXPECT_EQ(parsed->tenants[0].start, 2);
  EXPECT_EQ(parsed->tenants[0].end, 9);
  EXPECT_EQ(parsed->tenants[0].executions_per_slot, 137.5);
  ASSERT_EQ(parsed->tenants[0].workload.entries.size(), 2u);
  EXPECT_EQ(parsed->tenants[0].workload.entries[0].query.predicates.size(),
            2u);
  EXPECT_EQ(parsed->tenants[0].workload.entries[0].query.predicates[1]
                .selectivity,
            0.015625);

  const Request open = SampleRequest(RequestOp::kOpenPeriod);
  parsed = ParseRequestLine(ToJson(open).Dump());
  ASSERT_TRUE(parsed.ok());
  ASSERT_TRUE(parsed->catalog.has_value());
  EXPECT_EQ(parsed->catalog->scenario, "telemetry");
  EXPECT_EQ(parsed->catalog->scenario_tenants, 5);
  ASSERT_TRUE(parsed->config.has_value());
  EXPECT_EQ(parsed->config->mechanism, "naive_online");
  EXPECT_EQ(parsed->config->maintenance_fraction, 0.125);
  EXPECT_EQ(parsed->config->advisor.max_proposals, 3);
  EXPECT_TRUE(parsed->config->advisor.propose_replicas);
  EXPECT_EQ(parsed->config->pricing.storage_per_gb_month, 0.21);

  const Request depart = SampleRequest(RequestOp::kDepart);
  parsed = ParseRequestLine(ToJson(depart).Dump());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->tenant, 3);

  const Request advance = SampleRequest(RequestOp::kAdvanceSlot);
  parsed = ParseRequestLine(ToJson(advance).Dump());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->slots, 4);
}

TEST(RequestParsing, RejectsUnknownFields) {
  for (RequestOp op : kAllRequestOps) {
    JsonValue doc = ToJson(SampleRequest(op));
    doc.Set("surprise", JsonValue::Number(1.0));
    Result<Request> parsed = RequestFromJson(doc);
    ASSERT_FALSE(parsed.ok()) << RequestOpName(op);
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(parsed.status().message().find("surprise"), std::string::npos);
  }
  // Nested objects are strict too.
  JsonValue doc = ToJson(SampleRequest(RequestOp::kSubmit));
  doc.AsObject()["tenants"].AsArray()[0].Set("shoe_size",
                                             JsonValue::Number(43.0));
  EXPECT_FALSE(RequestFromJson(doc).ok());
}

TEST(RequestParsing, RejectsBadVersions) {
  // All live versions parse...
  for (double v : {1.0, 2.0, 3.0}) {
    JsonValue doc = ToJson(SampleRequest(RequestOp::kReport));
    doc.Set("v", JsonValue::Number(v));
    EXPECT_TRUE(RequestFromJson(doc).ok()) << v;
  }
  // ... a foreign one does not.
  JsonValue doc = ToJson(SampleRequest(RequestOp::kReport));
  doc.Set("v", JsonValue::Number(4.0));
  Result<Request> parsed = RequestFromJson(doc);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(parsed.status().message().find("version"), std::string::npos);
  // Nor do fractional or missing versions.
  doc.Set("v", JsonValue::Number(1.5));
  EXPECT_FALSE(RequestFromJson(doc).ok());
  JsonValue missing = ToJson(SampleRequest(RequestOp::kReport));
  missing.AsObject().erase("v");
  EXPECT_FALSE(RequestFromJson(missing).ok());
}

TEST(RequestParsing, RejectsMalformedVariants) {
  // Unknown op tag.
  Result<Request> parsed =
      ParseRequestLine("{\"v\":1,\"op\":\"frobnicate\",\"tenancy\":\"a\"}");
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.status().message().find("frobnicate"), std::string::npos);

  // Missing tenancy on a tenancy op.
  EXPECT_FALSE(ParseRequestLine("{\"v\":1,\"op\":\"report\"}").ok());
  // Empty tenancy.
  EXPECT_FALSE(
      ParseRequestLine("{\"v\":1,\"op\":\"report\",\"tenancy\":\"\"}").ok());
  // Non-integer tenant id.
  EXPECT_FALSE(ParseRequestLine(
                   "{\"v\":1,\"op\":\"depart\",\"tenancy\":\"a\","
                   "\"tenant\":1.5}")
                   .ok());
  // Non-positive advance count.
  EXPECT_FALSE(ParseRequestLine(
                   "{\"v\":1,\"op\":\"advance_slot\",\"tenancy\":\"a\","
                   "\"slots\":0}")
                   .ok());
  // Catalog spec with both scenario and tables.
  EXPECT_FALSE(ParseRequestLine(
                   "{\"v\":1,\"op\":\"open_period\",\"tenancy\":\"a\","
                   "\"catalog\":{\"scenario\":\"retail\",\"tables\":[]}}")
                   .ok());
  // Catalog spec with neither.
  EXPECT_FALSE(ParseRequestLine(
                   "{\"v\":1,\"op\":\"open_period\",\"tenancy\":\"a\","
                   "\"catalog\":{}}")
                   .ok());
  // Not JSON at all.
  EXPECT_FALSE(ParseRequestLine("open please").ok());
}

TEST(CatalogSpecSerialization, InlineTablesRoundTrip) {
  CatalogSpec spec;
  simdb::TableDef table;
  table.name = "events";
  table.row_count = 123456789;
  table.columns = {{"id", simdb::ColumnType::kInt64, 1000000},
                   {"score", simdb::ColumnType::kDouble, 500},
                   {"kind", simdb::ColumnType::kString, 12}};
  spec.tables.push_back(table);

  Result<CatalogSpec> parsed = CatalogSpecFromJson(ToJson(spec));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->tables.size(), 1u);
  EXPECT_EQ(parsed->tables[0].name, "events");
  EXPECT_EQ(parsed->tables[0].row_count, 123456789u);
  ASSERT_EQ(parsed->tables[0].columns.size(), 3u);
  EXPECT_EQ(parsed->tables[0].columns[1].type, simdb::ColumnType::kDouble);
  EXPECT_EQ(parsed->tables[0].columns[2].name, "kind");
  EXPECT_EQ(parsed->tables[0].columns[0].distinct_values, 1000000u);
  EXPECT_EQ(ToJson(*parsed).Dump(), ToJson(spec).Dump());

  // Unknown column types are rejected.
  JsonValue doc = ToJson(spec);
  doc.AsObject()["tables"].AsArray()[0].AsObject()["columns"].AsArray()[0]
      .Set("type", JsonValue::Str("uuid"));
  EXPECT_FALSE(CatalogSpecFromJson(doc).ok());
}

TEST(PeriodReportSerialization, RoundTripsBitIdentically) {
  PeriodReport report;
  report.period = 7;
  StructureOutcome outcome;
  outcome.name = "index(telemetry.device)";
  outcome.cost = 18.743664600219237;  // An actual full-precision cost.
  outcome.active = true;
  outcome.carried_over = true;
  outcome.num_candidates = 5;
  outcome.num_subscribers = 3;
  report.structures.push_back(outcome);
  report.ledger.total_cost = 18.803236892653082;
  report.ledger.user_value = {1786.6647069465894, 0.0, 1286.3985890015442};
  report.ledger.user_payment = {9.401618446326541, 0.0, 9.401618446326541};

  Result<PeriodReport> parsed = PeriodReportFromJson(ToJson(report));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->period, 7);
  ASSERT_EQ(parsed->structures.size(), 1u);
  EXPECT_EQ(parsed->structures[0].cost, outcome.cost);
  EXPECT_EQ(parsed->ledger.user_value, report.ledger.user_value);
  EXPECT_EQ(parsed->ledger.user_payment, report.ledger.user_payment);
  EXPECT_EQ(ToJson(*parsed).Dump(), ToJson(report).Dump());
}

TEST(ResponseSerialization, OkResponsesRoundTrip) {
  JsonValue payload = JsonValue::MakeObject();
  payload.Set("tenant_ids", JsonValue::MakeArray());
  payload.AsObject()["tenant_ids"].Append(JsonValue::Number(0));
  Response response = OkResponse("req-1", std::move(payload));

  Result<Response> parsed = ResponseFromJson(ToJson(response));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_TRUE(parsed->ok());
  EXPECT_EQ(parsed->id, "req-1");
  EXPECT_EQ(ToJson(*parsed).Dump(), ToJson(response).Dump());
}

TEST(ResponseSerialization, PreservesTheEchoedVersion) {
  Response response = OkResponse("req-1", JsonValue::MakeObject());
  response.version = 1;
  const std::string wire = ToJson(response).Dump();
  EXPECT_NE(wire.find("\"v\":1"), std::string::npos);
  Result<Response> parsed = ResponseFromJson(*JsonValue::Parse(wire));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->version, 1);
  EXPECT_EQ(ToJson(*parsed).Dump(), wire);
}

TEST(RequestParsing, OversizedLinesAreResourceExhausted) {
  std::string line = ToJson(SampleRequest(RequestOp::kSubmit)).Dump();
  Request request;
  std::optional<Response> rejected =
      AdmitRequestLine(line, LineCaps{64, 64}, &request);
  ASSERT_TRUE(rejected.has_value());
  EXPECT_EQ(rejected->status.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(rejected->version, kMinProtocolVersion);
  // A larger batch cap admits only batch frames past the plain cap.
  EXPECT_TRUE(AdmitRequestLine(line, LineCaps{64, 1 << 20}, &request)
                  .has_value());
  // 0 disables the cap; a generous cap passes.
  EXPECT_FALSE(AdmitRequestLine(line, LineCaps{0, 0}, &request).has_value());
  EXPECT_FALSE(AdmitRequestLine(line, LineCaps{line.size(), 0}, &request)
                   .has_value());
  EXPECT_EQ(request.op, RequestOp::kSubmit);
}

TEST(ResponseSerialization, ErrorCodesMapOntoStatus) {
  // Every non-OK status code survives the wire with its message.
  for (StatusCode code :
       {StatusCode::kInvalidArgument, StatusCode::kNotFound,
        StatusCode::kOutOfRange, StatusCode::kFailedPrecondition,
        StatusCode::kAlreadyExists, StatusCode::kResourceExhausted,
        StatusCode::kInternal}) {
    const Response response =
        ErrorResponse("req-9", MakeStatus(code, "details here"));
    Result<Response> parsed = ResponseFromJson(ToJson(response));
    ASSERT_TRUE(parsed.ok()) << StatusCodeName(code);
    EXPECT_FALSE(parsed->ok());
    EXPECT_EQ(parsed->status.code(), code);
    EXPECT_EQ(parsed->status.message(), "details here");
    EXPECT_EQ(parsed->id, "req-9");
    EXPECT_EQ(ToJson(*parsed).Dump(), ToJson(response).Dump());
  }
}

TEST(ResponseSerialization, RejectsInconsistentDocuments) {
  // ok:true with an error block.
  EXPECT_FALSE(ResponseFromJson(
                   *JsonValue::Parse("{\"v\":1,\"ok\":true,\"result\":{},"
                                     "\"error\":{\"code\":\"Internal\","
                                     "\"message\":\"\"}}"))
                   .ok());
  // ok:false with a result block.
  EXPECT_FALSE(ResponseFromJson(
                   *JsonValue::Parse("{\"v\":1,\"ok\":false,\"result\":{},"
                                     "\"error\":{\"code\":\"Internal\","
                                     "\"message\":\"\"}}"))
                   .ok());
  // Unknown error code.
  EXPECT_FALSE(ResponseFromJson(
                   *JsonValue::Parse("{\"v\":1,\"ok\":false,\"error\":"
                                     "{\"code\":\"Gremlins\","
                                     "\"message\":\"\"}}"))
                   .ok());
  // "OK" as an error code is inconsistent.
  EXPECT_FALSE(ResponseFromJson(
                   *JsonValue::Parse("{\"v\":1,\"ok\":false,\"error\":"
                                     "{\"code\":\"OK\",\"message\":\"\"}}"))
                   .ok());
  // Version checks apply to responses too.
  EXPECT_FALSE(ResponseFromJson(
                   *JsonValue::Parse("{\"v\":4,\"ok\":true,\"result\":{}}"))
                   .ok());
}

TEST(StatusCodeMapping, NamesRoundTrip) {
  for (StatusCode code :
       {StatusCode::kOk, StatusCode::kInvalidArgument, StatusCode::kNotFound,
        StatusCode::kOutOfRange, StatusCode::kFailedPrecondition,
        StatusCode::kAlreadyExists, StatusCode::kResourceExhausted,
        StatusCode::kInternal}) {
    std::optional<StatusCode> back = StatusCodeFromName(StatusCodeName(code));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, code);
  }
  EXPECT_FALSE(StatusCodeFromName("NotACode").has_value());
}

}  // namespace
}  // namespace optshare::service::protocol
