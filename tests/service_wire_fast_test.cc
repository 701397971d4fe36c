// Pins the allocation-free serving hot path (service/fast_wire.h +
// protocol::AppendResponseLine) against the tree parser/serializer it
// shadows:
//
//   1. Differential parity — every corpus line through ParseRequestLineTree
//      and the combined ParseRequestLine yields the same accept/reject
//      decision, the identical Request (compared as canonical JSON), and
//      the identical error Status. The corpus covers every op, both
//      protocol versions, permuted field orders, whitespace, escapes,
//      duplicates, unknown fields, bad versions, and type confusion.
//   2. Fast-accept soundness — whenever TryFastParseRequestLine accepts,
//      the tree parser accepts with a bit-identical Request; and the fast
//      path demonstrably engages on the canonical serving lines (no silent
//      always-fallback).
//   3. AppendResponseLine emits exactly ToJson(response).Dump()'s bytes,
//      appending after any existing prefix.
//   4. Zero heap allocations per request, steady-state, for parse +
//      response serialization of the fixed-size ops — counted by the
//      operator-new hook (common/alloc_count.h), not eyeballed.
#include "common/alloc_count.h"  // Must be first: defines operator new.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "service/fast_wire.h"
#include "service/protocol.h"

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

/// Canonical serialized lines for every op and version that speaks it.
std::vector<std::string> CanonicalLines() {
  std::vector<std::string> lines;
  for (const RequestOp op : kAllRequestOps) {
    for (int version = RequestOpMinVersion(op); version <= kProtocolVersion;
         ++version) {
      for (const bool with_id : {false, true}) {
        Request request;
        request.op = op;
        request.version = version;
        if (with_id) request.id = "req-42";
        if (OpTakesTenancy(op)) request.tenancy = "acme";
        switch (op) {
          case RequestOp::kOpenPeriod: {
            CatalogSpec catalog;
            catalog.scenario = "telemetry";
            request.catalog = catalog;
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
          case RequestOp::kBatch: {
            Request advance;
            advance.op = RequestOp::kAdvanceSlot;
            advance.version = 1;
            advance.tenancy = "acme";
            advance.slots = 2;
            Request report;
            report.op = RequestOp::kReport;
            report.tenancy = "acme";
            request.requests = {advance, report};
            break;
          }
          default:
            break;
        }
        lines.push_back(ToJson(request).Dump());
      }
    }
  }
  // Historical reads: v2 report with an explicit period.
  for (const bool with_id : {false, true}) {
    Request request;
    request.op = RequestOp::kReport;
    request.version = 2;
    request.tenancy = "acme";
    request.period = 2;
    if (with_id) request.id = "req-42";
    lines.push_back(ToJson(request).Dump());
  }
  return lines;
}

/// The adversarial corpus: hand-written lines that probe every divergence
/// the fast scanner could introduce.
std::vector<std::string> AdversarialLines() {
  return {
      // Field-order permutations and whitespace.
      R"({"op":"report","tenancy":"acme","v":1})",
      R"({"tenancy":"acme","v":2,"op":"snapshot","id":"x"})",
      "{ \"v\" : 1 , \"op\" : \"report\" , \"tenancy\" : \"acme\" }",
      "\t{\"v\":1,\"op\":\"list_mechanisms\"}\r\n",
      R"(  {"v":1,"op":"advance_slot","tenancy":"a","slots":1}  )",
      // Escapes in keys and values.
      R"({"v":1,"op":"report","tenancy":"ac\nme"})",
      R"({"\u006fp":"report","v":1,"tenancy":"acme"})",
      R"({"v":1,"op":"re\u0070ort","tenancy":"acme"})",
      R"({"v":1,"op":"report","tenancy":"ac\u006de"})",
      R"({"v":1,"op":"report","tenancy":"\u00e9\u20ac"})",
      R"({"v":1,"op":"report","tenancy":"tab\tquote\"slash\\"})",
      R"({"v":1,"op":"report","tenancy":"€é"})",
      R"({"v":1,"op":"report","tenancy":"bad\qescape"})",
      R"({"v":1,"op":"report","tenancy":"short\u00"})",
      // Duplicate keys (tree: last wins; fast must fall back, not reject).
      R"({"v":1,"v":2,"op":"server_info"})",
      R"({"v":1,"op":"report","op":"close_period","tenancy":"acme"})",
      R"({"v":1,"op":"report","tenancy":"a","tenancy":"b"})",
      R"({"v":1,"op":"advance_slot","tenancy":"a","slots":2,"slots":3})",
      // Unknown fields / wrong-op fields.
      R"({"v":1,"op":"list_mechanisms","bogus":true})",
      R"({"v":1,"op":"report","tenancy":"acme","slots":2})",
      R"({"v":1,"op":"submit","tenancy":"acme","tenant":1,"tenants":[]})",
      R"({"v":1,"op":"list_mechanisms","tenancy":"acme"})",
      R"({"v":1,"op":"report"})",
      R"({"v":1,"op":"report","tenancy":""})",
      // Version abuse.
      R"({"op":"report","tenancy":"acme"})",
      R"({"v":0,"op":"report","tenancy":"acme"})",
      R"({"v":3,"op":"report","tenancy":"acme"})",
      R"({"v":1.5,"op":"report","tenancy":"acme"})",
      R"({"v":"1","op":"report","tenancy":"acme"})",
      R"({"v":2.0,"op":"snapshot","tenancy":"acme"})",
      R"({"v":1e0,"op":"report","tenancy":"acme"})",
      R"({"v":1,"op":"snapshot","tenancy":"acme"})",
      R"({"v":-1,"op":"report","tenancy":"acme"})",
      // Type confusion.
      R"({"v":1,"op":42,"tenancy":"acme"})",
      R"({"v":1,"op":"depart","tenancy":"a","tenant":"3"})",
      R"({"v":1,"op":"depart","tenancy":"a","tenant":3.5})",
      R"({"v":1,"op":"depart","tenancy":"a","tenant":3000000000})",
      R"({"v":1,"op":"depart","tenancy":"a","tenant":-2})",
      R"({"v":1,"op":"advance_slot","tenancy":"a","slots":0})",
      R"({"v":1,"op":"advance_slot","tenancy":"a","slots":-3})",
      R"({"v":1,"op":"advance_slot","tenancy":"a","slots":2.5})",
      R"({"v":1,"op":"advance_slot","tenancy":"a","slots":true})",
      R"({"v":1,"op":"submit","tenancy":"a","tenants":{}})",
      R"({"v":1,"op":"submit","tenancy":"a","tenants":[1]})",
      R"({"v":1,"op":"submit","tenancy":"a","tenants":[]})",
      // Submit payload strictness.
      R"({"v":1,"op":"submit","tenancy":"a","tenants":[{"start":1,"end":2,)"
      R"("executions_per_slot":3,"workload":[]}]})",
      R"({"v":1,"op":"submit","tenancy":"a","tenants":[{"start":1,"end":2,)"
      R"("workload":[]}]})",
      R"({"v":1,"op":"submit","tenancy":"a","tenants":[{"start":1,"end":2,)"
      R"("executions_per_slot":3,"workload":[],"extra":0}]})",
      R"({"v":1,"op":"submit","tenancy":"a","tenants":[{"start":1.5,"end":2,)"
      R"("executions_per_slot":3,"workload":[]}]})",
      R"({"v":1,"op":"submit","tenancy":"a","tenants":[{"start":1,"end":2,)"
      R"("executions_per_slot":3,"workload":[{"frequency":1}]}]})",
      R"({"v":1,"op":"submit","tenancy":"a","tenants":[{"start":1,"end":2,)"
      R"("executions_per_slot":3,"workload":[{"frequency":1,"query":)"
      R"({"table":"t","aggregate":true,"predicates":[]}}]}]})",
      R"({"v":1,"op":"submit","tenancy":"a","tenants":[{"start":1,"end":2,)"
      R"("executions_per_slot":3,"workload":[{"frequency":1,"query":)"
      R"({"table":"t","aggregate":"yes","predicates":[]}}]}]})",
      R"({"v":1,"op":"submit","tenancy":"a","tenants":[{"start":1,"end":2,)"
      R"("executions_per_slot":3,"workload":[{"frequency":1,"query":)"
      R"({"table":"t","aggregate":false,"predicates":[{"column":"c",)"
      R"("selectivity":0.5}]}}]}]})",
      R"({"v":1,"op":"submit","tenancy":"a","tenants":[{"start":1,"end":2,)"
      R"("executions_per_slot":3,"workload":[{"frequency":1,"query":)"
      R"({"table":"t","aggregate":false,"predicates":[{"column":"c"}]}}]}]})",
      // Historical-report period field: bounds, types, wrong ops.
      R"({"v":2,"op":"report","tenancy":"acme","period":0})",
      R"({"v":2,"op":"report","tenancy":"acme","period":-1})",
      R"({"v":2,"op":"report","tenancy":"acme","period":2.5})",
      R"({"v":2,"op":"report","tenancy":"acme","period":"2"})",
      R"({"v":2,"op":"report","tenancy":"acme","period":true})",
      R"({"v":2,"op":"report","tenancy":"acme","period":3000000000})",
      R"({"v":1,"op":"report","tenancy":"acme","period":2})",
      R"({"v":2,"op":"report","tenancy":"acme","period":1,"period":2})",
      R"({"v":1,"op":"advance_slot","tenancy":"a","slots":1,"period":2})",
      R"({"v":1,"op":"close_period","tenancy":"a","period":1})",
      R"({"v":2,"op":"report","period":1})",
      // query_price: version gate, payload strictness, wrong-op fields.
      R"({"v":2,"op":"query_price","tenancy":"a"})",
      R"({"v":2,"op":"query_price","tenancy":"a","tenants":[]})",
      R"({"v":2,"op":"query_price","tenancy":"a","tenants":{}})",
      R"({"v":1,"op":"query_price","tenancy":"a","tenants":[{"start":1,)"
      R"("end":2,"executions_per_slot":3,"workload":[]}]})",
      R"({"v":2,"op":"query_price","tenancy":"a","slots":1,"tenants":)"
      R"([{"start":1,"end":2,"executions_per_slot":3,"workload":[]}]})",
      R"({"v":2,"op":"query_price","tenancy":"a","tenant":1})",
      R"({"v":2,"op":"query_price","tenancy":"a","period":1,"tenants":)"
      R"([{"start":1,"end":2,"executions_per_slot":3,"workload":[]}]})",
      R"({"op":"query_price","tenancy":"a","v":2,"tenants":[{"start":1,)"
      R"("end":2,"executions_per_slot":3,"workload":[]}]})",
      // Malformed JSON and structural abuse.
      "",
      "   ",
      "{",
      "}",
      "[]",
      "null",
      "true",
      "42",
      R"("report")",
      R"({"v":1,"op":"report","tenancy":"acme"} trailing)",
      R"({"v":1,"op":"report","tenancy":"acme"}{"v":1})",
      R"({"v":1 "op":"report"})",
      R"({"v":1,,"op":"report"})",
      R"({"v":1,"op":"report","tenancy":"acme")",
      R"({"v":1,"op":"report","tenancy":"acme",})",
      R"({"v":01,"op":"report","tenancy":"acme"})",
      R"({"v":+1,"op":"report","tenancy":"acme"})",
      R"({"v":1,"op":"report","tenancy":"acme","slots":1e})",
      R"({"v":1,"op":"report","tenancy":"acme","slots":--1})",
      R"({"v":nan,"op":"report","tenancy":"acme"})",
      // open_period must route through the tree parser.
      R"({"v":1,"op":"open_period","tenancy":"acme"})",
      R"({"v":1,"op":"open_period","tenancy":"acme","catalog":)"
      R"({"scenario":"telemetry","tenants":6,"slots":12}})",
      R"({"v":1,"op":"open_period","tenancy":"acme","config":)"
      R"({"mechanism":"addon"}})",
  };
}

std::vector<std::string> FullCorpus() {
  std::vector<std::string> corpus = CanonicalLines();
  const std::vector<std::string> adversarial = AdversarialLines();
  corpus.insert(corpus.end(), adversarial.begin(), adversarial.end());
  return corpus;
}

void ExpectParity(const std::string& line) {
  SCOPED_TRACE("line: " + line);
  const Result<Request> tree = ParseRequestLineTree(line);
  const Result<Request> combined = ParseRequestLine(line);
  ASSERT_EQ(tree.ok(), combined.ok());
  if (tree.ok()) {
    EXPECT_EQ(ToJson(*tree).Dump(), ToJson(*combined).Dump());
    EXPECT_EQ(tree->version, combined->version);
    EXPECT_EQ(tree->op, combined->op);
  } else {
    EXPECT_EQ(tree.status().ToString(), combined.status().ToString());
  }
}

TEST(FastWireDifferentialTest, CorpusParity) {
  for (const std::string& line : FullCorpus()) ExpectParity(line);
}

TEST(FastWireDifferentialTest, FastAcceptImpliesIdenticalTreeParse) {
  size_t accepted = 0;
  for (const std::string& line : FullCorpus()) {
    SCOPED_TRACE("line: " + line);
    Request fast;
    if (!TryFastParseRequestLine(line, &fast)) continue;
    ++accepted;
    const Result<Request> tree = ParseRequestLineTree(line);
    ASSERT_TRUE(tree.ok()) << "fast accepted what the tree rejects: "
                           << tree.status().ToString();
    EXPECT_EQ(ToJson(*tree).Dump(), ToJson(fast).Dump());
  }
  // The scanner must actually engage — a scanner that always falls back
  // would pass every parity test while optimizing nothing.
  EXPECT_GE(accepted, 20u);
}

TEST(FastWireDifferentialTest, FastPathHandlesCanonicalServingLines) {
  // The high-volume lines the optimization exists for must not fall back.
  const std::vector<std::string> hot = {
      R"({"v":1,"op":"advance_slot","tenancy":"acme","slots":3})",
      R"({"v":1,"op":"report","tenancy":"acme"})",
      R"({"v":1,"op":"close_period","tenancy":"acme"})",
      R"({"v":2,"op":"snapshot","tenancy":"acme","id":"s1"})",
      R"({"v":1,"op":"depart","tenancy":"acme","tenant":0})",
      R"({"v":2,"op":"server_info"})",
      R"({"v":2,"op":"report","tenancy":"acme","period":3})",
      ToJson([] {
        Request request;
        request.op = RequestOp::kSubmit;
        request.tenancy = "acme";
        request.tenants = {SampleTenant()};
        return request;
      }()).Dump(),
      ToJson([] {
        Request request;
        request.op = RequestOp::kQueryPrice;
        request.version = 2;
        request.tenancy = "acme";
        request.tenants = {SampleTenant()};
        return request;
      }()).Dump(),
  };
  for (const std::string& line : hot) {
    SCOPED_TRACE("line: " + line);
    Request fast;
    EXPECT_TRUE(TryFastParseRequestLine(line, &fast));
  }
}

TEST(AppendResponseLineTest, MatchesTreeSerializerBytes) {
  std::vector<Response> responses;
  responses.push_back(OkResponse("", JsonValue::Null()));
  responses.push_back(OkResponse("req-1", JsonValue::Null()));
  {
    JsonValue payload = JsonValue::MakeObject();
    payload.Set("mechanisms", JsonValue::MakeArray());
    payload.AsObject()["mechanisms"].Append(JsonValue::Str("addon"));
    payload.Set("count", JsonValue::Number(1));
    payload.Set("ratio", JsonValue::Number(0.015625));
    payload.Set("exact", JsonValue::Number(137.5));
    payload.Set("tiny", JsonValue::Number(2e-7));
    payload.Set("flag", JsonValue::Bool(true));
    payload.Set("name", JsonValue::Str("esc \"q\" \\ \n \t \x01"));
    responses.push_back(OkResponse("id with \"quotes\"", std::move(payload)));
  }
  responses.push_back(
      ErrorResponse("e1", Status::NotFound("tenancy \"acme\" unknown")));
  responses.push_back(ErrorResponse(
      "", Status::InvalidArgument("line\nwith\tcontrol \x02 bytes")));
  responses.back().version = kMinProtocolVersion;

  for (Response& response : responses) {
    for (int version = kMinProtocolVersion; version <= kProtocolVersion;
         ++version) {
      response.version = version;
      const std::string expected = ToJson(response).Dump();
      EXPECT_EQ(FormatResponseLine(response), expected);
      std::string appended = "prefix|";
      AppendResponseLine(response, &appended);
      EXPECT_EQ(appended, "prefix|" + expected);
    }
  }
}

TEST(ZeroAllocationTest, FixedSizeOpsParseAndSerializeWithoutHeap) {
  if (!alloc_count::AllocationCountingAvailable()) {
    GTEST_SKIP() << "allocation counting disabled under sanitizers";
  }
  // Each request line round-trips with the response it is served with:
  // parse, then serialize into a reused scratch.
  struct Case {
    std::string line;
    Response response;
  };
  const Response ack = OkResponse("r7", JsonValue::Bool(true));
  std::vector<Case> cases;
  for (const char* line : {
           R"({"v":1,"op":"advance_slot","tenancy":"acme","slots":3})",
           R"({"v":1,"op":"report","tenancy":"acme","id":"r7"})",
           R"({"v":2,"op":"report","tenancy":"acme","period":2})",
           R"({"v":1,"op":"close_period","tenancy":"acme"})",
           R"({"v":2,"op":"snapshot","tenancy":"acme"})",
           R"({"v":2,"op":"server_info"})",
           R"({"v":1,"op":"depart","tenancy":"acme","tenant":0})",
       }) {
    cases.push_back({line, ack});
  }
  // An advance_slot answered with its slot and period.
  {
    JsonValue payload = JsonValue::MakeObject();
    payload.Set("slot", JsonValue::Number(5));
    payload.Set("period", JsonValue::Number(2));
    cases.push_back(
        {R"({"v":1,"op":"advance_slot","tenancy":"acme","slots":1})",
         OkResponse("", std::move(payload))});
  }
  // A report answered with 16 tenants' values and payments.
  {
    JsonValue values = JsonValue::MakeArray();
    JsonValue payments = JsonValue::MakeArray();
    for (int i = 0; i < 16; ++i) {
      values.Append(JsonValue::Number(137.5 + i));
      payments.Append(JsonValue::Number(12.0625 * i));
    }
    JsonValue payload = JsonValue::MakeObject();
    payload.Set("period", JsonValue::Number(2));
    payload.Set("values", std::move(values));
    payload.Set("payments", std::move(payments));
    cases.push_back({R"({"v":1,"op":"report","tenancy":"acme","id":"r1"})",
                     OkResponse("r1", std::move(payload))});
  }
  std::string scratch;

  // Warm-up: let every lazily-grown buffer reach steady-state capacity.
  for (int i = 0; i < 4; ++i) {
    for (const Case& c : cases) {
      const Result<Request> parsed = ParseRequestLine(c.line);
      ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
      scratch.clear();
      AppendResponseLine(c.response, &scratch);
    }
  }

  constexpr int kIterations = 256;
  for (const Case& c : cases) {
    bool all_ok = true;
    const uint64_t before = alloc_count::ThreadAllocations();
    for (int i = 0; i < kIterations; ++i) {
      const Result<Request> parsed = ParseRequestLine(c.line);
      all_ok = all_ok && parsed.ok();
      scratch.clear();
      AppendResponseLine(c.response, &scratch);
    }
    const uint64_t after = alloc_count::ThreadAllocations();
    EXPECT_TRUE(all_ok) << c.line;
    EXPECT_EQ(after - before, 0u)
        << "the wire hot path allocated " << (after - before)
        << " times over " << kIterations << " round trips of " << c.line;
  }
}

}  // namespace
}  // namespace optshare::service::protocol
