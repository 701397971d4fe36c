// The wire protocol's golden corpus (service_protocol_golden.inc). For
// every op it holds the canonical line; the line with each payload field
// the op does not carry added and with each field it carries left out; the
// line one version below the op's minimum; and the line wrapped as a v3
// batch member. Each row records the exact answer: the re-serialized
// request (ToJson(...).Dump()) or the rejection (Status::ToString()), and
// whether the single-pass scanner (service/fast_wire.h) takes the line.
//
// The differential suites compare the two parsers with each other, so a
// drift both share — a changed error text, a newly accepted field, a
// serializer that drops a field, an op that leaves the fast path — passes
// them. It fails here. The rows change only when the wire format changes
// on purpose.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "service/fast_wire.h"
#include "service/protocol.h"

namespace optshare::service::protocol {
namespace {

struct GoldenLine {
  const char* line;
  bool fast;           ///< TryFastParseRequestLine takes the line.
  const char* answer;  ///< ToJson(request).Dump() or Status::ToString().
};

const GoldenLine kGolden[] = {
#include "service_protocol_golden.inc"
};

std::string Answer(const Result<Request>& parsed) {
  return parsed.ok() ? ToJson(*parsed).Dump() : parsed.status().ToString();
}

TEST(WireGoldenTest, EveryLineAnswersItsRecordedBytes) {
  for (const GoldenLine& golden : kGolden) {
    SCOPED_TRACE(golden.line);
    EXPECT_EQ(Answer(ParseRequestLineTree(golden.line)), golden.answer);
    EXPECT_EQ(Answer(ParseRequestLine(golden.line)), golden.answer);
    Request fast;
    EXPECT_EQ(TryFastParseRequestLine(golden.line, &fast), golden.fast);
    if (golden.fast) {
      EXPECT_EQ(ToJson(fast).Dump(), golden.answer);
    }
  }
}

TEST(WireGoldenTest, CoversEveryOp) {
  std::set<RequestOp> accepted;
  for (const GoldenLine& golden : kGolden) {
    const Result<Request> parsed = ParseRequestLineTree(golden.line);
    if (parsed.ok()) accepted.insert(parsed->op);
  }
  for (const RequestOp op : kAllRequestOps) {
    EXPECT_EQ(accepted.count(op), 1u) << RequestOpName(op);
  }
}

}  // namespace
}  // namespace optshare::service::protocol
