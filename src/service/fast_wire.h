// The allocation-free serving hot path: a single-pass wire scanner that
// parses one protocol request line by walking it as std::string_view spans
// and filling the typed Request directly — no JsonValue tree, no
// std::map<std::string, JsonValue> per object, no per-field temporaries.
//
// Contract (what keeps this safe to put in front of the tree parser):
//
//   TryFastParseRequestLine returns true ONLY when the scanner is certain
//   the tree parser (protocol::ParseRequestLineTree) would accept the line
//   AND produce the identical Request. On ANY doubt — malformed JSON, a
//   field the scanner does not model (catalog/config), an escaped object
//   key, a duplicate key, a type mismatch, an unknown op, a version or
//   field-set violation — it returns false and the caller falls back to
//   the tree parser, which re-derives the exact accept/reject decision and
//   error message. The fast path therefore can never accept what the tree
//   path rejects, never reject what it accepts, and never alter a parsed
//   value; tests/service_wire_fast_test.cc and the fuzz battery pin this
//   differentially over the full protocol surface.
//
// Which ops it scans follows from their rows in protocol::kOpSpecs: an op
// whose tenancy is required or forbidden and whose payload fields are all
// among tenants, tenant, slots, period and requests. That is the
// high-volume request set (submit, depart, advance_slot, close_period,
// report, query_price, ...) plus v3 batch frames whose members are all
// themselves scannable (a batch carrying an open_period member falls back
// whole-line, as does anything the tree parser would reject — nested
// batches, shutdown members, empty member arrays). open_period (once per
// billing period, with nested CatalogSpec/ServiceConfig payloads), the
// cluster ops with opaque payloads, and restore/export (optional tenancy)
// fall back to the tree parser.
//
// Steady-state cost: zero heap allocations for the fixed-size ops (the
// Request's strings stay in SSO for typical tenancy/id names), and
// O(tenants) vector growth only — no per-field tree nodes — for submit.
#pragma once

#include <string_view>

#include "service/protocol.h"

namespace optshare::service::protocol {

/// Single-pass scan of one request line into *out. True on success (the
/// tree parser would have produced an identical Request); false means the
/// caller must fall back to ParseRequestLineTree — for malformed lines AND
/// for valid lines the scanner does not model. *out is clobbered either
/// way.
bool TryFastParseRequestLine(std::string_view line, Request* out);

}  // namespace optshare::service::protocol
