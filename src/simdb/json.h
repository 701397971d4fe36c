// JSON documents of the simdb declaration types: a table definition, a
// workload and a tenant (SimUser). The wire protocol (open_period catalogs,
// submit and query_price tenants), tenancy snapshots and strategy trace
// configs all read and write these shapes through this one codec, so they
// share field names and error texts.
//
// The parsers check structure only (object shapes, known fields, field
// types and the integer forms of counts); semantic checks stay with the
// caller (TableDef::Validate, Workload::Validate). Serialization
// round-trips bit-identically (common/json number formatting).
#pragma once

#include <optional>
#include <string_view>

#include "common/json.h"
#include "common/status.h"
#include "simdb/pricing.h"
#include "simdb/query.h"
#include "simdb/schema.h"

namespace optshare::simdb {

/// "int64", "double" or "string".
std::string_view ColumnTypeName(ColumnType type);
/// Inverse of ColumnTypeName; nullopt for unknown names.
std::optional<ColumnType> ColumnTypeFromName(std::string_view name);

/// {"name", "row_count", "columns": [{"name", "type", "distinct_values"}]}.
JsonValue ToJson(const TableDef& table);
/// The array of {"frequency", "query": {"table", "aggregate",
/// "predicates": [{"column", "selectivity"}]}} entries.
JsonValue ToJson(const Workload& workload);
/// {"start", "end", "executions_per_slot", "workload"}.
JsonValue ToJson(const SimUser& tenant);

Result<TableDef> TableDefFromJson(const JsonValue& v);
Result<Workload> WorkloadFromJson(const JsonValue& v);
Result<SimUser> SimUserFromJson(const JsonValue& v);

}  // namespace optshare::simdb
