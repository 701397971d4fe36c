#include "simdb/json.h"

#include <cmath>
#include <string>
#include <utility>

namespace optshare::simdb {
namespace {

Result<Workload> WorkloadFromEntries(const JsonValue::Array& entries) {
  Workload workload;
  for (const JsonValue& entry_v : entries) {
    OPTSHARE_RETURN_NOT_OK(CheckObject(entry_v, "workload entry"));
    OPTSHARE_RETURN_NOT_OK(
        CheckFields(entry_v, {"frequency", "query"}, "workload entry"));
    Workload::Entry entry;
    Result<double> frequency =
        JsonNumberField(entry_v, "frequency", "workload entry");
    if (!frequency.ok()) return frequency.status();
    entry.frequency = *frequency;
    const JsonValue* query_v = entry_v.Find("query");
    if (query_v == nullptr) {
      return Status::InvalidArgument("workload entry: missing \"query\"");
    }
    OPTSHARE_RETURN_NOT_OK(CheckObject(*query_v, "query"));
    OPTSHARE_RETURN_NOT_OK(
        CheckFields(*query_v, {"table", "aggregate", "predicates"}, "query"));
    Result<std::string> table = JsonStringField(*query_v, "table", "query");
    if (!table.ok()) return table.status();
    entry.query.table = std::move(*table);
    Result<bool> aggregate = JsonBoolField(*query_v, "aggregate", "query");
    if (!aggregate.ok()) return aggregate.status();
    entry.query.aggregate = *aggregate;
    Result<const JsonValue::Array*> predicates =
        JsonArrayField(*query_v, "predicates", "query");
    if (!predicates.ok()) return predicates.status();
    for (const JsonValue& pred_v : **predicates) {
      OPTSHARE_RETURN_NOT_OK(CheckObject(pred_v, "predicate"));
      OPTSHARE_RETURN_NOT_OK(
          CheckFields(pred_v, {"column", "selectivity"}, "predicate"));
      Predicate pred;
      Result<std::string> column =
          JsonStringField(pred_v, "column", "predicate");
      if (!column.ok()) return column.status();
      pred.column = std::move(*column);
      Result<double> selectivity =
          JsonNumberField(pred_v, "selectivity", "predicate");
      if (!selectivity.ok()) return selectivity.status();
      pred.selectivity = *selectivity;
      entry.query.predicates.push_back(std::move(pred));
    }
    workload.entries.push_back(std::move(entry));
  }
  return workload;
}

}  // namespace

std::string_view ColumnTypeName(ColumnType type) {
  switch (type) {
    case ColumnType::kInt64:
      return "int64";
    case ColumnType::kDouble:
      return "double";
    case ColumnType::kString:
      return "string";
  }
  return "int64";
}

std::optional<ColumnType> ColumnTypeFromName(std::string_view name) {
  if (name == "int64") return ColumnType::kInt64;
  if (name == "double") return ColumnType::kDouble;
  if (name == "string") return ColumnType::kString;
  return std::nullopt;
}

JsonValue ToJson(const TableDef& table) {
  JsonValue obj = JsonValue::MakeObject();
  obj.Set("name", JsonValue::Str(table.name));
  obj.Set("row_count",
          JsonValue::Number(static_cast<double>(table.row_count)));
  JsonValue columns = JsonValue::MakeArray();
  for (const Column& column : table.columns) {
    JsonValue c = JsonValue::MakeObject();
    c.Set("name", JsonValue::Str(column.name));
    c.Set("type", JsonValue::Str(std::string(ColumnTypeName(column.type))));
    c.Set("distinct_values",
          JsonValue::Number(static_cast<double>(column.distinct_values)));
    columns.Append(std::move(c));
  }
  obj.Set("columns", std::move(columns));
  return obj;
}

JsonValue ToJson(const Workload& workload) {
  JsonValue entries = JsonValue::MakeArray();
  entries.Reserve(workload.entries.size());
  for (const Workload::Entry& entry : workload.entries) {
    JsonValue query = JsonValue::MakeObject();
    query.Set("table", JsonValue::Str(entry.query.table));
    query.Set("aggregate", JsonValue::Bool(entry.query.aggregate));
    JsonValue predicates = JsonValue::MakeArray();
    predicates.Reserve(entry.query.predicates.size());
    for (const Predicate& pred : entry.query.predicates) {
      JsonValue p = JsonValue::MakeObject();
      p.Set("column", JsonValue::Str(pred.column));
      p.Set("selectivity", JsonValue::Number(pred.selectivity));
      predicates.Append(std::move(p));
    }
    query.Set("predicates", std::move(predicates));
    JsonValue e = JsonValue::MakeObject();
    e.Set("frequency", JsonValue::Number(entry.frequency));
    e.Set("query", std::move(query));
    entries.Append(std::move(e));
  }
  return entries;
}

JsonValue ToJson(const SimUser& tenant) {
  JsonValue obj = JsonValue::MakeObject();
  obj.Set("start", JsonValue::Number(tenant.start));
  obj.Set("end", JsonValue::Number(tenant.end));
  obj.Set("executions_per_slot",
          JsonValue::Number(tenant.executions_per_slot));
  obj.Set("workload", ToJson(tenant.workload));
  return obj;
}

Result<TableDef> TableDefFromJson(const JsonValue& v) {
  OPTSHARE_RETURN_NOT_OK(CheckObject(v, "table"));
  OPTSHARE_RETURN_NOT_OK(
      CheckFields(v, {"name", "row_count", "columns"}, "table"));
  TableDef table;
  Result<std::string> name = JsonStringField(v, "name", "table");
  if (!name.ok()) return name.status();
  table.name = std::move(*name);
  Result<double> rows = JsonNumberField(v, "row_count", "table");
  if (!rows.ok()) return rows.status();
  if (*rows < 0.0 || *rows != std::floor(*rows)) {
    return Status::InvalidArgument(
        "table: \"row_count\" must be a non-negative integer");
  }
  table.row_count = static_cast<uint64_t>(*rows);
  Result<const JsonValue::Array*> columns =
      JsonArrayField(v, "columns", "table");
  if (!columns.ok()) return columns.status();
  for (const JsonValue& column_v : **columns) {
    OPTSHARE_RETURN_NOT_OK(CheckObject(column_v, "column"));
    OPTSHARE_RETURN_NOT_OK(CheckFields(
        column_v, {"name", "type", "distinct_values"}, "column"));
    Column column;
    Result<std::string> column_name =
        JsonStringField(column_v, "name", "column");
    if (!column_name.ok()) return column_name.status();
    column.name = std::move(*column_name);
    Result<std::string> type = JsonStringField(column_v, "type", "column");
    if (!type.ok()) return type.status();
    std::optional<ColumnType> parsed = ColumnTypeFromName(*type);
    if (!parsed) {
      return Status::InvalidArgument("column: unknown type \"" + *type +
                                     "\" (int64, double, string)");
    }
    column.type = *parsed;
    Result<double> distinct =
        JsonNumberField(column_v, "distinct_values", "column");
    if (!distinct.ok()) return distinct.status();
    if (*distinct < 1.0 || *distinct != std::floor(*distinct)) {
      return Status::InvalidArgument(
          "column: \"distinct_values\" must be a positive integer");
    }
    column.distinct_values = static_cast<uint64_t>(*distinct);
    table.columns.push_back(std::move(column));
  }
  return table;
}

Result<Workload> WorkloadFromJson(const JsonValue& v) {
  if (!v.is_array()) {
    return Status::InvalidArgument("workload must be an array of entries");
  }
  return WorkloadFromEntries(v.AsArray());
}

Result<SimUser> SimUserFromJson(const JsonValue& v) {
  OPTSHARE_RETURN_NOT_OK(CheckObject(v, "tenant"));
  OPTSHARE_RETURN_NOT_OK(CheckFields(
      v, {"start", "end", "executions_per_slot", "workload"}, "tenant"));
  SimUser tenant;
  Result<int> start = JsonInt32Field(v, "start", "tenant");
  if (!start.ok()) return start.status();
  tenant.start = *start;
  Result<int> end = JsonInt32Field(v, "end", "tenant");
  if (!end.ok()) return end.status();
  tenant.end = *end;
  Result<double> executions =
      JsonNumberField(v, "executions_per_slot", "tenant");
  if (!executions.ok()) return executions.status();
  tenant.executions_per_slot = *executions;
  Result<const JsonValue::Array*> entries =
      JsonArrayField(v, "workload", "tenant");
  if (!entries.ok()) return entries.status();
  Result<Workload> workload = WorkloadFromEntries(**entries);
  if (!workload.ok()) return workload.status();
  tenant.workload = std::move(*workload);
  return tenant;
}

}  // namespace optshare::simdb
