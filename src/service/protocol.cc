#include "service/protocol.h"

#include <cmath>
#include <utility>

#include "service/fast_wire.h"
#include "simdb/json.h"

namespace optshare::service::protocol {
namespace {

/// Parses the "v" field and accepts any version this build still speaks
/// ([kMinProtocolVersion, kProtocolVersion]); the accepted value is
/// returned so callers can echo it.
Result<int> CheckVersion(const JsonValue& v, const char* ctx) {
  const JsonValue* field = v.Find("v");
  if (field == nullptr || !field->is_number()) {
    return Status::InvalidArgument(std::string(ctx) +
                                   ": missing protocol version field \"v\"");
  }
  const double number = field->AsNumber();
  if (number != std::floor(number) || number < kMinProtocolVersion ||
      number > kProtocolVersion) {
    return Status::InvalidArgument(
        std::string(ctx) + ": unsupported protocol version (this build "
        "speaks versions " + std::to_string(kMinProtocolVersion) + " through " +
        std::to_string(kProtocolVersion) + ")");
  }
  return static_cast<int>(number);
}

}  // namespace

// -- Op tags ----------------------------------------------------------------

std::optional<RequestOp> RequestOpFromName(std::string_view name) {
  for (const OpSpec& spec : kOpSpecs) {
    if (name == spec.name) return spec.op;
  }
  return std::nullopt;
}

// -- Leaf serializers -------------------------------------------------------

JsonValue ToJson(const ServiceConfig& config) {
  JsonValue obj = JsonValue::MakeObject();
  obj.Set("slots_per_period", JsonValue::Number(config.slots_per_period));
  obj.Set("maintenance_fraction",
          JsonValue::Number(config.maintenance_fraction));
  obj.Set("mechanism", JsonValue::Str(config.mechanism));
  JsonValue advisor = JsonValue::MakeObject();
  advisor.Set("min_benefit_ratio",
              JsonValue::Number(config.advisor.min_benefit_ratio));
  advisor.Set("propose_replicas",
              JsonValue::Bool(config.advisor.propose_replicas));
  advisor.Set("max_proposals", JsonValue::Number(config.advisor.max_proposals));
  obj.Set("advisor", std::move(advisor));
  JsonValue pricing = JsonValue::MakeObject();
  pricing.Set("instance_per_hour",
              JsonValue::Number(config.pricing.instance_per_hour));
  pricing.Set("storage_per_gb_month",
              JsonValue::Number(config.pricing.storage_per_gb_month));
  obj.Set("pricing", std::move(pricing));
  // Emitted only when non-default so pre-v3 config documents (journals,
  // snapshots, the differential corpora) stay byte-identical.
  if (!(config.admission == AdmissionConfig{})) {
    JsonValue admission = JsonValue::MakeObject();
    admission.Set("mutating_ops_per_sec",
                  JsonValue::Number(config.admission.mutating_ops_per_sec));
    if (config.admission.burst != 0.0) {
      admission.Set("burst", JsonValue::Number(config.admission.burst));
    }
    obj.Set("admission", std::move(admission));
  }
  return obj;
}

Result<ServiceConfig> ServiceConfigFromJson(const JsonValue& v) {
  OPTSHARE_RETURN_NOT_OK(CheckObject(v, "config"));
  OPTSHARE_RETURN_NOT_OK(CheckFields(
      v,
      {"slots_per_period", "maintenance_fraction", "mechanism", "advisor",
       "pricing", "admission"},
      "config"));
  ServiceConfig config;  // Every field is optional: defaults apply.
  if (v.Find("slots_per_period") != nullptr) {
    Result<int> slots = JsonInt32Field(v, "slots_per_period", "config");
    if (!slots.ok()) return slots.status();
    config.slots_per_period = *slots;
  }
  if (v.Find("maintenance_fraction") != nullptr) {
    Result<double> fraction =
        JsonNumberField(v, "maintenance_fraction", "config");
    if (!fraction.ok()) return fraction.status();
    config.maintenance_fraction = *fraction;
  }
  if (v.Find("mechanism") != nullptr) {
    Result<std::string> mechanism = JsonStringField(v, "mechanism", "config");
    if (!mechanism.ok()) return mechanism.status();
    config.mechanism = std::move(*mechanism);
  }
  if (const JsonValue* advisor = v.Find("advisor")) {
    OPTSHARE_RETURN_NOT_OK(CheckObject(*advisor, "config.advisor"));
    OPTSHARE_RETURN_NOT_OK(CheckFields(
        *advisor, {"min_benefit_ratio", "propose_replicas", "max_proposals"},
        "config.advisor"));
    if (advisor->Find("min_benefit_ratio") != nullptr) {
      Result<double> ratio =
          JsonNumberField(*advisor, "min_benefit_ratio", "config.advisor");
      if (!ratio.ok()) return ratio.status();
      config.advisor.min_benefit_ratio = *ratio;
    }
    if (advisor->Find("propose_replicas") != nullptr) {
      Result<bool> replicas =
          JsonBoolField(*advisor, "propose_replicas", "config.advisor");
      if (!replicas.ok()) return replicas.status();
      config.advisor.propose_replicas = *replicas;
    }
    if (advisor->Find("max_proposals") != nullptr) {
      Result<int> cap =
          JsonInt32Field(*advisor, "max_proposals", "config.advisor");
      if (!cap.ok()) return cap.status();
      config.advisor.max_proposals = *cap;
    }
  }
  if (const JsonValue* pricing = v.Find("pricing")) {
    OPTSHARE_RETURN_NOT_OK(CheckObject(*pricing, "config.pricing"));
    OPTSHARE_RETURN_NOT_OK(CheckFields(
        *pricing, {"instance_per_hour", "storage_per_gb_month"},
        "config.pricing"));
    if (pricing->Find("instance_per_hour") != nullptr) {
      Result<double> rate =
          JsonNumberField(*pricing, "instance_per_hour", "config.pricing");
      if (!rate.ok()) return rate.status();
      config.pricing.instance_per_hour = *rate;
    }
    if (pricing->Find("storage_per_gb_month") != nullptr) {
      Result<double> rate =
          JsonNumberField(*pricing, "storage_per_gb_month", "config.pricing");
      if (!rate.ok()) return rate.status();
      config.pricing.storage_per_gb_month = *rate;
    }
  }
  if (const JsonValue* admission = v.Find("admission")) {
    OPTSHARE_RETURN_NOT_OK(CheckObject(*admission, "config.admission"));
    OPTSHARE_RETURN_NOT_OK(CheckFields(
        *admission, {"mutating_ops_per_sec", "burst"}, "config.admission"));
    if (admission->Find("mutating_ops_per_sec") != nullptr) {
      Result<double> rate = JsonNumberField(*admission, "mutating_ops_per_sec",
                                            "config.admission");
      if (!rate.ok()) return rate.status();
      if (*rate < 0.0) {
        return Status::InvalidArgument(
            "config.admission: \"mutating_ops_per_sec\" must be >= 0");
      }
      config.admission.mutating_ops_per_sec = *rate;
    }
    if (admission->Find("burst") != nullptr) {
      Result<double> burst =
          JsonNumberField(*admission, "burst", "config.admission");
      if (!burst.ok()) return burst.status();
      if (*burst < 0.0) {
        return Status::InvalidArgument(
            "config.admission: \"burst\" must be >= 0");
      }
      config.admission.burst = *burst;
    }
  }
  return config;
}

JsonValue ToJson(const CatalogSpec& spec) {
  JsonValue obj = JsonValue::MakeObject();
  if (!spec.scenario.empty()) {
    obj.Set("scenario", JsonValue::Str(spec.scenario));
    obj.Set("tenants", JsonValue::Number(spec.scenario_tenants));
    obj.Set("slots", JsonValue::Number(spec.scenario_slots));
  } else {
    JsonValue tables = JsonValue::MakeArray();
    for (const simdb::TableDef& table : spec.tables) {
      tables.Append(simdb::ToJson(table));
    }
    obj.Set("tables", std::move(tables));
  }
  return obj;
}

Result<CatalogSpec> CatalogSpecFromJson(const JsonValue& v) {
  OPTSHARE_RETURN_NOT_OK(CheckObject(v, "catalog"));
  OPTSHARE_RETURN_NOT_OK(
      CheckFields(v, {"scenario", "tenants", "slots", "tables"}, "catalog"));
  CatalogSpec spec;
  const bool has_scenario = v.Find("scenario") != nullptr;
  const bool has_tables = v.Find("tables") != nullptr;
  if (has_scenario == has_tables) {
    return Status::InvalidArgument(
        "catalog: exactly one of \"scenario\" and \"tables\" must be given");
  }
  if (has_scenario) {
    Result<std::string> scenario = JsonStringField(v, "scenario", "catalog");
    if (!scenario.ok()) return scenario.status();
    spec.scenario = std::move(*scenario);
    if (v.Find("tenants") != nullptr) {
      Result<int> tenants = JsonInt32Field(v, "tenants", "catalog");
      if (!tenants.ok()) return tenants.status();
      spec.scenario_tenants = *tenants;
    }
    if (v.Find("slots") != nullptr) {
      Result<int> slots = JsonInt32Field(v, "slots", "catalog");
      if (!slots.ok()) return slots.status();
      spec.scenario_slots = *slots;
    }
  } else {
    if (v.Find("tenants") != nullptr || v.Find("slots") != nullptr) {
      return Status::InvalidArgument(
          "catalog: \"tenants\"/\"slots\" only apply to scenario catalogs");
    }
    Result<const JsonValue::Array*> tables =
        JsonArrayField(v, "tables", "catalog");
    if (!tables.ok()) return tables.status();
    for (const JsonValue& table_v : **tables) {
      Result<simdb::TableDef> table = simdb::TableDefFromJson(table_v);
      if (!table.ok()) return table.status();
      spec.tables.push_back(std::move(*table));
    }
  }
  return spec;
}

JsonValue ToJson(const PeriodReport& report) {
  JsonValue obj = JsonValue::MakeObject();
  obj.Set("period", JsonValue::Number(report.period));
  JsonValue structures = JsonValue::MakeArray();
  structures.Reserve(report.structures.size());
  for (const StructureOutcome& outcome : report.structures) {
    JsonValue s = JsonValue::MakeObject();
    s.Set("name", JsonValue::Str(outcome.name));
    s.Set("cost", JsonValue::Number(outcome.cost));
    s.Set("active", JsonValue::Bool(outcome.active));
    s.Set("carried_over", JsonValue::Bool(outcome.carried_over));
    s.Set("num_candidates", JsonValue::Number(outcome.num_candidates));
    s.Set("num_subscribers", JsonValue::Number(outcome.num_subscribers));
    JsonValue serviced = JsonValue::MakeArray();
    serviced.Reserve(outcome.serviced.size());
    for (const StructureOutcome::ServicedEntry& entry : outcome.serviced) {
      JsonValue e = JsonValue::MakeObject();
      e.Set("tenant", JsonValue::Number(entry.tenant));
      e.Set("from_slot", JsonValue::Number(entry.from_slot));
      serviced.Append(std::move(e));
    }
    s.Set("serviced", std::move(serviced));
    structures.Append(std::move(s));
  }
  obj.Set("structures", std::move(structures));
  JsonValue ledger = JsonValue::MakeObject();
  ledger.Set("total_cost", JsonValue::Number(report.ledger.total_cost));
  JsonValue values = JsonValue::MakeArray();
  values.Reserve(report.ledger.user_value.size());
  for (double value : report.ledger.user_value) {
    values.Append(JsonValue::Number(value));
  }
  ledger.Set("user_value", std::move(values));
  JsonValue payments = JsonValue::MakeArray();
  payments.Reserve(report.ledger.user_payment.size());
  for (double payment : report.ledger.user_payment) {
    payments.Append(JsonValue::Number(payment));
  }
  ledger.Set("user_payment", std::move(payments));
  obj.Set("ledger", std::move(ledger));
  return obj;
}

Result<PeriodReport> PeriodReportFromJson(const JsonValue& v) {
  OPTSHARE_RETURN_NOT_OK(CheckObject(v, "report"));
  OPTSHARE_RETURN_NOT_OK(
      CheckFields(v, {"period", "structures", "ledger"}, "report"));
  PeriodReport report;
  Result<int> period = JsonInt32Field(v, "period", "report");
  if (!period.ok()) return period.status();
  report.period = *period;
  Result<const JsonValue::Array*> structures =
      JsonArrayField(v, "structures", "report");
  if (!structures.ok()) return structures.status();
  for (const JsonValue& s : **structures) {
    OPTSHARE_RETURN_NOT_OK(CheckObject(s, "structure"));
    OPTSHARE_RETURN_NOT_OK(CheckFields(
        s,
        {"name", "cost", "active", "carried_over", "num_candidates",
         "num_subscribers", "serviced"},
        "structure"));
    StructureOutcome outcome;
    Result<std::string> name = JsonStringField(s, "name", "structure");
    if (!name.ok()) return name.status();
    outcome.name = std::move(*name);
    Result<double> cost = JsonNumberField(s, "cost", "structure");
    if (!cost.ok()) return cost.status();
    outcome.cost = *cost;
    Result<bool> active = JsonBoolField(s, "active", "structure");
    if (!active.ok()) return active.status();
    outcome.active = *active;
    Result<bool> carried = JsonBoolField(s, "carried_over", "structure");
    if (!carried.ok()) return carried.status();
    outcome.carried_over = *carried;
    Result<int> candidates = JsonInt32Field(s, "num_candidates", "structure");
    if (!candidates.ok()) return candidates.status();
    outcome.num_candidates = *candidates;
    Result<int> subscribers = JsonInt32Field(s, "num_subscribers", "structure");
    if (!subscribers.ok()) return subscribers.status();
    outcome.num_subscribers = *subscribers;
    // Absent in pre-strategy-lab reports (journals/snapshots recorded
    // before the field existed): parse leniently.
    if (s.Find("serviced") != nullptr) {
      Result<const JsonValue::Array*> serviced =
          JsonArrayField(s, "serviced", "structure");
      if (!serviced.ok()) return serviced.status();
      for (const JsonValue& entry_v : **serviced) {
        OPTSHARE_RETURN_NOT_OK(CheckObject(entry_v, "serviced entry"));
        OPTSHARE_RETURN_NOT_OK(CheckFields(
            entry_v, {"tenant", "from_slot"}, "serviced entry"));
        StructureOutcome::ServicedEntry entry;
        Result<int> tenant =
            JsonInt32Field(entry_v, "tenant", "serviced entry");
        if (!tenant.ok()) return tenant.status();
        entry.tenant = *tenant;
        Result<int> from =
            JsonInt32Field(entry_v, "from_slot", "serviced entry");
        if (!from.ok()) return from.status();
        entry.from_slot = *from;
        outcome.serviced.push_back(entry);
      }
    }
    report.structures.push_back(std::move(outcome));
  }
  const JsonValue* ledger = v.Find("ledger");
  if (ledger == nullptr) {
    return Status::InvalidArgument("report: missing \"ledger\"");
  }
  OPTSHARE_RETURN_NOT_OK(CheckObject(*ledger, "ledger"));
  OPTSHARE_RETURN_NOT_OK(CheckFields(
      *ledger, {"total_cost", "user_value", "user_payment"}, "ledger"));
  Result<double> total_cost = JsonNumberField(*ledger, "total_cost", "ledger");
  if (!total_cost.ok()) return total_cost.status();
  report.ledger.total_cost = *total_cost;
  for (const char* key : {"user_value", "user_payment"}) {
    Result<const JsonValue::Array*> array =
        JsonArrayField(*ledger, key, "ledger");
    if (!array.ok()) return array.status();
    std::vector<double>& out = std::string(key) == "user_value"
                                   ? report.ledger.user_value
                                   : report.ledger.user_payment;
    for (const JsonValue& number : **array) {
      if (!number.is_number()) {
        return Status::InvalidArgument(std::string("ledger: \"") + key +
                                       "\" entries must be numbers");
      }
      out.push_back(number.AsNumber());
    }
  }
  if (report.ledger.user_value.size() != report.ledger.user_payment.size()) {
    return Status::InvalidArgument(
        "ledger: user_value and user_payment must align");
  }
  return report;
}

// -- Requests ---------------------------------------------------------------

namespace {

Status FieldMustBe(const char* ctx, const char* key, const char* type) {
  return Status::InvalidArgument(std::string(ctx) + ": field \"" + key +
                                 "\" must be " + type);
}

Status GetPositiveInt(const JsonValue& v, const char* key, const char* ctx,
                      int* out) {
  Result<int> number = JsonInt32Field(v, key, ctx);
  if (!number.ok()) return number.status();
  if (*number < 1) {
    return Status::InvalidArgument(std::string(ctx) + ": \"" + key +
                                   "\" must be >= 1");
  }
  *out = *number;
  return Status::OK();
}

/// How one payload field (a field:: bit of protocol.h) is read and written.
/// `parse` runs when the field is present, and also when it is absent but
/// required, so a missing field reads as a mistyped one; `ctx` is the
/// op's error prefix. `emit` adds the field when the request carries it.
struct FieldCodec {
  uint32_t bit;
  const char* key;
  Status (*parse)(const JsonValue& doc, const char* key, const char* ctx,
                  Request* out);
  void (*emit)(const Request& request, const char* key, JsonValue* obj);
};

// RequestFromJson parses a document's fields in this order, so of two bad
// fields the first one's error is the answer.
const FieldCodec kFieldCodecs[] = {
    {field::kCatalog, "catalog",
     [](const JsonValue& doc, const char* key, const char*, Request* out) {
       Result<CatalogSpec> spec = CatalogSpecFromJson(*doc.Find(key));
       if (spec.ok()) out->catalog = std::move(*spec);
       return spec.status();
     },
     [](const Request& request, const char* key, JsonValue* obj) {
       if (request.catalog) obj->Set(key, ToJson(*request.catalog));
     }},
    {field::kConfig, "config",
     [](const JsonValue& doc, const char* key, const char*, Request* out) {
       Result<ServiceConfig> config = ServiceConfigFromJson(*doc.Find(key));
       if (config.ok()) out->config = std::move(*config);
       return config.status();
     },
     [](const Request& request, const char* key, JsonValue* obj) {
       if (request.config) obj->Set(key, ToJson(*request.config));
     }},
    {field::kTenants, "tenants",
     [](const JsonValue& doc, const char* key, const char* ctx, Request* out) {
       Result<const JsonValue::Array*> tenants = JsonArrayField(doc, key, ctx);
       if (!tenants.ok()) return tenants.status();
       for (const JsonValue& tenant_v : **tenants) {
         Result<simdb::SimUser> tenant = simdb::SimUserFromJson(tenant_v);
         if (!tenant.ok()) return tenant.status();
         out->tenants.push_back(std::move(*tenant));
       }
       return Status::OK();
     },
     [](const Request& request, const char* key, JsonValue* obj) {
       JsonValue tenants = JsonValue::MakeArray();
       tenants.Reserve(request.tenants.size());
       for (const simdb::SimUser& tenant : request.tenants) {
         tenants.Append(simdb::ToJson(tenant));
       }
       obj->Set(key, std::move(tenants));
     }},
    {field::kTenant, "tenant",
     [](const JsonValue& doc, const char* key, const char* ctx, Request* out) {
       Result<int> tenant = JsonInt32Field(doc, key, ctx);
       if (tenant.ok()) out->tenant = *tenant;
       return tenant.status();
     },
     [](const Request& request, const char* key, JsonValue* obj) {
       obj->Set(key, JsonValue::Number(request.tenant));
     }},
    {field::kSlots, "slots",
     [](const JsonValue& doc, const char* key, const char* ctx, Request* out) {
       return GetPositiveInt(doc, key, ctx, &out->slots);
     },
     [](const Request& request, const char* key, JsonValue* obj) {
       obj->Set(key, JsonValue::Number(request.slots));
     }},
    {field::kPeriod, "period",
     [](const JsonValue& doc, const char* key, const char* ctx, Request* out) {
       return GetPositiveInt(doc, key, ctx, &out->period);
     },
     [](const Request& request, const char* key, JsonValue* obj) {
       // 0 = the live report; the field is elided so v1 documents stay
       // byte-identical to what they always were.
       if (request.period > 0) {
         obj->Set(key, JsonValue::Number(request.period));
       }
     }},
    {field::kRecord, "record",
     [](const JsonValue& doc, const char* key, const char* ctx, Request* out) {
       Result<std::string> record = JsonStringField(doc, key, ctx);
       if (record.ok()) out->record = std::move(*record);
       return record.status();
     },
     [](const Request& request, const char* key, JsonValue* obj) {
       obj->Set(key, JsonValue::Str(request.record));
     }},
    {field::kSnapshot, "snapshot",
     [](const JsonValue& doc, const char* key, const char* ctx, Request* out) {
       const JsonValue* snapshot = doc.Find(key);
       if (snapshot == nullptr || !snapshot->is_object()) {
         return FieldMustBe(ctx, key, "an object");
       }
       out->snapshot = *snapshot;
       return Status::OK();
     },
     [](const Request& request, const char* key, JsonValue* obj) {
       if (request.snapshot) obj->Set(key, *request.snapshot);
     }},
    {field::kPlacement, "placement",
     [](const JsonValue& doc, const char* key, const char* ctx, Request* out) {
       const JsonValue* placement = doc.Find(key);
       if (placement == nullptr || !placement->is_object()) {
         return FieldMustBe(ctx, key, "an object");
       }
       out->placement = *placement;
       return Status::OK();
     },
     [](const Request& request, const char* key, JsonValue* obj) {
       if (request.placement) obj->Set(key, *request.placement);
     }},
    {field::kRequests, "requests",
     [](const JsonValue& doc, const char* key, const char* ctx, Request* out) {
       Result<const JsonValue::Array*> members = JsonArrayField(doc, key, ctx);
       if (!members.ok()) return members.status();
       if ((*members)->empty()) {
         return Status::InvalidArgument(std::string(ctx) +
                                        ": \"requests\" must be non-empty");
       }
       out->requests.reserve((*members)->size());
       for (const JsonValue& member_v : **members) {
         Result<Request> member = RequestFromJson(member_v);
         if (!member.ok()) return member.status();
         if ((SpecOf(member->op).flags & kBatchable) == 0) {
           return Status::InvalidArgument(
               std::string(ctx) +
               (member->op == RequestOp::kBatch
                    ? ": members may not themselves be batches"
                    : ": members may not be " +
                          std::string(RequestOpName(member->op)) + "s"));
         }
         out->requests.push_back(std::move(*member));
       }
       return Status::OK();
     },
     [](const Request& request, const char* key, JsonValue* obj) {
       JsonValue members = JsonValue::MakeArray();
       members.Reserve(request.requests.size());
       for (const Request& member : request.requests) {
         members.Append(ToJson(member));
       }
       obj->Set(key, std::move(members));
     }},
};

/// The strict unknown-field check of a request document: "v", "op", "id",
/// "tenancy" unless the op's rule forbids it, and the op's payload fields.
Status CheckRequestFields(const JsonValue& v, const OpSpec& spec,
                          const char* ctx) {
  for (const auto& [key, value] : v.AsObject()) {
    bool known = key == "v" || key == "op" || key == "id" ||
                 (key == "tenancy" && spec.tenancy != TenancyRule::kNone);
    for (const FieldCodec& codec : kFieldCodecs) {
      known = known || ((spec.allowed & codec.bit) != 0 && key == codec.key);
    }
    if (!known) {
      return Status::InvalidArgument(std::string(ctx) + ": unknown field \"" +
                                     key + "\"");
    }
  }
  return Status::OK();
}

}  // namespace

JsonValue ToJson(const Request& request) {
  const OpSpec& spec = SpecOf(request.op);
  JsonValue obj = JsonValue::MakeObject();
  obj.Set("v", JsonValue::Number(request.version));
  obj.Set("op", JsonValue::Str(std::string(spec.name)));
  if (!request.id.empty()) obj.Set("id", JsonValue::Str(request.id));
  if (spec.tenancy == TenancyRule::kRequired ||
      (spec.tenancy == TenancyRule::kOptional && !request.tenancy.empty())) {
    obj.Set("tenancy", JsonValue::Str(request.tenancy));
  }
  for (const FieldCodec& codec : kFieldCodecs) {
    if ((spec.allowed & codec.bit) != 0) codec.emit(request, codec.key, &obj);
  }
  return obj;
}

Result<Request> RequestFromJson(const JsonValue& v) {
  OPTSHARE_RETURN_NOT_OK(CheckObject(v, "request"));
  Result<int> version = CheckVersion(v, "request");
  if (!version.ok()) return version.status();
  Result<std::string> op_name = JsonStringField(v, "op", "request");
  if (!op_name.ok()) return op_name.status();
  std::optional<RequestOp> op = RequestOpFromName(*op_name);
  if (!op) {
    return Status::InvalidArgument("request: unknown op \"" + *op_name +
                                   "\"");
  }
  const OpSpec& spec = SpecOf(*op);
  if (*version < spec.min_version) {
    return Status::InvalidArgument("request: op \"" + *op_name +
                                   "\" requires protocol version " +
                                   std::to_string(spec.min_version));
  }
  Request request;
  request.op = *op;
  request.version = *version;
  if (v.Find("id") != nullptr) {
    Result<std::string> id = JsonStringField(v, "id", "request");
    if (!id.ok()) return id.status();
    request.id = std::move(*id);
  }
  if (spec.tenancy == TenancyRule::kRequired) {
    Result<std::string> tenancy = JsonStringField(v, "tenancy", "request");
    if (!tenancy.ok()) return tenancy.status();
    if (tenancy->empty()) {
      return Status::InvalidArgument("request: \"tenancy\" must be non-empty");
    }
    request.tenancy = std::move(*tenancy);
  }
  // Errors about an op's own fields name the op; an op with none (not even
  // an optional tenancy) names the request.
  const char* ctx =
      spec.allowed != 0 || spec.tenancy == TenancyRule::kOptional
          ? spec.name.data()
          : "request";
  OPTSHARE_RETURN_NOT_OK(CheckRequestFields(v, spec, ctx));
  if (spec.tenancy == TenancyRule::kOptional && v.Find("tenancy") != nullptr) {
    Result<std::string> tenancy = JsonStringField(v, "tenancy", ctx);
    if (!tenancy.ok()) return tenancy.status();
    if (tenancy->empty()) {
      return Status::InvalidArgument(
          std::string(ctx) + ": \"tenancy\" must be non-empty when present");
    }
    request.tenancy = std::move(*tenancy);
  }
  for (const FieldCodec& codec : kFieldCodecs) {
    if ((spec.allowed & codec.bit) == 0) continue;
    if ((spec.required & codec.bit) == 0 && v.Find(codec.key) == nullptr) {
      continue;
    }
    OPTSHARE_RETURN_NOT_OK(codec.parse(v, codec.key, ctx, &request));
  }
  return request;
}

// -- Responses --------------------------------------------------------------

JsonValue ToJson(const Response& response) {
  JsonValue obj = JsonValue::MakeObject();
  obj.Set("v", JsonValue::Number(response.version));
  if (!response.id.empty()) obj.Set("id", JsonValue::Str(response.id));
  obj.Set("ok", JsonValue::Bool(response.status.ok()));
  if (response.status.ok()) {
    if (!response.raw_payload.empty()) {
      // The pre-serialized form is authoritative; rebuild the tree a typed
      // consumer expects. Producers guarantee it parses (it was serialized
      // from Responses), but fall back to the tree payload defensively.
      Result<JsonValue> parsed = JsonValue::Parse(response.raw_payload);
      obj.Set("result", parsed.ok() ? std::move(*parsed) : response.payload);
    } else {
      obj.Set("result", response.payload);
    }
  } else {
    JsonValue error = JsonValue::MakeObject();
    error.Set("code", JsonValue::Str(std::string(
                          StatusCodeName(response.status.code()))));
    error.Set("message", JsonValue::Str(response.status.message()));
    if (response.retry_after_ms > 0) {
      error.Set("retry_after_ms", JsonValue::Number(response.retry_after_ms));
    }
    obj.Set("error", std::move(error));
  }
  return obj;
}

Result<Response> ResponseFromJson(const JsonValue& v) {
  OPTSHARE_RETURN_NOT_OK(CheckObject(v, "response"));
  Result<int> version = CheckVersion(v, "response");
  if (!version.ok()) return version.status();
  OPTSHARE_RETURN_NOT_OK(
      CheckFields(v, {"v", "id", "ok", "result", "error"}, "response"));
  Response response;
  response.version = *version;
  if (v.Find("id") != nullptr) {
    Result<std::string> id = JsonStringField(v, "id", "response");
    if (!id.ok()) return id.status();
    response.id = std::move(*id);
  }
  Result<bool> ok = JsonBoolField(v, "ok", "response");
  if (!ok.ok()) return ok.status();
  if (*ok) {
    if (v.Find("error") != nullptr) {
      return Status::InvalidArgument("response: ok response carries an error");
    }
    const JsonValue* payload = v.Find("result");
    if (payload == nullptr) {
      return Status::InvalidArgument("response: missing \"result\"");
    }
    response.payload = *payload;
    return response;
  }
  if (v.Find("result") != nullptr) {
    return Status::InvalidArgument("response: error response carries a result");
  }
  const JsonValue* error = v.Find("error");
  if (error == nullptr) {
    return Status::InvalidArgument("response: missing \"error\"");
  }
  OPTSHARE_RETURN_NOT_OK(CheckObject(*error, "error"));
  OPTSHARE_RETURN_NOT_OK(
      CheckFields(*error, {"code", "message", "retry_after_ms"}, "error"));
  Result<std::string> code_name = JsonStringField(*error, "code", "error");
  if (!code_name.ok()) return code_name.status();
  Result<std::string> message = JsonStringField(*error, "message", "error");
  if (!message.ok()) return message.status();
  std::optional<StatusCode> code = StatusCodeFromName(*code_name);
  if (!code || *code == StatusCode::kOk) {
    return Status::InvalidArgument("error: unknown status code \"" +
                                   *code_name + "\"");
  }
  if (error->Find("retry_after_ms") != nullptr) {
    Result<int> retry = JsonInt32Field(*error, "retry_after_ms", "error");
    if (!retry.ok()) return retry.status();
    if (*retry < 1) {
      return Status::InvalidArgument(
          "error: \"retry_after_ms\" must be >= 1");
    }
    response.retry_after_ms = *retry;
  }
  response.status = MakeStatus(*code, std::move(*message));
  return response;
}

Result<Request> ParseRequestLineTree(const std::string& line) {
  Result<JsonValue> doc = JsonValue::Parse(line);
  if (!doc.ok()) return doc.status();
  return RequestFromJson(*doc);
}

Result<Request> ParseRequestLine(const std::string& line) {
  Request fast;
  if (TryFastParseRequestLine(line, &fast)) return fast;
  // The scanner only accepts documents it is certain the tree parser
  // accepts identically; everything else — including every malformed
  // line — re-parses here so rejection semantics cannot drift.
  return ParseRequestLineTree(line);
}

namespace {

Response RejectedLineResponse(Status status) {
  Response response = ErrorResponse("", std::move(status));
  response.version = kMinProtocolVersion;
  return response;
}

}  // namespace

std::optional<Response> AdmitRequestLine(const std::string& line,
                                         const LineCaps& caps,
                                         Request* request) {
  const bool over_cap =
      caps.request_bytes > 0 && line.size() > caps.request_bytes;
  if (over_cap && line.size() > caps.framing_bytes()) {
    return OversizedLineResponse(caps);
  }
  // ParseRequestLine, filling *request in place on the fast path.
  if (!TryFastParseRequestLine(line, request)) {
    Result<Request> parsed = ParseRequestLineTree(line);
    if (!parsed.ok()) {
      return over_cap ? OversizedLineResponse(caps)
                      : RejectedLineResponse(parsed.status());
    }
    *request = std::move(*parsed);
  }
  if (over_cap && request->op != RequestOp::kBatch) {
    return OversizedLineResponse(caps);
  }
  return std::nullopt;
}

Response OversizedLineResponse(const LineCaps& caps) {
  return RejectedLineResponse(Status::ResourceExhausted(
      "request line exceeds the " + std::to_string(caps.request_bytes) +
      "-byte cap (--max-request-bytes)"));
}

std::string FormatResponseLine(const Response& response) {
  std::string out;
  AppendResponseLine(response, &out);
  return out;
}

void AppendResponseLine(const Response& response, std::string* out) {
  // Mirrors ToJson(response).Dump() byte-for-byte: JsonValue objects
  // serialize with sorted keys, so the envelope order is
  // error < id < ok < result < v (and within error,
  // code < message < retry_after_ms).
  out->push_back('{');
  if (!response.status.ok()) {
    out->append("\"error\":{\"code\":");
    JsonEscapeTo(StatusCodeName(response.status.code()), out);
    out->append(",\"message\":");
    JsonEscapeTo(response.status.message(), out);
    if (response.retry_after_ms > 0) {
      out->append(",\"retry_after_ms\":");
      out->append(std::to_string(response.retry_after_ms));
    }
    out->append("},");
  }
  if (!response.id.empty()) {
    out->append("\"id\":");
    JsonEscapeTo(response.id, out);
    out->push_back(',');
  }
  out->append(response.status.ok() ? "\"ok\":true" : "\"ok\":false");
  if (response.status.ok()) {
    out->append(",\"result\":");
    if (!response.raw_payload.empty()) {
      out->append(response.raw_payload);
    } else {
      response.payload.DumpTo(out);
    }
  }
  out->append(",\"v\":");
  out->append(std::to_string(response.version));
  out->push_back('}');
}

Response ErrorResponse(std::string id, Status status) {
  Response response;
  response.id = std::move(id);
  response.status = std::move(status);
  return response;
}

Response OkResponse(std::string id, JsonValue payload) {
  Response response;
  response.id = std::move(id);
  response.payload = std::move(payload);
  return response;
}

}  // namespace optshare::service::protocol
