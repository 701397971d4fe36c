#include "strategy/trace.h"

#include <algorithm>
#include <cmath>

#include "simdb/json.h"
#include "simdb/scenarios.h"

namespace optshare::strategy {
namespace {

constexpr double kPi = 3.14159265358979323846;

// -- Variant sub-schemas ----------------------------------------------------

const char* ArrivalProcessTag(ArrivalSpec::Process process) {
  switch (process) {
    case ArrivalSpec::Process::kUniform:
      return "uniform";
    case ArrivalSpec::Process::kEarly:
      return "early";
    case ArrivalSpec::Process::kLate:
      return "late";
    case ArrivalSpec::Process::kDiurnal:
      return "diurnal";
    case ArrivalSpec::Process::kFlash:
      return "flash";
  }
  return "uniform";
}

JsonValue ToJson(const ArrivalSpec& arrival) {
  JsonValue obj = JsonValue::MakeObject();
  obj.Set("process", JsonValue::Str(ArrivalProcessTag(arrival.process)));
  switch (arrival.process) {
    case ArrivalSpec::Process::kUniform:
      break;
    case ArrivalSpec::Process::kEarly:
    case ArrivalSpec::Process::kLate:
      obj.Set("mean", JsonValue::Number(arrival.mean));
      break;
    case ArrivalSpec::Process::kDiurnal:
      obj.Set("amplitude", JsonValue::Number(arrival.amplitude));
      obj.Set("wavelength", JsonValue::Number(arrival.wavelength));
      obj.Set("phase", JsonValue::Number(arrival.phase));
      break;
    case ArrivalSpec::Process::kFlash:
      obj.Set("peak_slot", JsonValue::Number(arrival.peak_slot));
      obj.Set("width", JsonValue::Number(arrival.width));
      obj.Set("multiplier", JsonValue::Number(arrival.multiplier));
      break;
  }
  return obj;
}

Result<ArrivalSpec> ArrivalFromJson(const JsonValue& v) {
  OPTSHARE_RETURN_NOT_OK(CheckObject(v, "arrival"));
  Result<std::string> process = JsonStringField(v, "process", "arrival");
  if (!process.ok()) return process.status();
  ArrivalSpec arrival;
  if (*process == "uniform") {
    arrival.process = ArrivalSpec::Process::kUniform;
    OPTSHARE_RETURN_NOT_OK(CheckFields(v, {"process"}, "arrival"));
  } else if (*process == "early" || *process == "late") {
    arrival.process = *process == "early" ? ArrivalSpec::Process::kEarly
                                          : ArrivalSpec::Process::kLate;
    OPTSHARE_RETURN_NOT_OK(CheckFields(v, {"process", "mean"}, "arrival"));
    if (v.Find("mean") != nullptr) {
      Result<double> mean = JsonNumberField(v, "mean", "arrival");
      if (!mean.ok()) return mean.status();
      arrival.mean = *mean;
    }
  } else if (*process == "diurnal") {
    arrival.process = ArrivalSpec::Process::kDiurnal;
    OPTSHARE_RETURN_NOT_OK(CheckFields(
        v, {"process", "amplitude", "wavelength", "phase"}, "arrival"));
    Result<double> amplitude = JsonNumberField(v, "amplitude", "arrival");
    if (!amplitude.ok()) return amplitude.status();
    arrival.amplitude = *amplitude;
    Result<double> wavelength = JsonNumberField(v, "wavelength", "arrival");
    if (!wavelength.ok()) return wavelength.status();
    arrival.wavelength = *wavelength;
    if (v.Find("phase") != nullptr) {
      Result<double> phase = JsonNumberField(v, "phase", "arrival");
      if (!phase.ok()) return phase.status();
      arrival.phase = *phase;
    } else {
      arrival.phase = 0.0;
    }
  } else if (*process == "flash") {
    arrival.process = ArrivalSpec::Process::kFlash;
    OPTSHARE_RETURN_NOT_OK(CheckFields(
        v, {"process", "peak_slot", "width", "multiplier"}, "arrival"));
    Result<int> peak = JsonInt32Field(v, "peak_slot", "arrival");
    if (!peak.ok()) return peak.status();
    arrival.peak_slot = *peak;
    Result<int> width = JsonInt32Field(v, "width", "arrival");
    if (!width.ok()) return width.status();
    arrival.width = *width;
    Result<double> multiplier = JsonNumberField(v, "multiplier", "arrival");
    if (!multiplier.ok()) return multiplier.status();
    arrival.multiplier = *multiplier;
  } else {
    return Status::InvalidArgument(
        "arrival: unknown process \"" + *process +
        "\" (want uniform, early, late, diurnal or flash)");
  }
  return arrival;
}

JsonValue ToJson(const DurationSpec& duration) {
  JsonValue obj = JsonValue::MakeObject();
  switch (duration.kind) {
    case DurationSpec::Kind::kToHorizon:
      obj.Set("to_horizon", JsonValue::Bool(true));
      break;
    case DurationSpec::Kind::kFixed:
      obj.Set("fixed", JsonValue::Number(duration.fixed));
      break;
    case DurationSpec::Kind::kUniform: {
      JsonValue bounds = JsonValue::MakeArray();
      bounds.Append(JsonValue::Number(duration.lo));
      bounds.Append(JsonValue::Number(duration.hi));
      obj.Set("uniform", std::move(bounds));
      break;
    }
  }
  return obj;
}

Result<DurationSpec> DurationFromJson(const JsonValue& v) {
  OPTSHARE_RETURN_NOT_OK(CheckObject(v, "duration"));
  OPTSHARE_RETURN_NOT_OK(
      CheckFields(v, {"to_horizon", "fixed", "uniform"}, "duration"));
  if (v.AsObject().size() != 1) {
    return Status::InvalidArgument(
        "duration: want exactly one of \"to_horizon\", \"fixed\" or "
        "\"uniform\"");
  }
  DurationSpec duration;
  if (v.Find("to_horizon") != nullptr) {
    Result<bool> flag = JsonBoolField(v, "to_horizon", "duration");
    if (!flag.ok()) return flag.status();
    if (!*flag) {
      return Status::InvalidArgument("duration: \"to_horizon\" must be true");
    }
    duration.kind = DurationSpec::Kind::kToHorizon;
  } else if (v.Find("fixed") != nullptr) {
    Result<int> fixed = JsonInt32Field(v, "fixed", "duration");
    if (!fixed.ok()) return fixed.status();
    duration.kind = DurationSpec::Kind::kFixed;
    duration.fixed = *fixed;
  } else {
    const JsonValue* bounds = v.Find("uniform");
    if (!bounds->is_array() || bounds->AsArray().size() != 2 ||
        !bounds->AsArray()[0].is_number() ||
        !bounds->AsArray()[1].is_number()) {
      return Status::InvalidArgument(
          "duration: \"uniform\" must be a [lo, hi] number pair");
    }
    const double lo = bounds->AsArray()[0].AsNumber();
    const double hi = bounds->AsArray()[1].AsNumber();
    if (lo != std::floor(lo) || hi != std::floor(hi)) {
      return Status::InvalidArgument(
          "duration: \"uniform\" bounds must be integers");
    }
    duration.kind = DurationSpec::Kind::kUniform;
    duration.lo = static_cast<int>(lo);
    duration.hi = static_cast<int>(hi);
  }
  return duration;
}

const char* IntervalKindTag(IntervalSpec::Kind kind) {
  switch (kind) {
    case IntervalSpec::Kind::kFull:
      return "full";
    case IntervalSpec::Kind::kStaggered:
      return "staggered";
    case IntervalSpec::Kind::kSampled:
      return "sampled";
  }
  return "full";
}

JsonValue ToJson(const IntervalSpec& interval) {
  JsonValue obj = JsonValue::MakeObject();
  obj.Set("kind", JsonValue::Str(IntervalKindTag(interval.kind)));
  switch (interval.kind) {
    case IntervalSpec::Kind::kFull:
      break;
    case IntervalSpec::Kind::kStaggered:
      obj.Set("modulo", JsonValue::Number(interval.modulo));
      obj.Set("span", JsonValue::Number(interval.span));
      break;
    case IntervalSpec::Kind::kSampled:
      obj.Set("arrival", ToJson(interval.arrival));
      obj.Set("duration", ToJson(interval.duration));
      break;
  }
  return obj;
}

Result<IntervalSpec> IntervalFromJson(const JsonValue& v) {
  OPTSHARE_RETURN_NOT_OK(CheckObject(v, "interval"));
  Result<std::string> kind = JsonStringField(v, "kind", "interval");
  if (!kind.ok()) return kind.status();
  IntervalSpec interval;
  if (*kind == "full") {
    OPTSHARE_RETURN_NOT_OK(CheckFields(v, {"kind"}, "interval"));
    interval.kind = IntervalSpec::Kind::kFull;
  } else if (*kind == "staggered") {
    OPTSHARE_RETURN_NOT_OK(
        CheckFields(v, {"kind", "modulo", "span"}, "interval"));
    interval.kind = IntervalSpec::Kind::kStaggered;
    Result<int> modulo = JsonInt32Field(v, "modulo", "interval");
    if (!modulo.ok()) return modulo.status();
    interval.modulo = *modulo;
    Result<int> span = JsonInt32Field(v, "span", "interval");
    if (!span.ok()) return span.status();
    interval.span = *span;
  } else if (*kind == "sampled") {
    OPTSHARE_RETURN_NOT_OK(
        CheckFields(v, {"kind", "arrival", "duration"}, "interval"));
    interval.kind = IntervalSpec::Kind::kSampled;
    const JsonValue* arrival = v.Find("arrival");
    if (arrival == nullptr) {
      return Status::InvalidArgument("interval: missing \"arrival\"");
    }
    Result<ArrivalSpec> parsed = ArrivalFromJson(*arrival);
    if (!parsed.ok()) return parsed.status();
    interval.arrival = *parsed;
    const JsonValue* duration = v.Find("duration");
    if (duration == nullptr) {
      return Status::InvalidArgument("interval: missing \"duration\"");
    }
    Result<DurationSpec> dur = DurationFromJson(*duration);
    if (!dur.ok()) return dur.status();
    interval.duration = *dur;
  } else {
    return Status::InvalidArgument(
        "interval: unknown kind \"" + *kind +
        "\" (want full, staggered or sampled)");
  }
  return interval;
}

JsonValue ToJson(const ExecutionsSpec& executions) {
  JsonValue obj = JsonValue::MakeObject();
  switch (executions.kind) {
    case ExecutionsSpec::Kind::kFixed:
      obj.Set("fixed", JsonValue::Number(executions.fixed));
      break;
    case ExecutionsSpec::Kind::kCycle: {
      JsonValue cycle = JsonValue::MakeArray();
      cycle.Reserve(executions.cycle.size());
      for (double value : executions.cycle) {
        cycle.Append(JsonValue::Number(value));
      }
      obj.Set("cycle", std::move(cycle));
      break;
    }
    case ExecutionsSpec::Kind::kUniform: {
      JsonValue bounds = JsonValue::MakeArray();
      bounds.Append(JsonValue::Number(executions.lo));
      bounds.Append(JsonValue::Number(executions.hi));
      obj.Set("uniform", std::move(bounds));
      break;
    }
    case ExecutionsSpec::Kind::kPareto: {
      JsonValue pareto = JsonValue::MakeObject();
      pareto.Set("scale", JsonValue::Number(executions.scale));
      pareto.Set("alpha", JsonValue::Number(executions.alpha));
      pareto.Set("cap", JsonValue::Number(executions.cap));
      obj.Set("pareto", std::move(pareto));
      break;
    }
  }
  return obj;
}

Result<ExecutionsSpec> ExecutionsFromJson(const JsonValue& v) {
  OPTSHARE_RETURN_NOT_OK(CheckObject(v, "executions"));
  OPTSHARE_RETURN_NOT_OK(CheckFields(
      v, {"fixed", "cycle", "uniform", "pareto"}, "executions"));
  if (v.AsObject().size() != 1) {
    return Status::InvalidArgument(
        "executions: want exactly one of \"fixed\", \"cycle\", \"uniform\" "
        "or \"pareto\"");
  }
  ExecutionsSpec executions;
  if (v.Find("fixed") != nullptr) {
    Result<double> fixed = JsonNumberField(v, "fixed", "executions");
    if (!fixed.ok()) return fixed.status();
    executions.kind = ExecutionsSpec::Kind::kFixed;
    executions.fixed = *fixed;
  } else if (v.Find("cycle") != nullptr) {
    const JsonValue* cycle = v.Find("cycle");
    if (!cycle->is_array()) {
      return Status::InvalidArgument(
          "executions: \"cycle\" must be an array of numbers");
    }
    executions.kind = ExecutionsSpec::Kind::kCycle;
    for (const JsonValue& value : cycle->AsArray()) {
      if (!value.is_number()) {
        return Status::InvalidArgument(
            "executions: \"cycle\" entries must be numbers");
      }
      executions.cycle.push_back(value.AsNumber());
    }
  } else if (v.Find("uniform") != nullptr) {
    const JsonValue* bounds = v.Find("uniform");
    if (!bounds->is_array() || bounds->AsArray().size() != 2 ||
        !bounds->AsArray()[0].is_number() ||
        !bounds->AsArray()[1].is_number()) {
      return Status::InvalidArgument(
          "executions: \"uniform\" must be a [lo, hi] number pair");
    }
    executions.kind = ExecutionsSpec::Kind::kUniform;
    executions.lo = bounds->AsArray()[0].AsNumber();
    executions.hi = bounds->AsArray()[1].AsNumber();
  } else {
    const JsonValue* pareto = v.Find("pareto");
    OPTSHARE_RETURN_NOT_OK(CheckObject(*pareto, "pareto"));
    OPTSHARE_RETURN_NOT_OK(
        CheckFields(*pareto, {"scale", "alpha", "cap"}, "pareto"));
    executions.kind = ExecutionsSpec::Kind::kPareto;
    Result<double> scale = JsonNumberField(*pareto, "scale", "pareto");
    if (!scale.ok()) return scale.status();
    executions.scale = *scale;
    Result<double> alpha = JsonNumberField(*pareto, "alpha", "pareto");
    if (!alpha.ok()) return alpha.status();
    executions.alpha = *alpha;
    if (pareto->Find("cap") != nullptr) {
      Result<double> cap = JsonNumberField(*pareto, "cap", "pareto");
      if (!cap.ok()) return cap.status();
      executions.cap = *cap;
    } else {
      executions.cap = 0.0;
    }
  }
  return executions;
}

// -- Validation -------------------------------------------------------------

Status ValidateArrival(const ArrivalSpec& arrival, int slots,
                       const std::string& ctx) {
  switch (arrival.process) {
    case ArrivalSpec::Process::kUniform:
      break;
    case ArrivalSpec::Process::kEarly:
    case ArrivalSpec::Process::kLate:
      if (!(arrival.mean > 0.0)) {
        return Status::InvalidArgument(ctx + ": arrival mean must be > 0");
      }
      break;
    case ArrivalSpec::Process::kDiurnal:
      if (arrival.amplitude < 0.0 || arrival.amplitude >= 1.0) {
        return Status::InvalidArgument(
            ctx + ": diurnal amplitude must lie in [0, 1)");
      }
      if (!(arrival.wavelength > 0.0)) {
        return Status::InvalidArgument(
            ctx + ": diurnal wavelength must be > 0");
      }
      break;
    case ArrivalSpec::Process::kFlash:
      if (arrival.peak_slot < 1 || arrival.peak_slot > slots) {
        return Status::InvalidArgument(
            ctx + ": flash peak_slot must lie in [1, slots_per_period]");
      }
      if (arrival.width < 0) {
        return Status::InvalidArgument(ctx + ": flash width must be >= 0");
      }
      if (!(arrival.multiplier >= 1.0)) {
        return Status::InvalidArgument(
            ctx + ": flash multiplier must be >= 1");
      }
      break;
  }
  return Status::OK();
}

Status ValidateClass(const TenantClass& cls, int slots,
                     const std::string& ctx) {
  if (cls.count < 0) {
    return Status::InvalidArgument(ctx + ": count must be >= 0");
  }
  if (cls.workloads.empty()) {
    return Status::InvalidArgument(ctx + ": needs at least one workload");
  }
  for (const simdb::Workload& workload : cls.workloads) {
    OPTSHARE_RETURN_NOT_OK(workload.Validate());
  }
  switch (cls.executions.kind) {
    case ExecutionsSpec::Kind::kFixed:
      if (!(cls.executions.fixed > 0.0)) {
        return Status::InvalidArgument(ctx + ": fixed executions must be > 0");
      }
      break;
    case ExecutionsSpec::Kind::kCycle:
      if (cls.executions.cycle.empty()) {
        return Status::InvalidArgument(
            ctx + ": executions cycle must be non-empty");
      }
      for (double value : cls.executions.cycle) {
        if (!(value > 0.0)) {
          return Status::InvalidArgument(
              ctx + ": executions cycle entries must be > 0");
        }
      }
      break;
    case ExecutionsSpec::Kind::kUniform:
      if (!(cls.executions.lo > 0.0) || cls.executions.lo > cls.executions.hi) {
        return Status::InvalidArgument(
            ctx + ": executions uniform bounds need 0 < lo <= hi");
      }
      break;
    case ExecutionsSpec::Kind::kPareto:
      if (!(cls.executions.scale > 0.0)) {
        return Status::InvalidArgument(ctx + ": pareto scale must be > 0");
      }
      if (!(cls.executions.alpha > 0.0)) {
        return Status::InvalidArgument(ctx + ": pareto alpha must be > 0");
      }
      if (cls.executions.cap < 0.0) {
        return Status::InvalidArgument(ctx + ": pareto cap must be >= 0");
      }
      break;
  }
  switch (cls.interval.kind) {
    case IntervalSpec::Kind::kFull:
      break;
    case IntervalSpec::Kind::kStaggered:
      if (cls.interval.modulo < 1) {
        return Status::InvalidArgument(
            ctx + ": staggered modulo must be >= 1");
      }
      if (cls.interval.modulo > slots) {
        return Status::InvalidArgument(
            ctx + ": staggered modulo exceeds slots_per_period");
      }
      if (cls.interval.span < 0) {
        return Status::InvalidArgument(ctx + ": staggered span must be >= 0");
      }
      break;
    case IntervalSpec::Kind::kSampled: {
      OPTSHARE_RETURN_NOT_OK(
          ValidateArrival(cls.interval.arrival, slots, ctx));
      const DurationSpec& duration = cls.interval.duration;
      switch (duration.kind) {
        case DurationSpec::Kind::kToHorizon:
          break;
        case DurationSpec::Kind::kFixed:
          if (duration.fixed < 1) {
            return Status::InvalidArgument(
                ctx + ": fixed duration must be >= 1");
          }
          break;
        case DurationSpec::Kind::kUniform:
          if (duration.lo < 1 || duration.lo > duration.hi) {
            return Status::InvalidArgument(
                ctx + ": duration uniform bounds need 1 <= lo <= hi");
          }
          break;
      }
      break;
    }
  }
  return Status::OK();
}

// -- Sampling ---------------------------------------------------------------

/// Discrete slot draw from per-slot weights (cumulative inversion).
TimeSlot SampleWeightedSlot(Rng& rng, const std::vector<double>& weights) {
  double total = 0.0;
  for (double w : weights) total += w;
  double u = rng.NextDouble() * total;
  for (size_t s = 0; s < weights.size(); ++s) {
    u -= weights[s];
    if (u < 0.0) return static_cast<TimeSlot>(s) + 1;
  }
  return static_cast<TimeSlot>(weights.size());
}

TimeSlot SampleArrivalSlot(Rng& rng, const ArrivalSpec& arrival, int slots) {
  switch (arrival.process) {
    case ArrivalSpec::Process::kUniform:
      return SampleArrival(rng, ArrivalProcess::kUniform, slots);
    case ArrivalSpec::Process::kEarly: {
      ArrivalParams params;
      params.early_mean = arrival.mean;
      return SampleArrival(rng, ArrivalProcess::kEarly, slots, params);
    }
    case ArrivalSpec::Process::kLate: {
      ArrivalParams params;
      params.late_mean = arrival.mean;
      return SampleArrival(rng, ArrivalProcess::kLate, slots, params);
    }
    case ArrivalSpec::Process::kDiurnal: {
      std::vector<double> weights(static_cast<size_t>(slots));
      for (int s = 1; s <= slots; ++s) {
        weights[static_cast<size_t>(s - 1)] =
            1.0 + arrival.amplitude *
                      std::sin(2.0 * kPi *
                               (static_cast<double>(s - 1) + arrival.phase) /
                               arrival.wavelength);
      }
      return SampleWeightedSlot(rng, weights);
    }
    case ArrivalSpec::Process::kFlash: {
      std::vector<double> weights(static_cast<size_t>(slots), 1.0);
      for (int s = 1; s <= slots; ++s) {
        if (std::abs(s - arrival.peak_slot) <= arrival.width) {
          weights[static_cast<size_t>(s - 1)] = arrival.multiplier;
        }
      }
      return SampleWeightedSlot(rng, weights);
    }
  }
  return 1;
}

double SampleExecutions(Rng& rng, const ExecutionsSpec& executions,
                        int member_index) {
  switch (executions.kind) {
    case ExecutionsSpec::Kind::kFixed:
      return executions.fixed;
    case ExecutionsSpec::Kind::kCycle:
      return executions.cycle[static_cast<size_t>(member_index) %
                              executions.cycle.size()];
    case ExecutionsSpec::Kind::kUniform:
      return rng.Uniform(executions.lo, executions.hi);
    case ExecutionsSpec::Kind::kPareto: {
      // Inverse-CDF Pareto: x = scale * u^(-1/alpha), u in (0, 1].
      const double u = 1.0 - rng.NextDouble();
      double x = executions.scale * std::pow(u, -1.0 / executions.alpha);
      if (executions.cap > 0.0) x = std::min(x, executions.cap);
      return x;
    }
  }
  return 1.0;
}

}  // namespace

Status TraceConfig::Validate() const {
  if (periods < 1) {
    return Status::InvalidArgument("trace: periods must be >= 1");
  }
  if (slots_per_period < 1) {
    return Status::InvalidArgument("trace: slots_per_period must be >= 1");
  }
  if (mechanism.empty()) {
    return Status::InvalidArgument("trace: mechanism must be non-empty");
  }
  if (maintenance_fraction < 0.0 || maintenance_fraction > 1.0) {
    return Status::InvalidArgument(
        "trace: maintenance_fraction must lie in [0, 1]");
  }
  const bool has_scenario = !catalog.scenario.empty();
  const bool has_tables = !catalog.tables.empty();
  if (has_scenario == has_tables) {
    return Status::InvalidArgument(
        "catalog: want exactly one of \"scenario\" or \"tables\"");
  }
  if (has_scenario &&
      (catalog.scenario_tenants < 1 || catalog.scenario_slots < 1)) {
    return Status::InvalidArgument(
        "catalog: scenario tenants/slots must be >= 1");
  }
  for (size_t c = 0; c < classes.size(); ++c) {
    const std::string ctx = "class \"" + classes[c].name + "\"";
    OPTSHARE_RETURN_NOT_OK(ValidateClass(classes[c], slots_per_period, ctx));
    for (size_t d = 0; d < c; ++d) {
      if (classes[d].name == classes[c].name) {
        return Status::InvalidArgument("trace: duplicate class name \"" +
                                       classes[c].name + "\"");
      }
    }
  }
  for (const DepartureSpec& departure : departures) {
    if (departure.period < 0 || departure.period > periods) {
      return Status::InvalidArgument(
          "departure: period must lie in [0, periods] (0 = every period)");
    }
    if (departure.slot < 1 || departure.slot > slots_per_period) {
      return Status::InvalidArgument(
          "departure: slot must lie in [1, slots_per_period]");
    }
    if (departure.fraction < 0.0 || departure.fraction > 1.0) {
      return Status::InvalidArgument(
          "departure: fraction must lie in [0, 1]");
    }
    if (!departure.class_name.empty()) {
      bool known = false;
      for (const TenantClass& cls : classes) {
        if (cls.name == departure.class_name) {
          known = true;
          break;
        }
      }
      if (!known) {
        return Status::InvalidArgument("departure: unknown class \"" +
                                       departure.class_name + "\"");
      }
    }
  }
  return Status::OK();
}

Result<TraceConfig> TraceConfigFromJson(const JsonValue& doc) {
  OPTSHARE_RETURN_NOT_OK(CheckObject(doc, "trace"));
  OPTSHARE_RETURN_NOT_OK(CheckFields(
      doc,
      {"name", "seed", "periods", "slots_per_period", "mechanism",
       "maintenance_fraction", "catalog", "classes", "departures"},
      "trace"));
  TraceConfig config;
  if (doc.Find("name") != nullptr) {
    Result<std::string> name = JsonStringField(doc, "name", "trace");
    if (!name.ok()) return name.status();
    config.name = std::move(*name);
  }
  if (doc.Find("seed") != nullptr) {
    Result<int64_t> seed = JsonIntField(doc, "seed", "trace");
    if (!seed.ok()) return seed.status();
    if (*seed < 0) {
      return Status::InvalidArgument("trace: seed must be >= 0");
    }
    config.seed = static_cast<uint64_t>(*seed);
  }
  if (doc.Find("periods") != nullptr) {
    Result<int> periods = JsonInt32Field(doc, "periods", "trace");
    if (!periods.ok()) return periods.status();
    config.periods = *periods;
  }
  if (doc.Find("slots_per_period") != nullptr) {
    Result<int> slots = JsonInt32Field(doc, "slots_per_period", "trace");
    if (!slots.ok()) return slots.status();
    config.slots_per_period = *slots;
  }
  if (doc.Find("mechanism") != nullptr) {
    Result<std::string> mechanism = JsonStringField(doc, "mechanism", "trace");
    if (!mechanism.ok()) return mechanism.status();
    config.mechanism = std::move(*mechanism);
  }
  if (doc.Find("maintenance_fraction") != nullptr) {
    Result<double> fraction =
        JsonNumberField(doc, "maintenance_fraction", "trace");
    if (!fraction.ok()) return fraction.status();
    config.maintenance_fraction = *fraction;
  }

  const JsonValue* catalog = doc.Find("catalog");
  if (catalog == nullptr) {
    return Status::InvalidArgument("trace: missing \"catalog\"");
  }
  OPTSHARE_RETURN_NOT_OK(CheckObject(*catalog, "catalog"));
  OPTSHARE_RETURN_NOT_OK(CheckFields(
      *catalog, {"scenario", "tenants", "slots", "tables"}, "catalog"));
  if (catalog->Find("scenario") != nullptr) {
    Result<std::string> scenario =
        JsonStringField(*catalog, "scenario", "catalog");
    if (!scenario.ok()) return scenario.status();
    config.catalog.scenario = std::move(*scenario);
    if (catalog->Find("tenants") != nullptr) {
      Result<int> tenants = JsonInt32Field(*catalog, "tenants", "catalog");
      if (!tenants.ok()) return tenants.status();
      config.catalog.scenario_tenants = *tenants;
    }
    if (catalog->Find("slots") != nullptr) {
      Result<int> slots = JsonInt32Field(*catalog, "slots", "catalog");
      if (!slots.ok()) return slots.status();
      config.catalog.scenario_slots = *slots;
    }
  }
  if (catalog->Find("tables") != nullptr) {
    Result<const JsonValue::Array*> tables =
        JsonArrayField(*catalog, "tables", "catalog");
    if (!tables.ok()) return tables.status();
    for (const JsonValue& table_v : **tables) {
      Result<simdb::TableDef> table = simdb::TableDefFromJson(table_v);
      if (!table.ok()) return table.status();
      OPTSHARE_RETURN_NOT_OK(table->Validate());
      config.catalog.tables.push_back(std::move(*table));
    }
  }

  Result<const JsonValue::Array*> classes =
      JsonArrayField(doc, "classes", "trace");
  if (!classes.ok()) return classes.status();
  for (const JsonValue& class_v : **classes) {
    OPTSHARE_RETURN_NOT_OK(CheckObject(class_v, "class"));
    OPTSHARE_RETURN_NOT_OK(CheckFields(
        class_v, {"name", "count", "workloads", "executions", "interval"},
        "class"));
    TenantClass cls;
    Result<std::string> name = JsonStringField(class_v, "name", "class");
    if (!name.ok()) return name.status();
    cls.name = std::move(*name);
    Result<int> count = JsonInt32Field(class_v, "count", "class");
    if (!count.ok()) return count.status();
    cls.count = *count;
    Result<const JsonValue::Array*> workloads =
        JsonArrayField(class_v, "workloads", "class");
    if (!workloads.ok()) return workloads.status();
    for (const JsonValue& workload_v : **workloads) {
      Result<simdb::Workload> workload = simdb::WorkloadFromJson(workload_v);
      if (!workload.ok()) return workload.status();
      OPTSHARE_RETURN_NOT_OK(workload->Validate());
      cls.workloads.push_back(std::move(*workload));
    }
    const JsonValue* executions = class_v.Find("executions");
    if (executions == nullptr) {
      return Status::InvalidArgument("class: missing \"executions\"");
    }
    Result<ExecutionsSpec> parsed_exec = ExecutionsFromJson(*executions);
    if (!parsed_exec.ok()) return parsed_exec.status();
    cls.executions = std::move(*parsed_exec);
    const JsonValue* interval = class_v.Find("interval");
    if (interval == nullptr) {
      return Status::InvalidArgument("class: missing \"interval\"");
    }
    Result<IntervalSpec> parsed_interval = IntervalFromJson(*interval);
    if (!parsed_interval.ok()) return parsed_interval.status();
    cls.interval = *parsed_interval;
    config.classes.push_back(std::move(cls));
  }

  if (doc.Find("departures") != nullptr) {
    Result<const JsonValue::Array*> departures =
        JsonArrayField(doc, "departures", "trace");
    if (!departures.ok()) return departures.status();
    for (const JsonValue& departure_v : **departures) {
      OPTSHARE_RETURN_NOT_OK(CheckObject(departure_v, "departure"));
      OPTSHARE_RETURN_NOT_OK(CheckFields(
          departure_v, {"period", "slot", "fraction", "class"}, "departure"));
      DepartureSpec departure;
      Result<int> period = JsonInt32Field(departure_v, "period", "departure");
      if (!period.ok()) return period.status();
      departure.period = *period;
      Result<int> slot = JsonInt32Field(departure_v, "slot", "departure");
      if (!slot.ok()) return slot.status();
      departure.slot = *slot;
      Result<double> fraction =
          JsonNumberField(departure_v, "fraction", "departure");
      if (!fraction.ok()) return fraction.status();
      departure.fraction = *fraction;
      if (departure_v.Find("class") != nullptr) {
        Result<std::string> cls =
            JsonStringField(departure_v, "class", "departure");
        if (!cls.ok()) return cls.status();
        departure.class_name = std::move(*cls);
      }
      config.departures.push_back(std::move(departure));
    }
  }

  OPTSHARE_RETURN_NOT_OK(config.Validate());
  return config;
}

Result<TraceConfig> ParseTraceConfig(std::string_view text) {
  Result<JsonValue> doc = JsonValue::Parse(text);
  if (!doc.ok()) return doc.status();
  return TraceConfigFromJson(*doc);
}

JsonValue ToJson(const TraceConfig& config) {
  JsonValue doc = JsonValue::MakeObject();
  doc.Set("name", JsonValue::Str(config.name));
  doc.Set("seed", JsonValue::Number(static_cast<double>(config.seed)));
  doc.Set("periods", JsonValue::Number(config.periods));
  doc.Set("slots_per_period", JsonValue::Number(config.slots_per_period));
  doc.Set("mechanism", JsonValue::Str(config.mechanism));
  doc.Set("maintenance_fraction",
          JsonValue::Number(config.maintenance_fraction));
  JsonValue catalog = JsonValue::MakeObject();
  if (!config.catalog.scenario.empty()) {
    catalog.Set("scenario", JsonValue::Str(config.catalog.scenario));
    catalog.Set("tenants", JsonValue::Number(config.catalog.scenario_tenants));
    catalog.Set("slots", JsonValue::Number(config.catalog.scenario_slots));
  } else {
    JsonValue tables = JsonValue::MakeArray();
    tables.Reserve(config.catalog.tables.size());
    for (const simdb::TableDef& table : config.catalog.tables) {
      tables.Append(simdb::ToJson(table));
    }
    catalog.Set("tables", std::move(tables));
  }
  doc.Set("catalog", std::move(catalog));
  JsonValue classes = JsonValue::MakeArray();
  classes.Reserve(config.classes.size());
  for (const TenantClass& cls : config.classes) {
    JsonValue c = JsonValue::MakeObject();
    c.Set("name", JsonValue::Str(cls.name));
    c.Set("count", JsonValue::Number(cls.count));
    JsonValue workloads = JsonValue::MakeArray();
    workloads.Reserve(cls.workloads.size());
    for (const simdb::Workload& workload : cls.workloads) {
      workloads.Append(simdb::ToJson(workload));
    }
    c.Set("workloads", std::move(workloads));
    c.Set("executions", ToJson(cls.executions));
    c.Set("interval", ToJson(cls.interval));
    classes.Append(std::move(c));
  }
  doc.Set("classes", std::move(classes));
  JsonValue departures = JsonValue::MakeArray();
  departures.Reserve(config.departures.size());
  for (const DepartureSpec& departure : config.departures) {
    JsonValue d = JsonValue::MakeObject();
    d.Set("period", JsonValue::Number(departure.period));
    d.Set("slot", JsonValue::Number(departure.slot));
    d.Set("fraction", JsonValue::Number(departure.fraction));
    if (!departure.class_name.empty()) {
      d.Set("class", JsonValue::Str(departure.class_name));
    }
    departures.Append(std::move(d));
  }
  doc.Set("departures", std::move(departures));
  return doc;
}

Result<Trace> GenerateTrace(const TraceConfig& config) {
  OPTSHARE_RETURN_NOT_OK(config.Validate());
  Trace trace;
  trace.name = config.name;
  trace.seed = config.seed;
  trace.slots_per_period = config.slots_per_period;
  const int z = config.slots_per_period;

  Rng root(config.seed);
  for (int p = 1; p <= config.periods; ++p) {
    // One independent stream per period: editing a later period's
    // population never perturbs an earlier one.
    Rng rng = root.Fork(static_cast<uint64_t>(p));
    TracePeriod period;

    // Draw order is frozen (and therefore part of the format): classes in
    // document order, members in index order; within a member, interval
    // first (arrival, then duration), then executions.
    for (size_t c = 0; c < config.classes.size(); ++c) {
      const TenantClass& cls = config.classes[c];
      for (int i = 0; i < cls.count; ++i) {
        TraceTenant drawn;
        drawn.class_index = static_cast<int>(c);
        drawn.member_index = i;
        simdb::SimUser& tenant = drawn.tenant;
        tenant.workload =
            cls.workloads[static_cast<size_t>(i) % cls.workloads.size()];
        switch (cls.interval.kind) {
          case IntervalSpec::Kind::kFull:
            tenant.start = 1;
            tenant.end = z;
            break;
          case IntervalSpec::Kind::kStaggered:
            tenant.start = 1 + (i % cls.interval.modulo);
            tenant.end = std::min<TimeSlot>(
                tenant.start + cls.interval.span, z);
            break;
          case IntervalSpec::Kind::kSampled: {
            tenant.start = SampleArrivalSlot(rng, cls.interval.arrival, z);
            const DurationSpec& duration = cls.interval.duration;
            switch (duration.kind) {
              case DurationSpec::Kind::kToHorizon:
                tenant.end = z;
                break;
              case DurationSpec::Kind::kFixed:
                tenant.end = std::min<TimeSlot>(
                    tenant.start + duration.fixed - 1, z);
                break;
              case DurationSpec::Kind::kUniform: {
                const int d = static_cast<int>(
                    rng.UniformInt(duration.lo, duration.hi));
                tenant.end = std::min<TimeSlot>(tenant.start + d - 1, z);
                break;
              }
            }
            break;
          }
        }
        tenant.executions_per_slot = SampleExecutions(rng, cls.executions, i);
        period.tenants.push_back(std::move(drawn));
      }
    }

    // Correlated mass-departures, rules in document order. A tenant's
    // effective end shrinks monotonically; rules only consider tenants
    // still present at the rule's slot.
    std::vector<TimeSlot> eff_end(period.tenants.size());
    for (size_t t = 0; t < period.tenants.size(); ++t) {
      eff_end[t] = period.tenants[t].tenant.end;
    }
    for (const DepartureSpec& rule : config.departures) {
      if (rule.period != 0 && rule.period != p) continue;
      std::vector<int> eligible;
      for (size_t t = 0; t < period.tenants.size(); ++t) {
        const TraceTenant& drawn = period.tenants[t];
        if (!rule.class_name.empty() &&
            config.classes[static_cast<size_t>(drawn.class_index)].name !=
                rule.class_name) {
          continue;
        }
        if (drawn.tenant.start <= rule.slot && rule.slot < eff_end[t]) {
          eligible.push_back(static_cast<int>(t));
        }
      }
      const int k = static_cast<int>(std::floor(
          rule.fraction * static_cast<double>(eligible.size()) + 0.5));
      if (k <= 0) continue;
      std::vector<int> picks =
          rng.SampleWithoutReplacement(static_cast<int>(eligible.size()), k);
      for (int pick : picks) {
        const int t = eligible[static_cast<size_t>(pick)];
        eff_end[static_cast<size_t>(t)] = rule.slot;
        period.departures.push_back({rule.slot, t});
      }
    }
    std::sort(period.departures.begin(), period.departures.end(),
              [](const TraceDeparture& a, const TraceDeparture& b) {
                return a.slot != b.slot ? a.slot < b.slot
                                        : a.tenant_index < b.tenant_index;
              });
    trace.periods.push_back(std::move(period));
  }
  return trace;
}

JsonValue ToJson(const Trace& trace) {
  JsonValue doc = JsonValue::MakeObject();
  doc.Set("name", JsonValue::Str(trace.name));
  doc.Set("seed", JsonValue::Number(static_cast<double>(trace.seed)));
  doc.Set("slots_per_period", JsonValue::Number(trace.slots_per_period));
  JsonValue periods = JsonValue::MakeArray();
  periods.Reserve(trace.periods.size());
  for (const TracePeriod& period : trace.periods) {
    JsonValue p = JsonValue::MakeObject();
    JsonValue tenants = JsonValue::MakeArray();
    tenants.Reserve(period.tenants.size());
    for (const TraceTenant& drawn : period.tenants) {
      JsonValue t = simdb::ToJson(drawn.tenant);
      t.Set("class", JsonValue::Number(drawn.class_index));
      t.Set("member", JsonValue::Number(drawn.member_index));
      tenants.Append(std::move(t));
    }
    p.Set("tenants", std::move(tenants));
    JsonValue departures = JsonValue::MakeArray();
    departures.Reserve(period.departures.size());
    for (const TraceDeparture& departure : period.departures) {
      JsonValue d = JsonValue::MakeObject();
      d.Set("slot", JsonValue::Number(departure.slot));
      d.Set("tenant", JsonValue::Number(departure.tenant_index));
      departures.Append(std::move(d));
    }
    p.Set("departures", std::move(departures));
    periods.Append(std::move(p));
  }
  doc.Set("periods", std::move(periods));
  return doc;
}

Result<JsonValue> PresetConfigDocument(const std::string& name,
                                       int num_tenants, int num_slots) {
  if (num_tenants < 1 || num_slots < 1) {
    return Status::InvalidArgument("need at least one tenant and one slot");
  }
  TraceConfig config;
  config.name = name;
  config.seed = 0;  // The presets are fully deterministic: no draws.
  config.periods = 1;
  config.slots_per_period = num_slots;

  const auto single_query_workload = [](std::string table,
                                        std::vector<simdb::Predicate> preds) {
    simdb::Workload workload;
    simdb::Workload::Entry entry;
    entry.frequency = 1.0;
    entry.query.table = std::move(table);
    entry.query.predicates = std::move(preds);
    entry.query.aggregate = true;
    workload.entries.push_back(std::move(entry));
    return workload;
  };

  if (name == "clickstream") {
    simdb::TableDef events;
    events.name = "events";
    events.columns = {
        {"event_id", simdb::ColumnType::kInt64, 2'000'000'000},
        {"user_id", simdb::ColumnType::kInt64, 50'000'000},
        {"kind", simdb::ColumnType::kString, 200},
        {"ts", simdb::ColumnType::kInt64, 86'400'000},
    };
    events.row_count = 2'000'000'000;
    config.catalog.tables.push_back(std::move(events));

    TenantClass funnels;
    funnels.name = "funnels";
    funnels.count = num_tenants;
    funnels.workloads.push_back(single_query_workload(
        "events", {{"user_id", 2e-8}, {"kind", 0.005}}));
    funnels.executions.kind = ExecutionsSpec::Kind::kCycle;
    funnels.executions.cycle = {200.0, 400.0, 600.0, 800.0};
    funnels.interval.kind = IntervalSpec::Kind::kStaggered;
    funnels.interval.modulo = std::max(1, num_slots / 2);
    funnels.interval.span = num_slots / 2;
    config.classes.push_back(std::move(funnels));
  } else if (name == "retail") {
    simdb::TableDef sales;
    sales.name = "sales";
    sales.columns = {
        {"sale_id", simdb::ColumnType::kInt64, 800'000'000},
        {"region", simdb::ColumnType::kString, 40},
        {"sku", simdb::ColumnType::kInt64, 100'000},
        {"amount", simdb::ColumnType::kDouble, 1'000'000},
    };
    sales.row_count = 800'000'000;
    config.catalog.tables.push_back(std::move(sales));

    TenantClass reports;
    reports.name = "reports";
    reports.count = num_tenants;
    // Alternate between region rollups and sku drill-downs.
    reports.workloads.push_back(
        single_query_workload("sales", {{"region", 1.0 / 40}}));
    reports.workloads.push_back(
        single_query_workload("sales", {{"sku", 1.0 / 100'000}}));
    reports.executions.kind = ExecutionsSpec::Kind::kCycle;
    reports.executions.cycle = {50.0, 100.0, 150.0};
    reports.interval.kind = IntervalSpec::Kind::kFull;
    config.classes.push_back(std::move(reports));
  } else if (name == "telemetry") {
    simdb::TableDef telemetry;
    telemetry.name = "telemetry";
    telemetry.columns = {
        {"device", simdb::ColumnType::kInt64, 5'000'000},
        {"metric", simdb::ColumnType::kInt64, 64},
        {"value", simdb::ColumnType::kDouble, 1'000'000},
    };
    telemetry.row_count = 1'000'000'000;
    config.catalog.tables.push_back(std::move(telemetry));

    TenantClass series;
    series.name = "series";
    series.count = num_tenants;
    series.workloads.push_back(
        single_query_workload("telemetry", {{"device", 2e-7}}));
    // A mix of enterprise (heavy) and starter (light) tenants.
    series.executions.kind = ExecutionsSpec::Kind::kCycle;
    series.executions.cycle = {2500.0, 150.0, 150.0};
    series.interval.kind = IntervalSpec::Kind::kFull;
    config.classes.push_back(std::move(series));
  } else {
    return Status::InvalidArgument(
        "unknown preset \"" + name +
        "\" (want clickstream, retail or telemetry)");
  }
  return ToJson(config);
}

Result<simdb::Catalog> BuildTraceCatalog(const TraceCatalog& catalog) {
  if (!catalog.scenario.empty()) {
    Result<simdb::Scenario> scenario =
        catalog.scenario == "clickstream"
            ? simdb::ClickstreamScenario(catalog.scenario_tenants,
                                         catalog.scenario_slots)
        : catalog.scenario == "retail"
            ? simdb::RetailScenario(catalog.scenario_tenants,
                                    catalog.scenario_slots)
        : catalog.scenario == "telemetry"
            ? simdb::TelemetryScenario(catalog.scenario_tenants,
                                       catalog.scenario_slots)
            : Result<simdb::Scenario>(Status::NotFound(
                  "unknown scenario \"" + catalog.scenario +
                  "\" (clickstream, retail, telemetry)"));
    if (!scenario.ok()) return scenario.status();
    return std::move(scenario->catalog);
  }
  simdb::Catalog built;
  for (const simdb::TableDef& table : catalog.tables) {
    OPTSHARE_RETURN_NOT_OK(built.AddTable(table));
  }
  return built;
}

std::vector<int> ArrivalHistogram(const TracePeriod& period, int num_slots) {
  std::vector<int> counts(static_cast<size_t>(std::max(0, num_slots)), 0);
  for (const TraceTenant& drawn : period.tenants) {
    const TimeSlot s = drawn.tenant.start;
    if (s >= 1 && s <= num_slots) ++counts[static_cast<size_t>(s - 1)];
  }
  return counts;
}

double TailRatio(const TracePeriod& period) {
  if (period.tenants.empty()) return 0.0;
  std::vector<double> sizes;
  sizes.reserve(period.tenants.size());
  for (const TraceTenant& drawn : period.tenants) {
    sizes.push_back(drawn.tenant.executions_per_slot);
  }
  std::sort(sizes.begin(), sizes.end());
  const double median = sizes[sizes.size() / 2];
  return median > 0.0 ? sizes.back() / median : 0.0;
}

}  // namespace optshare::strategy
