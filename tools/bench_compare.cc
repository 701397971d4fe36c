// CI perf gate: diffs freshly-produced BENCH_*.json artifacts against the
// same harnesses' output at a base commit, holding every gated metric
// (bench/baselines/gates.json) inside its allowed envelope. Two gate
// flavors:
//
//   - max_regress_pct: the current value may trail the base run's by at
//     most that percentage (direction-aware). For absolute rates (req/s,
//     lines/s) the margins are generous — the gate exists to catch
//     order-of-magnitude cliffs, not 5% jitter.
//   - min / max: absolute bounds on the current value alone, for
//     machine-independent ratios (speedups, latency ratios, attack gains)
//     that must hold on any hardware. An artifact gated only this way
//     needs no base run (BENCH_serving.json has none).
//
// A metric entry may carry "waiver": "<reason>" to skip it temporarily;
// the waiver is printed so it cannot rot silently. Exits non-zero when any
// un-waived gate fails, after printing the full trajectory table.
//
//   bench_compare [--baselines BASE_DIR] [--current DIR] [--gates PATH]
//
// BASE_DIR holds the base commit's BENCH_*.json, produced on the same
// machine (bench/baselines/README.md).
#include <cstdio>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.h"

namespace optshare {
namespace {

Result<JsonValue> LoadJson(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return JsonValue::Parse(buffer.str());
}

/// Resolves a dotted metric path with `name[key=value]` array selectors,
/// e.g. "kinds[kind=submit_32].roundtrip_speedup_fast_vs_tree" or
/// "sweep[workers=8,clients=16].requests_per_sec".
const JsonValue* Resolve(const JsonValue& root, const std::string& path) {
  const JsonValue* node = &root;
  size_t pos = 0;
  while (pos < path.size()) {
    size_t dot = path.find('.', pos);
    if (dot == std::string::npos) dot = path.size();
    std::string segment = path.substr(pos, dot - pos);
    pos = dot + 1;

    std::string selector;
    const size_t bracket = segment.find('[');
    if (bracket != std::string::npos) {
      if (segment.back() != ']') return nullptr;
      selector = segment.substr(bracket + 1,
                                segment.size() - bracket - 2);
      segment = segment.substr(0, bracket);
    }
    node = node->Find(segment);
    if (node == nullptr) return nullptr;
    if (selector.empty()) continue;

    if (!node->is_array()) return nullptr;
    const JsonValue* match = nullptr;
    for (const JsonValue& element : node->AsArray()) {
      if (!element.is_object()) continue;
      bool all = true;
      size_t spos = 0;
      while (spos < selector.size()) {
        size_t comma = selector.find(',', spos);
        if (comma == std::string::npos) comma = selector.size();
        const std::string clause = selector.substr(spos, comma - spos);
        spos = comma + 1;
        const size_t eq = clause.find('=');
        if (eq == std::string::npos) return nullptr;
        const std::string key = clause.substr(0, eq);
        const std::string want = clause.substr(eq + 1);
        const JsonValue* field = element.Find(key);
        if (field == nullptr) {
          all = false;
          break;
        }
        // String fields compare verbatim; numbers via their canonical dump.
        const std::string have =
            field->is_string() ? field->AsString() : field->Dump();
        if (have != want) {
          all = false;
          break;
        }
      }
      if (all) {
        match = &element;
        break;
      }
    }
    if (match == nullptr) return nullptr;
    node = match;
  }
  return node;
}

std::optional<double> ResolveNumber(const JsonValue& root,
                                    const std::string& path) {
  const JsonValue* node = Resolve(root, path);
  if (node == nullptr || !node->is_number()) return std::nullopt;
  return node->AsNumber();
}

struct GateResult {
  std::string file;
  std::string path;
  std::optional<double> baseline;
  std::optional<double> current;
  std::string verdict;  // "ok", "FAIL", "waived", "n/a"
  std::string detail;
};

std::string FormatCell(const std::optional<double>& v) {
  if (!v) return "-";
  char buf[32];
  if (*v == static_cast<long long>(*v) && *v > -1e15 && *v < 1e15) {
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(*v));
  } else {
    std::snprintf(buf, sizeof(buf), "%.4g", *v);
  }
  return buf;
}

}  // namespace
}  // namespace optshare

int main(int argc, char** argv) {
  using namespace optshare;

  std::string baselines_dir = "bench/baselines";
  std::string current_dir = ".";
  std::string gates_path;
  for (int a = 1; a < argc; ++a) {
    const std::string arg = argv[a];
    if (arg == "--baselines" && a + 1 < argc) {
      baselines_dir = argv[++a];
    } else if (arg == "--current" && a + 1 < argc) {
      current_dir = argv[++a];
    } else if (arg == "--gates" && a + 1 < argc) {
      gates_path = argv[++a];
    } else {
      std::cerr << "usage: bench_compare [--baselines DIR] [--current DIR] "
                   "[--gates PATH]\n";
      return 2;
    }
  }
  if (gates_path.empty()) gates_path = baselines_dir + "/gates.json";

  Result<JsonValue> gates = LoadJson(gates_path);
  if (!gates.ok()) {
    std::cerr << "bench_compare: " << gates.status().ToString() << "\n";
    return 2;
  }
  const JsonValue* files = gates->Find("files");
  if (files == nullptr || !files->is_array()) {
    std::cerr << "bench_compare: gates file has no \"files\" array\n";
    return 2;
  }

  std::vector<GateResult> results;
  bool failed = false;

  for (const JsonValue& file_gate : files->AsArray()) {
    const JsonValue* name = file_gate.Find("file");
    if (name == nullptr || !name->is_string()) {
      std::cerr << "bench_compare: gate entry without \"file\"\n";
      return 2;
    }
    const std::string file = name->AsString();
    Result<JsonValue> current = LoadJson(current_dir + "/" + file);
    Result<JsonValue> baseline = LoadJson(baselines_dir + "/" + file);
    if (!current.ok()) {
      GateResult r;
      r.file = file;
      r.path = "(artifact)";
      r.verdict = "FAIL";
      r.detail = "missing current artifact: " + current.status().ToString();
      results.push_back(r);
      failed = true;
      continue;
    }

    const JsonValue* metrics = file_gate.Find("metrics");
    if (metrics == nullptr || !metrics->is_array()) continue;
    for (const JsonValue& metric : metrics->AsArray()) {
      GateResult r;
      r.file = file;
      const JsonValue* path = metric.Find("path");
      if (path == nullptr || !path->is_string()) {
        std::cerr << "bench_compare: metric without \"path\" in " << file
                  << "\n";
        return 2;
      }
      r.path = path->AsString();
      r.current = ResolveNumber(*current, r.path);
      if (baseline.ok()) r.baseline = ResolveNumber(*baseline, r.path);

      if (const JsonValue* waiver = metric.Find("waiver")) {
        r.verdict = "waived";
        r.detail = waiver->is_string() ? waiver->AsString() : "(waived)";
        results.push_back(r);
        continue;
      }
      if (!r.current) {
        r.verdict = "FAIL";
        r.detail = "metric missing from current artifact";
        results.push_back(r);
        failed = true;
        continue;
      }

      const JsonValue* direction = metric.Find("direction");
      const bool higher_is_better =
          direction == nullptr || !direction->is_string() ||
          direction->AsString() != "lower_is_better";

      r.verdict = "ok";
      if (const JsonValue* min = metric.Find("min");
          min != nullptr && min->is_number() &&
          *r.current < min->AsNumber()) {
        r.verdict = "FAIL";
        r.detail = "below floor " + FormatCell(min->AsNumber());
      }
      if (const JsonValue* max = metric.Find("max");
          max != nullptr && max->is_number() &&
          *r.current > max->AsNumber()) {
        r.verdict = "FAIL";
        r.detail = "above ceiling " + FormatCell(max->AsNumber());
      }
      if (const JsonValue* regress = metric.Find("max_regress_pct");
          regress != nullptr && regress->is_number()) {
        if (!r.baseline) {
          r.verdict = "FAIL";
          r.detail = "no baseline for regression gate (" + baselines_dir +
                     "/" + file + ")";
        } else if (*r.baseline != 0.0) {
          const double delta_pct =
              higher_is_better
                  ? (*r.baseline - *r.current) / *r.baseline * 100.0
                  : (*r.current - *r.baseline) / *r.baseline * 100.0;
          if (delta_pct > regress->AsNumber()) {
            r.verdict = "FAIL";
            char buf[64];
            std::snprintf(buf, sizeof(buf), "regressed %.1f%% (cap %.1f%%)",
                          delta_pct, regress->AsNumber());
            r.detail = buf;
          }
        }
      }
      if (r.verdict == "FAIL") failed = true;
      results.push_back(r);
    }
  }

  // The trajectory table: every gated metric, baseline -> current.
  std::printf("%-90s %14s %14s %8s %s\n", "metric", "baseline", "current",
              "delta%", "verdict");
  for (const GateResult& r : results) {
    std::string delta = "-";
    if (r.baseline && r.current && *r.baseline != 0.0) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%+.1f",
                    (*r.current - *r.baseline) / *r.baseline * 100.0);
      delta = buf;
    }
    const std::string label = r.file + ":" + r.path;
    std::printf("%-90s %14s %14s %8s %s%s%s\n", label.c_str(),
                FormatCell(r.baseline).c_str(), FormatCell(r.current).c_str(),
                delta.c_str(), r.verdict.c_str(),
                r.detail.empty() ? "" : " — ", r.detail.c_str());
  }

  if (failed) {
    std::cerr << "\nbench_compare: perf gate FAILED (see table above). If "
                 "the change is intentional, add a waiver per "
                 "bench/baselines/README.md.\n";
    return 1;
  }
  std::cout << "\nbench_compare: all gates passed\n";
  return 0;
}
