#include "service/fast_wire.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <system_error>
#include <vector>

#include "simdb/pricing.h"
#include "simdb/query.h"

namespace optshare::service::protocol {
namespace {

/// The payload fields the scanner models. It takes an op only when it
/// models every field the op allows — not the nested catalog/config, nor
/// the cluster ops' opaque record/snapshot/placement — and the op's
/// tenancy is required or forbidden, never optional. The tree parser
/// handles every other op.
constexpr uint32_t kScannedFields = field::kTenants | field::kTenant |
                                    field::kSlots | field::kPeriod |
                                    field::kRequests;

constexpr bool Scanned(const OpSpec& spec) {
  return spec.tenancy != TenancyRule::kOptional &&
         (spec.allowed & ~kScannedFields) == 0;
}

// One-pass scanner over a request line. Every method returns false on the
// first sign of anything it is not certain about; the caller then falls
// back to the tree parser, which owns the accept/reject decision and every
// error message. Lexical rules (whitespace set, number charset,
// escape decoding) deliberately replicate common/json.cc's Parser so a
// fast-accepted line yields the exact Request the tree would have built.
class FastScanner {
 public:
  explicit FastScanner(std::string_view text) : text_(text) {}

  bool Scan(Request* out) {
    // ParseRequestLine hands us a fresh Request, but honor the "clobbered
    // either way" contract for any caller that reuses one.
    out->id.clear();
    out->tenancy.clear();
    out->catalog.reset();
    out->config.reset();
    out->tenants.clear();
    out->tenant = -1;
    out->slots = 1;
    out->period = 0;
    out->record.clear();
    out->snapshot.reset();
    out->placement.reset();
    out->requests.clear();

    SkipWs();
    if (!ScanRequestObject(out, /*member=*/false)) return false;
    SkipWs();
    return pos_ == text_.size();  // trailing garbage otherwise
  }

 private:
  /// One request document, top-level or as a batch member. Members refuse
  /// the ops the tree parser rejects inside a batch (nested batch,
  /// shutdown) by bailing, so the tree re-derives the exact error.
  bool ScanRequestObject(Request* out, bool member) {
    if (!Consume('{')) return false;
    bool seen_v = false, seen_op = false, seen_id = false,
         seen_tenancy = false;
    uint32_t seen = 0;  // field:: bits of the payload fields scanned.
    int version = 0;
    const OpSpec* spec = nullptr;
    SkipWs();
    if (!Consume('}')) {
      while (true) {
        SkipWs();
        std::string_view key;
        if (!ScanKey(&key)) return false;
        SkipWs();
        if (!Consume(':')) return false;
        SkipWs();
        if (key == "v") {
          // CheckVersion: a number, integral, within the spoken range.
          double d = 0.0;
          if (seen_v || !ScanNumber(&d)) return false;
          if (d != std::floor(d) || d < kMinProtocolVersion ||
              d > kProtocolVersion) {
            return false;
          }
          version = static_cast<int>(d);
          seen_v = true;
        } else if (key == "op") {
          if (seen_op || !ScanStringInto(&op_name_)) return false;
          std::optional<RequestOp> parsed = RequestOpFromName(op_name_);
          if (!parsed) return false;
          spec = &SpecOf(*parsed);
          if (!Scanned(*spec)) return false;
          if (member && (spec->flags & kBatchable) == 0) return false;
          seen_op = true;
        } else if (key == "id") {
          if (seen_id || !ScanStringInto(&out->id)) return false;
          seen_id = true;
        } else if (key == "tenancy") {
          if (seen_tenancy || !ScanStringInto(&out->tenancy)) return false;
          seen_tenancy = true;
        } else if (key == "tenants") {
          if (!Mark(field::kTenants, &seen) || !ScanTenants(&out->tenants)) {
            return false;
          }
        } else if (key == "tenant") {
          int tenant = 0;
          if (!Mark(field::kTenant, &seen) || !ScanInt(&tenant)) return false;
          out->tenant = tenant;
        } else if (key == "slots") {
          int slots = 0;
          if (!Mark(field::kSlots, &seen) || !ScanInt(&slots)) return false;
          if (slots < 1) return false;  // advance_slot rejects; others too.
          out->slots = slots;
        } else if (key == "period") {
          int period = 0;
          if (!Mark(field::kPeriod, &seen) || !ScanInt(&period)) return false;
          if (period < 1) return false;  // report rejects; others too.
          out->period = period;
        } else if (key == "requests" && !member) {
          // A batch's member array: each element is a full request
          // document; a non-batch op with this field bails below.
          if (!Mark(field::kRequests, &seen) ||
              !ScanMembers(&out->requests)) {
            return false;
          }
        } else {
          // Unknown to the scanner: a field it does not model or one the
          // tree parser rejects. Either way, its call.
          return false;
        }
        SkipWs();
        if (Consume('}')) break;
        if (!Consume(',')) return false;
      }
    }

    // The tree parser's post-parse validation, as accept-only conditions.
    if (!seen_v || !seen_op) return false;
    if (version < spec->min_version) return false;
    if (seen_tenancy != (spec->tenancy == TenancyRule::kRequired)) {
      return false;
    }
    if (seen_tenancy && out->tenancy.empty()) return false;
    if ((seen & ~spec->allowed) != 0 || (spec->required & ~seen) != 0) {
      return false;
    }
    out->op = spec->op;
    out->version = version;
    return true;
  }

  /// Records one payload field as seen; false on a duplicate key (the tree
  /// parser keeps the last value, so it must decide).
  static bool Mark(uint32_t bit, uint32_t* seen) {
    if ((*seen & bit) != 0) return false;
    *seen |= bit;
    return true;
  }

  /// The batch "requests" array. Empty arrays bail (the tree parser
  /// rejects them with its own message).
  bool ScanMembers(std::vector<Request>* out) {
    out->clear();
    if (!Consume('[')) return false;
    SkipWs();
    if (Consume(']')) return false;  // tree rejects an empty batch
    while (true) {
      SkipWs();
      Request request;
      if (!ScanRequestObject(&request, /*member=*/true)) return false;
      out->push_back(std::move(request));
      SkipWs();
      if (Consume(']')) return true;
      if (!Consume(',')) return false;
    }
  }

  void SkipWs() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ConsumeLiteral(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) == literal) {
      pos_ += literal.size();
      return true;
    }
    return false;
  }

  /// An object key as its raw span. Escaped keys bail to the tree parser
  /// (decoding could alias a known field name; not worth modeling).
  bool ScanKey(std::string_view* key) {
    if (!Consume('"')) return false;
    const size_t start = pos_;
    while (pos_ < text_.size() && text_[pos_] != '"' && text_[pos_] != '\\') {
      ++pos_;
    }
    if (pos_ >= text_.size() || text_[pos_] == '\\') return false;
    *key = text_.substr(start, pos_ - start);
    ++pos_;
    return true;
  }

  /// A string value. The escape-free common case assigns the raw span;
  /// otherwise decodes exactly as Parser::ParseRawString (any escape the
  /// tree rejects bails here too).
  bool ScanStringInto(std::string* out) {
    if (!Consume('"')) return false;
    const size_t start = pos_;
    while (pos_ < text_.size() && text_[pos_] != '"' && text_[pos_] != '\\') {
      ++pos_;
    }
    if (pos_ >= text_.size()) return false;
    out->assign(text_.data() + start, pos_ - start);
    if (text_[pos_] == '"') {
      ++pos_;
      return true;
    }
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) return false;
      const char esc = text_[pos_++];
      switch (esc) {
        case '"':
          out->push_back('"');
          break;
        case '\\':
          out->push_back('\\');
          break;
        case '/':
          out->push_back('/');
          break;
        case 'n':
          out->push_back('\n');
          break;
        case 't':
          out->push_back('\t');
          break;
        case 'r':
          out->push_back('\r');
          break;
        case 'b':
          out->push_back('\b');
          break;
        case 'f':
          out->push_back('\f');
          break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return false;
          unsigned code = 0;
          for (int k = 0; k < 4; ++k) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              return false;
            }
          }
          // UTF-8 encode (BMP only), mirroring the tree parser.
          if (code < 0x80) {
            out->push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out->push_back(static_cast<char>(0xC0 | (code >> 6)));
            out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out->push_back(static_cast<char>(0xE0 | (code >> 12)));
            out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default:
          return false;
      }
    }
    return false;  // unterminated
  }

  /// Same charset scan + full-match from_chars as Parser::ParseNumber.
  bool ScanNumber(double* out) {
    const size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) return false;
    double d = 0.0;
    const auto [ptr, ec] =
        std::from_chars(text_.data() + start, text_.data() + pos_, d);
    if (ec != std::errc() || ptr != text_.data() + pos_) return false;
    *out = d;
    return true;
  }

  /// A number that GetInt accepts: integral and within int range.
  bool ScanInt(int* out) {
    double d = 0.0;
    if (!ScanNumber(&d)) return false;
    if (d != std::floor(d) || d < -2147483648.0 || d > 2147483647.0) {
      return false;
    }
    *out = static_cast<int>(d);
    return true;
  }

  bool ScanBool(bool* out) {
    if (ConsumeLiteral("true")) {
      *out = true;
      return true;
    }
    if (ConsumeLiteral("false")) {
      *out = false;
      return true;
    }
    return false;
  }

  // -- The submit payload, mirroring SimUserFromJson's strictness ----------

  bool ScanTenants(std::vector<simdb::SimUser>* out) {
    out->clear();
    if (!Consume('[')) return false;
    SkipWs();
    if (Consume(']')) return true;
    while (true) {
      SkipWs();
      simdb::SimUser tenant;
      if (!ScanSimUser(&tenant)) return false;
      out->push_back(std::move(tenant));
      SkipWs();
      if (Consume(']')) return true;
      if (!Consume(',')) return false;
    }
  }

  bool ScanSimUser(simdb::SimUser* out) {
    if (!Consume('{')) return false;
    bool seen_start = false, seen_end = false, seen_exec = false,
         seen_workload = false;
    SkipWs();
    if (!Consume('}')) {
      while (true) {
        SkipWs();
        std::string_view key;
        if (!ScanKey(&key)) return false;
        SkipWs();
        if (!Consume(':')) return false;
        SkipWs();
        if (key == "start") {
          int slot = 0;
          if (seen_start || !ScanInt(&slot)) return false;
          out->start = slot;
          seen_start = true;
        } else if (key == "end") {
          int slot = 0;
          if (seen_end || !ScanInt(&slot)) return false;
          out->end = slot;
          seen_end = true;
        } else if (key == "executions_per_slot") {
          if (seen_exec || !ScanNumber(&out->executions_per_slot)) {
            return false;
          }
          seen_exec = true;
        } else if (key == "workload") {
          if (seen_workload || !ScanWorkload(&out->workload)) return false;
          seen_workload = true;
        } else {
          return false;
        }
        SkipWs();
        if (Consume('}')) break;
        if (!Consume(',')) return false;
      }
    }
    return seen_start && seen_end && seen_exec && seen_workload;
  }

  bool ScanWorkload(simdb::Workload* out) {
    out->entries.clear();
    if (!Consume('[')) return false;
    SkipWs();
    if (Consume(']')) return true;
    while (true) {
      SkipWs();
      simdb::Workload::Entry entry;
      if (!ScanWorkloadEntry(&entry)) return false;
      out->entries.push_back(std::move(entry));
      SkipWs();
      if (Consume(']')) return true;
      if (!Consume(',')) return false;
    }
  }

  bool ScanWorkloadEntry(simdb::Workload::Entry* out) {
    if (!Consume('{')) return false;
    bool seen_frequency = false, seen_query = false;
    SkipWs();
    if (!Consume('}')) {
      while (true) {
        SkipWs();
        std::string_view key;
        if (!ScanKey(&key)) return false;
        SkipWs();
        if (!Consume(':')) return false;
        SkipWs();
        if (key == "frequency") {
          if (seen_frequency || !ScanNumber(&out->frequency)) return false;
          seen_frequency = true;
        } else if (key == "query") {
          if (seen_query || !ScanQuery(&out->query)) return false;
          seen_query = true;
        } else {
          return false;
        }
        SkipWs();
        if (Consume('}')) break;
        if (!Consume(',')) return false;
      }
    }
    return seen_frequency && seen_query;
  }

  bool ScanQuery(simdb::Query* out) {
    if (!Consume('{')) return false;
    bool seen_table = false, seen_aggregate = false, seen_predicates = false;
    SkipWs();
    if (!Consume('}')) {
      while (true) {
        SkipWs();
        std::string_view key;
        if (!ScanKey(&key)) return false;
        SkipWs();
        if (!Consume(':')) return false;
        SkipWs();
        if (key == "table") {
          if (seen_table || !ScanStringInto(&out->table)) return false;
          seen_table = true;
        } else if (key == "aggregate") {
          if (seen_aggregate || !ScanBool(&out->aggregate)) return false;
          seen_aggregate = true;
        } else if (key == "predicates") {
          if (seen_predicates || !ScanPredicates(&out->predicates)) {
            return false;
          }
          seen_predicates = true;
        } else {
          return false;
        }
        SkipWs();
        if (Consume('}')) break;
        if (!Consume(',')) return false;
      }
    }
    return seen_table && seen_aggregate && seen_predicates;
  }

  bool ScanPredicates(std::vector<simdb::Predicate>* out) {
    out->clear();
    if (!Consume('[')) return false;
    SkipWs();
    if (Consume(']')) return true;
    while (true) {
      SkipWs();
      simdb::Predicate predicate;
      if (!ScanPredicate(&predicate)) return false;
      out->push_back(std::move(predicate));
      SkipWs();
      if (Consume(']')) return true;
      if (!Consume(',')) return false;
    }
  }

  bool ScanPredicate(simdb::Predicate* out) {
    if (!Consume('{')) return false;
    bool seen_column = false, seen_selectivity = false;
    SkipWs();
    if (!Consume('}')) {
      while (true) {
        SkipWs();
        std::string_view key;
        if (!ScanKey(&key)) return false;
        SkipWs();
        if (!Consume(':')) return false;
        SkipWs();
        if (key == "column") {
          if (seen_column || !ScanStringInto(&out->column)) return false;
          seen_column = true;
        } else if (key == "selectivity") {
          if (seen_selectivity || !ScanNumber(&out->selectivity)) {
            return false;
          }
          seen_selectivity = true;
        } else {
          return false;
        }
        SkipWs();
        if (Consume('}')) break;
        if (!Consume(',')) return false;
      }
    }
    return seen_column && seen_selectivity;
  }

  std::string_view text_;
  size_t pos_ = 0;
  std::string op_name_;  // SSO: every op tag fits inline.
};

}  // namespace

bool TryFastParseRequestLine(std::string_view line, Request* out) {
  return FastScanner(line).Scan(out);
}

}  // namespace optshare::service::protocol
