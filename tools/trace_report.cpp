// trace_report: offline analyzer for `pagoda_cli --trace-spans=FILE` dumps
// (and the qos_isolation bench's --trace-spans output).
//
//   trace_report --in=spans.json                per-class/per-phase tables +
//                                               top-K slowest critical paths
//   trace_report --in=spans.json --top=10       more of the slow tail
//   trace_report --in=spans.json --explain-slo  name the dominant phase of
//                                               every slo_late/shed/dropped
//                                               request
//
// The tool re-checks the attribution invariant (phase buckets sum to the
// end-to-end latency for every request) and exits 1 when the dump violates
// it, so CI can gate on it end to end.
#include <cctype>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "harness/flags.h"
#include "obs/attribution.h"
#include "obs/trace_span.h"

namespace {

using pagoda::obs::AttributionReport;
using pagoda::obs::DropSummary;
using pagoda::obs::kNumPhases;
using pagoda::obs::Phase;
using pagoda::obs::RequestSummary;

// --- minimal JSON DOM (the subset the tracer emits) -------------------------

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool b = false;
  double num = 0.0;
  std::string str;
  std::vector<JsonValue> arr;
  std::vector<std::pair<std::string, JsonValue>> obj;

  const JsonValue* get(std::string_view key) const {
    for (const auto& [k, v] : obj) {
      if (k == key) return &v;
    }
    return nullptr;
  }
  double number_or(std::string_view key, double def) const {
    const JsonValue* v = get(key);
    return v != nullptr && v->kind == Kind::kNumber ? v->num : def;
  }
  std::string string_or(std::string_view key, std::string def) const {
    const JsonValue* v = get(key);
    return v != nullptr && v->kind == Kind::kString ? v->str : def;
  }
};

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  bool parse(JsonValue* out, std::string* err) {
    const bool ok = value(out) && (skip_ws(), pos_ == text_.size());
    if (!ok && err != nullptr) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "JSON parse error at byte %zu", pos_);
      *err = buf;
    }
    return ok;
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }
  bool eat(char c) {
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  bool literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }
  bool string(std::string* out) {
    if (!eat('"')) return false;
    out->clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (c == '\\') {
        if (pos_ >= text_.size()) return false;
        out->push_back(text_[pos_++]);
      } else {
        out->push_back(c);
      }
    }
    return false;
  }
  bool value(JsonValue* out) {
    skip_ws();
    if (pos_ >= text_.size()) return false;
    const char c = text_[pos_];
    if (c == '{') {
      ++pos_;
      out->kind = JsonValue::Kind::kObject;
      skip_ws();
      if (eat('}')) return true;
      while (true) {
        std::string key;
        JsonValue v;
        if (!string(&key) || !eat(':') || !value(&v)) return false;
        out->obj.emplace_back(std::move(key), std::move(v));
        if (eat('}')) return true;
        if (!eat(',')) return false;
      }
    }
    if (c == '[') {
      ++pos_;
      out->kind = JsonValue::Kind::kArray;
      skip_ws();
      if (eat(']')) return true;
      while (true) {
        JsonValue v;
        if (!value(&v)) return false;
        out->arr.push_back(std::move(v));
        if (eat(']')) return true;
        if (!eat(',')) return false;
      }
    }
    if (c == '"') {
      out->kind = JsonValue::Kind::kString;
      return string(&out->str);
    }
    if (c == 't') {
      out->kind = JsonValue::Kind::kBool;
      out->b = true;
      return literal("true");
    }
    if (c == 'f') {
      out->kind = JsonValue::Kind::kBool;
      return literal("false");
    }
    if (c == 'n') return literal("null");
    // Number.
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '-' || text_[pos_] == '+' || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
    }
    if (pos_ == start) return false;
    out->kind = JsonValue::Kind::kNumber;
    out->num = std::strtod(std::string(text_.substr(start, pos_ - start)).c_str(),
                           nullptr);
    return true;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

int phase_index(std::string_view name) {
  for (int p = 0; p < kNumPhases; ++p) {
    if (name == pagoda::obs::to_string(static_cast<Phase>(p))) return p;
  }
  return -1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string in_path;
  int top_k = 5;
  bool explain_slo = false;
  using pagoda::harness::Option;
  const pagoda::harness::Options opts(
      argc, argv,
      {Option("in", &in_path, "pagoda_cli --trace-spans dump to analyze"),
       Option("top", &top_k, "slowest critical paths to print").range(0),
       Option("explain-slo", &explain_slo,
              "name the dominant phase of every SLO casualty")});
  if (in_path.empty()) {
    std::fprintf(stderr, "error: --in=FILE is required (try --help)\n");
    return 1;
  }

  std::ifstream in(in_path);
  if (!in) {
    std::fprintf(stderr, "error: cannot read '%s'\n", in_path.c_str());
    return 2;
  }
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();

  JsonValue root;
  std::string err;
  if (!JsonParser(text).parse(&root, &err) ||
      root.kind != JsonValue::Kind::kObject) {
    std::fprintf(stderr, "error: %s: %s\n", in_path.c_str(),
                 err.empty() ? "not a JSON object" : err.c_str());
    return 2;
  }
  if (root.string_or("format", "") != "pagoda-trace-spans-v1") {
    std::fprintf(stderr,
                 "error: %s is not a pagoda-trace-spans-v1 dump (format=%s)\n",
                 in_path.c_str(), root.string_or("format", "?").c_str());
    return 2;
  }

  AttributionReport report;
  if (const JsonValue* reqs = root.get("requests")) {
    for (const JsonValue& rv : reqs->arr) {
      RequestSummary s;
      s.uid = static_cast<std::uint64_t>(rv.number_or("uid", 0));
      s.cls = rv.string_or("class", "?");
      s.terminal = rv.string_or("terminal", "?");
      s.cause = rv.string_or("cause", "");
      s.e2e_us = rv.number_or("e2e_us", 0.0);
      s.slo_us = rv.number_or("slo_us", 0.0);
      s.slo_late = rv.number_or("slo_late", 0) != 0;
      s.attempts = static_cast<int>(rv.number_or("attempts", 0));
      if (const JsonValue* b = rv.get("buckets_us")) {
        for (const auto& [k, v] : b->obj) {
          const int p = phase_index(k);
          if (p >= 0 && v.kind == JsonValue::Kind::kNumber) {
            s.buckets_us[static_cast<std::size_t>(p)] = v.num;
          }
        }
      }
      if (const JsonValue* path = rv.get("critical_path")) {
        for (const JsonValue& leg : path->arr) {
          if (leg.arr.size() == 2 &&
              leg.arr[0].kind == JsonValue::Kind::kString &&
              leg.arr[1].kind == JsonValue::Kind::kNumber) {
            const int p = phase_index(leg.arr[0].str);
            if (p >= 0) s.path.emplace_back(p, leg.arr[1].num);
          }
        }
      }
      report.add(std::move(s));
    }
  }
  if (const JsonValue* drops = root.get("dropped")) {
    for (const JsonValue& dv : drops->arr) {
      report.add_dropped(
          DropSummary{dv.string_or("class", "?"), dv.number_or("slo_us", 0.0)});
    }
  }

  std::printf("trace      %s\n", in_path.c_str());
  if (const JsonValue* summary = root.get("summary")) {
    std::printf(
        "summary    requests=%lld completed=%lld shed=%lld evicted=%lld "
        "dropped=%lld slo_late=%lld unresolved=%lld\n",
        static_cast<long long>(summary->number_or("requests", 0)),
        static_cast<long long>(summary->number_or("completed", 0)),
        static_cast<long long>(summary->number_or("shed", 0)),
        static_cast<long long>(summary->number_or("evicted", 0)),
        static_cast<long long>(summary->number_or("dropped", 0)),
        static_cast<long long>(summary->number_or("slo_late", 0)),
        static_cast<long long>(summary->number_or("unresolved", 0)));
  }
  if (report.empty()) {
    std::printf("empty trace: no requests or drops recorded\n");
    return 0;
  }

  std::string invariant_err;
  if (!report.validate(&invariant_err)) {
    std::fprintf(stderr, "error: attribution invariant violated: %s\n",
                 invariant_err.c_str());
    return 1;
  }

  std::printf("\n");
  {
    std::ostringstream os;
    report.write_phase_table(os);
    std::fputs(os.str().c_str(), stdout);
  }
  std::printf("\n");
  {
    std::ostringstream os;
    report.write_top_k(os, top_k);
    std::fputs(os.str().c_str(), stdout);
  }
  if (explain_slo) {
    std::printf("\n");
    std::ostringstream os;
    report.write_explain_slo(os);
    std::fputs(os.str().c_str(), stdout);
  }
  return 0;
}
