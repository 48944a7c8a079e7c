// Minimal command-line flag parsing for the bench binaries:
//   --tasks=4096 --threads=128 --full --mode=compute --seed=7
#pragma once

#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <limits>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace pagoda::harness {

class Flags {
 public:
  Flags(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) args_.emplace_back(argv[i]);
  }

  bool has(std::string_view name) const {
    const std::string probe = "--" + std::string(name);
    for (const std::string& a : args_) {
      if (a == probe || a.rfind(probe + "=", 0) == 0) return true;
    }
    return false;
  }

  std::string get(std::string_view name, std::string_view def = "") const {
    const std::string probe = "--" + std::string(name) + "=";
    for (const std::string& a : args_) {
      if (a.rfind(probe, 0) == 0) return a.substr(probe.size());
    }
    return std::string(def);
  }

  /// Integer flag value. The whole value must parse — `--tasks=12abc` is an
  /// error (exit 2), not 12. An absent flag or `--name=` yields `def`.
  std::int64_t get_int(std::string_view name, std::int64_t def) const {
    return strict_parse(name, def, [](const char* s, char** end) {
      return std::strtoll(s, end, 10);
    });
  }

  /// Int flag value in [lo, hi]. Unparsable values exit 2 as in get_int();
  /// out-of-range values print the range and exit 1 (a usage error), so
  /// nothing is truncated on the way to int.
  int get_int_in(std::string_view name, int def, int lo,
                 int hi = std::numeric_limits<int>::max()) const {
    const std::int64_t v = get_int(name, def);
    if (v < lo || v > hi) {
      std::fprintf(stderr, "error: --%.*s must be in [%d, %d]\n",
                   static_cast<int>(name.size()), name.data(), lo, hi);
      std::exit(1);
    }
    return static_cast<int>(v);
  }

  /// Floating-point flag value, with the same full-consumption rule. `nan`
  /// and `inf` are errors too: NaN would slip past every range check.
  double get_double(std::string_view name, double def) const {
    const double v = strict_parse(
        name, def, [](const char* s, char** end) { return std::strtod(s, end); });
    if (!std::isfinite(v)) bad_value(name, get(name));
    return v;
  }

  /// Enumerated string flag. The value must match one of `choices` exactly;
  /// for parameterized choices of the form "kind:ARG[...]" (e.g.
  /// "poisson:RATE"), a value whose kind — the part before the first ':' —
  /// matches is accepted too, leaving the argument tail for the caller's own
  /// parser. Anything else prints the valid choices and exits 2.
  std::string get_enum(std::string_view name, std::string_view def,
                       std::initializer_list<std::string_view> choices) const {
    return get_enum(name, def,
                    std::span<const std::string_view>(choices.begin(),
                                                      choices.size()));
  }

  std::string get_enum(std::string_view name, std::string_view def,
                       std::span<const std::string_view> choices) const {
    const std::string v = get(name, def);
    const std::string_view v_kind =
        std::string_view(v).substr(0, v.find(':'));
    for (const std::string_view c : choices) {
      if (v == c) return v;
      const std::string_view c_kind = c.substr(0, c.find(':'));
      if (c_kind.size() != c.size() && v_kind == c_kind) return v;
    }
    std::fprintf(stderr, "invalid value for --%.*s: '%s' (valid: ",
                 static_cast<int>(name.size()), name.data(), v.c_str());
    bool first = true;
    for (const std::string_view c : choices) {
      std::fprintf(stderr, "%s%.*s", first ? "" : ", ",
                   static_cast<int>(c.size()), c.data());
      first = false;
    }
    std::fprintf(stderr, ")\n");
    std::exit(2);
  }

  /// First argument that is not `--name` or `--name=value` for a name in
  /// `known` (including anything that is not a `--flag` at all); empty when
  /// every argument is recognized. Lets binaries reject typos instead of
  /// silently ignoring them.
  std::string unknown(std::initializer_list<std::string_view> known) const {
    for (const std::string& a : args_) {
      if (a.rfind("--", 0) != 0) return a;
      const std::size_t eq = a.find('=');
      const std::string_view name =
          std::string_view(a).substr(2, eq == std::string::npos
                                            ? std::string::npos
                                            : eq - 2);
      bool recognized = false;
      for (const std::string_view k : known) {
        if (name == k) {
          recognized = true;
          break;
        }
      }
      if (!recognized) return a;
    }
    return {};
  }

 private:
  /// Shared strict-parse core for the numeric getters: the whole value must
  /// be consumed by `parse` with errno clear, else exit 2.
  template <typename T, typename ParseFn>
  T strict_parse(std::string_view name, T def, ParseFn parse) const {
    const std::string v = get(name);
    if (v.empty()) return def;
    errno = 0;
    char* end = nullptr;
    const T parsed = parse(v.c_str(), &end);
    if (errno != 0 || end != v.c_str() + v.size()) bad_value(name, v);
    return parsed;
  }

  [[noreturn]] static void bad_value(std::string_view name,
                                     const std::string& value) {
    std::fprintf(stderr, "invalid value for --%.*s: '%s'\n",
                 static_cast<int>(name.size()), name.data(), value.c_str());
    std::exit(2);
  }

  std::vector<std::string> args_;
};

}  // namespace pagoda::harness
