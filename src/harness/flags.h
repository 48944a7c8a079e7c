// Command-line options. A binary declares each option once, as a row of its
// option table (name, the field it fills, whose value before parsing is the
// default, range or choices, where it applies, one-line help). `Options`
// checks every argument against the table before anything runs; a repeated
// name keeps its first occurrence. An unknown or valueless option, a switch
// given a value, a value out of range or an option where it does not apply
// exits 1 with one `error:` line; an unparsable number or a value outside
// the choices exits 2 (`invalid value for --NAME: 'VALUE'`); `--help`
// prints the table and exits 0. A bench whose result gate fails prints one
// `gate failed:` line and exits 1 (`gate`). `Flags` is the older by-name
// lookup that perfbench still uses.
#pragma once

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <initializer_list>
#include <limits>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

namespace pagoda::harness {

namespace detail {

/// The whole of `v` must parse with errno clear, else exit 2: `--tasks=12abc`
/// is an error, not 12. `nan` and `inf` are errors too: NaN would slip past
/// every range check.
template <typename T>
T parse_number(std::string_view name, const std::string& v) {
  errno = 0;
  char* end = nullptr;
  T parsed;
  if constexpr (std::is_same_v<T, double>) {
    parsed = std::strtod(v.c_str(), &end);
  } else {
    parsed = std::strtoll(v.c_str(), &end, 10);
  }
  if (v.empty() || errno != 0 || end != v.c_str() + v.size() ||
      !std::isfinite(static_cast<double>(parsed))) {
    std::fprintf(stderr, "invalid value for --%.*s: '%s'\n",
                 static_cast<int>(name.size()), name.data(), v.c_str());
    std::exit(2);
  }
  return parsed;
}

}  // namespace detail

/// `values` joined by ", ".
inline std::string join(std::span<const std::string_view> values) {
  std::string s;
  for (const std::string_view v : values) {
    s += (s.empty() ? "" : ", ") + std::string(v);
  }
  return s;
}

/// One row of a binary's option table.
struct Option {
  /// A switch (bool), a number or a text value.
  using Field =
      std::variant<bool*, int*, std::uint64_t*, double*, std::string*>;
  static constexpr double kInf = std::numeric_limits<double>::infinity();

  Option(std::string_view name_, Field field_, std::string_view help_)
      : name(name_), field(field_), help(help_) {}

  /// Numbers: accept [lo, hi], or (lo, hi] with `above`. An int field is
  /// never wider than int.
  Option range(double lo_, double hi_ = kInf) {
    lo = lo_;
    hi = hi_;
    return *this;
  }
  Option above(double lo_, double hi_ = kInf) {
    lo_open = true;
    return range(lo_, hi_);
  }
  /// Text: accept only these values; a choice "kind:ARG..." accepts every
  /// value of that kind, whose tail the binary's spec parser reads. The
  /// span must outlive the table.
  Option one_of(std::span<const std::string_view> values) {
    choices = values;
    return *this;
  }
  /// Given, the option is a usage error unless the binary's rule `where`
  /// holds (Options::require); `where` ends the error line.
  Option only(std::string_view where) {
    scope = where;
    return *this;
  }
  /// Text: `--name` alone is accepted too and keeps the default.
  Option bare() {
    bare_ok = true;
    return *this;
  }

  std::string_view name;
  Field field;
  std::string_view help;
  double lo = -kInf;
  double hi = kInf;
  bool lo_open = false;
  bool bare_ok = false;
  std::span<const std::string_view> choices;
  std::string_view scope;
};

/// A binary's command line, checked against its option table by the
/// constructor: afterwards every given option has written its field.
class Options {
 public:
  Options(int argc, char** argv, std::vector<Option> table)
      : prog_(argc > 0 ? argv[0] : ""), table_(std::move(table)) {
    table_.emplace_back("help", &help_, "print this help and exit");
    for (Option& o : table_) {
      if (std::holds_alternative<int*>(o.field)) {
        o.lo = std::max(o.lo, double{std::numeric_limits<int>::min()});
        o.hi = std::min(o.hi, double{std::numeric_limits<int>::max()});
      }
      defaults_.push_back(default_text(o));
    }
    for (int i = 1; i < argc; ++i) take(argv[i]);
    if (help_) {
      print_help();
      std::exit(0);
    }
  }

  /// Whether `--name` was given (with or without a value).
  bool given(std::string_view name) const {
    return std::find(given_.begin(), given_.end(), name) != given_.end();
  }

  /// The applicability rule: unless `holds`, a given option whose scope is
  /// `where` is a usage error.
  void require(std::string_view where, bool holds) const {
    for (const Option& o : table_) {
      if (!holds && o.scope == where && given(o.name)) {
        fail(o, "only applies to " + std::string(where));
      }
    }
  }

  /// The one error path for a text option whose value its typed parser
  /// rejected: `error: bad --NAME 'VALUE': why; valid forms: HELP`, exit 1.
  [[noreturn]] void reject(std::string_view name,
                           const std::string& why) const {
    const Option& o = *find(name);
    fail(o, "'" + *std::get<std::string*>(o.field) + "': " + why +
                "; valid forms: " + std::string(o.help),
         "error: bad");
  }

  /// The table, one row per option.
  void print_help() const {
    static constexpr const char* kMetavar[] = {"", "=N", "=N", "=X", "=TEXT"};
    std::printf("usage: %s [--OPTION[=VALUE]]...\n\noptions:\n",
                prog_.c_str());
    for (std::size_t i = 0; i < table_.size(); ++i) {
      const Option& o = table_[i];
      std::string row = "--" + std::string(o.name) +
                        (o.bare_ok ? "[=TEXT]" : kMetavar[o.field.index()]);
      row.resize(std::max<std::size_t>(row.size(), 24), ' ');
      row.append(" ").append(o.help);
      if (!o.choices.empty()) row += "; one of " + join(o.choices);
      if (!std::isinf(o.lo)) row += "; " + range_text(o);
      if (!o.scope.empty()) row += "; only with " + std::string(o.scope);
      std::printf("  %s (default: %s)\n", row.c_str(), defaults_[i].c_str());
    }
  }

 private:
  void take(const std::string& arg) {
    const std::size_t eq = arg.find('=');
    const bool has_value = eq != std::string::npos;
    const Option* o = arg.rfind("--", 0) == 0
                          ? find(std::string_view(arg).substr(2, eq - 2))
                          : nullptr;
    if (o == nullptr) {
      std::fprintf(stderr, "error: unknown argument '%s' (try --help)\n",
                   arg.c_str());
      std::exit(1);
    }
    if (given(o->name)) return;  // the first occurrence wins
    given_.push_back(o->name);
    const std::string v = has_value ? arg.substr(eq + 1) : std::string();
    if (bool* const* b = std::get_if<bool*>(&o->field)) {
      if (has_value) fail(*o, "takes no value");
      **b = true;
    } else if (v.empty() && o->bare_ok) {
      if (has_value) *std::get<std::string*>(o->field) = v;
    } else if (v.empty()) {
      fail(*o, "needs a value");
    } else if (std::string* const* s = std::get_if<std::string*>(&o->field)) {
      check_choice(*o, v);
      **s = v;
    } else if (double* const* d = std::get_if<double*>(&o->field)) {
      **d = in_range(*o, detail::parse_number<double>(o->name, v));
    } else {
      const long long n =
          in_range(*o, detail::parse_number<long long>(o->name, v));
      if (int* const* i = std::get_if<int*>(&o->field)) {
        **i = static_cast<int>(n);
      } else {  // a seed: a negative value wraps modulo 2^64
        **std::get_if<std::uint64_t*>(&o->field) =
            static_cast<std::uint64_t>(n);
      }
    }
  }

  const Option* find(std::string_view name) const {
    for (const Option& o : table_) {
      if (!name.empty() && o.name == name) return &o;
    }
    return nullptr;
  }

  template <typename T>
  static T in_range(const Option& o, T v) {
    const auto d = static_cast<double>(v);
    if (d < o.lo || (o.lo_open && d == o.lo) || d > o.hi) {
      fail(o, "must be " + range_text(o));
    }
    return v;
  }

  static void check_choice(const Option& o, const std::string& v) {
    const std::string_view kind = std::string_view(v).substr(0, v.find(':'));
    for (const std::string_view c : o.choices) {
      const std::string_view c_kind = c.substr(0, c.find(':'));
      if (v == c || (c_kind.size() != c.size() && kind == c_kind)) return;
    }
    if (o.choices.empty()) return;
    std::fprintf(stderr, "invalid value for --%.*s: '%s' (valid: %s)\n",
                 static_cast<int>(o.name.size()), o.name.data(), v.c_str(),
                 join(o.choices).c_str());
    std::exit(2);
  }

  static std::string number(double v) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.15g", v);
    return buf;
  }

  static std::string range_text(const Option& o) {
    if (std::isinf(o.hi)) return (o.lo_open ? "> " : ">= ") + number(o.lo);
    return (o.lo_open ? "in (" : "in [") + number(o.lo) + ", " +
           number(o.hi) + "]";
  }

  static std::string default_text(const Option& o) {
    return std::visit(
        [](auto* f) -> std::string {
          using T = std::remove_pointer_t<decltype(f)>;
          if constexpr (std::is_same_v<T, bool>) {
            return *f ? "on" : "off";
          } else if constexpr (std::is_same_v<T, std::string>) {
            return f->empty() ? "none" : *f;
          } else if constexpr (std::is_same_v<T, double>) {
            return number(*f);
          } else {
            return std::to_string(*f);
          }
        },
        o.field);
  }

  /// A usage error about `o`: one `<lead> --NAME why` line, exit 1.
  [[noreturn]] static void fail(const Option& o, const std::string& why,
                                const char* lead = "error:") {
    std::fprintf(stderr, "%s --%.*s %s\n", lead,
                 static_cast<int>(o.name.size()), o.name.data(), why.c_str());
    std::exit(1);
  }

  bool help_ = false;
  std::string prog_;
  std::vector<Option> table_;
  std::vector<std::string> defaults_;  // per row, before parsing
  std::vector<std::string_view> given_;
};

/// A bench's verdict on its own results, for a gate that a legal input can
/// miss (one not monotone in the input's scale): unless `holds`, prints one
/// `gate failed: WHAT` line and exits 1. A broken invariant of the simulator
/// stays a PAGODA_CHECK.
inline void gate(bool holds, std::string_view what) {
  if (holds) return;
  std::fprintf(stderr, "gate failed: %.*s\n", static_cast<int>(what.size()),
               what.data());
  std::exit(1);
}

/// By-name lookup over the raw arguments, for callers without a table.
class Flags {
 public:
  Flags(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) args_.emplace_back(argv[i]);
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
    const std::string v = get(name);
    return v.empty() ? def : detail::parse_number<long long>(name, v);
  }

  /// Floating-point flag value, with the same full-consumption rule. `nan`
  /// and `inf` are errors too: NaN would slip past every range check.
  double get_double(std::string_view name, double def) const {
    const std::string v = get(name);
    return v.empty() ? def : detail::parse_number<double>(name, v);
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
  std::vector<std::string> args_;
};

}  // namespace pagoda::harness
