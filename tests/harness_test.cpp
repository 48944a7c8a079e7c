// Harness tests: experiment plumbing, per-runtime workload adjustment,
// table formatting, and determinism of measurements.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "harness/calibration.h"
#include "harness/experiment.h"
#include "harness/flags.h"
#include "sched/policy.h"

namespace pagoda::harness {
namespace {

Flags make_flags(std::initializer_list<const char*> args) {
  std::vector<char*> argv = {const_cast<char*>("prog")};
  for (const char* a : args) argv.push_back(const_cast<char*>(a));
  return Flags(static_cast<int>(argv.size()), argv.data());
}

TEST(Flags, GetIntParsesAndDefaults) {
  const Flags f = make_flags({"--tasks=4096", "--neg=-12"});
  EXPECT_EQ(f.get_int("tasks", 1), 4096);
  EXPECT_EQ(f.get_int("neg", 1), -12);
  EXPECT_EQ(f.get_int("absent", 17), 17);
}

TEST(Flags, GetDoubleParsesAndDefaults) {
  const Flags f = make_flags({"--rate=2.5e3", "--frac=0.125"});
  EXPECT_DOUBLE_EQ(f.get_double("rate", 0.0), 2500.0);
  EXPECT_DOUBLE_EQ(f.get_double("frac", 0.0), 0.125);
  EXPECT_DOUBLE_EQ(f.get_double("absent", 1.5), 1.5);
}

TEST(FlagsDeathTest, GetIntRejectsTrailingGarbage) {
  // Regression: --tasks=12abc used to silently parse as 12.
  const Flags f = make_flags({"--tasks=12abc"});
  EXPECT_EXIT(f.get_int("tasks", 1), ::testing::ExitedWithCode(2),
              "invalid value for --tasks: '12abc'");
}

TEST(FlagsDeathTest, GetIntRejectsNonNumeric) {
  const Flags f = make_flags({"--tasks=lots"});
  EXPECT_EXIT(f.get_int("tasks", 1), ::testing::ExitedWithCode(2),
              "invalid value for --tasks");
}

TEST(FlagsDeathTest, GetDoubleRejectsTrailingGarbage) {
  const Flags f = make_flags({"--rate=1.5x"});
  EXPECT_EXIT(f.get_double("rate", 0.0), ::testing::ExitedWithCode(2),
              "invalid value for --rate: '1.5x'");
  // Non-finite values too: NaN slips past every `< 0` range check the
  // callers make.
  for (const char* arg : {"--rate=nan", "--rate=inf", "--rate=-inf"}) {
    const Flags nonfinite = make_flags({arg});
    EXPECT_EXIT(nonfinite.get_double("rate", 0.0),
                ::testing::ExitedWithCode(2), "invalid value for --rate")
        << arg;
  }
}

// --- Options: one table, one pass over the command line ---------------------

constexpr std::string_view kFormats[] = {"csv", "chrome"};

/// A run record and its option table, as a binary declares them.
struct Record {
  int tasks = 4096;
  double rate = 2.5;
  bool compute = false;
  std::uint64_t seed = 7;
  std::string out = "out.json";
  std::string format = "csv";
  std::string metrics;

  std::vector<Option> table() {
    return {Option("tasks", &tasks, "tasks to run").range(1, 1000000),
            Option("rate", &rate, "offered load").above(0.0),
            Option("compute", &compute, "verify outputs"),
            Option("seed", &seed, "generation seed"),
            Option("out", &out, "artifact path"),
            Option("format", &format, "trace format").one_of(kFormats),
            Option("metrics", &metrics, "report path")
                .bare()
                .only("a single run")};
  }
};

std::vector<char*> argv_of(std::initializer_list<const char*> args) {
  std::vector<char*> argv = {const_cast<char*>("prog")};
  for (const char* a : args) argv.push_back(const_cast<char*>(a));
  return argv;
}

void parse(Record& r, std::initializer_list<const char*> args) {
  std::vector<char*> argv = argv_of(args);
  const Options opts(static_cast<int>(argv.size()), argv.data(), r.table());
}

TEST(Options, FillsGivenFieldsAndKeepsTheRestAtTheirDefaults) {
  Record r;
  parse(r, {"--tasks=12", "--compute", "--seed=-1", "--format=chrome"});
  EXPECT_EQ(r.tasks, 12);
  EXPECT_TRUE(r.compute);
  EXPECT_EQ(r.seed, ~std::uint64_t{0});  // a signed seed wraps, as it did
  EXPECT_EQ(r.format, "chrome");
  EXPECT_DOUBLE_EQ(r.rate, 2.5);
  EXPECT_EQ(r.out, "out.json");
}

TEST(Options, FirstOccurrenceOfARepeatedNameWins) {
  Record r;
  parse(r, {"--tasks=5", "--tasks=abc", "--tasks", "--out=a", "--out="});
  EXPECT_EQ(r.tasks, 5);
  EXPECT_EQ(r.out, "a");
}

TEST(Options, BareTextOptionIsGivenAndKeepsItsDefault) {
  Record r;
  std::vector<char*> argv = argv_of({"--metrics"});
  const Options opts(static_cast<int>(argv.size()), argv.data(), r.table());
  EXPECT_TRUE(opts.given("metrics"));
  EXPECT_FALSE(opts.given("tasks"));
  EXPECT_EQ(r.metrics, "");
  opts.require("a single run", true);  // holds: no error
}

TEST(OptionsDeathTest, UnknownNameExits1) {
  Record r;
  for (const char* arg : {"--task=5", "tasks", "-t", "--", "--=5"}) {
    EXPECT_EXIT(parse(r, {arg}), ::testing::ExitedWithCode(1),
                "^error: unknown argument")
        << arg;
  }
}

TEST(OptionsDeathTest, NumberOrTextWithoutAValueExits1) {
  Record r;
  for (const char* arg : {"--tasks", "--tasks=", "--rate", "--out", "--out=",
                          "--format"}) {
    EXPECT_EXIT(parse(r, {arg}), ::testing::ExitedWithCode(1),
                "^error: --[a-z]+ needs a value")
        << arg;
  }
}

TEST(OptionsDeathTest, SwitchGivenAValueExits1) {
  Record r;
  for (const char* arg : {"--compute=1", "--compute=0", "--compute="}) {
    EXPECT_EXIT(parse(r, {arg}), ::testing::ExitedWithCode(1),
                "^error: --compute takes no value")
        << arg;
  }
}

TEST(OptionsDeathTest, UnparsableNumberExits2) {
  Record r;
  EXPECT_EXIT(parse(r, {"--tasks=12abc"}), ::testing::ExitedWithCode(2),
              "^invalid value for --tasks: '12abc'");
  EXPECT_EXIT(parse(r, {"--rate=nan"}), ::testing::ExitedWithCode(2),
              "^invalid value for --rate: 'nan'");
  EXPECT_EXIT(parse(r, {"--seed=0x10"}), ::testing::ExitedWithCode(2),
              "^invalid value for --seed: '0x10'");
}

TEST(OptionsDeathTest, OutOfRangeExits1NamingTheRange) {
  Record r;
  for (const char* arg : {"--tasks=0", "--tasks=1000001", "--tasks=-5",
                          "--tasks=99999999999"}) {
    EXPECT_EXIT(parse(r, {arg}), ::testing::ExitedWithCode(1),
                "^error: --tasks must be in \\[1, 1000000\\]")
        << arg;
  }
  EXPECT_EXIT(parse(r, {"--rate=0"}), ::testing::ExitedWithCode(1),
              "^error: --rate must be > 0");
}

TEST(OptionsDeathTest, ValueOutsideTheChoicesExits2) {
  Record r;
  EXPECT_EXIT(parse(r, {"--format=xml"}), ::testing::ExitedWithCode(2),
              "^invalid value for --format: 'xml' \\(valid: csv, chrome\\)");
}

TEST(OptionsDeathTest, OptionOutsideItsScopeExits1) {
  Record r;
  std::vector<char*> argv = argv_of({"--metrics=m.json"});
  const Options opts(static_cast<int>(argv.size()), argv.data(), r.table());
  EXPECT_EXIT(opts.require("a single run", false),
              ::testing::ExitedWithCode(1),
              "^error: --metrics only applies to a single run");
}

TEST(OptionsDeathTest, RejectNamesTheValueAndTheValidForms) {
  Record r;
  std::vector<char*> argv = argv_of({"--out=x:y"});
  const Options opts(static_cast<int>(argv.size()), argv.data(), r.table());
  EXPECT_EXIT(opts.reject("out", "no colons"), ::testing::ExitedWithCode(1),
              "^error: bad --out 'x:y': no colons; valid forms: artifact path");
}

TEST(OptionsDeathTest, HelpListsEveryOptionWithItsDefaultAndExits0) {
  Record r;
  EXPECT_EXIT(parse(r, {"--help"}), ::testing::ExitedWithCode(0), "");
  // The listing itself goes to stdout; it shows defaults, not parsed values.
  std::vector<char*> argv = argv_of({"--tasks=9"});
  const Options opts(static_cast<int>(argv.size()), argv.data(), r.table());
  ::testing::internal::CaptureStdout();
  opts.print_help();
  const std::string help = ::testing::internal::GetCapturedStdout();
  for (const char* row :
       {"--tasks=N ", "in [1, 1000000] (default: 4096)", "--rate=X ",
        "> 0 (default: 2.5)", "--compute ", "(default: off)", "--seed=N ",
        "(default: 7)", "--out=TEXT ", "(default: out.json)", "--format=TEXT ",
        "one of csv, chrome (default: csv)", "--metrics[=TEXT] ",
        "only with a single run (default: none)", "--help "}) {
    EXPECT_NE(help.find(row), std::string::npos) << row << "\n" << help;
  }
}

TEST(SpecParsers, FleetRuntimesAndWeights) {
  EXPECT_EQ(baselines::parse_fleet("4").size(), 4u);
  EXPECT_EQ(baselines::parse_fleet("titanx,k40,tesla_k40").size(), 3u);
  // A count past the fleet limit, even one past long long, is rejected
  // rather than thrown or wrapped.
  for (const char* bad : {"0", "257", "99999999999", "99999999999999999999",
                          "titanx,", "", "k80"}) {
    EXPECT_TRUE(baselines::parse_fleet(bad).empty()) << bad;
  }
  EXPECT_EQ(baselines::parse_runtimes("all").size(),
            baselines::all_runtime_names().size());
  EXPECT_EQ(baselines::parse_runtimes("HyperQ,Pagoda"),
            (std::vector<std::string>{"HyperQ", "Pagoda"}));
  EXPECT_TRUE(baselines::parse_runtimes("HyperQ,Bogus").empty());
  EXPECT_TRUE(baselines::parse_runtimes("HyperQ,").empty());

  const auto w = sched::parse_weights("4,2,0.5");
  ASSERT_TRUE(w.has_value());
  EXPECT_DOUBLE_EQ((*w)[2], 0.5);
  for (const char* bad : {"1,0,1", "1,2", "1,2,3,4", "a,b,c", "nan,1,1",
                          "1,,1", "-1,1,1", ""}) {
    EXPECT_FALSE(sched::parse_weights(bad).has_value()) << bad;
  }
}

TEST(Experiment, GemtcGetsNoSharedMemoryVariant) {
  // §6.2: GeMTC cannot use shared memory; run_experiment must generate the
  // no-shmem MM variant for it (otherwise supports() would reject it).
  workloads::WorkloadConfig wcfg;
  wcfg.num_tasks = 16;
  wcfg.use_shared_memory = true;
  EXPECT_TRUE(runtime_supports("MM", "GeMTC", wcfg));
  const Measurement m =
      run_experiment("MM", "GeMTC", wcfg, paper_platform());
  EXPECT_TRUE(m.result.completed);
}

TEST(Experiment, MeasurementsAreDeterministic) {
  workloads::WorkloadConfig wcfg;
  wcfg.num_tasks = 64;
  const baselines::RunConfig rcfg = paper_platform();
  const Measurement a = run_experiment("3DES", "Pagoda", wcfg, rcfg);
  const Measurement b = run_experiment("3DES", "Pagoda", wcfg, rcfg);
  EXPECT_EQ(a.result.elapsed, b.result.elapsed);
  EXPECT_EQ(a.result.h2d_wire_busy, b.result.h2d_wire_busy);
}

TEST(Experiment, SpeedupIsRatioOfTimes) {
  Measurement base;
  base.result.elapsed = sim::milliseconds(10.0);
  Measurement faster;
  faster.result.elapsed = sim::milliseconds(4.0);
  EXPECT_NEAR(speedup(base, faster), 2.5, 1e-12);
}

TEST(TableFormat, AlignsColumns) {
  Table t({"name", "value"});
  t.add_row({"a", "1.00x"});
  t.add_row({"longer-name", "2"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("longer-name"), std::string::npos);
  EXPECT_NE(out.find("-----"), std::string::npos);
}

TEST(TableFormat, Formatters) {
  EXPECT_EQ(fmt_x(5.701), "5.70x");
  EXPECT_EQ(fmt_pct(0.1667), "16.7%");
  EXPECT_EQ(fmt_ms(sim::milliseconds(12.345)), "12.35 ms");
  EXPECT_EQ(fmt_us(55.04), "55.0 us");
}

}  // namespace
}  // namespace pagoda::harness
