// Harness tests: experiment plumbing, per-runtime workload adjustment,
// table formatting, and determinism of measurements.
#include <gtest/gtest.h>

#include <sstream>

#include "harness/calibration.h"
#include "harness/experiment.h"
#include "harness/flags.h"

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
