// Deterministic mutation test for the five spec parsers pagoda_cli feeds
// user strings into: FaultPlan::parse, PowerSpec::parse,
// parse_autoscale_spec, parse_resize_spec and ArrivalConfig::parse; and for
// the migration checkpoint image reader, migrate::deserialize.
//
// Each parser gets a fixed number of inputs derived from valid grammar
// examples by a seeded SplitMix64: byte flips, byte inserts (biased toward
// the grammar's own characters, so mutants reach deep into the parsers) and
// truncations. Every input must be accepted or rejected without a crash,
// sanitizer report or exception; a rejection must say why, and an accepted
// value must be one the simulator can use (finite, in-range times). The
// sanitizer pass of tools/check.sh runs this under ASan + UBSan.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstring>
#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "cluster/traffic.h"
#include "common/rng.h"
#include "fault/plan.h"
#include "migrate/autoscaler.h"
#include "migrate/checkpoint.h"
#include "power/power_spec.h"

namespace pagoda {
namespace {

constexpr int kMutantsPerParser = 20000;

/// Applies 1-4 random mutations to `s`.
std::string mutate(std::string s, SplitMix64& rng) {
  static constexpr std::string_view kGrammar = "0123456789.:,-+=eEtaskxfrpo";
  const int edits = static_cast<int>(rng.next_in(1, 4));
  for (int e = 0; e < edits; ++e) {
    switch (rng.next_below(3)) {
      case 0:  // flip one bit of one byte
        if (!s.empty()) {
          s[rng.next_below(s.size())] ^=
              static_cast<char>(1u << rng.next_below(8));
        }
        break;
      case 1: {  // insert a grammar byte (3 in 4) or any byte
        const char c = rng.next_below(4) != 0
                           ? kGrammar[rng.next_below(kGrammar.size())]
                           : static_cast<char>(rng.next_below(256));
        s.insert(s.begin() + static_cast<std::ptrdiff_t>(
                                 rng.next_below(s.size() + 1)),
                 c);
        break;
      }
      default:  // truncate
        s.resize(rng.next_below(s.size() + 1));
        break;
    }
  }
  return s;
}

/// Feeds kMutantsPerParser mutants of `seeds` (plus the seeds themselves)
/// to `check`, which parses one input and asserts its own properties.
void fuzz(std::uint64_t seed, const std::vector<std::string>& seeds,
          const std::function<void(const std::string&)>& check) {
  for (const std::string& s : seeds) check(s);
  SplitMix64 rng(seed);
  for (int i = 0; i < kMutantsPerParser; ++i) {
    const std::string& base = seeds[rng.next_below(seeds.size())];
    const std::string input = mutate(base, rng);
    SCOPED_TRACE("input '" + input + "'");
    EXPECT_NO_THROW(check(input));
  }
}

bool time_ok(sim::Duration d) {
  return d >= 0 && d <= sim::microseconds(sim::kMaxSpecMicroseconds);
}

TEST(SpecMutation, FaultPlan) {
  fuzz(0xFA17,
       {"", "task:0.01", "xfer:0.05", "wedge:0.1", "crash:1:2000:3000",
        "degrade:500:1000:0.25:1", "seed:7",
        "task:0.01,crash:1:2000:3000,degrade:500:1000:0.25,seed:9",
        "crash:0:1e300"},
       [](const std::string& in) {
         std::string err;
         const std::optional<fault::FaultPlan> p =
             fault::FaultPlan::parse(in, &err);
         if (!p.has_value()) {
           EXPECT_FALSE(err.empty());
           return;
         }
         for (const double r : {p->task_fault_rate, p->transfer_fault_rate,
                                p->wedge_rate}) {
           EXPECT_TRUE(r >= 0.0 && r <= 1.0);
         }
         for (const fault::CrashEvent& c : p->crashes) {
           EXPECT_GE(c.node, 0);
           EXPECT_TRUE(time_ok(c.at) && time_ok(c.recover_after));
         }
         for (const fault::DegradeWindow& w : p->degrades) {
           EXPECT_GE(w.node, -1);
           EXPECT_TRUE(time_ok(w.at) && time_ok(w.duration));
           EXPECT_TRUE(w.factor > 0.0 && w.factor <= 1.0);
         }
       });
}

TEST(SpecMutation, PowerSpec) {
  fuzz(0x90E7, {"default", "default:floor=0", "default:floor=3"},
       [](const std::string& in) {
         std::string err;
         const std::optional<power::PowerSpec> p =
             power::PowerSpec::parse(in, &err);
         if (!p.has_value()) {
           EXPECT_FALSE(err.empty());
           return;
         }
         EXPECT_TRUE(p->p_floor >= 0 && p->p_floor < power::kNumPStates);
       });
}

TEST(SpecMutation, AutoscaleSpec) {
  fuzz(0xA5CA, {"0.6", "0.6:0.3:0.85", "0.6:0.3:0.85:2", "0.5:0:1:99"},
       [](const std::string& in) {
         std::string err;
         const std::optional<migrate::AutoscaleConfig> a =
             migrate::parse_autoscale_spec(in, &err);
         if (!a.has_value()) {
           EXPECT_FALSE(err.empty());
           return;
         }
         EXPECT_TRUE(a->low_watermark >= 0.0 &&
                     a->low_watermark < a->high_watermark &&
                     a->high_watermark <= 1.0);
         EXPECT_GE(a->min_nodes, 1);
       });
}

TEST(SpecMutation, ResizeSpec) {
  fuzz(0x5E2E, {"4000:2,9000:4", "100:1", "50000:8,60000:1,70000:16"},
       [](const std::string& in) {
         std::string err;
         const std::optional<std::vector<migrate::ResizeStep>> plan =
             migrate::parse_resize_spec(in, &err);
         if (!plan.has_value()) {
           EXPECT_FALSE(err.empty());
           return;
         }
         ASSERT_FALSE(plan->empty());
         for (std::size_t i = 0; i < plan->size(); ++i) {
           EXPECT_TRUE(time_ok((*plan)[i].at));
           EXPECT_GE((*plan)[i].target, 1);
           if (i > 0) {
             EXPECT_GT((*plan)[i].at, (*plan)[i - 1].at);
           }
         }
       });
}

TEST(SpecMutation, ArrivalSpec) {
  fuzz(0xA221,
       {"closed", "poisson:150000", "bursty:300000", "bursty:300000:2",
        "diurnal:800000", "diurnal:800000:8:20000",
        // Near the gap bound and the phase-steps bound, so mutants cross
        // them from both sides. An accepted modulated mutant takes at most
        // ~1e4 phase steps per draw, which keeps this test fast.
        "poisson:1e-3", "bursty:1e-2:4"},
       [](const std::string& in) {
         const std::optional<cluster::ArrivalConfig> a =
             cluster::ArrivalConfig::parse(in);
         if (!a.has_value()) return;
         if (a->kind != cluster::ArrivalKind::Closed) {
           EXPECT_TRUE(a->rate_per_sec > 0.0 &&
                       std::isfinite(a->rate_per_sec));
           EXPECT_TRUE(a->burst_factor > 1.0 &&
                       std::isfinite(a->burst_factor));
           EXPECT_TRUE(a->mean_on > 0 && time_ok(a->mean_on));
         }
         // Every gap the accepted spec draws is a usable time.
         cluster::ArrivalSequence seq(*a, /*seed=*/7);
         for (int i = 0; i < 16; ++i) {
           const sim::Duration gap = seq.next_gap();
           ASSERT_TRUE(time_ok(gap)) << "gap " << i << " = " << gap;
         }
       });
}

// Checkpoint images: mutants of a valid image, re-sealed with a fresh FNV-1a
// trailer so the reader's field checks run, not just its digest check. An
// accepted image must be canonical: it reserializes to the same bytes, so
// no field the reader accepted was dropped or normalized on the way in.
std::string seal(std::string body) {
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a, 64-bit
  for (const char c : body) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 1099511628211ull;
  }
  for (int i = 0; i < 8; ++i) body.push_back(static_cast<char>(h >> (8 * i)));
  return body;
}

TEST(SpecMutation, TaskCheckpointImage) {
  migrate::TaskCheckpoint cp;
  cp.uid = 0x1234;
  cp.arrival = 5000;
  cp.cls = sched::Class::kBatch;
  cp.cost = 3.5;
  cp.h2d_bytes = 4096;
  cp.index = 7;
  cp.params.num_blocks = 2;
  cp.params.threads_per_block = 64;
  cp.params.shared_mem_bytes = 512;
  cp.params.shmem_used_256 = 1;
  cp.params.regs_used = 24;
  cp.params.needs_sync = true;
  cp.params.set_args(std::array<std::int32_t, 3>{1, 2, 3});
  cp.point = migrate::SafePoint::kTableParked;
  const std::vector<std::byte> image = migrate::serialize(cp);
  std::string body(image.size() - 8, '\0');
  std::memcpy(body.data(), image.data(), body.size());
  ASSERT_EQ(seal(body).size(), image.size());
  ASSERT_EQ(std::memcmp(seal(body).data(), image.data(), image.size()), 0);

  fuzz(0xC4EC, {body}, [](const std::string& in) {
    const std::string sealed = seal(in);
    const std::span<const std::byte> bytes(
        reinterpret_cast<const std::byte*>(sealed.data()), sealed.size());
    migrate::TaskCheckpoint out;
    if (!migrate::deserialize(bytes, &out)) return;
    const std::vector<std::byte> again = migrate::serialize(out);
    ASSERT_EQ(again.size(), bytes.size());
    EXPECT_EQ(std::memcmp(again.data(), bytes.data(), bytes.size()), 0);
  });
}

}  // namespace
}  // namespace pagoda
