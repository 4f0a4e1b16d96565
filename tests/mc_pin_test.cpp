// Pins what the dmc-mc explorer reports on every transport scenario, so a
// change to the Systems under test (their hook adapter, adversary budgets,
// action keys, process ids or dependence relation) that moves the explored
// schedule space shows up here. Each cell explores one scenario in one mode
// and compares the schedule, prune, depth and violation counts, the cap
// flag and the reference digest; the planted-bug cell also pins the action
// keys of the first counterexample, which is what a recorded .dmcsched
// trace replays.
//
// On a mismatch the failure prints the cell's actual values. Re-record a
// cell only for a change that moves the explored space on purpose.
#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "mc/explorer.hpp"
#include "mc/scenarios.hpp"

namespace {

using dmc::mc::ExploreResult;

struct PinCell {
  const char* test_name;  // gtest suffix
  const char* scenario;
  bool dpor;
  int defer_bound;
  int extra_tx_bound;
  int depth_bound;
  long max_schedules;
  // Expected:
  long schedules;
  long pruned;
  long max_depth;
  long violations;
  bool hit_schedule_cap;
  std::uint64_t reference_digest;
};

void PrintTo(const PinCell& c, std::ostream* os) {
  *os << c.scenario << (c.dpor ? " dpor" : " full");
}

std::string actual(const ExploreResult& r) {
  return "schedules=" + std::to_string(r.schedules) +
         " pruned=" + std::to_string(r.pruned) +
         " max_depth=" + std::to_string(r.max_depth) +
         " violations=" + std::to_string(r.violations) +
         " hit_schedule_cap=" + (r.hit_schedule_cap ? "true" : "false") +
         " reference_digest=" + std::to_string(r.reference_digest) + "ull";
}

ExploreResult explore_cell(const PinCell& c) {
  dmc::mc::ScenarioOptions so;
  so.defer_bound = c.defer_bound;
  so.extra_tx_bound = c.extra_tx_bound;
  auto sys = dmc::mc::make_scenario(c.scenario, so);
  dmc::mc::ExplorerOptions eo;
  eo.dpor = c.dpor;
  eo.depth_bound = c.depth_bound;
  eo.max_schedules = c.max_schedules;
  return dmc::mc::explore(*sys, eo);
}

class McPin : public ::testing::TestWithParam<PinCell> {};

TEST_P(McPin, ExploredSpaceUnchanged) {
  const PinCell& c = GetParam();
  const ExploreResult r = explore_cell(c);
  SCOPED_TRACE("actual: " + actual(r));
  EXPECT_EQ(r.schedules, c.schedules);
  EXPECT_EQ(r.pruned, c.pruned);
  EXPECT_EQ(r.max_depth, c.max_depth);
  EXPECT_EQ(r.violations, c.violations);
  EXPECT_EQ(r.hit_schedule_cap, c.hit_schedule_cap);
  EXPECT_EQ(r.reference_digest, c.reference_digest);
}

constexpr long kCap = 200000;  // dmc-mc's default --max-schedules

const PinCell kCells[] = {
    {"transport_pair_full", "transport-pair", false, 1, 1, 512, kCap,
     404, 0, 8, 0, false, 15425992780740871102ull},
    {"transport_pair_dpor", "transport-pair", true, 1, 1, 512, kCap,
     161, 0, 8, 0, false, 15425992780740871102ull},
    {"transport_pair_planted_dpor", "transport-pair-planted", true, 1, 1, 512,
     kCap, 211, 0, 15, 168, false, 0ull},
    {"transport_chain3_full", "transport-chain3", false, 1, 0, 512, 5000,
     5000, 0, 41, 0, true, 2438852239517502000ull},
    {"transport_chain3_dpor", "transport-chain3", true, 1, 0, 512, 5000,
     101, 0, 41, 0, false, 2438852239517502000ull},
    {"transport_crash3_full", "transport-crash3", false, 0, 0, 512, kCap,
     40320, 0, 13, 0, false, 0ull},
    {"transport_crash3_dpor", "transport-crash3", true, 0, 0, 512, kCap,
     4, 0, 13, 0, false, 0ull},
    {"churn_repair_full", "churn-repair", false, 1, 1, 4096, 32,
     32, 0, 890, 0, true, 14010275052625804894ull},
    {"churn_repair_dpor", "churn-repair", true, 1, 1, 4096, 32,
     32, 0, 890, 0, true, 14010275052625804894ull},
    {"churn_crash_full", "churn-crash", false, 1, 1, 4096, 32,
     32, 0, 790, 0, true, 0ull},
    {"churn_crash_dpor", "churn-crash", true, 1, 1, 4096, 32,
     32, 0, 790, 0, true, 0ull},
};

INSTANTIATE_TEST_SUITE_P(
    Cells, McPin, ::testing::ValuesIn(kCells),
    [](const ::testing::TestParamInfo<PinCell>& info) {
      return std::string(info.param.test_name);
    });

// The first counterexample of the planted stale-ack bug, as the action keys
// a .dmcsched trace stores (a declined step is key 0).
TEST(McPinTrace, PlantedCounterexampleKeysUnchanged) {
  auto sys = dmc::mc::make_scenario("transport-pair-planted",
                                    dmc::mc::ScenarioOptions{});
  dmc::mc::ExplorerOptions eo;
  const ExploreResult r = dmc::mc::explore(*sys, eo);
  ASSERT_FALSE(r.counterexamples.empty());
  std::vector<std::uint64_t> keys;
  std::string printed;
  for (const dmc::mc::TraceEntry& e :
       dmc::mc::to_trace(r.counterexamples.front().steps)) {
    keys.push_back(e.decline ? 0 : e.key);
    printed += std::to_string(keys.back()) + "ull, ";
  }
  const std::vector<std::uint64_t> expected = {
      2931333873394324478ull,  4804789537185724481ull,
      16768436948691761945ull, 2933247023627033168ull,
      4805746112302078826ull,  2934205797766643935ull,
      4807654864488274672ull,  2936118947999352625ull,
      4809572412767496206ull,  2922726896370391795ull,
      4811481164953692052ull,  2924640046603100485ull,
      4813398713232913586ull};
  EXPECT_EQ(keys, expected) << "actual keys: " << printed;
}

}  // namespace
