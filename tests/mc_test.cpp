// Tests for the dmc-mc model-checking stack (src/mc/): the DPOR explorer,
// the congest and serve Systems, counterexample capture, and .dmcsched
// trace round-trips. Labelled `mc` (ctest -L mc); CI runs the label under
// ASan/UBSan and a nightly deeper-bound sweep (.github/workflows/ci.yml).
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "mc/explorer.hpp"
#include "mc/scenarios.hpp"
#include "mc/sched_trace.hpp"

namespace {

using dmc::mc::ExplorerOptions;
using dmc::mc::ExploreResult;
using dmc::mc::ScenarioOptions;

ExploreResult explore_scenario(const std::string& name, bool dpor,
                               int defer_bound = 1, int extra_tx_bound = 1,
                               long max_schedules = 200000) {
  ScenarioOptions so;
  so.defer_bound = defer_bound;
  so.extra_tx_bound = extra_tx_bound;
  auto sys = dmc::mc::make_scenario(name, so);
  ExplorerOptions eo;
  eo.dpor = dpor;
  eo.max_schedules = max_schedules;
  return dmc::mc::explore(*sys, eo);
}

TEST(McExplorer, TransportPairExploresClean) {
  ExploreResult r = explore_scenario("transport-pair", /*dpor=*/true);
  EXPECT_TRUE(r.clean()) << r.violations << " violations";
  EXPECT_GT(r.schedules, 1);
  EXPECT_FALSE(r.hit_schedule_cap);
  // The payload handoff outcome is schedule-independent: every execution
  // digested against the first one.
  EXPECT_TRUE(r.have_reference_digest);
  EXPECT_FALSE(r.digest_divergence);
}

TEST(McExplorer, DporReducesTransportPair) {
  ExploreResult full = explore_scenario("transport-pair", /*dpor=*/false);
  ExploreResult dpor = explore_scenario("transport-pair", /*dpor=*/true);
  EXPECT_TRUE(full.clean());
  EXPECT_TRUE(dpor.clean());
  EXPECT_FALSE(full.hit_schedule_cap);
  EXPECT_FALSE(dpor.hit_schedule_cap);
  EXPECT_GT(dpor.schedules, 0);
  // The reduction factor the CLI logs must exceed 1: commuting
  // interleavings are explored once.
  EXPECT_LT(dpor.schedules, full.schedules);
  EXPECT_EQ(full.reference_digest, dpor.reference_digest);
}

TEST(McExplorer, ChainFragmentRelayExactlyOnce) {
  // Defer budget only (the retransmit space is demonstrably much larger);
  // every explored interleaving must reassemble each hop exactly once.
  ExploreResult r = explore_scenario("transport-chain3", /*dpor=*/true,
                                     /*defer_bound=*/1, /*extra_tx_bound=*/0);
  EXPECT_TRUE(r.clean()) << r.violations << " violations";
  EXPECT_FALSE(r.hit_schedule_cap);
  EXPECT_GT(r.schedules, 50);
  EXPECT_TRUE(r.have_reference_digest);
}

TEST(McExplorer, CrashTaxonomyHoldsAtEveryPosition) {
  ExploreResult full = explore_scenario("transport-crash3", /*dpor=*/false,
                                        /*defer_bound=*/0,
                                        /*extra_tx_bound=*/0);
  ExploreResult dpor = explore_scenario("transport-crash3", /*dpor=*/true,
                                        /*defer_bound=*/0,
                                        /*extra_tx_bound=*/0);
  EXPECT_TRUE(full.clean());
  EXPECT_TRUE(dpor.clean());
  EXPECT_FALSE(full.hit_schedule_cap);
  EXPECT_LT(dpor.schedules, full.schedules);
}

TEST(McExplorer, ChurnRepairDigestStableAcrossSchedules) {
  // One churn episode (init + edge-deletion repair epoch) is ~900 choice
  // points deep — a full dmc pipeline runs under the hook twice — so the
  // default depth bound would prune every execution; the schedule cap
  // bounds the run instead. Every explored interleaving must complete,
  // digest-match the schedule-free oracle inside the execution, and agree
  // on the episode digest across executions.
  ScenarioOptions so;
  auto sys = dmc::mc::make_scenario("churn-repair", so);
  ExplorerOptions eo;
  eo.depth_bound = 4096;
  eo.max_schedules = 32;
  ExploreResult r = dmc::mc::explore(*sys, eo);
  EXPECT_TRUE(r.clean()) << r.violations << " violations";
  EXPECT_GT(r.schedules, 1);
  EXPECT_EQ(r.pruned, 0);
  EXPECT_TRUE(r.have_reference_digest);
  EXPECT_FALSE(r.digest_divergence);
}

TEST(McExplorer, ChurnCrashTaxonomyHoldsAtEveryPosition) {
  // Crash positioning legitimately changes which epochs survive; the
  // invariant is the degradation taxonomy (a degraded epoch carries a
  // degraded RunOutcome; no exception ever escapes the engine).
  ScenarioOptions so;
  auto sys = dmc::mc::make_scenario("churn-crash", so);
  ExplorerOptions eo;
  eo.depth_bound = 4096;
  eo.max_schedules = 32;
  ExploreResult r = dmc::mc::explore(*sys, eo);
  EXPECT_EQ(r.violations, 0);
  EXPECT_GT(r.schedules, 1);
  EXPECT_EQ(r.pruned, 0);
}

TEST(McExplorer, PrunedExecutionsCountTowardTheCap) {
  // Depth bound 5 prunes every chain3 execution (each is ~40 choice points
  // deep). The cap must still stop the exploration: it counts pruned
  // executions, not only completed ones.
  auto sys = dmc::mc::make_scenario("transport-chain3", ScenarioOptions{});
  ExplorerOptions eo;
  eo.depth_bound = 5;
  eo.max_schedules = 10;
  ExploreResult r = dmc::mc::explore(*sys, eo);
  EXPECT_LE(r.schedules + r.pruned, 10);
  EXPECT_TRUE(r.hit_schedule_cap);
  EXPECT_EQ(r.schedules, 0);
}

TEST(McExplorer, ServeSchedulerInvariantsHold) {
  ExploreResult full = explore_scenario("serve-sched", /*dpor=*/false);
  ExploreResult dpor = explore_scenario("serve-sched", /*dpor=*/true);
  EXPECT_TRUE(full.clean()) << full.violations << " violations";
  EXPECT_TRUE(dpor.clean()) << dpor.violations << " violations";
  EXPECT_FALSE(full.hit_schedule_cap);
  EXPECT_LT(dpor.schedules, full.schedules);
}

TEST(McExplorer, PlantedBugFoundAndReplays) {
  ScenarioOptions so;  // defaults: defer 1, extra-tx 1 (the bug needs one
                       // adversarial retransmit)
  auto sys = dmc::mc::make_scenario("transport-pair-planted", so);
  ExplorerOptions eo;
  ExploreResult r = dmc::mc::explore(*sys, eo);
  ASSERT_GT(r.violations, 0) << "planted ordering bug not found";
  ASSERT_FALSE(r.counterexamples.empty());
  const dmc::mc::Counterexample& cx = r.counterexamples.front();
  EXPECT_FALSE(cx.violations.empty());

  // The recorded schedule must reproduce the identical violations on a
  // fresh System — the determinism contract of .dmcsched traces.
  auto replay_sys = dmc::mc::make_scenario("transport-pair-planted", so);
  dmc::mc::ReplayResult rr =
      dmc::mc::replay(*replay_sys, dmc::mc::to_trace(cx.steps));
  EXPECT_FALSE(rr.diverged) << rr.divergence;
  EXPECT_EQ(rr.exec.violations, cx.violations);
}

TEST(McExplorer, StopOnViolationStopsEarly) {
  ScenarioOptions so;
  auto sys = dmc::mc::make_scenario("transport-pair-planted", so);
  ExplorerOptions eo;
  eo.stop_on_violation = true;
  ExploreResult r = dmc::mc::explore(*sys, eo);
  EXPECT_GT(r.violations, 0);
  ASSERT_EQ(r.counterexamples.size(), 1u);
}

TEST(McExplorer, UnknownScenarioThrows) {
  EXPECT_THROW(dmc::mc::make_scenario("no-such-scenario", ScenarioOptions{}),
               std::invalid_argument);
}

TEST(McTrace, RoundTripsEntriesAndOptions) {
  dmc::mc::SchedTrace trace;
  trace.scenario = "transport-pair";
  trace.options = {{"defer-bound", "1"}, {"extra-tx-bound", "0"}};
  trace.entries.push_back(dmc::mc::TraceEntry{false, 0xdeadbeefcafef00dull,
                                              "deliver link=0 0->1 order=0"});
  trace.entries.push_back(dmc::mc::TraceEntry{true, 0, ""});
  trace.entries.push_back(dmc::mc::TraceEntry{false, 1, "retransmit link=1"});

  const std::string text = dmc::mc::format_trace(trace);
  dmc::mc::SchedTrace back = dmc::mc::parse_trace(text);
  EXPECT_EQ(back.scenario, trace.scenario);
  EXPECT_EQ(back.options, trace.options);
  ASSERT_EQ(back.entries.size(), trace.entries.size());
  for (std::size_t i = 0; i < trace.entries.size(); ++i) {
    EXPECT_EQ(back.entries[i].decline, trace.entries[i].decline);
    EXPECT_EQ(back.entries[i].key, trace.entries[i].key);
    EXPECT_EQ(back.entries[i].label, trace.entries[i].label);
  }
}

TEST(McTrace, RejectsMalformedInput) {
  EXPECT_THROW(dmc::mc::parse_trace(""), std::runtime_error);
  EXPECT_THROW(dmc::mc::parse_trace("dmcsched 2\nend\n"), std::runtime_error);
  EXPECT_THROW(dmc::mc::parse_trace("dmcsched 1\nscenario x\n"),
               std::runtime_error);  // missing end
  EXPECT_THROW(dmc::mc::parse_trace("dmcsched 1\nchoice nokey\nend\n"),
               std::runtime_error);
  EXPECT_THROW(dmc::mc::parse_trace("dmcsched 1\nchoice key=zz\nend\n"),
               std::runtime_error);
  EXPECT_THROW(dmc::mc::parse_trace("dmcsched 1\nbogus\nend\n"),
               std::runtime_error);
}

TEST(McTrace, ReplayDivergenceFallsBackToDefaultPolicy) {
  ScenarioOptions so;
  auto sys = dmc::mc::make_scenario("transport-pair", so);
  // A key that matches no enabled action: replay must flag divergence and
  // still complete the run under the default policy.
  std::vector<dmc::mc::TraceEntry> bogus = {
      dmc::mc::TraceEntry{false, 0x1234ull, "bogus"}};
  dmc::mc::ReplayResult r = dmc::mc::replay(*sys, bogus);
  EXPECT_TRUE(r.diverged);
  EXPECT_FALSE(r.steps.empty());
  EXPECT_TRUE(r.exec.violations.empty()) << r.exec.violations.front();
}

TEST(McTrace, DefaultReplayMatchesExplorationReference) {
  // An empty trace replays the pure default policy; its digest must equal
  // the exploration's reference digest (the default run is execution #1).
  ScenarioOptions so;
  auto sys = dmc::mc::make_scenario("transport-pair", so);
  dmc::mc::ReplayResult r = dmc::mc::replay(*sys, {});
  ExploreResult exp = explore_scenario("transport-pair", /*dpor=*/true);
  ASSERT_TRUE(exp.have_reference_digest);
  EXPECT_TRUE(r.exec.digest_valid);
  EXPECT_EQ(r.exec.digest, exp.reference_digest);
}

TEST(McScenarios, RegistryListsAllSeven) {
  std::set<std::string> names;
  for (const auto& [name, desc] : dmc::mc::list_scenarios()) {
    names.insert(name);
    EXPECT_FALSE(desc.empty());
  }
  EXPECT_EQ(names.size(), 7u);
  EXPECT_TRUE(names.count("transport-pair"));
  EXPECT_TRUE(names.count("transport-chain3"));
  EXPECT_TRUE(names.count("transport-crash3"));
  EXPECT_TRUE(names.count("transport-pair-planted"));
  EXPECT_TRUE(names.count("churn-repair"));
  EXPECT_TRUE(names.count("churn-crash"));
  EXPECT_TRUE(names.count("serve-sched"));
}

}  // namespace
