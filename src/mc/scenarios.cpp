#include "mc/scenarios.hpp"

#include <functional>
#include <stdexcept>

#include "mc/churn_system.hpp"
#include "mc/congest_system.hpp"
#include "mc/serve_system.hpp"

namespace dmc::mc {

namespace {

struct Entry {
  const char* name;
  const char* description;
  std::function<std::unique_ptr<System>(const ScenarioOptions&)> make;
};

std::unique_ptr<System> make_congest(CongestScenario scenario,
                                     const ScenarioOptions& o) {
  return std::make_unique<CongestSystem>(std::move(scenario), o);
}

const std::vector<Entry>& registry() {
  static const std::vector<Entry> entries = {
      {"transport-pair",
       "2-node reliable-transport payload handoff (delivery exactly once, "
       "schedule-independent digest)",
       [](const ScenarioOptions& o) {
         return make_congest(scenario_transport_pair(false), o);
       }},
      {"transport-chain3",
       "3-node fragment relay over the reliable transport (exactly-once "
       "reassembly across two hops)",
       [](const ScenarioOptions& o) {
         return make_congest(scenario_transport_chain3(), o);
       }},
      {"transport-crash3",
       "3-node flood with a crash-stop fault at an explored position "
       "(RunOutcome taxonomy)",
       [](const ScenarioOptions& o) {
         return make_congest(scenario_transport_crash3(), o);
       }},
      {"transport-pair-planted",
       "transport-pair with the planted stale-ack ordering bug "
       "(--self-check target; needs extra-tx budget >= 1)",
       [](const ScenarioOptions& o) {
         return make_congest(scenario_transport_pair(true), o);
       }},
      {"churn-repair",
       "4-cycle churn epoch (edge deletion + incremental elimination-tree "
       "repair) under hooked lossless transport; oracle digest equality on "
       "every interleaving",
       [](const ScenarioOptions& o) {
         return make_congest(scenario_churn_repair(), o);
       }},
      {"churn-crash",
       "churn-repair with a crash-stop fault at an explored position in "
       "every epoch network (degradation taxonomy, full-recompute "
       "fallback)",
       [](const ScenarioOptions& o) {
         return make_congest(scenario_churn_crash(), o);
       }},
      {"serve-sched",
       "serve scheduler admission/deadline/drain state machine over the "
       "shared GroupQueue core",
       [](const ScenarioOptions&) {
         return std::make_unique<ServeSystem>(ServeSystem::default_config());
       }},
  };
  return entries;
}

}  // namespace

std::vector<std::pair<std::string, std::string>> list_scenarios() {
  std::vector<std::pair<std::string, std::string>> out;
  for (const Entry& e : registry()) out.emplace_back(e.name, e.description);
  return out;
}

std::unique_ptr<System> make_scenario(const std::string& name,
                                      const ScenarioOptions& options) {
  for (const Entry& e : registry())
    if (name == e.name) return e.make(options);
  std::string known;
  for (const Entry& e : registry()) {
    if (!known.empty()) known += ", ";
    known += e.name;
  }
  throw std::invalid_argument("unknown mc scenario '" + name +
                              "' (known: " + known + ")");
}

}  // namespace dmc::mc
