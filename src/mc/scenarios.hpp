// dmc-mc scenario registry: name -> System-under-test factory.
#pragma once

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "mc/explorer.hpp"

namespace dmc::mc {

/// Per-execution adversary budgets of the hooked-transport scenarios: how
/// many link-hold choices and early retransmit firings a schedule may
/// contain. CongestSystem filters offers beyond the budget before the
/// choice point is recorded, so the schedule space stays finite. (The
/// serve model bounds itself via its tick budget.)
struct ScenarioOptions {
  int defer_bound = 1;
  int extra_tx_bound = 1;
};

/// (name, description) of every registered scenario, registry order.
std::vector<std::pair<std::string, std::string>> list_scenarios();

/// Instantiates a scenario by name; throws std::invalid_argument listing
/// the known names on an unknown one.
std::unique_ptr<System> make_scenario(const std::string& name,
                                      const ScenarioOptions& options);

}  // namespace dmc::mc
