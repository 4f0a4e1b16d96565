// dmc-mc: bounded systematic schedule exploration (docs/STATIC_ANALYSIS.md,
// "Model checking" section).
//
// Explores every schedule of a registered scenario (src/mc/scenarios.hpp)
// up to the adversary budgets and depth bound, with dynamic partial-order
// reduction, and reports violations as replayable .dmcsched traces.
//
//   dmc-mc --list
//   dmc-mc --scenario transport-pair [--no-dpor] [--compare]
//          [--depth-bound N] [--max-schedules N]
//          [--defer-bound N] [--extra-tx-bound N]
//          [--trace-out ce.dmcsched] [--replay ce.dmcsched]
//          [--stop-on-violation]
//   dmc-mc --self-check
//
// Exit codes: 0 = explored clean (or replay reproduced no violation),
// 9 = counterexample found (or replay reproduced one), 1 = self-check
// failed, 2 = usage / unknown scenario, 3 = no execution completed: every
// one was pruned at the depth bound, so nothing was checked (raise
// --depth-bound; the churn scenarios need 1024 or more).

#include <cstring>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "mc/explorer.hpp"
#include "mc/scenarios.hpp"
#include "mc/sched_trace.hpp"

namespace {

constexpr int kExitCounterexample = 9;
constexpr int kExitNoneCompleted = 3;

struct Args {
  std::string scenario;
  bool list = false;
  bool self_check = false;
  bool dpor = true;
  bool compare = false;  // run both modes, report the reduction factor
  bool stop_on_violation = false;
  int depth_bound = 512;
  long max_schedules = 200000;
  int defer_bound = 1;
  int extra_tx_bound = 1;
  std::string trace_out;
  std::string replay_path;
};

int usage(std::ostream& out, int code) {
  out << "usage: dmc-mc --scenario NAME [options]\n"
         "       dmc-mc --list | --self-check\n"
         "options:\n"
         "  --list                 list registered scenarios\n"
         "  --scenario NAME        scenario to explore\n"
         "  --no-dpor              full enumeration (no reduction)\n"
         "  --compare              explore with and without DPOR, report\n"
         "                         the schedule-count reduction factor\n"
         "  --depth-bound N        max choice points per execution "
         "(default 512)\n"
         "  --max-schedules N      execution cap (default 200000)\n"
         "  --defer-bound N        link-defer budget per execution "
         "(default 1)\n"
         "  --extra-tx-bound N     adversarial early-retransmit budget "
         "(default 1)\n"
         "  --trace-out FILE       write the first counterexample as a\n"
         "                         .dmcsched replay trace\n"
         "  --replay FILE          replay one .dmcsched trace instead of\n"
         "                         exploring\n"
         "  --stop-on-violation    stop at the first violating schedule\n"
         "  --self-check           plant a transport ordering bug, verify\n"
         "                         the explorer finds it and the trace\n"
         "                         replays it deterministically\n";
  return code;
}

bool parse_long(const char* s, long& out) {
  try {
    out = std::stol(s);
  } catch (...) {
    return false;
  }
  return true;
}

dmc::mc::ExplorerOptions explorer_options(const Args& a) {
  dmc::mc::ExplorerOptions o;
  o.dpor = a.dpor;
  o.depth_bound = a.depth_bound;
  o.max_schedules = a.max_schedules;
  o.stop_on_violation = a.stop_on_violation;
  return o;
}

dmc::mc::ScenarioOptions scenario_options(const Args& a) {
  dmc::mc::ScenarioOptions o;
  o.defer_bound = a.defer_bound;
  o.extra_tx_bound = a.extra_tx_bound;
  return o;
}

void print_result(const std::string& mode, const dmc::mc::ExploreResult& r) {
  std::cout << "  [" << mode << "] schedules=" << r.schedules
            << " pruned=" << r.pruned << " max-depth=" << r.max_depth
            << " violations=" << r.violations
            << (r.hit_schedule_cap ? " (schedule cap hit)" : "") << "\n";
}

void save_trace(const Args& args, const dmc::mc::Counterexample& cx) {
  if (args.trace_out.empty()) return;
  dmc::mc::SchedTrace trace;
  trace.scenario = args.scenario;
  trace.options = {
      {"defer-bound", std::to_string(args.defer_bound)},
      {"extra-tx-bound", std::to_string(args.extra_tx_bound)},
      {"depth-bound", std::to_string(args.depth_bound)},
  };
  trace.entries = dmc::mc::to_trace(cx.steps);
  dmc::mc::write_trace(args.trace_out, trace);
  std::cout << "counterexample trace written to " << args.trace_out << "\n";
}

int run_replay(const Args& args) {
  dmc::mc::SchedTrace trace = dmc::mc::read_trace(args.replay_path);
  const std::string name =
      args.scenario.empty() ? trace.scenario : args.scenario;
  auto sys = dmc::mc::make_scenario(name, scenario_options(args));
  std::cout << "dmc-mc: replaying " << trace.entries.size()
            << " recorded choices on " << name << "\n";
  dmc::mc::ReplayResult r = dmc::mc::replay(*sys, trace.entries);
  for (const auto& s : r.steps)
    if (s.chosen >= 0)
      std::cout << "  " << s.enabled[s.chosen].label << "\n";
    else
      std::cout << "  (declined optional actions)\n";
  if (r.diverged)
    std::cout << "replay diverged: " << r.divergence << "\n";
  std::cout << "outcome: " << (r.exec.outcome.empty() ? "-" : r.exec.outcome)
            << "\n";
  for (const std::string& v : r.exec.violations)
    std::cout << "violation: " << v << "\n";
  if (!r.exec.violations.empty()) {
    std::cout << "replay reproduced " << r.exec.violations.size()
              << " violation(s)\n";
    return kExitCounterexample;
  }
  std::cout << "replay completed without violations\n";
  return 0;
}

int run_explore(const Args& args) {
  auto sys = dmc::mc::make_scenario(args.scenario, scenario_options(args));
  std::cout << "dmc-mc: exploring " << args.scenario
            << " (defer-bound=" << args.defer_bound
            << ", extra-tx-bound=" << args.extra_tx_bound
            << ", depth-bound=" << args.depth_bound << ")\n";

  dmc::mc::ExploreResult dpor_result;
  bool have_result = false;
  if (args.compare || !args.dpor) {
    auto full_sys =
        dmc::mc::make_scenario(args.scenario, scenario_options(args));
    dmc::mc::ExplorerOptions full_opts = explorer_options(args);
    full_opts.dpor = false;
    dmc::mc::ExploreResult full = dmc::mc::explore(*full_sys, full_opts);
    print_result("full", full);
    if (!args.dpor) {
      dpor_result = std::move(full);
      have_result = true;
    } else if (args.compare) {
      dmc::mc::ExplorerOptions opts = explorer_options(args);
      dpor_result = dmc::mc::explore(*sys, opts);
      have_result = true;
      print_result("dpor", dpor_result);
      if (dpor_result.schedules > 0 && !dpor_result.hit_schedule_cap) {
        const double factor = static_cast<double>(full.schedules) /
                              static_cast<double>(dpor_result.schedules);
        if (full.hit_schedule_cap)
          // The unreduced space is larger than the cap: the true factor
          // is at least cap / dpor-schedules.
          std::cout << "  reduction factor: >= " << factor << "x ("
                    << full.schedules << "+ -> " << dpor_result.schedules
                    << " schedules; full enumeration capped)\n";
        else
          std::cout << "  reduction factor: " << factor << "x ("
                    << full.schedules << " -> " << dpor_result.schedules
                    << " schedules)\n";
      }
    }
  }
  if (!have_result)
    dpor_result = dmc::mc::explore(*sys, explorer_options(args));
  if (args.dpor && !args.compare) print_result("dpor", dpor_result);

  const dmc::mc::ExploreResult& r = dpor_result;
  if (r.schedules == 0) {
    std::cout << "no execution completed: all " << r.pruned
              << " explored executions were pruned at --depth-bound "
              << args.depth_bound
              << "; raise --depth-bound to check this scenario\n";
    return kExitNoneCompleted;
  }
  if (r.clean()) {
    std::cout << "explored clean: no invariant violations, "
              << (r.have_reference_digest
                      ? "all digests equal across schedules"
                      : "digest checking off for this scenario")
              << "\n";
    return 0;
  }
  std::cout << r.violations << " violation(s) across "
            << r.counterexamples.size() << " captured counterexample(s)\n";
  for (std::size_t i = 0; i < r.counterexamples.size(); ++i) {
    const auto& cx = r.counterexamples[i];
    std::cout << "counterexample " << i + 1 << " (outcome "
              << (cx.outcome.empty() ? "-" : cx.outcome) << "):\n";
    for (const auto& s : cx.steps)
      if (s.chosen >= 0)
        std::cout << "    " << s.enabled[s.chosen].label << "\n";
      else
        std::cout << "    (declined optional actions)\n";
    for (const std::string& v : cx.violations)
      std::cout << "  violation: " << v << "\n";
  }
  if (!r.counterexamples.empty()) save_trace(args, r.counterexamples.front());
  return kExitCounterexample;
}

/// Plants an ordering bug in the transport's duplicate suppression
/// (transport-pair-planted), asserts the explorer finds it, and asserts
/// the .dmcsched trace replays to the same violation — the end-to-end
/// soundness test of the seam + explorer + trace stack.
int run_self_check(Args args) {
  args.scenario = "transport-pair-planted";
  if (args.extra_tx_bound < 1) args.extra_tx_bound = 1;
  auto sys = dmc::mc::make_scenario(args.scenario, scenario_options(args));
  std::cout << "dmc-mc: self-check on " << args.scenario << "\n";
  dmc::mc::ExplorerOptions opts = explorer_options(args);
  dmc::mc::ExploreResult r = dmc::mc::explore(*sys, opts);
  print_result("dpor", r);
  if (r.violations == 0 || r.counterexamples.empty()) {
    std::cout << "self-check FAILED: planted ordering bug not found\n";
    return 1;
  }
  const dmc::mc::Counterexample& cx = r.counterexamples.front();
  std::cout << "planted bug found; counterexample schedule:\n";
  for (const auto& s : cx.steps)
    if (s.chosen >= 0) std::cout << "    " << s.enabled[s.chosen].label << "\n";
  for (const std::string& v : cx.violations)
    std::cout << "  violation: " << v << "\n";
  // The counterexample must reproduce deterministically from its trace.
  auto replay_sys =
      dmc::mc::make_scenario(args.scenario, scenario_options(args));
  dmc::mc::ReplayResult rr =
      dmc::mc::replay(*replay_sys, dmc::mc::to_trace(cx.steps));
  if (rr.diverged) {
    std::cout << "self-check FAILED: replay diverged: " << rr.divergence
              << "\n";
    return 1;
  }
  if (rr.exec.violations != cx.violations) {
    std::cout << "self-check FAILED: replay did not reproduce the recorded "
                 "violations\n";
    for (const std::string& v : rr.exec.violations)
      std::cout << "  replay violation: " << v << "\n";
    return 1;
  }
  if (!args.trace_out.empty()) save_trace(args, cx);
  std::cout << "self-check OK: bug found and counterexample replayed "
               "deterministically\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::cerr << "dmc-mc: " << flag << " needs a value\n";
        return nullptr;
      }
      return argv[++i];
    };
    long n = 0;
    if (a == "--list") {
      args.list = true;
    } else if (a == "--self-check") {
      args.self_check = true;
    } else if (a == "--no-dpor") {
      args.dpor = false;
    } else if (a == "--compare") {
      args.compare = true;
    } else if (a == "--stop-on-violation") {
      args.stop_on_violation = true;
    } else if (a == "--scenario") {
      const char* v = value("--scenario");
      if (v == nullptr) return usage(std::cerr, 2);
      args.scenario = v;
    } else if (a == "--trace-out") {
      const char* v = value("--trace-out");
      if (v == nullptr) return usage(std::cerr, 2);
      args.trace_out = v;
    } else if (a == "--replay") {
      const char* v = value("--replay");
      if (v == nullptr) return usage(std::cerr, 2);
      args.replay_path = v;
    } else if (a == "--depth-bound" || a == "--max-schedules" ||
               a == "--defer-bound" || a == "--extra-tx-bound") {
      const char* v = value(a.c_str());
      if (v == nullptr || !parse_long(v, n) || n < 0) {
        std::cerr << "dmc-mc: bad value for " << a << "\n";
        return usage(std::cerr, 2);
      }
      if (a == "--depth-bound") args.depth_bound = static_cast<int>(n);
      if (a == "--max-schedules") args.max_schedules = n;
      if (a == "--defer-bound") args.defer_bound = static_cast<int>(n);
      if (a == "--extra-tx-bound") args.extra_tx_bound = static_cast<int>(n);
    } else if (a == "--help" || a == "-h") {
      return usage(std::cout, 0);
    } else {
      std::cerr << "dmc-mc: unknown option '" << a << "'\n";
      return usage(std::cerr, 2);
    }
  }

  try {
    if (args.list) {
      for (const auto& [name, desc] : dmc::mc::list_scenarios())
        std::cout << name << "\n    " << desc << "\n";
      return 0;
    }
    if (args.self_check) return run_self_check(args);
    if (!args.replay_path.empty()) return run_replay(args);
    if (args.scenario.empty()) {
      std::cerr << "dmc-mc: --scenario (or --list / --self-check / --replay) "
                   "required\n";
      return usage(std::cerr, 2);
    }
    return run_explore(args);
  } catch (const std::exception& ex) {
    std::cerr << "dmc-mc: " << ex.what() << "\n";
    return 2;
  }
}
