// E13 — the persistent universe cache (docs/PERFORMANCE.md §3): cold
// construction of a rank-3 universe vs a warm load of its DMCU file. The
// warm engine must replay the fold from memo hits alone (same number of
// types, `ok` = 1). The serial H-freeness sweep is measured by E7.
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>

#include "bench_util.hpp"
#include "bpt/engine.hpp"
#include "bpt/plan.hpp"
#include "bpt/tables.hpp"
#include "bpt/universe_cache.hpp"
#include "graph/generators.hpp"
#include "mso/formulas.hpp"
#include "mso/lower.hpp"
#include "seq/courcelle.hpp"

using namespace dmc;

namespace {

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

/// Universe cache: cold construction vs warm deserialization.
void report_cache() {
  std::printf("\n-- universe cache (rank-3 formula) --\n");
  const auto lowered = mso::lower(mso::lib::triangle_free());
  const Graph g = gen::path(10);
  const auto td = seq::decomposition_for(g);
  const auto plan = bpt::build_global_plan(g, td);
  const std::string path =
      (std::filesystem::temp_directory_path() / "dmc_bench_universe.dmcu")
          .string();

  bench::columns({"variant", "ms", "types", "ok"});
  std::size_t cold_types = 0;
  {
    bpt::Engine engine(bpt::config_for(*lowered));
    const auto t0 = std::chrono::steady_clock::now();
    bpt::fold_type(engine, plan, g);
    const double ms = ms_since(t0);
    cold_types = engine.num_types();
    const bool saved = bpt::save_universe_cache(engine, path);
    bench::row("cold-build", ms, (long long)cold_types, (long long)saved);
  }
  {
    bpt::Engine engine(bpt::config_for(*lowered));
    const auto t0 = std::chrono::steady_clock::now();
    const bool loaded = bpt::load_universe_cache(engine, path);
    const double ms = ms_since(t0);
    // A warm engine replays the fold from memo hits alone: same universe.
    bpt::fold_type(engine, plan, g);
    bench::row("warm-load", ms, (long long)engine.num_types(),
               (long long)(loaded && engine.num_types() == cold_types));
  }
  std::filesystem::remove(path);
}

}  // namespace

int main(int argc, char** argv) {
  bench::header(
      "E13: universe cache",
      "A warm load of a persisted class universe reproduces the cold "
      "build's universe exactly and beats constructing it.");
  report_cache();
  bench::run_benchmarks(argc, argv);
  return 0;
}
