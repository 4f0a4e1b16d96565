// E13 — parallel folds and sweep, and the persistent universe cache
// (docs/PERFORMANCE.md). Wall-clock scaling of the two parallelized hot
// paths, with equality against the serial path asserted inline:
//
//   * universe construction / folds:  fold_type_parallel at 1/2/4/8 threads
//     (root class must match the serial fold);
//   * the E7 per-union sweep:         HFreenessOptions::sweep_threads
//     (verdict must match the serial sweep);
//   * the universe cache:             cold build vs warm load of the same
//     rank-3 universe.
//
// Speedups depend on the host's core count — on single-core CI shards the
// interesting columns are the equality ones, which must hold everywhere.
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "bpt/engine.hpp"
#include "bpt/plan.hpp"
#include "bpt/tables.hpp"
#include "bpt/universe_cache.hpp"
#include "congest/network.hpp"
#include "dist/hfreeness.hpp"
#include "graph/generators.hpp"
#include "mso/ast.hpp"
#include "mso/formulas.hpp"
#include "mso/lower.hpp"
#include "par/pool.hpp"
#include "seq/courcelle.hpp"

using namespace dmc;

namespace {

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

/// Universe construction: the same fold at increasing thread counts.
void report_fold_scaling() {
  std::printf("\n-- parallel fold (universe construction, E8 workload) --\n");
  gen::Rng rng(11);
  const Graph g = gen::random_bounded_treedepth(96, 3, 0.5, rng);
  const auto lowered = mso::lower(mso::lib::triangle_free());
  const auto td = seq::decomposition_for(g);
  const auto plan = bpt::build_global_plan(g, td);

  bench::columns({"threads", "ms", "speedup", "types", "root_stable"});
  double serial_ms = 0;
  for (int threads : {1, 2, 4, 8}) {
    bpt::Engine engine(bpt::config_for(*lowered));
    const auto t0 = std::chrono::steady_clock::now();
    const bpt::TypeId root = bpt::fold_type_parallel(engine, plan, g, threads);
    const double ms = ms_since(t0);
    if (threads == 1) serial_ms = ms;
    // Ids across different engines are not comparable (interning order may
    // differ), so check class identity by re-folding serially *in the same
    // engine*: hash-consing must land on the exact same id.
    const bpt::TypeId refold = bpt::fold_type(engine, plan, g);
    bench::row((long long)threads, ms, serial_ms / ms,
               (long long)engine.num_types(), (long long)(refold == root));
  }
}

/// The E7 per-union sweep: independent part-subsets in parallel.
void report_sweep_scaling() {
  std::printf("\n-- parallel H-freeness sweep (E7 workload) --\n");
  const Graph triangle = gen::clique(3);
  const int side = 12;
  const Graph g = gen::grid(side, side);

  bench::columns({"threads", "ms", "speedup", "subsets", "h_free", "match"});
  double serial_ms = 0;
  bool serial_free = false;
  for (int threads : {1, 2, 4, 8}) {
    dist::HFreenessOptions opts;
    opts.sweep_threads = threads;
    const auto t0 = std::chrono::steady_clock::now();
    const auto out = dist::run_h_freeness_grid(g, side, side, triangle, 4,
                                               congest::NetworkConfig{}, opts);
    const double ms = ms_since(t0);
    if (threads == 1) {
      serial_ms = ms;
      serial_free = out.h_free;
    }
    bench::row((long long)threads, ms, serial_ms / ms,
               (long long)out.num_subsets, (long long)out.h_free,
               (long long)(out.h_free == serial_free));
  }
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
      "E13: parallel fold/simulation engine + universe cache",
      "Folded classes and sweep verdicts are identical across thread "
      "counts; the sweep and fold scale with cores; warm cache loads beat "
      "cold universe construction. The simulator steps serially "
      "(docs/PERFORMANCE.md §2).");
  std::printf("hardware threads: %d\n", par::hardware_threads());
  report_fold_scaling();
  report_sweep_scaling();
  report_cache();
  bench::run_benchmarks(argc, argv);
  return 0;
}
