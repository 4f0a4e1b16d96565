// E13 — parallel fold/simulation engine and the persistent universe cache
// (docs/PERFORMANCE.md). Wall-clock scaling of the three parallelized hot
// paths, with equality against the serial path asserted inline:
//
//   * universe construction / folds:  fold_type_parallel at 1/2/4/8 threads
//     (root class must match the serial fold);
//   * per-round node stepping:        run_decision under --threads, with
//     the round digest stream (RoundDigestSink) compared to threads=1;
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
#include "congest/conformance.hpp"
#include "congest/network.hpp"
#include "dist/hfreeness.hpp"
#include "dist/query.hpp"
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

/// Simulator stepping: decision pipeline digests across thread counts.
void report_step_digests() {
  std::printf("\n-- parallel node stepping (decision pipeline digests) --\n");
  gen::Rng rng(3);
  const Graph g = gen::random_bounded_treedepth(48, 3, 0.4, rng);
  const auto formula = mso::lib::triangle_free();

  bench::columns({"threads", "ms", "verdict", "digest_equal"});
  std::vector<std::uint64_t> serial_digests;
  bool serial_verdict = false;
  for (int threads : {1, 2, 4, 8}) {
    audit::RoundDigestSink sink;
    congest::NetworkConfig cfg;
    cfg.sink = &sink;
    cfg.threads = threads;
    congest::Network net(g, cfg);
    const auto t0 = std::chrono::steady_clock::now();
    const auto out = dist::run(net, {dist::Kind::kDecision, formula}, 4);
    const double ms = ms_since(t0);
    if (threads == 1) {
      serial_digests = sink.digests();
      serial_verdict = out.holds;
    }
    bench::row((long long)threads, ms,
               std::string(out.holds ? "holds" : "fails"),
               (long long)(out.holds == serial_verdict &&
                           sink.digests() == serial_digests));
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
      "Verdicts, folded classes, and round digests are identical across "
      "--threads; the sweep and fold scale with cores; warm cache loads "
      "beat cold universe construction.");
  std::printf("hardware threads: %d\n", par::hardware_threads());
  report_fold_scaling();
  report_step_digests();
  report_sweep_scaling();
  report_cache();
  bench::run_benchmarks(argc, argv);
  return 0;
}
