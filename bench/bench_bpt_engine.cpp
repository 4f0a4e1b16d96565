// E8 — Theorem 4.2 realization: the BPT type engine. Reports the size of
// the reachable class universe |C| and compose throughput as functions of
// the formula rank and the decomposition width — the non-elementary
// constant of the meta-theorem made visible. Uses google-benchmark for the
// throughput entries.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench_util.hpp"
#include "bpt/engine.hpp"
#include "bpt/plan.hpp"
#include "bpt/tables.hpp"
#include "graph/generators.hpp"
#include "mso/formulas.hpp"
#include "mso/lower.hpp"
#include "seq/courcelle.hpp"

using namespace dmc;

namespace {

void report_universe() {
  bench::header("E8: BPT type universe |C| vs (formula, width)",
                "Claim C5 (Theorem 4.2): |C| is finite, independent of n, "
                "but grows steeply with rank and width — the meta-theorem's "
                "constant.");
  struct Case {
    const char* name;
    mso::FormulaPtr formula;
  };
  const Case cases[] = {
      {"connected(r1)", mso::lib::connected()},
      {"triangle_free(r3)", mso::lib::triangle_free()},
      {"acyclic(r4)", mso::lib::acyclic()},
  };
  bench::columns({"formula", "graph", "width", "|C|", "composes",
                  "memo_hits", "invalid"});
  for (const Case& c : cases) {
    for (int n : {6, 8, 10}) {
      const Graph g = gen::path(n);
      const auto lowered = mso::lower(c.formula);
      bpt::Engine engine(bpt::config_for(*lowered));
      const auto td = seq::decomposition_for(g);
      const auto plan = bpt::build_global_plan(g, td);
      bpt::fold_type(engine, plan, g);
      bench::row(std::string(c.name), "path" + std::to_string(n),
                 (long long)td.width(), (long long)engine.num_types(),
                 engine.stats().compose_calls, engine.stats().memo_hits,
                 engine.stats().invalid_compositions);
    }
  }
}

void BM_FoldTriangleFree(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  gen::Rng rng(1);
  const Graph g = gen::random_bounded_treedepth(n, 2, 0.5, rng);
  const auto lowered = mso::lower(mso::lib::triangle_free());
  const auto td = seq::decomposition_for(g);
  const auto plan = bpt::build_global_plan(g, td);
  for (auto _ : state) {
    bpt::Engine engine(bpt::config_for(*lowered));
    benchmark::DoNotOptimize(bpt::fold_type(engine, plan, g));
  }
}
BENCHMARK(BM_FoldTriangleFree)->Arg(8)->Arg(16)->Arg(32);

void BM_FoldConnected(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const Graph g = gen::path(n);
  const auto lowered = mso::lower(mso::lib::connected());
  const auto td = seq::decomposition_for(g);
  const auto plan = bpt::build_global_plan(g, td);
  for (auto _ : state) {
    bpt::Engine engine(bpt::config_for(*lowered));
    benchmark::DoNotOptimize(bpt::fold_type(engine, plan, g));
  }
}
BENCHMARK(BM_FoldConnected)->Arg(16)->Arg(64)->Arg(256);

// OPT-table fold throughput. The OPT and COUNT tables are sorted flat
// vectors (bpt/flat_map.hpp); this microbench hammers their find/insert
// path through the weighted fold, so a regression in the table
// representation shows up directly as a throughput delta here.
void BM_OptTableFold(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  gen::Rng rng(7);
  const Graph g = gen::random_bounded_treedepth(n, 3, 0.5, rng);
  const std::vector<std::pair<std::string, mso::Sort>> frees{
      {"S", mso::Sort::VertexSet}};
  const auto lowered = mso::lower(mso::lib::dominating_set(), frees);
  const auto td = seq::decomposition_for(g);
  const auto plan = bpt::build_global_plan(g, td);
  for (auto _ : state) {
    bpt::Engine engine(bpt::config_for(*lowered, frees));
    bpt::OptSolver solver(engine, plan, g);
    benchmark::DoNotOptimize(solver.root_table().size());
  }
}
BENCHMARK(BM_OptTableFold)->Arg(8)->Arg(16)->Arg(32);

// The same OPT fold on a warm engine: every composition is a memo hit and
// every primitive a memo hit, as when dmcd serves a fold from a leased
// class universe. This isolates the engine's lookup path (op resolution,
// compose memo, trace pairing) from class interning.
void BM_OptTableFoldWarm(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  gen::Rng rng(7);
  const Graph g = gen::random_bounded_treedepth(n, 3, 0.5, rng);
  const std::vector<std::pair<std::string, mso::Sort>> frees{
      {"S", mso::Sort::VertexSet}};
  const auto lowered = mso::lower(mso::lib::dominating_set(), frees);
  const auto td = seq::decomposition_for(g);
  const auto plan = bpt::build_global_plan(g, td);
  bpt::Engine engine(bpt::config_for(*lowered, frees));
  bpt::OptSolver(engine, plan, g);  // cold fold: fills the universe
  for (auto _ : state) {
    bpt::OptSolver solver(engine, plan, g);
    benchmark::DoNotOptimize(solver.root_table().size());
  }
}
BENCHMARK(BM_OptTableFoldWarm)->Arg(8)->Arg(16)->Arg(32);

}  // namespace

int main(int argc, char** argv) {
  report_universe();
  bench::run_benchmarks(argc, argv);
  return 0;
}
