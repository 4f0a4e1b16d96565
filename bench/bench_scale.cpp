// E16 — million-vertex simulation core (docs/PERFORMANCE.md "Sparse
// stepping and the active set"): the CSR graph arena, flat link-indexed
// mailboxes, and the event-driven round scheduler together decide an MSO
// property on 10^6-vertex bounded-treedepth instances end to end.
//
// Three sections:
//   * equivalence (small n): the sparse scheduler reproduces the dense
//     verdict, round count, AND per-round digest stream exactly;
//   * scale (n ~ 10^6): decide end-to-end on the spider and deeppath
//     families with sparse stepping + change-only flooding. Rounds,
//     messages, and active-node steps are simulator outputs — gated
//     exactly, like every deterministic E-column. The net_bytes_per_vertex
//     column is the per-vertex network overhead (flat mailboxes + link
//     tables + scheduler state; the <= 200 B/vertex budget that makes the
//     million-vertex arena fit);
//   * BM_EdgeLookup: the flat-hash edge index vs the O(degree) incidence
//     scan it replaced (wall-clock, not gated).
//
// Instance shape is constrained by the BPT engine: the decision pipeline's
// compose width is the depth of the *computed* elimination tree
// (kMaxTerminals = 11), and Algorithm 2's tree on a spine of length s is a
// chain of depth s + 1 under identity ids. So the scale families keep
// spines/legs of length 7 (treedepth 4, computed depth 8) and scale in
// width. The stress axis is the protocol bound d: Algorithm 2's schedule is
// (2^d - 1) phases of 2^d + 3 rounds, so the same instance is decided at
// its native bound (d=4, 286 rounds) and at d=9 (263,166 rounds). Dense
// stepping at d=9 would cost n * rounds ~ 2.6e11 node steps — unrunnable;
// the event-driven scheduler's active_steps barely move between the two
// bounds, because nodes quiesce once their neighborhood's election
// stabilizes and fast-forward crosses the all-marked tail in O(1) per
// skipped span. The dense-vs-sparse comparison is pinned at small n here
// and in tests/scale_test.cpp.
#include <cstdio>
#include <string>
#include <tuple>
#include <vector>

#include "bench_util.hpp"
#include "congest/conformance.hpp"
#include "congest/network.hpp"
#include "dist/elim_tree.hpp"
#include "dist/query.hpp"
#include "graph/generators.hpp"
#include "mso/formulas.hpp"

using namespace dmc;

namespace {

void report_equivalence() {
  std::printf("\n-- sparse scheduler == dense stepping (deeppath, n=2000) --\n");
  const Graph g = gen::deeppath(2000, 4);
  auto run = [&](bool sparse, std::vector<std::uint64_t>* digests) {
    audit::RoundDigestSink sink;
    congest::NetworkConfig cfg;
    cfg.sink = &sink;
    cfg.id_seed = 9;
    cfg.sparse_stepping = sparse;
    congest::Network net(g, cfg);
    const auto out =
        dist::run(net, {dist::Kind::kDecision, mso::lib::triangle_free()}, 4);
    *digests = sink.digests();
    return std::make_tuple(out.holds, net.stats().rounds,
                           net.stats().active_steps);
  };
  std::vector<std::uint64_t> dense_digests, sparse_digests;
  const auto [dense_holds, dense_rounds, dense_steps] =
      run(false, &dense_digests);
  const auto [sparse_holds, sparse_rounds, sparse_steps] =
      run(true, &sparse_digests);
  bench::columns({"scheduler", "rounds", "active_steps", "verdict_equal",
                  "digest_equal"});
  bench::row(std::string("dense"), (long long)dense_rounds,
             (long long)dense_steps, 1LL, 1LL);
  bench::row(std::string("sparse"), (long long)sparse_rounds,
             (long long)sparse_steps,
             (long long)(sparse_holds == dense_holds &&
                         sparse_rounds == dense_rounds),
             (long long)(sparse_digests == dense_digests));
}

void report_scale() {
  std::printf("\n-- million-vertex decide (sparse stepping + sparse flood) --\n");
  struct Row {
    const char* name;
    Graph graph;
    int d;  // protocol bound fed to run_decision (>= family treedepth)
  };
  std::vector<Row> rows;
  rows.push_back({"spider(4,142858)", gen::spider(4, 142858), 4});
  rows.push_back({"deeppath(1e6,4)", gen::deeppath(1'000'000, 4), 4});
  rows.push_back({"deeppath(1e6,4)", gen::deeppath(1'000'000, 4), 9});

  bench::columns({"family", "n", "d", "verdict", "rounds", "messages",
                  "active_steps", "net_bytes_per_vertex"});
  for (auto& r : rows) {
    congest::NetworkConfig cfg;
    // Identity ids (seed 0): the spine/leg minima sit at the hub end, so
    // the computed tree depth is exactly leg length + 1 = 8, and every
    // flood path is <= 7 hops, bounding per-election churn per node.
    congest::Network net(r.graph, cfg);
    dist::ElimTreeOptions tree_opts;
    tree_opts.sparse_flood = true;
    const auto out =
        dist::run(net, {dist::Kind::kDecision, mso::lib::triangle_free()}, r.d,
                  /*engine=*/nullptr, tree_opts);
    if (!out.run.ok()) {
      std::printf("unexpected degraded run on %s\n", r.name);
      return;
    }
    bench::row(std::string(r.name), (long long)r.graph.num_vertices(),
               (long long)r.d, std::string(out.holds ? "holds" : "fails"),
               (long long)net.stats().rounds, (long long)net.stats().messages,
               (long long)net.stats().active_steps,
               (long long)(net.memory_bytes() / r.graph.num_vertices()));
  }
}

/// Flat-hash edge index (Graph::edge_id) against the incidence scan it
/// replaced. The scan's cost is O(degree), so the hub of a star is its
/// worst case — and exactly the shape the CSR rebuild made cheap.
void BM_EdgeLookup(benchmark::State& state) {
  const int leaves = static_cast<int>(state.range(0));
  const Graph g = gen::star(leaves);
  g.finalize();
  VertexId leaf = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(g.edge_id(0, leaf));
    leaf = leaf == leaves ? 1 : leaf + 1;
  }
}
BENCHMARK(BM_EdgeLookup)->Arg(64)->Arg(4096)->Arg(262144);

void BM_EdgeLookupScan(benchmark::State& state) {
  const int leaves = static_cast<int>(state.range(0));
  const Graph g = gen::star(leaves);
  g.finalize();
  VertexId leaf = 1;
  for (auto _ : state) {
    EdgeId found = -1;
    for (const auto& [neighbor, edge] : g.incident(0)) {
      if (neighbor == leaf) {
        found = edge;
        break;
      }
    }
    benchmark::DoNotOptimize(found);
    leaf = leaf == leaves ? 1 : leaf + 1;
  }
}
BENCHMARK(BM_EdgeLookupScan)->Arg(64)->Arg(4096);

}  // namespace

int main(int argc, char** argv) {
  // Rows take seconds each at n ~ 10^6; stream them as they finish.
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  bench::header(
      "E16: million-vertex simulation core",
      "CSR graph + flat link-indexed mailboxes + sparse event-driven "
      "rounds decide an MSO property on 10^6-vertex bounded-treedepth "
      "instances; the sparse scheduler is digest-identical to dense "
      "stepping, active steps stay ~flat as the round schedule grows "
      "~1000x, and network overhead stays under 200 bytes/vertex.");
  report_equivalence();
  report_scale();
  bench::run_benchmarks(argc, argv);
  return 0;
}
