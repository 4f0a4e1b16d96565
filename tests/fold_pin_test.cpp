// Pins the BPT engine's observable behaviour across changes to its lookup
// structures (op index, compose memo, primitive memo, the glue loops of
// the table folds). Each cell folds one query twice through one engine,
// so the second fold runs on memo hits, and reduces everything the folds
// expose to one FNV-1a digest:
//   - the dist::run outcome (result text, digest, selection, counters);
//   - the root OPT / COUNT tables of the global plan and the selection
//     OptSolver reconstructs from them;
//   - Engine::stats(), num_types() and num_ops();
//   - every TypeNode, in id order.
// Type ids are insertion order, so any change in compose order, memo
// behaviour or op numbering moves a digest.
//
// On a mismatch the failure prints the cell's actual digest. Re-record a
// digest only for a change that moves the engine's behaviour on purpose.
#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "bpt/engine.hpp"
#include "bpt/plan.hpp"
#include "bpt/tables.hpp"
#include "congest/network.hpp"
#include "dist/query.hpp"
#include "graph/generators.hpp"
#include "mso/formulas.hpp"
#include "mso/lower.hpp"
#include "seq/courcelle.hpp"

namespace dmc {
namespace {

using mso::Sort;
namespace lib = mso::lib;

constexpr unsigned kSeeds[] = {31, 32, 33};

/// A random bounded-treedepth graph with uneven vertex weights, so OPT
/// tables hold more than cardinalities.
Graph pin_graph(unsigned seed) {
  gen::Rng rng(seed);
  Graph g = gen::random_bounded_treedepth(20, 3, 0.4, rng);
  for (VertexId v = 0; v < g.num_vertices(); ++v)
    g.set_vertex_weight(v, 1 + (v * 7) % 5);
  return g;
}

void put_bits(std::ostringstream& out, const char* tag,
              const std::vector<bool>& bits) {
  out << tag;
  for (bool b : bits) out << (b ? '1' : '0');
  out << '\n';
}

void put_engine(std::ostringstream& out, const bpt::Engine& engine) {
  const bpt::Engine::Stats s = engine.stats();
  out << "engine " << s.compose_calls << ' ' << s.memo_hits << ' '
      << s.invalid_compositions << ' ' << engine.num_types() << ' '
      << engine.num_ops() << '\n';
  std::ostringstream nodes;
  for (std::size_t t = 0; t < engine.num_types(); ++t) {
    const bpt::TypeNode& n = engine.node(static_cast<bpt::TypeId>(t));
    const bpt::AtomicInfo& a = n.atoms;
    nodes << n.rank << ' ' << int{a.tau} << ' ' << a.term_adj << ' '
          << a.adjsets << ' ' << a.subsets << ' ' << a.disjs << ' ' << a.incs
          << ' ' << a.crosses << " [";
    for (const bpt::VarAtoms& v : a.vars)
      nodes << static_cast<int>(v.sort) << ':' << v.mask << ':' << v.pair_mask
            << ':' << int{v.hidden} << ':' << int{v.cohidden} << ':'
            << int{v.border} << ':' << v.labels << ' ';
    nodes << "] v";
    for (bpt::TypeId e : n.vexts) nodes << ' ' << e;
    nodes << " e";
    for (bpt::TypeId e : n.eexts) nodes << ' ' << e;
    nodes << '\n';
  }
  out << "nodes " << dist::result_digest(nodes.str()) << '\n';
}

void put_outcome(std::ostringstream& out, const dist::Outcome& o) {
  out << "outcome " << o.result << ' ' << o.digest << ' ' << o.holds << ' '
      << o.count << ' ' << (o.best_weight ? *o.best_weight : -1) << ' '
      << o.is_optimal << ' ' << o.marked_weight << ' ' << o.num_classes << ' '
      << o.max_class_bits << ' ' << o.max_table_entries << ' ' << o.folds
      << ' ' << o.total_rounds() << '\n';
  put_bits(out, "vertices ", o.vertices);
  put_bits(out, "edges ", o.edges);
}

template <typename Table>
void put_table(std::ostringstream& out, const char* tag, const Table& table) {
  out << tag;
  for (const auto& [t, v] : table) out << ' ' << t << ':' << v;
  out << '\n';
}

/// The global plan's folds on `engine`: the root class (no free slot), the
/// root COUNT table, or the root OPT table with the selection rebuilt from
/// every root class.
void put_global_fold(std::ostringstream& out, bpt::Engine& engine,
                     const Graph& g, const bpt::Plan& plan) {
  const std::size_t slots = engine.config().free_sorts.size();
  if (slots == 0) {
    out << "root " << bpt::fold_type(engine, plan, g) << '\n';
    return;
  }
  put_table(out, "count", bpt::fold_count(engine, plan, g)[plan.root]);
  if (slots != 1) return;
  const bpt::OptSolver solver(engine, plan, g);
  put_table(out, "opt", solver.root_table());
  for (const auto& [t, w] : solver.root_table()) {
    const bpt::OptSolver::Solution sol = solver.reconstruct(t);
    out << t << ' ';
    put_bits(out, "v ", sol.vertices);
    put_bits(out, "e ", sol.edges);
  }
}

/// One dist query folded twice through one engine, then the global plan
/// folded twice through the same engine.
std::string dist_digest(const Graph& g, const dist::Query& q) {
  std::ostringstream out;
  bpt::Engine engine(dist::universe_key(q).cfg);
  for (int pass = 0; pass < 2; ++pass) {
    congest::Network net(g);
    put_outcome(out, dist::run(net, q, 3, &engine));
    put_engine(out, engine);
  }
  const bpt::Plan plan =
      bpt::build_global_plan(g, seq::decomposition_for(g));
  for (int pass = 0; pass < 2; ++pass) {
    put_global_fold(out, engine, g, plan);
    put_engine(out, engine);
  }
  return dist::result_digest(out.str());
}

/// A sequential query's engine and global plan folded twice over `g`, next
/// to the seq:: front door's own answer.
std::string seq_digest(const Graph& g, const mso::FormulaPtr& formula,
                       const std::vector<std::pair<std::string, Sort>>& frees,
                       const std::string& answer) {
  std::ostringstream out;
  out << "answer " << answer << '\n';
  const mso::FormulaPtr lowered = mso::lower(formula, frees);
  bpt::Engine engine(bpt::config_for(*lowered, frees));
  const bpt::Plan plan =
      bpt::build_global_plan(g, seq::decomposition_for(g));
  for (int pass = 0; pass < 2; ++pass) {
    put_global_fold(out, engine, g, plan);
    put_engine(out, engine);
  }
  return dist::result_digest(out.str());
}

void pin_dist(const dist::Query& q,
              const std::map<unsigned, std::string>& expected,
              bool mark_optimum = false) {
  for (unsigned seed : kSeeds) {
    SCOPED_TRACE(seed);
    Graph g = pin_graph(seed);
    if (mark_optimum) {
      const auto opt = seq::maximize(g, q.formula, q.frees[0].first,
                                     q.frees[0].second);
      ASSERT_TRUE(opt.has_value());
      for (VertexId v = 0; v < g.num_vertices(); ++v)
        if (opt->vertices[v]) g.set_vertex_label("marked", v);
    }
    const auto it = expected.find(seed);
    ASSERT_NE(it, expected.end());
    EXPECT_EQ(dist_digest(g, q), it->second);
  }
}

const std::vector<std::pair<std::string, Sort>> kS = {{"S", Sort::VertexSet}};

TEST(FoldPin, Decide) {
  pin_dist({dist::Kind::kDecision, lib::triangle_free()},
           {{31, "bed53e01db3286a7"}, {32, "72879257e11a6137"}, {33, "5edcd38d37bb3899"}});
}

TEST(FoldPin, Count) {
  pin_dist({dist::Kind::kCount, lib::dominating_set(), kS},
           {{31, "0ded3f6336dbfb93"}, {32, "33e3ac5e14fbcb87"}, {33, "d894068749707ca7"}});
}

TEST(FoldPin, Maximize) {
  pin_dist({dist::Kind::kMaximize, lib::independent_set(), kS},
           {{31, "d650189f01933f42"}, {32, "022ee7003a87946e"}, {33, "182272c8cbe92196"}});
}

TEST(FoldPin, Minimize) {
  pin_dist({dist::Kind::kMinimize, lib::vertex_cover(), kS},
           {{31, "ead59fac3107c170"}, {32, "617977304001d5b6"}, {33, "d4e21ae6424c137b"}});
}

TEST(FoldPin, OptMarked) {
  pin_dist({dist::Kind::kOptMarked, lib::independent_set(), kS},
           {{31, "9680680779078021"}, {32, "1a73df9db49b2200"}, {33, "8a3b9ccc4b87e5e2"}}, /*mark_optimum=*/true);
}

TEST(FoldPin, SeqCount) {
  const Graph g = pin_graph(kSeeds[0]);
  const std::uint64_t n = seq::count(g, lib::dominating_set(), kS);
  EXPECT_EQ(seq_digest(g, lib::dominating_set(), kS, std::to_string(n)), "46b6b1167c222798");
}

TEST(FoldPin, SeqMinimize) {
  const Graph g = pin_graph(kSeeds[0]);
  const auto opt = seq::minimize(g, lib::dominating_set(), "S",
                                 Sort::VertexSet);
  ASSERT_TRUE(opt.has_value());
  std::ostringstream answer;
  answer << opt->weight << ' ';
  for (bool b : opt->vertices) answer << (b ? '1' : '0');
  // seq::minimize maximizes over negated weights; fold the same graph.
  Graph negated = g;
  for (VertexId v = 0; v < g.num_vertices(); ++v)
    negated.set_vertex_weight(v, -g.vertex_weight(v));
  EXPECT_EQ(seq_digest(negated, lib::dominating_set(), kS, answer.str()),
            "fef65bbc33576e0d");
}

}  // namespace
}  // namespace dmc
