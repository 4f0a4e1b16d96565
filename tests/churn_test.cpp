// Churn engine suite (src/churn; docs/ROBUSTNESS.md "Churn and repair"):
// script parsing, batch application and its edge delta, incremental
// elimination-tree repair validity (pinned against recorded digests),
// coordinator-side bag mirroring, the engine's one re-derived network
// against fresh ones, incremental-vs-from-scratch digest equality across
// all pipelines, and fault-composed recovery.
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>

#include "churn/engine.hpp"
#include "churn/repair.hpp"
#include "churn/script.hpp"
#include "congest/network.hpp"
#include "congest/wire.hpp"
#include "dist/bags.hpp"
#include "dist/elim_tree.hpp"
#include "graph/generators.hpp"
#include "mso/formulas.hpp"
#include "obs/trace.hpp"
#include "td/elimination_forest.hpp"

namespace dmc::churn {
namespace {

using mso::Sort;
namespace lib = mso::lib;

Graph btd_graph(unsigned seed, int n = 10, int d = 3, double p = 0.4) {
  gen::Rng rng(seed);
  return gen::random_bounded_treedepth(n, d, p, rng);
}

// --- script parsing -----------------------------------------------------------

TEST(ChurnScript, ParsesBatchesAndOptions) {
  const ChurnScript s =
      parse_churn_script("add=0-2,del=1-3;delv=4;addv=0+1,random=2,seed=9");
  ASSERT_EQ(s.batches.size(), 3u);
  EXPECT_EQ(s.batches[0].size(), 2u);
  EXPECT_EQ(s.batches[0][0].kind, ChurnEvent::Kind::kAddEdge);
  EXPECT_EQ(s.batches[0][1].kind, ChurnEvent::Kind::kDelEdge);
  EXPECT_EQ(s.batches[1][0].kind, ChurnEvent::Kind::kDelVertex);
  EXPECT_EQ(s.batches[2][0].kind, ChurnEvent::Kind::kAddVertex);
  EXPECT_EQ(s.batches[2][0].neighbors, (std::vector<VertexId>{0, 1}));
  EXPECT_EQ(s.random_events, 2);
  EXPECT_EQ(s.seed, 9u);
  EXPECT_TRUE(s.verify);
}

TEST(ChurnScript, RoundTripsThroughFormat) {
  const char* spec = "add=0-2;delv=4;random=3,seed=7,verify=off";
  const ChurnScript s = parse_churn_script(spec);
  const ChurnScript again = parse_churn_script(format_churn_script(s));
  EXPECT_EQ(again.batches.size(), s.batches.size());
  EXPECT_EQ(again.random_events, s.random_events);
  EXPECT_EQ(again.seed, s.seed);
  EXPECT_EQ(again.verify, s.verify);
}

TEST(ChurnScript, RejectsMalformedSpecs) {
  EXPECT_THROW(parse_churn_script("add=0"), std::invalid_argument);
  EXPECT_THROW(parse_churn_script("add=0-0"), std::invalid_argument);
  EXPECT_THROW(parse_churn_script("wat=1-2"), std::invalid_argument);
  EXPECT_THROW(parse_churn_script("random=1,random=2"), std::invalid_argument);
  EXPECT_THROW(parse_churn_script("seed=1,seed=2"), std::invalid_argument);
  EXPECT_THROW(parse_churn_script("random=-1"), std::invalid_argument);
  EXPECT_THROW(parse_churn_script("random=999999"), std::invalid_argument);
  EXPECT_THROW(parse_churn_script("verify=maybe"), std::invalid_argument);
}

// --- batch application --------------------------------------------------------

TEST(ChurnApply, EdgeEventsValidateAgainstGraph) {
  const Graph g = gen::path(4);  // 0-1-2-3
  ChurnEvent dup{ChurnEvent::Kind::kAddEdge, 0, 1, {}};
  EXPECT_THROW(apply_batch(g, {dup}, nullptr), std::invalid_argument);
  ChurnEvent range{ChurnEvent::Kind::kAddEdge, 0, 9, {}};
  EXPECT_THROW(apply_batch(g, {range}, nullptr), std::invalid_argument);
  // Deleting a bridge would disconnect the graph.
  ChurnEvent bridge{ChurnEvent::Kind::kDelEdge, 1, 2, {}};
  EXPECT_THROW(apply_batch(g, {bridge}, nullptr), std::invalid_argument);
  // Chord + delete is fine.
  ChurnEvent chord{ChurnEvent::Kind::kAddEdge, 0, 2, {}};
  std::vector<VertexId> map;
  const Graph g2 = apply_batch(g, {chord, ChurnEvent{ChurnEvent::Kind::kDelEdge,
                                                     0, 1, {}}},
                               &map);
  EXPECT_EQ(g2.num_edges(), g.num_edges());
  EXPECT_TRUE(g2.has_edge(0, 2));
  EXPECT_FALSE(g2.has_edge(0, 1));
  EXPECT_EQ(map, (std::vector<VertexId>{0, 1, 2, 3}));
}

TEST(ChurnApply, VertexDeletionRenumbersAndComposes) {
  const Graph g = gen::cycle(5);
  ChurnEvent del{ChurnEvent::Kind::kDelVertex, 1, -1, {}};
  std::vector<VertexId> map;
  const Graph g2 = apply_batch(g, {del}, &map);
  ASSERT_EQ(g2.num_vertices(), 4);
  ASSERT_EQ(map.size(), 5u);
  EXPECT_EQ(map[1], -1);
  for (VertexId v : {0, 2, 3, 4}) EXPECT_GE(map[v], 0);
  // Surviving adjacency is preserved through the renumbering.
  EXPECT_TRUE(g2.has_edge(map[2], map[3]));
  EXPECT_TRUE(g2.has_edge(map[3], map[4]));
}

TEST(ChurnApply, VertexAdditionAttachesNeighbors) {
  const Graph g = gen::path(3);
  ChurnEvent add{ChurnEvent::Kind::kAddVertex, -1, -1, {0, 2}};
  std::vector<VertexId> map;
  const Graph g2 = apply_batch(g, {add}, &map);
  ASSERT_EQ(g2.num_vertices(), 4);
  EXPECT_EQ(map.size(), 3u);  // old vertices only
  EXPECT_TRUE(g2.has_edge(3, 0));
  EXPECT_TRUE(g2.has_edge(3, 2));
}

TEST(ChurnApply, EdgeDeltaIsTheNetChangeInNewIds) {
  const Graph g = gen::cycle(6);  // 0-1-2-3-4-5-0
  using K = ChurnEvent::Kind;
  EdgeDelta delta;
  std::vector<VertexId> map;
  // An add and a delete of one pair cancel, in either order.
  apply_batch(g, {{K::kAddEdge, 0, 3, {}}, {K::kDelEdge, 3, 0, {}}}, &map,
              &delta);
  EXPECT_EQ(delta, EdgeDelta{});
  Graph g2 = apply_batch(
      g, {{K::kDelEdge, 1, 2, {}}, {K::kAddEdge, 2, 1, {}}}, &map, &delta);
  EXPECT_EQ(delta, EdgeDelta{});
  EXPECT_EQ(g2.edge_id(1, 2), g2.num_edges() - 1);  // re-added last
  // Deleting vertex 1 renumbers: pairs come back in new ids, and edges
  // that died with the vertex are not listed.
  g2 = apply_batch(g,
                   {{K::kAddEdge, 2, 5, {}},
                    {K::kDelEdge, 3, 4, {}},
                    {K::kDelVertex, 1, -1, {}},
                    {K::kAddVertex, -1, -1, {0, 3}}},
                   &map, &delta);
  EXPECT_EQ(map, (std::vector<VertexId>{0, -1, 1, 2, 3, 4}));
  const EdgeDelta want{{{0, 5}, {1, 4}, {3, 5}}, {{2, 3}}};
  EXPECT_EQ(delta, want);
  EXPECT_EQ(edge_delta(g, g2, map), want);
}

TEST(ChurnApply, RandomEventsKeepGraphConnectedAndSimple) {
  Graph g = btd_graph(3, 10, 3, 0.4);
  for (int i = 0; i < 40; ++i) {
    const ChurnEvent e = random_event(g, 42, i);
    g = apply_batch(g, {e}, nullptr);  // apply_batch revalidates everything
    ASSERT_GE(g.num_vertices(), 2);
  }
}

// --- repair -------------------------------------------------------------------

void expect_valid_repair(const Graph& new_g, const TreePatch& patch, int d) {
  ASSERT_NE(patch.kind, RepairKind::kFailed) << patch.reason;
  ASSERT_TRUE(patch.tree.success);
  const EliminationForest forest(patch.tree.parent);
  EXPECT_TRUE(forest.valid_for(new_g));
  EXPECT_TRUE(forest.is_subgraph_of(new_g));
  EXPECT_EQ(forest.roots().size(), 1u);
  EXPECT_LE(forest.depth(), (1 << d) - 1);
  ASSERT_EQ(patch.dirty.size(), static_cast<std::size_t>(new_g.num_vertices()));
}

TEST(ChurnRepair, SurvivesRandomChurnSequences) {
  for (unsigned seed = 0; seed < 6; ++seed) {
    Graph g = btd_graph(seed, 12, 3, 0.4);
    congest::Network net(g, {.id_seed = seed});
    dist::ElimTreeResult tree = dist::run_elim_tree(net, 3);
    ASSERT_TRUE(tree.success);
    int repaired = 0;
    for (int i = 0; i < 25; ++i) {
      const ChurnEvent e = random_event(g, 100 + seed, i);
      std::vector<VertexId> map;
      const Graph next = apply_batch(g, {e}, &map);
      const TreePatch patch = repair_tree(g, tree, next, map, 3);
      if (patch.kind == RepairKind::kFailed) {
        // Legitimate: the repair budget 2^d - 1 may be unreachable from
        // this shape. Rebuild from scratch and continue churning.
        congest::Network fresh(next, {.id_seed = seed});
        tree = dist::run_elim_tree(fresh, 3);
        if (!tree.success) break;  // budget genuinely exceeded
        g = next;
        continue;
      }
      expect_valid_repair(next, patch, 3);
      ++repaired;
      g = next;
      tree = patch.tree;
    }
    EXPECT_GT(repaired, 5) << "seed=" << seed;
  }
}

TEST(ChurnRepair, AncestorEdgeInsertIsRefoldOnly) {
  // On a path the elimination tree is a balanced separator tree; an edge
  // between a vertex and its tree ancestor leaves the shape intact.
  const Graph g = gen::path(8);  // td(P_8) = 4
  congest::Network net(g);
  const dist::ElimTreeResult tree = dist::run_elim_tree(net, 4);
  ASSERT_TRUE(tree.success);
  const EliminationForest forest(tree.parent);
  // Find an ancestor pair at distance >= 2 that is not already an edge.
  int u = -1, v = -1;
  for (int x = 0; x < g.num_vertices() && u < 0; ++x)
    for (int a : forest.root_path(x))
      if (a != x && !g.has_edge(x, a)) {
        u = x;
        v = a;
        break;
      }
  ASSERT_GE(u, 0) << "no non-adjacent ancestor pair in this tree";
  std::vector<VertexId> map;
  const Graph next = apply_batch(
      g, {ChurnEvent{ChurnEvent::Kind::kAddEdge, u, v, {}}}, &map);
  const TreePatch patch = repair_tree(g, tree, next, map, 4);
  EXPECT_EQ(patch.kind, RepairKind::kRefold);
  expect_valid_repair(next, patch, 4);
  // Dirt is confined to the deeper endpoint's subtree.
  int dirty = 0;
  for (char c : patch.dirty) dirty += c != 0;
  EXPECT_LT(dirty, next.num_vertices());
}

/// The dirty set as a per-vertex rule: v is dirty when its sorted child
/// list or its root path (old ids mapped, deleted ancestors as -1) differs
/// from the old tree's, or when a bag edge changed above it. The reference
/// the one-pass rule in repair_tree must reproduce exactly.
std::vector<char> reference_dirty(const Graph& old_g,
                                  const dist::ElimTreeResult& old_tree,
                                  const Graph& new_g,
                                  const std::vector<VertexId>& old_to_new,
                                  const dist::ElimTreeResult& new_tree) {
  const int n_new = new_g.num_vertices();
  std::vector<VertexId> new_to_old(n_new, -1);
  for (VertexId v = 0; v < old_g.num_vertices(); ++v)
    if (old_to_new[v] >= 0) new_to_old[old_to_new[v]] = v;
  std::vector<char> dirty(n_new, 0);
  for (VertexId nv = 0; nv < n_new; ++nv) {
    const VertexId ov = new_to_old[nv];
    if (ov < 0) {
      dirty[nv] = 1;
      continue;
    }
    std::vector<VertexId> old_kids;
    for (int c : old_tree.children[ov]) old_kids.push_back(old_to_new[c]);
    std::sort(old_kids.begin(), old_kids.end());
    std::vector<VertexId> new_kids(new_tree.children.begin(nv),
                                   new_tree.children.end(nv));
    std::sort(new_kids.begin(), new_kids.end());
    std::vector<VertexId> old_path, new_path;
    for (VertexId x = ov; x >= 0; x = old_tree.parent[x])
      old_path.push_back(old_to_new[x]);
    for (VertexId x = nv; x >= 0; x = new_tree.parent[x]) new_path.push_back(x);
    if (old_kids != new_kids || old_path != new_path) dirty[nv] = 1;
  }
  auto mark_subtree = [&](const dist::ElimTreeResult& tree, VertexId root,
                          const std::vector<VertexId>* map) {
    std::vector<VertexId> stack{root};
    while (!stack.empty()) {
      const VertexId v = stack.back();
      stack.pop_back();
      const VertexId mapped = map != nullptr ? (*map)[v] : v;
      if (mapped >= 0) dirty[mapped] = 1;
      for (int c : tree.children[v]) stack.push_back(c);
    }
  };
  for (const Edge& e : old_g.edges()) {
    const VertexId na = old_to_new[e.u], nb = old_to_new[e.v];
    if (na < 0 || nb < 0 || new_g.has_edge(na, nb)) continue;
    mark_subtree(old_tree,
                 old_tree.depth[e.u] >= old_tree.depth[e.v] ? e.u : e.v,
                 &old_to_new);
  }
  for (const Edge& e : new_g.edges()) {
    const VertexId oa = new_to_old[e.u], ob = new_to_old[e.v];
    if (oa >= 0 && ob >= 0 && old_g.has_edge(oa, ob)) continue;
    mark_subtree(new_tree,
                 new_tree.depth[e.u] >= new_tree.depth[e.v] ? e.u : e.v,
                 nullptr);
  }
  return dirty;
}

TEST(ChurnRepair, DirtySetMatchesPerVertexReference) {
  int compared = 0, vertex_events = 0;
  for (unsigned seed = 0; seed < 10; ++seed) {
    Graph g = btd_graph(seed + 200, 14, 3, 0.4);
    congest::Network net(g, {.id_seed = seed});
    dist::ElimTreeResult tree = dist::run_elim_tree(net, 4);
    ASSERT_TRUE(tree.success);
    for (int i = 0; i < 30; ++i) {
      const ChurnEvent e = random_event(g, 300 + seed, i);
      std::vector<VertexId> map;
      const Graph next = apply_batch(g, {e}, &map);
      const TreePatch patch = repair_tree(g, tree, next, map, 4);
      if (patch.kind == RepairKind::kFailed) {
        congest::Network fresh(next, {.id_seed = seed});
        tree = dist::run_elim_tree(fresh, 4);
        if (!tree.success) break;
        g = next;
        continue;
      }
      EXPECT_EQ(patch.dirty, reference_dirty(g, tree, next, map, patch.tree))
          << "seed=" << seed << " event " << format_event(e);
      ++compared;
      vertex_events += e.kind == ChurnEvent::Kind::kAddVertex ||
                       e.kind == ChurnEvent::Kind::kDelVertex;
      g = next;
      tree = patch.tree;
    }
  }
  EXPECT_GE(compared, 200);
  EXPECT_GT(vertex_events, 0);
  EXPECT_LT(vertex_events, compared);
}

// --- pinned repair streams ----------------------------------------------------

std::uint64_t fold_vec(std::uint64_t h, const std::vector<int>& v) {
  h = audit::mix64(h, v.size());
  for (int x : v) h = audit::mix64(h, static_cast<std::uint64_t>(x + 3));
  return h;
}

std::uint64_t patch_digest(const TreePatch& patch) {
  std::uint64_t h = audit::mix64(static_cast<std::uint64_t>(patch.kind), 0);
  h = audit::mix64(h, static_cast<std::uint64_t>(patch.region));
  if (patch.kind == RepairKind::kFailed) return h;
  h = fold_vec(h, patch.tree.parent);
  return fold_vec(h, std::vector<int>(patch.dirty.begin(), patch.dirty.end()));
}

/// One seeded batch for epoch `i`: mostly a single random event; every
/// fifth epoch a 2-3 event batch drawn against the evolving graph; every
/// seventh a pair that is added and deleted again (or deleted and
/// re-added), whose net edge delta is empty.
std::vector<ChurnEvent> pinned_batch(const Graph& g, std::uint64_t seed,
                                     int i) {
  if (i % 7 == 3) {
    for (int k = 0; k < 64; ++k) {
      const ChurnEvent e = random_event(g, seed + 1000, i * 64 + k);
      if (e.kind == ChurnEvent::Kind::kAddEdge)
        return {e, ChurnEvent{ChurnEvent::Kind::kDelEdge, e.u, e.v, {}}};
      if (e.kind == ChurnEvent::Kind::kDelEdge)
        return {e, ChurnEvent{ChurnEvent::Kind::kAddEdge, e.v, e.u, {}}};
    }
  }
  if (i % 5 == 1) {
    std::vector<ChurnEvent> batch;
    Graph work = g;
    const int size = 2 + i % 2;
    for (int k = 0; k < size; ++k) {
      batch.push_back(random_event(work, seed + 2000, i * 8 + k));
      work = apply_batch(work, {batch.back()}, nullptr);
    }
    return batch;
  }
  return {random_event(g, seed, i)};
}

struct PinnedStream {
  unsigned seed;
  int n;
};

constexpr PinnedStream kPinnedStreams[] = {
    {1, 64}, {2, 64}, {3, 128}, {4, 128}, {5, 256}, {6, 256}, {7, 512},
    {8, 512}};
constexpr int kPinnedEpochs = 70;

/// A tree a repair may start from: Algorithm 2 accepted it and it is a
/// valid elimination tree of g whose edges are graph edges. Above its
/// budget Algorithm 2 can accept an invalid tree (its floods need not
/// converge), and repair_tree requires a valid one.
bool valid_start(const Graph& g, const dist::ElimTreeResult& tree) {
  if (!tree.success) return false;
  const EliminationForest forest(tree.parent);
  return forest.valid_for(g) && forest.is_subgraph_of(g);
}

/// Digests of every patch of each stream (kind, region, parent array and
/// dirty set), recorded from the repair that diffed both graphs' edge lists
/// and scanned every vertex; the delta-driven repair must reproduce them.
constexpr std::uint64_t kPinnedRepairDigests[] = {
    0x678d057f14d0cc82ull, 0x2af3e796f5285417ull, 0x623bb8c49e8c76ecull,
    0xf93e5d016a450b64ull, 0xcce8aef688ec792eull, 0x101ac66422ed0f48ull,
    0xe6385a15953d544aull, 0x7684492c3db3f434ull};

/// Brute force: every vertex whose fold context changed — it is fresh, or
/// its root path, its children or the edges among its root path differ
/// from its old vertex's — must be in the patch's dirty set.
void expect_dirty_covers_changed_contexts(
    const Graph& old_g, const dist::ElimTreeResult& old_tree,
    const Graph& new_g, const std::vector<VertexId>& old_to_new,
    const TreePatch& patch) {
  const int n_new = new_g.num_vertices();
  std::vector<VertexId> new_to_old(n_new, -1);
  for (VertexId v = 0; v < old_g.num_vertices(); ++v)
    if (old_to_new[v] >= 0) new_to_old[old_to_new[v]] = v;
  const auto& tree = patch.tree;
  for (VertexId nv = 0; nv < n_new; ++nv) {
    const VertexId ov = new_to_old[nv];
    bool changed = ov < 0;
    if (!changed) {
      std::vector<VertexId> old_path, new_path;
      for (VertexId x = ov; x >= 0; x = old_tree.parent[x])
        old_path.push_back(old_to_new[x]);
      for (VertexId x = nv; x >= 0; x = tree.parent[x]) new_path.push_back(x);
      std::vector<VertexId> old_kids,
          new_kids(tree.children.begin(nv), tree.children.end(nv));
      for (int c : old_tree.children[ov]) old_kids.push_back(old_to_new[c]);
      std::sort(old_kids.begin(), old_kids.end());
      std::sort(new_kids.begin(), new_kids.end());
      changed = old_path != new_path || old_kids != new_kids;
      for (std::size_t i = 0; !changed && i < new_path.size(); ++i)
        for (std::size_t j = i + 1; !changed && j < new_path.size(); ++j)
          changed = new_g.has_edge(new_path[i], new_path[j]) !=
                    old_g.has_edge(new_to_old[new_path[i]],
                                   new_to_old[new_path[j]]);
    }
    if (changed) {
      ASSERT_TRUE(patch.dirty[nv]) << "vertex " << nv;
    }
  }
}

TEST(ChurnRepair, PinnedPatchesFromTheEdgeDelta) {
  int epochs = 0, checked = 0;
  for (std::size_t k = 0; k < std::size(kPinnedStreams); ++k) {
    const PinnedStream& s = kPinnedStreams[k];
    Graph g = btd_graph(s.seed + 500, s.n, 3, 0.25);
    congest::Network net(g, {.id_seed = s.seed});
    dist::ElimTreeResult tree = dist::run_elim_tree(net, 4);
    ASSERT_TRUE(tree.success);
    std::uint64_t h = 0;
    for (int i = 0; i < kPinnedEpochs; ++i) {
      const std::vector<ChurnEvent> batch = pinned_batch(g, s.seed, i);
      std::vector<VertexId> map;
      EdgeDelta delta;
      const Graph next = apply_batch(g, batch, &map, &delta);
      ASSERT_EQ(delta, edge_delta(g, next, map)) << "epoch " << i;
      const TreePatch patch = repair_tree(tree, next, map, delta, 4);
      ASSERT_EQ(patch_digest(repair_tree(g, tree, next, map, 4)),
                patch_digest(patch));
      h = audit::mix64(h, patch_digest(patch));
      ++epochs;
      if (patch.kind == RepairKind::kFailed) {
        g = next;
        congest::Network fresh(g, {.id_seed = s.seed});
        tree = dist::run_elim_tree(fresh, 4);
        if (!valid_start(g, tree)) {
          // td(G) > 4 now: restart the stream on a fresh start graph.
          g = btd_graph(s.seed + 600 + i, s.n, 3, 0.25);
          congest::Network restart(g, {.id_seed = s.seed});
          tree = dist::run_elim_tree(restart, 4);
        }
        continue;
      }
      expect_dirty_covers_changed_contexts(g, tree, next, map, patch);
      ++checked;
      g = next;
      tree = patch.tree;
    }
    EXPECT_EQ(h, kPinnedRepairDigests[k]) << "seed=" << s.seed << " n=" << s.n;
  }
  EXPECT_GE(epochs, 500);
  EXPECT_GE(checked, 450);
}

// --- coordinator-side bags ----------------------------------------------------

void expect_same_bag(const dist::LocalBag& a, const dist::LocalBag& b,
                     int v) {
  EXPECT_EQ(a.bag, b.bag) << "v=" << v;
  EXPECT_EQ(a.weights, b.weights) << "v=" << v;
  EXPECT_EQ(a.vlabel_bits, b.vlabel_bits) << "v=" << v;
  ASSERT_EQ(a.edges.size(), b.edges.size()) << "v=" << v;
  for (std::size_t i = 0; i < a.edges.size(); ++i) {
    EXPECT_EQ(a.edges[i].i, b.edges[i].i);
    EXPECT_EQ(a.edges[i].j, b.edges[i].j);
    EXPECT_EQ(a.edges[i].weight, b.edges[i].weight);
    EXPECT_EQ(a.edges[i].elabel_bits, b.edges[i].elabel_bits);
  }
}

TEST(ChurnBags, MirrorsDistributedBagsExactly) {
  for (unsigned seed = 0; seed < 5; ++seed) {
    Graph g = btd_graph(seed + 20, 10, 3, 0.5);
    gen::Rng rng(seed);
    gen::randomize_weights(g, -3, 7, rng);
    g.set_vertex_label("red", 0);
    g.set_edge_label("mark", 0);
    congest::Network net(g, {.id_seed = seed + 1});
    const dist::ElimTreeResult tree = dist::run_elim_tree(net, 3);
    ASSERT_TRUE(tree.success);
    const dist::BagsResult protocol = dist::run_bags(net, tree, {"red"}, {"mark"});
    ASSERT_TRUE(protocol.run.ok());
    const auto mirror = bags_for_tree(net, tree, {"red"}, {"mark"});
    // The masked form builds the flagged bags only.
    std::vector<char> mask(g.num_vertices(), 0);
    for (int v = 0; v < g.num_vertices(); ++v) mask[v] = (v + seed) % 3 == 0;
    const auto masked = bags_for_tree(net, tree, {"red"}, {"mark"}, &mask);
    ASSERT_EQ(mirror.size(), protocol.bags.size());
    ASSERT_EQ(masked.size(), protocol.bags.size());
    for (int v = 0; v < g.num_vertices(); ++v) {
      expect_same_bag(mirror[v], protocol.bags[v], v);
      if (mask[v]) {
        expect_same_bag(masked[v], protocol.bags[v], v);
      } else {
        EXPECT_TRUE(masked[v].bag.empty()) << "v=" << v;
        EXPECT_TRUE(masked[v].edges.empty()) << "v=" << v;
      }
    }
  }
}

// --- engine: incremental == from-scratch --------------------------------------

dist::Query decision_query() {
  return {dist::Kind::kDecision, lib::triangle_free()};
}

dist::Query count_query() {
  return {dist::Kind::kCount, lib::independent_set_indicator(),
          {{"S", Sort::VertexSet}}};
}

dist::Query maximize_query() {
  return {dist::Kind::kMaximize, lib::independent_set(),
          {{"S", Sort::VertexSet}}};
}

dist::Query minimize_query() {
  return {dist::Kind::kMinimize, lib::dominating_set(),
          {{"S", Sort::VertexSet}}};
}

void expect_all_verified(const std::vector<StepOutcome>& outs) {
  // Random churn may legitimately push td(G) past the budget in later
  // epochs (or deepen the oracle's retry tree past the engine's terminal
  // limit); those epochs have no oracle verdict to compare against — the
  // outcome's note says why. Every verifiable epoch must digest-match, the
  // initial graph must fit the budget, and unverifiable epochs must stay a
  // small minority.
  ASSERT_FALSE(outs.empty());
  EXPECT_FALSE(outs.front().verdict.treedepth_exceeded);
  EXPECT_TRUE(outs.front().verified) << outs.front().note;
  int verified = 0;
  for (std::size_t i = 0; i < outs.size(); ++i) {
    ASSERT_TRUE(outs[i].ok()) << "epoch " << i << " degraded";
    if (!outs[i].verified) continue;
    ++verified;
    EXPECT_TRUE(outs[i].digest_ok)
        << "epoch " << i << ": incremental digest " << outs[i].digest
        << " != oracle " << outs[i].oracle_digest;
  }
  EXPECT_GE(3 * verified, 2 * static_cast<int>(outs.size()))
      << "too few oracle-verifiable epochs";
}

TEST(ChurnEngine, DecisionDigestsMatchOracleUnderRandomChurn) {
  for (unsigned seed = 0; seed < 3; ++seed) {
    Options opts;
    opts.net.id_seed = seed;
    opts.d = 3;
    ChurnEngine engine(btd_graph(seed + 40, 10, 3, 0.4), decision_query(),
                       opts);
    ChurnScript script;
    script.random_events = 8;
    script.seed = 7 + seed;
    expect_all_verified(engine.run(script));
  }
}

TEST(ChurnEngine, CountDigestsMatchOracleUnderRandomChurn) {
  for (unsigned seed = 0; seed < 3; ++seed) {
    Options opts;
    opts.net.id_seed = seed + 1;
    opts.d = 3;
    ChurnEngine engine(btd_graph(seed + 50, 9, 3, 0.4), count_query(), opts);
    ChurnScript script;
    script.random_events = 6;
    script.seed = 11 + seed;
    expect_all_verified(engine.run(script));
  }
}

TEST(ChurnEngine, RejectsAFreeVariableDeclaredTwice) {
  dist::Query q = count_query();
  q.frees.emplace_back("S", Sort::EdgeSet);
  EXPECT_THROW(ChurnEngine(gen::path(4), q, Options{}), std::invalid_argument);
}

TEST(ChurnEngine, MaximizeDigestsMatchOracleUnderRandomChurn) {
  for (unsigned seed = 0; seed < 2; ++seed) {
    Options opts;
    opts.d = 3;
    Graph g = btd_graph(seed + 60, 9, 3, 0.4);
    gen::Rng rng(seed);
    gen::randomize_weights(g, 1, 5, rng);
    ChurnEngine engine(std::move(g), maximize_query(), opts);
    ChurnScript script;
    script.random_events = 6;
    script.seed = 13 + seed;
    expect_all_verified(engine.run(script));
  }
}

TEST(ChurnEngine, MinimizeDigestsMatchOracleUnderScriptedChurn) {
  Options opts;
  opts.d = 4;  // td(C_8) = 4
  ChurnEngine engine(gen::cycle(8), minimize_query(), opts);
  const ChurnScript script =
      parse_churn_script("add=0-2;add=3-6;del=0-2;addv=1+4;random=4,seed=3");
  expect_all_verified(engine.run(script));
}

TEST(ChurnEngine, OptMarkedDigestsMatchOracleUnderChurn) {
  // Mark a fixed independent set; churn must not touch its optimality
  // verdict's agreement with the from-scratch run (the verdict itself may
  // flip as edges arrive — both sides must flip identically).
  Graph g = gen::cycle(8);
  for (int v = 0; v < 8; v += 2) g.set_vertex_label("marked", v);
  const dist::Query q{dist::Kind::kOptMarked, lib::independent_set(),
                      {{"S", Sort::VertexSet}}};
  Options opts;
  opts.d = 4;  // td(C_8) = 4
  ChurnEngine engine(std::move(g), q, opts);
  const ChurnScript script = parse_churn_script("add=1-3;del=1-3;add=0-4");
  expect_all_verified(engine.run(script));
}

TEST(ChurnEngine, LocalEditRefoldsOnlyASubtree) {
  // Star of triangles: churn inside one triangle must not refold the
  // others (td = 4: hub + one triangle).
  Options opts;
  opts.d = 4;
  ChurnEngine engine(gen::star_of_cliques(4, 3), decision_query(), opts);
  const StepOutcome epoch0 = engine.init();
  ASSERT_TRUE(epoch0.ok());
  const int n = engine.graph().num_vertices();
  ASSERT_TRUE(engine.tree().has_value());
  // Delete one edge inside a clique (cliques of size 4 stay connected).
  int u = -1, v = -1;
  for (EdgeId e = 0; e < engine.graph().num_edges() && u < 0; ++e) {
    const Edge& edge = engine.graph().edge(e);
    if (edge.u != 0 && edge.v != 0) {  // not a hub edge
      u = edge.u;
      v = edge.v;
    }
  }
  ASSERT_GE(u, 0);
  const StepOutcome out =
      engine.step({ChurnEvent{ChurnEvent::Kind::kDelEdge, u, v, {}}});
  ASSERT_TRUE(out.ok());
  EXPECT_NE(out.status, StepStatus::kRecomputed);
  EXPECT_LT(out.refold_count, n);
  EXPECT_LT(out.folds, n);
  EXPECT_TRUE(!out.verified || out.digest_ok);
}

TEST(ChurnEngine, CacheReplayKeepsFoldCountAtRefoldCount) {
  // Star of triangles (td = 4): the elimination tree is shallow and
  // balanced, so an ancestor chord dirties one short root path only.
  Options opts;
  opts.d = 4;
  opts.verify = false;  // isolate the incremental path
  ChurnEngine engine(gen::star_of_cliques(4, 3), decision_query(), opts);
  ASSERT_TRUE(engine.init().ok());
  ASSERT_TRUE(engine.tree().has_value());
  const int n = engine.graph().num_vertices();
  // An ancestor chord is a pure refold epoch: folds == refold_count < n.
  // The refold closure is the dirty subtree plus its root path, so pick
  // the chord endpoint whose root path is shortest.
  const auto& tree = *engine.tree();
  const EliminationForest forest(tree.parent);
  int u = -1, v = -1;
  std::size_t best = static_cast<std::size_t>(n) + 1;
  for (int x = 0; x < n; ++x) {
    if (!tree.children[x].empty()) continue;  // leaves: dirty set == {x}
    const auto path = forest.root_path(x);
    for (int a : path)
      if (a != x && !engine.graph().has_edge(x, a) && path.size() < best) {
        u = x;
        v = a;
        best = path.size();
      }
  }
  ASSERT_GE(u, 0);
  const StepOutcome out =
      engine.step({ChurnEvent{ChurnEvent::Kind::kAddEdge, u, v, {}}});
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out.status, StepStatus::kRefolded);
  EXPECT_EQ(out.folds, out.refold_count);
  EXPECT_LT(out.folds, n);
}

TEST(ChurnEngine, MaximizeRefoldsEveryVertexUnderEdgeChurn) {
  // Optimize never reads the fold cache, so its refold flags stay all-set
  // and every vertex gets its bag: each epoch refolds all n vertices.
  Options opts;
  opts.d = 3;
  Graph g = btd_graph(61, 10, 3, 0.4);
  gen::Rng rng(61);
  gen::randomize_weights(g, 1, 5, rng);
  ChurnEngine engine(std::move(g), maximize_query(), opts);
  ASSERT_TRUE(engine.init().ok());
  int epochs = 0;
  for (int i = 0; epochs < 8 && i < 64; ++i) {
    const ChurnEvent e = random_event(engine.graph(), 17, i);
    if (e.kind != ChurnEvent::Kind::kAddEdge &&
        e.kind != ChurnEvent::Kind::kDelEdge)
      continue;
    const StepOutcome out = engine.step({e});
    ++epochs;
    ASSERT_TRUE(out.ok()) << format_event(e);
    EXPECT_EQ(out.refold_count, engine.graph().num_vertices())
        << format_event(e);
    EXPECT_TRUE(!out.verified || out.digest_ok) << format_event(e);
  }
  EXPECT_EQ(epochs, 8);
}

TEST(ChurnEngine, ThrowingStepDropsTheStaleTree) {
  // A step that throws after the graph has moved on must not leave the
  // old tree behind: after every step the tree is either gone or sized for
  // the current graph. Vertex churn on btd:128:3 at d = 4 used to throw
  // (trees deeper than the fold engine packs); it now degrades instead.
  Options opts;
  opts.d = 4;
  opts.verify = false;
  ChurnEngine engine(gen::family("btd:128:3"), decision_query(), opts);
  ASSERT_TRUE(engine.init().ok());
  int threw = 0;
  auto expect_tree_fits = [](const ChurnEngine& e, const std::string& when) {
    const auto& tree = e.tree();
    EXPECT_TRUE(!tree || tree->parent.size() == static_cast<std::size_t>(
                                                    e.graph().num_vertices()))
        << when;
  };
  for (int i = 0; i < 20; ++i) {
    try {
      engine.step({random_event(engine.graph(), 1, i)});
    } catch (const std::exception&) {
      ++threw;
    }
    expect_tree_fits(engine, "epoch " + std::to_string(i));
  }
  // A genuinely throwing step: the independent sets of star:63 number
  // 2^63 + 1; a 64th leaf makes them 2^64 + 1, which a count cannot hold.
  Options count_opts;
  count_opts.d = 2;
  ChurnEngine counter(gen::family("star:63"), count_query(), count_opts);
  const StepOutcome start = counter.init();
  ASSERT_TRUE(start.ok());
  EXPECT_EQ(start.verdict.count, (std::uint64_t{1} << 63) + 1);
  try {
    counter.step({ChurnEvent{ChurnEvent::Kind::kAddVertex, -1, -1, {0}}});
  } catch (const std::overflow_error&) {
    ++threw;
  }
  EXPECT_EQ(counter.graph().num_vertices(), 65);
  EXPECT_FALSE(counter.tree().has_value());
  expect_tree_fits(counter, "after the overflow");
  // The next epoch recomputes from scratch instead of repairing a tree of
  // the previous graph.
  const StepOutcome back =
      counter.step({ChurnEvent{ChurnEvent::Kind::kDelVertex, 64, -1, {}}});
  ASSERT_TRUE(back.ok()) << back.note;
  EXPECT_EQ(back.status, StepStatus::kRecomputed);
  EXPECT_EQ(back.verdict.count, (std::uint64_t{1} << 63) + 1);
  EXPECT_TRUE(back.verified && back.digest_ok) << back.note;
  // Without a throw the checks above prove nothing.
  EXPECT_GT(threw, 0);
}

TEST(ChurnEngine, TooDeepTreeDegradesInsteadOfThrowing) {
  // The docs/ROBUSTNESS.md repro: after failed repairs, Algorithm 2 returns
  // trees deeper than bpt::kMaxTerminals at d = 4. Such an epoch is a
  // structured degradation naming the depth and the limit, never a throw,
  // and the next epoch starts over from scratch.
  Options opts;
  opts.d = 4;
  ChurnEngine engine(gen::family("btd:128:3"), decision_query(), opts);
  ChurnScript script;
  script.random_events = 15;
  script.seed = 1;
  const std::vector<StepOutcome> outs = engine.run(script);
  int too_deep = 0;
  for (std::size_t i = 0; i < outs.size(); ++i) {
    const StepOutcome& o = outs[i];
    EXPECT_TRUE(!o.verified || o.digest_ok) << "epoch " << i;
    if (o.ok()) continue;
    ++too_deep;
    EXPECT_TRUE(o.run.ok()) << "epoch " << i << ": no fault plan";
    EXPECT_NE(o.note.find("exceeds the fold engine's 11-terminal limit"),
              std::string::npos)
        << o.note;
  }
  EXPECT_GT(too_deep, 0);
}

// --- one network per engine ---------------------------------------------------

std::uint64_t fold_str(std::uint64_t h, const std::string& s) {
  h = audit::mix64(h, s.size());
  for (unsigned char c : s) h = audit::mix64(h, c);
  return h;
}

/// Folds every event a network emits into one digest.
class DigestSink final : public obs::TraceSink {
 public:
  void run_begin(const obs::RunInfo& i) override {
    fold(1, i.n, i.bandwidth, i.first_round);
  }
  void round(const obs::RoundEvent& e) override {
    fold(2, e.round, e.messages, e.bits);
    fold(3, e.max_message_bits, e.active_nodes, e.done_nodes);
  }
  void phase(const obs::PhaseEvent& e) override {
    fold(4, static_cast<long long>(e.kind), e.round, e.depth);
    h = fold_str(h, e.name);
  }
  void fault(const obs::FaultEvent& e) override {
    fold(5, static_cast<long long>(e.kind), e.round, e.src);
    fold(6, e.dst, e.detail, 0);
  }
  void quiescent(const obs::QuiescentEvent& e) override {
    fold(7, e.first_round, e.skipped_rounds, e.active_nodes);
  }
  void run_end() override { fold(8, 0, 0, 0); }

  std::uint64_t h = 0;

 private:
  void fold(long long tag, long long a, long long b, long long c) {
    h = audit::mix64(h, static_cast<std::uint64_t>(tag));
    h = audit::mix64(h, static_cast<std::uint64_t>(a));
    h = audit::mix64(h, static_cast<std::uint64_t>(b));
    h = audit::mix64(h, static_cast<std::uint64_t>(c));
  }
};

std::uint64_t outcome_digest(const StepOutcome& o) {
  std::uint64_t h = 0;
  for (long long x : std::initializer_list<long long>{
           static_cast<long long>(o.status), static_cast<long long>(o.repair),
        static_cast<long long>(o.repair_failed),
        static_cast<long long>(o.fallback_used),
        static_cast<long long>(o.verified),
        static_cast<long long>(o.digest_ok),
        static_cast<long long>(o.digest),
        static_cast<long long>(o.oracle_digest), o.rounds, o.rounds_full,
        o.folds, static_cast<long long>(o.refold_count),
        static_cast<long long>(o.region),
        static_cast<long long>(o.run.status), o.run.rounds,
        o.run.virtual_rounds})
    h = audit::mix64(h, static_cast<std::uint64_t>(x));
  h = fold_vec(h, o.run.crashed);
  h = fold_str(h, o.run.stalled_phase);
  h = fold_str(h, o.verdict.result);
  h = fold_str(h, o.flight);
  return fold_str(h, o.note);
}

struct PinnedEngine {
  const char* name;
  dist::Kind kind;
  unsigned graph_seed;
  int n;
  const char* faults;  // "" = none
  bool verify;
  bool mixed;  // random_event stream; else edges deleted and re-inserted
  int epochs;
};

// d = 3 throughout: every tree is at most 2^3 - 1 = 7 deep, inside the
// fold engine's terminal limit, so no epoch throws.
constexpr PinnedEngine kPinnedEngines[] = {
    {"decide", dist::Kind::kDecision, 31, 48, "", true, false, 40},
    {"decide-mixed", dist::Kind::kDecision, 35, 40, "", true, true, 30},
    {"count-drop", dist::Kind::kCount, 32, 40, "drop=0.1,seed=5", true,
     false, 25},
    {"count-mixed-drop", dist::Kind::kCount, 36, 36, "drop=0.1,seed=6", true,
     true, 25},
    {"decide-crash", dist::Kind::kDecision, 33, 40, "crash=7@r30,seed=2",
     false, false, 25},
};

struct EngineTally {
  std::uint64_t outcomes = 0, events = 0;
  int threw = 0, degraded = 0, incremental = 0;
};

/// Epoch `i`'s batch: a seeded random event, or (oscillating streams) the
/// deletion of a random non-bridge edge or the re-insertion of one deleted
/// earlier, so the graph stays a subgraph of the start graph.
ChurnEvent pinned_event(const Graph& g, const PinnedEngine& p, int i,
                        std::vector<std::pair<VertexId, VertexId>>& deleted) {
  if (p.mixed) return random_event(g, p.graph_seed + 100, i);
  if (!deleted.empty() && (i % 3 == 2 || deleted.size() >= 6)) {
    const std::size_t k = static_cast<std::size_t>(i) % deleted.size();
    const auto [u, v] = deleted[k];
    deleted.erase(deleted.begin() + static_cast<long>(k));
    return {ChurnEvent::Kind::kAddEdge, u, v, {}};
  }
  for (int k = 0;; ++k) {
    const ChurnEvent e = random_event(g, p.graph_seed + 200, i * 64 + k);
    if (e.kind != ChurnEvent::Kind::kDelEdge) continue;
    deleted.emplace_back(e.u, e.v);
    return e;
  }
}

EngineTally run_pinned_engine(const PinnedEngine& p) {
  DigestSink sink;
  Options opts;
  opts.d = 3;
  opts.verify = p.verify;
  opts.net.id_seed = p.graph_seed;
  opts.net.sink = &sink;
  if (*p.faults != '\0') opts.net.faults = congest::parse_fault_plan(p.faults);
  dist::Query q{p.kind, lib::triangle_free()};
  if (p.kind == dist::Kind::kCount)
    q = {dist::Kind::kCount, lib::independent_set_indicator(),
         {{"S", Sort::VertexSet}}};
  ChurnEngine engine(btd_graph(p.graph_seed, p.n, 3, 0.3), q, opts);
  EngineTally t;
  t.outcomes = outcome_digest(engine.init());
  std::vector<std::pair<VertexId, VertexId>> deleted;
  for (int i = 0; i < p.epochs; ++i) {
    const ChurnEvent e = pinned_event(engine.graph(), p, i, deleted);
    try {
      const StepOutcome o = engine.step({e});
      t.outcomes = audit::mix64(t.outcomes, outcome_digest(o));
      t.degraded += !o.ok();
      t.incremental += o.status == StepStatus::kRefolded ||
                       o.status == StepStatus::kRebuilt;
    } catch (const std::exception& ex) {
      ++t.threw;
      t.outcomes = fold_str(t.outcomes, ex.what());
    }
  }
  t.events = sink.h;
  return t;
}

/// Per engine stream: the digest of every StepOutcome and of every event
/// its networks emitted, recorded from an engine that constructed a fresh
/// Network for every epoch. The one re-derived network must reproduce both.
constexpr std::pair<std::uint64_t, std::uint64_t> kPinnedEngineDigests[] = {
    {0xaf0da6c4966477f2ull, 0x33115bbd763d3aa4ull},
    {0xf1795ef5ba757345ull, 0xf23ee3de01b891c1ull},
    {0xb9ac9e439e89579full, 0x719fbc3830467788ull},
    {0x0186e158e0fdbaceull, 0xdab9ba862d65a959ull},
    {0xdebe3c245f06436bull, 0x0d94731e40ff0452ull}};

TEST(ChurnEngine, EpochsMatchRecordedFreshNetworkRuns) {
  for (std::size_t k = 0; k < std::size(kPinnedEngines); ++k) {
    const EngineTally t = run_pinned_engine(kPinnedEngines[k]);
    EXPECT_EQ(t.threw, 0) << kPinnedEngines[k].name;
    EXPECT_EQ(t.outcomes, kPinnedEngineDigests[k].first)
        << kPinnedEngines[k].name;
    EXPECT_EQ(t.events, kPinnedEngineDigests[k].second)
        << kPinnedEngines[k].name;
  }
}

void expect_same_network(const congest::Network& a, const congest::Network& b) {
  ASSERT_EQ(a.n(), b.n());
  EXPECT_EQ(a.bandwidth(), b.bandwidth());
  EXPECT_EQ(a.memory_bytes(), b.memory_bytes());
  for (int v = 0; v < a.n(); ++v) {
    ASSERT_EQ(a.id_of_vertex(v), b.id_of_vertex(v));
    const auto pa = a.graph().incident(v), pb = b.graph().incident(v);
    ASSERT_EQ(pa.size(), pb.size());
    for (std::size_t p = 0; p < pa.size(); ++p) ASSERT_EQ(pa[p], pb[p]);
  }
}

void expect_same_stats(const congest::NetworkStats& a,
                       const congest::NetworkStats& b) {
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.messages, b.messages);
  EXPECT_EQ(a.total_bits, b.total_bits);
  EXPECT_EQ(a.max_message_bits, b.max_message_bits);
  EXPECT_EQ(a.active_steps, b.active_steps);
  EXPECT_EQ(a.frames, b.frames);
  EXPECT_EQ(a.retransmissions, b.retransmissions);
  EXPECT_EQ(a.marker_frames, b.marker_frames);
  EXPECT_EQ(a.frame_bits, b.frame_bits);
  EXPECT_EQ(a.faults_dropped, b.faults_dropped);
  EXPECT_EQ(a.faults_duplicated, b.faults_duplicated);
  EXPECT_EQ(a.faults_corrupted, b.faults_corrupted);
  EXPECT_EQ(a.faults_delayed, b.faults_delayed);
  EXPECT_EQ(a.crashes, b.crashes);
}

TEST(ChurnNetwork, ResetNetworkMatchesAFreshOne) {
  // One network carried across a seeded edge stream, reset onto each new
  // graph after a full distributed run on the previous one, against a
  // network constructed on that graph: same ids, ports and tables, and the
  // same run — events, stats, flight ring and, under a fault plan, the
  // same faults and outcome.
  const dist::Query q{dist::Kind::kDecision, lib::triangle_free()};
  for (const char* faults :
       {"", "drop=0.1,dup=0.05,seed=3", "crash=4@r40,seed=1"}) {
    congest::NetworkConfig cfg;
    cfg.id_seed = 7;
    if (*faults != '\0') cfg.faults = congest::parse_fault_plan(faults);
    DigestSink reused_sink, fresh_sink;
    congest::NetworkConfig reused_cfg = cfg, fresh_cfg = cfg;
    reused_cfg.sink = &reused_sink;
    fresh_cfg.sink = &fresh_sink;
    Graph g = btd_graph(90, 48, 3, 0.3);
    congest::Network reused(g, reused_cfg);
    std::vector<std::pair<VertexId, VertexId>> deleted;
    const PinnedEngine stream{"", dist::Kind::kDecision, 90, 48, "", false,
                              false, 0};
    for (int epoch = 0; epoch < 10; ++epoch) {
      if (epoch > 0) {
        const ChurnEvent e =
            pinned_event(reused.graph(), stream, epoch, deleted);
        reused.reset(apply_batch(reused.graph(), {e}, nullptr));
      }
      congest::Network fresh(reused.graph(), fresh_cfg);
      expect_same_network(reused, fresh);
      reused_sink.h = fresh_sink.h = 0;
      const dist::Outcome a = dist::run(reused, q, 3);
      const dist::Outcome b = dist::run(fresh, q, 3);
      SCOPED_TRACE(std::string(faults) + " epoch " + std::to_string(epoch));
      EXPECT_EQ(a.result, b.result);
      EXPECT_EQ(a.run.status, b.run.status);
      EXPECT_EQ(a.run.rounds, b.run.rounds);
      EXPECT_EQ(a.run.crashed, b.run.crashed);
      EXPECT_EQ(a.total_rounds(), b.total_rounds());
      EXPECT_EQ(reused_sink.h, fresh_sink.h);
      expect_same_stats(reused.stats(), fresh.stats());
      EXPECT_EQ(reused.flight_recorder().dump_string(),
                fresh.flight_recorder().dump_string());
    }
  }
}

// --- fault composition --------------------------------------------------------

TEST(ChurnEngine, CrashMidSolveYieldsStructuredDegradedOutcome) {
  // Crash a node at a round the solve phase reaches. The incremental epoch
  // and the full-recompute fallback run under the same plan, so the step
  // must surface kDegraded — never a wrong verdict, never a throw.
  Options opts;
  opts.d = 3;
  opts.verify = false;
  opts.net.faults = congest::parse_fault_plan("crash=0@r1,seed=5");
  ChurnEngine engine(gen::path(8), decision_query(), opts);
  const StepOutcome epoch0 = engine.init();
  EXPECT_FALSE(epoch0.ok());
  EXPECT_EQ(epoch0.status, StepStatus::kDegraded);
  EXPECT_EQ(epoch0.run.status, congest::RunStatus::kCrashed);
  // The engine survives and the next epoch still yields a structured
  // outcome (full recompute path: no tree survived epoch 0).
  const StepOutcome out =
      engine.step({ChurnEvent{ChurnEvent::Kind::kAddEdge, 0, 2, {}}});
  EXPECT_EQ(out.status, StepStatus::kDegraded);
  EXPECT_EQ(out.run.status, congest::RunStatus::kCrashed);
}

TEST(ChurnEngine, FrameLossFallsBackAndStaysCorrect) {
  // Heavy frame loss: the reliable transport still delivers (retransmits),
  // so epochs complete — at higher physical round cost — and digests must
  // still match the clean oracle.
  for (unsigned seed = 0; seed < 2; ++seed) {
    Options opts;
    opts.d = 3;
    opts.net.faults =
        congest::parse_fault_plan("drop=0.3,seed=" + std::to_string(9 + seed));
    ChurnEngine engine(btd_graph(seed + 80, 8, 3, 0.4), decision_query(),
                       opts);
    ChurnScript script;
    script.random_events = 4;
    script.seed = 21 + seed;
    const auto outs = engine.run(script);
    for (std::size_t i = 0; i < outs.size(); ++i) {
      ASSERT_TRUE(outs[i].ok()) << "epoch " << i;
      ASSERT_TRUE(outs[i].verified) << "epoch " << i << ": " << outs[i].note;
      EXPECT_TRUE(outs[i].digest_ok) << "epoch " << i;
    }
  }
}

TEST(ChurnEngine, DegradedStepKeepsStaleMarksForNextEpoch) {
  // Two checks. A crash-stop at round 2 defeats the initial full compute,
  // so init() reports a degraded step. Separately, a clean engine over the
  // same graph completes one edge-insertion epoch that the from-scratch
  // oracle verifies. (init() runs no incremental repair, so the fallback to
  // a full recompute is not reached here.)
  Options opts;
  opts.d = 3;
  opts.net.faults = congest::parse_fault_plan("crash=3@r2,seed=4");
  ChurnEngine faulty(gen::path(8), decision_query(), opts);
  EXPECT_FALSE(faulty.init().ok());

  // Same scenario, but the fault plan only crashes in epoch 0's round
  // window... emulate recovery by constructing a clean engine over the
  // same graph and comparing digests after one churn step.
  Options clean;
  clean.d = 3;
  ChurnEngine engine(gen::path(8), decision_query(), clean);
  ASSERT_TRUE(engine.init().ok());
  const StepOutcome out =
      engine.step({ChurnEvent{ChurnEvent::Kind::kAddEdge, 2, 4, {}}});
  ASSERT_TRUE(out.ok());
  ASSERT_TRUE(out.verified);
  EXPECT_TRUE(out.digest_ok);
}

}  // namespace
}  // namespace dmc::churn
