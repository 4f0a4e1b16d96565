#include "graph/exact.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "graph/algorithms.hpp"

namespace dmc::exact {

namespace {

/// Backtracking embedding of h into g. `induced` demands non-edges map to
/// non-edges. Assignment maps h-vertices (in order 0..) to distinct
/// g-vertices.
bool embed(const Graph& g, const Graph& h, std::vector<VertexId>& assign,
           std::vector<bool>& used, int next, bool induced) {
  if (next == h.num_vertices()) return true;
  for (VertexId cand = 0; cand < g.num_vertices(); ++cand) {
    if (used[cand]) continue;
    bool ok = true;
    for (int prev = 0; prev < next && ok; ++prev) {
      const bool he = h.has_edge(prev, next);
      const bool ge = g.has_edge(assign[prev], cand);
      if (he && !ge) ok = false;
      if (induced && !he && ge) ok = false;
    }
    if (!ok) continue;
    assign[next] = cand;
    used[cand] = true;
    if (embed(g, h, assign, used, next + 1, induced)) return true;
    used[cand] = false;
  }
  return false;
}

bool contains(const Graph& g, const Graph& h, bool induced) {
  if (h.num_vertices() > g.num_vertices()) return false;
  std::vector<VertexId> assign(h.num_vertices(), -1);
  std::vector<bool> used(g.num_vertices(), false);
  return embed(g, h, assign, used, 0, induced);
}

void check_size(const Graph& g, int limit = 30) {
  if (g.num_vertices() > limit)
    throw std::invalid_argument("exact oracle: graph too large");
}

}  // namespace

bool contains_subgraph(const Graph& g, const Graph& h) {
  return contains(g, h, /*induced=*/false);
}

bool contains_induced_subgraph(const Graph& g, const Graph& h) {
  return contains(g, h, /*induced=*/true);
}

std::uint64_t count_triangles(const Graph& g) {
  std::uint64_t count = 0;
  const int n = g.num_vertices();
  for (VertexId a = 0; a < n; ++a)
    for (VertexId b = a + 1; b < n; ++b) {
      if (!g.has_edge(a, b)) continue;
      for (VertexId c = b + 1; c < n; ++c)
        if (g.has_edge(a, c) && g.has_edge(b, c)) ++count;
    }
  return count;
}

Weight max_weight_independent_set(const Graph& g) {
  check_size(g);
  const int n = g.num_vertices();
  std::vector<std::uint64_t> nbr(n, 0);
  for (const Edge& e : g.edges()) {
    nbr[e.u] |= 1ull << e.v;
    nbr[e.v] |= 1ull << e.u;
  }
  Weight best = std::numeric_limits<Weight>::min();
  // Recursive branch on highest remaining vertex.
  struct Rec {
    const Graph& g;
    const std::vector<std::uint64_t>& nbr;
    Weight best = std::numeric_limits<Weight>::min();
    void go(int v, std::uint64_t chosen, Weight w) {
      if (v < 0) {
        best = std::max(best, w);
        return;
      }
      // skip v
      go(v - 1, chosen, w);
      // take v if independent from chosen
      if ((nbr[v] & chosen) == 0)
        go(v - 1, chosen | (1ull << v), w + g.vertex_weight(v));
    }
  } rec{g, nbr};
  rec.go(n - 1, 0, 0);
  best = rec.best;
  return best;
}

Weight min_weight_vertex_cover(const Graph& g) {
  check_size(g);
  const int n = g.num_vertices();
  Weight best = std::numeric_limits<Weight>::max();
  for (std::uint64_t mask = 0; mask < (1ull << n); ++mask) {
    bool covers = true;
    for (const Edge& e : g.edges())
      if (!((mask >> e.u) & 1) && !((mask >> e.v) & 1)) {
        covers = false;
        break;
      }
    if (!covers) continue;
    Weight w = 0;
    for (int v = 0; v < n; ++v)
      if ((mask >> v) & 1) w += g.vertex_weight(v);
    best = std::min(best, w);
  }
  return best;
}

Weight min_weight_dominating_set(const Graph& g) {
  check_size(g, 24);
  const int n = g.num_vertices();
  std::vector<std::uint64_t> closed(n);
  for (int v = 0; v < n; ++v) {
    closed[v] = 1ull << v;
    for (auto [w, e] : g.incident(v)) closed[v] |= 1ull << w;
  }
  const std::uint64_t all = n == 64 ? ~0ull : (1ull << n) - 1;
  Weight best = std::numeric_limits<Weight>::max();
  for (std::uint64_t mask = 0; mask <= all; ++mask) {
    std::uint64_t dom = 0;
    Weight w = 0;
    for (int v = 0; v < n; ++v)
      if ((mask >> v) & 1) {
        dom |= closed[v];
        w += g.vertex_weight(v);
      }
    if (dom == all) best = std::min(best, w);
  }
  return best;
}

namespace {
bool color_rec(const Graph& g, std::vector<int>& color, int v, int k) {
  if (v == g.num_vertices()) return true;
  for (int c = 0; c < k; ++c) {
    bool ok = true;
    for (auto [w, e] : g.incident(v))
      if (color[w] == c) {
        ok = false;
        break;
      }
    if (!ok) continue;
    color[v] = c;
    if (color_rec(g, color, v + 1, k)) return true;
    color[v] = -1;
  }
  return false;
}
}  // namespace

bool is_k_colorable(const Graph& g, int k) {
  if (k < 0) throw std::invalid_argument("is_k_colorable: negative k");
  if (g.num_vertices() == 0) return true;
  if (k == 0) return false;
  std::vector<int> color(g.num_vertices(), -1);
  return color_rec(g, color, 0, k);
}

int chromatic_number(const Graph& g) {
  for (int k = 0;; ++k)
    if (is_k_colorable(g, k)) return k;
}

namespace {

/// Independent sets of the subgraph induced by `alive`: branch on a
/// maximum-degree vertex v (sets without v, plus sets with v and without
/// its neighbours); a graph of isolated vertices has 2^|alive|.
std::uint64_t count_independent(std::uint64_t alive,
                                const std::vector<std::uint64_t>& nbr) {
  int branch = -1, branch_degree = 0;
  for (std::uint64_t rest = alive; rest != 0; rest &= rest - 1) {
    const int v = __builtin_ctzll(rest);
    const int degree = __builtin_popcountll(nbr[v] & alive);
    if (degree > branch_degree) {
      branch = v;
      branch_degree = degree;
    }
  }
  if (branch < 0) return 1ull << __builtin_popcountll(alive);
  const std::uint64_t without = alive & ~(1ull << branch);
  return count_independent(without, nbr) +
         count_independent(without & ~nbr[branch], nbr);
}

}  // namespace

std::uint64_t count_independent_sets(const Graph& g) {
  check_size(g, 63);
  const int n = g.num_vertices();
  std::vector<std::uint64_t> nbr(n, 0);
  for (const Edge& e : g.edges()) {
    nbr[e.u] |= 1ull << e.v;
    nbr[e.v] |= 1ull << e.u;
  }
  return count_independent(n == 0 ? 0 : ~0ull >> (64 - n), nbr);
}

std::uint64_t count_perfect_matchings(const Graph& g) {
  const int n = g.num_vertices();
  if (n % 2 != 0) return 0;
  check_size(g, 24);
  // Recurse on the lowest unmatched vertex.
  struct Rec {
    const Graph& g;
    std::vector<bool> matched;
    std::uint64_t count = 0;
    void go() {
      int v = -1;
      for (int i = 0; i < g.num_vertices(); ++i)
        if (!matched[i]) {
          v = i;
          break;
        }
      if (v < 0) {
        ++count;
        return;
      }
      matched[v] = true;
      for (auto [w, e] : g.incident(v)) {
        if (matched[w]) continue;
        matched[w] = true;
        go();
        matched[w] = false;
      }
      matched[v] = false;
    }
  } rec{g, std::vector<bool>(n, false)};
  rec.go();
  return rec.count;
}

Weight min_weight_spanning_tree(const Graph& g) {
  return total_edge_weight(g, kruskal_mst(g));
}

}  // namespace dmc::exact
