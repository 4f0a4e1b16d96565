#include "td/elimination_forest.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <unordered_map>

#include "graph/algorithms.hpp"

namespace dmc {

EliminationForest::EliminationForest(std::vector<VertexId> parent)
    : parent_(std::move(parent)) {
  const int n = num_vertices();
  depth_.assign(n, 0);
  children_.assign(n, {});
  for (VertexId v = 0; v < n; ++v) {
    if (parent_[v] == v || parent_[v] >= n || parent_[v] < -1)
      throw std::invalid_argument("EliminationForest: bad parent pointer");
    if (parent_[v] >= 0) children_[parent_[v]].push_back(v);
  }
  // Compute depths; detect cycles via step counting.
  for (VertexId v = 0; v < n; ++v) {
    if (depth_[v]) continue;
    std::vector<VertexId> chain;
    VertexId x = v;
    while (x >= 0 && !depth_[x]) {
      chain.push_back(x);
      x = parent_[x];
      if (static_cast<int>(chain.size()) > n)
        throw std::invalid_argument("EliminationForest: parent cycle");
    }
    int base = x < 0 ? 0 : depth_[x];
    for (auto it = chain.rbegin(); it != chain.rend(); ++it) depth_[*it] = ++base;
  }
}

int EliminationForest::depth() const {
  return depth_.empty() ? 0 : *std::max_element(depth_.begin(), depth_.end());
}

std::vector<VertexId> EliminationForest::roots() const {
  std::vector<VertexId> out;
  for (VertexId v = 0; v < num_vertices(); ++v)
    if (parent_[v] < 0) out.push_back(v);
  return out;
}

bool EliminationForest::is_ancestor(VertexId anc, VertexId v) const {
  while (v >= 0) {
    if (v == anc) return true;
    v = parent_[v];
  }
  return false;
}

std::vector<VertexId> EliminationForest::root_path(VertexId v) const {
  std::vector<VertexId> path;
  for (VertexId x = v; x >= 0; x = parent_[x]) path.push_back(x);
  std::reverse(path.begin(), path.end());
  return path;
}

bool EliminationForest::valid_for(const Graph& g) const {
  if (g.num_vertices() != num_vertices()) return false;
  for (const Edge& e : g.edges())
    if (!is_ancestor(e.u, e.v) && !is_ancestor(e.v, e.u)) return false;
  return true;
}

bool EliminationForest::is_subgraph_of(const Graph& g) const {
  if (g.num_vertices() != num_vertices()) return false;
  for (VertexId v = 0; v < num_vertices(); ++v)
    if (parent_[v] >= 0 && !g.has_edge(v, parent_[v])) return false;
  return true;
}

namespace {

/// Exact treedepth of induced subgraphs identified by vertex bitmasks,
/// memoized (Lemma 2.2).
class TreedepthSolver {
 public:
  explicit TreedepthSolver(const Graph& g) : g_(g), n_(g.num_vertices()) {
    if (n_ > 20)
      throw std::invalid_argument("exact_treedepth: n > 20 not supported");
    nbr_.assign(n_, 0);
    for (const Edge& e : g.edges()) {
      nbr_[e.u] |= 1u << e.v;
      nbr_[e.v] |= 1u << e.u;
    }
  }

  int solve(std::uint32_t mask) {
    if (mask == 0) return 0;
    auto it = memo_.find(mask);
    if (it != memo_.end()) return it->second;
    int result;
    const auto comps = components(mask);
    if (comps.size() > 1) {
      result = 0;
      for (std::uint32_t c : comps) result = std::max(result, solve(c));
    } else if (popcount(mask) == 1) {
      result = 1;
    } else {
      result = std::numeric_limits<int>::max();
      for (int v = 0; v < n_; ++v)
        if ((mask >> v) & 1)
          result = std::min(result, 1 + solve(mask & ~(1u << v)));
    }
    memo_[mask] = result;
    return result;
  }

  /// Rebuilds an optimal elimination forest for `mask`, appending parent
  /// pointers into `parent` (-1-rooted at `root` unless root >= 0).
  void build_forest(std::uint32_t mask, VertexId root,
                    std::vector<VertexId>& parent) {
    if (mask == 0) return;
    const auto comps = components(mask);
    if (comps.size() > 1) {
      for (std::uint32_t c : comps) build_forest(c, root, parent);
      return;
    }
    if (popcount(mask) == 1) {
      for (int v = 0; v < n_; ++v)
        if ((mask >> v) & 1) parent[v] = root;
      return;
    }
    const int target = solve(mask);
    for (int v = 0; v < n_; ++v) {
      if (!((mask >> v) & 1)) continue;
      if (1 + solve(mask & ~(1u << v)) == target) {
        parent[v] = root;
        build_forest(mask & ~(1u << v), v, parent);
        return;
      }
    }
    throw std::logic_error("TreedepthSolver: no optimal pivot found");
  }

 private:
  static int popcount(std::uint32_t x) { return __builtin_popcount(x); }

  std::vector<std::uint32_t> components(std::uint32_t mask) const {
    std::vector<std::uint32_t> out;
    std::uint32_t remaining = mask;
    while (remaining) {
      std::uint32_t comp = remaining & -remaining;  // lowest set bit as seed
      for (;;) {
        std::uint32_t grown = comp;
        for (int v = 0; v < n_; ++v)
          if ((comp >> v) & 1) grown |= nbr_[v] & mask;
        if (grown == comp) break;
        comp = grown;
      }
      out.push_back(comp);
      remaining &= ~comp;
    }
    return out;
  }

  const Graph& g_;
  int n_;
  std::vector<std::uint32_t> nbr_;
  std::unordered_map<std::uint32_t, int> memo_;
};

}  // namespace

int exact_treedepth(const Graph& g) {
  if (g.num_vertices() == 0) return 0;
  TreedepthSolver solver(g);
  return solver.solve((g.num_vertices() == 32 ? ~0u : (1u << g.num_vertices()) - 1));
}

std::pair<int, EliminationForest> exact_treedepth_forest(const Graph& g) {
  TreedepthSolver solver(g);
  const std::uint32_t all =
      g.num_vertices() == 32 ? ~0u : (1u << g.num_vertices()) - 1;
  const int td = g.num_vertices() == 0 ? 0 : solver.solve(all);
  std::vector<VertexId> parent(g.num_vertices(), -1);
  solver.build_forest(all, -1, parent);
  return {td, EliminationForest(std::move(parent))};
}

BalancedBuilder::BalancedBuilder(const Graph& g, std::vector<VertexId>& parent,
                                 std::optional<long> subgraph_budget)
    : g_(g), parent_(parent), budget_(subgraph_budget),
      pos_(parent.size(), 0) {}

void BalancedBuilder::scan(VertexId s, VertexId attach) {
  order_.clear();
  nodes_.clear();
  auto discover = [&](VertexId v, int up) {
    const int i = static_cast<int>(order_.size());
    pos_[v] = i + 1;
    order_.push_back(v);
    nodes_.push_back(Node{up, i, 1, 0, 0, false});
    stack_.emplace_back(i, 0);
  };
  discover(s, -1);
  while (!stack_.empty()) {
    const int i = stack_.back().first;
    const auto nbrs = g_.neighbors(order_[i]);
    VertexId next = -1;
    for (int& k = stack_.back().second;
         next < 0 && k < static_cast<int>(nbrs.size()); ++k) {
      const VertexId w = nbrs[k];
      if (w == attach) nodes_[i].adjacent = true;
      if (parent_[w] != kUnplaced) continue;
      if (pos_[w] == 0) next = w;
      else nodes_[i].low = std::min(nodes_[i].low, pos_[w] - 1);
    }
    if (next >= 0) {
      discover(next, i);
      continue;
    }
    stack_.pop_back();
    const Node& c = nodes_[i];
    if (c.up < 0) continue;
    Node& p = nodes_[c.up];
    p.low = std::min(p.low, c.low);
    p.size += c.size;
    if (c.low >= c.up) {
      p.split += c.size;
      p.split_max = std::max(p.split_max, c.size);
    }
  }
  for (VertexId v : order_) pos_[v] = 0;
}

const std::vector<VertexId>& BalancedBuilder::component(VertexId s) {
  scan(s, -1);
  return order_;
}

bool BalancedBuilder::place(VertexId s, VertexId attach, int attach_depth) {
  tasks_.assign(1, Task{s, attach, attach_depth});
  while (!tasks_.empty()) {
    const Task t = tasks_.back();
    tasks_.pop_back();
    if (budget_ && t.attach_depth + 1 > *budget_) return false;
    scan(t.s, t.attach);
    const bool any_root = !budget_ || t.attach < 0;
    const int n = static_cast<int>(order_.size());
    int best = -1, best_score = 0;
    for (int i = 0; i < n; ++i) {
      if (!any_root && !nodes_[i].adjacent) continue;
      const int score = std::max(nodes_[i].split_max, n - 1 - nodes_[i].split);
      if (best < 0 || score < best_score ||
          (score == best_score && order_[i] < order_[best])) {
        best = i;
        best_score = score;
      }
    }
    if (best < 0) return false;  // no root adjacent to the attachment point
    const VertexId root = order_[best];
    parent_[root] = t.attach;
    // The components left: the split-off child subtrees, and the rest,
    // which holds the DFS root unless the DFS root was removed.
    for (int i = best + 1; i < best + nodes_[best].size; ++i)
      if (nodes_[i].up == best && nodes_[i].low >= best)
        tasks_.push_back(Task{order_[i], root, t.attach_depth + 1});
    if (best > 0) tasks_.push_back(Task{order_[0], root, t.attach_depth + 1});
  }
  return true;
}

EliminationForest balanced_elimination_forest(const Graph& g) {
  std::vector<VertexId> parent(g.num_vertices(), kUnplaced);
  BalancedBuilder builder(g, parent);
  for (VertexId s = 0; s < g.num_vertices(); ++s)
    if (parent[s] == kUnplaced) builder.place(s, -1, 0);
  return EliminationForest(std::move(parent));
}

std::optional<EliminationForest> greedy_elimination_tree(const Graph& g,
                                                         int max_depth) {
  const int n = g.num_vertices();
  if (n == 0) return EliminationForest(std::vector<VertexId>{});
  if (!is_connected(g))
    throw std::invalid_argument("greedy_elimination_tree: graph disconnected");
  std::vector<VertexId> parent(n, -1);
  std::vector<int> depth(n, 0);
  std::vector<bool> marked(n, false);
  // Root: the minimum id (mirrors the leader election of Algorithm 2).
  marked[0] = true;
  depth[0] = 1;
  int num_marked = 1;
  for (int step = 2; num_marked < n; ++step) {
    if (step > max_depth) return std::nullopt;
    // Components of the unmarked vertices.
    std::vector<int> comp(n, -1);
    int num_comp = 0;
    for (VertexId s = 0; s < n; ++s) {
      if (marked[s] || comp[s] >= 0) continue;
      const int c = num_comp++;
      std::vector<VertexId> stack{s};
      comp[s] = c;
      while (!stack.empty()) {
        const VertexId v = stack.back();
        stack.pop_back();
        for (auto [w, e] : g.incident(v))
          if (!marked[w] && comp[w] < 0) {
            comp[w] = c;
            stack.push_back(w);
          }
      }
    }
    // For each component: the adopter is the deepest marked neighbor (it has
    // depth step-1 by the invariant of Lemma 5.1); the new node is the
    // min-id component vertex adjacent to the adopter.
    for (int c = 0; c < num_comp; ++c) {
      VertexId adopter = -1;
      for (VertexId v = 0; v < n; ++v) {
        if (marked[v] || comp[v] != c) continue;
        for (auto [w, e] : g.incident(v))
          if (marked[w] && (adopter < 0 || depth[w] > depth[adopter]))
            adopter = w;
      }
      if (adopter < 0)
        throw std::logic_error("greedy_elimination_tree: isolated component");
      VertexId chosen = -1;
      for (auto [w, e] : g.incident(adopter))
        if (!marked[w] && comp[w] == c && (chosen < 0 || w < chosen))
          chosen = w;
      if (chosen < 0)
        throw std::logic_error(
            "greedy_elimination_tree: adopter not adjacent to component");
      parent[chosen] = adopter;
      depth[chosen] = step;
      marked[chosen] = true;
      ++num_marked;
    }
  }
  return EliminationForest(std::move(parent));
}

}  // namespace dmc
