#include "td/tree_decomposition.hpp"

#include <algorithm>
#include <stdexcept>

namespace dmc {

int TreeDecomposition::width() const {
  int w = 0;
  for (const auto& bag : bags) w = std::max<int>(w, static_cast<int>(bag.size()));
  return w - 1;
}

std::vector<std::vector<int>> TreeDecomposition::children() const {
  std::vector<std::vector<int>> ch(num_nodes());
  for (int i = 0; i < num_nodes(); ++i)
    if (parent[i] >= 0) ch[parent[i]].push_back(i);
  return ch;
}

std::vector<int> TreeDecomposition::topological_order() const {
  std::vector<int> order;
  order.reserve(num_nodes());
  const auto ch = children();
  for (int i = 0; i < num_nodes(); ++i)
    if (parent[i] < 0) order.push_back(i);
  for (std::size_t head = 0; head < order.size(); ++head)
    for (int c : ch[order[head]]) order.push_back(c);
  if (static_cast<int>(order.size()) != num_nodes())
    throw std::logic_error("TreeDecomposition: parent cycle");
  return order;
}

bool TreeDecomposition::valid_for(const Graph& g) const {
  const int nodes = num_nodes();
  if (static_cast<int>(parent.size()) != nodes) return false;
  const int n = g.num_vertices();
  // Bags sorted, in range.
  for (const auto& bag : bags) {
    if (!std::is_sorted(bag.begin(), bag.end())) return false;
    for (VertexId v : bag)
      if (v < 0 || v >= n) return false;
    if (std::adjacent_find(bag.begin(), bag.end()) != bag.end()) return false;
  }
  // Node depths, root first; -1 marks the chain being walked, so meeting it
  // again is a parent cycle.
  std::vector<int> depth(nodes, 0), chain;
  for (int i = 0; i < nodes; ++i) {
    int x = i;
    for (; x >= 0 && depth[x] == 0; x = parent[x]) {
      if (parent[x] < -1 || parent[x] >= nodes) return false;
      depth[x] = -1;
      chain.push_back(x);
    }
    if (x >= 0 && depth[x] < 0) return false;
    for (int d = x < 0 ? 0 : depth[x]; !chain.empty(); chain.pop_back())
      depth[chain.back()] = ++d;
  }
  // (1) and (3): the nodes holding a vertex form a subtree iff exactly one
  // of them, its top, has no parent holding it too (nodes minus links).
  auto holds = [&](int i, VertexId v) {
    return std::binary_search(bags[i].begin(), bags[i].end(), v);
  };
  std::vector<int> top(n, -1);
  for (int i = 0; i < nodes; ++i)
    for (VertexId v : bags[i]) {
      if (parent[i] >= 0 && holds(parent[i], v)) continue;
      if (top[v] >= 0) return false;
      top[v] = i;
    }
  for (int v = 0; v < n; ++v)
    if (top[v] < 0) return false;
  // (2) every edge inside some bag: two subtrees meet iff the deeper top
  // lies in the other subtree.
  for (const Edge& e : g.edges()) {
    const bool u_deeper = depth[top[e.u]] >= depth[top[e.v]];
    if (!(u_deeper ? holds(top[e.u], e.v) : holds(top[e.v], e.u)))
      return false;
  }
  return true;
}

TreeDecomposition canonical_tree_decomposition(
    const Graph& g, const EliminationForest& forest) {
  if (!forest.valid_for(g))
    throw std::invalid_argument(
        "canonical_tree_decomposition: forest is not an elimination forest");
  TreeDecomposition td;
  td.parent = forest.parents();
  td.bags.resize(g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    td.bags[v] = forest.root_path(v);
    std::sort(td.bags[v].begin(), td.bags[v].end());
  }
  return td;
}

}  // namespace dmc
