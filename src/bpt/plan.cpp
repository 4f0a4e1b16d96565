#include "bpt/plan.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <unordered_map>

namespace dmc::bpt {

namespace {

int index_of(std::span<const VertexId> list, VertexId v) {
  auto it = std::lower_bound(list.begin(), list.end(), v);
  if (it == list.end() || *it != v) return -1;
  return static_cast<int>(it - list.begin());
}

void check_sorted(const std::vector<VertexId>& bag) {
  if (bag.empty() || !std::is_sorted(bag.begin(), bag.end()) ||
      std::adjacent_find(bag.begin(), bag.end()) != bag.end())
    throw std::invalid_argument("plan: bag must be nonempty, sorted, unique");
}

void fill_matrix(std::span<const VertexId> parent,
                 std::span<const VertexId> left,
                 std::span<const VertexId> right, GluingMatrix& out) {
  out.rows.clear();
  for (VertexId v : parent) {
    const int li = index_of(left, v);
    const int ri = index_of(right, v);
    if (li < 0 && ri < 0)
      throw std::invalid_argument(
          "matrix_for: parent terminal in neither child");
    out.rows.push_back({li, ri});
  }
}

/// Nodes and pool entries a plan takes, so its builder allocates each
/// array once.
struct PlanSize {
  std::size_t nodes = 0;
  std::size_t terminals = 0;
};

/// What Builder::eq12 adds for `bag` with `children` child nodes: the base
/// graph's K1s, prefix glues, K2s and their glues, then one Eq. 1 glue per
/// child and one Eq. 2 glue per child after the first.
PlanSize eq12_size(const Graph& g, const std::vector<VertexId>& bag,
                   std::size_t children) {
  check_sorted(bag);
  std::size_t edges = 0;
  for (std::size_t i = 0; i < bag.size(); ++i)
    for (std::size_t j = i + 1; j < bag.size(); ++j)
      edges += g.edge_id(bag[i], bag[j]) >= 0;
  return {2 * bag.size() - 1 + 2 * edges + (children ? 2 * children - 1 : 0),
          bag.size() + 2 * edges};
}

/// Appends plan nodes and shares each distinct gluing matrix. Glue nodes
/// take their parent terminals as an existing pool span, by offset, so no
/// pool growth can move what they read.
class Builder {
 public:
  struct Span {
    std::uint32_t first = 0, size = 0;
  };

  Builder(const Graph& g, PlanSize size) : g_(g) {
    plan_.nodes.reserve(size.nodes);
    plan_.terminal_pool.reserve(size.terminals);
  }

  Span terminals_of(int node) const {
    const PlanNode& n = plan_.nodes[node];
    return {n.first_terminal, n.num_terminals};
  }

  int input(const std::vector<VertexId>& bag) {
    check_sorted(bag);
    PlanNode in;
    in.kind = PlanNode::Kind::Input;
    in.input = plan_.num_inputs++;
    return push(in, append_terminals(bag));
  }

  /// Eq. 1 / Eq. 2 for one decomposition node: glues each child (an
  /// existing node whose terminals are the child bag) with the bag's base
  /// graph, then chains the results with identity gluings. Returns the
  /// node for G_u with terminal set `bag` (the base graph when childless).
  /// eq12_size has checked the bag.
  int eq12(const std::vector<VertexId>& bag, const std::vector<int>& children) {
    const Span all = append_terminals(bag);
    // Vertices, one at a time: prefix terminal lists.
    int cur = k1(bag[0], {all.first, 1});
    for (std::uint32_t k = 1; k < all.size; ++k)
      cur = glue({all.first, k + 1}, cur, k1(bag[k], {all.first + k, 1}));
    // Edges of G[bag].
    for (std::size_t i = 0; i < bag.size(); ++i) {
      for (std::size_t j = i + 1; j < bag.size(); ++j) {
        const EdgeId e = g_.edge_id(bag[i], bag[j]);
        if (e < 0) continue;
        PlanNode k2;
        k2.kind = PlanNode::Kind::K2;
        k2.v = bag[i];
        k2.w = bag[j];
        k2.e = e;
        const VertexId ends[] = {bag[i], bag[j]};
        cur = glue(all, cur, push(k2, append_terminals(ends)));
      }
    }
    const int base = cur;
    int acc = -1;
    for (int child : children) {
      // Eq. 1: G^{=i} = f(G_{v_i}, G^base), terminals = bag.
      const int eq = glue(all, child, base);
      // Eq. 2: chain with identity gluing.
      acc = acc < 0 ? eq : glue(all, acc, eq);
    }
    return acc < 0 ? base : acc;
  }

  int glue(Span parent, int left, int right) {
    fill_matrix(pool(parent), pool(terminals_of(left)),
                pool(terminals_of(right)), scratch_);
    auto it = op_index_.find(scratch_);
    if (it == op_index_.end()) {
      it = op_index_.emplace(scratch_, static_cast<int>(plan_.ops.size())).first;
      plan_.ops.push_back(scratch_);
    }
    PlanNode node;
    node.kind = PlanNode::Kind::Glue;
    node.left = left;
    node.right = right;
    node.op = it->second;
    return push(node, parent);
  }

  Plan finish(int root) {
    plan_.root = root;
    return std::move(plan_);
  }

 private:
  int k1(VertexId v, Span terms) {
    PlanNode node;
    node.kind = PlanNode::Kind::K1;
    node.v = v;
    return push(node, terms);
  }

  int push(PlanNode node, Span terms) {
    node.first_terminal = terms.first;
    node.num_terminals = terms.size;
    plan_.nodes.push_back(node);
    return static_cast<int>(plan_.nodes.size()) - 1;
  }

  /// Copies ids (which must not lie in the pool) to the pool's end.
  Span append_terminals(std::span<const VertexId> ids) {
    auto& pool = plan_.terminal_pool;
    if (pool.size() + ids.size() > std::numeric_limits<std::uint32_t>::max())
      throw std::length_error("plan: terminal pool exceeds 32-bit offsets");
    const Span s{static_cast<std::uint32_t>(pool.size()),
                 static_cast<std::uint32_t>(ids.size())};
    pool.insert(pool.end(), ids.begin(), ids.end());
    return s;
  }

  std::span<const VertexId> pool(Span s) const {
    return {plan_.terminal_pool.data() + s.first, s.size};
  }

  const Graph& g_;
  Plan plan_;
  GluingMatrix scratch_;  // the matrix being looked up
  std::unordered_map<GluingMatrix, int, GluingMatrixHash> op_index_;
};

}  // namespace

GluingMatrix matrix_for(std::span<const VertexId> parent,
                        std::span<const VertexId> left,
                        std::span<const VertexId> right) {
  GluingMatrix m;
  m.rows.reserve(parent.size());
  fill_matrix(parent, left, right, m);
  return m;
}

Plan build_node_plan(const Graph& g, const std::vector<VertexId>& bag,
                     const std::vector<std::vector<VertexId>>& child_bags) {
  PlanSize size = eq12_size(g, bag, child_bags.size());
  size.nodes += child_bags.size();
  for (const auto& cb : child_bags) size.terminals += cb.size();
  Builder b(g, size);
  std::vector<int> children;
  children.reserve(child_bags.size());
  for (const auto& cb : child_bags) children.push_back(b.input(cb));
  return b.finish(b.eq12(bag, children));
}

Plan build_global_plan(const Graph& g, const TreeDecomposition& td) {
  if (!td.valid_for(g))
    throw std::invalid_argument("build_global_plan: invalid tree decomposition");
  const auto order = td.topological_order();
  const auto kids = td.children();
  PlanSize size;
  for (int u = 0; u < td.num_nodes(); ++u) {
    const PlanSize s = eq12_size(g, td.bags[u], kids[u].size());
    size.nodes += s.nodes + (td.parent[u] < 0);  // a root may add a glue
    size.terminals += s.terminals;
  }
  Builder b(g, size);
  std::vector<int> node_of(td.num_nodes(), -1);
  std::vector<int> child_nodes;
  // bottom-up: reverse topological order
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const int u = *it;
    child_nodes.clear();
    for (int c : kids[u]) child_nodes.push_back(node_of[c]);
    node_of[u] = b.eq12(td.bags[u], child_nodes);
  }
  // Combine decomposition roots (disconnected graphs): keep the first
  // root's terminals and forget the rest.
  int acc = -1;
  for (int u = 0; u < td.num_nodes(); ++u) {
    if (td.parent[u] >= 0) continue;
    acc = acc < 0 ? node_of[u] : b.glue(b.terminals_of(acc), acc, node_of[u]);
  }
  if (acc < 0) throw std::invalid_argument("build_global_plan: empty decomposition");
  return b.finish(acc);
}

}  // namespace dmc::bpt
