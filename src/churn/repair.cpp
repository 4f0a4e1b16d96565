#include "churn/repair.hpp"

#include <algorithm>
#include <stdexcept>

#include "td/elimination_forest.hpp"

namespace dmc::churn {

namespace {

/// Depths (1-based) for a candidate parent array that may contain
/// unplaced vertices (parent == -2, depth stays 0).
std::vector<int> depths_of(const std::vector<VertexId>& parent) {
  const int n = static_cast<int>(parent.size());
  std::vector<int> depth(n, 0);
  std::vector<VertexId> chain;
  for (VertexId v = 0; v < n; ++v) {
    if (parent[v] == -2 || depth[v] != 0) continue;
    chain.clear();
    VertexId x = v;
    while (x >= 0 && depth[x] == 0) {
      chain.push_back(x);
      x = parent[x];
    }
    int base = x < 0 ? 0 : depth[x];
    for (auto it = chain.rbegin(); it != chain.rend(); ++it) depth[*it] = ++base;
  }
  return depth;
}

bool is_ancestor_or_self(const std::vector<VertexId>& parent,
                         const std::vector<int>& depth, VertexId anc,
                         VertexId v) {
  while (depth[v] > depth[anc]) v = parent[v];
  return v == anc;
}

VertexId lca(const std::vector<VertexId>& parent, const std::vector<int>& depth,
             VertexId a, VertexId b) {
  while (depth[a] > depth[b]) a = parent[a];
  while (depth[b] > depth[a]) b = parent[b];
  while (a != b) {
    a = parent[a];
    b = parent[b];
  }
  return a;
}

/// Connected components of new_g restricted to `members` (a bitmap).
std::vector<std::vector<VertexId>> components_of(
    const Graph& g, const std::vector<char>& members) {
  const int n = g.num_vertices();
  std::vector<std::vector<VertexId>> comps;
  std::vector<char> seen(n, 0);
  for (VertexId s = 0; s < n; ++s) {
    if (!members[s] || seen[s]) continue;
    comps.emplace_back();
    std::vector<VertexId> stack{s};
    seen[s] = 1;
    while (!stack.empty()) {
      const VertexId v = stack.back();
      stack.pop_back();
      comps.back().push_back(v);
      for (auto [w, e] : g.incident(v)) {
        (void)e;
        if (!members[w] || seen[w]) continue;
        seen[w] = 1;
        stack.push_back(w);
      }
    }
    std::sort(comps.back().begin(), comps.back().end());
  }
  return comps;
}

/// Recursively eliminates new_g[comp] under `attach` (a vertex outside the
/// region, or -1 for a root-level rebuild), writing parent/depth. The root
/// of every built subtree must be adjacent to its attachment point so tree
/// edges stay graph edges; among the eligible roots the one minimizing the
/// largest remaining component (ties: smaller id) is chosen — the same
/// balanced-separator heuristic as td::balanced_elimination_forest.
/// Returns false iff the depth budget cannot be met.
bool build_region(const Graph& g, const std::vector<VertexId>& comp,
                  VertexId attach, int attach_depth, long budget,
                  std::vector<VertexId>& parent, std::vector<int>& depth) {
  if (comp.empty()) return true;
  if (attach_depth + 1 > budget) return false;
  std::vector<char> members(g.num_vertices(), 0);
  for (VertexId v : comp) members[v] = 1;
  VertexId best = -1;
  std::size_t best_score = 0;
  for (VertexId r : comp) {
    if (attach >= 0 && !g.has_edge(r, attach)) continue;
    members[r] = 0;
    std::size_t largest = 0;
    for (const auto& c : components_of(g, members))
      largest = std::max(largest, c.size());
    members[r] = 1;
    if (best < 0 || largest < best_score) {
      best = r;
      best_score = largest;
    }
  }
  if (best < 0) return false;  // no root adjacent to the attachment point
  parent[best] = attach;
  depth[best] = attach_depth + 1;
  members[best] = 0;
  for (const auto& sub : components_of(g, members))
    if (!build_region(g, sub, best, attach_depth + 1, budget, parent, depth))
      return false;
  return true;
}

/// Marks the old-tree subtree of `root` (old-graph vertices), mapped into
/// the new graph, as dirty; `include_root` excludes a deleted root itself.
void mark_old_subtree(const dist::ElimTreeResult& old_tree,
                      const std::vector<VertexId>& old_to_new, VertexId root,
                      std::vector<char>& dirty) {
  std::vector<VertexId> stack{root};
  while (!stack.empty()) {
    const VertexId v = stack.back();
    stack.pop_back();
    if (old_to_new[v] >= 0) dirty[old_to_new[v]] = 1;
    for (int c : old_tree.children[v]) stack.push_back(c);
  }
}

void mark_new_subtree(const std::vector<std::vector<int>>& children,
                      VertexId root, std::vector<char>& dirty) {
  std::vector<VertexId> stack{root};
  while (!stack.empty()) {
    const VertexId v = stack.back();
    stack.pop_back();
    dirty[v] = 1;
    for (int c : children[v]) stack.push_back(c);
  }
}

}  // namespace

const char* to_string(RepairKind kind) {
  switch (kind) {
    case RepairKind::kRefold: return "refold";
    case RepairKind::kStructural: return "structural";
    case RepairKind::kFailed: return "failed";
  }
  return "?";
}

TreePatch repair_tree(const Graph& old_g,
                      const dist::ElimTreeResult& old_tree,
                      const Graph& new_g,
                      const std::vector<VertexId>& old_to_new, int d) {
  TreePatch patch;
  const int n_old = old_g.num_vertices();
  const int n_new = new_g.num_vertices();
  const long budget = (1L << d) - 1;  // Algorithm 2's depth bound (Lemma 2.5)
  if (!old_tree.success || n_new == 0) {
    patch.reason = "no prior tree";
    return patch;
  }

  std::vector<VertexId> new_to_old(n_new, -1);
  for (VertexId v = 0; v < n_old; ++v)
    if (old_to_new[v] >= 0) new_to_old[old_to_new[v]] = v;

  // Candidate tree: the old tree with deleted vertices spliced out
  // (children adopt the nearest surviving ancestor); fresh vertices are
  // unplaced (-2).
  std::vector<VertexId> parent(n_new, -2);
  for (VertexId nv = 0; nv < n_new; ++nv) {
    const VertexId ov = new_to_old[nv];
    if (ov < 0) continue;
    VertexId op = old_tree.parent[ov];
    while (op >= 0 && old_to_new[op] < 0) op = old_tree.parent[op];
    parent[nv] = op < 0 ? -1 : old_to_new[op];
  }
  std::vector<int> depth = depths_of(parent);
  auto placed = [&](VertexId v) { return parent[v] != -2; };

  // Violations: graph edges not ancestor-related, tree edges no longer in
  // the graph, a spliced-apart root set, and unplaced fresh vertices.
  std::vector<char> relevant(n_new, 0);
  std::vector<VertexId> unplaced;
  int roots = 0;
  for (VertexId v = 0; v < n_new; ++v) {
    if (!placed(v)) {
      unplaced.push_back(v);
      continue;
    }
    if (parent[v] == -1) ++roots;
    if (parent[v] >= 0 && !new_g.has_edge(v, parent[v]))
      relevant[v] = relevant[parent[v]] = 1;
  }
  bool edge_violation = false;
  for (const Edge& e : new_g.edges()) {
    if (!placed(e.u) || !placed(e.v)) continue;
    const VertexId up = depth[e.u] <= depth[e.v] ? e.u : e.v;
    const VertexId dn = depth[e.u] <= depth[e.v] ? e.v : e.u;
    if (!is_ancestor_or_self(parent, depth, up, dn))
      relevant[e.u] = relevant[e.v] = edge_violation = true;
  }
  const bool multi_root = roots != 1 && n_new > static_cast<int>(unplaced.size());
  bool has_violation = multi_root || edge_violation;
  for (VertexId v = 0; v < n_new && !has_violation; ++v)
    has_violation = relevant[v] != 0;

  bool structural = false;
  if (!has_violation && !unplaced.empty()) {
    // Local joins first: a fresh vertex whose (already placed) neighbors
    // all lie on one root path attaches as a leaf under the deepest of
    // them — the Lemma 2.4 fast path, no rebuild. Passes handle fresh
    // vertices adjacent to other fresh vertices placed earlier.
    std::vector<VertexId> try_parent = parent;
    std::vector<int> try_depth = depth;
    std::vector<VertexId> pending = unplaced;
    bool progress = true, all_placed = true;
    while (progress && !pending.empty()) {
      progress = false;
      std::vector<VertexId> next;
      for (VertexId w : pending) {
        VertexId deepest = -1;
        bool chain = true, ready = true;
        for (VertexId nb : new_g.neighbors(w)) {
          if (try_parent[nb] == -2) {
            ready = false;
            break;
          }
          if (deepest < 0) {
            deepest = nb;
            continue;
          }
          const VertexId up =
              try_depth[nb] <= try_depth[deepest] ? nb : deepest;
          const VertexId dn =
              try_depth[nb] <= try_depth[deepest] ? deepest : nb;
          if (!is_ancestor_or_self(try_parent, try_depth, up, dn)) {
            chain = false;
            break;
          }
          deepest = dn;
        }
        if (!ready) {
          next.push_back(w);
          continue;
        }
        if (!chain || deepest < 0 || try_depth[deepest] + 1 > budget) {
          all_placed = false;
          break;
        }
        try_parent[w] = deepest;
        try_depth[w] = try_depth[deepest] + 1;
        progress = true;
      }
      if (!all_placed) break;
      pending = std::move(next);
    }
    if (all_placed && pending.empty()) {
      parent = std::move(try_parent);
      depth = std::move(try_depth);
      unplaced.clear();
    }
  }

  if (has_violation || !unplaced.empty()) {
    structural = true;
    // Region: the subtrees under the violations' LCA (or everything when
    // the root set itself broke), re-eliminated and re-anchored.
    std::vector<char> in_region(n_new, 0);
    VertexId anchor = -1;
    if (multi_root) {
      for (VertexId v = 0; v < n_new; ++v) in_region[v] = 1;
    } else {
      for (VertexId w : unplaced)
        for (VertexId nb : new_g.neighbors(w))
          if (placed(nb)) relevant[nb] = 1;
      for (VertexId v = 0; v < n_new; ++v) {
        if (!relevant[v] || !placed(v)) continue;
        anchor = anchor < 0 ? v : lca(parent, depth, anchor, v);
      }
      if (anchor < 0) {
        patch.reason = "no anchored violation";  // defensive: disconnected?
        return patch;
      }
      // Subtrees of the anchor's children that contain a violation.
      for (VertexId v = 0; v < n_new; ++v) {
        if (!relevant[v] || v == anchor || !placed(v)) continue;
        VertexId x = v;
        while (parent[x] != anchor) x = parent[x];
        if (in_region[x]) continue;
        std::vector<VertexId> stack{x};
        in_region[x] = 1;
        while (!stack.empty()) {
          const VertexId y = stack.back();
          stack.pop_back();
          for (VertexId c = 0; c < n_new; ++c)
            if (placed(c) && parent[c] == y && !in_region[c]) {
              in_region[c] = 1;
              stack.push_back(c);
            }
        }
      }
      for (VertexId w : unplaced) in_region[w] = 1;
    }
    for (VertexId v = 0; v < n_new; ++v)
      if (in_region[v]) {
        parent[v] = -2;
        patch.region++;
      }
    // Ancestors of the anchor, deepest first, as re-attachment candidates.
    std::vector<VertexId> anchor_path;
    for (VertexId x = anchor; x >= 0; x = parent[x]) anchor_path.push_back(x);
    for (const auto& comp : components_of(new_g, in_region)) {
      VertexId attach = -1;
      for (VertexId cand : anchor_path) {
        bool adjacent = false;
        for (VertexId v : comp) adjacent = adjacent || new_g.has_edge(v, cand);
        if (adjacent) {
          attach = cand;
          break;
        }
      }
      if (attach < 0 && anchor >= 0) {
        patch.reason = "region component has no root-path anchor";
        return patch;
      }
      const int attach_depth = attach < 0 ? 0 : depth[attach];
      if (!build_region(new_g, comp, attach, attach_depth, budget, parent,
                        depth)) {
        patch.reason = "depth budget exceeded";
        return patch;
      }
    }
    depth = depths_of(parent);
  }

  // Defensive validation: the repaired tree must be exactly what Algorithm 2
  // could have produced — valid, a subgraph of the new graph, within the
  // depth bound, and a single tree.
  try {
    EliminationForest forest(parent);
    if (forest.roots().size() != 1) {
      patch.reason = "repair left multiple roots";
      return patch;
    }
    if (!forest.valid_for(new_g) || !forest.is_subgraph_of(new_g)) {
      patch.reason = "repaired tree invalid";
      return patch;
    }
    if (forest.depth() > budget) {
      patch.reason = "depth budget exceeded";
      return patch;
    }
  } catch (const std::exception&) {
    patch.reason = "repair produced a cyclic parent map";
    return patch;
  }

  patch.kind = structural ? RepairKind::kStructural : RepairKind::kRefold;
  patch.tree.success = true;
  patch.tree.parent.assign(parent.begin(), parent.end());
  patch.tree.depth = depth;
  patch.tree.children.assign(n_new, {});
  for (VertexId v = 0; v < n_new; ++v)
    if (parent[v] >= 0) patch.tree.children[parent[v]].push_back(v);

  // Dirty set: fold contexts that changed. Rule 1 — children arity/identity
  // (the plan's Input slots); rule 2 — the bag itself (root path, including
  // departed members); rule 3 — bag-induced edges (the deeper endpoint's
  // subtree sees the change in its local graph, Lemma 2.4). Rules 1 and 2
  // run in one top-down pass: v keeps its root path iff it and its old
  // vertex are both roots, or its old parent survives as its new parent
  // and that parent kept its root path; v keeps its children iff it has as
  // many as before and each new child's old parent is v's old vertex.
  patch.dirty.assign(n_new, 0);
  std::vector<char> same_path(n_new, 0);
  std::vector<VertexId> order;
  order.reserve(n_new);
  for (VertexId v = 0; v < n_new; ++v)
    if (parent[v] < 0) order.push_back(v);
  for (std::size_t i = 0; i < order.size(); ++i) {
    const VertexId nv = order[i];
    const auto& kids = patch.tree.children[nv];
    order.insert(order.end(), kids.begin(), kids.end());
    const VertexId ov = new_to_old[nv];
    if (ov < 0) {
      patch.dirty[nv] = 1;  // fresh vertex: everything about it is new
      continue;
    }
    const VertexId op = old_tree.parent[ov], np = parent[nv];
    same_path[nv] = np < 0 ? op < 0
                           : op >= 0 && old_to_new[op] == np && same_path[np];
    bool same_kids = kids.size() == old_tree.children[ov].size();
    for (std::size_t k = 0; same_kids && k < kids.size(); ++k) {
      const VertexId oc = new_to_old[kids[k]];
      same_kids = oc >= 0 && old_tree.parent[oc] == ov;
    }
    if (!same_path[nv] || !same_kids) patch.dirty[nv] = 1;
  }
  for (const Edge& e : old_g.edges()) {
    const VertexId na = old_to_new[e.u], nb = old_to_new[e.v];
    if (na < 0 || nb < 0) continue;  // died with a vertex: rule 2 covers it
    if (new_g.has_edge(na, nb)) continue;
    const VertexId deeper =
        old_tree.depth[e.u] >= old_tree.depth[e.v] ? e.u : e.v;
    mark_old_subtree(old_tree, old_to_new, deeper, patch.dirty);
  }
  for (const Edge& e : new_g.edges()) {
    const VertexId oa = new_to_old[e.u], ob = new_to_old[e.v];
    if (oa >= 0 && ob >= 0 && old_g.has_edge(oa, ob)) continue;
    const VertexId deeper = depth[e.u] >= depth[e.v] ? e.u : e.v;
    mark_new_subtree(patch.tree.children, deeper, patch.dirty);
  }
  return patch;
}

}  // namespace dmc::churn
