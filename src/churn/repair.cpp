#include "churn/repair.hpp"

#include <algorithm>
#include <utility>

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

/// Re-eliminates a structural region. Region vertices are exactly the
/// unplaced ones (parent == -2), so the components of a component minus a
/// vertex are found by searching unplaced neighbors only, and one stamp
/// array serves every search of the repair: a search costs its component,
/// never n.
class RegionBuilder {
 public:
  RegionBuilder(const Graph& g, long budget, std::vector<VertexId>& parent,
                std::vector<int>& depth)
      : g_(g), budget_(budget), parent_(parent), depth_(depth),
        stamp_(parent.size(), 0) {}

  /// Components of the unplaced vertices among `from` (ascending), other
  /// than `skip`: ordered by their least vertex, each sorted.
  std::vector<std::vector<VertexId>> components(
      const std::vector<VertexId>& from, VertexId skip) {
    std::vector<std::vector<VertexId>> comps;
    const int mark = ++stamp_id_;
    if (skip >= 0) stamp_[skip] = mark;
    for (VertexId s : from) {
      if (stamp_[s] == mark) continue;
      comps.emplace_back();
      search(s, mark, &comps.back());
      std::sort(comps.back().begin(), comps.back().end());
    }
    return comps;
  }

  /// Recursively eliminates g[comp] (one component of the unplaced
  /// vertices, ascending) under `attach` (a vertex outside the region, or
  /// -1 for a root-level rebuild), writing parent/depth. The root of every
  /// built subtree must be adjacent to its attachment point so tree edges
  /// stay graph edges; among the eligible roots the one minimizing the
  /// largest remaining component (ties: smaller id) is chosen — the same
  /// balanced-separator heuristic as td::balanced_elimination_forest.
  /// Returns false iff the depth budget cannot be met.
  bool build(const std::vector<VertexId>& comp, VertexId attach,
             int attach_depth) {
    if (comp.empty()) return true;
    if (attach_depth + 1 > budget_) return false;
    VertexId best = -1;
    std::size_t best_score = 0;
    for (VertexId r : comp) {
      if (attach >= 0 && !g_.has_edge(r, attach)) continue;
      const int mark = ++stamp_id_;
      stamp_[r] = mark;
      std::size_t largest = 0;
      for (VertexId s : comp)
        if (stamp_[s] != mark) largest = std::max(largest, search(s, mark));
      if (best < 0 || largest < best_score) {
        best = r;
        best_score = largest;
      }
    }
    if (best < 0) return false;  // no root adjacent to the attachment point
    parent_[best] = attach;
    depth_[best] = attach_depth + 1;
    for (const auto& sub : components(comp, best))
      if (!build(sub, best, attach_depth + 1)) return false;
    return true;
  }

 private:
  /// Stamps the unplaced component of `s` with `mark`; returns its size
  /// and, with `out`, lists it.
  std::size_t search(VertexId s, int mark,
                     std::vector<VertexId>* out = nullptr) {
    stack_.assign(1, s);
    stamp_[s] = mark;
    std::size_t size = 0;
    while (!stack_.empty()) {
      const VertexId v = stack_.back();
      stack_.pop_back();
      ++size;
      if (out != nullptr) out->push_back(v);
      for (VertexId w : g_.neighbors(v)) {
        if (parent_[w] != -2 || stamp_[w] == mark) continue;
        stamp_[w] = mark;
        stack_.push_back(w);
      }
    }
    return size;
  }

  const Graph& g_;
  long budget_;
  std::vector<VertexId>& parent_;
  std::vector<int>& depth_;
  std::vector<int> stamp_;
  int stamp_id_ = 0;
  std::vector<VertexId> stack_;
};

/// Marks the old-tree subtree of `root` (old-graph vertices), mapped into
/// the new graph, as dirty; deleted vertices are skipped.
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

void mark_new_subtree(const dist::TreeChildren& children, VertexId root,
                      std::vector<char>& dirty) {
  std::vector<VertexId> stack{root};
  while (!stack.empty()) {
    const VertexId v = stack.back();
    stack.pop_back();
    dirty[v] = 1;
    stack.insert(stack.end(), children.begin(v), children.end(v));
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

TreePatch repair_tree(const dist::ElimTreeResult& old_tree, const Graph& new_g,
                      const std::vector<VertexId>& old_to_new,
                      const EdgeDelta& delta, int d) {
  TreePatch patch;
  const int n_old = static_cast<int>(old_to_new.size());
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
  // unplaced (-2). Splicing keeps every surviving ancestor pair, so the
  // old tree's validity carries over to every unchanged edge.
  std::vector<VertexId> parent(n_new, -2);
  std::vector<VertexId> unplaced, spliced;
  int roots = 0;
  for (VertexId nv = 0; nv < n_new; ++nv) {
    const VertexId ov = new_to_old[nv];
    if (ov < 0) {
      unplaced.push_back(nv);
      continue;
    }
    VertexId op = old_tree.parent[ov];
    if (op >= 0 && old_to_new[op] < 0) {
      spliced.push_back(nv);
      while (op >= 0 && old_to_new[op] < 0) op = old_tree.parent[op];
    }
    parent[nv] = op < 0 ? -1 : old_to_new[op];
    roots += parent[nv] == -1;
  }
  std::vector<int> depth = depths_of(parent);
  auto placed = [&](VertexId v) { return parent[v] != -2; };

  // Violations: tree edges no longer in the graph (a deleted pair, or a
  // spliced child and its adopted parent), inserted edges that are not
  // ancestor-related, a spliced-apart root set, and unplaced fresh
  // vertices. Every other edge and tree edge was valid in the old tree.
  std::vector<char> relevant(n_new, 0);
  bool has_violation = false;
  auto flag = [&](VertexId a, VertexId b) {
    relevant[a] = relevant[b] = 1;
    has_violation = true;
  };
  for (const auto& [a, b] : delta.deleted)
    if (parent[a] == b || parent[b] == a) flag(a, b);
  for (VertexId v : spliced)
    if (parent[v] >= 0 && !new_g.has_edge(v, parent[v])) flag(v, parent[v]);
  for (const auto& [a, b] : delta.inserted) {
    if (!placed(a) || !placed(b)) continue;
    const VertexId up = depth[a] <= depth[b] ? a : b;
    const VertexId dn = depth[a] <= depth[b] ? b : a;
    if (!is_ancestor_or_self(parent, depth, up, dn)) flag(a, b);
  }
  const bool multi_root =
      roots != 1 && n_new > static_cast<int>(unplaced.size());
  has_violation = has_violation || multi_root;

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
    std::vector<VertexId> region;
    VertexId anchor = -1;
    if (multi_root) {
      region.resize(n_new);
      for (VertexId v = 0; v < n_new; ++v) region[v] = v;
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
      // Subtrees of the anchor's children that contain a violation,
      // collected down the candidate tree's children lists.
      const dist::TreeChildren children(parent);
      std::vector<char> in_region(n_new, 0);
      for (VertexId v = 0; v < n_new; ++v) {
        if (!relevant[v] || v == anchor || !placed(v)) continue;
        VertexId x = v;
        while (parent[x] != anchor) x = parent[x];
        if (in_region[x]) continue;
        const std::size_t first = region.size();
        region.push_back(x);
        in_region[x] = 1;
        for (std::size_t i = first; i < region.size(); ++i)
          for (const int* c = children.begin(region[i]);
               c != children.end(region[i]); ++c) {
            in_region[*c] = 1;
            region.push_back(*c);
          }
      }
      region.insert(region.end(), unplaced.begin(), unplaced.end());
      std::sort(region.begin(), region.end());
    }
    for (VertexId v : region) parent[v] = -2;
    patch.region = static_cast<int>(region.size());
    // Ancestors of the anchor, deepest first, as re-attachment candidates.
    std::vector<VertexId> anchor_path;
    for (VertexId x = anchor; x >= 0; x = parent[x]) anchor_path.push_back(x);
    RegionBuilder builder(new_g, budget, parent, depth);
    for (const auto& comp : builder.components(region, -1)) {
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
      if (!builder.build(comp, attach, attach_depth)) {
        patch.reason = "depth budget exceeded";
        return patch;
      }
    }
  }

  // Defensive validation: the repaired tree must be exactly what Algorithm 2
  // could have produced — a single tree, valid for and a subgraph of the
  // new graph, within the depth bound. It also settles the final depths.
  patch.tree.children = dist::TreeChildren(parent);
  const dist::TreeChildren& children = patch.tree.children;
  switch (dist::validate_tree(new_g, parent, children, budget, depth)) {
    case dist::TreeDefect::kNone: break;
    case dist::TreeDefect::kCycle:
      patch.reason = "repair produced a cyclic parent map";
      return patch;
    case dist::TreeDefect::kRoots:
      patch.reason = "repair left multiple roots";
      return patch;
    case dist::TreeDefect::kEdges:
      patch.reason = "repaired tree invalid";
      return patch;
    case dist::TreeDefect::kDepth:
      patch.reason = "depth budget exceeded";
      return patch;
  }

  patch.kind = structural ? RepairKind::kStructural : RepairKind::kRefold;
  patch.tree.success = true;

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
    order.insert(order.end(), children.begin(nv), children.end(nv));
    const VertexId ov = new_to_old[nv];
    if (ov < 0) {
      patch.dirty[nv] = 1;  // fresh vertex: everything about it is new
      continue;
    }
    const VertexId op = old_tree.parent[ov], np = parent[nv];
    same_path[nv] = np < 0 ? op < 0
                           : op >= 0 && old_to_new[op] == np && same_path[np];
    bool same_kids = children.count(nv) ==
                     static_cast<int>(old_tree.children[ov].size());
    for (const int* c = children.begin(nv); same_kids && c != children.end(nv);
         ++c) {
      const VertexId oc = new_to_old[*c];
      same_kids = oc >= 0 && old_tree.parent[oc] == ov;
    }
    if (!same_path[nv] || !same_kids) patch.dirty[nv] = 1;
  }
  // Rule 3 from the delta: a deleted pair dirties the old subtree of its
  // deeper endpoint, an inserted pair the new one.
  for (const auto& [a, b] : delta.deleted) {
    const VertexId oa = new_to_old[a], ob = new_to_old[b];
    mark_old_subtree(old_tree, old_to_new,
                     old_tree.depth[oa] >= old_tree.depth[ob] ? oa : ob,
                     patch.dirty);
  }
  for (const auto& [a, b] : delta.inserted)
    mark_new_subtree(children, depth[a] >= depth[b] ? a : b, patch.dirty);
  patch.tree.parent = std::move(parent);
  patch.tree.depth = std::move(depth);
  return patch;
}

TreePatch repair_tree(const Graph& old_g, const dist::ElimTreeResult& old_tree,
                      const Graph& new_g,
                      const std::vector<VertexId>& old_to_new, int d) {
  return repair_tree(old_tree, new_g, old_to_new,
                     edge_delta(old_g, new_g, old_to_new), d);
}

}  // namespace dmc::churn
