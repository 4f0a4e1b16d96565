#include "dist/elim_tree.hpp"

#include <algorithm>
#include <map>
#include <stdexcept>

#include "bpt/engine.hpp"
#include "congest/wire.hpp"

namespace dmc::dist {

namespace {

using congest::Message;
using congest::NodeCtx;

/// Flood message during leader-election rounds.
struct FloodMsg {
  bool marked = false;
  VertexId min_id = -1;
};

/// "My component leader is L" report (end of a phase's election).
struct ReportMsg {
  VertexId leader = -1;
  VertexId reporter = -1;
};

/// "You become my child" (Algorithm 2, instruction 15).
struct AdoptMsg {
  VertexId parent = -1;
};

/// Wire codecs (audit mode): ids are fixed id_bits(n)-wide fields. A
/// marked flood carries no min-id (marked senders' floods are ignored), so
/// the flag conditions the id field and the declared 1 + id_bits is an
/// upper bound, tight for the unmarked case.
[[maybe_unused]] const bool wire_codecs_registered = [] {
  audit::register_codec<FloodMsg>(
      "elim_tree::FloodMsg",
      [](const FloodMsg& m, const audit::WireContext& ctx,
         audit::BitWriter& w) {
        w.put_bit(m.marked);
        if (!m.marked)
          w.put_uint(static_cast<std::uint64_t>(m.min_id),
                     congest::id_bits(ctx.n));
      },
      [](const audit::WireContext& ctx, audit::BitReader& r) {
        FloodMsg m;
        m.marked = r.get_bit();
        m.min_id = m.marked ? -1
                            : static_cast<VertexId>(
                                  r.get_uint(congest::id_bits(ctx.n)));
        return m;
      },
      [](const FloodMsg& a, const FloodMsg& b) {
        return a.marked == b.marked && a.min_id == b.min_id;
      });
  audit::register_codec<ReportMsg>(
      "elim_tree::ReportMsg",
      [](const ReportMsg& m, const audit::WireContext& ctx,
         audit::BitWriter& w) {
        w.put_uint(static_cast<std::uint64_t>(m.leader),
                   congest::id_bits(ctx.n));
        w.put_uint(static_cast<std::uint64_t>(m.reporter),
                   congest::id_bits(ctx.n));
      },
      [](const audit::WireContext& ctx, audit::BitReader& r) {
        ReportMsg m;
        m.leader =
            static_cast<VertexId>(r.get_uint(congest::id_bits(ctx.n)));
        m.reporter =
            static_cast<VertexId>(r.get_uint(congest::id_bits(ctx.n)));
        return m;
      },
      [](const ReportMsg& a, const ReportMsg& b) {
        return a.leader == b.leader && a.reporter == b.reporter;
      });
  audit::register_codec<AdoptMsg>(
      "elim_tree::AdoptMsg",
      [](const AdoptMsg& m, const audit::WireContext& ctx,
         audit::BitWriter& w) {
        w.put_uint(static_cast<std::uint64_t>(m.parent),
                   congest::id_bits(ctx.n));
      },
      [](const audit::WireContext& ctx, audit::BitReader& r) {
        AdoptMsg m;
        m.parent =
            static_cast<VertexId>(r.get_uint(congest::id_bits(ctx.n)));
        return m;
      },
      [](const AdoptMsg& a, const AdoptMsg& b) {
        return a.parent == b.parent;
      });
  return true;
}();

// Phase layout (E = election_rounds, L = E + 2):
//   step 0        : process AdoptMsg from the previous phase (mark self,
//                   depth = current phase); reset election state; flood.
//   steps 1..E-1  : flood min-ids among unmarked nodes.
//   step E        : final flood processing; in phase 0 the global minimum
//                   marks itself as root (depth 1); in later phases
//                   unmarked nodes report (leader, self) to neighbors.
//   step E+1      : marked nodes of depth == phase adopt one reporter per
//                   component (min reporter id) and send AdoptMsg.
// Phase p (p >= 1) thereby creates the nodes of depth p+1, which mark
// themselves at step 0 of phase p+1. Phases 0..D-1 run (D = 2^d - 1), plus
// one extra round so the last AdoptMsg is processed.
class ElimTreeProgram : public congest::NodeProgram {
 public:
  ElimTreeProgram(int d, bool sparse_flood, int id_bits)
      : d_(d), sparse_(sparse_flood), id_bits_(id_bits) {
    election_rounds_ = (1 << d_) + 1;
    phase_len_ = election_rounds_ + 2;
    num_phases_ = (1 << d_) - 1;  // phases 0 .. D-1
    total_rounds_ = num_phases_ * phase_len_ + 1;
  }

  bool marked() const { return depth_ > 0; }
  int depth() const { return depth_; }
  VertexId parent_id() const { return parent_; }
  const std::vector<VertexId>& children_ids() const { return children_; }

  void on_round(NodeCtx& ctx) override {
    const int r = ctx.round() - (start_round_ < 0 ? (start_round_ = ctx.round())
                                                  : start_round_);
    if (r >= total_rounds_) return;
    const int phase = r / phase_len_;
    const int step = r % phase_len_;
    const int E = election_rounds_;

    if (step == 0) {
      if (phase >= 1 && !marked()) process_adopt(ctx, /*depth=*/phase);
      cur_min_ = marked() ? -1 : ctx.id();
    }
    if (step < E) {
      ctx.annotate("election");
      const VertexId before = cur_min_;
      if (step > 0) absorb_floods(ctx);
      if (!sparse_) {
        ctx.send_all(Message(FloodMsg{marked(), cur_min_}, 1 + id_bits_));
      } else if (!marked() && phase < num_phases_ &&
                 (step == 0 || cur_min_ < before)) {
        // Change-only flooding: forward the minimum only when it improved
        // this step (or the phase's step-0 seed). Improvements still
        // travel one hop per round, so the election converges on the same
        // leaders in the same number of rounds as the dense schedule.
        ctx.send_all(Message(FloodMsg{false, cur_min_}, 1 + id_bits_));
      }
      arm_wake(ctx, phase, step);
      return;
    }
    if (step == E) {
      ctx.annotate("report");
      absorb_floods(ctx);
      if (phase == 0) {
        if (!marked() && cur_min_ == ctx.id()) depth_ = 1;  // root, parent -1
        arm_wake(ctx, phase, step);
        return;
      }
      if (!marked())
        ctx.send_all(Message(ReportMsg{cur_min_, ctx.id()}, 2 * id_bits_));
      arm_wake(ctx, phase, step);
      return;
    }
    // step == E + 1: adoption by nodes of depth == phase.
    ctx.annotate("adopt");
    if (phase >= 1 && marked() && depth_ == phase) {
      std::map<VertexId, std::pair<VertexId, int>> best;  // leader -> (id, port)
      for (int p = 0; p < ctx.degree(); ++p) {
        const auto& msg = ctx.recv(p);
        if (!msg) continue;
        const auto* rm = msg->value.get_if<ReportMsg>();
        if (!rm) continue;
        auto it = best.find(rm->leader);
        if (it == best.end() || rm->reporter < it->second.first)
          best[rm->leader] = {rm->reporter, p};
      }
      for (const auto& [leader, chosen] : best) {
        ctx.send(chosen.second, Message(AdoptMsg{ctx.id()}, id_bits_));
        children_.push_back(chosen.first);
      }
    }
    arm_wake(ctx, phase, step);
  }

  bool done(const NodeCtx& ctx) const override {
    return start_round_ >= 0 && ctx.round() - start_round_ >= total_rounds_;
  }

 private:
  /// Sparse mode: after acting at (phase, step), sleep until the next
  /// round this node *must* act even without traffic. Traffic (floods,
  /// reports, adoptions) wakes a sleeping node earlier via the scheduler's
  /// delivery trigger, so nothing is missed. Marked nodes only ever react
  /// to report traffic; their sole mandatory round is the final one, where
  /// done() flips and the scheduler must observe it.
  void arm_wake(NodeCtx& ctx, int phase, int step) {
    if (!sparse_) return;
    int next;
    if (marked()) {
      next = total_rounds_;
    } else if (step < election_rounds_) {
      next = std::min(phase * phase_len_ + election_rounds_, total_rounds_);
    } else {
      next = std::min((phase + 1) * phase_len_, total_rounds_);
    }
    ctx.wake_at(start_round_ + next);
  }

  void absorb_floods(NodeCtx& ctx) {
    if (marked()) return;
    for (int p = 0; p < ctx.degree(); ++p) {
      const auto& msg = ctx.recv(p);
      if (!msg) continue;
      const auto* fm = msg->value.get_if<FloodMsg>();
      if (fm && !fm->marked) cur_min_ = std::min(cur_min_, fm->min_id);
    }
  }

  void process_adopt(NodeCtx& ctx, int depth) {
    for (int p = 0; p < ctx.degree(); ++p) {
      const auto& msg = ctx.recv(p);
      if (!msg) continue;
      const auto* am = msg->value.get_if<AdoptMsg>();
      if (am) {
        parent_ = am->parent;
        depth_ = depth;
      }
    }
  }

  int d_;
  bool sparse_;
  int id_bits_;  // congest::id_bits(n): one node id on the wire
  int election_rounds_;
  int phase_len_;
  int num_phases_;
  int total_rounds_;
  int start_round_ = -1;
  VertexId cur_min_ = -1;
  int depth_ = 0;  // 0 = unmarked
  VertexId parent_ = -1;
  std::vector<VertexId> children_;
};

}  // namespace

ElimTreeResult run_elim_tree(congest::Network& net, int d,
                             const ElimTreeOptions& opts) {
  if (d < 1) throw std::invalid_argument("run_elim_tree: d >= 1 required");
  congest::PhaseScope trace_scope(net, "elim-tree");
  const int n = net.n();
  std::vector<ElimTreeProgram> programs;
  programs.reserve(n);
  const int id_bits = congest::id_bits(n);
  for (int v = 0; v < n; ++v)
    programs.emplace_back(d, opts.sparse_flood, id_bits);
  ElimTreeResult result;
  result.run = net.run_outcome(congest::program_ptrs(programs));
  result.rounds = result.run.rounds;
  if (!result.run.ok()) return result;  // degraded: outputs untrusted
  result.success = true;
  result.parent.assign(n, -1);
  result.depth.assign(n, 0);
  // Children as one CSR, in each node's adoption order.
  TreeChildren& children = result.children;
  children.off.assign(n + 1, 0);
  for (int v = 0; v < n; ++v) {
    const ElimTreeProgram& p = programs[v];
    children.off[v + 1] = children.off[v];
    if (!p.marked()) {
      result.success = false;  // this node rejects: td(G) > d
      continue;
    }
    result.depth[v] = p.depth();
    result.parent[v] =
        p.parent_id() < 0 ? -1 : net.vertex_of_id(p.parent_id());
    children.off[v + 1] += static_cast<int>(p.children_ids().size());
  }
  children.kids.reserve(children.off[n]);
  for (const ElimTreeProgram& p : programs)
    if (p.marked())
      for (VertexId cid : p.children_ids())
        children.kids.push_back(net.vertex_of_id(cid));
  return result;
}

TreeChildren::TreeChildren(const std::vector<VertexId>& parent) {
  const int n = static_cast<int>(parent.size());
  off.assign(n + 1, 0);
  for (VertexId v = 0; v < n; ++v)
    if (parent[v] >= 0) ++off[parent[v] + 1];
  for (int v = 0; v < n; ++v) off[v + 1] += off[v];
  kids.resize(off[n]);
  std::vector<int> cursor(off.begin(), off.end() - 1);
  for (VertexId v = 0; v < n; ++v)
    if (parent[v] >= 0) kids[cursor[parent[v]]++] = v;
}

TreePorts::TreePorts(const Graph& g, const std::vector<VertexId>& tree_parent,
                     const TreeChildren& children) {
  const int n = g.num_vertices();
  parent.assign(n, -1);
  child.assign(children.kids.size(), -1);
  // kid_index[w]: w's position in the kids array (its child port's slot).
  std::vector<int> kid_index(n, -1);
  for (std::size_t k = 0; k < children.kids.size(); ++k)
    kid_index[children.kids[k]] = static_cast<int>(k);
  for (VertexId v = 0; v < n; ++v) {
    int port = 0;
    for (const VertexId w : g.neighbors(v)) {
      if (w == tree_parent[v])
        parent[v] = port;
      else if (tree_parent[w] == v && kid_index[w] >= 0)
        child[kid_index[w]] = port;
      ++port;
    }
    // Each tree edge is seen from both ends: the child finds its parent
    // port exactly when the parent finds the child's.
    if (tree_parent[v] >= 0 && parent[v] < 0)
      throw std::invalid_argument("tree edge " + std::to_string(v) + "-" +
                                  std::to_string(tree_parent[v]) +
                                  " is not a graph edge");
  }
}

TreeDefect validate_tree(const Graph& g, const std::vector<VertexId>& parent,
                         const TreeChildren& children, long budget,
                         std::vector<int>& depth) {
  const int n = static_cast<int>(parent.size());
  std::vector<int> tin(n, -1), tout(n, -1);
  std::vector<VertexId> stack;
  int clock = 0, roots = 0, max_depth = 0;
  for (VertexId r = 0; r < n; ++r) {
    if (parent[r] < -1) return TreeDefect::kCycle;
    if (parent[r] != -1) continue;
    ++roots;
    depth[r] = 1;
    tin[r] = clock++;
    stack.assign(1, r);
    // Iterative DFS: a vertex is on the stack until its children are done.
    std::vector<const int*> next{children.begin(r)};
    while (!stack.empty()) {
      const VertexId v = stack.back();
      const int*& it = next.back();
      if (it == children.end(v)) {
        tout[v] = clock++;
        stack.pop_back();
        next.pop_back();
        continue;
      }
      const VertexId c = *it++;
      depth[c] = depth[v] + 1;
      max_depth = std::max(max_depth, depth[c]);
      tin[c] = clock++;
      stack.push_back(c);
      next.push_back(children.begin(c));
    }
    max_depth = std::max(max_depth, 1);
  }
  // A vertex no root reaches sits on a parent cycle.
  if (clock != 2 * n) return TreeDefect::kCycle;
  if (roots != 1) return TreeDefect::kRoots;
  std::vector<char> tree_edge(n, 0);
  auto below = [&](VertexId anc, VertexId v) {
    return tin[anc] <= tin[v] && tout[v] <= tout[anc];
  };
  for (const Edge& e : g.edges()) {
    if (!below(e.u, e.v) && !below(e.v, e.u)) return TreeDefect::kEdges;
    if (parent[e.u] == e.v) tree_edge[e.u] = 1;
    if (parent[e.v] == e.u) tree_edge[e.v] = 1;
  }
  for (VertexId v = 0; v < n; ++v)
    if (parent[v] >= 0 && !tree_edge[v]) return TreeDefect::kEdges;
  if (max_depth > budget) return TreeDefect::kDepth;
  return TreeDefect::kNone;
}

std::string too_deep(const ElimTreeResult& tree) {
  const int depth =
      tree.depth.empty()
          ? 0
          : *std::max_element(tree.depth.begin(), tree.depth.end());
  if (depth <= bpt::kMaxTerminals) return "";
  return "tree depth " + std::to_string(depth) +
         " exceeds the fold engine's " +
         std::to_string(bpt::kMaxTerminals) + "-terminal limit";
}

std::string tree_defect(const Graph& g, const std::vector<VertexId>& parent,
                        int d) {
  if (static_cast<int>(parent.size()) != g.num_vertices())
    return "tree size differs from the graph";
  for (VertexId p : parent)
    if (p < -1 || p >= g.num_vertices()) return "parent id out of range";
  std::vector<int> depth(parent.size(), 0);
  switch (validate_tree(g, parent, TreeChildren(parent), (1L << d) - 1,
                        depth)) {
    case TreeDefect::kNone: return "";
    case TreeDefect::kCycle: return "parent map has a cycle";
    case TreeDefect::kRoots: return "more than one root";
    case TreeDefect::kEdges:
      return "not an elimination tree whose edges are graph edges";
    case TreeDefect::kDepth: return "deeper than 2^d - 1";
  }
  return "";
}

}  // namespace dmc::dist
