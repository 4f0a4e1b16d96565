#include "dist/elim_tree.hpp"

#include <algorithm>
#include <map>
#include <stdexcept>

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
  explicit ElimTreeProgram(int d, bool sparse_flood)
      : d_(d), sparse_(sparse_flood) {
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
    const int id_bits = congest::id_bits(ctx.n());

    if (step == 0) {
      if (phase >= 1 && !marked()) process_adopt(ctx, /*depth=*/phase);
      cur_min_ = marked() ? -1 : ctx.id();
    }
    if (step < E) {
      ctx.annotate("election");
      const VertexId before = cur_min_;
      if (step > 0) absorb_floods(ctx);
      if (!sparse_) {
        ctx.send_all(Message(FloodMsg{marked(), cur_min_}, 1 + id_bits));
      } else if (!marked() && phase < num_phases_ &&
                 (step == 0 || cur_min_ < before)) {
        // Change-only flooding: forward the minimum only when it improved
        // this step (or the phase's step-0 seed). Improvements still
        // travel one hop per round, so the election converges on the same
        // leaders in the same number of rounds as the dense schedule.
        ctx.send_all(Message(FloodMsg{false, cur_min_}, 1 + id_bits));
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
        ctx.send_all(Message(ReportMsg{cur_min_, ctx.id()}, 2 * id_bits));
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
        ctx.send(chosen.second, Message(AdoptMsg{ctx.id()}, id_bits));
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
  std::vector<std::unique_ptr<congest::NodeProgram>> programs;
  std::vector<ElimTreeProgram*> handles;
  for (int v = 0; v < net.n(); ++v) {
    auto p = std::make_unique<ElimTreeProgram>(d, opts.sparse_flood);
    handles.push_back(p.get());
    programs.push_back(std::move(p));
  }
  ElimTreeResult result;
  result.run = net.run_outcome(programs);
  result.rounds = result.run.rounds;
  if (!result.run.ok()) return result;  // degraded: outputs untrusted
  result.success = true;
  result.parent.assign(net.n(), -1);
  result.depth.assign(net.n(), 0);
  result.children.assign(net.n(), {});
  for (int v = 0; v < net.n(); ++v) {
    const ElimTreeProgram& p = *handles[v];
    if (!p.marked()) {
      result.success = false;  // this node rejects: td(G) > d
      continue;
    }
    result.depth[v] = p.depth();
    result.parent[v] =
        p.parent_id() < 0 ? -1 : net.vertex_of_id(p.parent_id());
    for (VertexId cid : p.children_ids())
      result.children[v].push_back(net.vertex_of_id(cid));
  }
  return result;
}

}  // namespace dmc::dist
