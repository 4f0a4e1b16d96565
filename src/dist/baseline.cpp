#include "dist/baseline.hpp"

#include <algorithm>
#include <set>
#include <stdexcept>

#include "congest/fragment.hpp"
#include "congest/wire.hpp"
#include "seq/courcelle.hpp"

namespace dmc::dist {

namespace {

using congest::Message;
using congest::NodeCtx;

struct BfsMsg {
  VertexId root = -1;
  int dist = 0;
  VertexId parent = -1;  // the sender's current BFS parent
};

struct EdgeListPayload {
  std::vector<std::pair<VertexId, VertexId>> edges;  // global id pairs
};

struct VerdictMsg {
  bool holds = false;
};

/// Wire codecs (audit mode). BfsMsg packs root (id field), dist (a BFS
/// distance, < n, so count_bits(n) wide) and a presence-bit-guarded parent
/// id (roots have none); EdgeListPayload is a varuint edge count followed
/// by two id fields per edge and declares its measured size.
[[maybe_unused]] const bool wire_codecs_registered = [] {
  audit::register_codec<BfsMsg>(
      "baseline::BfsMsg",
      [](const BfsMsg& m, const audit::WireContext& ctx, audit::BitWriter& w) {
        const int id_bits = congest::id_bits(ctx.n);
        w.put_uint(static_cast<std::uint64_t>(m.root), id_bits);
        w.put_uint(static_cast<std::uint64_t>(m.dist),
                   congest::count_bits(static_cast<std::uint64_t>(ctx.n)));
        w.put_bit(m.parent >= 0);
        if (m.parent >= 0)
          w.put_uint(static_cast<std::uint64_t>(m.parent), id_bits);
      },
      [](const audit::WireContext& ctx, audit::BitReader& r) {
        const int id_bits = congest::id_bits(ctx.n);
        BfsMsg m;
        m.root = static_cast<VertexId>(r.get_uint(id_bits));
        m.dist = static_cast<int>(r.get_uint(
            congest::count_bits(static_cast<std::uint64_t>(ctx.n))));
        m.parent = r.get_bit() ? static_cast<VertexId>(r.get_uint(id_bits)) : -1;
        return m;
      },
      [](const BfsMsg& a, const BfsMsg& b) {
        return a.root == b.root && a.dist == b.dist && a.parent == b.parent;
      });
  audit::register_codec<EdgeListPayload>(
      "baseline::EdgeListPayload",
      [](const EdgeListPayload& m, const audit::WireContext& ctx,
         audit::BitWriter& w) {
        const int id_bits = congest::id_bits(ctx.n);
        w.put_varuint(m.edges.size());
        for (const auto& [a, b] : m.edges) {
          w.put_uint(static_cast<std::uint64_t>(a), id_bits);
          w.put_uint(static_cast<std::uint64_t>(b), id_bits);
        }
      },
      [](const audit::WireContext& ctx, audit::BitReader& r) {
        const int id_bits = congest::id_bits(ctx.n);
        EdgeListPayload m;
        const std::uint64_t size = r.get_varuint();
        for (std::uint64_t i = 0; i < size; ++i) {
          const auto a = static_cast<VertexId>(r.get_uint(id_bits));
          const auto b = static_cast<VertexId>(r.get_uint(id_bits));
          m.edges.emplace_back(a, b);
        }
        return m;
      },
      [](const EdgeListPayload& a, const EdgeListPayload& b) {
        return a.edges == b.edges;
      });
  audit::register_codec<VerdictMsg>(
      "baseline::VerdictMsg",
      [](const VerdictMsg& m, const audit::WireContext&, audit::BitWriter& w) {
        w.put_bit(m.holds);
      },
      [](const audit::WireContext&, audit::BitReader& r) {
        return VerdictMsg{r.get_bit()};
      },
      [](const VerdictMsg& a, const VerdictMsg& b) {
        return a.holds == b.holds;
      });
  return true;
}();

class GatherProgram : public congest::NodeProgram {
 public:
  GatherProgram(const mso::FormulaPtr& formula,
                std::vector<VertexId> neighbor_ids)
      : formula_(formula), neighbor_ids_(std::move(neighbor_ids)) {}

  bool has_verdict() const { return verdict_known_; }
  bool verdict() const { return verdict_; }

  void on_round(NodeCtx& ctx) override {
    const int r = ctx.round() - (start_ < 0 ? (start_ = ctx.round()) : start_);
    const int n = ctx.n();
    const int id_bits = congest::id_bits(n);
    if (r == 0) {
      ctx.annotate("bfs");
      root_ = ctx.id();
      dist_ = 0;
      parent_ = -1;
    }
    if (r <= n) {
      // BFS flooding: adopt (smaller root) or (equal root, shorter path).
      for (int p = 0; p < ctx.degree(); ++p) {
        const auto& msg = ctx.recv(p);
        if (!msg) continue;
        const auto* bm = msg->value.get_if<BfsMsg>();
        if (!bm) continue;
        if (bm->root < root_ || (bm->root == root_ && bm->dist + 1 < dist_)) {
          root_ = bm->root;
          dist_ = bm->dist + 1;
          parent_ = ctx.neighbor_id(p);
        }
      }
      if (r < n)
        ctx.send_all(Message(BfsMsg{root_, dist_, parent_},
                             2 * id_bits + congest::count_bits(n) + 1));
      if (r == n) {
        ctx.annotate("gather");
        // Stable: neighbors whose parent is me are my BFS children.
        // (Their final parent pointer arrived with the last flood.)
        for (int p = 0; p < ctx.degree(); ++p) {
          const auto& msg = ctx.recv(p);
          if (!msg) continue;
          const auto* bm = msg->value.get_if<BfsMsg>();
          if (bm && bm->parent == ctx.id())
            children_.push_back(ctx.neighbor_id(p));
        }
        expected_payloads_ = static_cast<int>(children_.size());
        // Own incident edges (deduplicated at the root).
        for (VertexId nbr : neighbor_ids_)
          gathered_.edges.emplace_back(std::min(ctx.id(), nbr),
                                       std::max(ctx.id(), nbr));
        maybe_forward(ctx);
      }
      return;
    }
    // Convergecast of edge lists.
    for (int p = 0; p < ctx.degree(); ++p) {
      if (auto payload = reasm_.poll(ctx, p)) {
        const auto& el = payload->get<EdgeListPayload>();
        gathered_.edges.insert(gathered_.edges.end(), el.edges.begin(),
                               el.edges.end());
        --expected_payloads_;
        maybe_forward(ctx);
      }
      const auto& msg = ctx.recv(p);
      if (msg) {
        if (const auto* vm = msg->value.get_if<VerdictMsg>()) {
          if (!verdict_known_) {
            verdict_known_ = true;
            verdict_ = vm->holds;
            forward_verdict(ctx);
          }
        }
      }
    }
    sender_.pump(ctx);
  }

  bool done(const NodeCtx&) const override {
    return verdict_known_ && sender_.empty();
  }

 private:
  void maybe_forward(NodeCtx& ctx) {
    if (forwarded_ || expected_payloads_ > 0) return;
    forwarded_ = true;
    if (parent_ < 0) {
      decide(ctx);
      return;
    }
    const long bits = audit::measured_bits(
        gathered_, audit::WireContext{ctx.n(), ctx.bandwidth()});
    sender_.enqueue(ctx.port_of(parent_), gathered_, bits);
  }

  void decide(NodeCtx& ctx) {
    // Root reconstructs the graph (ids are 0..n-1 in the simulator's id
    // space) and decides sequentially.
    Graph g(ctx.n());
    std::set<std::pair<VertexId, VertexId>> seen;
    for (auto [a, b] : gathered_.edges)
      if (seen.insert({a, b}).second) g.add_edge(a, b);
    verdict_known_ = true;
    verdict_ = seq::decide(g, formula_);
    forward_verdict(ctx);
  }

  void forward_verdict(NodeCtx& ctx) {
    ctx.annotate("verdict");
    for (VertexId child : children_)
      ctx.send(ctx.port_of(child), Message(VerdictMsg{verdict_}, 1));
  }

  mso::FormulaPtr formula_;
  std::vector<VertexId> neighbor_ids_;
  int start_ = -1;
  VertexId root_ = -1;
  int dist_ = 0;
  VertexId parent_ = -1;
  std::vector<VertexId> children_;
  int expected_payloads_ = -1;
  EdgeListPayload gathered_;
  congest::FragmentSender sender_;
  congest::FragmentReassembler reasm_;
  bool forwarded_ = false;
  bool verdict_known_ = false;
  bool verdict_ = false;
};

}  // namespace

BaselineOutcome run_gather_baseline(congest::Network& net,
                                    const mso::FormulaPtr& formula) {
  congest::PhaseScope trace_scope(net, "baseline");
  std::vector<GatherProgram> programs;
  programs.reserve(net.n());
  for (int v = 0; v < net.n(); ++v) {
    std::vector<VertexId> nbrs;
    for (auto [w, e] : net.graph().incident(v))
      nbrs.push_back(net.id_of_vertex(w));
    programs.emplace_back(formula, std::move(nbrs));
  }
  BaselineOutcome out;
  out.run = net.run_outcome(congest::program_ptrs(programs));
  out.rounds = out.run.rounds;
  if (!out.run.ok()) return out;  // degraded: verdict untrusted
  out.holds = true;
  for (const GatherProgram& p : programs) out.holds = out.holds && p.verdict();
  return out;
}

}  // namespace dmc::dist
