#include "bpt/tables.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "metrics/metrics.hpp"
#include "obs/clock.hpp"

namespace dmc::bpt {

namespace {

/// Charges the wall time of one whole-graph fold to
/// bpt.fold.wall_ns and counts it in bpt.folds. Inert (one null check)
/// without a global metrics registry.
class FoldTimer {
 public:
  FoldTimer() {
    metrics::Registry* const reg = metrics::global();
    if (reg == nullptr) return;
    wall_ = &reg->counter("bpt.fold.wall_ns");
    reg->counter("bpt.folds").add(1);
    t0_us_ = obs::now_us();  // the seam, so tests can fake fold timing
  }
  ~FoldTimer() {
    if (wall_ != nullptr) wall_->add((obs::now_us() - t0_us_) * 1000);
  }
  FoldTimer(const FoldTimer&) = delete;
  FoldTimer& operator=(const FoldTimer&) = delete;

 private:
  metrics::Counter* wall_ = nullptr;
  long long t0_us_ = 0;
};

/// Enumerates the per-slot membership choices of a primitive: K1 vertex
/// slots have 2, K2 vertex slots 4, edge slots 1 or 2. Calls fn(SlotBits).
template <typename Fn>
void for_each_assignment(const EngineConfig& cfg, bool is_k2, Fn&& fn) {
  const int p = static_cast<int>(cfg.free_sorts.size());
  SlotBits bits(p, 0);
  auto rec = [&](auto&& self, int s) -> void {
    if (s == p) {
      fn(bits);
      return;
    }
    const bool edge_sort = cfg.free_sorts[s] == mso::Sort::EdgeSet;
    const int limit = edge_sort ? (is_k2 ? 2 : 1) : (is_k2 ? 4 : 2);
    const bool singleton_only =
        s < static_cast<int>(cfg.free_modes.size()) &&
        cfg.free_modes[s] == ExtMode::SingletonOnly;
    for (int b = 0; b < limit; ++b) {
      if (singleton_only && std::popcount(static_cast<unsigned>(b)) > 1)
        continue;
      bits[s] = static_cast<std::uint8_t>(b);
      self(self, s + 1);
    }
  };
  rec(rec, 0);
}

/// ⊙ of one consistent pair of a glue node with matrix f. The node's op is
/// resolved at its first such pair (op < 0 until then), so ops keep their
/// first-use numbering.
TypeId compose_pair(Engine& engine, const GluingMatrix& f, int& op, TypeId l,
                    TypeId r) {
  if (op < 0)
    op = engine.op_of(f, engine.node(l).atoms.tau, engine.node(r).atoms.tau);
  return engine.compose(op, l, r);
}

std::uint32_t labels_of(const Engine& engine, const Graph& g, VertexId v) {
  return vertex_label_bits(engine, g, v);
}

}  // namespace

std::uint32_t vertex_label_bits(const Engine& engine, const Graph& g,
                                VertexId v) {
  std::uint32_t bits = 0;
  const auto& names = engine.config().vertex_labels;
  for (std::size_t i = 0; i < names.size(); ++i)
    if (g.vertex_has_label(names[i], v)) bits |= 1u << i;
  return bits;
}

std::uint32_t edge_label_bits(const Engine& engine, const Graph& g, EdgeId e) {
  std::uint32_t bits = 0;
  const auto& names = engine.config().edge_labels;
  for (std::size_t i = 0; i < names.size(); ++i)
    if (g.edge_has_label(names[i], e)) bits |= 1u << i;
  return bits;
}

TypeId fold_type(Engine& engine, const Plan& plan, const Graph& g,
                 std::span<const TypeId> inputs) {
  FoldTimer timer;
  if (!engine.config().free_sorts.empty())
    throw std::invalid_argument("fold_type: engine must have no free slots");
  std::vector<TypeId> value(plan.nodes.size(), kInvalidType);
  for (std::size_t i = 0; i < plan.nodes.size(); ++i) {
    const PlanNode& pn = plan.nodes[i];
    switch (pn.kind) {
      case PlanNode::Kind::K1:
        value[i] = engine.k1(labels_of(engine, g, pn.v), {});
        break;
      case PlanNode::Kind::K2:
        value[i] = engine.k2(labels_of(engine, g, pn.v),
                             labels_of(engine, g, pn.w),
                             edge_label_bits(engine, g, pn.e), {});
        break;
      case PlanNode::Kind::Glue:
        value[i] = engine.compose(pn.op, value[pn.left], value[pn.right]);
        if (value[i] == kInvalidType)
          throw std::logic_error("fold_type: inconsistent composition");
        break;
      case PlanNode::Kind::Input:
        if (pn.input >= static_cast<int>(inputs.size()))
          throw std::invalid_argument("fold_type: missing input class");
        value[i] = inputs[pn.input];
        break;
    }
  }
  return value[plan.root];
}

TypeId fold_assigned_type(Engine& engine, const Plan& plan, const Graph& g,
                          const std::vector<bool>& vertex_in,
                          const std::vector<bool>& edge_in,
                          std::span<const TypeId> inputs) {
  if (engine.config().free_sorts.size() != 1)
    throw std::invalid_argument("fold_assigned_type: one free slot required");
  const bool vertex_sort =
      engine.config().free_sorts[0] == mso::Sort::VertexSet;
  auto vin = [&](VertexId v) {
    return vertex_sort && v < static_cast<VertexId>(vertex_in.size()) &&
           vertex_in[v];
  };
  auto ein = [&](EdgeId e) {
    return !vertex_sort && e < static_cast<EdgeId>(edge_in.size()) &&
           edge_in[e];
  };
  std::vector<TypeId> value(plan.nodes.size(), kInvalidType);
  for (std::size_t i = 0; i < plan.nodes.size(); ++i) {
    const PlanNode& pn = plan.nodes[i];
    switch (pn.kind) {
      case PlanNode::Kind::K1:
        value[i] = engine.k1(labels_of(engine, g, pn.v),
                             {static_cast<std::uint8_t>(vin(pn.v) ? 1 : 0)});
        break;
      case PlanNode::Kind::K2: {
        std::uint8_t bits = 0;
        if (vertex_sort)
          bits = static_cast<std::uint8_t>((vin(pn.v) ? 1 : 0) |
                                           (vin(pn.w) ? 2 : 0));
        else
          bits = ein(pn.e) ? 1 : 0;
        value[i] = engine.k2(labels_of(engine, g, pn.v),
                             labels_of(engine, g, pn.w),
                             edge_label_bits(engine, g, pn.e), {bits});
        break;
      }
      case PlanNode::Kind::Glue:
        value[i] = engine.compose(pn.op, value[pn.left], value[pn.right]);
        if (value[i] == kInvalidType)
          throw std::logic_error("fold_assigned_type: inconsistent composition");
        break;
      case PlanNode::Kind::Input:
        if (pn.input >= static_cast<int>(inputs.size()))
          throw std::invalid_argument("fold_assigned_type: missing input");
        value[i] = inputs[pn.input];
        break;
    }
  }
  return value[plan.root];
}

// --- OptSolver ----------------------------------------------------------------

OptSolver::OptSolver(Engine& engine, const Plan& plan, const Graph& g,
                     std::vector<OptTable> input_tables)
    : engine_(engine), plan_(plan), g_(g), inputs_(std::move(input_tables)) {
  if (engine_.config().free_sorts.size() != 1)
    throw std::invalid_argument("OptSolver: exactly one free slot required");
  tables_.resize(plan_.nodes.size());
  backs_.resize(plan_.nodes.size());
  Scratch scratch;
  for (std::size_t i = 0; i < plan_.nodes.size(); ++i)
    solve(static_cast<int>(i), scratch);
}

Weight OptSolver::glue_overlap(const PlanNode& pn, TypeId left,
                               TypeId right) const {
  const mso::Sort sort = engine_.config().free_sorts[0];
  const TypeNode& L = engine_.node(left);
  const TypeNode& R = engine_.node(right);
  const int tau_p = pn.op.parent_tau();
  Weight overlap = 0;
  if (sort == mso::Sort::VertexSet) {
    for (int r = 0; r < tau_p; ++r) {
      const int cl = pn.op.rows[r][0], cr = pn.op.rows[r][1];
      if (cl < 0 || cr < 0) continue;
      if ((L.atoms.vars[0].mask >> cl) & 1)  // == right bit by consistency
        overlap += g_.vertex_weight(pn.terminals[r]);
    }
  } else {
    const int tau_l = L.atoms.tau, tau_r = R.atoms.tau;
    for (int i = 0; i < tau_p; ++i) {
      for (int j = i + 1; j < tau_p; ++j) {
        const int li = pn.op.rows[i][0], lj = pn.op.rows[j][0];
        const int ri = pn.op.rows[i][1], rj = pn.op.rows[j][1];
        if (li < 0 || lj < 0 || ri < 0 || rj < 0) continue;
        const bool el = (L.atoms.term_adj >> pair_index(li, lj, tau_l)) & 1;
        const bool er = (R.atoms.term_adj >> pair_index(ri, rj, tau_r)) & 1;
        if (!el || !er) continue;  // edge must exist on both sides
        if ((L.atoms.vars[0].pair_mask >> pair_index(li, lj, tau_l)) & 1) {
          const EdgeId e = g_.edge_id(pn.terminals[i], pn.terminals[j]);
          if (e < 0)
            throw std::logic_error("OptSolver: shared edge not in host graph");
          overlap += g_.edge_weight(e);
        }
      }
    }
  }
  return overlap;
}

void OptSolver::solve(int node, Scratch& scratch) {
  const PlanNode& pn = plan_.nodes[node];
  const mso::Sort sort = engine_.config().free_sorts[0];
  auto& candidates = scratch.candidates;
  candidates.clear();
  switch (pn.kind) {
    case PlanNode::Kind::K1:
      for_each_assignment(engine_.config(), false, [&](const SlotBits& bits) {
        const TypeId t = engine_.k1(labels_of(engine_, g_, pn.v), bits);
        const Weight w = (sort == mso::Sort::VertexSet && (bits[0] & 1))
                             ? g_.vertex_weight(pn.v)
                             : 0;
        candidates.add({t, 0, w, Back{bits[0], kInvalidType, kInvalidType}});
      });
      break;
    case PlanNode::Kind::K2:
      for_each_assignment(engine_.config(), true, [&](const SlotBits& bits) {
        const TypeId t =
            engine_.k2(labels_of(engine_, g_, pn.v), labels_of(engine_, g_, pn.w),
                       edge_label_bits(engine_, g_, pn.e), bits);
        Weight w = 0;
        if (sort == mso::Sort::VertexSet) {
          if (bits[0] & 1) w += g_.vertex_weight(pn.v);
          if (bits[0] & 2) w += g_.vertex_weight(pn.w);
        } else if (bits[0] & 1) {
          w += g_.edge_weight(pn.e);
        }
        candidates.add({t, 0, w, Back{bits[0], kInvalidType, kInvalidType}});
      });
      break;
    case PlanNode::Kind::Glue: {
      int op = -1;
      scratch.pairing.for_each(
          engine_, pn.op, tables_[pn.left], tables_[pn.right],
          [&](const auto& l, const auto& r) {
            const auto& [tl, wl] = l;
            const auto& [tr, wr] = r;
            const TypeId t = compose_pair(engine_, pn.op, op, tl, tr);
            if (t == kInvalidType) return;
            candidates.add(
                {t, 0, wl + wr - glue_overlap(pn, tl, tr), Back{0, tl, tr}});
          });
      break;
    }
    case PlanNode::Kind::Input: {
      if (pn.input >= static_cast<int>(inputs_.size()))
        throw std::invalid_argument("OptSolver: missing input table");
      for (const auto& [t, w] : inputs_[pn.input])
        candidates.add({t, 0, w, Back{}});
      break;
    }
  }
  OptTable& table = tables_[node];
  auto& back = backs_[node];
  for (const Candidate& c : candidates.merged()) {
    table[c.t] = c.w;  // ascending keys: appends
    back[c.t] = c.back;
  }
}

OptSolver::Solution OptSolver::reconstruct(TypeId root_choice) const {
  Solution sol;
  sol.vertices.assign(g_.num_vertices(), false);
  sol.edges.assign(g_.num_edges(), false);
  sol.input_choices.assign(plan_.num_inputs, kInvalidType);
  const mso::Sort sort = engine_.config().free_sorts[0];
  auto walk = [&](auto&& self, int node, TypeId t) -> void {
    const PlanNode& pn = plan_.nodes[node];
    auto it = backs_[node].find(t);
    if (it == backs_[node].end())
      throw std::invalid_argument("OptSolver::reconstruct: class not in table");
    const Back& b = it->second;
    switch (pn.kind) {
      case PlanNode::Kind::K1:
        if (sort == mso::Sort::VertexSet && (b.slot_bits & 1))
          sol.vertices[pn.v] = true;
        break;
      case PlanNode::Kind::K2:
        if (sort == mso::Sort::VertexSet) {
          if (b.slot_bits & 1) sol.vertices[pn.v] = true;
          if (b.slot_bits & 2) sol.vertices[pn.w] = true;
        } else if (b.slot_bits & 1) {
          sol.edges[pn.e] = true;
        }
        break;
      case PlanNode::Kind::Glue:
        self(self, pn.left, b.left);
        self(self, pn.right, b.right);
        break;
      case PlanNode::Kind::Input:
        sol.input_choices[pn.input] = t;
        break;
    }
  };
  walk(walk, plan_.root, root_choice);
  return sol;
}

// --- counting ------------------------------------------------------------------

std::vector<CountTable> fold_count(Engine& engine, const Plan& plan,
                                   const Graph& g,
                                   std::vector<CountTable> input_tables) {
  std::vector<CountTable> tables(plan.nodes.size());
  // Per node: the (class, count) terms of its assignments, summed per
  // class. Unsigned partial sums only grow, so a class overflows in some
  // order iff it overflows in this one.
  struct Term {
    TypeId t;
    std::uint32_t seq;
    std::uint64_t count;
    static void merge(Term& first, const Term& later) {
      if (__builtin_add_overflow(first.count, later.count, &first.count))
        throw std::overflow_error("fold_count: counter overflow");
    }
  };
  detail::ClassAccumulator<Term> terms;
  TracePairing pairing;
  for (std::size_t i = 0; i < plan.nodes.size(); ++i) {
    const PlanNode& pn = plan.nodes[i];
    CountTable& table = tables[i];
    terms.clear();
    switch (pn.kind) {
      case PlanNode::Kind::K1:
        for_each_assignment(engine.config(), false, [&](const SlotBits& bits) {
          terms.add({engine.k1(labels_of(engine, g, pn.v), bits), 0, 1});
        });
        break;
      case PlanNode::Kind::K2:
        for_each_assignment(engine.config(), true, [&](const SlotBits& bits) {
          terms.add({engine.k2(labels_of(engine, g, pn.v),
                               labels_of(engine, g, pn.w),
                               edge_label_bits(engine, g, pn.e), bits),
                     0, 1});
        });
        break;
      case PlanNode::Kind::Glue: {
        int op = -1;
        pairing.for_each(
            engine, pn.op, tables[pn.left], tables[pn.right],
            [&](const auto& l, const auto& r) {
              const auto& [tl, cl] = l;
              const auto& [tr, cr] = r;
              const TypeId t = compose_pair(engine, pn.op, op, tl, tr);
              if (t == kInvalidType) return;
              std::uint64_t prod = 0;
              if (__builtin_mul_overflow(cl, cr, &prod))
                throw std::overflow_error("fold_count: counter overflow");
              terms.add({t, 0, prod});
            });
        break;
      }
      case PlanNode::Kind::Input:
        if (pn.input >= static_cast<int>(input_tables.size()))
          throw std::invalid_argument("fold_count: missing input table");
        table = input_tables[pn.input];
        continue;
    }
    for (const Term& term : terms.merged())
      table[term.t] = term.count;  // ascending keys: appends
  }
  return tables;
}

std::vector<VertexId> selected_vertices(const Engine& engine, TypeId c,
                                        const std::vector<VertexId>& terminals,
                                        int slot) {
  const TypeNode& n = engine.node(c);
  const VarAtoms& v = n.atoms.vars.at(slot);
  if (v.sort != mso::Sort::VertexSet)
    throw std::invalid_argument("selected_vertices: slot is not a vertex set");
  std::vector<VertexId> out;
  for (int i = 0; i < n.atoms.tau; ++i)
    if ((v.mask >> i) & 1) out.push_back(terminals.at(i));
  return out;
}

std::vector<EdgeId> selected_edges(const Engine& engine, const Graph& g,
                                   TypeId c,
                                   const std::vector<VertexId>& terminals,
                                   int slot) {
  const TypeNode& n = engine.node(c);
  const VarAtoms& v = n.atoms.vars.at(slot);
  if (v.sort != mso::Sort::EdgeSet)
    throw std::invalid_argument("selected_edges: slot is not an edge set");
  std::vector<EdgeId> out;
  const int tau = n.atoms.tau;
  for (int i = 0; i < tau; ++i)
    for (int j = i + 1; j < tau; ++j)
      if ((v.pair_mask >> pair_index(i, j, tau)) & 1) {
        const EdgeId e = g.edge_id(terminals.at(i), terminals.at(j));
        if (e < 0)
          throw std::logic_error("selected_edges: pair not a host edge");
        out.push_back(e);
      }
  return out;
}

}  // namespace dmc::bpt
