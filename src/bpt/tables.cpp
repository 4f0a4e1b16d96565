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

/// A node's per-class items in visit order, merged per class: sorted by
/// (class, visit order), each run folds into its first item through
/// T::merge(first, later). It merges whenever the buffer doubles past its
/// last merged size, so it holds O(classes) items however many pairs a glue
/// node visits; the buffer is reused from node to node. T has fields `t`
/// (the class) and `seq` (set here).
template <typename T>
class ClassAccumulator {
 public:
  void clear() {
    items_.clear();
    merged_ = 0;
    seq_ = 0;
  }
  void add(T item) {
    item.seq = seq_++;
    items_.push_back(item);
    if (items_.size() >= 2 * merged_ + 256) merge();
  }
  /// The merged items, ascending by class.
  const std::vector<T>& merged() {
    merge();
    return items_;
  }

 private:
  void merge() {
    std::sort(items_.begin(), items_.end(), [](const T& a, const T& b) {
      return a.t != b.t ? a.t < b.t : a.seq < b.seq;
    });
    auto out = items_.begin();
    for (auto it = items_.begin(); it != items_.end(); ++out) {
      *out = *it;
      for (++it; it != items_.end() && it->t == out->t; ++it)
        T::merge(*out, *it);
    }
    items_.erase(out, items_.end());
    merged_ = items_.size();
  }

  std::vector<T> items_;
  std::size_t merged_ = 0;
  std::uint32_t seq_ = 0;
};

/// The table fold: per plan node, a table from class to value, built from
/// items (class, value) — one per K1/K2 assignment, per consistent pair of
/// the children's entries at a glue node, per entry of an Input table —
/// merged per class by R::Item::merge. The rules R supply
///   Table, Item        the table type, and an item with fields t, seq and
///                      value and a static merge(first, later);
///   leaf(pn, bits, t)  the item of one K1/K2 assignment of class t;
///   pair(pn, l, r, t)  the item of one consistent pair of entries l, r;
///   keep(node, item)   sees each merged item as it enters the table.
template <typename R>
std::vector<typename R::Table> fold_tables(
    Engine& engine, const Plan& plan, const Graph& g,
    const std::vector<typename R::Table>& inputs, const R& rules) {
  using Item = typename R::Item;
  std::vector<typename R::Table> tables(plan.nodes.size());
  ClassAccumulator<Item> items;
  TracePairing pairing;
  for (std::size_t i = 0; i < plan.nodes.size(); ++i) {
    const PlanNode& pn = plan.nodes[i];
    items.clear();
    switch (pn.kind) {
      case PlanNode::Kind::K1: {
        const std::uint32_t lv = vertex_label_bits(engine, g, pn.v);
        for_each_assignment(engine.config(), false, [&](const SlotBits& bits) {
          items.add(rules.leaf(pn, bits, engine.k1(lv, bits)));
        });
        break;
      }
      case PlanNode::Kind::K2: {
        const std::uint32_t lv = vertex_label_bits(engine, g, pn.v);
        const std::uint32_t lw = vertex_label_bits(engine, g, pn.w);
        const std::uint32_t le = edge_label_bits(engine, g, pn.e);
        for_each_assignment(engine.config(), true, [&](const SlotBits& bits) {
          items.add(rules.leaf(pn, bits, engine.k2(lv, lw, le, bits)));
        });
        break;
      }
      case PlanNode::Kind::Glue: {
        int op = -1;
        pairing.for_each(engine, pn.op, tables[pn.left], tables[pn.right],
                         [&](const auto& l, const auto& r) {
                           const TypeId t = compose_pair(engine, pn.op, op,
                                                         l.first, r.first);
                           if (t != kInvalidType)
                             items.add(rules.pair(pn, l, r, t));
                         });
        break;
      }
      case PlanNode::Kind::Input:
        if (pn.input >= static_cast<int>(inputs.size()))
          throw std::invalid_argument("table fold: missing input table");
        for (const auto& [t, value] : inputs[pn.input]) {
          Item item{};  // an OPT input entry has no backpointer
          item.t = t;
          item.value = value;
          items.add(item);
        }
        break;
    }
    for (const Item& item : items.merged()) {
      tables[i][item.t] = item.value;  // ascending keys: appends
      rules.keep(i, item);
    }
  }
  return tables;
}

/// COUNT: a leaf counts one assignment, a pair the product of its entries'
/// counts, and a class the sum of its terms. Unsigned partial sums only
/// grow, so a class overflows in some order iff it overflows in this one.
struct CountRules {
  using Table = CountTable;
  struct Item {
    TypeId t;
    std::uint32_t seq;
    std::uint64_t value;
    static void merge(Item& first, const Item& later) {
      if (__builtin_add_overflow(first.value, later.value, &first.value))
        throw std::overflow_error("fold_count: counter overflow");
    }
  };
  Item leaf(const PlanNode&, const SlotBits&, TypeId t) const {
    return {t, 0, 1};
  }
  template <typename E>
  Item pair(const PlanNode&, const E& l, const E& r, TypeId t) const {
    std::uint64_t prod = 0;
    if (__builtin_mul_overflow(l.second, r.second, &prod))
      throw std::overflow_error("fold_count: counter overflow");
    return {t, 0, prod};
  }
  void keep(std::size_t, const Item&) const {}
};

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
                 std::span<const TypeId> inputs, const SlotMembership* fixed) {
  FoldTimer timer;
  const auto& sorts = engine.config().free_sorts;
  if (fixed == nullptr && !sorts.empty())
    throw std::invalid_argument("fold_type: engine must have no free slots");
  if (fixed != nullptr && sorts.size() != 1)
    throw std::invalid_argument("fold_type: a fixed membership needs one slot");
  const bool vertex_sort = fixed && sorts[0] == mso::Sort::VertexSet;
  auto in = [](const std::vector<bool>& flags, int id) {
    return id < static_cast<int>(flags.size()) && flags[id];
  };
  SlotBits bits(sorts.size(), 0);  // no slots, or the fixed one's bits
  std::vector<TypeId> value(plan.nodes.size(), kInvalidType);
  for (std::size_t i = 0; i < plan.nodes.size(); ++i) {
    const PlanNode& pn = plan.nodes[i];
    switch (pn.kind) {
      case PlanNode::Kind::K1:
        if (fixed) bits[0] = vertex_sort && in(fixed->vertices, pn.v);
        value[i] = engine.k1(vertex_label_bits(engine, g, pn.v), bits);
        break;
      case PlanNode::Kind::K2:
        if (fixed)
          bits[0] = vertex_sort ? in(fixed->vertices, pn.v) |
                                      (in(fixed->vertices, pn.w) << 1)
                                : in(fixed->edges, pn.e);
        value[i] = engine.k2(vertex_label_bits(engine, g, pn.v),
                             vertex_label_bits(engine, g, pn.w),
                             edge_label_bits(engine, g, pn.e), bits);
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

// --- optimization ---------------------------------------------------------------

/// OPT: an item's value is the weight of its assignment. A leaf weighs its
/// selected elements, a pair the sum of its entries' weights less what the
/// two sides share, and per class the first maximum wins. Each item carries
/// its ARGOPT backpointer, kept for reconstruction.
struct OptSolver::Rules {
  using Table = OptTable;
  struct Item {
    TypeId t;
    std::uint32_t seq;
    Weight value;
    Back back;
    static void merge(Item& first, const Item& later) {
      if (later.value > first.value) first = later;
    }
  };

  const Engine& engine;
  const Graph& g;
  bool vertex_sort;
  std::vector<FlatMap<TypeId, Back>>& backs;

  /// K1 enumerates bits 0..1 only and edge slots never set bit 0 at a K1,
  /// so one formula weighs both leaf kinds.
  Item leaf(const PlanNode& pn, const SlotBits& bits, TypeId t) const {
    const std::uint8_t b = bits[0];
    Weight w = 0;
    if (vertex_sort) {
      if (b & 1) w += g.vertex_weight(pn.v);
      if (b & 2) w += g.vertex_weight(pn.w);
    } else if (b & 1) {
      w += g.edge_weight(pn.e);
    }
    return {t, 0, w, Back{b, kInvalidType, kInvalidType}};
  }
  template <typename E>
  Item pair(const PlanNode& pn, const E& l, const E& r, TypeId t) const {
    return {t, 0, l.second + r.second - overlap(pn, l.first, r.first),
            Back{0, l.first, r.first}};
  }
  void keep(std::size_t node, const Item& item) const {
    backs[node][item.t] = item.back;
  }

  /// Weight of the selected elements both sides of a glue node count: the
  /// identified terminals (vertex slot) or the edges present on both sides
  /// between identified terminals (edge slot).
  Weight overlap(const PlanNode& pn, TypeId left, TypeId right) const {
    const TypeNode& L = engine.node(left);
    const TypeNode& R = engine.node(right);
    const int tau_p = pn.op.parent_tau();
    Weight sum = 0;
    if (vertex_sort) {
      for (int r = 0; r < tau_p; ++r) {
        const int cl = pn.op.rows[r][0], cr = pn.op.rows[r][1];
        if (cl < 0 || cr < 0) continue;
        if ((L.atoms.vars[0].mask >> cl) & 1)  // == right bit by consistency
          sum += g.vertex_weight(pn.terminals[r]);
      }
      return sum;
    }
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
          const EdgeId e = g.edge_id(pn.terminals[i], pn.terminals[j]);
          if (e < 0)
            throw std::logic_error("OptSolver: shared edge not in host graph");
          sum += g.edge_weight(e);
        }
      }
    }
    return sum;
  }
};

OptSolver::OptSolver(Engine& engine, const Plan& plan, const Graph& g,
                     std::vector<OptTable> input_tables)
    : engine_(engine), plan_(plan), g_(g) {
  if (engine_.config().free_sorts.size() != 1)
    throw std::invalid_argument("OptSolver: exactly one free slot required");
  backs_.resize(plan_.nodes.size());
  const bool vertex_sort =
      engine_.config().free_sorts[0] == mso::Sort::VertexSet;
  tables_ = fold_tables(engine_, plan_, g_, input_tables,
                        Rules{engine_, g_, vertex_sort, backs_});
}

OptSolver::Solution OptSolver::reconstruct(TypeId root_choice) const {
  Solution sol;
  sol.vertices.assign(g_.num_vertices(), false);
  sol.edges.assign(g_.num_edges(), false);
  sol.input_choices.assign(plan_.num_inputs, kInvalidType);
  const bool vertex_sort =
      engine_.config().free_sorts[0] == mso::Sort::VertexSet;
  auto walk = [&](auto&& self, int node, TypeId t) -> void {
    const PlanNode& pn = plan_.nodes[node];
    auto it = backs_[node].find(t);
    if (it == backs_[node].end())
      throw std::invalid_argument("OptSolver::reconstruct: class not in table");
    const Back& b = it->second;
    switch (pn.kind) {
      case PlanNode::Kind::K1:
      case PlanNode::Kind::K2:  // the bits Rules::leaf weighed
        if (vertex_sort) {
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

std::vector<CountTable> fold_count(
    Engine& engine, const Plan& plan, const Graph& g,
    std::vector<CountTable> input_tables) {
  return fold_tables(engine, plan, g, input_tables, CountRules{});
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
