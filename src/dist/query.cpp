// The query front door and the table-fold protocol behind it (see
// query.hpp): one NodeProgram, one transport, and four table algebras.
#include "dist/query.hpp"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <type_traits>
#include <utility>

#include "bpt/tables.hpp"
#include "congest/fragment.hpp"
#include "congest/wire.hpp"
#include "dist/local.hpp"
#include "mso/lower.hpp"
#include "mso/parser.hpp"
#include "seq/courcelle.hpp"

namespace dmc::dist {

namespace {

using congest::Message;
using congest::NodeCtx;
using congest::Payload;

constexpr const char* kMarkLabel = "marked";

// --- wire types -------------------------------------------------------------

struct ClassMsg {  // decide, up
  bpt::TypeId type = bpt::kInvalidType;
};
struct VerdictMsg {  // decide, down
  bool holds = false;
};
struct CountTablePayload {  // count, up
  bpt::CountTable table;
};
struct TotalMsg {  // count, down
  std::uint64_t total = 0;
};
struct TablePayload {  // maximize / minimize, up
  bpt::OptTable table;
};
struct AssignMsg {  // maximize / minimize, down; kInvalidType = infeasible
  bpt::TypeId type = bpt::kInvalidType;
};
struct InfeasibleMsg {};  // maximize / minimize, down: the wire form of
                          // AssignMsg{kInvalidType}
struct MarkedPayload {  // optmarked, up
  bpt::OptTable opt;
  bpt::TypeId marked_class = bpt::kInvalidType;
  Weight marked_weight = 0;
};
struct MarkedVerdictMsg {  // optmarked, down
  bool satisfies = false;
  bool is_optimal = false;
};

using audit::BitReader;
using audit::BitWriter;
using audit::WireContext;

/// Table encoding: varuint entry count, then per entry a varuint class and
/// the value (varuint counts, zigzag-varint weights).
template <class Table>
void put_table(const Table& table, BitWriter& w) {
  w.put_varuint(table.size());
  for (const auto& [c, value] : table) {
    w.put_varuint(static_cast<std::uint64_t>(c));
    if constexpr (std::is_signed_v<std::decay_t<decltype(value)>>)
      w.put_varint(value);
    else
      w.put_varuint(value);
  }
}

template <class Table>
Table get_table(BitReader& r) {
  using Value = typename Table::value_type::second_type;
  Table table;
  const std::uint64_t size = r.get_varuint();
  for (std::uint64_t i = 0; i < size; ++i) {
    const auto c = static_cast<bpt::TypeId>(r.get_varuint());
    if constexpr (std::is_signed_v<Value>)
      table[c] = r.get_varint();
    else
      table[c] = r.get_varuint();
  }
  return table;
}

/// A message whose one field is an unsigned word: sent minimal-width and
/// sized from the frame end on decode, within its declared width.
template <class T, class F>
void register_word(const char* name, F T::*field) {
  audit::register_codec<T>(
      name,
      [field](const T& m, const WireContext&, BitWriter& w) {
        w.put_uint_min(static_cast<std::uint64_t>(m.*field));
      },
      [field](const WireContext&, BitReader& r) {
        T m;
        m.*field = static_cast<F>(r.get_rest());
        return m;
      },
      [field](const T& a, const T& b) { return a.*field == b.*field; });
}

/// A message whose one field is a table (the measured encoding above, so
/// declared == encoded exactly).
template <class T, class Table>
void register_table(const char* name, Table T::*field) {
  audit::register_codec<T>(
      name,
      [field](const T& m, const WireContext&, BitWriter& w) {
        put_table(m.*field, w);
      },
      [field](const WireContext&, BitReader& r) {
        T m;
        m.*field = get_table<Table>(r);
        return m;
      },
      [field](const T& a, const T& b) { return a.*field == b.*field; });
}

/// Wire codecs (audit mode).
[[maybe_unused]] const bool wire_codecs_registered = [] {
  register_word("decision::ClassMsg", &ClassMsg::type);
  register_word("counting::TotalMsg", &TotalMsg::total);
  register_word("optimization::AssignMsg", &AssignMsg::type);
  register_table("counting::CountTablePayload", &CountTablePayload::table);
  register_table("optimization::TablePayload", &TablePayload::table);
  audit::register_codec<VerdictMsg>(
      "decision::VerdictMsg",
      [](const VerdictMsg& m, const WireContext&, BitWriter& w) {
        w.put_bit(m.holds);
      },
      [](const WireContext&, BitReader& r) { return VerdictMsg{r.get_bit()}; },
      [](const VerdictMsg& a, const VerdictMsg& b) {
        return a.holds == b.holds;
      });
  audit::register_codec<InfeasibleMsg>(
      "optimization::InfeasibleMsg",
      [](const InfeasibleMsg&, const WireContext&, BitWriter& w) {
        w.put_bit(true);
      },
      [](const WireContext&, BitReader& r) {
        r.get_bit();
        return InfeasibleMsg{};
      },
      [](const InfeasibleMsg&, const InfeasibleMsg&) { return true; });
  // The OPT table, then the marked class (zigzag: kInvalidType is -1) and
  // the marked weight.
  audit::register_codec<MarkedPayload>(
      "optmarked::UpPayload",
      [](const MarkedPayload& m, const WireContext&, BitWriter& w) {
        put_table(m.opt, w);
        w.put_varint(m.marked_class);
        w.put_varint(m.marked_weight);
      },
      [](const WireContext&, BitReader& r) {
        MarkedPayload m;
        m.opt = get_table<bpt::OptTable>(r);
        m.marked_class = static_cast<bpt::TypeId>(r.get_varint());
        m.marked_weight = r.get_varint();
        return m;
      },
      [](const MarkedPayload& a, const MarkedPayload& b) {
        return a.opt == b.opt && a.marked_class == b.marked_class &&
               a.marked_weight == b.marked_weight;
      });
  audit::register_codec<MarkedVerdictMsg>(
      "optmarked::VerdictMsg",
      [](const MarkedVerdictMsg& m, const WireContext&, BitWriter& w) {
        w.put_bit(m.satisfies);
        w.put_bit(m.is_optimal);
      },
      [](const WireContext&, BitReader& r) {
        MarkedVerdictMsg m;
        m.satisfies = r.get_bit();
        m.is_optimal = r.get_bit();
        return m;
      },
      [](const MarkedVerdictMsg& a, const MarkedVerdictMsg& b) {
        return a.satisfies == b.satisfies && a.is_optimal == b.is_optimal;
      });
  return true;
}();

int class_bits(const bpt::Engine& engine) {
  return std::max(
      1, congest::count_bits(static_cast<std::uint64_t>(engine.num_types())));
}

/// Bits of a table as sent: the wire payload itself goes through its codec,
/// so measuring copies nothing.
long measured_bits(const Payload& wire, const NodeCtx& ctx) {
  return audit::measured_bits(wire,
                              audit::WireContext{ctx.n(), ctx.bandwidth()});
}

// --- transport --------------------------------------------------------------

/// The one transport of both fold directions. A word (class id, verdict,
/// total, assignment) travels as a single message when it fits the
/// bandwidth; tables, and words too wide for one message, stream as
/// FragmentSender chunks (ceil(k / (B - header)) rounds for k bits).
class Link {
 public:
  void send(NodeCtx& ctx, int port, Payload value, long bits, bool table) {
    if (!table && bits <= ctx.bandwidth())
      ctx.send(port, Message(std::move(value), static_cast<int>(bits)));
    else
      sender_.enqueue(port, std::move(value), bits);
  }

  /// A fragmented payload completed on `port` this round, if any.
  std::optional<Payload> reassemble(NodeCtx& ctx, int port) {
    return reasm_.poll(ctx, port);
  }

  void pump(NodeCtx& ctx) { sender_.pump(ctx); }
  bool empty() const { return sender_.empty(); }

 private:
  congest::FragmentSender sender_;
  congest::FragmentReassembler reasm_;
};

// --- the fold ---------------------------------------------------------------

template <class A>
using InputOf = decltype(A::input(std::declval<typename A::Up>()));

/// The fold's run-wide bookkeeping. Child slot i of vertex v is entry
/// children.off[v] + i of `inputs` and `have` (the TreeChildren CSR), so a
/// vertex that has not folded yet holds only its input slots. A vertex
/// builds its bag graph and plan (LocalContext) from `bags` when its last
/// child table arrives, in fold order, and drops it once fold() returns
/// unless the algebra reads it later (A::kKeepsContext): Lemma 4.3 needs
/// a node's context only for the step that composes its children's
/// classes.
template <class A>
struct FoldRun {
  A& algebra;
  const congest::Network& net;
  const TreeChildren& children;
  const std::vector<LocalBag>& bags;
  const std::vector<std::string>& vlabels;
  const std::vector<std::string>& elabels;
  PlanCache& plans;
  std::vector<InputOf<A>> inputs;  // by child slot
  std::vector<char> have;          // by child slot: input arrived
  std::vector<VertexId> child_ids;  // scratch of context(): children by id

  /// Vertex v's context, localized for the algebra.
  std::unique_ptr<LocalContext> context(VertexId v) {
    child_ids.clear();
    for (const int c : children[v]) child_ids.push_back(net.id_of_vertex(c));
    auto local = std::make_unique<LocalContext>(
        make_local_context(bags[v], child_ids, vlabels, elabels, plans));
    algebra.localize(*local);
    return local;
  }
  std::span<InputOf<A>> inputs_of(VertexId v) {
    return {inputs.data() + children.off[v],
            static_cast<std::size_t>(children.count(v))};
  }
};

/// One node of the fold. The algebra A supplies the table type (Up), the
/// answer type (Down), a child table's fold input (Input), per-node state
/// (Node) and the kind's rules:
///   Input input(Up)              a child's table as a fold input
///   Up fold(FoldProgram&)        this node's table from inputs()
///   long up_bits(const Payload&, ctx)
///                                declared size of the upward table, given
///                                as the wire payload that carries it
///   Down root(FoldProgram&)      the answer, computed at the root
///   Down to_child(FoldProgram&, const Down&, i)  child i's answer
///   int down_bits(const Down&)   declared size of an answer
///   collect(Outcome&, programs, net)  the answer fields after the run
///   localize(LocalContext&)      per-kind edits of a node's bag graph
/// plus kUpNote / kDownNote (trace annotations), kCached (FoldCache
/// replay), kTableUp (the upward payload always streams in fragments),
/// kKeepsContext (local() stays readable after the fold) and to_wire /
/// from_wire (an answer's message form). AlgebraBase supplies defaults
/// for Node, localize (none), input (the table itself), to_child (forward
/// the node's own answer), kKeepsContext (false) and the wire forms (the
/// answer itself).
///
/// Fold traffic runs on tree edges only, so a node reads just its parent
/// port and its child ports (TreePorts, resolved once per run).
template <class A>
class FoldProgram final : public congest::NodeProgram {
 public:
  using Up = typename A::Up;
  using Down = typename A::Down;

  /// Graph vertex `v` folds when `replayed` is null and otherwise replays
  /// that cached table. `send_up` is false when the parent replays too (it
  /// never reads this node's table), saving the upward message.
  /// `parent_port` is -1 at the root.
  FoldProgram(FoldRun<A>& run, VertexId v, const Up* replayed, bool send_up,
              int parent_port, std::span<const int> child_ports)
      : run_(run),
        replayed_(replayed),
        child_ports_(child_ports),
        vertex_(v),
        self_(run.net.id_of_vertex(v)),
        parent_port_(parent_port),
        missing_(run.children.count(v)),
        send_up_(send_up) {}

  /// The bag graph and plan, while fold() runs (and after it when
  /// A::kKeepsContext).
  const LocalContext& local() const {
    if (local_ == nullptr)
      throw std::logic_error("fold: node " + std::to_string(self_) +
                             " holds no local context");
    return *local_;
  }
  VertexId self() const { return self_; }
  std::span<InputOf<A>> inputs() { return run_.inputs_of(vertex_); }
  typename A::Node& node() { return node_; }
  const Up& up() const { return replayed_ != nullptr ? *replayed_ : up_; }
  /// A folded node's table, moved out (call once, after the run).
  Up take_up() { return std::move(up_); }
  const std::optional<Down>& down() const { return down_; }
  bool folded() const { return folded_; }

  void on_round(NodeCtx& ctx) override {
    if (first_round_) {
      first_round_ = false;
      ctx.annotate(A::kUpNote);
    }
    if (parent_port_ >= 0) poll(ctx, parent_port_, -1);
    for (std::size_t i = 0; i < child_ports_.size(); ++i)
      poll(ctx, child_ports_[i], static_cast<int>(i));
    if (!solved_ && (replayed_ != nullptr || missing_ == 0)) {
      solved_ = true;
      if (replayed_ == nullptr) fold();
      if (parent_port_ < 0) {
        answer(ctx, run_.algebra.root(*this));
      } else if (send_up_) {
        Payload wire(up());  // the table stays: callers read it after
        const long bits = run_.algebra.up_bits(wire, ctx);
        link_.send(ctx, parent_port_, std::move(wire), bits, A::kTableUp);
      }
    }
    link_.pump(ctx);
    // Waiting on children's tables or the parent's answer — both arrive as
    // traffic, which wakes us (sparse scheduler; no-op otherwise).
    if (!down_ && link_.empty()) ctx.sleep();
  }

  bool done(const NodeCtx&) const override {
    return down_.has_value() && link_.empty();
  }

 private:
  /// Builds the context, folds, and frees what the fold consumed: the
  /// input slots, and the context unless the algebra keeps it.
  void fold() {
    local_ = run_.context(vertex_);
    up_ = run_.algebra.fold(*this);
    folded_ = true;
    if constexpr (!std::is_trivially_destructible_v<InputOf<A>>)
      for (auto& in : inputs()) in = InputOf<A>{};
    if constexpr (!A::kKeepsContext) local_.reset();
  }

  /// Reads this round's message on `port`, from the parent (slot -1) or
  /// child `slot`. A port carries at most one logical message each way,
  /// so a payload can only complete in a round that delivers to it. A
  /// single message is tried as the expected type first (a pointer
  /// compare either way).
  void poll(NodeCtx& ctx, int port, int slot) {
    const Message* msg = ctx.recv(port);
    if (msg == nullptr || receive(ctx, slot, msg->value)) return;
    if (const auto value = link_.reassemble(ctx, port))
      receive(ctx, slot, *value);
  }

  /// Takes `value` as the parent's answer (slot -1) or child `slot`'s
  /// table; false when it is neither (e.g. a fragment chunk). Delivery is
  /// exactly once, so a repeated answer or table is a transport bug: it
  /// throws.
  bool receive(NodeCtx& ctx, int slot, const Payload& value) {
    if (slot < 0) {
      std::optional<Down> d = A::template from_wire<Down>(value);
      if (!d) return false;
      if (down_) repeated("its parent's answer");
      answer(ctx, std::move(*d));
      return true;
    }
    const Up* t = value.get_if<Up>();
    if (t == nullptr) return false;
    if (replayed_ == nullptr) {
      const std::size_t at = run_.children.off[vertex_] + slot;
      if (run_.have[at])
        repeated("child slot " + std::to_string(slot) + "'s table");
      run_.inputs[at] = A::input(*t);
      run_.have[at] = 1;
      --missing_;
    }
    return true;
  }

  [[noreturn]] void repeated(const std::string& what) const {
    throw std::logic_error("fold: node " + std::to_string(self_) +
                           " received " + what + " twice");
  }

  void answer(NodeCtx& ctx, Down d) {
    ctx.annotate(A::kDownNote);
    down_ = std::move(d);
    for (std::size_t i = 0; i < child_ports_.size(); ++i) {
      Down msg = run_.algebra.to_child(*this, *down_, i);
      const long bits = run_.algebra.down_bits(msg);
      link_.send(ctx, child_ports_[i], A::to_wire(std::move(msg)), bits,
                 false);
    }
  }

  FoldRun<A>& run_;
  const Up* replayed_;
  std::span<const int> child_ports_;
  std::unique_ptr<LocalContext> local_;
  VertexId vertex_;
  VertexId self_;
  int parent_port_;
  int missing_;  // child tables still to arrive
  bool send_up_;
  bool folded_ = false;
  bool first_round_ = true;
  bool solved_ = false;
  [[no_unique_address]] typename A::Node node_;
  Up up_{};
  std::optional<Down> down_;
  Link link_;
};

/// Shared by the algebras: the engine and the root's accept test.
struct AlgebraBase {
  bpt::Engine& engine;
  bpt::Evaluator evaluator;

  AlgebraBase(bpt::Engine& e, const Query& q)
      : engine(e), evaluator(e, mso::lower(q.formula, q.frees), q.frees) {}

  struct Node {};  // per-node state
  static constexpr bool kKeepsContext = false;
  void localize(LocalContext&) const {}

  template <class Up>
  static Up input(Up up) {
    return up;
  }
  template <class P, class Down>
  static Down to_child(P&, const Down& d, std::size_t) {
    return d;  // every child gets the node's own answer
  }
  template <class Down>
  static Payload to_wire(Down d) {
    return d;
  }
  template <class Down>
  static std::optional<Down> from_wire(const Payload& value) {
    const Down* d = value.get_if<Down>();
    return d != nullptr ? std::optional<Down>(*d) : std::nullopt;
  }
};

/// Best accepting class of an OPT table (kInvalidType when none).
std::pair<bpt::TypeId, Weight> best_accepting(bpt::Evaluator& evaluator,
                                              const bpt::OptTable& table) {
  bpt::TypeId best = bpt::kInvalidType;
  Weight best_w = 0;
  for (const auto& [t, w] : table) {
    if (!evaluator.eval(t)) continue;
    if (best == bpt::kInvalidType || w > best_w) {
      best = t;
      best_w = w;
    }
  }
  return {best, best_w};
}

/// Minimization folds maximize over negated weights.
void negate_weights(LocalContext& lctx) {
  Graph& g = lctx.graph;
  for (VertexId v = 0; v < g.num_vertices(); ++v)
    g.set_vertex_weight(v, -g.vertex_weight(v));
  for (EdgeId e = 0; e < g.num_edges(); ++e)
    g.set_edge_weight(e, -g.edge_weight(e));
}

// decide: the homomorphism class of the subtree (Lemma 4.3), accepted at
// the root by the evaluator.
struct DecideAlgebra : AlgebraBase {
  using Up = ClassMsg;
  using Down = VerdictMsg;
  static constexpr const char* kUpNote = "fold";
  static constexpr const char* kDownNote = "verdict";
  static constexpr bool kCached = true;
  static constexpr bool kTableUp = false;
  int max_class_bits = 0;

  using AlgebraBase::AlgebraBase;

  static bpt::TypeId input(const Up& up) { return up.type; }
  Up fold(FoldProgram<DecideAlgebra>& p) {
    return {bpt::fold_type(engine, *p.local().plan, p.local().graph,
                           p.inputs())};
  }
  long up_bits(const Payload&, const NodeCtx&) {
    const int bits = class_bits(engine);
    max_class_bits = std::max(max_class_bits, bits);
    return bits;
  }
  Down root(FoldProgram<DecideAlgebra>& p) {
    return {evaluator.eval(p.up().type)};
  }
  int down_bits(const Down&) const { return 1; }

  void collect(Outcome& out,
               const std::vector<FoldProgram<DecideAlgebra>>& nodes,
               const congest::Network&) const {
    // Distributed decision semantics: G |= phi iff every node accepts; all
    // nodes received the root's verdict.
    out.holds = true;
    for (const auto& p : nodes) out.holds = out.holds && p.down()->holds;
    out.max_class_bits = max_class_bits;
  }
};

// count: per-class numbers of satisfying assignments (COUNT tables); the
// root sums the accepting classes.
struct CountAlgebra : AlgebraBase {
  using Up = CountTablePayload;
  using Down = TotalMsg;
  static constexpr const char* kUpNote = "tables";
  static constexpr const char* kDownNote = "total";
  static constexpr bool kCached = true;
  static constexpr bool kTableUp = true;

  using AlgebraBase::AlgebraBase;

  static bpt::CountTable input(Up up) { return std::move(up.table); }
  Up fold(FoldProgram<CountAlgebra>& p) {
    auto tables =
        bpt::fold_count(engine, *p.local().plan, p.local().graph, p.inputs());
    return {std::move(tables[p.local().plan->root])};
  }
  long up_bits(const Payload& wire, const NodeCtx& ctx) {
    return measured_bits(wire, ctx);
  }
  Down root(FoldProgram<CountAlgebra>& p) {
    std::uint64_t total = 0;
    for (const auto& [t, c] : p.up().table) {
      if (!evaluator.eval(t)) continue;
      if (__builtin_add_overflow(total, c, &total))
        throw std::overflow_error("count: overflow");
    }
    return {total};
  }
  int down_bits(const Down& d) const { return congest::count_bits(d.total); }

  void collect(Outcome& out,
               const std::vector<FoldProgram<CountAlgebra>>& nodes,
               const congest::Network&) const {
    out.count = nodes[0].down()->total;
    for (const auto& p : nodes)
      if (p.down()->total != out.count)
        throw std::logic_error("count: inconsistent totals");
  }
};

// maximize / minimize: OPT tables with ARGOPT backpointers (Lemma 4.6);
// the top-down answer is each child's optimal class (Algorithm 1,
// lines 11-26), and every node marks Selected(c_u, B_u).
struct OptimizeAlgebra : AlgebraBase {
  using Up = TablePayload;
  using Down = AssignMsg;
  struct Node {
    std::unique_ptr<bpt::OptSolver> solver;
    std::vector<bpt::TypeId> choices;  // ARGOPT class per child
  };
  static constexpr const char* kUpNote = "tables";
  static constexpr const char* kDownNote = "assign";
  static constexpr bool kCached = false;
  static constexpr bool kTableUp = true;
  // The solver reads the plan and bag graph when to_child reconstructs
  // the ARGOPT choices, and collect() marks through the bag.
  static constexpr bool kKeepsContext = true;
  Weight sign;
  bool vertex_sort;
  Weight best_weight = 0;
  int max_table_entries = 0;

  OptimizeAlgebra(bpt::Engine& e, const Query& q)
      : AlgebraBase(e, q),
        sign(q.kind == Kind::kMinimize ? -1 : 1),
        vertex_sort(q.frees.front().second == mso::Sort::VertexSet) {}

  void localize(LocalContext& lctx) const {
    if (sign < 0) negate_weights(lctx);
  }
  static bpt::OptTable input(Up up) { return std::move(up.table); }
  Up fold(FoldProgram<OptimizeAlgebra>& p) {
    p.node().solver = std::make_unique<bpt::OptSolver>(
        engine, *p.local().plan, p.local().graph, p.inputs());
    const bpt::OptTable& table = p.node().solver->root_table();
    max_table_entries =
        std::max(max_table_entries, static_cast<int>(table.size()));
    return {table};
  }
  long up_bits(const Payload& wire, const NodeCtx& ctx) {
    return measured_bits(wire, ctx);
  }
  Down root(FoldProgram<OptimizeAlgebra>& p) {
    const auto [best, best_w] = best_accepting(evaluator, p.up().table);
    best_weight = best_w;
    return {best};
  }
  Down to_child(FoldProgram<OptimizeAlgebra>& p, const Down& d,
                std::size_t i) {
    if (d.type == bpt::kInvalidType) return d;  // infeasible
    if (i == 0)
      p.node().choices = p.node().solver->reconstruct(d.type).input_choices;
    return {p.node().choices[i]};
  }
  int down_bits(const Down& d) const {
    return d.type == bpt::kInvalidType ? 1 : class_bits(engine);
  }
  // Infeasibility travels as its own one-bit message.
  static Payload to_wire(Down d) {
    if (d.type == bpt::kInvalidType) return InfeasibleMsg{};
    return d;
  }
  template <class>
  static std::optional<Down> from_wire(const Payload& value) {
    if (auto d = AlgebraBase::from_wire<Down>(value)) return d;
    if (value.get_if<InfeasibleMsg>() != nullptr) return Down{};
    return std::nullopt;
  }

  void collect(Outcome& out,
               const std::vector<FoldProgram<OptimizeAlgebra>>& nodes,
               const congest::Network& net) const {
    out.max_table_entries = max_table_entries;
    if (nodes[0].down()->type == bpt::kInvalidType) return;  // infeasible
    out.best_weight = sign * best_weight;
    // The selected set is the union of per-node markings (Algorithm 1's
    // top-down phase: each node marks itself and its incident bag edges).
    const Graph& g = net.graph();
    out.vertices.assign(g.num_vertices(), false);
    out.edges.assign(g.num_edges(), false);
    for (int v = 0; v < net.n(); ++v) {
      const auto& p = nodes[v];
      const bpt::TypeId c = p.down()->type;
      if (c == bpt::kInvalidType) continue;
      const LocalContext& lc = p.local();
      if (vertex_sort) {
        std::vector<VertexId> bag_globals;
        for (VertexId bl : lc.bag_local) bag_globals.push_back(lc.globals[bl]);
        const auto selected = bpt::selected_vertices(engine, c, bag_globals, 0);
        if (std::find(selected.begin(), selected.end(), p.self()) !=
            selected.end())
          out.vertices[v] = true;
        continue;
      }
      for (EdgeId le :
           bpt::selected_edges(engine, lc.graph, c, lc.bag_local, 0)) {
        const Edge& e = lc.graph.edge(le);
        const VertexId ga = lc.globals[e.u], gb = lc.globals[e.v];
        if (ga != p.self() && gb != p.self()) continue;  // deeper end marks
        const EdgeId global_edge =
            g.edge_id(net.vertex_of_id(ga), net.vertex_of_id(gb));
        if (global_edge < 0)
          throw std::logic_error("optimize: bag edge not in host graph");
        out.edges[global_edge] = true;
      }
    }
  }
};

// optmarked: per node (1) the OPT table of phi(S), (2) the class of
// (G_u, Mark ∩ V(G_u)) — in place of the paper's closed formula
// phi[S := Mark] — and (3) the subtree's marked weight. The root accepts
// iff the marked class is accepting and of optimal weight.
struct OptMarkedAlgebra : AlgebraBase {
  using Up = MarkedPayload;
  using Down = MarkedVerdictMsg;
  static constexpr const char* kUpNote = "tables";
  static constexpr const char* kDownNote = "verdict";
  static constexpr bool kCached = false;
  static constexpr bool kTableUp = true;
  Weight sign;
  bool vertex_sort;
  std::optional<Weight> best_weight;
  Weight marked_weight = 0;

  OptMarkedAlgebra(bpt::Engine& e, const Query& q)
      : AlgebraBase(e, q),
        sign(q.minimize_marked ? -1 : 1),
        vertex_sort(q.frees.front().second == mso::Sort::VertexSet) {}

  void localize(LocalContext& lctx) const {
    if (sign < 0) negate_weights(lctx);
  }
  Up fold(FoldProgram<OptMarkedAlgebra>& p) {
    const LocalContext& lc = p.local();
    Up mine;
    std::vector<bpt::OptTable> opt_inputs;
    std::vector<bpt::TypeId> class_inputs;
    for (auto& c : p.inputs()) {
      opt_inputs.push_back(std::move(c.opt));
      class_inputs.push_back(c.marked_class);
      mine.marked_weight += c.marked_weight;
    }
    mine.opt = bpt::OptSolver(engine, *lc.plan, lc.graph, opt_inputs)
                   .root_table();
    bpt::SlotMembership mark{std::vector<bool>(lc.graph.num_vertices()),
                             std::vector<bool>(lc.graph.num_edges())};
    for (VertexId lv = 0; lv < lc.graph.num_vertices(); ++lv)
      mark.vertices[lv] = lc.graph.vertex_has_label(kMarkLabel, lv);
    for (EdgeId le = 0; le < lc.graph.num_edges(); ++le)
      mark.edges[le] = lc.graph.edge_has_label(kMarkLabel, le);
    mine.marked_class =
        bpt::fold_type(engine, *lc.plan, lc.graph, class_inputs, &mark);
    // Own marked weight: the self vertex, or the bag edges incident to
    // self — each edge is counted at its deeper endpoint, the unique bag
    // member adjacent to it from below.
    const int self_local = lc.local_of(p.self());
    if (vertex_sort) {
      if (mark.vertices[self_local])
        mine.marked_weight += lc.graph.vertex_weight(self_local);
    } else {
      for (auto [w, e] : lc.graph.incident(self_local))
        if (mark.edges[e]) mine.marked_weight += lc.graph.edge_weight(e);
    }
    return mine;
  }
  long up_bits(const Payload& wire, const NodeCtx& ctx) {
    return measured_bits(wire, ctx);
  }
  Down root(FoldProgram<OptMarkedAlgebra>& p) {
    const Up& mine = p.up();
    const auto [best, best_w] = best_accepting(evaluator, mine.opt);
    Down d;
    d.satisfies = mine.marked_class != bpt::kInvalidType &&
                  evaluator.eval(mine.marked_class);
    d.is_optimal = d.satisfies && best != bpt::kInvalidType &&
                   mine.marked_weight == best_w;
    marked_weight = sign * mine.marked_weight;
    if (best != bpt::kInvalidType) best_weight = sign * best_w;
    return d;
  }
  int down_bits(const Down&) const { return 2; }

  void collect(Outcome& out,
               const std::vector<FoldProgram<OptMarkedAlgebra>>& nodes,
               const congest::Network&) const {
    out.holds = nodes[0].down()->satisfies;
    out.is_optimal = nodes[0].down()->is_optimal;
    out.marked_weight = marked_weight;
    out.best_weight = best_weight;
  }
};

/// Builds one FoldProgram per vertex, runs the fold, and collects the
/// answer. A vertex builds its bag graph and plan when it folds (FoldRun);
/// a replaying vertex never does, so an incremental epoch builds contexts
/// for its refold closure alone and otherwise pays for receiving and
/// forwarding the answer. Vertices whose bags have one shape share one
/// plan, across epochs when the cache carries it. Programs sit in one
/// contiguous vector, fold inputs in FoldRun's arrays.
template <class A>
void run_fold(congest::Network& net, A& algebra, const ElimTreeResult& tree,
              const std::vector<LocalBag>& bags,
              const std::vector<std::string>& vlabels,
              const std::vector<std::string>& elabels, FoldCache* cache,
              Outcome& out) {
  using Up = typename A::Up;
  const int n = net.n();
  const bool incremental =
      A::kCached && cache != nullptr &&
      cache->refold.size() == static_cast<std::size_t>(n) &&
      cache->tables.size() == static_cast<std::size_t>(n);
  auto cached = [&](int v) -> const Up* {
    if (v < 0 || !incremental || cache->refold[v]) return nullptr;
    return cache->tables[v].template get_if<Up>();
  };
  // A bag always holds its own vertex; an empty one was never built.
  for (int v = 0; v < n; ++v)
    if (bags[v].bag.empty() && cached(v) == nullptr)
      throw std::logic_error("fold: vertex " + std::to_string(v) +
                             " must fold but has no bag");
  const TreePorts ports(net.graph(), tree.parent, tree.children);
  PlanCache own_plans;
  const std::size_t slots = tree.children.kids.size();
  FoldRun<A> run{algebra,
                 net,
                 tree.children,
                 bags,
                 vlabels,
                 elabels,
                 cache != nullptr ? cache->plans : own_plans,
                 std::vector<InputOf<A>>(slots),
                 std::vector<char>(slots, 0),
                 {}};
  std::vector<FoldProgram<A>> programs;
  programs.reserve(n);
  for (int v = 0; v < n; ++v) {
    const int parent = tree.parent[v];
    const Up* table = cached(v);
    programs.emplace_back(
        run, v, table,
        table == nullptr || (parent >= 0 && cached(parent) == nullptr),
        ports.parent[v], ports.children_of(tree.children, v));
  }
  out.run = net.run_outcome(congest::program_ptrs(programs));
  out.rounds_solve = out.run.rounds;
  out.num_classes = algebra.engine.num_types();
  if (!out.run.ok()) return;  // degraded: answer untrusted
  algebra.collect(out, programs, net);
  if constexpr (A::kCached) {
    for (const auto& p : programs) out.folds += p.folded() ? 1 : 0;
    if (cache != nullptr) {
      // A replayed table is the cached one already: write fresh folds only.
      if (!incremental) cache->tables.assign(n, Payload());
      for (int v = 0; v < n; ++v)
        if (programs[v].folded())
          cache->tables[v] = Payload(programs[v].take_up());
      cache->refold.assign(n, 0);
    }
  }
}

template <class A>
void solve_with(congest::Network& net, const Query& q, bpt::Engine& engine,
                const ElimTreeResult& tree, const std::vector<LocalBag>& bags,
                FoldCache* cache, Outcome& out) {
  A algebra(engine, q);
  const auto [vlabels, elabels] = bag_labels(q, engine.config());
  run_fold(net, algebra, tree, bags, vlabels, elabels, cache, out);
}

}  // namespace

const char* phase_name(Kind kind) {
  switch (kind) {
    case Kind::kDecision: return "decide";
    case Kind::kCount: return "count";
    case Kind::kMaximize: return "maximize";
    case Kind::kMinimize: return "minimize";
    case Kind::kOptMarked: return "optmarked";
  }
  return "?";
}

std::optional<Kind> kind_of(std::string_view verb) {
  for (const Kind kind : kServedKinds)
    if (verb == phase_name(kind)) return kind;
  return std::nullopt;
}

void describe(Outcome& out, int d) {
  std::string& r = out.result;
  if (!out.run.ok()) {
    r = out.run.status == congest::RunStatus::kCrashed
            ? "degraded: crashed"
            : "degraded: round budget exhausted";
  } else if (out.treedepth_exceeded) {
    r = "treedepth>" + std::to_string(d);
  } else {
    switch (out.kind) {
      case Kind::kDecision:
        r = out.holds ? "holds" : "fails";
        break;
      case Kind::kCount:
        r = "count=" + std::to_string(out.count);
        break;
      case Kind::kMaximize:
      case Kind::kMinimize:
        r = out.best_weight ? "optimum=" + std::to_string(*out.best_weight)
                            : "infeasible";
        break;
      case Kind::kOptMarked:
        r = std::string(out.holds ? "satisfies" : "violates") +
            (out.is_optimal ? " optimal" : " suboptimal") +
            " marked=" + std::to_string(out.marked_weight) + " optimum=" +
            (out.best_weight ? std::to_string(*out.best_weight) : "none");
        break;
    }
  }
  out.digest = result_digest(r);
}

int Outcome::exit_code() const {
  if (!run.ok()) return run.status == congest::RunStatus::kCrashed ? 7 : 6;
  if (treedepth_exceeded) return 3;
  switch (kind) {
    case Kind::kDecision: return holds ? 0 : 1;
    case Kind::kCount: return 0;
    case Kind::kMaximize:
    case Kind::kMinimize: return best_weight ? 0 : 1;
    case Kind::kOptMarked: return holds && is_optimal ? 0 : 1;
  }
  return 4;
}

void FoldCache::reset(int n) {
  tables.assign(n, congest::Payload());
  refold.assign(n, 1);
}

void FoldCache::remap(const std::vector<VertexId>& old_to_new, int new_n) {
  const std::size_t old_n = old_to_new.size();
  bool identity = old_n == static_cast<std::size_t>(new_n) &&
                  tables.size() == old_n && refold.size() == old_n;
  for (std::size_t v = 0; identity && v < old_n; ++v)
    identity = old_to_new[v] == static_cast<VertexId>(v);
  if (identity) return;
  std::vector<congest::Payload> t(new_n);
  std::vector<char> r(new_n, 1);  // new vertices always refold
  if (tables.size() == old_n && refold.size() == old_n) {
    for (std::size_t ov = 0; ov < old_n; ++ov) {
      const VertexId nv = old_to_new[ov];
      if (nv < 0) continue;
      t[nv] = std::move(tables[ov]);
      // A refold flag left set by a degraded epoch means "still stale":
      // it survives the renumbering and is OR-ed with the new dirty set.
      r[nv] = refold[ov];
    }
  }
  tables = std::move(t);
  refold = std::move(r);
}

Query parse_query(Kind kind, const std::string& formula,
                  const std::string& var, const std::string& sort,
                  const std::string& vars) {
  Query q{kind, mso::parse(formula)};
  const auto add_free = [&q](const std::string& name, const std::string& s) {
    if (name.empty()) throw std::invalid_argument("missing variable name");
    for (const auto& free : q.frees)
      if (free.first == name)
        throw std::invalid_argument("free variable '" + name +
                                    "' declared twice");
    if (s != "vset" && s != "eset")
      throw std::invalid_argument("sort must be vset or eset, got '" + s +
                                  "'");
    q.frees.emplace_back(name, s == "vset" ? mso::Sort::VertexSet
                                           : mso::Sort::EdgeSet);
  };
  if (kind == Kind::kCount) {
    for (std::size_t start = 0; start <= vars.size();) {  // "" is one item
      const std::size_t end = std::min(vars.find(',', start), vars.size());
      const std::string item = vars.substr(start, end - start);
      const std::size_t colon = item.find(':');
      if (colon == std::string::npos)
        throw std::invalid_argument(
            "vars needs NAME:vset|eset items, got '" + item + "'");
      add_free(item.substr(0, colon), item.substr(colon + 1));
      start = end + 1;
    }
  } else if (kind != Kind::kDecision) {
    add_free(var, sort);
  }
  return q;
}

UniverseKey universe_key(const Query& query) {
  const mso::FormulaPtr lowered = mso::lower(query.formula, query.frees);
  return {mso::to_string(*lowered), bpt::config_for(*lowered, query.frees)};
}

Outcome run(congest::Network& net, const Query& query, int d,
            bpt::Engine* engine, const ElimTreeOptions& tree_opts) {
  Outcome out;
  out.kind = query.kind;
  const ElimTreeResult tree = run_elim_tree(net, d, tree_opts);
  out.rounds_elim = tree.rounds;
  out.run = tree.run;
  // Degraded: not a treedepth verdict. Algorithm 2 certifies its tree
  // only when td(G) <= d; above that it can accept a tree that is not an
  // elimination tree of G, whose fold would miss the edges no bag holds.
  // Such a tree says the bound is exceeded.
  out.treedepth_exceeded =
      tree.run.ok() &&
      (!tree.success || !tree_defect(net.graph(), tree.parent, d).empty());
  if (!tree.run.ok() || out.treedepth_exceeded) {
    describe(out, d);
    return out;
  }
  if (std::string why = too_deep(tree); !why.empty())
    throw std::runtime_error(why);
  std::optional<bpt::Engine> own_engine;
  if (engine == nullptr) engine = &own_engine.emplace(universe_key(query).cfg);
  const auto [vlabels, elabels] = bag_labels(query, engine->config());
  const BagsResult bags = run_bags(net, tree, vlabels, elabels);
  out.rounds_bags = bags.rounds;
  out.run = bags.run;
  if (!bags.run.ok()) {  // bags incomplete
    describe(out, d);
    return out;
  }
  Outcome solved = solve(net, query, tree, bags.bags, engine);
  solved.rounds_elim = out.rounds_elim;
  solved.rounds_bags = out.rounds_bags;
  return solved;
}

Outcome run_sequential(const Graph& g, const Query& query) {
  Outcome out;
  out.kind = query.kind;
  switch (query.kind) {
    case Kind::kDecision:
      out.holds = seq::decide(g, query.formula);
      break;
    case Kind::kCount:
      out.count = seq::count(g, query.formula, query.frees);
      break;
    case Kind::kMaximize:
    case Kind::kMinimize: {
      const auto& [var, sort] = query.frees.front();
      const auto best = query.kind == Kind::kMaximize
                            ? seq::maximize(g, query.formula, var, sort)
                            : seq::minimize(g, query.formula, var, sort);
      if (best) {
        out.best_weight = best->weight;
        out.vertices = best->vertices;
        out.edges = best->edges;
      }
      break;
    }
    case Kind::kOptMarked:
      throw std::invalid_argument("optmarked has no sequential solver");
  }
  describe(out, 0);
  return out;
}

std::string selected_text(const Graph& g, const std::vector<bool>& vertices,
                          const std::vector<bool>& edges) {
  std::string out = "selected:";
  for (VertexId v = 0; v < g.num_vertices(); ++v)
    if (v < static_cast<VertexId>(vertices.size()) && vertices[v])
      out += " v" + std::to_string(v);
  for (EdgeId e = 0; e < g.num_edges(); ++e)
    if (e < static_cast<EdgeId>(edges.size()) && edges[e])
      out += " e" + std::to_string(e) + "(" + std::to_string(g.edge(e).u) +
             "-" + std::to_string(g.edge(e).v) + ")";
  return out;
}

std::string result_digest(const std::string& canonical) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : canonical)
    h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ull;
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

Outcome solve(congest::Network& net, const Query& query,
              const ElimTreeResult& tree, const std::vector<LocalBag>& bags,
              bpt::Engine* engine, FoldCache* cache) {
  if (!tree.success) throw std::invalid_argument("dist::solve: tree invalid");
  std::optional<bpt::Engine> own_engine;
  if (engine == nullptr) engine = &own_engine.emplace(universe_key(query).cfg);
  Outcome out;
  out.kind = query.kind;
  congest::PhaseScope phase(net, phase_name(query.kind));
  switch (query.kind) {
    case Kind::kDecision:
      solve_with<DecideAlgebra>(net, query, *engine, tree, bags, cache, out);
      break;
    case Kind::kCount:
      solve_with<CountAlgebra>(net, query, *engine, tree, bags, cache, out);
      break;
    case Kind::kMaximize:
    case Kind::kMinimize:
      solve_with<OptimizeAlgebra>(net, query, *engine, tree, bags, cache, out);
      break;
    case Kind::kOptMarked:
      solve_with<OptMarkedAlgebra>(net, query, *engine, tree, bags, cache,
                                   out);
      break;
  }
  describe(out, 0);
  return out;
}

std::pair<std::vector<std::string>, std::vector<std::string>> bag_labels(
    const Query& query, const bpt::EngineConfig& cfg) {
  auto vlabels = cfg.vertex_labels;
  auto elabels = cfg.edge_labels;
  if (query.kind == Kind::kOptMarked)
    (query.frees.front().second == mso::Sort::VertexSet ? vlabels : elabels)
        .push_back(kMarkLabel);
  return {std::move(vlabels), std::move(elabels)};
}

}  // namespace dmc::dist
