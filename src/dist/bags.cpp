#include "dist/bags.hpp"

#include <algorithm>
#include <cstdio>
#include <span>
#include <stdexcept>

#include "congest/fragment.hpp"
#include "congest/wire.hpp"

namespace dmc::dist {

namespace {

using congest::Message;
using congest::NodeCtx;

/// Wire codec (audit mode). A bag is a varuint member count, then per
/// member a fixed id_bits(n) id + zigzag-varint weight + varuint label
/// bits; then a varuint edge count, then per edge two bag-local indices
/// (fixed width, wide enough for the largest index) + zigzag-varint
/// weight + varuint label bits. wire_bits() measures this exact encoding.
[[maybe_unused]] const bool wire_codecs_registered = [] {
  audit::register_codec<LocalBag>(
      "dist::LocalBag",
      [](const LocalBag& m, const audit::WireContext& ctx,
         audit::BitWriter& w) {
        const int idb = congest::id_bits(ctx.n);
        w.put_varuint(m.bag.size());
        for (std::size_t i = 0; i < m.bag.size(); ++i) {
          w.put_uint(static_cast<std::uint64_t>(m.bag[i]), idb);
          w.put_varint(m.weights[i]);
          w.put_varuint(m.vlabel_bits[i]);
        }
        const int index_bits =
            m.bag.empty() ? 1 : audit::uint_bits(m.bag.size() - 1);
        w.put_varuint(m.edges.size());
        for (const auto& e : m.edges) {
          w.put_uint(static_cast<std::uint64_t>(e.i), index_bits);
          w.put_uint(static_cast<std::uint64_t>(e.j), index_bits);
          w.put_varint(e.weight);
          w.put_varuint(e.elabel_bits);
        }
      },
      [](const audit::WireContext& ctx, audit::BitReader& r) {
        const int idb = congest::id_bits(ctx.n);
        LocalBag m;
        const std::uint64_t members = r.get_varuint();
        for (std::uint64_t i = 0; i < members; ++i) {
          m.bag.push_back(static_cast<VertexId>(r.get_uint(idb)));
          m.weights.push_back(r.get_varint());
          m.vlabel_bits.push_back(
              static_cast<std::uint32_t>(r.get_varuint()));
        }
        const int index_bits =
            m.bag.empty() ? 1 : audit::uint_bits(m.bag.size() - 1);
        const std::uint64_t edges = r.get_varuint();
        for (std::uint64_t i = 0; i < edges; ++i) {
          LocalBag::BagEdge e;
          e.i = static_cast<int>(r.get_uint(index_bits));
          e.j = static_cast<int>(r.get_uint(index_bits));
          e.weight = r.get_varint();
          e.elabel_bits = static_cast<std::uint32_t>(r.get_varuint());
          m.edges.push_back(e);
        }
        return m;
      },
      [](const LocalBag& a, const LocalBag& b) {
        auto edge_eq = [](const LocalBag::BagEdge& x,
                          const LocalBag::BagEdge& y) {
          return x.i == y.i && x.j == y.j && x.weight == y.weight &&
                 x.elabel_bits == y.elabel_bits;
        };
        return a.bag == b.bag && a.weights == b.weights &&
               a.vlabel_bits == b.vlabel_bits &&
               a.edges.size() == b.edges.size() &&
               std::equal(a.edges.begin(), a.edges.end(), b.edges.begin(),
                          edge_eq);
      });
  return true;
}();

class BagsProgram : public congest::NodeProgram {
 public:
  /// `parent_port` is -1 at the root; `child_ports` are in children order
  /// (TreePorts, resolved once per run).
  BagsProgram(int parent_port, std::span<const int> child_ports,
              Weight own_weight, std::uint32_t own_vlabels,
              std::vector<std::tuple<VertexId, Weight, std::uint32_t>>
                  incident_edges)
      : parent_port_(parent_port),
        child_ports_(child_ports),
        own_weight_(own_weight),
        own_vlabels_(own_vlabels),
        incident_edges_(std::move(incident_edges)) {}

  bool has_bag() const { return has_bag_; }
  /// The finished bag, moved out (call once, after the run).
  LocalBag take_bag() { return std::move(bag_); }

  void on_round(NodeCtx& ctx) override {
    if (!has_bag_) {
      if (parent_port_ < 0) {
        // Root: B = {self}.
        bag_.bag = {ctx.id()};
        bag_.weights = {own_weight_};
        bag_.vlabel_bits = {own_vlabels_};
        adopt_bag(ctx);
      } else {
        if (auto payload = reasm_.poll(ctx, parent_port_)) {
          extend_from(std::move(payload->get<LocalBag>()), ctx);
          adopt_bag(ctx);
        }
      }
    }
    sender_.pump(ctx);
    // Bagless with nothing queued: blocked on the parent's chunk stream,
    // which wakes us on arrival (sparse scheduler; no-op otherwise).
    if (!has_bag_ && sender_.empty()) ctx.sleep();
  }

  bool done(const NodeCtx&) const override {
    return has_bag_ && sender_.empty();
  }

 private:
  /// Bag acquired: queue it to every child.
  void adopt_bag(NodeCtx& ctx) {
    has_bag_ = true;
    if (ctx.traced()) {
      // The bag size equals this node's depth: deeper levels adopt later,
      // so the annotations spell out the level-by-level pipeline.
      char label[32];
      std::snprintf(label, sizeof(label), "level=%zu", bag_.bag.size());
      ctx.annotate(label);
    }
    const long bits = child_ports_.empty() ? 0 : bag_.wire_bits(ctx.n());
    for (const int port : child_ports_) sender_.enqueue(port, bag_, bits);
  }

  /// B_self = B_parent ∪ {self}; edges gain self's links into the bag.
  /// Takes the parent's reassembled bag by value and extends it in place.
  void extend_from(LocalBag parent, NodeCtx& ctx) {
    const VertexId self = ctx.id();
    bag_ = std::move(parent);
    const auto pos =
        std::lower_bound(bag_.bag.begin(), bag_.bag.end(), self) -
        bag_.bag.begin();
    bag_.bag.insert(bag_.bag.begin() + pos, self);
    bag_.weights.insert(bag_.weights.begin() + pos, own_weight_);
    bag_.vlabel_bits.insert(bag_.vlabel_bits.begin() + pos, own_vlabels_);
    // Reindex existing edges across the insertion point.
    for (auto& e : bag_.edges) {
      if (e.i >= pos) ++e.i;
      if (e.j >= pos) ++e.j;
    }
    // Add self's edges into the bag.
    for (const auto& [nbr, w, labels] : incident_edges_) {
      const auto it = std::lower_bound(bag_.bag.begin(), bag_.bag.end(), nbr);
      if (it == bag_.bag.end() || *it != nbr) continue;
      const int other = static_cast<int>(it - bag_.bag.begin());
      LocalBag::BagEdge edge;
      edge.i = std::min<int>(pos, other);
      edge.j = std::max<int>(pos, other);
      edge.weight = w;
      edge.elabel_bits = labels;
      bag_.edges.push_back(edge);
    }
    std::sort(bag_.edges.begin(), bag_.edges.end(),
              [](const LocalBag::BagEdge& a, const LocalBag::BagEdge& b) {
                return std::tie(a.i, a.j) < std::tie(b.i, b.j);
              });
  }

  int parent_port_;
  std::span<const int> child_ports_;
  Weight own_weight_;
  std::uint32_t own_vlabels_;
  std::vector<std::tuple<VertexId, Weight, std::uint32_t>> incident_edges_;
  LocalBag bag_;
  bool has_bag_ = false;
  congest::FragmentSender sender_;
  congest::FragmentReassembler reasm_;
};

}  // namespace

long LocalBag::wire_bits(int n) const {
  return audit::measured_bits(*this, audit::WireContext{n, 0});
}

BagsResult run_bags(congest::Network& net, const ElimTreeResult& tree,
                    const std::vector<std::string>& vlabel_names,
                    const std::vector<std::string>& elabel_names) {
  if (!tree.success)
    throw std::invalid_argument("run_bags: elimination tree construction failed");
  congest::PhaseScope trace_scope(net, "bags");
  const Graph& g = net.graph();
  const TreePorts ports(g, tree.parent, tree.children);
  std::vector<BagsProgram> programs;
  programs.reserve(net.n());
  for (int v = 0; v < net.n(); ++v) {
    std::vector<std::tuple<VertexId, Weight, std::uint32_t>> incident;
    for (auto [w, e] : g.incident(v))
      incident.emplace_back(net.id_of_vertex(w), g.edge_weight(e),
                            g.edge_label_bits(elabel_names, e));
    programs.emplace_back(ports.parent[v], ports.children_of(tree.children, v),
                          g.vertex_weight(v),
                          g.vertex_label_bits(vlabel_names, v),
                          std::move(incident));
  }
  BagsResult result;
  result.run = net.run_outcome(congest::program_ptrs(programs));
  result.rounds = result.run.rounds;
  if (!result.run.ok()) return result;  // degraded: bags incomplete
  result.bags.resize(net.n());
  for (int v = 0; v < net.n(); ++v) {
    if (!programs[v].has_bag())
      throw std::logic_error("run_bags: node finished without a bag");
    result.bags[v] = programs[v].take_bag();
  }
  return result;
}

}  // namespace dmc::dist
