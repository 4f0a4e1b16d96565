#include "dist/bags.hpp"

#include <algorithm>
#include <cstdio>
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
  BagsProgram(VertexId parent_id, std::vector<VertexId> children_ids,
              Weight own_weight, std::uint32_t own_vlabels,
              std::vector<std::tuple<VertexId, Weight, std::uint32_t>>
                  incident_edges)
      : parent_id_(parent_id),
        children_ids_(std::move(children_ids)),
        own_weight_(own_weight),
        own_vlabels_(own_vlabels),
        incident_edges_(std::move(incident_edges)) {}

  const LocalBag& bag() const { return bag_; }
  bool has_bag() const { return has_bag_; }

  void on_round(NodeCtx& ctx) override {
    if (!has_bag_) {
      if (parent_id_ < 0) {
        // Root: B = {self}.
        bag_.bag = {ctx.id()};
        bag_.weights = {own_weight_};
        bag_.vlabel_bits = {own_vlabels_};
        adopt_bag(ctx);
      } else {
        const int pport = ctx.port_of(parent_id_);
        if (auto payload = reasm_.poll(ctx, pport)) {
          const LocalBag parent_bag = payload->get<LocalBag>();
          extend_from(parent_bag, ctx);
          adopt_bag(ctx);
        }
      }
    }
    sender_.pump(ctx);
    // Bagless with nothing queued: blocked on the parent's chunk stream,
    // which wakes us on arrival (sparse scheduler; no-op otherwise).
    if (!has_bag_ && sender_.idle()) ctx.sleep();
  }

  bool done(const NodeCtx&) const override {
    return has_bag_ && sender_.idle();
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
    for (VertexId child : children_ids_) {
      const int port = ctx.port_of(child);
      if (port < 0) throw std::logic_error("BagsProgram: child not adjacent");
      sender_.enqueue(port, bag_, bag_.wire_bits(ctx.n()));
    }
  }

  /// B_self = B_parent ∪ {self}; edges gain self's links into the bag.
  void extend_from(const LocalBag& parent, NodeCtx& ctx) {
    const VertexId self = ctx.id();
    bag_ = parent;
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

  VertexId parent_id_;
  std::vector<VertexId> children_ids_;
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
  auto vbits = [&](VertexId v) {
    std::uint32_t bits = 0;
    for (std::size_t i = 0; i < vlabel_names.size(); ++i)
      if (g.vertex_has_label(vlabel_names[i], v)) bits |= 1u << i;
    return bits;
  };
  auto ebits = [&](EdgeId e) {
    std::uint32_t bits = 0;
    for (std::size_t i = 0; i < elabel_names.size(); ++i)
      if (g.edge_has_label(elabel_names[i], e)) bits |= 1u << i;
    return bits;
  };
  std::vector<std::unique_ptr<congest::NodeProgram>> programs;
  std::vector<BagsProgram*> handles;
  for (int v = 0; v < net.n(); ++v) {
    std::vector<std::tuple<VertexId, Weight, std::uint32_t>> incident;
    for (auto [w, e] : g.incident(v))
      incident.emplace_back(net.id_of_vertex(w), g.edge_weight(e), ebits(e));
    std::vector<VertexId> children_ids;
    for (int c : tree.children[v]) children_ids.push_back(net.id_of_vertex(c));
    auto p = std::make_unique<BagsProgram>(
        tree.parent[v] < 0 ? -1 : net.id_of_vertex(tree.parent[v]),
        std::move(children_ids), g.vertex_weight(v), vbits(v),
        std::move(incident));
    handles.push_back(p.get());
    programs.push_back(std::move(p));
  }
  BagsResult result;
  result.run = net.run_outcome(programs);
  result.rounds = result.run.rounds;
  if (!result.run.ok()) return result;  // degraded: bags incomplete
  result.bags.resize(net.n());
  for (int v = 0; v < net.n(); ++v) {
    if (!handles[v]->has_bag())
      throw std::logic_error("run_bags: node finished without a bag");
    result.bags[v] = handles[v]->bag();
  }
  return result;
}

}  // namespace dmc::dist
