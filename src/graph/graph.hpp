// Core simple-undirected-graph data structure used throughout dmc.
//
// Vertices are dense ids 0..n-1. Edges are dense ids 0..m-1 with stable
// endpoints. Graphs may carry:
//   - unary labels on vertices and on edges (the paper's labeled-graph
//     extension, Section 6), addressed by name;
//   - integer weights on vertices and edges (the paper's polynomially
//     bounded weights for optimization problems, Section 4).
//
// Storage is CSR (compressed sparse row): the edge list is the source of
// truth and the per-vertex incidence lists live in one prefix-summed arena
// that is rebuilt lazily (O(n + m)) after mutations (edge insertion and
// removal). incident() and neighbors() return non-allocating views into
// that arena, and the {u,v} -> edge-id index is an open-addressing flat
// hash, so building a graph of n vertices and m edges is O(n + m) total —
// the property the million-vertex families in gen::family rely on
// (docs/PERFORMANCE.md).
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace dmc {

using VertexId = int;
using EdgeId = int;
using Weight = std::int64_t;

/// One undirected edge; endpoints are stored with u <= v.
struct Edge {
  VertexId u = -1;
  VertexId v = -1;

  /// The endpoint different from `x`; throws if `x` is not an endpoint.
  VertexId other(VertexId x) const {
    if (x == u) return v;
    if (x == v) return u;
    throw std::invalid_argument("Edge::other: vertex is not an endpoint");
  }
};

/// Simple undirected graph with labels and weights.
class Graph {
 public:
  /// Non-allocating window into one vertex's (neighbor, edge-id) pairs in
  /// the CSR arena, in insertion order (ports are indices into this view).
  /// Invalidated by any graph mutation.
  class IncidenceView {
   public:
    using value_type = std::pair<VertexId, EdgeId>;
    using const_iterator = const value_type*;

    const_iterator begin() const { return data_; }
    const_iterator end() const { return data_ + size_; }
    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    const value_type& operator[](std::size_t i) const { return data_[i]; }
    const value_type& at(std::size_t i) const {
      if (i >= size_) throw std::out_of_range("IncidenceView::at");
      return data_[i];
    }

   private:
    friend class Graph;
    IncidenceView(const value_type* data, std::size_t size)
        : data_(data), size_(size) {}
    const value_type* data_;
    std::size_t size_;
  };

  /// Neighbor-ids-only projection of an IncidenceView (same arena, same
  /// order, same invalidation rule).
  class NeighborView {
   public:
    class const_iterator {
     public:
      VertexId operator*() const { return p_->first; }
      const_iterator& operator++() {
        ++p_;
        return *this;
      }
      bool operator!=(const const_iterator& o) const { return p_ != o.p_; }
      bool operator==(const const_iterator& o) const { return p_ == o.p_; }

     private:
      friend class NeighborView;
      explicit const_iterator(const IncidenceView::value_type* p) : p_(p) {}
      const IncidenceView::value_type* p_;
    };

    const_iterator begin() const { return const_iterator(data_); }
    const_iterator end() const { return const_iterator(data_ + size_); }
    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    VertexId operator[](std::size_t i) const { return data_[i].first; }

   private:
    friend class Graph;
    NeighborView(const IncidenceView::value_type* data, std::size_t size)
        : data_(data), size_(size) {}
    const IncidenceView::value_type* data_;
    std::size_t size_;
  };

  Graph() = default;
  explicit Graph(int n) { resize(n); }

  int num_vertices() const { return static_cast<int>(deg_.size()); }
  int num_edges() const { return static_cast<int>(edges_.size()); }

  /// Adds `count` isolated vertices; returns the id of the first new vertex.
  VertexId add_vertices(int count = 1);

  /// Adds edge {u, v}. Throws on loops, out-of-range ids, or duplicates.
  EdgeId add_edge(VertexId u, VertexId v);

  /// Adds edge {u, v} if absent; returns the edge id either way.
  EdgeId ensure_edge(VertexId u, VertexId v);

  /// Removes edge `e` with its weight and labels. Edge ids above `e` shift
  /// down by one, so every other endpoint's incidence order (its ports) is
  /// unchanged. O(m) array shifts; the hash index is patched in place and
  /// the CSR arena rebuilds lazily. Throws std::out_of_range on a bad id.
  void remove_edge(EdgeId e);

  bool has_edge(VertexId u, VertexId v) const;
  /// Edge id of {u, v}, or -1 if absent.
  EdgeId edge_id(VertexId u, VertexId v) const;
  /// Position of w in v's incidence list, or -1 if {v, w} is absent. O(1):
  /// flat-hash edge lookup plus the per-edge endpoint ports the CSR rebuild
  /// records — never a scan, so it is safe on hub vertices of huge degree.
  int port_of(VertexId v, VertexId w) const;

  const Edge& edge(EdgeId e) const { return edges_.at(e); }
  const std::vector<Edge>& edges() const { return edges_; }

  int degree(VertexId v) const {
    check_vertex(v);
    return deg_[v];
  }

  /// Incident (neighbor, edge-id) pairs of v, in insertion order. The view
  /// aliases the CSR arena: it costs nothing to produce, and is invalidated
  /// by the next add_edge/remove_edge/add_vertices. The first call after a
  /// mutation rebuilds the arena (O(n + m)); callers stepping vertices in
  /// parallel must finalize() (or query once) before forking.
  IncidenceView incident(VertexId v) const {
    check_vertex(v);
    if (csr_dirty_) rebuild_csr();
    return IncidenceView(csr_adj_.data() + csr_off_[v],
                         static_cast<std::size_t>(deg_[v]));
  }
  /// Neighbor vertex ids of v, in insertion order (same view contract).
  NeighborView neighbors(VertexId v) const {
    check_vertex(v);
    if (csr_dirty_) rebuild_csr();
    return NeighborView(csr_adj_.data() + csr_off_[v],
                        static_cast<std::size_t>(deg_[v]));
  }
  /// Forces the CSR arena up to date so subsequent incident()/neighbors()
  /// calls are pure reads (safe from concurrent threads).
  void finalize() const {
    if (csr_dirty_) rebuild_csr();
  }

  // --- labels (unary predicates, Section 6 of the paper) -------------------

  void set_vertex_label(const std::string& name, VertexId v, bool on = true);
  void set_edge_label(const std::string& name, EdgeId e, bool on = true);
  bool vertex_has_label(const std::string& name, VertexId v) const;
  bool edge_has_label(const std::string& name, EdgeId e) const;
  /// The labels of v (of e) over an ordered list of names, as bits: bit i
  /// is set iff it carries names[i]. Bags and certificates carry labels in
  /// this encoding.
  std::uint32_t vertex_label_bits(const std::vector<std::string>& names,
                                  VertexId v) const;
  std::uint32_t edge_label_bits(const std::vector<std::string>& names,
                                EdgeId e) const;
  std::vector<std::string> vertex_label_names() const;
  std::vector<std::string> edge_label_names() const;

  // --- weights --------------------------------------------------------------

  void set_vertex_weight(VertexId v, Weight w);
  void set_edge_weight(EdgeId e, Weight w);
  Weight vertex_weight(VertexId v) const;
  Weight edge_weight(EdgeId e) const;

  /// Induced subgraph on `vertices` (labels/weights are carried over).
  /// `vertices` must contain distinct valid ids; its order defines the new
  /// vertex numbering. If `old_to_new` is non-null it receives the mapping
  /// (size n, -1 for dropped vertices).
  Graph induced_subgraph(const std::vector<VertexId>& vertices,
                         std::vector<VertexId>* old_to_new = nullptr) const;

  /// Heap bytes held by the graph structure (CSR arena, edge list, hash
  /// index, labels, weights) — logical sizes, not allocator capacity, so
  /// the number is deterministic for a given construction.
  std::size_t memory_bytes() const;

  std::string to_string() const;

 private:
  // Sorted-by-name label columns (the few labels in play make the binary
  // search cheaper than a node-based map, and iteration order stays the
  // sorted order the old std::map exposed).
  using LabelColumns = std::vector<std::pair<std::string, std::vector<bool>>>;

  void resize(int n);
  void check_vertex(VertexId v) const {
    if (v < 0 || v >= num_vertices())
      throw std::out_of_range("Graph: vertex id out of range");
  }
  void check_edge(EdgeId e) const {
    if (e < 0 || e >= num_edges())
      throw std::out_of_range("Graph: edge id out of range");
  }
  void rebuild_csr() const;

  static std::uint64_t pack_key(VertexId u, VertexId v) {
    // callers normalize u <= v; both are non-negative ints
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(u)) << 32) |
           static_cast<std::uint64_t>(static_cast<std::uint32_t>(v));
  }
  void index_insert(std::uint64_t key, EdgeId e);
  EdgeId index_find(std::uint64_t key) const;
  void index_erase(std::uint64_t key);
  void index_grow(std::size_t min_slots);

  std::vector<Edge> edges_;      // source of truth, in edge-id order
  std::vector<int> deg_;         // per-vertex degree (doubles as vertex count)
  std::vector<Weight> vertex_weights_;
  std::vector<Weight> edge_weights_;
  LabelColumns vertex_labels_;
  LabelColumns edge_labels_;

  // Open-addressing {u,v} -> edge id hash (linear probing, power-of-two
  // capacity, <= 70% load; removal shifts the probe run back, so there are
  // no tombstones).
  std::vector<std::uint64_t> index_keys_;
  std::vector<EdgeId> index_vals_;
  static constexpr std::uint64_t kEmptyKey = ~std::uint64_t{0};

  // Lazy CSR cache over edges_: csr_off_[v] is the arena offset of v's
  // incidence list; entries are scattered in edge-id order, which is
  // exactly per-vertex insertion order (ports are stable).
  mutable std::vector<int> csr_off_;  // size n (+ scratch invariant), offsets
  mutable std::vector<std::pair<VertexId, EdgeId>> csr_adj_;  // size 2m
  // Per-edge endpoint ports: csr_eport_[2e] is edge e's port in u's list,
  // csr_eport_[2e + 1] its port in v's list (u < v as stored in edges_).
  mutable std::vector<int> csr_eport_;  // size 2m
  mutable bool csr_dirty_ = true;
};

}  // namespace dmc
