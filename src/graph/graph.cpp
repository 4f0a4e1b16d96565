#include "graph/graph.hpp"

#include <algorithm>
#include <sstream>

namespace dmc {

namespace {

/// splitmix64 finalizer: full-avalanche hash of the packed endpoint key.
std::uint64_t hash_key(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

using LabelColumns =
    std::vector<std::pair<std::string, std::vector<bool>>>;

std::vector<bool>* find_label(LabelColumns& cols, const std::string& name) {
  auto it = std::lower_bound(
      cols.begin(), cols.end(), name,
      [](const auto& col, const std::string& n) { return col.first < n; });
  if (it == cols.end() || it->first != name) return nullptr;
  return &it->second;
}

const std::vector<bool>* find_label(const LabelColumns& cols,
                                    const std::string& name) {
  return find_label(const_cast<LabelColumns&>(cols), name);
}

bool has_label(const LabelColumns& cols, const std::string& name, int x) {
  const auto* bits = find_label(cols, name);
  return bits != nullptr && x < static_cast<int>(bits->size()) && (*bits)[x];
}

std::uint32_t label_bits(const LabelColumns& cols,
                         const std::vector<std::string>& names, int x) {
  std::uint32_t bits = 0;
  for (std::size_t i = 0; i < names.size(); ++i)
    if (has_label(cols, names[i], x)) bits |= 1u << i;
  return bits;
}

std::vector<bool>& ensure_label(LabelColumns& cols, const std::string& name) {
  auto it = std::lower_bound(
      cols.begin(), cols.end(), name,
      [](const auto& col, const std::string& n) { return col.first < n; });
  if (it == cols.end() || it->first != name)
    it = cols.insert(it, {name, {}});
  return it->second;
}

}  // namespace

void Graph::resize(int n) {
  if (n < 0) throw std::invalid_argument("Graph: negative vertex count");
  if (n != num_vertices()) csr_dirty_ = true;
  deg_.resize(n, 0);
  vertex_weights_.resize(n, 1);
  for (auto& [name, bits] : vertex_labels_) bits.resize(n, false);
}

VertexId Graph::add_vertices(int count) {
  if (count < 0) throw std::invalid_argument("Graph::add_vertices: negative");
  const VertexId first = num_vertices();
  resize(num_vertices() + count);
  return first;
}

void Graph::index_grow(std::size_t min_slots) {
  std::size_t cap = 16;
  while (cap < min_slots) cap <<= 1;
  std::vector<std::uint64_t> keys(cap, kEmptyKey);
  std::vector<EdgeId> vals(cap, -1);
  const std::uint64_t mask = cap - 1;
  for (std::size_t i = 0; i < index_keys_.size(); ++i) {
    if (index_keys_[i] == kEmptyKey) continue;
    std::uint64_t slot = hash_key(index_keys_[i]) & mask;
    while (keys[slot] != kEmptyKey) slot = (slot + 1) & mask;
    keys[slot] = index_keys_[i];
    vals[slot] = index_vals_[i];
  }
  index_keys_ = std::move(keys);
  index_vals_ = std::move(vals);
}

void Graph::index_insert(std::uint64_t key, EdgeId e) {
  // keep load factor <= 70%: grow when (count+1) > 0.7 * capacity
  const std::size_t count = edges_.size();
  if (index_keys_.empty() || (count + 1) * 10 > index_keys_.size() * 7)
    index_grow(std::max<std::size_t>(16, (count + 1) * 2));
  const std::uint64_t mask = index_keys_.size() - 1;
  std::uint64_t slot = hash_key(key) & mask;
  while (index_keys_[slot] != kEmptyKey) slot = (slot + 1) & mask;
  index_keys_[slot] = key;
  index_vals_[slot] = e;
}

EdgeId Graph::index_find(std::uint64_t key) const {
  if (index_keys_.empty()) return -1;
  const std::uint64_t mask = index_keys_.size() - 1;
  std::uint64_t slot = hash_key(key) & mask;
  while (index_keys_[slot] != kEmptyKey) {
    if (index_keys_[slot] == key) return index_vals_[slot];
    slot = (slot + 1) & mask;
  }
  return -1;
}

void Graph::index_erase(std::uint64_t key) {
  const std::uint64_t mask = index_keys_.size() - 1;
  std::uint64_t hole = hash_key(key) & mask;
  while (index_keys_[hole] != key) hole = (hole + 1) & mask;
  // Backward-shift deletion: pull each later entry of the probe run into
  // the hole unless its home slot lies cyclically in (hole, slot].
  for (std::uint64_t slot = (hole + 1) & mask; index_keys_[slot] != kEmptyKey;
       slot = (slot + 1) & mask) {
    const std::uint64_t home = hash_key(index_keys_[slot]) & mask;
    const bool stays = hole <= slot ? hole < home && home <= slot
                                    : hole < home || home <= slot;
    if (stays) continue;
    index_keys_[hole] = index_keys_[slot];
    index_vals_[hole] = index_vals_[slot];
    hole = slot;
  }
  index_keys_[hole] = kEmptyKey;
  index_vals_[hole] = -1;
}

void Graph::rebuild_csr() const {
  const int n = num_vertices();
  csr_off_.assign(n + 1, 0);
  for (const Edge& e : edges_) {
    ++csr_off_[e.u + 1];
    ++csr_off_[e.v + 1];
  }
  for (int v = 0; v < n; ++v) csr_off_[v + 1] += csr_off_[v];
  csr_adj_.resize(2 * edges_.size());
  csr_eport_.resize(2 * edges_.size());
  // Scatter in edge-id order: each endpoint's list fills in the order its
  // edges were added, reproducing the historical adjacency-vector ports.
  // The cursor position *is* the edge's port at that endpoint; recording it
  // here is what makes port_of O(1).
  std::vector<int> cursor(csr_off_.begin(), csr_off_.end() - 1);
  for (EdgeId e = 0; e < static_cast<EdgeId>(edges_.size()); ++e) {
    const Edge& ed = edges_[e];
    csr_eport_[2 * e] = cursor[ed.u] - csr_off_[ed.u];
    csr_adj_[cursor[ed.u]++] = {ed.v, e};
    csr_eport_[2 * e + 1] = cursor[ed.v] - csr_off_[ed.v];
    csr_adj_[cursor[ed.v]++] = {ed.u, e};
  }
  csr_off_.pop_back();  // offsets only; sizes come from deg_
  csr_dirty_ = false;
}

EdgeId Graph::add_edge(VertexId u, VertexId v) {
  check_vertex(u);
  check_vertex(v);
  if (u == v) throw std::invalid_argument("Graph::add_edge: self-loop");
  if (u > v) std::swap(u, v);
  const std::uint64_t key = pack_key(u, v);
  if (index_find(key) >= 0)
    throw std::invalid_argument("Graph::add_edge: duplicate edge");
  const EdgeId e = num_edges();
  edges_.push_back(Edge{u, v});
  index_insert(key, e);
  ++deg_[u];
  ++deg_[v];
  csr_dirty_ = true;
  edge_weights_.push_back(1);
  for (auto& [name, bits] : edge_labels_) bits.push_back(false);
  return e;
}

void Graph::remove_edge(EdgeId e) {
  check_edge(e);
  const Edge ed = edges_[e];
  index_erase(pack_key(ed.u, ed.v));
  for (EdgeId& val : index_vals_)
    if (val > e) --val;
  edges_.erase(edges_.begin() + e);
  edge_weights_.erase(edge_weights_.begin() + e);
  for (auto& [name, bits] : edge_labels_)
    if (e < static_cast<EdgeId>(bits.size())) bits.erase(bits.begin() + e);
  --deg_[ed.u];
  --deg_[ed.v];
  csr_dirty_ = true;
}

EdgeId Graph::ensure_edge(VertexId u, VertexId v) {
  const EdgeId e = edge_id(u, v);
  return e >= 0 ? e : add_edge(u, v);
}

bool Graph::has_edge(VertexId u, VertexId v) const {
  return edge_id(u, v) >= 0;
}

EdgeId Graph::edge_id(VertexId u, VertexId v) const {
  check_vertex(u);
  check_vertex(v);
  if (u > v) std::swap(u, v);
  return index_find(pack_key(u, v));
}

int Graph::port_of(VertexId v, VertexId w) const {
  const EdgeId e = edge_id(v, w);
  if (e < 0) return -1;
  if (csr_dirty_) rebuild_csr();
  return edges_[e].u == v ? csr_eport_[2 * e] : csr_eport_[2 * e + 1];
}

void Graph::set_vertex_label(const std::string& name, VertexId v, bool on) {
  check_vertex(v);
  auto& bits = ensure_label(vertex_labels_, name);
  bits.resize(num_vertices(), false);
  bits[v] = on;
}

void Graph::set_edge_label(const std::string& name, EdgeId e, bool on) {
  check_edge(e);
  auto& bits = ensure_label(edge_labels_, name);
  bits.resize(num_edges(), false);
  bits[e] = on;
}

bool Graph::vertex_has_label(const std::string& name, VertexId v) const {
  check_vertex(v);
  return has_label(vertex_labels_, name, v);
}

bool Graph::edge_has_label(const std::string& name, EdgeId e) const {
  check_edge(e);
  return has_label(edge_labels_, name, e);
}

std::uint32_t Graph::vertex_label_bits(const std::vector<std::string>& names,
                                       VertexId v) const {
  check_vertex(v);
  return label_bits(vertex_labels_, names, v);
}

std::uint32_t Graph::edge_label_bits(const std::vector<std::string>& names,
                                     EdgeId e) const {
  check_edge(e);
  return label_bits(edge_labels_, names, e);
}

std::vector<std::string> Graph::vertex_label_names() const {
  std::vector<std::string> out;
  for (const auto& [name, bits] : vertex_labels_) out.push_back(name);
  return out;
}

std::vector<std::string> Graph::edge_label_names() const {
  std::vector<std::string> out;
  for (const auto& [name, bits] : edge_labels_) out.push_back(name);
  return out;
}

void Graph::set_vertex_weight(VertexId v, Weight w) {
  check_vertex(v);
  vertex_weights_[v] = w;
}

void Graph::set_edge_weight(EdgeId e, Weight w) {
  check_edge(e);
  edge_weights_[e] = w;
}

Weight Graph::vertex_weight(VertexId v) const {
  check_vertex(v);
  return vertex_weights_[v];
}

Weight Graph::edge_weight(EdgeId e) const {
  check_edge(e);
  return edge_weights_[e];
}

Graph Graph::induced_subgraph(const std::vector<VertexId>& vertices,
                              std::vector<VertexId>* old_to_new) const {
  std::vector<VertexId> map(num_vertices(), -1);
  Graph sub(static_cast<int>(vertices.size()));
  for (int i = 0; i < static_cast<int>(vertices.size()); ++i) {
    check_vertex(vertices[i]);
    if (map[vertices[i]] != -1)
      throw std::invalid_argument("induced_subgraph: duplicate vertex");
    map[vertices[i]] = i;
    sub.set_vertex_weight(i, vertex_weight(vertices[i]));
    for (const auto& [name, bits] : vertex_labels_)
      if (vertices[i] < static_cast<int>(bits.size()) && bits[vertices[i]])
        sub.set_vertex_label(name, i);
  }
  for (EdgeId e = 0; e < num_edges(); ++e) {
    const Edge& ed = edges_[e];
    if (map[ed.u] >= 0 && map[ed.v] >= 0) {
      const EdgeId ne = sub.add_edge(map[ed.u], map[ed.v]);
      sub.set_edge_weight(ne, edge_weight(e));
      for (const auto& [name, bits] : edge_labels_)
        if (e < static_cast<int>(bits.size()) && bits[e])
          sub.set_edge_label(name, ne);
    }
  }
  if (old_to_new) *old_to_new = std::move(map);
  return sub;
}

std::size_t Graph::memory_bytes() const {
  std::size_t total = 0;
  total += edges_.size() * sizeof(Edge);
  total += deg_.size() * sizeof(int);
  total += vertex_weights_.size() * sizeof(Weight);
  total += edge_weights_.size() * sizeof(Weight);
  total += index_keys_.size() * sizeof(std::uint64_t);
  total += index_vals_.size() * sizeof(EdgeId);
  if (!csr_dirty_) {
    total += csr_off_.size() * sizeof(int);
    total += csr_adj_.size() * sizeof(std::pair<VertexId, EdgeId>);
    total += csr_eport_.size() * sizeof(int);
  }
  for (const auto& [name, bits] : vertex_labels_)
    total += name.size() + bits.size() / 8;
  for (const auto& [name, bits] : edge_labels_)
    total += name.size() + bits.size() / 8;
  return total;
}

std::string Graph::to_string() const {
  std::ostringstream os;
  os << "Graph(n=" << num_vertices() << ", m=" << num_edges() << ", edges={";
  for (EdgeId e = 0; e < num_edges(); ++e) {
    if (e) os << ", ";
    os << edges_[e].u << "-" << edges_[e].v;
  }
  os << "})";
  return os.str();
}

}  // namespace dmc
