#include "dist/local.hpp"

#include <algorithm>
#include <cstdint>
#include <stdexcept>

namespace dmc::dist {

std::size_t PlanCache::KeyHash::operator()(const std::vector<int>& key) const {
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a over whole ints
  for (int x : key)
    h = (h ^ static_cast<std::uint32_t>(x)) * 0x100000001b3ull;
  return static_cast<std::size_t>(h);
}

std::shared_ptr<const bpt::Plan> PlanCache::plan_for(
    const Graph& g, const std::vector<VertexId>& bag_local,
    const std::vector<VertexId>& children_local) {
  key_.clear();
  key_.push_back(g.num_vertices());
  key_.push_back(static_cast<int>(bag_local.size()));
  key_.insert(key_.end(), bag_local.begin(), bag_local.end());
  key_.push_back(g.num_edges());
  for (const Edge& e : g.edges()) {
    key_.push_back(e.u);
    key_.push_back(e.v);
  }
  key_.push_back(static_cast<int>(children_local.size()));
  key_.insert(key_.end(), children_local.begin(), children_local.end());
  if (const auto it = plans_.find(key_); it != plans_.end()) return it->second;
  // Child bags: B_child = B_self ∪ {child} (canonical decomposition).
  std::vector<std::vector<VertexId>> child_bags;
  child_bags.reserve(children_local.size());
  for (VertexId c : children_local) {
    std::vector<VertexId> cb = bag_local;
    cb.insert(std::upper_bound(cb.begin(), cb.end(), c), c);
    child_bags.push_back(std::move(cb));
  }
  auto plan = std::make_shared<const bpt::Plan>(
      bpt::build_node_plan(g, bag_local, child_bags));
  plans_.emplace(key_, plan);
  return plan;
}

int LocalContext::local_of(VertexId global_id) const {
  auto it = std::lower_bound(globals.begin(), globals.end(), global_id);
  if (it == globals.end() || *it != global_id)
    throw std::invalid_argument("LocalContext: unknown global id");
  return static_cast<int>(it - globals.begin());
}

LocalContext make_local_context(
    const LocalBag& bag, const std::vector<VertexId>& children_global_ids,
    const std::vector<std::string>& vlabel_names,
    const std::vector<std::string>& elabel_names, PlanCache& plans) {
  LocalContext ctx;
  // Local universe: bag members plus children ids, ascending (order-
  // preserving, so ascending local == ascending global).
  ctx.globals = bag.bag;
  for (VertexId c : children_global_ids) ctx.globals.push_back(c);
  std::sort(ctx.globals.begin(), ctx.globals.end());
  ctx.globals.erase(std::unique(ctx.globals.begin(), ctx.globals.end()),
                    ctx.globals.end());
  ctx.graph = Graph(static_cast<int>(ctx.globals.size()));
  // Bag members carry weights and labels.
  for (std::size_t i = 0; i < bag.bag.size(); ++i) {
    const int li = ctx.local_of(bag.bag[i]);
    ctx.bag_local.push_back(li);
    ctx.graph.set_vertex_weight(li, bag.weights[i]);
    for (std::size_t l = 0; l < vlabel_names.size(); ++l)
      if (bag.vlabel_bits[i] & (1u << l))
        ctx.graph.set_vertex_label(vlabel_names[l], li);
  }
  std::sort(ctx.bag_local.begin(), ctx.bag_local.end());
  for (const auto& e : bag.edges) {
    const int a = ctx.local_of(bag.bag[e.i]);
    const int b = ctx.local_of(bag.bag[e.j]);
    const EdgeId id = ctx.graph.add_edge(a, b);
    ctx.graph.set_edge_weight(id, e.weight);
    for (std::size_t l = 0; l < elabel_names.size(); ++l)
      if (e.elabel_bits & (1u << l)) ctx.graph.set_edge_label(elabel_names[l], id);
  }
  std::vector<VertexId> children_local;
  children_local.reserve(children_global_ids.size());
  for (VertexId c : children_global_ids)
    children_local.push_back(ctx.local_of(c));
  ctx.plan = plans.plan_for(ctx.graph, ctx.bag_local, children_local);
  return ctx;
}

}  // namespace dmc::dist
