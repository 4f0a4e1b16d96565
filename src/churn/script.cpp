#include "churn/script.hpp"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <numeric>
#include <stdexcept>

#include "congest/wire.hpp"

namespace dmc::churn {

namespace {

[[noreturn]] void bad_spec(std::string_view spec, const std::string& why) {
  throw std::invalid_argument("bad churn script \"" + std::string(spec) +
                              "\": " + why);
}

long parse_long(std::string_view spec, std::string_view key,
                std::string_view value) {
  long v = 0;
  const auto res =
      std::from_chars(value.data(), value.data() + value.size(), v);
  if (res.ec != std::errc{} || res.ptr != value.data() + value.size())
    bad_spec(spec, std::string(key) + " wants an integer, got \"" +
                       std::string(value) + "\"");
  return v;
}

VertexId parse_vertex(std::string_view spec, std::string_view key,
                      std::string_view value) {
  const long v = parse_long(spec, key, value);
  if (v < 0) bad_spec(spec, std::string(key) + " wants a vertex id >= 0");
  return static_cast<VertexId>(v);
}

/// "U-V" -> endpoints.
std::pair<VertexId, VertexId> parse_pair(std::string_view spec,
                                         std::string_view key,
                                         std::string_view value) {
  const std::size_t dash = value.find('-');
  if (dash == std::string_view::npos)
    bad_spec(spec, std::string(key) + " wants U-V, got \"" +
                       std::string(value) + "\"");
  return {parse_vertex(spec, key, value.substr(0, dash)),
          parse_vertex(spec, key, value.substr(dash + 1))};
}

/// True iff the graph stays connected (over >= 1 vertex) when `skip_vertex`
/// is removed.
bool connected_without_vertex(const Graph& g, VertexId skip_vertex) {
  const int n = g.num_vertices();
  if (n <= 1) return false;
  const VertexId start = skip_vertex == 0 ? 1 : 0;
  std::vector<char> seen(n, 0);
  std::vector<VertexId> stack{start};
  seen[start] = 1;
  int reached = 1;
  while (!stack.empty()) {
    const VertexId v = stack.back();
    stack.pop_back();
    for (VertexId w : g.neighbors(v)) {
      if (w == skip_vertex || seen[w]) continue;
      seen[w] = 1;
      ++reached;
      stack.push_back(w);
    }
  }
  return reached == n - 1;
}

/// True iff the (connected) graph stays connected without edge `skip`,
/// i.e. its endpoints still reach each other. The breadth-first search
/// stops at the other endpoint, so a chord costs its neighborhood, not n.
bool connected_without_edge(const Graph& g, EdgeId skip) {
  const Edge ends = g.edge(skip);
  std::vector<char> seen(g.num_vertices(), 0);
  std::vector<VertexId> queue{ends.u};
  seen[ends.u] = 1;
  for (std::size_t head = 0; head < queue.size(); ++head) {
    for (auto [w, e] : g.incident(queue[head])) {
      if (e == skip || seen[w]) continue;
      if (w == ends.v) return true;
      seen[w] = 1;
      queue.push_back(w);
    }
  }
  return false;
}

[[noreturn]] void bad_event(const ChurnEvent& event, const std::string& why) {
  throw std::invalid_argument("churn event " + format_event(event) + ": " +
                              why);
}

using Pair = std::pair<VertexId, VertexId>;

/// Applies one event to `g`. `old_to_new` composes the batch's vertex
/// mapping through deletions; `touched` collects, in current ids, every
/// pair whose edge the event adds or deletes.
void apply_event(Graph& g, const ChurnEvent& event,
                 std::vector<VertexId>& old_to_new,
                 std::vector<Pair>& touched) {
  const int n = g.num_vertices();
  auto check_vertex = [&](VertexId v) {
    if (v < 0 || v >= n) bad_event(event, "no such vertex");
  };
  switch (event.kind) {
    case ChurnEvent::Kind::kAddEdge: {
      check_vertex(event.u);
      check_vertex(event.v);
      if (event.u == event.v) bad_event(event, "self-loop");
      if (g.has_edge(event.u, event.v)) bad_event(event, "edge exists");
      g.add_edge(event.u, event.v);
      touched.emplace_back(event.u, event.v);
      break;
    }
    case ChurnEvent::Kind::kDelEdge: {
      check_vertex(event.u);
      check_vertex(event.v);
      const EdgeId e = g.edge_id(event.u, event.v);
      if (e < 0) bad_event(event, "no such edge");
      if (!connected_without_edge(g, e))
        bad_event(event, "would disconnect the graph");
      g.remove_edge(e);
      touched.emplace_back(event.u, event.v);
      break;
    }
    case ChurnEvent::Kind::kAddVertex: {
      if (event.neighbors.empty())
        bad_event(event, "needs at least one neighbor");
      for (VertexId nb : event.neighbors) check_vertex(nb);
      const VertexId w = g.add_vertices(1);
      for (VertexId nb : event.neighbors) {
        if (g.has_edge(w, nb)) bad_event(event, "duplicate neighbor");
        g.add_edge(w, nb);
        touched.emplace_back(w, nb);
      }
      old_to_new.push_back(-1);  // padding: the new vertex has no old id
      break;
    }
    case ChurnEvent::Kind::kDelVertex: {
      check_vertex(event.u);
      if (n <= 2) bad_event(event, "graph too small");
      if (!connected_without_vertex(g, event.u))
        bad_event(event, "would disconnect the graph");
      std::vector<VertexId> keep;
      for (VertexId v = 0; v < n; ++v)
        if (v != event.u) keep.push_back(v);
      std::vector<VertexId> map;
      g = g.induced_subgraph(keep, &map);
      // Compose into the batch-level mapping (old ids may already have been
      // renumbered by earlier deletions in this batch).
      for (VertexId& m : old_to_new)
        if (m >= 0) m = map[m];
      std::erase_if(touched, [&](Pair& p) {
        p = {map[p.first], map[p.second]};
        return p.first < 0 || p.second < 0;
      });
      break;
    }
  }
}

std::uint64_t mix(std::uint64_t seed, std::uint64_t a, std::uint64_t b,
                  std::uint64_t c) {
  return audit::mix64(audit::mix64(audit::mix64(seed, a), b), c);
}

}  // namespace

const char* to_string(ChurnEvent::Kind kind) {
  switch (kind) {
    case ChurnEvent::Kind::kAddEdge: return "add";
    case ChurnEvent::Kind::kDelEdge: return "del";
    case ChurnEvent::Kind::kAddVertex: return "addv";
    case ChurnEvent::Kind::kDelVertex: return "delv";
  }
  return "?";
}

std::string format_event(const ChurnEvent& event) {
  char buf[64];
  switch (event.kind) {
    case ChurnEvent::Kind::kAddEdge:
    case ChurnEvent::Kind::kDelEdge:
      std::snprintf(buf, sizeof(buf), "%s=%d-%d", to_string(event.kind),
                    event.u, event.v);
      return buf;
    case ChurnEvent::Kind::kDelVertex:
      std::snprintf(buf, sizeof(buf), "delv=%d", event.u);
      return buf;
    case ChurnEvent::Kind::kAddVertex: {
      std::string out = "addv=";
      for (std::size_t i = 0; i < event.neighbors.size(); ++i) {
        if (i > 0) out += '+';
        out += std::to_string(event.neighbors[i]);
      }
      return out;
    }
  }
  return "?";
}

ChurnScript parse_churn_script(std::string_view spec) {
  ChurnScript script;
  bool seen_random = false, seen_seed = false, seen_verify = false;
  std::string_view rest = spec;
  std::vector<ChurnEvent> batch;
  auto flush_batch = [&] {
    if (!batch.empty()) script.batches.push_back(std::move(batch));
    batch.clear();
  };
  while (!rest.empty()) {
    const std::size_t sep = rest.find_first_of(",;");
    std::string_view item = rest.substr(0, sep);
    const bool batch_break =
        sep != std::string_view::npos && rest[sep] == ';';
    rest = sep == std::string_view::npos ? std::string_view{}
                                         : rest.substr(sep + 1);
    if (!item.empty()) {
      const std::size_t eq = item.find('=');
      if (eq == std::string_view::npos)
        bad_spec(spec, "\"" + std::string(item) + "\" is not key=value");
      const std::string_view key = item.substr(0, eq);
      const std::string_view value = item.substr(eq + 1);
      if (key == "add" || key == "del") {
        ChurnEvent e;
        e.kind = key == "add" ? ChurnEvent::Kind::kAddEdge
                              : ChurnEvent::Kind::kDelEdge;
        std::tie(e.u, e.v) = parse_pair(spec, key, value);
        if (e.u == e.v) bad_spec(spec, std::string(key) + " is a self-loop");
        batch.push_back(std::move(e));
      } else if (key == "delv") {
        ChurnEvent e;
        e.kind = ChurnEvent::Kind::kDelVertex;
        e.u = parse_vertex(spec, key, value);
        batch.push_back(std::move(e));
      } else if (key == "addv") {
        ChurnEvent e;
        e.kind = ChurnEvent::Kind::kAddVertex;
        std::string_view nbrs = value;
        while (!nbrs.empty()) {
          const std::size_t plus = nbrs.find('+');
          e.neighbors.push_back(
              parse_vertex(spec, key, nbrs.substr(0, plus)));
          nbrs = plus == std::string_view::npos ? std::string_view{}
                                                : nbrs.substr(plus + 1);
        }
        if (e.neighbors.empty())
          bad_spec(spec, "addv wants at least one neighbor");
        for (std::size_t i = 0; i < e.neighbors.size(); ++i)
          for (std::size_t j = i + 1; j < e.neighbors.size(); ++j)
            if (e.neighbors[i] == e.neighbors[j])
              bad_spec(spec, "addv repeats a neighbor");
        batch.push_back(std::move(e));
      } else if (key == "random") {
        if (seen_random) bad_spec(spec, "duplicate key \"random\"");
        seen_random = true;
        const long k = parse_long(spec, key, value);
        if (k < 0 || k > 100000) bad_spec(spec, "random must be in 0..100000");
        script.random_events = static_cast<int>(k);
      } else if (key == "seed") {
        if (seen_seed) bad_spec(spec, "duplicate key \"seed\"");
        seen_seed = true;
        const long v = parse_long(spec, key, value);
        if (v < 0) bad_spec(spec, "seed must be >= 0");
        script.seed = static_cast<std::uint64_t>(v);
      } else if (key == "verify") {
        if (seen_verify) bad_spec(spec, "duplicate key \"verify\"");
        seen_verify = true;
        if (value == "on")
          script.verify = true;
        else if (value == "off")
          script.verify = false;
        else
          bad_spec(spec, "verify must be on or off");
      } else {
        bad_spec(spec, "unknown key \"" + std::string(key) + "\"");
      }
    }
    if (batch_break) flush_batch();
  }
  flush_batch();
  if (script.empty()) bad_spec(spec, "no events");
  return script;
}

std::string format_churn_script(const ChurnScript& script) {
  std::string out;
  for (std::size_t b = 0; b < script.batches.size(); ++b) {
    if (b > 0) out += ';';
    for (std::size_t i = 0; i < script.batches[b].size(); ++i) {
      if (i > 0) out += ',';
      out += format_event(script.batches[b][i]);
    }
  }
  auto add = [&](const std::string& item) {
    if (!out.empty()) out += ',';
    out += item;
  };
  if (script.random_events > 0)
    add("random=" + std::to_string(script.random_events));
  add("seed=" + std::to_string(script.seed));
  if (!script.verify) add("verify=off");
  return out;
}

namespace {

/// new -> old vertex ids (-1 for fresh vertices) of an old_to_new mapping.
std::vector<VertexId> invert(const std::vector<VertexId>& old_to_new,
                             int n_new) {
  std::vector<VertexId> new_to_old(n_new, -1);
  for (VertexId v = 0; v < static_cast<VertexId>(old_to_new.size()); ++v)
    if (old_to_new[v] >= 0) new_to_old[old_to_new[v]] = v;
  return new_to_old;
}

void sort_pairs(std::vector<Pair>& pairs) {
  for (Pair& p : pairs)
    if (p.first > p.second) std::swap(p.first, p.second);
  std::sort(pairs.begin(), pairs.end());
  pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());
}

}  // namespace

Graph apply_batch(const Graph& g, const std::vector<ChurnEvent>& batch,
                  std::vector<VertexId>* old_to_new, EdgeDelta* delta) {
  Graph out = g;
  std::vector<VertexId> work(g.num_vertices());
  std::iota(work.begin(), work.end(), 0);
  // apply_event pads `work` for added vertices (kept -1: a fresh vertex has
  // no old-graph id); entries for the original vertices stay composed
  // through deletions' renumbering.
  std::vector<Pair> touched;
  for (const ChurnEvent& event : batch)
    apply_event(out, event, work, touched);
  work.resize(g.num_vertices());  // drop padding for added vertices
  if (delta != nullptr) {
    // Only touched pairs can differ; classify each by both graphs.
    sort_pairs(touched);
    const std::vector<VertexId> new_to_old = invert(work, out.num_vertices());
    *delta = {};
    for (const auto& [a, b] : touched) {
      const VertexId oa = new_to_old[a], ob = new_to_old[b];
      const bool before = oa >= 0 && ob >= 0 && g.has_edge(oa, ob);
      const bool after = out.has_edge(a, b);
      if (after && !before) delta->inserted.emplace_back(a, b);
      if (before && !after) delta->deleted.emplace_back(a, b);
    }
  }
  if (old_to_new != nullptr) *old_to_new = std::move(work);
  return out;
}

EdgeDelta edge_delta(const Graph& old_g, const Graph& new_g,
                     const std::vector<VertexId>& old_to_new) {
  const std::vector<VertexId> new_to_old =
      invert(old_to_new, new_g.num_vertices());
  EdgeDelta delta;
  for (const Edge& e : old_g.edges()) {
    const VertexId a = old_to_new[e.u], b = old_to_new[e.v];
    if (a >= 0 && b >= 0 && !new_g.has_edge(a, b))
      delta.deleted.emplace_back(a, b);
  }
  for (const Edge& e : new_g.edges()) {
    const VertexId oa = new_to_old[e.u], ob = new_to_old[e.v];
    if (oa < 0 || ob < 0 || !old_g.has_edge(oa, ob))
      delta.inserted.emplace_back(e.u, e.v);
  }
  sort_pairs(delta.inserted);
  sort_pairs(delta.deleted);
  return delta;
}

ChurnEvent random_event(const Graph& g, std::uint64_t seed, int index) {
  const int n = g.num_vertices();
  if (n < 2)
    throw std::invalid_argument("churn::random_event: graph too small");
  for (std::uint64_t attempt = 0; attempt < 64; ++attempt) {
    const std::uint64_t kind =
        mix(seed, static_cast<std::uint64_t>(index), attempt, 1) % 4;
    ChurnEvent e;
    if (kind == 0) {  // add edge
      const std::uint64_t h =
          mix(seed, static_cast<std::uint64_t>(index), attempt, 2);
      e.kind = ChurnEvent::Kind::kAddEdge;
      e.u = static_cast<VertexId>(h % n);
      e.v = static_cast<VertexId>((h >> 32) % n);
      if (e.u == e.v || g.has_edge(e.u, e.v)) continue;
      return e;
    }
    if (kind == 1) {  // delete a non-bridge edge
      if (g.num_edges() == 0) continue;
      const std::uint64_t h =
          mix(seed, static_cast<std::uint64_t>(index), attempt, 3);
      const EdgeId edge = static_cast<EdgeId>(h % g.num_edges());
      if (!connected_without_edge(g, edge)) continue;
      e.kind = ChurnEvent::Kind::kDelEdge;
      e.u = g.edge(edge).u;
      e.v = g.edge(edge).v;
      return e;
    }
    if (kind == 2) {  // add a vertex with 1..3 distinct neighbors
      const std::uint64_t h =
          mix(seed, static_cast<std::uint64_t>(index), attempt, 4);
      e.kind = ChurnEvent::Kind::kAddVertex;
      const int want = 1 + static_cast<int>(h % 3);
      for (int i = 0; i < want; ++i) {
        const auto nb = static_cast<VertexId>(
            mix(seed, static_cast<std::uint64_t>(index), attempt,
                5 + static_cast<std::uint64_t>(i)) %
            n);
        bool dup = false;
        for (VertexId prev : e.neighbors) dup = dup || prev == nb;
        if (!dup) e.neighbors.push_back(nb);
      }
      return e;
    }
    // delete a non-cut vertex
    if (n <= 2) continue;
    const std::uint64_t h =
        mix(seed, static_cast<std::uint64_t>(index), attempt, 6);
    const auto w = static_cast<VertexId>(h % n);
    if (!connected_without_vertex(g, w)) continue;
    e.kind = ChurnEvent::Kind::kDelVertex;
    e.u = w;
    return e;
  }
  // Every draw failed (pathological graphs): attach a fresh leaf to vertex
  // 0 — always valid.
  ChurnEvent e;
  e.kind = ChurnEvent::Kind::kAddVertex;
  e.neighbors = {0};
  return e;
}

}  // namespace dmc::churn
