#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <functional>
#include <stdexcept>

namespace perfbench {

void RunResult::fail(const std::string& why) {
  ++failed;
  if (notes.size() < 8) notes.push_back("failed: " + why);
}

double quantile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0;
  std::sort(xs.begin(), xs.end());
  const double pos = q * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  return xs[lo] + (xs[hi] - xs[lo]) * (pos - static_cast<double>(lo));
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

Reference::Reference() : adj_(50000) {
  std::mt19937 rng(11);
  const int n = static_cast<int>(adj_.size());
  for (int v = 1; v < n; ++v) {  // a random tree, then n random chords
    const int u = static_cast<int>(rng() % v);
    adj_[u].push_back(v);
    adj_[v].push_back(u);
  }
  for (int e = 0; e < n; ++e) {
    const int u = static_cast<int>(rng() % n), v = static_cast<int>(rng() % n);
    adj_[u].push_back(v);
    adj_[v].push_back(u);
  }
  dist_.resize(n);
  queue_.reserve(n);
}

double Reference::sample_ms() {
  const auto t0 = SteadyClock::now();
  std::fill(dist_.begin(), dist_.end(), -1);
  queue_.clear();
  queue_.push_back(0);
  dist_[0] = 0;
  for (std::size_t head = 0; head < queue_.size(); ++head) {
    const int x = queue_[head];
    for (const int y : adj_[x])
      if (dist_[y] < 0) {
        dist_[y] = dist_[x] + 1;
        queue_.push_back(y);
      }
  }
  const double ms = ms_since(t0);
  if (queue_.size() != adj_.size()) std::abort();  // connected by design
  return ms;
}

void add_end_to_end(RunResult& r, const Timing& t, const Counts& counts) {
  const auto ops = static_cast<double>(t.latencies_ms.size());
  r.add("setup_s", median(t.setup_s), "s");
  r.add("latency_p50_rel", median(t.relative), "x");
  r.add("ok_share",
        r.attempted > 0
            ? static_cast<double>(r.attempted - r.failed) / r.attempted
            : 0,
        "ratio");
  r.add("peak_rss_mb", peak_rss_mb(), "MiB");
  r.add("rounds", static_cast<double>(counts.rounds), "count");
  r.add("messages", static_cast<double>(counts.messages), "count");
  r.add("bits", static_cast<double>(counts.bits), "bits");
  r.add("max_msg_bits", static_cast<double>(counts.max_msg_bits), "bits");

  r.extra("ops", ops, "count");
  r.extra("latency_p50_ms", median(t.latencies_ms), "ms");
  r.extra("ops_per_s", t.timed_s > 0 ? ops / t.timed_s : 0, "1/s");
  r.extra("failed_share",
          r.attempted > 0 ? static_cast<double>(r.failed) / r.attempted : 0,
          "ratio");
  if (t.latencies_ms.size() >= 100)
    r.extra("latency_p90_ms", quantile(t.latencies_ms, 0.9), "ms");
}

std::mt19937_64 workload_rng(std::uint64_t seed, const std::string& workload) {
  std::seed_seq seq{static_cast<std::uint32_t>(seed),
                    static_cast<std::uint32_t>(seed >> 32),
                    static_cast<std::uint32_t>(std::hash<std::string>{}(workload))};
  return std::mt19937_64(seq);
}

bool has_triangle(const dmc::Graph& g) {
  for (dmc::VertexId u = 0; u < g.num_vertices(); ++u)
    for (const dmc::VertexId v : g.neighbors(u)) {
      if (v <= u) continue;
      for (const dmc::VertexId w : g.neighbors(v))
        if (w > v && g.has_edge(u, w)) return true;
    }
  return false;
}

BptSnapshot BptSnapshot::take(dmc::metrics::Registry& reg) {
  BptSnapshot s;
  s.folds = reg.counter("bpt.folds").value();
  s.fold_ns = reg.counter("bpt.fold.wall_ns").value();
  s.hc_hits = reg.counter("bpt.hashcons.hits").value();
  s.hc_misses = reg.counter("bpt.hashcons.misses").value();
  s.compose_calls = reg.counter("bpt.compose.calls").value();
  s.memo_hits = reg.counter("bpt.compose.memo_hits").value();
  s.types = reg.gauge("bpt.types").value();
  return s;
}

void add_bpt_layer(RunResult& r, const BptSnapshot& before,
                   const BptSnapshot& now) {
  const auto ratio = [](long long num, long long den) {
    return den > 0 ? static_cast<double>(num) / static_cast<double>(den) : 0.0;
  };
  const long long folds = now.folds - before.folds;
  const long long hits = now.hc_hits - before.hc_hits;
  r.add("bpt.folds", static_cast<double>(folds), "count");
  r.add("bpt.fold_ns_per_fold", ratio(now.fold_ns - before.fold_ns, folds),
        "ns");
  r.add("bpt.hashcons_hit_ratio",
        ratio(hits, hits + now.hc_misses - before.hc_misses), "ratio");
  // compose.calls counts the compositions the memo did not answer.
  const long long memo_hits = now.memo_hits - before.memo_hits;
  r.add("bpt.compose_memo_hit_ratio",
        ratio(memo_hits,
              memo_hits + now.compose_calls - before.compose_calls),
        "ratio");
  r.add("bpt.types", static_cast<double>(now.types), "count");
}

Tracer::Scope::Scope(Tracer& t, std::string name, int op)
    : t_(t), index_(static_cast<int>(t.spans_.size())) {
  Span s;
  s.name = std::move(name);
  s.parent = t.open_.empty() ? -1 : t.open_.back();
  s.op = op >= 0 || s.parent < 0 ? op : t.spans_[s.parent].op;
  s.start_ns = t.now_ns();
  t.spans_.push_back(std::move(s));
  t.open_.push_back(index_);
}

Tracer::Scope::~Scope() {
  t_.spans_[index_].end_ns = t_.now_ns();
  t_.open_.pop_back();
}

double Tracer::Scope::elapsed_ms() const {
  return static_cast<double>(t_.now_ns() - t_.spans_[index_].start_ns) / 1e6;
}

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             SteadyClock::now() - epoch_)
      .count();
}

std::vector<double> Tracer::self_ms(const std::string& name) const {
  // Children nest strictly inside their parent (single thread), so the
  // covered part of a span is the sum of its children's durations.
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_)
    if (s.parent >= 0) child_ns[s.parent] += s.end_ns - s.start_ns;
  std::vector<double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i)
    if (spans_[i].name == name)
      out.push_back(static_cast<double>(spans_[i].end_ns - spans_[i].start_ns -
                                        child_ns[i]) /
                    1e6);
  return out;
}

std::vector<double> Tracer::total_ms(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_)
    if (s.name == name)
      out.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e6);
  return out;
}

void add_layers(RunResult& r, const Layers& l) {
  r.add("graph.build_ms", median(l.graph_build_ms), "ms");
  r.add("graph.bytes_per_vertex", median(l.bytes_per_vertex), "bytes");
  r.add("congest.net_build_ms", median(l.net_build_ms), "ms");
  r.add("dist.elim_tree_ms", median(l.elim_ms), "ms");
  r.add("dist.elim_tree_messages", median(l.elim_messages), "count");
  r.add("dist.elim_tree_ns_per_msg", median(l.elim_ns_per_msg), "ns");
  r.add("dist.bags_ms", median(l.bags_ms), "ms");
  r.add("dist.bags_bits", median(l.bags_bits), "bits");
  r.add("dist.bags_ns_per_msg", median(l.bags_ns_per_msg), "ns");
  r.add("dist.solve_ms", median(l.solve_ms), "ms");
}

Prologue run_prologue(Tracer& tracer, dmc::congest::Network& net, int d,
                      const std::vector<std::string>& vlabels,
                      const std::vector<std::string>& elabels,
                      Layers& layers) {
  Prologue p;
  {
    Tracer::Scope s(tracer, "dist.elim_tree");
    p.tree = dmc::dist::run_elim_tree(net, d);
  }
  const dmc::congest::NetworkStats after_elim = net.stats();
  if (!p.tree.run.ok() || !p.tree.success)
    throw std::runtime_error("elimination tree did not complete");
  {
    Tracer::Scope s(tracer, "dist.bags");
    p.bags = dmc::dist::run_bags(net, p.tree, vlabels, elabels);
  }
  const dmc::congest::NetworkStats after_bags = net.stats();
  if (!p.bags.run.ok()) throw std::runtime_error("bags did not complete");
  const double elim_ms = tracer.self_ms("dist.elim_tree").back();
  const double bags_ms = tracer.self_ms("dist.bags").back();
  const long long bags_msgs = after_bags.messages - after_elim.messages;
  layers.elim_ms.push_back(elim_ms);
  layers.elim_messages.push_back(static_cast<double>(after_elim.messages));
  layers.elim_ns_per_msg.push_back(
      elim_ms * 1e6 / std::max<long long>(1, after_elim.messages));
  layers.bags_ms.push_back(bags_ms);
  layers.bags_bits.push_back(
      static_cast<double>(after_bags.total_bits - after_elim.total_bits));
  layers.bags_ns_per_msg.push_back(bags_ms * 1e6 /
                                   std::max<long long>(1, bags_msgs));
  return p;
}

std::string Tracer::to_jsonl() const {
  std::string out;
  for (const Span& s : spans_)
    out += "{\"name\": \"" + s.name + "\", \"start_ns\": " +
           std::to_string(s.start_ns) + ", \"end_ns\": " +
           std::to_string(s.end_ns) + ", \"parent\": " +
           std::to_string(s.parent) + ", \"op\": " + std::to_string(s.op) +
           "}\n";
  return out;
}

}  // namespace perfbench
