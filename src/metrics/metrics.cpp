#include "metrics/metrics.hpp"

#include <atomic>
#include <ostream>
#include <stdexcept>

namespace dmc::metrics {

namespace {

bool valid_name(std::string_view name) {
  if (name.empty() || name.front() == '.' || name.back() == '.') return false;
  char prev = '.';
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
                    c == '_' || c == '.';
    if (!ok) return false;
    if (c == '.' && prev == '.') return false;
    prev = c;
  }
  return true;
}

const char* kind_name(int kind) {
  switch (kind) {
    case 0:
      return "counter";
    case 1:
      return "gauge";
    default:
      return "histogram";
  }
}

/// "congest.link.round_bits" -> "dmc_congest_link_round_bits".
std::string prometheus_name(const std::string& name) {
  std::string out = "dmc_";
  for (char c : name) out += c == '.' ? '_' : c;
  return out;
}

std::atomic<Registry*> g_registry{nullptr};

}  // namespace

void Histogram::merge(const LocalHistogram& local) {
  if (local.count_ == 0) return;
  for (int i = 0; i < kBuckets; ++i)
    if (local.buckets_[i] != 0)
      buckets_[i].fetch_add(local.buckets_[i], std::memory_order_relaxed);
  count_.fetch_add(local.count_, std::memory_order_relaxed);
  sum_.fetch_add(local.sum_, std::memory_order_relaxed);
  long long cur = max_.load(std::memory_order_relaxed);
  while (cur < local.max_ && !max_.compare_exchange_weak(
                                 cur, local.max_, std::memory_order_relaxed)) {
  }
}

Registry::Entry& Registry::entry(std::string_view name, Kind kind) {
  if (!valid_name(name))
    throw std::invalid_argument(
        "metrics::Registry: invalid metric name '" + std::string(name) +
        "' (want dotted lowercase [a-z0-9_.])");
  std::lock_guard<std::mutex> lk(m_);
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    Entry e;
    e.kind = kind;
    switch (kind) {
      case Kind::kCounter:
        e.counter = std::make_unique<Counter>();
        break;
      case Kind::kGauge:
        e.gauge = std::make_unique<Gauge>();
        break;
      case Kind::kHistogram:
        e.histogram = std::make_unique<Histogram>();
        break;
    }
    it = entries_.emplace(std::string(name), std::move(e)).first;
  } else if (it->second.kind != kind) {
    throw std::invalid_argument(
        "metrics::Registry: metric '" + std::string(name) +
        "' already registered as a " +
        kind_name(static_cast<int>(it->second.kind)) + ", requested as a " +
        kind_name(static_cast<int>(kind)));
  }
  return it->second;
}

Counter& Registry::counter(std::string_view name) {
  return *entry(name, Kind::kCounter).counter;
}

Gauge& Registry::gauge(std::string_view name) {
  return *entry(name, Kind::kGauge).gauge;
}

Histogram& Registry::histogram(std::string_view name) {
  return *entry(name, Kind::kHistogram).histogram;
}

std::size_t Registry::size() const {
  std::lock_guard<std::mutex> lk(m_);
  return entries_.size();
}

void Registry::write_prometheus(std::ostream& out) const {
  std::lock_guard<std::mutex> lk(m_);
  for (const auto& [name, e] : entries_) {
    const std::string pname = prometheus_name(name);
    switch (e.kind) {
      case Kind::kCounter:
        out << "# TYPE " << pname << " counter\n"
            << pname << " " << e.counter->value() << "\n";
        break;
      case Kind::kGauge:
        out << "# TYPE " << pname << " gauge\n"
            << pname << " " << e.gauge->value() << "\n";
        break;
      case Kind::kHistogram: {
        const Histogram& h = *e.histogram;
        out << "# TYPE " << pname << " histogram\n";
        int top = 0;
        for (int i = 0; i < Histogram::kBuckets; ++i)
          if (h.bucket(i) != 0) top = i;
        long long cum = 0;
        for (int i = 0; i <= top; ++i) {
          cum += h.bucket(i);
          out << pname << "_bucket{le=\"" << Histogram::bucket_upper(i)
              << "\"} " << cum << "\n";
        }
        out << pname << "_bucket{le=\"+Inf\"} " << h.count() << "\n"
            << pname << "_sum " << h.sum() << "\n"
            << pname << "_count " << h.count() << "\n"
            // Derived tail fields (log2-bucket upper bounds) so scrapes
            // and bench_gate.py can gate on p50/p95/max directly instead
            // of re-deriving them from the cumulative buckets.
            << pname << "_p50 " << h.p50() << "\n"
            << pname << "_p95 " << h.p95() << "\n"
            << pname << "_max " << h.max() << "\n";
        break;
      }
    }
  }
}

void Registry::write_json_fields(std::ostream& out) const {
  std::lock_guard<std::mutex> lk(m_);
  bool first = true;
  auto field = [&](const std::string& key, long long value) {
    if (!first) out << ",";
    first = false;
    out << "\"" << key << "\":" << value;
  };
  for (const auto& [name, e] : entries_) {
    switch (e.kind) {
      case Kind::kCounter:
        field(name, e.counter->value());
        break;
      case Kind::kGauge:
        field(name, e.gauge->value());
        break;
      case Kind::kHistogram:
        field(name + ".count", e.histogram->count());
        field(name + ".sum", e.histogram->sum());
        field(name + ".max", e.histogram->max());
        field(name + ".p50", e.histogram->p50());
        field(name + ".p95", e.histogram->p95());
        break;
    }
  }
}

Registry* global() { return g_registry.load(std::memory_order_acquire); }

Registry* set_global(Registry* r) {
  return g_registry.exchange(r, std::memory_order_acq_rel);
}

}  // namespace dmc::metrics
