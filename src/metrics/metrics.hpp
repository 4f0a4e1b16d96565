// dmc::metrics — low-overhead aggregate metrics for the simulator stack.
//
// dmc::obs (round-level tracing) answers *where* a particular run spent
// its rounds and bits; this layer answers the always-on aggregate
// questions — how congested is the most loaded link, what fraction of
// frames were retransmits, how often does the compose memo hit — as cheap
// counters that are safe to leave compiled into every hot path.
//
// Three instrument kinds, all lock-free on the update path:
//
//   Counter    monotone 64-bit add (relaxed atomic).
//   Gauge      last-value / running-max 64-bit store.
//   Histogram  fixed log2 buckets (bucket i counts values of bit width i,
//              i.e. 2^(i-1) <= v < 2^i; bucket 0 counts v <= 0) plus
//              count/sum/max — no allocation, no locks, mergeable.
//
// A single-writer producer with a hot loop of its own (the CONGEST
// network's per-round link fold) records into a plain LocalHistogram and
// folds it into the shared Histogram with Histogram::merge at a few
// publish points, so the loop touches no shared atomic.
//
// Instruments live in a Registry under stable dotted names
// ("congest.link.round_bits"); the full name table is in
// docs/OBSERVABILITY.md. Registration takes a mutex and may allocate;
// instrumented code therefore resolves handles once (at construction /
// job start) and the steady-state update path is a single relaxed atomic
// op. Like the obs null-sink contract, a disabled layer (no registry
// configured) skips every metrics branch and performs no allocation —
// tests/metrics_test.cpp pins this with a counting operator new.
//
// Wiring: the CONGEST Network takes a per-instance registry pointer
// (NetworkConfig::metrics, falling back to the process-global registry);
// process-wide layers with no config channel of their own — the BPT
// engine, the universe cache — read metrics::global(), which is null
// (disabled) unless a driver such as `dmc --metrics` installs one.
//
// Exporters: write_prometheus (text exposition format, names prefixed
// dmc_ with dots mapped to underscores) and write_json_fields (flat
// `"name":value` pairs for embedding into DMC_BENCH_JSON rows).
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <iosfwd>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

namespace dmc::metrics {

class LocalHistogram;

class Counter {
 public:
  void add(long long delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  long long value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<long long> value_{0};
};

class Gauge {
 public:
  void set(long long v) { value_.store(v, std::memory_order_relaxed); }
  /// Raises the gauge to v if v is larger (lock-free running max).
  void max_of(long long v) {
    long long cur = value_.load(std::memory_order_relaxed);
    while (cur < v && !value_.compare_exchange_weak(
                          cur, v, std::memory_order_relaxed)) {
    }
  }
  long long value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<long long> value_{0};
};

class Histogram {
 public:
  static constexpr int kBuckets = 64;

  /// Bucket index of a value: 0 for v <= 0, otherwise bit_width(v)
  /// clamped to kBuckets - 1 — so bucket i >= 1 covers [2^(i-1), 2^i).
  static int bucket_of(long long v) {
    if (v <= 0) return 0;
    const int w = std::bit_width(static_cast<std::uint64_t>(v));
    return w < kBuckets ? w : kBuckets - 1;
  }
  /// Inclusive upper edge of bucket i (0 for bucket 0, 2^i - 1 otherwise;
  /// the last bucket is unbounded).
  static long long bucket_upper(int i) {
    if (i <= 0) return 0;
    if (i >= kBuckets - 1) return std::numeric_limits<long long>::max();
    return (1LL << i) - 1;
  }

  void record(long long v) {
    buckets_[bucket_of(v)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v > 0 ? v : 0, std::memory_order_relaxed);
    long long cur = max_.load(std::memory_order_relaxed);
    while (cur < v &&
           !max_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }

  /// Folds a local histogram's samples in, as if each had been recorded
  /// here.
  void merge(const LocalHistogram& local);

  long long count() const { return count_.load(std::memory_order_relaxed); }
  long long sum() const { return sum_.load(std::memory_order_relaxed); }
  long long max() const { return max_.load(std::memory_order_relaxed); }
  long long bucket(int i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }

  /// Derived quantile estimate: the inclusive upper edge of the smallest
  /// bucket whose cumulative count reaches rank ceil(q * count). The log2
  /// buckets make this an upper bound within 2x of the true quantile —
  /// plenty for tail-latency gating. The top (unbounded) bucket reports
  /// the observed max instead of an edge. 0 when empty.
  long long quantile(double q) const {
    const long long n = count();
    if (n <= 0) return 0;
    long long rank = static_cast<long long>(q * static_cast<double>(n));
    if (static_cast<double>(rank) < q * static_cast<double>(n)) ++rank;
    if (rank < 1) rank = 1;
    if (rank > n) rank = n;
    long long cum = 0;
    for (int i = 0; i < kBuckets; ++i) {
      cum += bucket(i);
      if (cum >= rank)
        return i >= kBuckets - 1 ? max() : bucket_upper(i);
    }
    return max();  // racy concurrent records: fall back to the max
  }
  long long p50() const { return quantile(0.50); }
  long long p95() const { return quantile(0.95); }

 private:
  std::array<std::atomic<long long>, kBuckets> buckets_{};
  std::atomic<long long> count_{0};
  std::atomic<long long> sum_{0};
  std::atomic<long long> max_{0};
};

/// Unsynchronized twin of Histogram (same buckets, count, sum and max) for
/// one writer. Fold it into a shared Histogram with Histogram::merge.
class LocalHistogram {
 public:
  void record(long long v) {
    buckets_[Histogram::bucket_of(v)] += 1;
    count_ += 1;
    sum_ += v > 0 ? v : 0;
    max_ = v > max_ ? v : max_;
  }
  void clear() { *this = LocalHistogram{}; }

 private:
  friend class Histogram;
  std::array<long long, Histogram::kBuckets> buckets_{};
  long long count_ = 0;
  long long sum_ = 0;
  long long max_ = 0;
};

/// Named instrument store. Names are stable dotted lowercase identifiers
/// ([a-z0-9_.], no leading/trailing/double dots); re-requesting a name
/// returns the same instrument, requesting it as a different kind throws.
/// Lookup takes a mutex — resolve handles once, outside hot loops.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);

  /// Number of registered instruments.
  std::size_t size() const;

  /// Prometheus text exposition format: one family per instrument,
  /// "dmc_" prefix, dots mapped to underscores, histograms as cumulative
  /// le-labelled buckets plus _sum/_count and derived _p50/_p95/_max
  /// gauges (log2-bucket upper bounds; see Histogram::quantile).
  void write_prometheus(std::ostream& out) const;

  /// Flat JSON fields (no surrounding braces): "name":value for counters
  /// and gauges, "name.count"/"name.sum"/"name.max" plus derived
  /// "name.p50"/"name.p95" for histograms — ready to splice into a
  /// DMC_BENCH_JSON row and gate on with tools/bench_gate.py.
  void write_json_fields(std::ostream& out) const;

 private:
  enum class Kind : std::uint8_t { kCounter, kGauge, kHistogram };
  struct Entry {
    Kind kind;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  Entry& entry(std::string_view name, Kind kind);

  mutable std::mutex m_;
  std::map<std::string, Entry, std::less<>> entries_;
};

/// Process-global registry used by layers without a config channel (the
/// BPT engine, the universe cache) and as the fallback for
/// NetworkConfig::metrics. Null by default: metrics disabled everywhere.
Registry* global();
/// Installs `r` as the global registry; returns the previous one.
/// Not synchronized with concurrent instrumented code — install before
/// spawning work, as the dmc CLI does at startup.
Registry* set_global(Registry* r);

}  // namespace dmc::metrics
