// In-process tier over the persistent universe cache.
//
// The DMCU files (universe_cache.hpp) make *repeated processes* warm; this
// tier makes *later queries inside one process* warm. It maps the cache
// key — (printed lowered formula, engine config) — to one live Engine
// that outlives its leases.
//
// Lifecycle contract: leases are exclusive. acquire() waits until no
// other lease holds the key, then returns the engine; the caller is its
// only writer (the Engine is single-writer) until the matching release().
// A missing engine is built, or warm-loaded from its DMCU backing file,
// inside the acquire that finds it missing, while that acquire holds the
// key — so construction is single-flight and nobody observes a
// half-loaded engine. release() write-back-persists the engine to its
// DMCU file when the interner grew since the last save, still holding
// the key, and then frees it. Holding the raw engine pointer past
// release() is undefined, and a thread that acquires a key it already
// holds waits forever. The serving scheduler never makes a worker wait
// here: its key affinity runs one batch per key at a time
// (serve/sched_core.hpp), so `waits` stays 0 there.
//
// Write-back failures (unwritable directory, disk full, rename failure)
// degrade the key to in-memory: the engine stays fully usable, the
// backing path is dropped so a sick disk is not hammered on every
// release, and bpt.universe_tier.persist_errors counts the degradation.
// save_universe_cache is temp+rename, so a failed write-back never
// leaves a partial DMCU file behind.
//
// Metrics (registry optional, resolved at construction — the Engine
// pattern): bpt.universe_tier.{hits,misses,waits,builds,disk_hits,saves,
// persist_errors} counters and the bpt.universe_tier.keys gauge.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "bpt/engine.hpp"

namespace dmc::bpt {

class UniverseTier {
 public:
  struct Options {
    /// Directory of DMCU backing files; "" = purely in-memory tier.
    std::string disk_dir;
  };

  explicit UniverseTier(Options opts = {});
  UniverseTier(const UniverseTier&) = delete;
  UniverseTier& operator=(const UniverseTier&) = delete;

  /// A checked-out engine. `warm` says the engine already lived in the
  /// tier; `disk_hit` says this call's construction loaded a DMCU file.
  /// The millisecond stamps (obs::now_ms) feed the serving layer's
  /// per-query span breakdown: `wait_ms` is time parked behind another
  /// lease of the key, `build_ms` is this call's own construct/disk-load
  /// time (0 on a warm hit).
  struct Lease {
    std::shared_ptr<Engine> engine;
    std::string key;  // tier key (also the DMCU file path when backed)
    bool warm = false;
    bool disk_hit = false;
    long long wait_ms = 0;
    long long build_ms = 0;
  };

  /// Returns the engine for the key derived from `formula_text` (the
  /// printed lowered formula, as for universe_cache_path) and `cfg`,
  /// exclusively: waits while another lease holds the key.
  Lease acquire(const std::string& formula_text, const EngineConfig& cfg);

  /// Returns the lease, first persisting the engine to disk if the tier
  /// is disk-backed and the type table grew since the last save.
  void release(const Lease& lease);

  /// Aggregate view for tests and the `metrics` verb.
  struct Stats {
    long hits = 0;       // key was ready on arrival
    long misses = 0;     // this acquire constructed the engine
    long waits = 0;      // acquires that waited for another lease
    long builds = 0;     // constructions that found no valid DMCU file
    long disk_hits = 0;  // constructions warm-loaded from DMCU
    long saves = 0;      // write-backs performed by release()
    long persist_errors = 0;  // failed write-backs (key degraded to memory)
    long long persist_ms = 0;  // total wall ms spent in write-backs
    std::size_t keys = 0;
  };
  Stats stats() const;

 private:
  struct Slot {
    std::shared_ptr<Engine> engine;  // null until first built
    bool busy = false;               // a lease holds the key
    std::size_t saved_types = 0;     // num_types at the last disk save
    std::string path;                // DMCU backing file ("" = none)
  };

  Options opts_;
  mutable std::mutex mu_;
  std::condition_variable cv_;  // a slot became free
  std::map<std::string, Slot> slots_;
  Stats stats_;
  // Resolved once against metrics::global(); all null when disabled.
  metrics::Counter* met_hits_ = nullptr;
  metrics::Counter* met_misses_ = nullptr;
  metrics::Counter* met_waits_ = nullptr;
  metrics::Counter* met_builds_ = nullptr;
  metrics::Counter* met_disk_hits_ = nullptr;
  metrics::Counter* met_saves_ = nullptr;
  metrics::Counter* met_persist_errors_ = nullptr;
  metrics::Gauge* met_keys_ = nullptr;
};

}  // namespace dmc::bpt
