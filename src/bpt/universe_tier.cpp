// In-process universe tier with exclusive leases (see universe_tier.hpp).
#include "bpt/universe_tier.hpp"

#include "bpt/universe_cache.hpp"
#include "metrics/metrics.hpp"
#include "obs/clock.hpp"

namespace dmc::bpt {

UniverseTier::UniverseTier(Options opts) : opts_(std::move(opts)) {
  if (metrics::Registry* const reg = metrics::global()) {
    met_hits_ = &reg->counter("bpt.universe_tier.hits");
    met_misses_ = &reg->counter("bpt.universe_tier.misses");
    met_waits_ = &reg->counter("bpt.universe_tier.waits");
    met_builds_ = &reg->counter("bpt.universe_tier.builds");
    met_disk_hits_ = &reg->counter("bpt.universe_tier.disk_hits");
    met_saves_ = &reg->counter("bpt.universe_tier.saves");
    met_persist_errors_ = &reg->counter("bpt.universe_tier.persist_errors");
    met_keys_ = &reg->gauge("bpt.universe_tier.keys");
  }
}

UniverseTier::Lease UniverseTier::acquire(const std::string& formula_text,
                                          const EngineConfig& cfg) {
  // The tier key doubles as the DMCU path when disk-backed; in-memory
  // tiers use the same name under a fixed pseudo-directory so one formula
  // maps to one slot either way.
  const std::string key = universe_cache_path(
      opts_.disk_dir.empty() ? "<mem>" : opts_.disk_dir, formula_text, cfg);

  std::unique_lock lock(mu_);
  const auto [it, inserted] = slots_.try_emplace(key);
  if (inserted && met_keys_)
    met_keys_->set(static_cast<long long>(slots_.size()));
  Slot& slot = it->second;  // std::map nodes never move

  Lease lease;
  lease.key = key;
  if (slot.busy) {
    const long long wait_start = obs::now_ms();
    cv_.wait(lock, [&slot] { return !slot.busy; });
    lease.wait_ms = obs::now_ms() - wait_start;
    ++stats_.waits;
    if (met_waits_) met_waits_->add(1);
  }
  slot.busy = true;
  if (slot.engine) {
    ++stats_.hits;
    if (met_hits_) met_hits_->add(1);
    lease.engine = slot.engine;
    lease.warm = true;
    return lease;
  }

  // Build with the tier lock dropped: this lease holds the key, so later
  // acquirers of it wait for the finished engine (single flight) while
  // other keys proceed.
  lock.unlock();
  std::shared_ptr<Engine> engine;
  bool disk_hit = false;
  const long long build_start = obs::now_ms();
  try {
    engine = std::make_shared<Engine>(cfg);
    if (!opts_.disk_dir.empty())
      disk_hit = load_universe_cache(*engine, key);
  } catch (...) {
    lock.lock();
    slot.busy = false;
    lock.unlock();
    cv_.notify_all();
    throw;
  }
  lease.build_ms = obs::now_ms() - build_start;
  lock.lock();
  slot.engine = engine;
  slot.saved_types = disk_hit ? engine->num_types() : 0;
  slot.path = opts_.disk_dir.empty() ? std::string() : key;
  ++stats_.misses;
  if (met_misses_) met_misses_->add(1);
  if (disk_hit) {
    ++stats_.disk_hits;
    if (met_disk_hits_) met_disk_hits_->add(1);
  } else {
    ++stats_.builds;
    if (met_builds_) met_builds_->add(1);
  }
  lease.engine = std::move(engine);
  lease.disk_hit = disk_hit;
  return lease;
}

void UniverseTier::release(const Lease& lease) {
  if (!lease.engine) return;
  std::unique_lock lock(mu_);
  const auto it = slots_.find(lease.key);
  if (it == slots_.end()) return;
  Slot& slot = it->second;
  const std::size_t types = slot.engine->num_types();
  if (!slot.path.empty() && types != slot.saved_types) {
    // Write back while this lease still holds the key (save_universe
    // iterates the tables it snapshots); the tier lock is dropped so
    // other keys proceed.
    const std::string path = slot.path;
    lock.unlock();
    bool saved = false;
    const long long persist_start = obs::now_ms();
    try {
      saved = save_universe_cache(*slot.engine, path);
    } catch (...) {
      saved = false;  // persist failure must never escape release()
    }
    const long long persist_ms = obs::now_ms() - persist_start;
    lock.lock();
    stats_.persist_ms += persist_ms;
    if (saved) {
      slot.saved_types = types;
      ++stats_.saves;
      if (met_saves_) met_saves_->add(1);
    } else {
      // Degrade the key to in-memory: the engine stays fully usable, and
      // dropping the backing path stops every later release from
      // hammering an unwritable directory. save_universe_cache is
      // temp+rename, so no partial DMCU file exists after a failure.
      slot.path.clear();
      ++stats_.persist_errors;
      if (met_persist_errors_) met_persist_errors_->add(1);
    }
  }
  slot.busy = false;
  lock.unlock();
  cv_.notify_all();
}

UniverseTier::Stats UniverseTier::stats() const {
  std::lock_guard lock(mu_);
  Stats s = stats_;
  s.keys = slots_.size();
  return s;
}

}  // namespace dmc::bpt
