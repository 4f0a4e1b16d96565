// In-process universe tier (bpt/universe_tier.hpp): exclusive leases
// under contention — N threads that each acquire, fold and release one
// missing key must trigger exactly one engine construction and never hold
// the engine two at a time — plus DMCU write-back/warm-load round-trips.
// Labelled `par` so CI runs the contention cases under TSan: the slot's
// busy flag is precisely the code a data race would corrupt silently.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "bpt/engine.hpp"
#include "bpt/plan.hpp"
#include "bpt/tables.hpp"
#include "bpt/universe_tier.hpp"
#include "graph/generators.hpp"
#include "mso/formulas.hpp"
#include "mso/lower.hpp"
#include "seq/courcelle.hpp"

namespace dmc {
namespace {

namespace fs = std::filesystem;
namespace lib = mso::lib;

struct TempDir {
  fs::path path;
  TempDir() {
    // Per-test-case directory: ctest -j runs cases as separate processes,
    // so a shared path would be wiped out from under a concurrent case.
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    path = fs::temp_directory_path() /
           (std::string("dmc_universe_tier_test_") + info->name());
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() { fs::remove_all(path); }
};

class UniverseTierTest : public ::testing::Test {
 protected:
  UniverseTierTest()
      : g(gen::path(9)),
        lowered(mso::lower(lib::triangle_free())),
        text(mso::to_string(*lowered)),
        cfg(bpt::config_for(*lowered)),
        td(seq::decomposition_for(g)),
        plan(bpt::build_global_plan(g, td)) {}

  TempDir tmp;
  Graph g;
  mso::FormulaPtr lowered;
  std::string text;
  bpt::EngineConfig cfg;
  TreeDecomposition td;
  bpt::Plan plan;
};

/// Counts the threads inside a lease and records the most seen at once.
struct InUse {
  std::atomic<int> now{0};
  std::atomic<int> peak{0};
  void enter() {
    const int n = now.fetch_add(1) + 1;
    int p = peak.load();
    while (n > p && !peak.compare_exchange_weak(p, n)) {
    }
  }
  void leave() { now.fetch_sub(1); }
};

TEST_F(UniverseTierTest, SingleFlightUnderContention) {
  constexpr int kThreads = 8;
  bpt::UniverseTier tier;  // in-memory
  std::atomic<int> ready{0};
  InUse in_use;
  std::vector<bpt::Engine*> engines(kThreads, nullptr);
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i)
    threads.emplace_back([&, i] {
      // Barrier: maximize the window where every thread sees the key
      // missing, so a broken tier double-constructs.
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      const bpt::UniverseTier::Lease lease = tier.acquire(text, cfg);
      in_use.enter();
      engines[i] = lease.engine.get();
      // The lease is exclusive: this thread is the engine's only writer.
      (void)bpt::fold_type(*lease.engine, plan, g);
      in_use.leave();
      tier.release(lease);
    });
  for (auto& t : threads) t.join();

  EXPECT_EQ(in_use.peak.load(), 1) << "two leases of one key overlapped";
  EXPECT_EQ(std::set<bpt::Engine*>(engines.begin(), engines.end()).size(), 1u)
      << "acquirers did not get one engine";
  const bpt::UniverseTier::Stats s = tier.stats();
  EXPECT_EQ(s.misses, 1);
  EXPECT_EQ(s.builds, 1) << "single-flight violated: multiple constructions";
  EXPECT_EQ(s.hits, kThreads - 1);
  EXPECT_EQ(s.keys, 1u);
  EXPECT_EQ(s.saves, 0);  // no disk backing

  // Every fold interned into the one engine: another is a pure replay.
  const bpt::UniverseTier::Lease lease = tier.acquire(text, cfg);
  EXPECT_TRUE(lease.warm);
  const std::size_t types = lease.engine->num_types();
  (void)bpt::fold_type(*lease.engine, plan, g);
  EXPECT_EQ(lease.engine->num_types(), types);
  tier.release(lease);
}

TEST_F(UniverseTierTest, ConcurrentDistinctKeysBuildIndependently) {
  bpt::UniverseTier tier;
  const auto other = mso::lower(lib::connected());
  const std::string other_text = mso::to_string(*other);
  const bpt::EngineConfig other_cfg = bpt::config_for(*other);

  bpt::UniverseTier::Lease a, b;
  std::thread ta([&] { a = tier.acquire(text, cfg); });
  std::thread tb([&] { b = tier.acquire(other_text, other_cfg); });
  ta.join();
  tb.join();
  EXPECT_NE(a.engine.get(), b.engine.get());
  const auto s = tier.stats();
  EXPECT_EQ(s.keys, 2u);
  EXPECT_EQ(s.misses, 2);
  tier.release(a);
  tier.release(b);
}

TEST_F(UniverseTierTest, WriteBackThenWarmLoadAcrossTiers) {
  const std::string dir = tmp.path.string();
  {
    bpt::UniverseTier tier({dir});
    auto lease = tier.acquire(text, cfg);
    EXPECT_FALSE(lease.warm);
    EXPECT_FALSE(lease.disk_hit);  // nothing persisted yet
    (void)bpt::fold_type(*lease.engine, plan, g);
    tier.release(lease);  // last lease + growth => write-back
    EXPECT_EQ(tier.stats().saves, 1);
  }
  // A new tier (fresh process, conceptually) warm-loads the DMCU file.
  bpt::UniverseTier tier({dir});
  auto lease = tier.acquire(text, cfg);
  EXPECT_FALSE(lease.warm);      // new in-process tier
  EXPECT_TRUE(lease.disk_hit);   // but the construction loaded from disk
  const std::size_t types = lease.engine->num_types();
  EXPECT_GT(types, 0u);
  // Replay is pure memo hits: the persisted universe is complete.
  (void)bpt::fold_type(*lease.engine, plan, g);
  EXPECT_EQ(lease.engine->num_types(), types);
  tier.release(lease);
  // No growth since the disk load: release must not rewrite the file.
  EXPECT_EQ(tier.stats().saves, 0);
}

TEST_F(UniverseTierTest, ReleaseWithoutGrowthDoesNotResave) {
  bpt::UniverseTier tier({tmp.path.string()});
  auto a = tier.acquire(text, cfg);
  (void)bpt::fold_type(*a.engine, plan, g);
  tier.release(a);
  ASSERT_EQ(tier.stats().saves, 1);

  auto b = tier.acquire(text, cfg);
  EXPECT_TRUE(b.warm);
  tier.release(b);  // no new types interned
  EXPECT_EQ(tier.stats().saves, 1);
}

TEST_F(UniverseTierTest, PersistFailureDegradesToMemory) {
  // disk_dir is a regular file, so every DMCU write-back must fail (works
  // under root too, where permission bits alone would not block writes).
  // The tier must degrade the key to in-memory — count the error, keep
  // serving the engine, leave no partial file — never crash.
  const fs::path blocked = tmp.path / "blocked";
  { std::ofstream(blocked) << "x"; }
  bpt::UniverseTier tier({blocked.string()});
  auto a = tier.acquire(text, cfg);
  ASSERT_TRUE(a.engine);
  (void)bpt::fold_type(*a.engine, plan, g);
  tier.release(a);  // last lease + growth => write-back attempt, fails
  EXPECT_EQ(tier.stats().saves, 0);
  EXPECT_EQ(tier.stats().persist_errors, 1);

  // The engine stays warm and usable; the sick backing path is dropped,
  // so later releases do not retry (exactly one persist error).
  auto b = tier.acquire(text, cfg);
  EXPECT_TRUE(b.warm);
  (void)bpt::fold_type(*b.engine, plan, g);
  tier.release(b);
  EXPECT_EQ(tier.stats().persist_errors, 1);
  // No partial DMCU or leftover .tmp anywhere near the blocked path.
  for (const auto& entry : fs::directory_iterator(tmp.path))
    EXPECT_EQ(entry.path(), blocked) << "unexpected file: " << entry.path();
}

TEST_F(UniverseTierTest, ContendedAcquireReleaseChurn) {
  // Churn: leases come and go while other threads acquire, with disk
  // write-backs on release — exercises the busy-wait path under TSan.
  bpt::UniverseTier tier({tmp.path.string()});
  constexpr int kThreads = 6;
  constexpr int kIters = 8;
  InUse in_use;
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i)
    threads.emplace_back([&] {
      for (int it = 0; it < kIters; ++it) {
        const auto lease = tier.acquire(text, cfg);
        in_use.enter();
        (void)bpt::fold_type(*lease.engine, plan, g);
        in_use.leave();
        tier.release(lease);
      }
    });
  for (auto& t : threads) t.join();
  EXPECT_EQ(in_use.peak.load(), 1) << "two leases of one key overlapped";
  const auto s = tier.stats();
  EXPECT_EQ(s.misses, 1);
  EXPECT_EQ(s.builds, 1);
  EXPECT_EQ(s.hits, kThreads * kIters - 1);
  EXPECT_EQ(s.saves, 1) << "only the first fold grows the universe";
  EXPECT_EQ(s.keys, 1u);
}

}  // namespace
}  // namespace dmc
