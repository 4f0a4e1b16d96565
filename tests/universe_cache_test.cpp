// Persistent universe cache (bpt/universe_cache.hpp): cold write → warm
// read must reproduce identical TypeIds and verdicts; corrupted, truncated
// or stale-version files must be rejected (engine untouched) and rebuilt.
// Labelled `par` with the parallel-determinism suite: the cache is the
// third leg of the parallel fold/simulation engine.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bpt/engine.hpp"
#include "bpt/plan.hpp"
#include "bpt/tables.hpp"
#include "bpt/universe_cache.hpp"
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
    // Per-test-case directory: ctest -j runs gtest cases of one binary as
    // separate concurrent processes, so a shared path would be wiped out
    // from under a sibling case.
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    path = fs::temp_directory_path() /
           (std::string("dmc_universe_cache_test_") +
            (info != nullptr ? info->name() : "unknown"));
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() { fs::remove_all(path); }
};

/// Builds a populated engine by folding `formula` over a small graph.
struct Built {
  bpt::Engine engine;
  bpt::TypeId root;
  Built(const mso::FormulaPtr& lowered, const Graph& g, const bpt::Plan& plan)
      : engine(bpt::config_for(*lowered)),
        root(bpt::fold_type(engine, plan, g)) {}
};

class UniverseCacheTest : public ::testing::Test {
 protected:
  UniverseCacheTest()
      : g(gen::path(9)),
        lowered(mso::lower(lib::triangle_free())),
        td(seq::decomposition_for(g)),
        plan(bpt::build_global_plan(g, td)) {}

  std::string cache_file(const char* name) const {
    return (tmp.path / name).string();
  }

  TempDir tmp;
  Graph g;
  mso::FormulaPtr lowered;
  TreeDecomposition td;
  bpt::Plan plan;
};

TEST_F(UniverseCacheTest, RoundTripPreservesTypeIdsAndVerdicts) {
  Built cold(lowered, g, plan);
  const std::string path = cache_file("u.dmcu");
  ASSERT_TRUE(bpt::save_universe_cache(cold.engine, path));

  bpt::Engine warm(bpt::config_for(*lowered));
  ASSERT_TRUE(bpt::load_universe_cache(warm, path));
  EXPECT_EQ(warm.num_types(), cold.engine.num_types());

  // The warm engine must replay the same fold onto the *same* ids: every
  // intern is a memo/index hit against the deserialized tables.
  const bpt::TypeId warm_root = bpt::fold_type(warm, plan, g);
  EXPECT_EQ(warm_root, cold.root);
  EXPECT_EQ(warm.num_types(), cold.engine.num_types())
      << "warm fold interned new types — cache did not round-trip";

  // Verdict equality through the evaluator.
  bpt::Evaluator cold_eval(cold.engine, lowered);
  bpt::Evaluator warm_eval(warm, lowered);
  EXPECT_EQ(warm_eval.eval(warm_root), cold_eval.eval(cold.root));
}

TEST_F(UniverseCacheTest, MissingFileLeavesEngineUntouched) {
  bpt::Engine engine(bpt::config_for(*lowered));
  const std::size_t before = engine.num_types();
  EXPECT_FALSE(bpt::load_universe_cache(engine, cache_file("absent.dmcu")));
  EXPECT_EQ(engine.num_types(), before);
}

TEST_F(UniverseCacheTest, CorruptedFileRejectedThenRebuilt) {
  Built cold(lowered, g, plan);
  const std::string path = cache_file("corrupt.dmcu");
  ASSERT_TRUE(bpt::save_universe_cache(cold.engine, path));

  // Flip a byte in the middle of the payload: checksum must catch it.
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(static_cast<std::streamoff>(fs::file_size(path) / 2));
    char byte = 0;
    f.read(&byte, 1);
    f.seekp(-1, std::ios::cur);
    byte = static_cast<char>(byte ^ 0x5a);
    f.write(&byte, 1);
  }
  bpt::Engine engine(bpt::config_for(*lowered));
  EXPECT_FALSE(bpt::load_universe_cache(engine, path));
  EXPECT_EQ(engine.num_types(), bpt::Engine(bpt::config_for(*lowered)).num_types());

  // Rebuild and overwrite: the standard recovery path.
  const bpt::TypeId root = bpt::fold_type(engine, plan, g);
  EXPECT_EQ(root, cold.root);
  ASSERT_TRUE(bpt::save_universe_cache(engine, path));
  bpt::Engine again(bpt::config_for(*lowered));
  EXPECT_TRUE(bpt::load_universe_cache(again, path));
}

TEST_F(UniverseCacheTest, TruncatedFileRejected) {
  Built cold(lowered, g, plan);
  const std::string path = cache_file("short.dmcu");
  ASSERT_TRUE(bpt::save_universe_cache(cold.engine, path));
  fs::resize_file(path, fs::file_size(path) / 3);
  bpt::Engine engine(bpt::config_for(*lowered));
  EXPECT_FALSE(bpt::load_universe_cache(engine, path));
}

TEST_F(UniverseCacheTest, StaleEngineVersionRejected) {
  Built cold(lowered, g, plan);
  const std::string path = cache_file("stale.dmcu");
  ASSERT_TRUE(bpt::save_universe_cache(cold.engine, path));

  // The engine version is the u32 after the 4-byte magic and the u32
  // format version; patch it to a past release.
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(4 + 4);
    const std::uint32_t old_version = bpt::kEngineCacheVersion + 1000;
    f.write(reinterpret_cast<const char*>(&old_version), sizeof(old_version));
  }
  bpt::Engine engine(bpt::config_for(*lowered));
  EXPECT_FALSE(bpt::load_universe_cache(engine, path));
}

TEST_F(UniverseCacheTest, WrongConfigRejected) {
  Built cold(lowered, g, plan);
  const std::string path = cache_file("config.dmcu");
  ASSERT_TRUE(bpt::save_universe_cache(cold.engine, path));
  const auto other = mso::lower(lib::connected());
  bpt::Engine engine(bpt::config_for(*other));
  EXPECT_FALSE(bpt::load_universe_cache(engine, path));
}

TEST_F(UniverseCacheTest, CachePathVariesWithInputs) {
  const auto cfg = bpt::config_for(*lowered);
  const std::string a = bpt::universe_cache_path("d", "phi", cfg);
  const std::string b = bpt::universe_cache_path("d", "psi", cfg);
  EXPECT_NE(a, b);
  const auto other_cfg = bpt::config_for(*mso::lower(lib::connected()));
  EXPECT_NE(a, bpt::universe_cache_path("d", "phi", other_cfg));
}

// --- DMCU compatibility ----------------------------------------------------
//
// tests/data/dominating_set_btd12.dmcu was written by the engine whose
// compose memo, op index and primitive memo were node-based std:: maps.
// The DMCU format and kEngineCacheVersion are unchanged since, so every
// later engine must load it to the same universe: the same type ids, a
// replayed fold that composes nothing new, the same COUNT table and the
// same verdicts. Only the order of entries inside the memo sections may
// differ between writers.

const std::vector<std::pair<std::string, mso::Sort>> kCompatFrees = {
    {"S", mso::Sort::VertexSet}};

Graph compat_graph() {
  gen::Rng rng(7);
  return gen::random_bounded_treedepth(12, 3, 0.4, rng);
}

std::string compat_fixture() {
  return std::string(DMC_TEST_DATA_DIR) + "/dominating_set_btd12.dmcu";
}

TEST(UniverseCacheCompat, CommittedFileLoadsToTheSameIdsAndVerdicts) {
  const auto lowered = mso::lower(lib::dominating_set(), kCompatFrees);
  bpt::Engine engine(bpt::config_for(*lowered, kCompatFrees));
  ASSERT_TRUE(bpt::load_universe_cache(engine, compat_fixture()));
  EXPECT_EQ(engine.num_types(), 320u);
  EXPECT_EQ(engine.num_ops(), 8u);

  const Graph g = compat_graph();
  const bpt::Plan plan = bpt::build_global_plan(g, seq::decomposition_for(g));
  const auto tables = bpt::fold_count(engine, plan, g);
  EXPECT_EQ(engine.num_types(), 320u) << "the replayed fold interned types";
  EXPECT_EQ(engine.num_ops(), 8u);
  EXPECT_EQ(engine.stats().compose_calls, 0)
      << "a composition of the replayed fold missed the loaded memo";

  // Root COUNT table (class, count) and each class's verdict, as written.
  struct Row {
    bpt::TypeId t;
    std::uint64_t count;
    bool accepts;
    bool operator==(const Row&) const = default;
  };
  const std::vector<Row> expected = {
      {227, 1, false},   {240, 4, false},    {245, 26, true},
      {246, 1, true},    {251, 255, true},   {252, 1, true},
      {255, 1, false},   {262, 7, false},    {264, 463, true},
      {265, 7, false},   {270, 16, true},    {277, 14, false},
      {282, 332, true},  {289, 336, false},  {290, 1214, false},
      {291, 86, false},  {293, 456, false},  {298, 4, false},
      {303, 1, true},    {306, 11, false},   {307, 850, false},
      {313, 10, false}};
  bpt::Evaluator eval(engine, lowered, kCompatFrees);
  std::vector<Row> actual;
  for (const auto& [t, c] : tables[plan.root])
    actual.push_back({t, c, eval.eval(t)});
  EXPECT_EQ(actual, expected);
}

TEST(UniverseCacheCompat, SaveLoadSaveIsByteIdentical) {
  const auto lowered = mso::lower(lib::dominating_set(), kCompatFrees);
  const bpt::EngineConfig cfg = bpt::config_for(*lowered, kCompatFrees);
  auto save_of_load = [&](const std::string& bytes) {
    bpt::Engine engine(cfg);
    std::istringstream in(bytes);
    EXPECT_TRUE(engine.load_universe(in));
    std::ostringstream out;
    engine.save_universe(out);
    return out.str();
  };
  // From the committed file.
  bpt::Engine loaded(cfg);
  ASSERT_TRUE(bpt::load_universe_cache(loaded, compat_fixture()));
  std::ostringstream first;
  loaded.save_universe(first);
  EXPECT_TRUE(save_of_load(first.str()) == first.str());

  // From an engine that folded fresh (memo and op index built by use).
  bpt::Engine fresh(cfg);
  const Graph g = compat_graph();
  bpt::fold_count(fresh, bpt::build_global_plan(g, seq::decomposition_for(g)),
                  g);
  std::ostringstream built;
  fresh.save_universe(built);
  EXPECT_TRUE(save_of_load(built.str()) == built.str());
}

}  // namespace
}  // namespace dmc
