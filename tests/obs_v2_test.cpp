// Tests for the obs v2 additions: the clock seam, query spans, the
// atomic file writer, the flight recorder, and trace coalescing.
//
// The pinned invariants:
//   - obs::now_ms()/now_us() honor the test override and restore cleanly;
//   - SpanLog builds a parent-linked timeline and exports valid JSON;
//   - write_file_atomic leaves either the old content or the new, never a
//     torn file, and reports failures with a reason;
//   - the flight recorder keeps exactly the last `capacity` events
//     (oldest first) and its crash-run dump names the crashed node and
//     round — the "exit 7 comes with a story" acceptance criterion;
//   - every round and quiescent entry the ring retains equals the traced
//     event of the same round, on the perfect and the fault path;
//   - a traced sparse run coalesces quiescent stretches into
//     QuiescentEvents whose expansion reproduces the dense per-phase
//     totals exactly, across thread counts.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <ranges>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "congest/faults.hpp"
#include "congest/network.hpp"
#include "dist/elim_tree.hpp"
#include "dist/query.hpp"
#include "graph/generators.hpp"
#include "mso/formulas.hpp"
#include "obs/atomic_file.hpp"
#include "obs/buffer.hpp"
#include "obs/clock.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/spans.hpp"
#include "obs/summary.hpp"

namespace dmc {
namespace {

namespace fs = std::filesystem;
namespace lib = mso::lib;

// --- clock seam ---------------------------------------------------------------

TEST(ObsClock, FakeOverrideAndRestore) {
  obs::set_now_ms_for_test(1234);
  EXPECT_EQ(obs::now_ms(), 1234);
  EXPECT_EQ(obs::now_us(), 1234000);
  obs::set_now_ms_for_test(9);
  EXPECT_EQ(obs::now_ms(), 9);
  obs::set_now_ms_for_test(-1);  // back to the real monotonic clock
  const long long a = obs::now_ms();
  const long long b = obs::now_ms();
  EXPECT_LE(a, b) << "real clock must be monotonic";
}

// --- query spans --------------------------------------------------------------

TEST(ObsSpans, TreeTimelineAndJson) {
  obs::set_now_ms_for_test(100);
  obs::SpanLog log("q42");
  const int root = log.open("query");
  const int queue = log.open_at("queue", 100, root);
  obs::set_now_ms_for_test(130);
  log.close(queue);
  const int exec = log.open("exec", root);
  obs::set_now_ms_for_test(180);
  log.close_at(exec, 175);
  log.close(root);
  obs::set_now_ms_for_test(-1);

  ASSERT_EQ(log.spans().size(), 3u);
  EXPECT_EQ(log.spans()[root].parent, -1);
  EXPECT_EQ(log.spans()[queue].parent, root);
  EXPECT_EQ(log.duration_ms("queue"), 30);
  EXPECT_EQ(log.duration_ms("exec"), 45);
  EXPECT_EQ(log.duration_ms("query"), 80);
  EXPECT_EQ(log.find("missing"), nullptr);

  const std::string json = log.to_json();
  EXPECT_NE(json.find("\"id\":\"q42\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"name\":\"queue\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"dur_ms\":30"), std::string::npos) << json;
  const std::string chrome = log.to_chrome_json();
  EXPECT_NE(chrome.find("\"traceEvents\""), std::string::npos) << chrome;
}

TEST(ObsSpans, CloseTwiceKeepsFirstStamp) {
  obs::set_now_ms_for_test(10);
  obs::SpanLog log("q");
  const int s = log.open("exec");
  obs::set_now_ms_for_test(25);
  log.close(s);
  obs::set_now_ms_for_test(900);
  log.close(s);  // must be a no-op
  obs::set_now_ms_for_test(-1);
  EXPECT_EQ(log.duration_ms("exec"), 15);
}

// --- atomic file writer -------------------------------------------------------

TEST(ObsAtomicFile, WriteOverwriteAndFailure) {
  const fs::path dir = fs::temp_directory_path() / "dmc_obs_v2_atomic";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string path = (dir / "out.txt").string();

  std::string err;
  ASSERT_TRUE(obs::write_file_atomic(path, "first\n", &err)) << err;
  {
    std::ifstream in(path);
    std::stringstream buf;
    buf << in.rdbuf();
    EXPECT_EQ(buf.str(), "first\n");
  }
  ASSERT_TRUE(obs::write_file_atomic(path, "second\n", &err)) << err;
  {
    std::ifstream in(path);
    std::stringstream buf;
    buf << in.rdbuf();
    EXPECT_EQ(buf.str(), "second\n");
  }
  // No leftover temp files after successful writes.
  std::size_t files = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    (void)entry;
    ++files;
  }
  EXPECT_EQ(files, 1u);

  err.clear();
  EXPECT_FALSE(obs::write_file_atomic(
      (dir / "no_such_subdir" / "x.txt").string(), "x", &err));
  EXPECT_FALSE(err.empty()) << "failure must carry a reason";
  fs::remove_all(dir);
}

// --- flight recorder: ring semantics ------------------------------------------

TEST(FlightRecorder, RingKeepsLastEventsOldestFirst) {
  obs::FlightRecorder rec(4);
  EXPECT_EQ(rec.capacity(), 4u);
  for (int i = 1; i <= 10; ++i) rec.note(i, "tick");
  EXPECT_EQ(rec.recorded(), 10u);
  const auto entries = rec.snapshot();
  ASSERT_EQ(entries.size(), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(entries[i].kind, obs::FlightRecorder::Kind::Note);
    EXPECT_EQ(entries[i].round, 7 + i) << "oldest retained must be #7";
  }
  const std::string dump = rec.dump_string();
  EXPECT_NE(dump.find("\"type\":\"flight_header\""), std::string::npos);
  EXPECT_NE(dump.find("\"recorded\":10"), std::string::npos);
  EXPECT_NE(dump.find("\"dropped\":6"), std::string::npos);

  rec.clear();
  EXPECT_EQ(rec.recorded(), 0u);
  EXPECT_TRUE(rec.snapshot().empty());
}

TEST(FlightRecorder, LongLabelsTruncateSafely) {
  obs::FlightRecorder rec(2);
  rec.note(1, "this label is much longer than the fixed 24-byte slot");
  const auto entries = rec.snapshot();
  ASSERT_EQ(entries.size(), 1u);
  const std::string label = entries[0].label;
  EXPECT_LT(label.size(), 24u);
  EXPECT_EQ(label.rfind("this label", 0), 0u);
}

// --- flight recorder: degraded-run post-mortem (acceptance criterion) ---------

TEST(FlightRecorder, CrashRunDumpNamesCrashedNodeAndRound) {
  gen::Rng rng(3);
  const Graph g = gen::random_bounded_treedepth(24, 3, 0.4, rng);
  congest::NetworkConfig cfg;
  cfg.id_seed = 3;
  cfg.faults = congest::parse_fault_plan("crash=2@r25,seed=7");
  congest::Network net(g, cfg);
  const auto out =
      dist::run(net, {dist::Kind::kDecision, lib::triangle_free()}, 3);
  ASSERT_FALSE(out.run.ok());
  ASSERT_EQ(out.run.status, congest::RunStatus::kCrashed);
  ASSERT_EQ(out.run.crashed.size(), 1u);

  // The always-on ring must hold the crash among its final events, with
  // the crashed node's id and the round it died at.
  const auto entries = net.flight_recorder().snapshot();
  ASSERT_FALSE(entries.empty());
  bool found = false;
  for (const auto& e : entries) {
    if (e.kind != obs::FlightRecorder::Kind::Fault) continue;
    if (std::string(e.label) != "crash") continue;
    found = true;
    EXPECT_EQ(e.c, out.run.crashed[0]) << "fault entry must name the node";
    EXPECT_EQ(e.round, 25) << "fault entry must name the round";
  }
  EXPECT_TRUE(found) << "no crash fault retained in the ring";

  const std::string dump = net.flight_recorder().dump_string();
  EXPECT_NE(dump.find("\"type\":\"fault\",\"kind\":\"crash\""),
            std::string::npos)
      << dump;
  EXPECT_NE(dump.find("\"round\":25"), std::string::npos) << dump;
}

// --- the flight ring and the trace agree, round for round ---------------------

TEST(FlightRecorder, RoundEntriesEqualTheTracedEvents) {
  // Each round close builds one event for both the ring and the sink, so
  // every round or quiescent entry the ring retains must equal the traced
  // event of the same round, on the perfect path (sparse, with quiescent
  // skips) and on the fault path.
  struct Setting {
    const char* name;
    const char* faults;  // "" = perfect delivery
  };
  const Setting settings[] = {
      {"sparse", ""},
      {"drop+dup", "drop=0.1,dup=0.05,seed=42"},
      {"crash", "crash=3@r20,seed=5"},
  };
  for (const Setting& setting : settings) {
    SCOPED_TRACE(setting.name);
    obs::TraceBuffer buffer;
    congest::NetworkConfig cfg;
    cfg.id_seed = 11;
    cfg.sink = &buffer;
    if (*setting.faults != '\0')
      cfg.faults = congest::parse_fault_plan(setting.faults);
    congest::Network net(gen::deeppath(120, 4), cfg);
    dist::ElimTreeOptions opts;
    opts.sparse_flood = true;  // quiet stretches for the sparse setting
    dist::run(net, {dist::Kind::kDecision, lib::triangle_free()}, 4, nullptr,
              opts);

    std::map<long, obs::RoundEvent> rounds;
    for (const obs::RoundEvent& e : buffer.rounds()) rounds[e.round] = e;
    std::map<long, obs::QuiescentEvent> quiet;
    for (const obs::QuiescentEvent& e : buffer.quiescents())
      quiet[e.first_round] = e;
    int round_entries = 0, quiet_entries = 0;
    for (const auto& e : net.flight_recorder().snapshot()) {
      if (e.kind == obs::FlightRecorder::Kind::Round) {
        const auto it = rounds.find(e.round);
        ASSERT_NE(it, rounds.end())
            << "round " << e.round << " missing from the trace";
        EXPECT_EQ(e.a, it->second.messages) << e.round;
        EXPECT_EQ(e.b, it->second.bits) << e.round;
        EXPECT_EQ(e.c, it->second.active_nodes) << e.round;
        EXPECT_EQ(e.d, it->second.done_nodes) << e.round;
        ++round_entries;
      } else if (e.kind == obs::FlightRecorder::Kind::Quiescent) {
        const auto it = quiet.find(e.round);
        ASSERT_NE(it, quiet.end())
            << "stretch at " << e.round << " missing from the trace";
        EXPECT_EQ(e.a, it->second.skipped_rounds) << e.round;
        EXPECT_EQ(e.c, it->second.active_nodes) << e.round;
        EXPECT_EQ(e.d, it->second.done_nodes) << e.round;
        ++quiet_entries;
      }
    }
    EXPECT_GT(round_entries, 0);
    if (*setting.faults == '\0') {
      EXPECT_GT(quiet_entries, 0) << "the sparse run must skip a stretch";
    }
  }
}

// --- coalesced quiescence: traced sparse == dense, totals exact ---------------

/// Runs the deep-path decision pipeline (quiescence-heavy: change-only
/// flooding puts long path stretches to sleep) into a fresh TraceBuffer.
struct CoalescedRun {
  obs::TraceBuffer buffer;
  congest::NetworkStats stats;
  bool holds = false;
};

CoalescedRun run_deeppath(bool sparse) {
  CoalescedRun out;
  const Graph g = gen::deeppath(400, 4);
  congest::NetworkConfig cfg;
  cfg.id_seed = 7;
  cfg.sink = &out.buffer;
  cfg.sparse_stepping = sparse;
  congest::Network net(g, cfg);
  // Change-only flooding on in BOTH runs: it is what quiets the election
  // enough to fast-forward, and it alters the message stream (that is its
  // point), so only the scheduler may vary between the compared runs.
  dist::ElimTreeOptions opts;
  opts.sparse_flood = true;
  const auto result =
      dist::run(net, {dist::Kind::kDecision, lib::triangle_free()}, 4, nullptr,
                opts);
  EXPECT_TRUE(result.run.ok());
  out.stats = net.stats();
  out.holds = result.holds;
  return out;
}

TEST(ObsCoalescing, SparseTraceCoalescesAndExpandsToDenseTotals) {
  const CoalescedRun dense = run_deeppath(/*sparse=*/false);
  EXPECT_TRUE(dense.buffer.quiescents().empty())
      << "dense stepping must emit every round";

  {
    const CoalescedRun sparse = run_deeppath(/*sparse=*/true);
    EXPECT_EQ(sparse.holds, dense.holds);
    EXPECT_EQ(sparse.stats.rounds, dense.stats.rounds);

    // The fast-forward guard must stay engaged with a sink attached: the
    // quiet stretches arrive coalesced, not one RoundEvent each.
    EXPECT_FALSE(sparse.buffer.quiescents().empty());
    long expanded = std::ranges::distance(sparse.buffer.rounds());
    for (const auto& q : sparse.buffer.quiescents()) {
      EXPECT_GE(q.skipped_rounds, 1);
      expanded += q.skipped_rounds;
    }
    EXPECT_EQ(expanded, dense.stats.rounds)
        << "rounds + skipped stretches must cover the whole run";

    // Per-phase totals after expanding QuiescentEvents: identical to the
    // dense trace at driver-phase granularity, and both NetworkStats-
    // exact. Annotation subpaths ("elim-tree/election" vs ".../report")
    // legitimately differ — a dense-stepped node annotates even rounds
    // where it has nothing to do, rounds sparse stepping never executes —
    // so the comparison aggregates each top-level phase span.
    const obs::Summary ds = obs::summarize(dense.buffer);
    const obs::Summary ss = obs::summarize(sparse.buffer);
    EXPECT_EQ(ds.total_rounds, dense.stats.rounds);
    EXPECT_EQ(ss.total_rounds, sparse.stats.rounds);
    EXPECT_EQ(ss.total_messages, ds.total_messages);
    EXPECT_EQ(ss.total_bits, ds.total_bits);
    EXPECT_TRUE(ss.balanced);
    std::set<std::string> phases;
    for (const auto& p : ds.phases)
      phases.insert(p.path.substr(0, p.path.find('/')));
    EXPECT_GE(phases.size(), 2u) << "pipeline must expose several phases";
    for (const std::string& phase : phases) {
      const obs::PhaseTotals d = ds.aggregate(phase);
      const obs::PhaseTotals s = ss.aggregate(phase);
      EXPECT_EQ(s.rounds, d.rounds) << phase;
      EXPECT_EQ(s.messages, d.messages) << phase;
      EXPECT_EQ(s.bits, d.bits) << phase;
    }
  }
}

}  // namespace
}  // namespace dmc
