// Fault-injection and reliable-transport tests (docs/ROBUSTNESS.md).
//
// The contract under test: with the reliable transport layered under them,
// every distributed protocol must return oracle-correct results under
// link faults (drop / duplicate / corrupt / reorder) — same verdicts as
// the fault-free run, at a higher physical-round cost — and crash-stop
// faults must surface as structured degraded outcomes (RunStatus), never
// as an uncaught exception or a silently wrong answer. Labelled `faults`
// in ctest so CI can run the sweep standalone (including under
// sanitizers: ctest -L faults).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "congest/conformance.hpp"
#include "congest/faults.hpp"
#include "congest/fragment.hpp"
#include "congest/network.hpp"
#include "dist/elim_tree.hpp"
#include "dist/query.hpp"
#include "graph/generators.hpp"
#include "mso/formulas.hpp"
#include "seq/courcelle.hpp"

namespace dmc {
namespace {

using congest::FaultPlan;
using congest::NetworkConfig;
using congest::RunStatus;
using mso::Sort;

Graph btd_graph(unsigned seed, int n = 9, int d = 3, double p = 0.35) {
  gen::Rng rng(seed);
  return gen::random_bounded_treedepth(n, d, p, rng);
}

NetworkConfig faulty_cfg(const std::string& spec, unsigned id_seed = 1) {
  NetworkConfig cfg;
  cfg.id_seed = id_seed;
  cfg.faults = congest::parse_fault_plan(spec);
  return cfg;
}

// --- spec grammar -------------------------------------------------------------

TEST(FaultPlanParse, FullGrammar) {
  const FaultPlan plan = congest::parse_fault_plan(
      "drop=0.1,dup=0.05,corrupt=0.01,reorder=0.2,reorder_max=3,"
      "crash=3@r20,crash=5@r7,seed=42");
  EXPECT_DOUBLE_EQ(plan.drop, 0.1);
  EXPECT_DOUBLE_EQ(plan.duplicate, 0.05);
  EXPECT_DOUBLE_EQ(plan.corrupt, 0.01);
  EXPECT_DOUBLE_EQ(plan.reorder, 0.2);
  EXPECT_EQ(plan.reorder_max, 3);
  ASSERT_EQ(plan.crashes.size(), 2u);
  EXPECT_EQ(plan.crashes[0].node, 3);
  EXPECT_EQ(plan.crashes[0].round, 20);
  EXPECT_EQ(plan.crashes[1].node, 5);
  EXPECT_EQ(plan.crashes[1].round, 7);
  EXPECT_EQ(plan.seed, 42u);
  EXPECT_TRUE(plan.has_link_faults());
  EXPECT_FALSE(plan.empty());
  // The reliable transport is the only fault path: no transport key.
  for (const char* spec : {"transport=raw", "drop=0.1,transport=reliable"})
    EXPECT_THROW(congest::parse_fault_plan(spec), std::invalid_argument)
        << spec;
}

TEST(FaultPlanParse, FormatRoundTrips) {
  const char* spec = "drop=0.2,dup=0.1,crash=2@r15,seed=7";
  const FaultPlan a = congest::parse_fault_plan(spec);
  const FaultPlan b = congest::parse_fault_plan(congest::format_fault_plan(a));
  EXPECT_DOUBLE_EQ(a.drop, b.drop);
  EXPECT_DOUBLE_EQ(a.duplicate, b.duplicate);
  EXPECT_EQ(a.seed, b.seed);
  ASSERT_EQ(a.crashes.size(), b.crashes.size());
  EXPECT_EQ(a.crashes[0].node, b.crashes[0].node);
  EXPECT_EQ(a.crashes[0].round, b.crashes[0].round);
}

TEST(FaultPlanParse, RejectsMalformedSpecs) {
  EXPECT_THROW(congest::parse_fault_plan("bogus=1"), std::invalid_argument);
  EXPECT_THROW(congest::parse_fault_plan("drop=1.5"), std::invalid_argument);
  EXPECT_THROW(congest::parse_fault_plan("drop=-0.1"), std::invalid_argument);
  EXPECT_THROW(congest::parse_fault_plan("drop=abc"), std::invalid_argument);
  EXPECT_THROW(congest::parse_fault_plan("crash=3"), std::invalid_argument);
  EXPECT_THROW(congest::parse_fault_plan("crash=3@20"), std::invalid_argument);
  EXPECT_THROW(congest::parse_fault_plan("reorder_max=0"),
               std::invalid_argument);
}

TEST(FaultPlanParse, RejectsDuplicateScalarKeys) {
  // Last-wins would silently mask typos; every scalar key is once-only.
  EXPECT_THROW(congest::parse_fault_plan("drop=0.1,drop=0.2"),
               std::invalid_argument);
  EXPECT_THROW(congest::parse_fault_plan("seed=1,drop=0.1,seed=2"),
               std::invalid_argument);
  // dup and duplicate are one logical key.
  EXPECT_THROW(congest::parse_fault_plan("dup=0.1,duplicate=0.2"),
               std::invalid_argument);
  EXPECT_THROW(congest::parse_fault_plan("reorder=0.1,reorder=0.1"),
               std::invalid_argument);
  // crash legitimately repeats: one entry per crash fault.
  const FaultPlan plan =
      congest::parse_fault_plan("crash=1@r3,crash=2@r5,seed=9");
  ASSERT_EQ(plan.crashes.size(), 2u);
  EXPECT_EQ(plan.crashes[0].node, 1);
  EXPECT_EQ(plan.crashes[1].round, 5);
}

TEST(FaultPlanParse, RejectsOutOfRangeScalars) {
  EXPECT_THROW(congest::parse_fault_plan("seed=-1"), std::invalid_argument);
  EXPECT_THROW(congest::parse_fault_plan("crash=-1@r3"),
               std::invalid_argument);
  EXPECT_THROW(congest::parse_fault_plan("crash=2@r-4"),
               std::invalid_argument);
  EXPECT_THROW(congest::parse_fault_plan("dup=1.01"), std::invalid_argument);
  EXPECT_THROW(congest::parse_fault_plan("corrupt=-0.5"),
               std::invalid_argument);
  EXPECT_THROW(congest::parse_fault_plan("reorder=2"), std::invalid_argument);
  EXPECT_THROW(congest::parse_fault_plan("reorder_max=65"),
               std::invalid_argument);
}

// --- injector determinism -----------------------------------------------------

TEST(FaultInjector, FatesAreAPureFunctionOfTheArguments) {
  FaultPlan plan = congest::parse_fault_plan("drop=0.3,dup=0.2,reorder=0.3");
  plan.seed = 11;
  const congest::FaultInjector a(plan), b(plan);
  bool any_drop = false, any_clean = false;
  for (long round = 0; round < 64; ++round) {
    const auto fa = a.fate(1, 2, round, 0);
    const auto fb = b.fate(1, 2, round, 0);
    EXPECT_EQ(fa.drop, fb.drop);
    EXPECT_EQ(fa.delay, fb.delay);
    EXPECT_EQ(fa.duplicate, fb.duplicate);
    any_drop = any_drop || fa.drop;
    any_clean = any_clean || (!fa.drop && !fa.duplicate && fa.delay == 0);
  }
  EXPECT_TRUE(any_drop);   // p=0.3 over 64 draws
  EXPECT_TRUE(any_clean);
}

TEST(FaultInjector, ExtremeProbabilitiesAreExact) {
  FaultPlan always;
  always.drop = 1.0;
  FaultPlan never;  // all probabilities zero
  const congest::FaultInjector all(always), none(never);
  for (long round = 0; round < 32; ++round) {
    EXPECT_TRUE(all.fate(0, 1, round, 0).drop);
    const auto f = none.fate(0, 1, round, 0);
    EXPECT_FALSE(f.drop || f.duplicate || f.corrupt || f.delay > 0);
  }
}

// --- reliable transport: zero-fault parity ------------------------------------

TEST(ReliableTransport, ZeroFaultPlanMatchesPerfectPathExactly) {
  const auto formula = mso::lib::triangle_free();
  for (unsigned seed = 0; seed < 3; ++seed) {
    const Graph g = btd_graph(seed);
    congest::Network perfect(g, {.id_seed = seed + 1});
    const auto ref = dist::run(perfect, {dist::Kind::kDecision, formula}, 3);
    ASSERT_TRUE(ref.run.ok());

    NetworkConfig cfg;
    cfg.id_seed = seed + 1;
    cfg.faults = FaultPlan{};  // transport on, nothing injected
    congest::Network net(g, cfg);
    const auto out = dist::run(net, {dist::Kind::kDecision, formula}, 3);
    ASSERT_TRUE(out.run.ok());
    EXPECT_EQ(out.holds, ref.holds) << "seed=" << seed;
    // One physical round per protocol step: identical round accounting.
    EXPECT_EQ(out.total_rounds(), ref.total_rounds()) << "seed=" << seed;
    EXPECT_EQ(net.stats().messages, perfect.stats().messages);
    EXPECT_EQ(net.stats().total_bits, perfect.stats().total_bits);
    EXPECT_EQ(net.stats().retransmissions, 0);
    EXPECT_EQ(net.stats().faults_dropped, 0);
  }
}

// --- one mailbox layout on every path ----------------------------------------

/// Sends, every round below `rounds_`, a message on every port whose payload
/// and size name the sender, the receiver and the round, and checks that
/// whatever arrives is exactly what that neighbor posted to this node.
class TaggedExchange : public congest::NodeProgram {
 public:
  explicit TaggedExchange(int rounds) : rounds_(rounds) {}
  int received = 0;
  int mismatched = 0;

  static std::uint64_t tag(VertexId from, VertexId to, int round) {
    return (static_cast<std::uint64_t>(from) << 40) |
           (static_cast<std::uint64_t>(to) << 20) |
           static_cast<std::uint64_t>(round);
  }
  static int bits_of(VertexId from, VertexId to) {
    return 1 + (from * 7 + to * 3) % 20;
  }

  void on_round(congest::NodeCtx& ctx) override {
    const int r = ctx.round();
    for (int p = 0; p < ctx.degree(); ++p) {
      const congest::Message* m = ctx.recv(p);
      if (m == nullptr) continue;
      ++received;
      const VertexId from = ctx.neighbor_id(p);
      const auto* value = m->value.get_if<std::uint64_t>();
      if (value == nullptr || *value != tag(from, ctx.id(), r - 1) ||
          m->bits != bits_of(from, ctx.id()))
        ++mismatched;
    }
    if (r >= rounds_) return;
    for (int p = 0; p < ctx.degree(); ++p) {
      const VertexId to = ctx.neighbor_id(p);
      ctx.send(p,
               congest::Message(tag(ctx.id(), to, r), bits_of(ctx.id(), to)));
    }
  }
  bool done(const congest::NodeCtx& ctx) const override {
    return ctx.round() > rounds_;
  }

 private:
  int rounds_;
};

TEST(FaultMailboxes, DeliveredMessagesAreTheOnesPosted) {
  const Graph g = btd_graph(4, 14, 3, 0.4);
  const int rounds = 6;
  congest::Network net(g, faulty_cfg("drop=0.2,dup=0.2,reorder=0.2", 3));
  std::vector<std::unique_ptr<congest::NodeProgram>> programs;
  std::vector<TaggedExchange*> nodes;
  for (int v = 0; v < g.num_vertices(); ++v) {
    auto p = std::make_unique<TaggedExchange>(rounds);
    nodes.push_back(p.get());
    programs.push_back(std::move(p));
  }
  const congest::RunOutcome outcome =
      net.run_outcome(congest::program_ptrs(programs));
  ASSERT_TRUE(outcome.ok());
  int received = 0;
  for (const TaggedExchange* node : nodes) {
    EXPECT_EQ(node->mismatched, 0);
    received += node->received;
  }
  const int posted = 2 * g.num_edges() * rounds;
  EXPECT_EQ(net.stats().messages, posted);
  EXPECT_EQ(received, posted);  // the reliable transport loses nothing
}

// --- reliable transport: oracle-correct under the fault sweep -----------------

const char* kSweepSpecs[] = {
    "drop=0.05", "drop=0.2", "dup=0.1",
    "drop=0.1,dup=0.05,corrupt=0.05,reorder=0.1,reorder_max=2",
};

TEST(FaultSweep, DecisionStaysOracleCorrect) {
  const auto formula = mso::lib::triangle_free();
  for (unsigned seed = 1; seed <= 3; ++seed) {
    const Graph g = btd_graph(seed);
    const bool expected = seq::decide(g, formula);
    for (const char* spec : kSweepSpecs) {
      NetworkConfig cfg = faulty_cfg(spec, seed);
      cfg.faults->seed = seed;
      congest::Network net(g, cfg);
      const auto out = dist::run(net, {dist::Kind::kDecision, formula}, 3);
      ASSERT_TRUE(out.run.ok()) << spec << " seed=" << seed;
      ASSERT_FALSE(out.treedepth_exceeded);
      EXPECT_EQ(out.holds, expected) << spec << " seed=" << seed;
      if (cfg.faults->drop > 0) {
        EXPECT_GT(net.stats().faults_dropped, 0) << spec;
      }
    }
  }
}

TEST(FaultSweep, OptimizationStaysOracleCorrect) {
  const auto formula = mso::lib::independent_set();
  for (unsigned seed = 1; seed <= 3; ++seed) {
    const Graph g = btd_graph(seed, 8);
    const auto oracle = seq::maximize(g, formula, "S", Sort::VertexSet);
    for (const char* spec : kSweepSpecs) {
      NetworkConfig cfg = faulty_cfg(spec, seed);
      cfg.faults->seed = seed * 7 + 1;
      congest::Network net(g, cfg);
      const auto out =
          dist::run(net,
                    {dist::Kind::kMaximize, formula, {{"S", Sort::VertexSet}}},
                    3);
      ASSERT_TRUE(out.run.ok()) << spec << " seed=" << seed;
      ASSERT_FALSE(out.treedepth_exceeded);
      ASSERT_EQ(out.best_weight.has_value(), oracle.has_value());
      if (oracle) {
        EXPECT_EQ(*out.best_weight, oracle->weight) << spec;
      }
    }
  }
}

TEST(FaultSweep, CountingStaysOracleCorrect) {
  const auto formula = mso::lib::independent_set();
  const std::vector<std::pair<std::string, Sort>> vars{{"S", Sort::VertexSet}};
  for (unsigned seed = 1; seed <= 3; ++seed) {
    const Graph g = btd_graph(seed, 8);
    const auto expected = seq::count(g, formula, vars);
    for (const char* spec : kSweepSpecs) {
      NetworkConfig cfg = faulty_cfg(spec, seed);
      cfg.faults->seed = seed * 3 + 2;
      congest::Network net(g, cfg);
      const auto out = dist::run(net, {dist::Kind::kCount, formula, vars}, 3);
      ASSERT_TRUE(out.run.ok()) << spec << " seed=" << seed;
      EXPECT_EQ(out.count, expected) << spec << " seed=" << seed;
    }
  }
}

TEST(FaultSweep, OptMarkedStaysOracleCorrect) {
  const auto formula = mso::lib::independent_set();
  for (unsigned seed = 1; seed <= 3; ++seed) {
    Graph g = btd_graph(seed, 8);
    // Mark a maximum independent set so the verifier has a true positive.
    const auto oracle = seq::maximize(g, formula, "S", Sort::VertexSet);
    ASSERT_TRUE(oracle.has_value());
    for (VertexId v = 0; v < g.num_vertices(); ++v)
      if (oracle->vertices[v]) g.set_vertex_label("marked", v);
    congest::Network ref_net(g, {.id_seed = seed});
    const auto ref =
        dist::run(ref_net,
                  {dist::Kind::kOptMarked, formula, {{"S", Sort::VertexSet}}},
                  3);
    ASSERT_TRUE(ref.run.ok());
    for (const char* spec : kSweepSpecs) {
      NetworkConfig cfg = faulty_cfg(spec, seed);
      cfg.faults->seed = seed + 17;
      congest::Network net(g, cfg);
      const auto out =
          dist::run(net,
                    {dist::Kind::kOptMarked, formula, {{"S", Sort::VertexSet}}},
                    3);
      ASSERT_TRUE(out.run.ok()) << spec << " seed=" << seed;
      EXPECT_EQ(out.holds, ref.holds) << spec;
      EXPECT_EQ(out.is_optimal, ref.is_optimal) << spec;
      EXPECT_EQ(out.marked_weight, ref.marked_weight) << spec;
    }
  }
}

// --- determinism: same seed, same execution -----------------------------------

TEST(FaultSweep, SameSeedReproducesTheExactTrace) {
  const auto formula = mso::lib::triangle_free();
  const Graph g = btd_graph(2);
  auto digest_run = [&](std::uint64_t fault_seed) {
    audit::RoundDigestSink sink;
    NetworkConfig cfg = faulty_cfg("drop=0.2,dup=0.1,reorder=0.1");
    cfg.faults->seed = fault_seed;
    cfg.sink = &sink;
    congest::Network net(g, cfg);
    const auto out = dist::run(net, {dist::Kind::kDecision, formula}, 3);
    EXPECT_TRUE(out.run.ok());
    return sink.digests();
  };
  const auto a = digest_run(5), b = digest_run(5), c = digest_run(6);
  EXPECT_EQ(a, b);  // same seed: bit-identical round/fault trace
  EXPECT_NE(a, c);  // different fault seed: different injected pattern
}

// --- audit digest: the transport preserves the protocol's execution -----------

TEST(ReliableTransport, AuditDigestMatchesThePerfectPath) {
  // The audit digest folds every message (sender, receiver, size, content)
  // once per protocol round, so equal digests mean the reliable transport
  // delivered the same messages in the same virtual rounds as the perfect
  // network, whatever the link faults did underneath.
  auto audited = [](const std::optional<FaultPlan>& plan) {
    NetworkConfig cfg;
    cfg.id_seed = 11;
    cfg.audit = true;
    cfg.faults = plan;
    return cfg;
  };
  {
    SCOPED_TRACE("elim-tree path:16");
    const Graph g = gen::path(16);
    congest::Network ref(g, audited(std::nullopt));
    ASSERT_TRUE(dist::run_elim_tree(ref, 4).success);
    ASSERT_NE(ref.audit_digest(), 0u);
    for (const char* spec : kSweepSpecs) {
      congest::Network net(g, audited(congest::parse_fault_plan(spec)));
      ASSERT_TRUE(dist::run_elim_tree(net, 4).success) << spec;
      EXPECT_EQ(net.audit_digest(), ref.audit_digest()) << spec;
    }
  }
  const auto indep = mso::lib::independent_set();
  const std::vector<dist::Query> queries = {
      {dist::Kind::kDecision, mso::lib::triangle_free()},
      {dist::Kind::kCount, indep, {{"S", Sort::VertexSet}}},
      {dist::Kind::kMaximize, indep, {{"S", Sort::VertexSet}}},
  };
  for (unsigned seed = 1; seed <= 3; ++seed) {
    const Graph g = btd_graph(seed, 20, 3, 0.4);
    for (const dist::Query& q : queries) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " kind " +
                   std::to_string(static_cast<int>(q.kind)));
      congest::Network ref(g, audited(std::nullopt));
      ASSERT_TRUE(dist::run(ref, q, 3).run.ok());
      for (const char* spec : kSweepSpecs) {
        FaultPlan plan = congest::parse_fault_plan(spec);
        plan.seed = seed;
        congest::Network net(g, audited(plan));
        ASSERT_TRUE(dist::run(net, q, 3).run.ok()) << spec;
        EXPECT_EQ(net.audit_digest(), ref.audit_digest()) << spec;
      }
    }
  }
}

// --- crash-stop: structured degradation, never a wrong answer -----------------

TEST(CrashFaults, CrashYieldsStructuredDegradedOutcome) {
  const auto formula = mso::lib::triangle_free();
  for (unsigned seed = 1; seed <= 3; ++seed) {
    const Graph g = btd_graph(seed);
    NetworkConfig cfg = faulty_cfg("crash=2@r25", seed);
    congest::Network net(g, cfg);
    const auto out = dist::run(net, {dist::Kind::kDecision, formula}, 3);
    EXPECT_FALSE(out.run.ok()) << "seed=" << seed;
    EXPECT_EQ(out.run.status, RunStatus::kCrashed);
    ASSERT_EQ(out.run.crashed.size(), 1u);
    EXPECT_EQ(out.run.crashed[0], 2);
    // A degraded pipeline never claims a treedepth verdict.
    EXPECT_FALSE(out.treedepth_exceeded);
    EXPECT_GT(net.stats().crashes, 0);
  }
}

TEST(CrashFaults, ReorderComposedWithSameRoundCrashesStaysStructured) {
  // Reorder keeps frames in flight across round boundaries; two crash-stop
  // faults landing in the *same* round as delayed deliveries exercise the
  // crash path while the link queues are non-trivially populated. The
  // contract is unchanged from the single-fault cases: a structured
  // degraded outcome naming every crashed node, never a wrong answer, and
  // a bit-identical round/fault trace for equal seeds.
  const auto formula = mso::lib::triangle_free();
  const Graph g = btd_graph(2);
  const std::string spec = "reorder=0.4,reorder_max=3,crash=2@r12,crash=3@r12";
  auto crashed_run = [&](std::uint64_t fault_seed) {
    audit::RoundDigestSink sink;
    NetworkConfig cfg = faulty_cfg(spec, 2);
    cfg.faults->seed = fault_seed;
    cfg.sink = &sink;
    congest::Network net(g, cfg);
    const auto out = dist::run(net, {dist::Kind::kDecision, formula}, 3);
    EXPECT_FALSE(out.run.ok());
    EXPECT_EQ(out.run.status, RunStatus::kCrashed);
    // Both crash-stops fire in the one round; the degraded outcome names
    // both nodes and still claims no verdict.
    EXPECT_EQ(out.run.crashed.size(), 2u);
    EXPECT_EQ(std::count(out.run.crashed.begin(), out.run.crashed.end(), 2), 1);
    EXPECT_EQ(std::count(out.run.crashed.begin(), out.run.crashed.end(), 3), 1);
    EXPECT_FALSE(out.treedepth_exceeded);
    return sink.digests();
  };
  const auto a = crashed_run(9), b = crashed_run(9), c = crashed_run(10);
  EXPECT_EQ(a, b);  // same seed: reorder delays + crash cut are reproducible
  EXPECT_NE(a, c);  // different seed: different in-flight pattern at the cut

  // The same composition with the crashes aimed at an id absent from the
  // network is inert: reorder alone must leave the verdict oracle-equal.
  const bool expected = seq::decide(g, formula);
  NetworkConfig cfg =
      faulty_cfg("reorder=0.4,reorder_max=3,crash=99@r12,crash=98@r12", 2);
  cfg.faults->seed = 9;
  congest::Network net(g, cfg);
  const auto out = dist::run(net, {dist::Kind::kDecision, formula}, 3);
  ASSERT_TRUE(out.run.ok());
  EXPECT_EQ(out.holds, expected);
}

TEST(CrashFaults, CrashIdAbsentFromNetworkIsInert) {
  const Graph g = gen::path(5);  // ids 0..4: crash id 99 never fires
  NetworkConfig cfg = faulty_cfg("crash=99@r2");
  congest::Network net(g, cfg);
  const auto tree = dist::run_elim_tree(net, 3);
  EXPECT_TRUE(tree.run.ok());
  EXPECT_TRUE(tree.success);
}

// --- round budget: degraded outcome names the stalled phase -------------------

TEST(RoundBudget, ExhaustionNamesTheStalledPhase) {
  const Graph g = btd_graph(1);
  NetworkConfig cfg;
  cfg.id_seed = 1;
  cfg.faults = FaultPlan{};  // the reliable-transport loop
  cfg.max_rounds = 20;       // elim-tree needs far more
  congest::Network net(g, cfg);
  const auto out = dist::run_elim_tree(net, 3);
  EXPECT_FALSE(out.run.ok());
  EXPECT_EQ(out.run.status, RunStatus::kRoundLimit);
  EXPECT_EQ(out.run.stalled_phase, "elim-tree");
  EXPECT_FALSE(out.success);  // never misread as a treedepth verdict
}

TEST(RoundBudget, PerfectPathAlsoReportsStalledPhase) {
  const Graph g = btd_graph(1);
  NetworkConfig cfg;
  cfg.id_seed = 1;
  cfg.max_rounds = 20;  // no faults, no sink: the perfect loop path
  congest::Network net(g, cfg);
  const auto out = dist::run_elim_tree(net, 3);
  EXPECT_FALSE(out.run.ok());
  EXPECT_EQ(out.run.status, RunStatus::kRoundLimit);
  EXPECT_EQ(out.run.stalled_phase, "elim-tree");
}

TEST(RoundBudget, FrameBarrierThatCannotFinishStalls) {
  // drop=1 loses every frame, so the first virtual round's frame barrier
  // never completes: the stall detector must end the run after about
  // stall_quiet_rounds physical rounds, not at the max_rounds cap.
  const Graph g = gen::family("btd:200:3");
  const struct {
    const char* spec;
    RunStatus status;
  } cases[] = {{"drop=1,seed=7", RunStatus::kRoundLimit},
               {"drop=1,crash=5@r3,seed=7", RunStatus::kCrashed}};
  for (const auto& [spec, status] : cases) {
    SCOPED_TRACE(spec);
    const NetworkConfig cfg = faulty_cfg(spec);
    congest::Network net(g, cfg);
    const auto out = dist::run_elim_tree(net, 3);
    EXPECT_EQ(out.run.status, status);
    EXPECT_LE(out.run.rounds, 2L * cfg.stall_quiet_rounds);
    EXPECT_EQ(out.run.virtual_rounds, 0);
    EXPECT_EQ(out.run.stalled_phase, "elim-tree");
    EXPECT_FALSE(out.success);
  }
}

// --- fragment reassembly under duplication and reordering ---------------------

TEST(FragmentReassembly, DupAndReorderDeliverEachMessageOnceInOrder) {
  // Heavy duplication + reordering under the reliable transport: the
  // FragmentReassembler, which checks in-order exactly-once delivery,
  // must surface exactly the sent payload sequence, each message once.
  struct Sender final : congest::NodeProgram {
    congest::FragmentSender sender;
    bool queued = false;
    void on_round(congest::NodeCtx& ctx) override {
      if (!queued) {
        queued = true;
        // Three logical messages, each fragmented across several chunks.
        sender.enqueue(0, 10, 3 * ctx.bandwidth());
        sender.enqueue(0, 20, 2 * ctx.bandwidth());
        sender.enqueue(0, 30, 3 * ctx.bandwidth());
      }
      sender.pump(ctx);
    }
    bool done(const congest::NodeCtx&) const override {
      return queued && sender.empty();
    }
  };
  struct Receiver final : congest::NodeProgram {
    congest::FragmentReassembler reasm;
    std::vector<int> got;
    void on_round(congest::NodeCtx& ctx) override {
      if (auto payload = reasm.poll(ctx, 0))
        got.push_back(payload->get<int>());
    }
    bool done(const congest::NodeCtx&) const override {
      return got.size() >= 3;
    }
  };
  const Graph g = gen::path(2);
  congest::Network net(g,
                       faulty_cfg("dup=0.6,reorder=0.6,reorder_max=3,seed=3"));
  std::vector<std::unique_ptr<congest::NodeProgram>> programs;
  auto sender = std::make_unique<Sender>();
  auto receiver = std::make_unique<Receiver>();
  Receiver* handle = receiver.get();
  programs.push_back(std::move(sender));
  programs.push_back(std::move(receiver));
  const auto outcome = net.run_outcome(congest::program_ptrs(programs));
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(handle->got, (std::vector<int>{10, 20, 30}));
  EXPECT_GT(net.stats().faults_duplicated, 0);
}

TEST(FragmentReassembly, OutOfSequenceChunkThrows) {
  // A perfect network delivers each chunk once and in order, so a chunk
  // that skips a message, skips a chunk or repeats one can only come from
  // a broken transport or sender: the reassembler throws, naming the port
  // and both sequence positions, and the exception leaves run_outcome.
  struct Chunk {
    std::uint32_t msg_seq;
    int chunk, num_chunks;
  };
  struct Sender final : congest::NodeProgram {
    std::vector<Chunk> chunks;  // one per round
    void on_round(congest::NodeCtx& ctx) override {
      if (ctx.round() >= static_cast<int>(chunks.size())) return;
      const Chunk& c = chunks[ctx.round()];
      congest::Fragment frag;
      frag.msg_seq = c.msg_seq;
      frag.chunk = c.chunk;
      frag.num_chunks = c.num_chunks;
      if (c.chunk + 1 == c.num_chunks) frag.value = 7;
      ctx.send(0, congest::Message(std::move(frag), 16));
    }
    bool done(const congest::NodeCtx& ctx) const override {
      return ctx.round() >= static_cast<int>(chunks.size());
    }
  };
  struct Receiver final : congest::NodeProgram {
    congest::FragmentReassembler reasm;
    int got = 0;
    void on_round(congest::NodeCtx& ctx) override {
      if (reasm.poll(ctx, 0)) ++got;
    }
    bool done(const congest::NodeCtx& ctx) const override {
      return ctx.round() > 4;
    }
  };
  const struct {
    const char* name;
    std::vector<Chunk> chunks;
    const char* what;
  } cases[] = {
      {"skipped message", {{0, 0, 1}, {2, 0, 1}},
       "port 0 expected msg_seq 1 chunk 0, got msg_seq 2 chunk 0"},
      {"skipped chunk", {{0, 0, 3}, {0, 2, 3}},
       "port 0 expected msg_seq 0 chunk 1, got msg_seq 0 chunk 2"},
      {"repeated chunk", {{0, 0, 2}, {0, 0, 2}},
       "port 0 expected msg_seq 0 chunk 1, got msg_seq 0 chunk 0"},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.name);
    congest::Network net(gen::path(2));
    std::vector<std::unique_ptr<congest::NodeProgram>> programs;
    auto sender = std::make_unique<Sender>();
    sender->chunks = c.chunks;
    programs.push_back(std::move(sender));
    programs.push_back(std::make_unique<Receiver>());
    try {
      net.run_outcome(congest::program_ptrs(programs));
      ADD_FAILURE() << "run_outcome did not throw";
    } catch (const std::logic_error& e) {
      EXPECT_NE(std::string(e.what()).find(c.what), std::string::npos)
          << e.what();
    }
  }
}

// --- round cap: crashed nodes make it a crash ending --------------------------

TEST(RoundBudget, RoundCapAfterACrashReportsTheCrash) {
  // The live nodes send on every round and never finish, so neither stall
  // detector fires and the run ends at the round cap. Node 1 crashed on
  // the way there, so the ending is kCrashed, as a stall would report it.
  struct Chatter final : congest::NodeProgram {
    void on_round(congest::NodeCtx& ctx) override {
      ctx.send_all(congest::Message(ctx.id(), 16));
    }
    bool done(const congest::NodeCtx&) const override { return false; }
  };
  NetworkConfig cfg = faulty_cfg("crash=1@r2");
  cfg.max_rounds = 20;
  congest::Network net(gen::cycle(3), cfg);
  std::vector<std::unique_ptr<congest::NodeProgram>> programs;
  for (int v = 0; v < 3; ++v) programs.push_back(std::make_unique<Chatter>());
  const congest::RunOutcome outcome =
      net.run_outcome(congest::program_ptrs(programs));
  EXPECT_EQ(outcome.status, RunStatus::kCrashed);
  EXPECT_EQ(outcome.crashed, (std::vector<VertexId>{1}));
  EXPECT_GT(outcome.rounds, cfg.max_rounds);
}

}  // namespace
}  // namespace dmc
