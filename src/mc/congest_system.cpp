#include "mc/congest_system.hpp"

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <utility>

#include "congest/fragment.hpp"
#include "congest/sched_hook.hpp"

namespace dmc::mc {

namespace {

std::uint64_t fold64(std::uint64_t h, std::uint64_t x) {
  h ^= x;
  h *= 1099511628211ull;
  return h;
}

constexpr std::uint64_t kFnvBasis = 1469598103934665603ull;

/// Crash processes live above every edge process (scenario graphs are
/// tiny; edge ids are small).
constexpr int kCrashProcessBase = 1'000'000;

// --- transport-pair programs -------------------------------------------

/// Silent round 0 (markers only), then one small payload. The silent
/// round is what arms the planted-bug trigger: the round-0 marker's
/// retransmit copy is the stale frame that can overtake round 1's
/// payload frame.
class PairSender : public congest::NodeProgram {
 public:
  void on_round(congest::NodeCtx& ctx) override {
    if (ctx.round() == 1)
      ctx.send(0, congest::Message(std::int64_t{42}, 16));
  }
  bool done(const congest::NodeCtx& ctx) const override {
    return ctx.round() >= 2;
  }
};

class PairReceiver : public congest::NodeProgram {
 public:
  std::int64_t value = -1;
  int receives = 0;

  void on_round(congest::NodeCtx& ctx) override {
    const auto* msg = ctx.recv(0);
    if (msg == nullptr) return;
    if (const auto* v = msg->value.get_if<std::int64_t>()) {
      value = *v;
      receives += 1;
    }
  }
  bool done(const congest::NodeCtx&) const override { return receives > 0; }
};

// --- transport-chain3 programs -----------------------------------------

/// Path 0 - 1 - 2: node 0 fragments a 100-bit logical payload to node 1,
/// which reassembles, increments, and forwards it (again fragmented) to
/// node 2. Exercises chunk sequencing under adversarial delivery orders;
/// the reassembler must commit each logical message exactly once.
class FragSource : public congest::NodeProgram {
 public:
  FragSource(VertexId to, std::int64_t value, long bits)
      : to_(to), value_(value), bits_(bits) {}

  void on_round(congest::NodeCtx& ctx) override {
    if (ctx.round() == 0) sender_.enqueue(ctx.port_of(to_), value_, bits_);
    sender_.pump(ctx);
  }
  bool done(const congest::NodeCtx& ctx) const override {
    return ctx.round() > 0 && sender_.idle();
  }

 private:
  VertexId to_;
  std::int64_t value_;
  long bits_;
  congest::FragmentSender sender_;
};

class FragRelay : public congest::NodeProgram {
 public:
  FragRelay(VertexId from, VertexId to)
      : from_(from), to_(to) {}

  std::int64_t value = -1;
  int commits = 0;

  void on_round(congest::NodeCtx& ctx) override {
    if (auto v = rx_.poll(ctx, ctx.port_of(from_))) {
      commits += 1;
      if (commits == 1) {
        value = v->get<std::int64_t>();
        tx_.enqueue(ctx.port_of(to_), value + 1, 100);
      }
    }
    tx_.pump(ctx);
  }
  bool done(const congest::NodeCtx&) const override {
    return commits > 0 && tx_.idle();
  }

 private:
  VertexId from_, to_;
  congest::FragmentReassembler rx_;
  congest::FragmentSender tx_;
};

class FragSink : public congest::NodeProgram {
 public:
  explicit FragSink(VertexId from) : from_(from) {}

  std::int64_t value = -1;
  int commits = 0;

  void on_round(congest::NodeCtx& ctx) override {
    if (auto v = rx_.poll(ctx, ctx.port_of(from_))) {
      commits += 1;
      value = v->get<std::int64_t>();
    }
  }
  bool done(const congest::NodeCtx&) const override { return commits > 0; }

 private:
  VertexId from_;
  congest::FragmentReassembler rx_;
};

// --- transport-crash3 program ------------------------------------------

/// Every node floods its id to all neighbors for three rounds. Trivially
/// correct; the scenario is about the RunOutcome taxonomy when a crash
/// lands at an explorer-chosen position among the deliveries.
class FloodProgram : public congest::NodeProgram {
 public:
  void on_round(congest::NodeCtx& ctx) override {
    if (ctx.round() >= 3) return;
    for (int port = 0; port < ctx.degree(); ++port)
      ctx.send(port,
               congest::Message(static_cast<std::int64_t>(ctx.id()), 16));
  }
  bool done(const congest::NodeCtx& ctx) const override {
    return ctx.round() >= 3;
  }
};

}  // namespace

// --- the System --------------------------------------------------------

CongestSystem::CongestSystem(CongestScenario scenario, Options options)
    : scenario_(std::move(scenario)), options_(options) {}

Action CongestSystem::to_action(const congest::SchedChoice& c) const {
  Action a;
  a.key = c.key();
  a.label = c.label();
  using Kind = congest::SchedChoice::Kind;
  a.tag = static_cast<int>(c.kind);
  a.optional_action = c.kind == Kind::kDefer || c.kind == Kind::kRetransmit;
  if (c.kind == Kind::kCrash) {
    a.crash = true;
    a.u = static_cast<int>(c.src);
    a.process = kCrashProcessBase + static_cast<int>(c.src);
  } else {
    a.u = static_cast<int>(c.src);
    a.v = static_cast<int>(c.dst);
    // Process = directed link. The opposite direction shares the edge's
    // ack state, so dependent() pairs the two directions explicitly —
    // they are separate processes (no program order between them) whose
    // interleavings must all be explored.
    a.process = c.link;
  }
  return a;
}

namespace {

/// SchedulerHook adapter: converts choice sets to mc::Actions, enforces
/// the per-execution adversary budgets by filtering optional offers
/// *before* the choice point is recorded (so budget-exhausted offers
/// never even appear in the schedule tree), and forwards runtime
/// invariant breaches into the execution's violation list.
class Hook : public congest::SchedulerHook {
 public:
  Hook(const CongestSystem::Options& opts, const PickFn& pick,
       const std::function<Action(const congest::SchedChoice&)>& to_action,
       std::vector<std::string>& violations)
      : pick_(pick),
        to_action_(to_action),
        violations_(violations),
        defers_left_(opts.defer_bound),
        extra_tx_left_(opts.extra_tx_bound) {}

  int choose(long /*physical_round*/,
             const std::vector<congest::SchedChoice>& enabled) override {
    using Kind = congest::SchedChoice::Kind;
    std::vector<int> offered;  // index into `enabled`
    std::vector<Action> actions;
    for (int i = 0; i < static_cast<int>(enabled.size()); ++i) {
      const congest::SchedChoice& c = enabled[i];
      if (c.kind == Kind::kDefer && defers_left_ <= 0) continue;
      if (c.kind == Kind::kRetransmit && extra_tx_left_ <= 0) continue;
      offered.push_back(i);
      actions.push_back(to_action_(c));
    }
    if (offered.empty()) return -1;  // only budget-exhausted options left
    const int picked = pick_(actions);
    if (picked < 0) return -1;
    const congest::SchedChoice& taken = enabled[offered[picked]];
    if (taken.kind == Kind::kDefer) defers_left_ -= 1;
    if (taken.kind == Kind::kRetransmit) extra_tx_left_ -= 1;
    return offered[picked];
  }

  void note_violation(const std::string& what) override {
    violations_.push_back(what);
  }

 private:
  const PickFn& pick_;
  const std::function<Action(const congest::SchedChoice&)>& to_action_;
  std::vector<std::string>& violations_;
  int defers_left_;
  int extra_tx_left_;
};

}  // namespace

Execution CongestSystem::run(const PickFn& pick) {
  Execution e;
  std::function<Action(const congest::SchedChoice&)> conv =
      [this](const congest::SchedChoice& c) { return to_action(c); };
  Hook hook(options_, pick, conv, e.violations);

  congest::NetworkConfig cfg;
  cfg.audit = scenario_.audit;
  cfg.max_rounds = scenario_.max_rounds;
  cfg.stall_quiet_rounds = scenario_.stall_quiet_rounds;
  congest::FaultPlan plan;  // lossless links: nondeterminism is the hook's
  plan.crashes = scenario_.crashes;
  plan.mc_planted_ack_before_dup_check = scenario_.planted_bug;
  cfg.faults = plan;
  cfg.scheduler = &hook;

  congest::Network net(scenario_.graph, cfg);
  auto programs = scenario_.make_programs();
  congest::RunOutcome outcome;
  try {
    outcome = net.run_outcome(programs);
  } catch (const std::exception& ex) {
    // Audit failures (declared-vs-encoded bit mismatch) and transport
    // assertions surface here; PruneExecution passes through untouched.
    e.violations.push_back(std::string("transport exception: ") + ex.what());
    e.outcome = "exception";
    return e;
  }

  e.outcome = congest::to_string(outcome.status);
  std::uint64_t digest = kFnvBasis;
  scenario_.check(outcome, programs, e.violations, digest);
  // Fold the logical traffic totals: the protocol-level message count and
  // declared bits must not depend on the delivery schedule (retransmitted
  // *frames* may; those are excluded deliberately).
  digest = fold64(digest, static_cast<std::uint64_t>(net.stats().messages));
  digest =
      fold64(digest, static_cast<std::uint64_t>(net.stats().total_bits));
  e.digest = digest;
  e.digest_valid = scenario_.check_digest;
  return e;
}

bool CongestSystem::dependent(const Action& a, const Action& b) const {
  if (a.process == b.process) return true;
  if (a.crash && b.crash) return true;
  if (a.crash) return b.u == a.u || b.v == a.u;
  if (b.crash) return a.u == b.u || a.v == b.u;
  if (a.u != b.v || a.v != b.u) return false;  // distinct edges commute
  // Opposite directions of one edge. Delivering A->B writes B's channel
  // state that the reverse direction *retransmit* reads (the piggybacked
  // ack marks B->A acked; ack_seq echoes A->B's delivered flag), so
  // deliver x reverse-retransmit is a race. Opposite deliveries touch
  // disjoint fields (own `delivered`/deposit; `acked` is only ever set)
  // and commute, as do opposite retransmits and anything with a defer
  // (defers only shift their own link's due times).
  using Kind = congest::SchedChoice::Kind;
  const auto ka = static_cast<Kind>(a.tag), kb = static_cast<Kind>(b.tag);
  return (ka == Kind::kDeliver && kb == Kind::kRetransmit) ||
         (ka == Kind::kRetransmit && kb == Kind::kDeliver);
}

// --- scenarios ---------------------------------------------------------

CongestScenario scenario_transport_pair(bool planted_bug) {
  CongestScenario s;
  s.name = planted_bug ? "transport-pair-planted" : "transport-pair";
  s.description =
      planted_bug
          ? "2-node payload handoff with the planted stale-ack ordering bug "
            "(dmc-mc --self-check must find it)"
          : "2-node payload handoff; delivery exactly once, digest equal on "
            "every interleaving";
  Graph g(2);
  g.add_edge(0, 1);
  s.graph = std::move(g);
  s.planted_bug = planted_bug;
  // The buggy schedule stalls the receiver forever; digests diverge by
  // construction, so only the oracle + runtime invariants apply.
  s.check_digest = !planted_bug;
  s.make_programs = [] {
    std::vector<std::unique_ptr<congest::NodeProgram>> p;
    p.push_back(std::make_unique<PairSender>());
    p.push_back(std::make_unique<PairReceiver>());
    return p;
  };
  s.check = [](const congest::RunOutcome& out,
               const std::vector<std::unique_ptr<congest::NodeProgram>>& p,
               std::vector<std::string>& violations, std::uint64_t& digest) {
    const auto* rx = dynamic_cast<const PairReceiver*>(p[1].get());
    if (out.ok()) {
      if (rx->receives != 1)
        violations.push_back("payload delivered " +
                             std::to_string(rx->receives) +
                             " times (expected exactly once)");
      else if (rx->value != 42)
        violations.push_back("payload corrupted in transit: got " +
                             std::to_string(rx->value) + ", sent 42");
    } else {
      violations.push_back(std::string("transport run degraded: ") +
                           congest::to_string(out.status) +
                           " (lossless links must complete)");
    }
    digest = fold64(digest, static_cast<std::uint64_t>(out.virtual_rounds));
    digest = fold64(digest, static_cast<std::uint64_t>(rx->value + 2));
    digest = fold64(digest, static_cast<std::uint64_t>(rx->receives));
  };
  return s;
}

CongestScenario scenario_transport_chain3() {
  CongestScenario s;
  s.name = "transport-chain3";
  s.description =
      "3-node fragment relay (100-bit logical payloads); each message "
      "reassembles exactly once, value survives the two hops";
  Graph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  s.graph = std::move(g);
  s.max_rounds = 96;
  s.make_programs = [] {
    std::vector<std::unique_ptr<congest::NodeProgram>> p;
    p.push_back(std::make_unique<FragSource>(1, std::int64_t{777}, 100));
    p.push_back(std::make_unique<FragRelay>(0, 2));
    p.push_back(std::make_unique<FragSink>(1));
    return p;
  };
  s.check = [](const congest::RunOutcome& out,
               const std::vector<std::unique_ptr<congest::NodeProgram>>& p,
               std::vector<std::string>& violations, std::uint64_t& digest) {
    const auto* relay = dynamic_cast<const FragRelay*>(p[1].get());
    const auto* sink = dynamic_cast<const FragSink*>(p[2].get());
    if (out.ok()) {
      if (relay->commits != 1)
        violations.push_back("relay committed the logical message " +
                             std::to_string(relay->commits) +
                             " times (expected exactly once)");
      if (sink->commits != 1)
        violations.push_back("sink committed the logical message " +
                             std::to_string(sink->commits) +
                             " times (expected exactly once)");
      else if (sink->value != 778)
        violations.push_back("relayed value wrong: got " +
                             std::to_string(sink->value) + ", expected 778");
    } else {
      violations.push_back(std::string("transport run degraded: ") +
                           congest::to_string(out.status) +
                           " (lossless links must complete)");
    }
    digest = fold64(digest, static_cast<std::uint64_t>(out.virtual_rounds));
    digest = fold64(digest, static_cast<std::uint64_t>(sink->value + 2));
    digest = fold64(digest, static_cast<std::uint64_t>(relay->commits));
    digest = fold64(digest, static_cast<std::uint64_t>(sink->commits));
  };
  return s;
}

CongestScenario scenario_transport_crash3() {
  CongestScenario s;
  s.name = "transport-crash3";
  s.description =
      "3-node id flood with node 2 crash-stopping at round 3; every crash "
      "position must yield the kCrashed outcome taxonomy";
  Graph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  s.graph = std::move(g);
  s.crashes.push_back(congest::CrashFault{2, 3});
  // Where the crash lands among the deliveries legitimately changes what
  // the survivors received; only the taxonomy invariants below hold.
  s.check_digest = false;
  s.make_programs = [] {
    std::vector<std::unique_ptr<congest::NodeProgram>> p;
    for (int i = 0; i < 3; ++i) p.push_back(std::make_unique<FloodProgram>());
    return p;
  };
  s.check = [](const congest::RunOutcome& out,
               const std::vector<std::unique_ptr<congest::NodeProgram>>&,
               std::vector<std::string>& violations, std::uint64_t& digest) {
    if (out.status == congest::RunStatus::kCompleted)
      violations.push_back(
          "crash scheduled inside the run but outcome is completed "
          "(RunOutcome taxonomy violated)");
    bool crashed2 = false;
    for (VertexId v : out.crashed) crashed2 |= (v == 2);
    if (out.status == congest::RunStatus::kCrashed && !crashed2)
      violations.push_back(
          "kCrashed outcome without node 2 in the crashed set");
    digest = 0;
  };
  return s;
}

}  // namespace dmc::mc
