#include "congest/network.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "congest/fragment.hpp"
#include "congest/wire.hpp"
#include "graph/generators.hpp"

#include "counting_new.hpp"

namespace dmc::congest {
namespace {

/// Floods the minimum id; checks every node learns it.
class MinFlood : public NodeProgram {
 public:
  explicit MinFlood(int rounds) : rounds_(rounds) {}
  VertexId result = -1;

  void on_round(NodeCtx& ctx) override {
    if (ctx.round() == 0) result = ctx.id();
    for (int p = 0; p < ctx.degree(); ++p) {
      const auto& msg = ctx.recv(p);
      if (msg) result = std::min(result, msg->value.get<VertexId>());
    }
    if (ctx.round() < rounds_)
      ctx.send_all(Message(result, id_bits(ctx.n())));
  }
  bool done(const NodeCtx& ctx) const override {
    return ctx.round() >= rounds_;
  }

 private:
  int rounds_;
};

TEST(Congest, MinFloodConvergesOnPath) {
  const Graph g = gen::path(8);
  Network net(g, {.id_seed = 42});
  std::vector<std::unique_ptr<NodeProgram>> programs;
  std::vector<MinFlood*> handles;
  for (int v = 0; v < 8; ++v) {
    auto p = std::make_unique<MinFlood>(8);
    handles.push_back(p.get());
    programs.push_back(std::move(p));
  }
  EXPECT_TRUE(net.run_outcome(program_ptrs(programs)).ok());
  for (auto* h : handles) EXPECT_EQ(h->result, 0);
}

TEST(Congest, RoundsAndStatsAccounted) {
  const Graph g = gen::cycle(6);
  Network net(g);
  std::vector<std::unique_ptr<NodeProgram>> programs;
  for (int v = 0; v < 6; ++v) programs.push_back(std::make_unique<MinFlood>(3));
  const RunOutcome out = net.run_outcome(program_ptrs(programs));
  ASSERT_TRUE(out.ok());
  EXPECT_GE(out.rounds, 3);
  EXPECT_GT(net.stats().messages, 0);
  EXPECT_GT(net.stats().total_bits, 0);
  EXPECT_LE(net.stats().max_message_bits, net.bandwidth());
}

TEST(Congest, IdPermutationIsConsistent) {
  const Graph g = gen::star(5);
  Network net(g, {.id_seed = 7});
  for (int v = 0; v < g.num_vertices(); ++v)
    EXPECT_EQ(net.vertex_of_id(net.id_of_vertex(v)), v);
}

TEST(Congest, RejectsDisconnectedAndEmpty) {
  EXPECT_THROW(Network(Graph(0)), std::invalid_argument);
  EXPECT_THROW(Network(gen::disjoint_union(gen::path(2), gen::path(2))),
               std::invalid_argument);
}

class Oversender : public NodeProgram {
 public:
  void on_round(NodeCtx& ctx) override {
    if (ctx.degree() > 0)
      ctx.send(0, Message(int{0}, ctx.bandwidth() + 1));
  }
  bool done(const NodeCtx&) const override { return false; }
};

TEST(Congest, EnforcesBandwidth) {
  Network net(gen::path(2));
  std::vector<std::unique_ptr<NodeProgram>> programs;
  programs.push_back(std::make_unique<Oversender>());
  programs.push_back(std::make_unique<Oversender>());
  EXPECT_THROW(net.run_outcome(program_ptrs(programs)),
               std::invalid_argument);
}

TEST(Congest, RejectsDoubleSendOnPort) {
  class DoubleSender : public NodeProgram {
   public:
    void on_round(NodeCtx& ctx) override {
      if (ctx.degree() > 0) {
        ctx.send(0, Message(int{1}, 8));
        ctx.send(0, Message(int{2}, 8));
      }
    }
    bool done(const NodeCtx&) const override { return false; }
  };
  Network net(gen::path(2));
  std::vector<std::unique_ptr<NodeProgram>> programs;
  programs.push_back(std::make_unique<DoubleSender>());
  programs.push_back(std::make_unique<DoubleSender>());
  EXPECT_THROW(net.run_outcome(program_ptrs(programs)), std::logic_error);
}

TEST(Congest, RoundLimitGuards) {
  class Forever : public NodeProgram {
    void on_round(NodeCtx&) override {}
    bool done(const NodeCtx&) const override { return false; }
  };
  Network net(gen::path(2), {.max_rounds = 10});
  std::vector<std::unique_ptr<NodeProgram>> programs;
  programs.push_back(std::make_unique<Forever>());
  programs.push_back(std::make_unique<Forever>());
  EXPECT_EQ(net.run_outcome(program_ptrs(programs)).status,
            RunStatus::kRoundLimit);
}

TEST(Congest, NeighborIdsAndPorts) {
  const Graph g = gen::star(3);  // center 0
  Network net(g, {.id_seed = 3});
  class Check : public NodeProgram {
   public:
    void on_round(NodeCtx& ctx) override {
      for (int p = 0; p < ctx.degree(); ++p)
        EXPECT_EQ(ctx.port_of(ctx.neighbor_id(p)), p);
      EXPECT_EQ(ctx.port_of(ctx.id()), -1);  // not adjacent to self
    }
    bool done(const NodeCtx&) const override { return true; }
  };
  std::vector<std::unique_ptr<NodeProgram>> programs;
  for (int v = 0; v < g.num_vertices(); ++v)
    programs.push_back(std::make_unique<Check>());
  EXPECT_TRUE(net.run_outcome(program_ptrs(programs)).ok());
}

// --- the send contract -------------------------------------------------------
// send and send_all share one send path on every transport: the same checks
// in the same order, and the messages posted before a throw are counted.

/// A network whose runs take the reliable-transport path with no faults.
NetworkConfig reliable_cfg() {
  NetworkConfig cfg;
  cfg.faults = FaultPlan{};
  return cfg;
}

/// Runs `act` on the center of a 3-leaf star in round 0 (the leaves idle),
/// expects the run to throw `Exception` and returns the stats it left.
template <typename Exception>
NetworkStats expect_throw_from_center(const std::function<void(NodeCtx&)>& act,
                                      const NetworkConfig& cfg = {}) {
  class Scripted : public NodeProgram {
   public:
    explicit Scripted(std::function<void(NodeCtx&)> act)
        : act_(std::move(act)) {}
    void on_round(NodeCtx& ctx) override {
      if (act_) act_(ctx);
    }
    bool done(const NodeCtx&) const override { return true; }

   private:
    std::function<void(NodeCtx&)> act_;
  };
  Network net(gen::star(3), cfg);
  std::vector<std::unique_ptr<NodeProgram>> programs;
  programs.push_back(std::make_unique<Scripted>(act));
  for (int v = 1; v < 4; ++v)
    programs.push_back(std::make_unique<Scripted>(nullptr));
  EXPECT_THROW(net.run_outcome(program_ptrs(programs)), Exception);
  return net.stats();
}

void expect_same_counts(const NetworkStats& a, const NetworkStats& b) {
  EXPECT_EQ(a.messages, b.messages);
  EXPECT_EQ(a.total_bits, b.total_bits);
  EXPECT_EQ(a.max_message_bits, b.max_message_bits);
}

TEST(SendContract, UsedPortThrowsOnEverySendPath) {
  const Message m(int{1}, 8);
  const NetworkStats by_send = expect_throw_from_center<std::logic_error>(
      [&](NodeCtx& ctx) {
        ctx.send(1, Message(int{2}, 12));
        ctx.send(0, m);
        ctx.send(1, m);
      });
  EXPECT_EQ(by_send.messages, 2);
  EXPECT_EQ(by_send.total_bits, 20);
  // send_all posts port 0, then meets the used port 1.
  expect_same_counts(by_send, expect_throw_from_center<std::logic_error>(
                                  [&](NodeCtx& ctx) {
                                    ctx.send(1, Message(int{2}, 12));
                                    ctx.send_all(m);
                                  }));
  expect_same_counts(by_send, expect_throw_from_center<std::logic_error>(
                                  [&](NodeCtx& ctx) {
                                    ctx.send(1, Message(int{2}, 12));
                                    ctx.send(0, m);
                                    ctx.send(1, m);
                                  },
                                  reliable_cfg()));
}

TEST(SendContract, BadSizesThrowOnEverySendPath) {
  for (const int bits : {0, -3, 1000}) {
    SCOPED_TRACE(bits);
    const Message bad(int{1}, bits);
    const NetworkStats by_send =
        expect_throw_from_center<std::invalid_argument>([&](NodeCtx& ctx) {
          ctx.send(2, Message(int{2}, 9));
          ctx.send(0, bad);
        });
    EXPECT_EQ(by_send.messages, 1);
    EXPECT_EQ(by_send.total_bits, 9);
    expect_same_counts(by_send,
                       expect_throw_from_center<std::invalid_argument>(
                           [&](NodeCtx& ctx) {
                             ctx.send(2, Message(int{2}, 9));
                             ctx.send_all(bad);
                           }));
    expect_same_counts(by_send,
                       expect_throw_from_center<std::invalid_argument>(
                           [&](NodeCtx& ctx) {
                             ctx.send(2, Message(int{2}, 9));
                             ctx.send(0, bad);
                           },
                           reliable_cfg()));
  }
}

TEST(SendContract, BadPortsThrowOutOfRange) {
  for (const int port : {-1, 3}) {
    SCOPED_TRACE(port);
    const Message m(int{1}, 8);
    expect_throw_from_center<std::out_of_range>(
        [&](NodeCtx& ctx) { ctx.send(port, m); });
    expect_throw_from_center<std::out_of_range>(
        [&](NodeCtx& ctx) { ctx.send(port, m); }, reliable_cfg());
    expect_throw_from_center<std::out_of_range>(
        [&](NodeCtx& ctx) { ctx.recv(port); });
    expect_throw_from_center<std::out_of_range>(
        [&](NodeCtx& ctx) { ctx.neighbor_id(port); });
  }
}

// --- fragmentation -----------------------------------------------------------

class FragSender : public NodeProgram {
 public:
  explicit FragSender(long bits) : bits_(bits) {}
  void on_round(NodeCtx& ctx) override {
    if (ctx.round() == 0 && ctx.degree() > 0)
      sender_.enqueue(0, std::string("payload"), bits_);
    sender_.pump(ctx);
  }
  bool done(const NodeCtx&) const override { return sender_.empty(); }

 private:
  long bits_;
  FragmentSender sender_;
};

class FragReceiver : public NodeProgram {
 public:
  std::string received;
  int arrival_round = -1;
  void on_round(NodeCtx& ctx) override {
    for (int p = 0; p < ctx.degree(); ++p)
      if (auto payload = reasm_.poll(ctx, p)) {
        received = payload->get<std::string>();
        arrival_round = ctx.round();
      }
  }
  bool done(const NodeCtx&) const override { return !received.empty(); }

 private:
  FragmentReassembler reasm_;
};

TEST(Congest, FragmentationPaysProportionalRounds) {
  const Graph g = gen::path(2);
  // Two runs: small payload vs 10x bandwidth payload.
  int small_round = 0, big_round = 0;
  for (int mode = 0; mode < 2; ++mode) {
    Network net(g);
    const long bits = mode == 0 ? 8 : 10L * net.bandwidth();
    auto s = std::make_unique<FragSender>(bits);
    auto r = std::make_unique<FragReceiver>();
    FragReceiver* rh = r.get();
    std::vector<std::unique_ptr<NodeProgram>> programs;
    programs.push_back(std::move(s));
    programs.push_back(std::move(r));
    EXPECT_TRUE(net.run_outcome(program_ptrs(programs)).ok());
    EXPECT_EQ(rh->received, "payload");
    (mode == 0 ? small_round : big_round) = rh->arrival_round;
  }
  EXPECT_GT(big_round, small_round + 5);  // ~10 chunks vs 1
}

class MultiPayloadSender : public NodeProgram {
 public:
  void on_round(NodeCtx& ctx) override {
    if (ctx.round() == 0 && ctx.degree() > 0) {
      // three payloads on one port; they must arrive in order
      sender_.enqueue(0, std::string("first"), 8);
      sender_.enqueue(0, std::string("second"), 3L * ctx.bandwidth());
      sender_.enqueue(0, std::string("third"), 8);
    }
    sender_.pump(ctx);
  }
  bool done(const NodeCtx&) const override { return sender_.empty(); }

 private:
  FragmentSender sender_;
};

class MultiPayloadReceiver : public NodeProgram {
 public:
  std::vector<std::string> received;
  void on_round(NodeCtx& ctx) override {
    for (int p = 0; p < ctx.degree(); ++p)
      if (auto payload = reasm_.poll(ctx, p))
        received.push_back(payload->get<std::string>());
  }
  bool done(const NodeCtx&) const override { return received.size() == 3; }

 private:
  FragmentReassembler reasm_;
};

TEST(Congest, FragmentQueuesDeliverInOrder) {
  Network net(gen::path(2));
  auto s = std::make_unique<MultiPayloadSender>();
  auto r = std::make_unique<MultiPayloadReceiver>();
  MultiPayloadReceiver* rh = r.get();
  std::vector<std::unique_ptr<NodeProgram>> programs;
  programs.push_back(std::move(s));
  programs.push_back(std::move(r));
  EXPECT_TRUE(net.run_outcome(program_ptrs(programs)).ok());
  ASSERT_EQ(rh->received.size(), 3u);
  EXPECT_EQ(rh->received[0], "first");
  EXPECT_EQ(rh->received[1], "second");
  EXPECT_EQ(rh->received[2], "third");
}

// --- payloads ----------------------------------------------------------------

struct WordMsg {  // one-word protocol message, like the elimination tree's
  std::int32_t id = 0;
  std::int32_t phase = 0;
};
struct WideMsg {  // three words: too big for the inline slot
  std::int64_t a = 0, b = 0, c = 0;
};
struct Unregistered {};
/// Heap payload whose live copies are counted through a shared token.
struct Tracked {
  std::shared_ptr<int> token;
  int value = 0;
};

TEST(Payload, SmallTriviallyCopyableValuesAreInline) {
  EXPECT_TRUE(Payload(VertexId{7}).descriptor()->stored_inline());
  EXPECT_TRUE(Payload(std::int64_t{-3}).descriptor()->stored_inline());
  EXPECT_TRUE(Payload(WordMsg{1, 2}).descriptor()->stored_inline());
  EXPECT_TRUE(Payload(Unregistered{}).descriptor()->stored_inline());
  EXPECT_FALSE(Payload(WideMsg{}).descriptor()->stored_inline());
  EXPECT_FALSE(Payload(std::string("x")).descriptor()->stored_inline());
  EXPECT_FALSE(Payload(Fragment{}).descriptor()->stored_inline());
  EXPECT_EQ(Payload().descriptor(), nullptr);
  EXPECT_EQ(Payload(WordMsg{}).descriptor(), &kPayloadType<WordMsg>);

  const long before = g_allocations.load(std::memory_order_relaxed);
  Payload a(WordMsg{4, 5});
  Payload b = a;
  Payload c = std::move(b);
  a = c;
  EXPECT_EQ(g_allocations.load(std::memory_order_relaxed) - before, 0);
  EXPECT_EQ(c.get<WordMsg>().id, 4);
  EXPECT_EQ(a.get<WordMsg>().phase, 5);
}

TEST(Payload, CopyIsDeepAndMoveTransfers) {
  const auto token = std::make_shared<int>(0);
  {
    Payload a(Tracked{token, 1});
    EXPECT_EQ(token.use_count(), 2);
    Payload b = a;  // deep copy
    EXPECT_EQ(token.use_count(), 3);
    b.get_if<Tracked>()->value = 2;
    EXPECT_EQ(a.get<Tracked>().value, 1);

    Payload c = std::move(a);  // ownership moves, nothing is copied
    EXPECT_FALSE(a.has_value());
    EXPECT_EQ(token.use_count(), 3);
    EXPECT_EQ(c.get<Tracked>().value, 1);

    b = Payload(VertexId{9});  // heap value replaced by an inline one
    EXPECT_EQ(token.use_count(), 2);
    EXPECT_EQ(b.get<VertexId>(), 9);
    c = c;  // self-assignment keeps the value
    EXPECT_EQ(c.get<Tracked>().value, 1);
    b = c;
    EXPECT_EQ(token.use_count(), 3);
    c.reset();
    EXPECT_FALSE(c.has_value());
    EXPECT_EQ(token.use_count(), 2);
  }
  EXPECT_EQ(token.use_count(), 1);
}

TEST(Payload, WrongTypeCastFailsDirectlyAndInsideFragment) {
  const Payload id(VertexId{3});
  EXPECT_EQ(id.get_if<std::int64_t>(), nullptr);
  EXPECT_EQ(id.get_if<WordMsg>(), nullptr);
  EXPECT_THROW(id.get<std::int64_t>(), BadPayloadCast);
  EXPECT_EQ(Payload().get_if<VertexId>(), nullptr);
  // An empty value of another type fails the cast too.
  EXPECT_EQ(Payload(Unregistered{}).get_if<VertexId>(), nullptr);

  Fragment frag;
  frag.value = std::string("table");
  const Payload chunk(frag);
  EXPECT_EQ(chunk.get_if<std::string>(), nullptr);  // the envelope is not it
  const Fragment* f = chunk.get_if<Fragment>();
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->value.get_if<VertexId>(), nullptr);
  EXPECT_EQ(f->value.get<std::string>(), "table");
}

TEST(Payload, TypeNamesMatchTheWireRegistry) {
  EXPECT_EQ(Payload(VertexId{1}).type(), typeid(VertexId));
  EXPECT_EQ(Payload().type(), typeid(void));
  EXPECT_EQ(audit::payload_type_name(Payload(VertexId{1})), "congest::id");
  EXPECT_EQ(audit::payload_type_name(Payload(std::int64_t{1})),
            "congest::value");
  EXPECT_EQ(audit::payload_type_name(Payload(Unregistered{})),
            "dmc::congest::(anonymous namespace)::Unregistered");
  EXPECT_EQ(audit::payload_type_name(Payload()), "void");
}

/// Floods the minimum id in one-word messages for `rounds` rounds; the
/// node with id 0 samples the allocation counter at rounds 1 and `rounds`.
class ProbedFlood : public NodeProgram {
 public:
  ProbedFlood(int rounds, long* first, long* last)
      : rounds_(rounds), first_(first), last_(last) {}

  void on_round(NodeCtx& ctx) override {
    if (ctx.id() == 0 && ctx.round() == 1)
      *first_ = g_allocations.load(std::memory_order_relaxed);
    if (ctx.id() == 0 && ctx.round() == rounds_)
      *last_ = g_allocations.load(std::memory_order_relaxed);
    if (ctx.round() == 0) known_ = ctx.id();
    for (int p = 0; p < ctx.degree(); ++p)
      if (const Message* msg = ctx.recv(p))
        known_ = std::min(known_, msg->value.get<WordMsg>().id);
    if (ctx.round() < rounds_)
      ctx.send_all(Message(WordMsg{known_, ctx.round()}, id_bits(ctx.n())));
  }
  bool done(const NodeCtx& ctx) const override {
    return ctx.round() >= rounds_;
  }

 private:
  int rounds_;
  long* first_;
  long* last_;
  VertexId known_ = 0;
};

TEST(Payload, OneWordFloodRoundsDoNotAllocate) {
  const Graph g = gen::grid(6, 6);
  Network net(g);
  long first = -1, last = -1;
  constexpr int kRounds = 20;
  std::vector<std::unique_ptr<NodeProgram>> programs;
  for (int v = 0; v < g.num_vertices(); ++v)
    programs.push_back(std::make_unique<ProbedFlood>(kRounds, &first, &last));
  EXPECT_TRUE(net.run_outcome(program_ptrs(programs)).ok());
  ASSERT_GE(first, 0);
  ASSERT_GE(last, 0);
  EXPECT_GT(net.stats().messages, 0);
  EXPECT_EQ(last - first, 0) << "rounds 1.." << kRounds - 1
                             << " of a one-word flood allocated";
}

}  // namespace
}  // namespace dmc::congest
