// Wire-format audit layer (src/congest/wire.hpp + NetworkConfig::audit):
// the declared-size helpers match the real encodings bit for bit, every
// dist protocol passes the audit on its benchmark graphs, and each class
// of conformance violation (under-declared size, unregistered payload,
// broken round trip, zero-bit messages, header-starved fragmentation) is
// caught with an actionable diagnostic.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <stdexcept>
#include <vector>

#include "congest/fragment.hpp"
#include "congest/network.hpp"
#include "congest/wire.hpp"
#include "dist/baseline.hpp"
#include "dist/hfreeness.hpp"
#include "dist/query.hpp"
#include "graph/generators.hpp"
#include "mso/eval.hpp"
#include "mso/formulas.hpp"
#include "seq/courcelle.hpp"

namespace dmc {
namespace {

using congest::Message;
using congest::Network;
using congest::NetworkConfig;
using congest::NodeCtx;
using mso::Sort;
namespace lib = mso::lib;

Graph btd_graph(unsigned seed, int n = 9, int d = 3, double p = 0.4) {
  gen::Rng rng(seed);
  return gen::random_bounded_treedepth(n, d, p, rng);
}

// --- declared-size helpers vs real encodings --------------------------------

TEST(WireBits, UintBitsMatchesCountBits) {
  const std::uint64_t cases[] = {0,   1,   2,    3,    4,         7,
                                 8,   255, 256,  1023, 1024,      (1ull << 31),
                                 (1ull << 32), (1ull << 63) - 1,  (1ull << 63),
                                 UINT64_MAX};
  for (std::uint64_t v : cases)
    EXPECT_EQ(audit::uint_bits(v), congest::count_bits(v)) << "v=" << v;
  EXPECT_EQ(audit::uint_bits(0), 1);
  EXPECT_EQ(audit::uint_bits(UINT64_MAX), 64);
}

TEST(WireBits, IdEncodingOccupiesIdBits) {
  // The "congest::id" codec (registered by congest/wire.cpp) must
  // produce exactly id_bits(n) bits for any id valid in an n-node network,
  // including the degenerate n = 1.
  for (int n : {1, 2, 3, 4, 5, 16, 17, 100, 1000}) {
    const audit::WireContext ctx{n, 64};
    for (VertexId id : {0, n / 2, n - 1})
      EXPECT_EQ(audit::measured_bits(id, ctx), congest::id_bits(n))
          << "n=" << n << " id=" << id;
  }
}

TEST(WireBits, VarintCostsEightBitsPerSevenBitGroup) {
  EXPECT_EQ(audit::varuint_bits(0), 8);
  EXPECT_EQ(audit::varuint_bits(127), 8);
  EXPECT_EQ(audit::varuint_bits(128), 16);
  EXPECT_EQ(audit::varuint_bits(UINT64_MAX), 80);  // 10 groups
  audit::BitWriter w;
  w.put_varuint(300);
  EXPECT_EQ(w.bits(), audit::varuint_bits(300));
  audit::BitReader r(w.bytes(), w.bits());
  EXPECT_EQ(r.get_varuint(), 300u);
  EXPECT_EQ(r.remaining(), 0);
}

TEST(WireBits, ZigZagRoundTripsExtremes) {
  for (std::int64_t v : {std::int64_t{0}, std::int64_t{-1}, std::int64_t{1},
                         INT64_MIN, INT64_MAX}) {
    EXPECT_EQ(audit::unzigzag(audit::zigzag(v)), v) << v;
    audit::BitWriter w;
    w.put_varint(v);
    audit::BitReader r(w.bytes(), w.bits());
    EXPECT_EQ(r.get_varint(), v) << v;
  }
}

/// The one-bit-at-a-time writer put_uint must agree with: bit i of a
/// field lands at stream position (bits so far) + i, LSB first per byte.
struct ReferenceBitWriter {
  std::vector<std::uint8_t> bytes;
  long bits = 0;
  void put_bit(bool b) {
    if (bits % 8 == 0) bytes.push_back(0);
    if (b) bytes.back() |= static_cast<std::uint8_t>(1u << (bits % 8));
    ++bits;
  }
  void put_uint(std::uint64_t v, int width) {
    for (int i = 0; i < width; ++i) put_bit((v >> i) & 1);
  }
};

TEST(WireBits, PutUintMatchesABitByBitWriter) {
  std::mt19937_64 rng(20240617);
  for (int trial = 0; trial < 200; ++trial) {
    audit::BitWriter w;
    ReferenceBitWriter ref;
    const int fields = 1 + static_cast<int>(rng() % 40);
    for (int f = 0; f < fields; ++f) {
      const int width = static_cast<int>(rng() % 65);  // 0..64
      const std::uint64_t v =
          width == 64 ? rng() : rng() & ((std::uint64_t{1} << width) - 1);
      switch (rng() % 4) {
        case 0:  // a lone bit shifts every later field off byte alignment
          w.put_bit(v & 1);
          ref.put_bit(v & 1);
          break;
        case 1:
          w.put_varuint(v);
          for (std::uint64_t x = v;;) {
            ref.put_uint(x & 0x7f, 7);
            x >>= 7;
            ref.put_bit(x != 0);
            if (x == 0) break;
          }
          break;
        default:
          w.put_uint(v, width);
          ref.put_uint(v, width);
          break;
      }
      ASSERT_EQ(w.bits(), ref.bits) << "trial " << trial << " field " << f;
      ASSERT_EQ(w.bytes(), ref.bytes) << "trial " << trial << " field " << f;
    }
    // And the reader takes the fields back bit-exactly.
    audit::BitReader r(w.bytes(), w.bits());
    ReferenceBitWriter echo;
    while (r.remaining() > 0) echo.put_bit(r.get_bit());
    EXPECT_EQ(echo.bytes, ref.bytes);
  }
}

// --- send-time validation ---------------------------------------------------

class OneShotSender : public congest::NodeProgram {
 public:
  explicit OneShotSender(Message msg) : msg_(std::move(msg)) {}
  void on_round(NodeCtx& ctx) override {
    if (!sent_ && ctx.degree() > 0) {
      sent_ = true;
      ctx.send(0, msg_);
    }
  }
  bool done(const NodeCtx&) const override { return sent_; }

 private:
  Message msg_;
  bool sent_ = false;
};

class Sink : public congest::NodeProgram {
 public:
  void on_round(NodeCtx&) override {}
  bool done(const NodeCtx&) const override { return true; }
};

/// Runs `msg` over one edge of a 2-path under `cfg`.
void send_one(Message msg, NetworkConfig cfg) {
  Network net(gen::path(2), cfg);
  std::vector<std::unique_ptr<congest::NodeProgram>> programs;
  programs.push_back(std::make_unique<OneShotSender>(std::move(msg)));
  programs.push_back(std::make_unique<Sink>());
  net.run(programs);
}

TEST(AuditSend, RejectsNonPositiveDeclaredBits) {
  try {
    send_one(Message(std::int64_t{5}, 0), {});
    FAIL() << "bits = 0 must be rejected";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("positive bit size"),
              std::string::npos)
        << e.what();
  }
  EXPECT_THROW(send_one(Message(std::int64_t{5}, -3), {}),
               std::invalid_argument);
}

struct LiarMsg {
  std::uint32_t payload = 0;
};

TEST(AuditSend, CatchesUnderDeclaration) {
  audit::register_codec<LiarMsg>(
      "test::LiarMsg",
      [](const LiarMsg& m, const audit::WireContext&, audit::BitWriter& w) {
        w.put_uint(m.payload, 10);
      },
      [](const audit::WireContext&, audit::BitReader& r) {
        return LiarMsg{static_cast<std::uint32_t>(r.get_uint(10))};
      },
      [](const LiarMsg& a, const LiarMsg& b) { return a.payload == b.payload; });
  // Declares 4 bits, encodes 10: honest bandwidth accounting would charge
  // 10. The audit must name the type and both sizes.
  try {
    send_one(Message(LiarMsg{900}, 4), {.audit = true});
    FAIL() << "under-declaration must be caught";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("test::LiarMsg"), std::string::npos) << what;
    EXPECT_NE(what.find("under-declares"), std::string::npos) << what;
    EXPECT_NE(what.find("encoded 10 bits"), std::string::npos) << what;
    EXPECT_NE(what.find("declared 4 bits"), std::string::npos) << what;
  }
  // The same message audits clean when declared honestly.
  send_one(Message(LiarMsg{900}, 10), {.audit = true});
}

struct OrphanMsg {
  int x = 0;
};

TEST(AuditSend, CatchesUnregisteredPayloadType) {
  try {
    send_one(Message(OrphanMsg{1}, 8), {.audit = true});
    FAIL() << "unregistered payload must be caught";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("no registered wire codec"), std::string::npos) << what;
    EXPECT_NE(what.find("OrphanMsg"), std::string::npos) << what;
  }
  // Without audit mode the same send is accepted (cost-by-declaration).
  send_one(Message(OrphanMsg{1}, 8), {});
}

struct GarblerMsg {
  int x = 0;
};

TEST(AuditSend, CatchesRoundTripMismatch) {
  audit::register_codec<GarblerMsg>(
      "test::GarblerMsg",
      [](const GarblerMsg& m, const audit::WireContext&, audit::BitWriter& w) {
        w.put_uint(static_cast<std::uint64_t>(m.x), 8);
      },
      [](const audit::WireContext&, audit::BitReader& r) {
        return GarblerMsg{static_cast<int>(r.get_uint(8)) + 1};  // corrupts
      },
      [](const GarblerMsg& a, const GarblerMsg& b) { return a.x == b.x; });
  try {
    send_one(Message(GarblerMsg{3}, 8), {.audit = true});
    FAIL() << "round-trip mismatch must be caught";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("round trip"), std::string::npos)
        << e.what();
  }
}

// --- protocols under audit --------------------------------------------------

void expect_fully_audited(const Network& net) {
  EXPECT_GT(net.stats().messages, 0);
  EXPECT_EQ(net.stats().audited_messages, net.stats().messages);
  EXPECT_GT(net.stats().encoded_bits, 0);
  EXPECT_LE(net.stats().encoded_bits, net.stats().total_bits);
  EXPECT_NE(net.audit_digest(), 0u);
}

TEST(AuditProtocols, DecisionAuditClean) {
  for (unsigned seed = 0; seed < 3; ++seed) {
    const Graph g = btd_graph(seed, 9, 3, 0.35);
    Network net(g, {.id_seed = seed + 1, .audit = true});
    const auto outcome =
        dist::run(net, {dist::Kind::kDecision, lib::triangle_free()}, 3);
    ASSERT_FALSE(outcome.treedepth_exceeded);
    EXPECT_EQ(outcome.holds, mso::evaluate(g, *lib::triangle_free()));
    expect_fully_audited(net);
  }
}

TEST(AuditProtocols, OptimizationAuditClean) {
  const Graph g = btd_graph(42, 9, 3, 0.4);
  Network net(g, {.audit = true});
  const auto outcome =
      dist::run(net,
                {dist::Kind::kMaximize, lib::independent_set(),
                 {{"S", Sort::VertexSet}}}, 3);
  ASSERT_FALSE(outcome.treedepth_exceeded);
  ASSERT_TRUE(outcome.best_weight.has_value());
  const auto oracle =
      seq::maximize(g, lib::independent_set(), "S", Sort::VertexSet);
  ASSERT_TRUE(oracle.has_value());
  EXPECT_EQ(*outcome.best_weight, oracle->weight);
  expect_fully_audited(net);
}

TEST(AuditProtocols, CountingAuditClean) {
  const Graph g = btd_graph(60, 8, 3, 0.4);
  Network net(g, {.audit = true});
  const auto outcome =
      dist::run(net,
                {dist::Kind::kCount, lib::independent_set_indicator(),
                 {{"S", Sort::VertexSet}}}, 3);
  ASSERT_FALSE(outcome.treedepth_exceeded);
  expect_fully_audited(net);
}

TEST(AuditProtocols, OptMarkedAuditClean) {
  Graph g = btd_graph(80, 8, 3, 0.4);
  const auto opt =
      seq::maximize(g, lib::independent_set(), "S", Sort::VertexSet);
  ASSERT_TRUE(opt.has_value());
  for (VertexId v = 0; v < g.num_vertices(); ++v)
    if (opt->vertices[v]) g.set_vertex_label("marked", v);
  Network net(g, {.audit = true});
  const auto outcome =
      dist::run(net,
                {dist::Kind::kOptMarked, lib::independent_set(),
                 {{"S", Sort::VertexSet}}}, 3);
  ASSERT_FALSE(outcome.treedepth_exceeded);
  EXPECT_TRUE(outcome.holds);
  EXPECT_TRUE(outcome.is_optimal);
  expect_fully_audited(net);
}

TEST(AuditProtocols, BaselineAuditClean) {
  const Graph g = btd_graph(5, 8, 3, 0.5);
  Network net(g, {.audit = true});
  const auto outcome = dist::run_gather_baseline(net, lib::triangle_free());
  EXPECT_EQ(outcome.holds, mso::evaluate(g, *lib::triangle_free()));
  expect_fully_audited(net);
}

TEST(AuditProtocols, HFreenessAuditClean) {
  NetworkConfig cfg;
  cfg.audit = true;
  const auto out =
      dist::run_h_freeness_grid(gen::grid(5, 5), 5, 5, gen::path(3), 4, cfg);
  EXPECT_FALSE(out.h_free);  // every grid contains P3
}

// --- fragmentation accounting -----------------------------------------------

class FragmentingSender : public congest::NodeProgram {
 public:
  FragmentingSender(std::int64_t value, long bits)
      : value_(value), bits_(bits) {}
  void on_round(NodeCtx& ctx) override {
    if (!queued_) {
      queued_ = true;
      sender_.enqueue(0, value_, bits_);
    }
    sender_.pump(ctx);
  }
  bool done(const NodeCtx&) const override {
    return queued_ && sender_.empty();
  }

 private:
  std::int64_t value_;
  long bits_;
  congest::FragmentSender sender_;
  bool queued_ = false;
};

class FragmentReceiver : public congest::NodeProgram {
 public:
  void on_round(NodeCtx& ctx) override {
    if (auto payload = congest::poll_fragment(ctx, 0))
      received_ = payload->get<std::int64_t>();
  }
  bool done(const NodeCtx&) const override { return received_ != 0; }
  std::int64_t received_ = 0;
};

long fragment_messages(long k_bits, int min_bandwidth, bool audit = true) {
  NetworkConfig cfg;
  cfg.min_bandwidth = min_bandwidth;
  cfg.audit = audit;
  Network net(gen::path(2), cfg);
  std::vector<std::unique_ptr<congest::NodeProgram>> programs;
  programs.push_back(std::make_unique<FragmentingSender>(99, k_bits));
  auto receiver = std::make_unique<FragmentReceiver>();
  FragmentReceiver* rx = receiver.get();
  programs.push_back(std::move(receiver));
  net.run(programs);
  EXPECT_EQ(rx->received_, 99);
  return net.stats().messages;
}

TEST(Fragmentation, RoundCostIsCeilOfPayloadOverUsableBandwidth) {
  const int header = congest::FragmentSender::kHeaderBits;
  // k >= 8: the carried test value (99) honestly needs 8 bits, and the
  // logical declaration must cover the true encoding.
  for (const auto& [k, B] : std::vector<std::pair<long, int>>{
           {8, 32}, {24, 32}, {25, 32}, {100, 32}, {100, 64}, {1000, 32}}) {
    const long expected = (k + (B - header) - 1) / (B - header);
    EXPECT_EQ(fragment_messages(k, B), expected) << "k=" << k << " B=" << B;
  }
}

TEST(Fragmentation, PumpRejectsHeaderStarvedBandwidth) {
  // n = 2 gives B = max(min_bandwidth, 2 * 1); min_bandwidth = 8 == header.
  try {
    fragment_messages(20, congest::FragmentSender::kHeaderBits,
                      /*audit=*/false);
    FAIL() << "pump must reject bandwidth <= header";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("chunk header"), std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace dmc
