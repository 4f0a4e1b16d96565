// Pins the simulator's observable behaviour across changes to its message
// transport. Each cell runs one protocol under one network setting and
// reduces everything the run exposes — the trace event stream, the
// NetworkStats, the flight-recorder dump, the metrics registry, the audit
// digest, the RunOutcome and the protocol's output — to one FNV-1a digest.
// The expected digests were recorded on the link-indexed mailbox
// simulator; a transport rewrite must reproduce every one of them.
//
// On a mismatch the failure prints the cell's actual digest. Re-record a
// digest only for a change that moves the simulator's behaviour on purpose.
#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "congest/faults.hpp"
#include "congest/network.hpp"
#include "dist/bags.hpp"
#include "dist/elim_tree.hpp"
#include "dist/query.hpp"
#include "graph/generators.hpp"
#include "metrics/metrics.hpp"
#include "mso/formulas.hpp"
#include "obs/buffer.hpp"

namespace dmc {
namespace {

using congest::Network;
using congest::NetworkConfig;
using mso::Sort;
namespace lib = mso::lib;

Graph btd_graph(unsigned seed, int n, int d, double p) {
  gen::Rng rng(seed);
  return gen::random_bounded_treedepth(n, d, p, rng);
}

void put_run(std::ostringstream& out, const congest::RunOutcome& run) {
  out << "run " << congest::to_string(run.status) << ' ' << run.rounds << ' '
      << run.virtual_rounds << " '" << run.stalled_phase << "' crashed";
  for (VertexId id : run.crashed) out << ' ' << id;
  out << '\n';
}

void put_tree(std::ostringstream& out, const dist::ElimTreeResult& tree) {
  out << "tree " << tree.success << ' ' << tree.rounds << '\n';
  for (std::size_t v = 0; v < tree.parent.size(); ++v)
    out << tree.parent[v] << ':' << tree.depth[v] << ' ';
  out << '\n';
  put_run(out, tree.run);
}

void put_stats(std::ostringstream& out, const congest::NetworkStats& s) {
  out << "stats " << s.rounds << ' ' << s.messages << ' ' << s.total_bits
      << ' ' << s.max_message_bits << ' ' << s.active_steps << ' '
      << s.audited_messages << ' ' << s.encoded_bits << ' ' << s.frames << ' '
      << s.retransmissions << ' ' << s.marker_frames << ' ' << s.frame_bits
      << ' ' << s.faults_dropped << ' ' << s.faults_duplicated << ' '
      << s.faults_corrupted << ' ' << s.faults_delayed << ' ' << s.crashes
      << '\n';
}

void put_events(std::ostringstream& out, const obs::TraceBuffer& buffer) {
  using Kind = obs::TraceBuffer::Item::Kind;
  for (const auto& item : buffer.items()) {
    switch (item.kind) {
      case Kind::RunBegin:
        out << "B " << item.run.n << ' ' << item.run.bandwidth << ' '
            << item.run.first_round << '\n';
        break;
      case Kind::Round: {
        const obs::RoundEvent& e = item.round;
        out << "R " << e.round << ' ' << e.messages << ' ' << e.bits << ' '
            << e.max_message_bits << ' ' << e.active_nodes << ' '
            << e.done_nodes << '\n';
        break;
      }
      case Kind::Phase: {
        const obs::PhaseEvent& e = item.phase;
        out << "P " << (e.kind == obs::PhaseEvent::Kind::Begin ? 'b' : 'e')
            << ' ' << e.name << ' ' << e.round << ' ' << e.depth << '\n';
        break;
      }
      case Kind::Fault: {
        const obs::FaultEvent& e = item.fault;
        out << "F " << obs::to_string(e.kind) << ' ' << e.round << ' '
            << e.src << ' ' << e.dst << ' ' << e.detail << '\n';
        break;
      }
      case Kind::Quiescent: {
        const obs::QuiescentEvent& e = item.quiescent;
        out << "Q " << e.first_round << ' ' << e.skipped_rounds << ' '
            << e.active_nodes << ' ' << e.done_nodes << '\n';
        break;
      }
      case Kind::RunEnd:
        out << "E\n";
        break;
    }
  }
}

/// A protocol run on a prepared network; writes its outputs to `out`.
using Protocol = std::function<void(Network&, std::ostringstream&)>;

struct Setting {
  const char* name;
  std::function<void(NetworkConfig&)> apply;
  bool traced = false;
  bool metered = false;
};

const std::vector<Setting>& settings() {
  static const std::vector<Setting> all = {
      {"forward", [](NetworkConfig&) {}},
      {"reverse",
       [](NetworkConfig& c) {
         c.step_order = NetworkConfig::StepOrder::kReverse;
       }},
      {"trace", [](NetworkConfig&) {}, /*traced=*/true},
      {"metrics", [](NetworkConfig&) {}, false, /*metered=*/true},
      {"audit", [](NetworkConfig& c) { c.audit = true; }},
      // Dense stepping: untraced, so the flight ring keeps the -1
      // active/done counts of rounds whose done scan stopped early.
      {"dense", [](NetworkConfig& c) { c.sparse_stepping = false; }},
      {"drop+dup",
       [](NetworkConfig& c) {
         c.faults = congest::parse_fault_plan("drop=0.1,dup=0.05,seed=42");
       },
       /*traced=*/true},
      {"dense+drop+dup",
       [](NetworkConfig& c) {
         c.faults = congest::parse_fault_plan("drop=0.1,dup=0.05,seed=42");
         c.sparse_stepping = false;
       },
       /*traced=*/true},
      {"audit+drop+dup",
       [](NetworkConfig& c) {
         c.audit = true;
         c.faults = congest::parse_fault_plan("drop=0.1,dup=0.05,seed=42");
       }},
      {"crash",
       [](NetworkConfig& c) {
         c.faults = congest::parse_fault_plan("crash=3@r20,seed=5");
       },
       /*traced=*/true},
  };
  return all;
}

/// Runs `protocol` on `g` under `setting` and digests everything observed.
std::string cell_digest(const Graph& g, const Setting& setting,
                        const Protocol& protocol) {
  NetworkConfig cfg;
  cfg.id_seed = 11;
  setting.apply(cfg);
  obs::TraceBuffer buffer;
  metrics::Registry registry;
  if (setting.traced) cfg.sink = &buffer;
  if (setting.metered) cfg.metrics = &registry;
  Network net(g, cfg);
  std::ostringstream out;
  try {
    protocol(net, out);
  } catch (const std::exception& e) {
    out << "threw " << e.what() << '\n';
  }
  put_stats(out, net.stats());
  out << "audit " << net.audit_digest() << '\n';
  out << net.flight_recorder().dump_string();
  put_events(out, buffer);
  if (setting.metered) registry.write_json_fields(out);
  return dist::result_digest(out.str());
}

/// Checks every setting's digest of `protocol` against `expected`.
void pin(const Graph& g, const Protocol& protocol,
         const std::map<std::string, std::string>& expected) {
  for (const Setting& setting : settings()) {
    SCOPED_TRACE(setting.name);
    const auto it = expected.find(setting.name);
    ASSERT_NE(it, expected.end());
    EXPECT_EQ(cell_digest(g, setting, protocol), it->second);
  }
}

Protocol elim_tree(bool sparse_flood) {
  return [sparse_flood](Network& net, std::ostringstream& out) {
    put_tree(out,
             dist::run_elim_tree(net, 3, {.sparse_flood = sparse_flood}));
  };
}

Protocol bags() {
  return [](Network& net, std::ostringstream& out) {
    const dist::ElimTreeResult tree = dist::run_elim_tree(net, 3);
    put_tree(out, tree);
    const dist::BagsResult result = dist::run_bags(net, tree, {}, {});
    put_run(out, result.run);
    for (const dist::LocalBag& b : result.bags) {
      for (VertexId id : b.bag) out << id << ',';
      for (const auto& e : b.edges) out << e.i << '-' << e.j << ',';
      out << ' ';
    }
    out << '\n';
  };
}

Protocol query(dist::Query q, int d) {
  return [q, d](Network& net, std::ostringstream& out) {
    const dist::Outcome o = dist::run(net, q, d);
    out << o.result << ' ' << o.digest << ' ' << o.rounds_elim << ' '
        << o.rounds_bags << ' ' << o.rounds_solve << ' ' << o.num_classes
        << ' ' << o.max_class_bits << ' ' << o.max_table_entries << ' '
        << o.folds << '\n';
    for (bool b : o.vertices) out << b;
    out << '\n';
    put_run(out, o.run);
  };
}

TEST(TransportPin, ElimTreeDenseFlood) {
  pin(btd_graph(5, 24, 3, 0.4), elim_tree(false),
      {{"forward", "a48bb5e995f63772"},
       {"reverse", "a48bb5e995f63772"},
       {"trace", "42b65235f6a75e54"},
       {"metrics", "be791c8d1e6d32f3"},
       {"audit", "d63c8cf2898c2f32"},
       {"drop+dup", "58990bc0f9a6fb23"},
       {"crash", "2045b75d03579374"},
       {"dense", "be4fd4cd8427eca4"},
       {"dense+drop+dup", "58990bc0f9a6fb23"},
       {"audit+drop+dup", "b254f9e6cd0146a9"}});
}

TEST(TransportPin, ElimTreeSparseFlood) {
  pin(btd_graph(5, 24, 3, 0.4), elim_tree(true),
      {{"forward", "bf88c794d1328e76"},
       {"reverse", "bf88c794d1328e76"},
       {"trace", "441ff1c552e9e841"},
       {"metrics", "b11b86ea07f11d7e"},
       {"audit", "53dfbdb70d0617b3"},
       {"drop+dup", "2350e2f0d07fde7d"},
       {"crash", "3936e0b191d56f33"},
       {"dense", "f24d382caa466f49"},
       {"dense+drop+dup", "16ad7c56488cc910"},
       {"audit+drop+dup", "56919ad4a39411f5"}});
}

TEST(TransportPin, Bags) {
  pin(btd_graph(6, 24, 3, 0.4), bags(),
      {{"forward", "1ebf8e1351e050f9"},
       {"reverse", "1ebf8e1351e050f9"},
       {"trace", "a17b24846fb9dd5a"},
       {"metrics", "285f24035dd6db39"},
       {"audit", "28effcc871aea77a"},
       {"drop+dup", "a91e3f7f1a8d569c"},
       {"crash", "18962257ac1afe7c"},
       {"dense", "78cda6ac3398ee0f"},
       {"dense+drop+dup", "c64ce499f234ec44"},
       {"audit+drop+dup", "a01c2797f336365a"}});
}

TEST(TransportPin, Decide) {
  pin(btd_graph(7, 20, 3, 0.4),
      query({dist::Kind::kDecision, lib::triangle_free()}, 3),
      {{"forward", "b2af96b5c63ec3db"},
       {"reverse", "5a1c64693d5dfd11"},
       {"trace", "3c8a0a673f8b3ecd"},
       {"metrics", "4f3dcd5f0999f231"},
       {"audit", "a70af81e34857abb"},
       {"drop+dup", "6c75577ecb48481e"},
       {"crash", "f97fa6531bb82f93"},
       {"dense", "9635deb5385fc328"},
       {"dense+drop+dup", "f77810132c97e514"},
       {"audit+drop+dup", "c94f5a8770d497cd"}});
}

// The star's count (2^32 + 1) outgrows the bandwidth, so the answer's
// way down is fragmented.
TEST(TransportPin, CountFragmentedTables) {
  pin(gen::star(32),
      query({dist::Kind::kCount, lib::independent_set_indicator(),
             {{"S", Sort::VertexSet}}},
            3),
      {{"forward", "9de784438348778a"},
       {"reverse", "9de784438348778a"},
       {"trace", "2aa55129668e21d3"},
       {"metrics", "e3a88a97a726fa03"},
       {"audit", "92bcd5bf5af552b3"},
       {"drop+dup", "5a9e3960997c58ed"},
       {"crash", "f5a3a6e7eda6817a"},
       {"dense", "ff0a58985d990568"},
       {"dense+drop+dup", "722f468ca502b239"},
       {"audit+drop+dup", "ca000c5855bcd4f5"}});
}

TEST(TransportPin, Maximize) {
  pin(btd_graph(8, 16, 3, 0.4),
      query({dist::Kind::kMaximize, lib::independent_set(),
             {{"S", Sort::VertexSet}}},
            3),
      {{"forward", "d79fcbafec8317b2"},
       {"reverse", "0705e92862ebf10b"},
       {"trace", "e0c4100ddf798937"},
       {"metrics", "c3c7c75c7996ccf0"},
       {"audit", "25a134ebb8bd070b"},
       {"drop+dup", "4d5f65d51b8433d1"},
       {"crash", "a973117386cd406c"},
       {"dense", "bb390ec5a2dd7cbd"},
       {"dense+drop+dup", "10ed971b4b0d5353"},
       {"audit+drop+dup", "03955c44d0af8033"}});
}

}  // namespace
}  // namespace dmc
