// E12 — robustness overhead: the reliable transport carries the E1/E3
// protocols over lossy links at a bounded physical-round premium.
//
// Retransmit model (src/congest/reliable.hpp): each virtual round closes
// once every channel's frame and its ack survive; a lost frame is resent
// after a timeout that backs off 2, 4, 8, 16 physical rounds. With i.i.d.
// drop probability p a frame needs 1/(1-p) transmissions in expectation,
// but a virtual round is a *barrier*: it waits for the slowest of the m
// directed channels, i.e. the max of m geometric retransmit chains, which
// grows like log(m)/log(1/p) timeouts. The physical/virtual overhead
// factor is therefore p-dependent and O(log n) in the network size —
// emphatically not O(n): the protocols' flat-in-n round complexity
// survives the lossy links up to a logarithmic transport premium.
// Verdicts must match the fault-free run at every sweep point ("never
// wrong, only slower — or honestly degraded").
#include "bench_util.hpp"
#include "congest/faults.hpp"
#include "congest/network.hpp"
#include "dist/elim_tree.hpp"
#include "dist/query.hpp"
#include "graph/generators.hpp"
#include "mso/formulas.hpp"

using namespace dmc;

namespace {

congest::NetworkConfig cfg_for(const char* spec, unsigned fault_seed) {
  congest::NetworkConfig cfg;
  if (spec != nullptr) {
    cfg.faults = congest::parse_fault_plan(spec);
    cfg.faults->seed = fault_seed;
  }
  return cfg;
}

double factor(long physical, long virtual_rounds) {
  return virtual_rounds > 0
             ? static_cast<double>(physical) / static_cast<double>(virtual_rounds)
             : 0.0;
}

}  // namespace

int main() {
  bench::header(
      "E12: reliable-transport overhead under link faults (E1/E3 families)",
      "Claim: physical/virtual round factor depends on the fault rate and "
      "grows only logarithmically in n (barrier over m geometric "
      "retransmit chains); verdicts match the fault-free run everywhere.");

  const char* specs[] = {nullptr, "drop=0.05", "drop=0.1", "drop=0.2",
                         "drop=0.1,dup=0.05,reorder=0.1"};
  const char* spec_names[] = {"none", "drop=.05", "drop=.1", "drop=.2",
                              "mixed"};

  // --- E1 family: elimination tree (Lemma 5.1), d = 3 ----------------------
  std::printf("\n-- E1: elim-tree, d=3, random btd graphs --\n");
  bench::columns({"n", "faults", "vrounds", "phys", "factor", "retx",
                  "dropped"});
  for (int n : {16, 32, 64, 128}) {
    gen::Rng rng(23);
    const Graph g = gen::random_bounded_treedepth(n, 3, 0.25, rng);
    std::vector<int> ref_parent;
    for (std::size_t s = 0; s < std::size(specs); ++s) {
      congest::Network net(g, cfg_for(specs[s], 40 + n));
      const auto out = dist::run_elim_tree(net, 3);
      if (!out.run.ok()) {
        std::printf("%14d%14s%14s\n", n, spec_names[s], "degraded");
        continue;
      }
      if (specs[s] == nullptr) {
        ref_parent = out.parent;
      } else if (out.parent != ref_parent) {
        // Semantics-preserving transport: the constructed tree must be
        // bit-identical to the fault-free run, not merely some valid tree.
        std::printf("E12 FAILED: tree divergence under %s at n=%d\n",
                    spec_names[s], n);
        return 1;
      }
      bench::row((long long)n, spec_names[s], out.run.virtual_rounds,
                 out.run.rounds, factor(out.run.rounds, out.run.virtual_rounds),
                 net.stats().retransmissions, net.stats().faults_dropped);
    }
  }

  // --- E3 family: MSO decision (Theorem 6.1), triangle-free, d = 3 ---------
  std::printf("\n-- E3: decision (triangle_free), d=3 --\n");
  bench::columns({"n", "faults", "vrounds", "phys", "factor", "frame_bits",
                  "logic_bits"});
  const auto formula = mso::lib::triangle_free();
  for (int n : {16, 32, 64}) {
    gen::Rng rng(23);
    const Graph g = gen::random_bounded_treedepth(n, 3, 0.25, rng);
    bool ref_holds = false;
    long ref_vrounds = 0;  // protocol steps == fault-free physical rounds
    for (std::size_t s = 0; s < std::size(specs); ++s) {
      congest::Network net(g, cfg_for(specs[s], 60 + n));
      const auto out = dist::run(net, {dist::Kind::kDecision, formula}, 3);
      if (!out.run.ok()) {
        std::printf("%14d%14s%14s\n", n, spec_names[s], "degraded");
        continue;
      }
      if (specs[s] == nullptr) {
        ref_holds = out.holds;
        ref_vrounds = out.total_rounds();
      } else if (out.holds != ref_holds) {
        std::printf("E12 FAILED: verdict divergence under %s at n=%d\n",
                    spec_names[s], n);
        return 1;
      }
      // The protocol's step count is deterministic, so the fault-free
      // total_rounds() is the virtual-round count of every sweep point;
      // stats().rounds is this run's physical total across all stages.
      const auto& st = net.stats();
      bench::row((long long)n, spec_names[s], ref_vrounds, st.rounds,
                 factor(st.rounds, ref_vrounds), st.frame_bits,
                 st.total_bits);
    }
  }

  std::printf(
      "\nReading: `factor` is the physical-rounds premium per protocol "
      "step; it should move with the fault rate, not with n. `frame_bits` "
      "vs `logic_bits` is the wire overhead (headers + retransmissions + "
      "acks) on top of the CONGEST-accounted payload bits.\n");
  return 0;
}
