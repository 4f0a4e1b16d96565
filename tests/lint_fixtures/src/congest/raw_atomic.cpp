// dmc-lint --self-test fixture for the raw-metric rule.
//
// Never compiled — the path deliberately contains "src/congest" so the
// rule applies (it is scoped to the simulator and protocol trees; the
// metric primitives in src/metrics and the pool in src/par are the
// sanctioned owners of raw atomics). Scanned by the lint_fixtures ctest
// entry.

struct LinkState {
  std::atomic<long long> bits_sent{0};  // lint-expect: raw-metric
  long long round_bits = 0;  // plain accumulator: no finding
};

void on_deliver(LinkState& link, int bits) {
  // The sanctioned spellings stay quiet: a registry handle...
  metrics::global()->counter("x.bits").add(bits);
  // ...and a plain member (the simulator is serial).
  link.round_bits += bits;
  // A deliberate low-level atomic is suppressible at the call site.
  std::atomic_ref<long long>(link.round_bits).store(0);  // dmc-lint: allow(raw-metric)
}
