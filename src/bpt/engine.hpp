// The Borie-Parker-Tovey regularity engine (paper Definition 4.1 and
// Theorem 4.2), realized with hash-consed Ehrenfeucht-Fraissé types.
//
// A *type* of rank q for a w-terminal graph G with terminal list W and a
// tuple of set assignments X̄ consists of:
//   - an atomic table: everything needed to (a) evaluate quantifier-free
//     lowered formulas over X̄ and (b) define composition under gluing; and
//   - for q > 0, the set of rank-(q-1) types of all one-set extensions
//     (G, W, X̄·S), separately for vertex sets and edge sets.
//
// Types are interned: equal types get equal ids, so the homomorphism class
// h(G, X̄) of Definition 4.1 is simply the TypeId, and the update function
// ⊙_f is Engine::compose. Extensions are only ever *enumerated* on the two
// primitive graphs K1 (one terminal vertex) and K2 (one terminal edge);
// everything bigger is composed, which is what keeps the engine tractable.
//
// Correctness rests on the Feferman-Vaught style composition theorem: every
// set S over the glued graph splits uniquely into consistent child parts,
// so the extension set of a composition is exactly the set of valid
// pairwise compositions of child extensions. The test suite validates the
// whole pipeline against brute-force MSO semantics.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <deque>
#include <iosfwd>
#include <map>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "bpt/gluing.hpp"
#include "mso/ast.hpp"

namespace dmc::metrics {
class Counter;  // src/metrics/metrics.hpp: aggregate counters/gauges
class Gauge;
}

namespace dmc::bpt {

using TypeId = std::int32_t;
inline constexpr TypeId kInvalidType = -1;

/// Hard limits of the packed atomic representation.
inline constexpr int kMaxTerminals = 11;  // pair bits fit in 64
inline constexpr int kMaxSlots = 8;       // pairwise bits fit in 64

/// Per-set-variable part of the atomic table.
struct VarAtoms {
  mso::Sort sort = mso::Sort::VertexSet;  // VertexSet or EdgeSet
  std::uint32_t mask = 0;       // vertex sets: trace X ∩ W (bit per terminal)
  std::uint64_t pair_mask = 0;  // edge sets: F ∩ E(G[W]) (bit per terminal pair)
  std::uint8_t hidden = 0;      // min(#members outside the visible trace, 2)
  std::uint8_t cohidden = 0;    // vertex sets: min(|V \ (X ∪ W)|, 1)
  std::uint8_t border = 0;      // vertex sets: some G-edge leaves X
  std::uint32_t labels = 0;     // bit l: some member carries label l

  bool operator==(const VarAtoms&) const = default;
};

/// Full atomic table of a type. Pairwise relations are packed as bit
/// (i * kMaxSlots + j).
struct AtomicInfo {
  std::uint8_t tau = 0;         // number of terminals
  std::uint64_t term_adj = 0;   // bit per terminal pair: edge present in G
  std::vector<VarAtoms> vars;   // one per slot
  std::uint64_t adjsets = 0;    // some edge joins members of slot i and slot j
  std::uint64_t subsets = 0;    // slot i ⊆ slot j (same sort)
  std::uint64_t disjs = 0;      // slot i ∩ slot j == ∅ (same sort)
  std::uint64_t incs = 0;       // some edge of F_j touches X_i
  std::uint64_t crosses = 0;    // some edge of F_i has exactly one end in X_j

  bool operator==(const AtomicInfo&) const = default;
};

/// Triangular index of the unordered terminal pair {i, j}, i < j < tau.
int pair_index(int i, int j, int tau);

/// Interned type node.
struct TypeNode {
  AtomicInfo atoms;
  std::int16_t rank = 0;
  std::vector<TypeId> vexts;  // sorted ids of vertex-set extensions
  std::vector<TypeId> eexts;  // sorted ids of edge-set extensions

  bool operator==(const TypeNode&) const = default;
};

/// The interner's structural hash (exposed for universe-cache index
/// rebuilding).
std::size_t hash_type_node(const TypeNode& n);

/// Which atomic-table features the formula can observe. Features the
/// formula never reads are canonicalized to zero in every type, which
/// collapses the reachable type universe dramatically (the observable
/// behaviour of Definition 4.1 is unchanged: pruned types still determine
/// the truth of the formula and still compose).
struct FeatureMask {
  std::uint8_t hidden_cap = 0;  // 2 if sing() occurs, else 1 if empty()
  bool full = false;            // cohidden tracked (full() occurs)
  bool border = false;
  bool adjsets = false;
  bool subsets = false;
  bool disjs = false;
  bool incs = false;
  bool crosses = false;
  bool term_adj = false;  // needed iff edge-set slots can exist
};

/// How extension sets are generated at one quantifier depth.
/// Lowered FO variables are singleton-guarded set quantifiers
/// (exists X. sing(X) & ..., forall X. sing(X) -> ...); when every
/// quantifier of a sort at some depth is guarded, extensions at that depth
/// only need sets of size <= 1, which collapses the type universe.
enum class ExtMode : std::uint8_t { None = 0, SingletonOnly = 1, Full = 2 };

/// Engine configuration, derived from a *lowered* formula.
struct EngineConfig {
  int rank = 0;
  std::vector<mso::Sort> free_sorts;        // slot sorts, in order
  std::vector<std::string> vertex_labels;   // label universe (bit order)
  std::vector<std::string> edge_labels;
  bool vertex_exts = false;  // formula quantifies vertex sets
  bool edge_exts = false;    // formula quantifies edge sets
  /// Extension mode per quantifier depth (index 1..rank; index 0 unused).
  std::vector<ExtMode> vertex_mode, edge_mode;
  /// Per-free-slot mode: SingletonOnly when the formula carries a top-level
  /// sing(var) conjunct, so assignments with |var| > 1 can never satisfy it
  /// and the DP tables may drop them (keeps COUNT tables small for the
  /// individual-variable counting problems of Section 6).
  std::vector<ExtMode> free_modes;
  FeatureMask features;
};

/// Builds a config for `lowered` whose free variables are `free_vars`
/// (slot order = order in `free_vars`). Throws if the formula is not in
/// set normal form or exceeds kMaxSlots.
EngineConfig config_for(const mso::Formula& lowered,
                        const std::vector<std::pair<std::string, mso::Sort>>&
                            free_vars = {});

/// Ablation helpers (see bench_ablation): disable the formula-driven
/// reductions, keeping the engine exact but larger/slower.
EngineConfig without_feature_pruning(EngineConfig cfg);
EngineConfig without_singleton_modes(EngineConfig cfg);

/// Assignment of the engine's free slots restricted to a primitive:
/// for K1, bit 0 of entry s says whether the vertex is in slot s;
/// for K2, vertex slots use bits 0 (smaller terminal) and 1 (larger),
/// edge slots use bit 0 for the edge.
using SlotBits = std::vector<std::uint8_t>;

/// The interner of one class universe. Single-writer: one thread at a
/// time may call any member (the serving tier enforces this with
/// exclusive leases, docs/SERVING.md §3). An engine is moved, never
/// copied: the universe is a function of (φ, w) alone (Theorem 4.2), so
/// there is never a reason for two copies of it.
class Engine {
 public:
  explicit Engine(EngineConfig cfg);
  Engine(Engine&&) = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  const EngineConfig& config() const { return cfg_; }
  const TypeNode& node(TypeId t) const { return nodes_.at(t); }
  std::size_t num_types() const { return nodes_.size(); }

  /// Type of the one-vertex base graph. `vertex_label_bits` is the bitmask
  /// of the vertex's labels over cfg.vertex_labels.
  TypeId k1(std::uint32_t vertex_label_bits, const SlotBits& slots);

  /// Type of the one-edge base graph (two terminals: the smaller-id
  /// endpoint is terminal 0).
  TypeId k2(std::uint32_t label_bits_a, std::uint32_t label_bits_b,
            std::uint32_t edge_label_bits, const SlotBits& slots);

  /// The engine's number for gluing matrix f, registered (and validated
  /// against the child terminal counts) on first sight. Ops are numbered
  /// in first-use order; the numbers are part of the universe cache.
  int op_of(const GluingMatrix& f, int left_tau, int right_tau);

  /// Update function ⊙_f of Definition 4.1 for the op f resolved by op_of:
  /// type of the glued graph, or kInvalidType if the child assignments are
  /// inconsistent on identified terminals / shared edges. A fold resolves
  /// each of its plan's ops once, at first use, and composes every pair
  /// through it: one memo probe per pair, no matrix lookup.
  TypeId compose(int op, TypeId left, TypeId right);

  /// Number of distinct gluing matrices seen so far (for statistics).
  std::size_t num_ops() const { return ops_.size(); }

  /// Consistency signature of t's vertex-slot traces on identified
  /// terminals: `identified` lists the (left, right) child terminal of
  /// every parent row both children share, and col picks the side (0 =
  /// left child, 1 = right child). Types whose signatures differ can never
  /// compose consistently; see TracePairing.
  std::uint64_t trace_signature(std::span<const std::array<int, 2>> identified,
                                TypeId t, int col) const;

  struct Stats {
    long compose_calls = 0;  // compositions computed (memo misses)
    long memo_hits = 0;
    long invalid_compositions = 0;
  };
  Stats stats() const { return stats_; }

  /// Safety valve: compose/primitive throw std::runtime_error once the
  /// interner holds more than this many types (the type universe of the
  /// meta-theorem is non-elementary in (w, rank); this turns runaway
  /// instances into clean errors instead of OOM).
  void set_type_limit(std::size_t limit) { type_limit_ = limit; }
  std::size_t type_limit() const { return type_limit_; }

  /// Versioned serialization of the interned tables for the persistent
  /// universe cache (defined in universe_cache.cpp). load_universe returns
  /// false — leaving the engine untouched — on a format-version, engine-
  /// version, config or checksum mismatch.
  void save_universe(std::ostream& out) const;
  bool load_universe(std::istream& in);

 private:
  // Ids are insertion order. Nodes and ops live in deques, so references
  // stay valid while compose recursion interns new nodes. The compose
  // memo is bounded: once it holds kMemoCap entries it is cleared
  // wholesale (a recompute re-interns to the same id, so eviction never
  // changes results).
  static constexpr std::size_t kMemoCap = std::size_t{1} << 21;

  /// The compose memo: an open-addressing table of packed (op, left,
  /// right) keys with linear probing, in 12-byte slots. Its capacity is
  /// always the least power of two (at least 64) that keeps the load at or
  /// below 3/4: it grows by doubling and a wholesale clear frees it. So
  /// kMemoCap entries take 2 * kMemoCap slots (48 MiB), and a hit usually
  /// reads one cache line.
  class ComposeMemo {
   public:
    /// Sets `value` to the memoized composition of `key`, if any.
    bool find(std::uint64_t key, TypeId& value) const {
      if (slots_.empty()) return false;
      for (std::size_t i = home(key);; i = (i + 1) & mask()) {
        const Slot& s = slots_[i];
        if (s.value == kFree) return false;
        if (s.key == key) {
          value = s.value;
          return true;
        }
      }
    }
    void insert(std::uint64_t key, TypeId value);
    /// Sizes an empty table for n entries, so n inserts do not rehash.
    void reserve(std::size_t n);
    /// Empties the table and frees its slots.
    void clear();
    std::size_t size() const { return size_; }
    /// Calls fn(key, value) for every entry in slot order, starting after
    /// an empty slot so every probe cluster is visited from its start.
    /// Inserting the entries in this order into a table reserved for as
    /// many reproduces the layout, and with it this order: a saved memo
    /// section reads back and saves again byte for byte.
    template <typename Fn>
    void for_each(Fn&& fn) const {
      const std::size_t n = slots_.size();
      std::size_t start = 0;
      while (start < n && slots_[start].value != kFree) ++start;
      for (std::size_t k = 1; k <= n; ++k) {
        const Slot& s = slots_[(start + k) & (n - 1)];
        if (s.value != kFree) fn(s.key, s.value);
      }
    }

   private:
    static constexpr TypeId kFree = -2;  // kInvalidType is a stored value
    struct [[gnu::packed]] Slot {
      std::uint64_t key = 0;
      TypeId value = kFree;
    };
    static_assert(sizeof(Slot) == 12);
    std::size_t mask() const { return slots_.size() - 1; }
    std::size_t home(std::uint64_t key) const {  // Fibonacci hashing
      return static_cast<std::size_t>((key * 0x9e3779b97f4a7c15ull) >>
                                      shift_);
    }
    void rehash(std::size_t capacity);

    std::vector<Slot> slots_;  // power-of-two size, or empty
    std::size_t size_ = 0;
    int shift_ = 64;  // 64 - log2(slots_.size())
  };

  /// The hash-cons index: an open-addressing table of type ids with linear
  /// probing, keyed by hash_type_node. Each 8-byte slot keeps 32 bits of
  /// its node's hash beside the id, so a probe compares nodes only on a
  /// tag match and a rehash reads no node. Like ComposeMemo it grows by
  /// doubling at load 3/4 from 64 slots.
  class TypeIndex {
   public:
    /// The id of the node of `nodes` equal to `node`, whose hash is `h`;
    /// kInvalidType when none is.
    TypeId find(std::size_t h, const TypeNode& node,
                const std::deque<TypeNode>& nodes) const {
      if (slots_.empty()) return kInvalidType;
      const std::uint32_t tag = tag_of(h);
      for (std::size_t i = home(tag);; i = (i + 1) & mask()) {
        const Slot& s = slots_[i];
        if (s.id == kInvalidType) return kInvalidType;
        if (s.tag == tag && nodes[s.id] == node) return s.id;
      }
    }
    /// Adds `id`, whose node hashes to `h` and is in no slot yet.
    void insert(std::size_t h, TypeId id);
    /// Empties the table and frees its slots.
    void clear();

   private:
    struct Slot {
      std::uint32_t tag = 0;
      TypeId id = kInvalidType;  // kInvalidType: free
    };
    static std::uint32_t tag_of(std::size_t h) {
      const auto wide = static_cast<std::uint64_t>(h);
      return static_cast<std::uint32_t>(wide ^ (wide >> 32));
    }
    std::size_t mask() const { return slots_.size() - 1; }
    std::size_t home(std::uint32_t tag) const {  // Fibonacci hashing
      return static_cast<std::size_t>((tag * 0x9e3779b97f4a7c15ull) >>
                                      shift_);
    }
    void place(Slot slot);

    std::vector<Slot> slots_;  // power-of-two size, or empty
    std::size_t size_ = 0;
    int shift_ = 64;  // 64 - log2(slots_.size())
  };

  /// Memo key of a primitive (K1 or K2) type, packed without allocation:
  /// `desc` is the label descriptor; `shape` holds is_k2 (bit 0), the slot
  /// count (bits 1-4), the rank (bits 5-20) and 4 bits per encoded slot
  /// (from bit 21).
  struct PrimitiveKey {
    std::uint64_t desc = 0;
    std::uint64_t shape = 0;
    bool operator==(const PrimitiveKey&) const = default;
  };
  struct PrimitiveKeyHash {
    std::size_t operator()(const PrimitiveKey& k) const {
      return static_cast<std::size_t>(
          (k.desc * 0x9e3779b97f4a7c15ull) ^
          (k.shape + 0x632be59bd9b4e019ull + (k.desc >> 29)));
    }
  };
  /// Packs the key of the primitive with encoded slots `slots`; false
  /// when a slot, the slot count or the rank does not fit the packing.
  static bool primitive_key(bool is_k2, std::uint64_t desc,
                            std::span<const std::uint8_t> slots, int rank,
                            PrimitiveKey& key);
  /// Inverse of primitive_key (for the universe cache).
  static void unpack_primitive_key(const PrimitiveKey& key, bool& is_k2,
                                   std::uint64_t& desc, SlotBits& slots,
                                   int& rank);
  /// k1/k2: the memoized primitive for user slot bits, encoded on the
  /// stack so a memo hit allocates nothing.
  TypeId user_primitive(bool is_k2, std::uint32_t la, std::uint32_t lb,
                        std::uint32_t le, const SlotBits& slots);

  TypeId intern(TypeNode node);
  /// Resolves the aggregate-metrics handles (bpt.* instruments) against
  /// metrics::global(); all stay null — and every metrics branch is one
  /// pointer test — when no registry is installed.
  void resolve_metrics();
  void prune(AtomicInfo& atoms) const;
  TypeId primitive(bool is_k2, std::uint32_t la, std::uint32_t lb,
                   std::uint32_t le, const SlotBits& slots, int rank);
  void memo_store(std::uint64_t key, TypeId value);

  EngineConfig cfg_;
  std::deque<TypeNode> nodes_;
  TypeIndex index_;  // hash-cons
  std::deque<GluingMatrix> ops_;
  std::unordered_map<GluingMatrix, int, GluingMatrixHash> op_index_;
  ComposeMemo memo_;
  std::unordered_map<PrimitiveKey, TypeId, PrimitiveKeyHash> primitive_memo_;
  std::size_t type_limit_ = 4'000'000;
  Stats stats_;
  // Aggregate metrics handles (see resolve_metrics).
  metrics::Counter* met_hashcons_hits_ = nullptr;
  metrics::Counter* met_hashcons_misses_ = nullptr;
  metrics::Gauge* met_types_ = nullptr;
  metrics::Counter* met_compose_calls_ = nullptr;
  metrics::Counter* met_memo_hits_ = nullptr;

  friend struct UniverseCacheAccess;
};

/// Pairs a glue node's child classes by trace signature: only classes whose
/// vertex-slot traces agree on the identified terminals can compose
/// consistently, so the folds and compose's extension step visit just those
/// pairs instead of the full product. The right side is sorted by
/// (signature, position) into reused scratch, so pairing allocates nothing
/// once the scratch has grown to the widest table.
class TracePairing {
 public:
  /// Calls fn(l, r) for every element l of `left` and r of `right` (class
  /// ids, or (class, value) table entries) whose signatures under f agree,
  /// in the order of the nested loop: left order, then right order.
  template <typename L, typename R, typename Fn>
  void for_each(const Engine& engine, const GluingMatrix& f, const L& left,
                const R& right, Fn&& fn) {
    rows_.clear();
    for (const auto& row : f.rows)
      if (row[0] >= 0 && row[1] >= 0) rows_.push_back(row);
    sorted_.clear();
    std::uint32_t j = 0;
    for (const auto& r : right)
      sorted_.emplace_back(engine.trace_signature(rows_, class_of(r), 1), j++);
    std::sort(sorted_.begin(), sorted_.end());
    const auto right_at = std::begin(right);
    for (const auto& l : left) {
      const std::uint64_t sig = engine.trace_signature(rows_, class_of(l), 0);
      auto it = std::lower_bound(sorted_.begin(), sorted_.end(),
                                 std::pair<std::uint64_t, std::uint32_t>{sig, 0});
      for (; it != sorted_.end() && it->first == sig; ++it)
        fn(l, right_at[it->second]);
    }
  }

 private:
  static TypeId class_of(TypeId t) { return t; }
  template <typename V>
  static TypeId class_of(const std::pair<TypeId, V>& entry) {
    return entry.first;
  }

  std::vector<std::array<int, 2>> rows_;  // identified (left, right) rows
  std::vector<std::pair<std::uint64_t, std::uint32_t>> sorted_;
};

/// Evaluates a lowered formula against types of an engine, with
/// memoization. The formula's free variables must match the engine's slots
/// in order and sort.
class Evaluator {
 public:
  /// `free_vars` fixes the slot binding order of the formula's free
  /// variables (must match the engine config); when empty, first-occurrence
  /// order is used.
  Evaluator(Engine& engine, mso::FormulaPtr lowered,
            std::vector<std::pair<std::string, mso::Sort>> free_vars = {});

  /// Truth of the formula on the graph represented by `t` (whose slot
  /// assignment interprets the free variables).
  bool eval(TypeId t);

  const mso::Formula& formula() const { return *formula_; }

 private:
  bool eval_node(TypeId t, int formula_idx,
                 std::map<std::string, int>& slot_of);

  Engine& engine_;
  mso::FormulaPtr formula_;
  std::vector<std::pair<std::string, mso::Sort>> free_vars_;
  std::vector<const mso::Formula*> nodes_;
  std::map<const mso::Formula*, int> index_of_;
  std::map<std::pair<TypeId, int>, bool> memo_;
  std::map<std::string, int> vlabel_index_, elabel_index_;
};

}  // namespace dmc::bpt
