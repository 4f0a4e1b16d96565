#include "bpt/engine.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <stdexcept>

#include "metrics/metrics.hpp"

namespace dmc::bpt {

namespace {

constexpr std::uint8_t kEdgeSlotFlag = 0x10;  // internal slot encoding

std::uint8_t sat2(int x) { return static_cast<std::uint8_t>(std::min(x, 2)); }
std::uint8_t sat1(int x) { return static_cast<std::uint8_t>(std::min(x, 1)); }

int slot_bit(int i, int j) { return i * kMaxSlots + j; }

std::uint64_t hash_mix(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  return h;
}

std::uint64_t hash_node(const TypeNode& n) {
  std::uint64_t h = 1469598103934665603ull;
  h = hash_mix(h, n.rank);
  h = hash_mix(h, n.atoms.tau);
  h = hash_mix(h, n.atoms.term_adj);
  h = hash_mix(h, n.atoms.adjsets);
  h = hash_mix(h, n.atoms.subsets);
  h = hash_mix(h, n.atoms.disjs);
  h = hash_mix(h, n.atoms.incs);
  h = hash_mix(h, n.atoms.crosses);
  for (const VarAtoms& v : n.atoms.vars) {
    h = hash_mix(h, static_cast<int>(v.sort));
    h = hash_mix(h, v.mask);
    h = hash_mix(h, v.pair_mask);
    h = hash_mix(h, (v.hidden << 16) | (v.cohidden << 8) | v.border);
    h = hash_mix(h, v.labels);
  }
  for (TypeId t : n.vexts) h = hash_mix(h, static_cast<std::uint64_t>(t) + 7);
  h = hash_mix(h, 0xabcdef);
  for (TypeId t : n.eexts) h = hash_mix(h, static_cast<std::uint64_t>(t) + 13);
  return h;
}

}  // namespace

std::size_t hash_type_node(const TypeNode& n) { return hash_node(n); }

int pair_index(int i, int j, int tau) {
  if (i > j) std::swap(i, j);
  return i * tau - i * (i + 1) / 2 + (j - i - 1);
}

EngineConfig config_for(
    const mso::Formula& lowered,
    const std::vector<std::pair<std::string, mso::Sort>>& free_vars) {
  EngineConfig cfg;
  cfg.rank = mso::quantifier_rank(lowered);
  for (const auto& [name, sort] : free_vars) {
    if (!mso::is_set(sort))
      throw std::invalid_argument("config_for: free variable '" + name +
                                  "' must be a set");
    cfg.free_sorts.push_back(sort);
  }
  if (cfg.rank + static_cast<int>(cfg.free_sorts.size()) > kMaxSlots)
    throw std::invalid_argument(
        "config_for: quantifier rank + free variables exceeds engine limit");
  cfg.vertex_mode.assign(cfg.rank + 1, ExtMode::None);
  cfg.edge_mode.assign(cfg.rank + 1, ExtMode::None);
  cfg.free_modes.assign(cfg.free_sorts.size(), ExtMode::Full);
  {
    // Collect top-level And-conjuncts; a sing(freevar) conjunct makes that
    // slot singleton-restricted.
    std::vector<const mso::Formula*> stack{&lowered};
    while (!stack.empty()) {
      const mso::Formula* f = stack.back();
      stack.pop_back();
      if (f->kind == mso::Kind::And) {
        stack.push_back(f->left.get());
        stack.push_back(f->right.get());
      } else if (f->kind == mso::Kind::Singleton) {
        for (std::size_t s = 0; s < free_vars.size(); ++s)
          if (free_vars[s].first == f->a)
            cfg.free_modes[s] = ExtMode::SingletonOnly;
      }
    }
  }
  // Walk the formula once to find quantifier sorts and label usage
  // (with the declared sorts of free variables in scope).
  std::map<std::string, mso::Sort> scope;
  for (const auto& [name, sort] : free_vars) scope[name] = sort;
  auto raise_mode = [](ExtMode& slot, ExtMode m) {
    slot = std::max(slot, m);
  };
  // Detects the guard pattern lower() emits for individual variables.
  auto is_singleton_guarded = [](const mso::Formula& q) {
    const mso::Formula& body = *q.left;
    if (q.kind == mso::Kind::Exists)
      return body.kind == mso::Kind::And &&
             body.left->kind == mso::Kind::Singleton && body.left->a == q.var;
    return body.kind == mso::Kind::Implies &&
           body.left->kind == mso::Kind::Singleton && body.left->a == q.var;
  };
  int depth = 0;
  auto add_label = [&cfg](std::vector<std::string>& list, const std::string& l) {
    if (std::find(list.begin(), list.end(), l) == list.end()) list.push_back(l);
    if (list.size() > 32)
      throw std::invalid_argument("config_for: too many labels");
  };
  auto walk = [&](auto&& self, const mso::Formula& f) -> void {
    switch (f.kind) {
      case mso::Kind::Exists:
      case mso::Kind::Forall: {
        if (!mso::is_set(f.var_sort))
          throw std::invalid_argument(
              "config_for: formula is not in set normal form (lower() it)");
        ++depth;
        const ExtMode mode = is_singleton_guarded(f) ? ExtMode::SingletonOnly
                                                     : ExtMode::Full;
        if (f.var_sort == mso::Sort::VertexSet) {
          cfg.vertex_exts = true;
          raise_mode(cfg.vertex_mode[depth], mode);
        } else {
          cfg.edge_exts = true;
          raise_mode(cfg.edge_mode[depth], mode);
        }
        const auto prev = scope.find(f.var);
        const bool had = prev != scope.end();
        const mso::Sort old = had ? prev->second : mso::Sort::Vertex;
        scope[f.var] = f.var_sort;
        self(self, *f.left);
        if (had)
          scope[f.var] = old;
        else
          scope.erase(f.var);
        --depth;
        return;
      }
      case mso::Kind::Label: {
        auto it = scope.find(f.a);
        if (it == scope.end())
          throw std::invalid_argument("config_for: unbound variable '" + f.a +
                                      "' (declare free variables)");
        if (mso::is_edge_kind(it->second))
          add_label(cfg.edge_labels, f.label);
        else
          add_label(cfg.vertex_labels, f.label);
        return;
      }
      case mso::Kind::Not:
        self(self, *f.left);
        return;
      case mso::Kind::And:
      case mso::Kind::Or:
      case mso::Kind::Implies:
      case mso::Kind::Iff:
        self(self, *f.left);
        self(self, *f.right);
        return;
      case mso::Kind::Member:
      case mso::Kind::Equal:
        throw std::invalid_argument(
            "config_for: formula is not in set normal form (lower() it)");
      case mso::Kind::Singleton:
        cfg.features.hidden_cap = 2;
        return;
      case mso::Kind::EmptySet:
        cfg.features.hidden_cap = std::max<std::uint8_t>(cfg.features.hidden_cap, 1);
        return;
      case mso::Kind::FullSet:
        cfg.features.full = true;
        return;
      case mso::Kind::Border:
        cfg.features.border = true;
        return;
      case mso::Kind::Adjacent:
        cfg.features.adjsets = true;
        return;
      case mso::Kind::Subset:
        cfg.features.subsets = true;
        return;
      case mso::Kind::Disjoint:
        cfg.features.disjs = true;
        return;
      case mso::Kind::Incident:
        cfg.features.incs = true;
        return;
      case mso::Kind::Crossing:
        cfg.features.crosses = true;
        return;
      default:
        return;
    }
  };
  walk(walk, lowered);
  // Terminal adjacency is only observable through edge-set slots (pair
  // traces, shared-edge consistency, OPT edge overlaps).
  cfg.features.term_adj =
      cfg.edge_exts ||
      std::any_of(cfg.free_sorts.begin(), cfg.free_sorts.end(),
                  [](mso::Sort s) { return s == mso::Sort::EdgeSet; });
  return cfg;
}

EngineConfig without_feature_pruning(EngineConfig cfg) {
  cfg.features.hidden_cap = 2;
  cfg.features.full = cfg.features.border = cfg.features.adjsets = true;
  cfg.features.subsets = cfg.features.disjs = cfg.features.incs = true;
  cfg.features.crosses = cfg.features.term_adj = true;
  return cfg;
}

EngineConfig without_singleton_modes(EngineConfig cfg) {
  for (ExtMode& m : cfg.vertex_mode)
    if (m == ExtMode::SingletonOnly) m = ExtMode::Full;
  for (ExtMode& m : cfg.edge_mode)
    if (m == ExtMode::SingletonOnly) m = ExtMode::Full;
  for (ExtMode& m : cfg.free_modes)
    if (m == ExtMode::SingletonOnly) m = ExtMode::Full;
  return cfg;
}

Engine::Engine(EngineConfig cfg) : cfg_(std::move(cfg)) {
  if (cfg_.rank < 0) throw std::invalid_argument("Engine: negative rank");
  resolve_metrics();
}

void Engine::resolve_metrics() {
  metrics::Registry* const reg = metrics::global();
  if (reg == nullptr) return;
  met_hashcons_hits_ = &reg->counter("bpt.hashcons.hits");
  met_hashcons_misses_ = &reg->counter("bpt.hashcons.misses");
  met_types_ = &reg->gauge("bpt.types");
  met_compose_calls_ = &reg->counter("bpt.compose.calls");
  met_memo_hits_ = &reg->counter("bpt.compose.memo_hits");
}

void Engine::prune(AtomicInfo& a) const {
  const FeatureMask& fm = cfg_.features;
  for (VarAtoms& v : a.vars) {
    v.hidden = std::min(v.hidden, fm.hidden_cap);
    if (!fm.full) v.cohidden = 0;
    if (!fm.border) v.border = 0;
  }
  if (!fm.adjsets) a.adjsets = 0;
  if (!fm.subsets) a.subsets = 0;
  if (!fm.disjs) a.disjs = 0;
  if (!fm.incs) a.incs = 0;
  if (!fm.crosses) a.crosses = 0;
  if (!fm.term_adj) a.term_adj = 0;
}

TypeId Engine::intern(TypeNode node) {
  if (nodes_.size() >= type_limit_)
    throw std::runtime_error(
        "bpt::Engine: type universe limit exceeded (instance too large for "
        "this formula's rank/width; see set_type_limit)");
  const std::size_t h = hash_type_node(node);
  if (const TypeId t = index_.find(h, node, nodes_); t != kInvalidType) {
    if (met_hashcons_hits_ != nullptr) met_hashcons_hits_->add(1);
    return t;
  }
  const TypeId id = static_cast<TypeId>(nodes_.size());
  nodes_.push_back(std::move(node));
  index_.insert(h, id);
  if (met_hashcons_misses_ != nullptr) {
    met_hashcons_misses_->add(1);
    met_types_->max_of(static_cast<long long>(id) + 1);  // universe growth
  }
  return id;
}

TypeId Engine::k1(std::uint32_t vertex_label_bits, const SlotBits& slots) {
  if (slots.size() != cfg_.free_sorts.size())
    throw std::invalid_argument("k1: slot count mismatch");
  for (std::size_t s = 0; s < slots.size(); ++s)
    if (cfg_.free_sorts[s] == mso::Sort::EdgeSet && (slots[s] & 1))
      throw std::invalid_argument("k1: edge slot cannot contain an edge");
  return user_primitive(false, vertex_label_bits, 0, 0, slots);
}

TypeId Engine::k2(std::uint32_t label_bits_a, std::uint32_t label_bits_b,
                  std::uint32_t edge_label_bits, const SlotBits& slots) {
  if (slots.size() != cfg_.free_sorts.size())
    throw std::invalid_argument("k2: slot count mismatch");
  return user_primitive(true, label_bits_a, label_bits_b, edge_label_bits,
                        slots);
}

namespace {

std::uint64_t label_descriptor(std::uint32_t la, std::uint32_t lb,
                               std::uint32_t le) {
  return (static_cast<std::uint64_t>(la) << 0) ^
         (static_cast<std::uint64_t>(lb) << 20) ^
         (static_cast<std::uint64_t>(le) << 40);
}

}  // namespace

TypeId Engine::user_primitive(bool is_k2, std::uint32_t la, std::uint32_t lb,
                              std::uint32_t le, const SlotBits& slots) {
  if (slots.size() > kMaxSlots)
    throw std::logic_error("primitive: too many slots");
  std::array<std::uint8_t, kMaxSlots> encoded{};
  for (std::size_t s = 0; s < slots.size(); ++s) {
    const bool edge_sort = cfg_.free_sorts[s] == mso::Sort::EdgeSet;
    encoded[s] = static_cast<std::uint8_t>((edge_sort ? kEdgeSlotFlag : 0) |
                                           (slots[s] & 3));
  }
  const std::span<const std::uint8_t> used(encoded.data(), slots.size());
  PrimitiveKey key;
  if (primitive_key(is_k2, label_descriptor(la, lb, le), used, cfg_.rank,
                    key))
    if (auto it = primitive_memo_.find(key); it != primitive_memo_.end())
      return it->second;
  return primitive(is_k2, la, lb, le, SlotBits(used.begin(), used.end()),
                   cfg_.rank);
}

bool Engine::primitive_key(bool is_k2, std::uint64_t desc,
                           std::span<const std::uint8_t> slots, int rank,
                           PrimitiveKey& key) {
  if (slots.size() > kMaxSlots + 1u || rank < 0 || rank >= (1 << 16))
    return false;
  std::uint64_t shape = (is_k2 ? 1u : 0u) | (slots.size() << 1) |
                        (static_cast<std::uint64_t>(rank) << 5);
  for (std::size_t s = 0; s < slots.size(); ++s) {
    const std::uint8_t v = slots[s];
    if ((v & ~(kEdgeSlotFlag | 3)) != 0) return false;
    const std::uint64_t nibble = (v & 3) | ((v & kEdgeSlotFlag) ? 4 : 0);
    shape |= nibble << (21 + 4 * s);
  }
  key = PrimitiveKey{desc, shape};
  return true;
}

void Engine::unpack_primitive_key(const PrimitiveKey& key, bool& is_k2,
                                  std::uint64_t& desc, SlotBits& slots,
                                  int& rank) {
  is_k2 = (key.shape & 1) != 0;
  desc = key.desc;
  rank = static_cast<int>((key.shape >> 5) & 0xffff);
  slots.resize((key.shape >> 1) & 0xf);
  for (std::size_t s = 0; s < slots.size(); ++s) {
    const std::uint64_t nibble = (key.shape >> (21 + 4 * s)) & 0xf;
    slots[s] = static_cast<std::uint8_t>((nibble & 3) |
                                         ((nibble & 4) ? kEdgeSlotFlag : 0));
  }
}

TypeId Engine::primitive(bool is_k2, std::uint32_t la, std::uint32_t lb,
                         std::uint32_t le, const SlotBits& slots, int rank) {
  PrimitiveKey key;
  if (!primitive_key(is_k2, label_descriptor(la, lb, le), slots, rank, key))
    throw std::logic_error("primitive: slots or rank exceed the memo key");
  if (auto it = primitive_memo_.find(key); it != primitive_memo_.end())
    return it->second;

  const int p = static_cast<int>(slots.size());
  if (p > kMaxSlots) throw std::logic_error("primitive: too many slots");
  TypeNode node;
  node.rank = static_cast<std::int16_t>(rank);
  AtomicInfo& a = node.atoms;
  a.tau = is_k2 ? 2 : 1;
  a.term_adj = is_k2 ? 1 : 0;  // pair (0,1) has index 0
  a.vars.resize(p);
  auto members_v = [&](int s) -> std::uint8_t {  // vertex members bitmask
    return (slots[s] & kEdgeSlotFlag) ? 0 : (slots[s] & 3);
  };
  auto members_e = [&](int s) -> std::uint8_t {  // edge member flag
    return (slots[s] & kEdgeSlotFlag) ? (slots[s] & 1) : 0;
  };
  for (int s = 0; s < p; ++s) {
    VarAtoms& v = a.vars[s];
    if (slots[s] & kEdgeSlotFlag) {
      v.sort = mso::Sort::EdgeSet;
      v.pair_mask = is_k2 && (slots[s] & 1) ? 1 : 0;
      v.labels = (slots[s] & 1) ? le : 0;
    } else {
      v.sort = mso::Sort::VertexSet;
      v.mask = slots[s] & (is_k2 ? 3 : 1);
      v.border = is_k2 && std::popcount(static_cast<unsigned>(v.mask)) == 1;
      v.labels = ((v.mask & 1) ? la : 0) | ((v.mask & 2) ? lb : 0);
    }
  }
  for (int i = 0; i < p; ++i) {
    const bool ei = (slots[i] & kEdgeSlotFlag) != 0;
    for (int j = 0; j < p; ++j) {
      const bool ej = (slots[j] & kEdgeSlotFlag) != 0;
      if (ei == ej) {
        // same sort: subset / disjoint
        const std::uint8_t mi = ei ? members_e(i) : members_v(i);
        const std::uint8_t mj = ei ? members_e(j) : members_v(j);
        if ((mi & ~mj) == 0) a.subsets |= 1ull << slot_bit(i, j);
        if ((mi & mj) == 0) a.disjs |= 1ull << slot_bit(i, j);
      }
      if (is_k2 && !ei && !ej) {
        const std::uint8_t mi = members_v(i), mj = members_v(j);
        if (((mi & 1) && (mj & 2)) || ((mi & 2) && (mj & 1)))
          a.adjsets |= 1ull << slot_bit(i, j);
      }
      if (is_k2 && !ei && ej) {
        if (members_e(j) && members_v(i)) a.incs |= 1ull << slot_bit(i, j);
      }
      if (is_k2 && ei && !ej) {
        if (members_e(i) &&
            std::popcount(static_cast<unsigned>(members_v(j))) == 1)
          a.crosses |= 1ull << slot_bit(i, j);
      }
    }
  }
  if (rank > 0) {
    // Extensions of a rank-`rank` type serve quantifiers at this depth.
    const int level = cfg_.rank - rank + 1;
    const ExtMode vmode = cfg_.vertex_mode.at(level);
    const ExtMode emode = cfg_.edge_mode.at(level);
    if (vmode != ExtMode::None) {
      const int limit = is_k2 ? 4 : 2;
      for (int bits = 0; bits < limit; ++bits) {
        if (vmode == ExtMode::SingletonOnly &&
            std::popcount(static_cast<unsigned>(bits)) > 1)
          continue;
        SlotBits ext = slots;
        ext.push_back(static_cast<std::uint8_t>(bits));
        const TypeId t = primitive(is_k2, la, lb, le, ext, rank - 1);
        node.vexts.push_back(t);
      }
      std::sort(node.vexts.begin(), node.vexts.end());
      node.vexts.erase(std::unique(node.vexts.begin(), node.vexts.end()),
                       node.vexts.end());
    }
    if (emode != ExtMode::None) {
      const int limit = is_k2 ? 2 : 1;
      for (int bits = 0; bits < limit; ++bits) {
        SlotBits ext = slots;
        ext.push_back(static_cast<std::uint8_t>(kEdgeSlotFlag | bits));
        const TypeId t = primitive(is_k2, la, lb, le, ext, rank - 1);
        node.eexts.push_back(t);
      }
      std::sort(node.eexts.begin(), node.eexts.end());
      node.eexts.erase(std::unique(node.eexts.begin(), node.eexts.end()),
                       node.eexts.end());
    }
  }
  prune(node.atoms);
  const TypeId id = intern(std::move(node));
  primitive_memo_[key] = id;
  return id;
}

int Engine::op_of(const GluingMatrix& f, int left_tau, int right_tau) {
  if (auto it = op_index_.find(f); it != op_index_.end()) return it->second;
  f.validate(left_tau, right_tau);
  if (f.parent_tau() > kMaxTerminals)
    throw std::invalid_argument("compose: too many terminals for the engine");
  const int id = static_cast<int>(ops_.size());
  ops_.push_back(f);
  op_index_.emplace(f, id);
  return id;
}

void Engine::TypeIndex::insert(std::size_t h, TypeId id) {
  if ((size_ + 1) * 4 > slots_.size() * 3) {
    std::vector<Slot> old = std::move(slots_);
    const std::size_t capacity = std::max<std::size_t>(64, old.size() * 2);
    slots_.assign(capacity, Slot{});
    shift_ = 64 - std::countr_zero(capacity);
    for (const Slot& s : old)
      if (s.id != kInvalidType) place(s);
  }
  place(Slot{tag_of(h), id});
  ++size_;
}

void Engine::TypeIndex::place(Slot slot) {
  std::size_t i = home(slot.tag);
  while (slots_[i].id != kInvalidType) i = (i + 1) & mask();
  slots_[i] = slot;
}

void Engine::TypeIndex::clear() {
  std::vector<Slot>().swap(slots_);
  size_ = 0;
  shift_ = 64;
}

void Engine::ComposeMemo::insert(std::uint64_t key, TypeId value) {
  if ((size_ + 1) * 4 > slots_.size() * 3)
    rehash(std::max<std::size_t>(64, slots_.size() * 2));
  for (std::size_t i = home(key);; i = (i + 1) & mask()) {
    Slot& s = slots_[i];
    if (s.value == kFree) {
      s = Slot{key, value};
      ++size_;
      return;
    }
    if (s.key == key) {
      s.value = value;
      return;
    }
  }
}

void Engine::ComposeMemo::reserve(std::size_t n) {
  std::size_t capacity = 64;
  while (n * 4 > capacity * 3) capacity *= 2;
  if (n > 0 && capacity > slots_.size()) rehash(capacity);
}

void Engine::ComposeMemo::clear() {
  std::vector<Slot>().swap(slots_);
  size_ = 0;
  shift_ = 64;
}

void Engine::ComposeMemo::rehash(std::size_t capacity) {
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(capacity, Slot{});
  shift_ = 64 - std::countr_zero(capacity);
  size_ = 0;
  for (const Slot& s : old)
    if (s.value != kFree) insert(s.key, s.value);
}

void Engine::memo_store(std::uint64_t key, TypeId value) {
  // Bounded: a full memo is cleared wholesale. Recomputing an evicted
  // composition re-interns to the same id, so results never change.
  if (memo_.size() >= kMemoCap) memo_.clear();
  memo_.insert(key, value);
}

TypeId Engine::compose(int op, TypeId left, TypeId right) {
  if (static_cast<std::size_t>(left) >= nodes_.size() ||
      static_cast<std::size_t>(right) >= nodes_.size() ||
      static_cast<std::size_t>(op) >= ops_.size())
    throw std::out_of_range("compose: unknown type or op id");
  // Packed memo key: 14 bits of op, 25 bits per type id.
  if (op >= (1 << 14) || left >= (1 << 25) || right >= (1 << 25))
    throw std::runtime_error("bpt::Engine: id space exhausted");
  const std::uint64_t key = (static_cast<std::uint64_t>(op) << 50) |
                            (static_cast<std::uint64_t>(left) << 25) |
                            static_cast<std::uint64_t>(right);
  if (TypeId hit; memo_.find(key, hit)) {
    ++stats_.memo_hits;
    if (met_memo_hits_ != nullptr) met_memo_hits_->add(1);
    return hit;
  }
  ++stats_.compose_calls;
  if (met_compose_calls_ != nullptr) met_compose_calls_->add(1);

  const GluingMatrix& f = ops_[op];
  const TypeNode& L = nodes_[left];
  const TypeNode& R = nodes_[right];
  if (L.rank != R.rank)
    throw std::invalid_argument("compose: rank mismatch");
  if (L.atoms.vars.size() != R.atoms.vars.size())
    throw std::invalid_argument("compose: slot count mismatch");
  const int p = static_cast<int>(L.atoms.vars.size());
  for (int s = 0; s < p; ++s)
    if (L.atoms.vars[s].sort != R.atoms.vars[s].sort)
      throw std::invalid_argument("compose: slot sort mismatch");

  const int tau_p = f.parent_tau();
  const int tau_l = L.atoms.tau, tau_r = R.atoms.tau;
  // retained[child terminal] = parent index or -1
  std::vector<int> retained_l(tau_l, -1), retained_r(tau_r, -1);
  for (int pr = 0; pr < tau_p; ++pr) {
    if (f.rows[pr][0] >= tau_l || f.rows[pr][1] >= tau_r)
      throw std::invalid_argument("compose: matrix/terminal mismatch");
    if (f.rows[pr][0] >= 0) retained_l[f.rows[pr][0]] = pr;
    if (f.rows[pr][1] >= 0) retained_r[f.rows[pr][1]] = pr;
  }

  auto fail = [&]() {
    ++stats_.invalid_compositions;
    memo_store(key, kInvalidType);
    return kInvalidType;
  };

  // --- consistency on identified terminals (vertex slots) ---
  for (int pr = 0; pr < tau_p; ++pr) {
    const int cl = f.rows[pr][0], cr = f.rows[pr][1];
    if (cl < 0 || cr < 0) continue;
    for (int s = 0; s < p; ++s) {
      if (L.atoms.vars[s].sort != mso::Sort::VertexSet) continue;
      const bool inl = (L.atoms.vars[s].mask >> cl) & 1;
      const bool inr = (R.atoms.vars[s].mask >> cr) & 1;
      if (inl != inr) return fail();
    }
  }

  // --- parent terminal adjacency and shared-edge map ---
  TypeNode out;
  out.rank = L.rank;
  AtomicInfo& a = out.atoms;
  a.tau = static_cast<std::uint8_t>(tau_p);
  // shared[pair] = edge present in both children on identified pairs
  std::vector<bool> edge_l(tau_p * tau_p, false), edge_r(tau_p * tau_p, false);
  for (int i = 0; i < tau_p; ++i) {
    for (int j = i + 1; j < tau_p; ++j) {
      const int li = f.rows[i][0], lj = f.rows[j][0];
      const int ri = f.rows[i][1], rj = f.rows[j][1];
      bool el = false, er = false;
      if (li >= 0 && lj >= 0)
        el = (L.atoms.term_adj >> pair_index(li, lj, tau_l)) & 1;
      if (ri >= 0 && rj >= 0)
        er = (R.atoms.term_adj >> pair_index(ri, rj, tau_r)) & 1;
      if (el || er) a.term_adj |= 1ull << pair_index(i, j, tau_p);
      edge_l[i * tau_p + j] = el;
      edge_r[i * tau_p + j] = er;
    }
  }

  // --- consistency on shared edges (edge slots) ---
  for (int i = 0; i < tau_p; ++i) {
    for (int j = i + 1; j < tau_p; ++j) {
      if (!edge_l[i * tau_p + j] || !edge_r[i * tau_p + j]) continue;
      const int pl = pair_index(f.rows[i][0], f.rows[j][0], tau_l);
      const int pr2 = pair_index(f.rows[i][1], f.rows[j][1], tau_r);
      for (int s = 0; s < p; ++s) {
        if (L.atoms.vars[s].sort != mso::Sort::EdgeSet) continue;
        const bool inl = (L.atoms.vars[s].pair_mask >> pl) & 1;
        const bool inr = (R.atoms.vars[s].pair_mask >> pr2) & 1;
        if (inl != inr) return fail();
      }
    }
  }

  // --- per-slot composition ---
  a.vars.resize(p);
  for (int s = 0; s < p; ++s) {
    const VarAtoms& vl = L.atoms.vars[s];
    const VarAtoms& vr = R.atoms.vars[s];
    VarAtoms& v = a.vars[s];
    v.sort = vl.sort;
    v.labels = vl.labels | vr.labels;
    if (v.sort == mso::Sort::VertexSet) {
      for (int pr = 0; pr < tau_p; ++pr) {
        const int cl = f.rows[pr][0], cr = f.rows[pr][1];
        const bool in = cl >= 0 ? ((vl.mask >> cl) & 1) : ((vr.mask >> cr) & 1);
        if (in) v.mask |= 1u << pr;
      }
      int hidden = vl.hidden + vr.hidden;
      int cohidden = vl.cohidden + vr.cohidden;
      for (int i = 0; i < tau_l; ++i)
        if (retained_l[i] < 0) ((vl.mask >> i) & 1) ? ++hidden : ++cohidden;
      for (int j = 0; j < tau_r; ++j)
        if (retained_r[j] < 0) ((vr.mask >> j) & 1) ? ++hidden : ++cohidden;
      v.hidden = sat2(hidden);
      v.cohidden = sat1(cohidden);
      v.border = vl.border | vr.border;
    } else {
      for (int i = 0; i < tau_p; ++i) {
        for (int j = i + 1; j < tau_p; ++j) {
          bool in = false;
          if (edge_l[i * tau_p + j] &&
              ((vl.pair_mask >>
                pair_index(f.rows[i][0], f.rows[j][0], tau_l)) &
               1))
            in = true;
          if (edge_r[i * tau_p + j] &&
              ((vr.pair_mask >>
                pair_index(f.rows[i][1], f.rows[j][1], tau_r)) &
               1))
            in = true;
          if (in) v.pair_mask |= 1ull << pair_index(i, j, tau_p);
        }
      }
      int hidden = vl.hidden + vr.hidden;
      for (int i = 0; i < tau_l; ++i)
        for (int j = i + 1; j < tau_l; ++j)
          if (((vl.pair_mask >> pair_index(i, j, tau_l)) & 1) &&
              (retained_l[i] < 0 || retained_l[j] < 0))
            ++hidden;
      for (int i = 0; i < tau_r; ++i)
        for (int j = i + 1; j < tau_r; ++j)
          if (((vr.pair_mask >> pair_index(i, j, tau_r)) & 1) &&
              (retained_r[i] < 0 || retained_r[j] < 0))
            ++hidden;
      v.hidden = sat2(hidden);
    }
  }
  for (std::size_t s = 0; s < cfg_.free_modes.size(); ++s) {
    if (cfg_.free_modes[s] != ExtMode::SingletonOnly) continue;
    const VarAtoms& v = a.vars[s];
    const int visible = v.sort == mso::Sort::VertexSet
                            ? std::popcount(v.mask)
                            : std::popcount(v.pair_mask);
    if (visible + v.hidden > 1) return fail();
  }
  a.adjsets = L.atoms.adjsets | R.atoms.adjsets;
  a.incs = L.atoms.incs | R.atoms.incs;
  a.crosses = L.atoms.crosses | R.atoms.crosses;
  a.subsets = L.atoms.subsets & R.atoms.subsets;
  a.disjs = L.atoms.disjs & R.atoms.disjs;

  // --- extensions (Feferman-Vaught: valid pairwise compositions) ---
  if (L.rank > 0) {
    // Identified rows drive the consistency filter: pair each side's
    // extensions by the trace of their vertex slots on identified
    // terminals, so only potentially-consistent pairs are composed.
    const int level = cfg_.rank - L.rank + 1;
    auto ext_size_ok = [&](TypeId t, ExtMode mode) {
      if (mode != ExtMode::SingletonOnly) return true;
      const TypeNode& n = nodes_[t];
      const VarAtoms& v = n.atoms.vars.back();  // the freshly added slot
      const int visible = v.sort == mso::Sort::VertexSet
                              ? std::popcount(v.mask)
                              : std::popcount(v.pair_mask);
      return visible + v.hidden <= 1;
    };
    // Each recursion level pairs with its own scratch: the compositions
    // below intern (and pair) while this level still iterates.
    TracePairing pairing;
    auto combine = [&](const std::vector<TypeId>& lhs,
                       const std::vector<TypeId>& rhs, ExtMode mode,
                       std::vector<TypeId>& into) {
      pairing.for_each(*this, f, lhs, rhs, [&](TypeId el, TypeId er) {
        const TypeId c = compose(op, el, er);
        if (c != kInvalidType && ext_size_ok(c, mode)) into.push_back(c);
      });
      std::sort(into.begin(), into.end());
      into.erase(std::unique(into.begin(), into.end()), into.end());
    };
    // L and R stay valid while the recursion interns: nodes_ is a deque.
    combine(L.vexts, R.vexts, cfg_.vertex_mode.at(level), out.vexts);
    combine(L.eexts, R.eexts, cfg_.edge_mode.at(level), out.eexts);
  }

  prune(out.atoms);
  const TypeId id = intern(std::move(out));
  memo_store(key, id);
  return id;
}

std::uint64_t Engine::trace_signature(
    std::span<const std::array<int, 2>> identified, TypeId t, int col) const {
  const TypeNode& n = nodes_.at(t);
  std::uint64_t sig = 1469598103934665603ull;
  for (const auto& row : identified) {
    for (const VarAtoms& v : n.atoms.vars) {
      if (v.sort != mso::Sort::VertexSet) continue;
      sig = hash_mix(sig, (v.mask >> row[col]) & 1);
    }
  }
  return sig;
}

// --- Evaluator ---------------------------------------------------------------

Evaluator::Evaluator(Engine& engine, mso::FormulaPtr lowered,
                     std::vector<std::pair<std::string, mso::Sort>> free_vars)
    : engine_(engine),
      formula_(std::move(lowered)),
      free_vars_(std::move(free_vars)) {
  if (free_vars_.empty()) free_vars_ = mso::check_well_formed(*formula_);
  nodes_ = mso::subformulas(*formula_);
  for (int i = 0; i < static_cast<int>(nodes_.size()); ++i)
    index_of_[nodes_[i]] = i;
  const auto& cfg = engine_.config();
  for (int i = 0; i < static_cast<int>(cfg.vertex_labels.size()); ++i)
    vlabel_index_[cfg.vertex_labels[i]] = i;
  for (int i = 0; i < static_cast<int>(cfg.edge_labels.size()); ++i)
    elabel_index_[cfg.edge_labels[i]] = i;
}

bool Evaluator::eval(TypeId t) {
  const auto& cfg = engine_.config();
  if (free_vars_.size() > cfg.free_sorts.size())
    throw std::invalid_argument("Evaluator: more free variables than slots");
  std::map<std::string, int> slot_of;
  for (std::size_t i = 0; i < free_vars_.size(); ++i)
    slot_of[free_vars_[i].first] = static_cast<int>(i);
  return eval_node(t, 0, slot_of);
}

bool Evaluator::eval_node(TypeId t, int idx,
                          std::map<std::string, int>& slot_of) {
  const auto memo_key = std::make_pair(t, idx);
  auto it = memo_.find(memo_key);
  if (it != memo_.end()) return it->second;
  const mso::Formula& f = *nodes_[idx];
  const TypeNode& n = engine_.node(t);
  const AtomicInfo& a = n.atoms;
  auto slot = [&](const std::string& name) {
    auto sit = slot_of.find(name);
    if (sit == slot_of.end())
      throw std::invalid_argument("Evaluator: unbound variable '" + name + "'");
    return sit->second;
  };
  auto child_index = [&](const mso::Formula* child) {
    return index_of_.at(child);
  };
  auto set_size = [&](int s) {  // exact when < 2
    const VarAtoms& v = a.vars[s];
    const int visible = v.sort == mso::Sort::VertexSet
                            ? std::popcount(v.mask)
                            : std::popcount(v.pair_mask);
    return visible + v.hidden;
  };
  bool result = false;
  switch (f.kind) {
    case mso::Kind::True:
      result = true;
      break;
    case mso::Kind::False:
      result = false;
      break;
    case mso::Kind::Adjacent:
      result = (a.adjsets >> slot_bit(slot(f.a), slot(f.b))) & 1;
      break;
    case mso::Kind::Incident:
      result = (a.incs >> slot_bit(slot(f.a), slot(f.b))) & 1;
      break;
    case mso::Kind::Subset:
      result = (a.subsets >> slot_bit(slot(f.a), slot(f.b))) & 1;
      break;
    case mso::Kind::Disjoint:
      result = (a.disjs >> slot_bit(slot(f.a), slot(f.b))) & 1;
      break;
    case mso::Kind::Singleton:
      result = set_size(slot(f.a)) == 1;
      break;
    case mso::Kind::EmptySet:
      result = set_size(slot(f.a)) == 0;
      break;
    case mso::Kind::FullSet: {
      const VarAtoms& v = a.vars[slot(f.a)];
      const std::uint32_t all = a.tau >= 32 ? ~0u : (1u << a.tau) - 1;
      result = v.cohidden == 0 && v.mask == all;
      break;
    }
    case mso::Kind::Crossing:
      result = (a.crosses >> slot_bit(slot(f.a), slot(f.b))) & 1;
      break;
    case mso::Kind::Border:
      result = a.vars[slot(f.a)].border != 0;
      break;
    case mso::Kind::Label: {
      const VarAtoms& v = a.vars[slot(f.a)];
      const auto& index = v.sort == mso::Sort::EdgeSet ? elabel_index_
                                                       : vlabel_index_;
      auto lit = index.find(f.label);
      if (lit == index.end())
        throw std::logic_error("Evaluator: label not in engine config");
      result = (v.labels >> lit->second) & 1;
      break;
    }
    case mso::Kind::Not:
      result = !eval_node(t, child_index(f.left.get()), slot_of);
      break;
    case mso::Kind::And:
      result = eval_node(t, child_index(f.left.get()), slot_of) &&
               eval_node(t, child_index(f.right.get()), slot_of);
      break;
    case mso::Kind::Or:
      result = eval_node(t, child_index(f.left.get()), slot_of) ||
               eval_node(t, child_index(f.right.get()), slot_of);
      break;
    case mso::Kind::Implies:
      result = !eval_node(t, child_index(f.left.get()), slot_of) ||
               eval_node(t, child_index(f.right.get()), slot_of);
      break;
    case mso::Kind::Iff:
      result = eval_node(t, child_index(f.left.get()), slot_of) ==
               eval_node(t, child_index(f.right.get()), slot_of);
      break;
    case mso::Kind::Exists:
    case mso::Kind::Forall: {
      if (n.rank <= 0)
        throw std::logic_error("Evaluator: type rank too small for formula");
      const auto& exts =
          f.var_sort == mso::Sort::VertexSet ? n.vexts : n.eexts;
      if (f.var_sort == mso::Sort::VertexSet && !engine_.config().vertex_exts)
        throw std::logic_error("Evaluator: engine built without vertex exts");
      if (f.var_sort == mso::Sort::EdgeSet && !engine_.config().edge_exts)
        throw std::logic_error("Evaluator: engine built without edge exts");
      const int new_slot = static_cast<int>(a.vars.size());
      const auto prev = slot_of.find(f.var);
      const bool had = prev != slot_of.end();
      const int old = had ? prev->second : -1;
      slot_of[f.var] = new_slot;
      const bool want = f.kind == mso::Kind::Exists;
      bool found = false;
      const int body = child_index(f.left.get());
      for (TypeId ext : exts) {
        if (eval_node(ext, body, slot_of) == want) {
          found = true;
          break;
        }
      }
      if (had)
        slot_of[f.var] = old;
      else
        slot_of.erase(f.var);
      result = found == want;
      break;
    }
    default:
      throw std::logic_error(
          "Evaluator: formula contains non-lowered atomics (Member/Equal)");
  }
  memo_[memo_key] = result;
  return result;
}

}  // namespace dmc::bpt
