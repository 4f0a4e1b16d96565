// Universe-cache serialization (see universe_cache.hpp for the format and
// invalidation story). Engine::save_universe / load_universe live here so
// engine.cpp stays purely about type algebra.
#include "bpt/universe_cache.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <istream>
#include <ostream>
#include <tuple>
#include <vector>

#include "metrics/metrics.hpp"

namespace dmc::bpt {

namespace {

constexpr char kMagic[4] = {'D', 'M', 'C', 'U'};

std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  return h;
}

// Checksumming byte sinks/sources over iostreams. The checksum is FNV-1a
// over every payload byte, written last and verified on read.
class Writer {
 public:
  explicit Writer(std::ostream& out) : out_(out) {}

  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) sum_ = (sum_ ^ b[i]) * 0x100000001b3ull;
    out_.write(static_cast<const char*>(p), static_cast<std::streamsize>(n));
  }
  template <typename T>
  void pod(T v) {
    static_assert(std::is_trivially_copyable_v<T>);
    bytes(&v, sizeof(v));
  }
  void u32(std::uint32_t v) { pod(v); }
  void u64(std::uint64_t v) { pod(v); }
  std::uint64_t sum() const { return sum_; }
  bool ok() const { return static_cast<bool>(out_); }

 private:
  std::ostream& out_;
  std::uint64_t sum_ = 0xcbf29ce484222325ull;
};

class Reader {
 public:
  explicit Reader(std::istream& in) : in_(in) {}

  bool bytes(void* p, std::size_t n) {
    in_.read(static_cast<char*>(p), static_cast<std::streamsize>(n));
    if (!in_) return false;
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) sum_ = (sum_ ^ b[i]) * 0x100000001b3ull;
    return true;
  }
  template <typename T>
  bool pod(T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    return bytes(&v, sizeof(v));
  }
  std::uint64_t sum() const { return sum_; }

 private:
  std::istream& in_;
  std::uint64_t sum_ = 0xcbf29ce484222325ull;
};

// Serialized collection sizes are sanity-bounded so a corrupted length
// field cannot drive a multi-gigabyte allocation before the checksum
// check has a chance to run.
constexpr std::uint64_t kMaxCount = 1ull << 26;

void put_ids(Writer& w, const std::vector<TypeId>& ids) {
  w.u32(static_cast<std::uint32_t>(ids.size()));
  for (TypeId t : ids) w.pod(t);
}

bool get_ids(Reader& r, std::vector<TypeId>& ids, std::size_t max_id) {
  std::uint32_t n = 0;
  if (!r.pod(n) || n > kMaxCount) return false;
  ids.resize(n);
  for (auto& t : ids) {
    if (!r.pod(t)) return false;
    if (t < 0 || static_cast<std::size_t>(t) >= max_id) return false;
  }
  return true;
}

void put_node(Writer& w, const TypeNode& n) {
  w.pod(n.rank);
  const AtomicInfo& a = n.atoms;
  w.pod(a.tau);
  w.u64(a.term_adj);
  w.u64(a.adjsets);
  w.u64(a.subsets);
  w.u64(a.disjs);
  w.u64(a.incs);
  w.u64(a.crosses);
  w.u32(static_cast<std::uint32_t>(a.vars.size()));
  for (const VarAtoms& v : a.vars) {
    w.pod(static_cast<std::uint8_t>(v.sort));
    w.u32(v.mask);
    w.u64(v.pair_mask);
    w.pod(v.hidden);
    w.pod(v.cohidden);
    w.pod(v.border);
    w.u32(v.labels);
  }
  put_ids(w, n.vexts);
  put_ids(w, n.eexts);
}

bool get_node(Reader& r, TypeNode& n, std::size_t max_id) {
  AtomicInfo& a = n.atoms;
  std::uint32_t vars = 0;
  if (!r.pod(n.rank) || !r.pod(a.tau) || !r.pod(a.term_adj) ||
      !r.pod(a.adjsets) || !r.pod(a.subsets) || !r.pod(a.disjs) ||
      !r.pod(a.incs) || !r.pod(a.crosses) || !r.pod(vars))
    return false;
  if (vars > kMaxSlots) return false;
  a.vars.resize(vars);
  for (VarAtoms& v : a.vars) {
    std::uint8_t sort = 0;
    if (!r.pod(sort) || !r.pod(v.mask) || !r.pod(v.pair_mask) ||
        !r.pod(v.hidden) || !r.pod(v.cohidden) || !r.pod(v.border) ||
        !r.pod(v.labels))
      return false;
    v.sort = static_cast<mso::Sort>(sort);
  }
  return get_ids(r, n.vexts, max_id) && get_ids(r, n.eexts, max_id);
}

void hash_strings(std::uint64_t& h, const std::vector<std::string>& v) {
  h = mix(h, v.size());
  for (const std::string& s : v) {
    h = mix(h, s.size());
    for (char c : s) h = mix(h, static_cast<unsigned char>(c));
  }
}

}  // namespace

std::uint64_t config_hash(const EngineConfig& cfg) {
  std::uint64_t h = 1469598103934665603ull;
  h = mix(h, cfg.rank);
  h = mix(h, cfg.free_sorts.size());
  for (mso::Sort s : cfg.free_sorts) h = mix(h, static_cast<int>(s));
  hash_strings(h, cfg.vertex_labels);
  hash_strings(h, cfg.edge_labels);
  h = mix(h, (cfg.vertex_exts ? 2 : 0) | (cfg.edge_exts ? 1 : 0));
  for (const auto* modes : {&cfg.vertex_mode, &cfg.edge_mode, &cfg.free_modes}) {
    h = mix(h, modes->size());
    for (ExtMode m : *modes) h = mix(h, static_cast<int>(m));
  }
  const FeatureMask& fm = cfg.features;
  h = mix(h, (static_cast<std::uint64_t>(fm.hidden_cap) << 8) |
                 (fm.full << 7) | (fm.border << 6) | (fm.adjsets << 5) |
                 (fm.subsets << 4) | (fm.disjs << 3) | (fm.incs << 2) |
                 (fm.crosses << 1) | static_cast<std::uint64_t>(fm.term_adj));
  return h;
}

std::string default_universe_cache_dir() {
  if (const char* dir = std::getenv("DMC_CACHE_DIR")) return dir;
  if (const char* xdg = std::getenv("XDG_CACHE_HOME"))
    return std::string(xdg) + "/dmc";
  if (const char* home = std::getenv("HOME"))
    return std::string(home) + "/.cache/dmc";
  return {};
}

std::string universe_cache_path(const std::string& dir,
                                const std::string& formula_text,
                                const EngineConfig& cfg) {
  std::uint64_t h = 1469598103934665603ull;
  for (char c : formula_text) h = mix(h, static_cast<unsigned char>(c));
  h = mix(h, config_hash(cfg));
  h = mix(h, kEngineCacheVersion);
  char name[64];
  std::snprintf(name, sizeof(name), "universe-%016llx.dmcu",
                static_cast<unsigned long long>(h));
  return dir + "/" + name;
}

void Engine::save_universe(std::ostream& out) const {
  Writer w(out);
  out.write(kMagic, sizeof(kMagic));
  w.u32(kUniverseCacheFormatVersion);
  w.u32(kEngineCacheVersion);
  w.u64(config_hash(cfg_));

  const std::size_t n = nodes_.size();
  w.u64(n);
  for (std::size_t i = 0; i < n; ++i) put_node(w, nodes_[i]);

  const std::size_t nops = ops_.size();
  w.u64(nops);
  for (std::size_t i = 0; i < nops; ++i) {
    const GluingMatrix& f = ops_[i];
    w.u32(static_cast<std::uint32_t>(f.rows.size()));
    for (const auto& row : f.rows) {
      w.pod(row[0]);
      w.pod(row[1]);
    }
  }

  // The primitive memo is small: it is written in key order. The compose
  // memo is written in place, in its for_each order, which load_universe
  // reproduces. Either way a save is a function of what a load installs.
  std::vector<std::pair<PrimitiveKey, TypeId>> prims(primitive_memo_.begin(),
                                                     primitive_memo_.end());
  std::sort(prims.begin(), prims.end(), [](const auto& a, const auto& b) {
    return std::tie(a.first.desc, a.first.shape) <
           std::tie(b.first.desc, b.first.shape);
  });
  w.u64(prims.size());
  SlotBits slots;
  for (const auto& [key, id] : prims) {
    bool is_k2 = false;
    std::uint64_t desc = 0;
    int rank = 0;
    unpack_primitive_key(key, is_k2, desc, slots, rank);
    w.pod(static_cast<std::uint8_t>(is_k2));
    w.u64(desc);
    w.u32(static_cast<std::uint32_t>(slots.size()));
    for (std::uint8_t s : slots) w.pod(s);
    w.pod(rank);
    w.pod(id);
  }

  w.u64(memo_.size());
  memo_.for_each([&](std::uint64_t key, TypeId id) {
    w.u64(key);
    w.pod(id);
  });

  const std::uint64_t sum = w.sum();
  out.write(reinterpret_cast<const char*>(&sum), sizeof(sum));
}

bool Engine::load_universe(std::istream& in) {
  char magic[4] = {};
  in.read(magic, sizeof(magic));
  if (!in || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) return false;
  Reader r(in);
  std::uint32_t format = 0, engine_version = 0;
  std::uint64_t cfg_hash = 0;
  if (!r.pod(format) || !r.pod(engine_version) || !r.pod(cfg_hash))
    return false;
  if (format != kUniverseCacheFormatVersion ||
      engine_version != kEngineCacheVersion || cfg_hash != config_hash(cfg_))
    return false;

  std::uint64_t n = 0;
  if (!r.pod(n) || n > kMaxCount) return false;
  std::vector<TypeNode> nodes(n);
  for (std::uint64_t i = 0; i < n; ++i)
    if (!get_node(r, nodes[i], n)) return false;

  std::uint64_t nops = 0;
  if (!r.pod(nops) || nops > kMaxCount) return false;
  std::vector<GluingMatrix> ops(nops);
  for (auto& f : ops) {
    std::uint32_t rows = 0;
    if (!r.pod(rows) || rows > kMaxTerminals) return false;
    f.rows.resize(rows);
    for (auto& row : f.rows)
      if (!r.pod(row[0]) || !r.pod(row[1])) return false;
  }

  std::uint64_t nprim = 0;
  if (!r.pod(nprim) || nprim > kMaxCount) return false;
  decltype(primitive_memo_) prim;
  for (std::uint64_t i = 0; i < nprim; ++i) {
    std::uint8_t is_k2 = 0;
    std::uint64_t desc = 0;
    std::uint32_t nslots = 0;
    if (!r.pod(is_k2) || !r.pod(desc) || !r.pod(nslots) ||
        nslots > kMaxSlots + 1u)
      return false;
    std::vector<std::uint8_t> slots(nslots);
    for (auto& s : slots)
      if (!r.pod(s)) return false;
    int rank = 0;
    TypeId id = 0;
    if (!r.pod(rank) || !r.pod(id)) return false;
    if (id < 0 || static_cast<std::uint64_t>(id) >= n) return false;
    PrimitiveKey key;
    if (!primitive_key(is_k2 != 0, desc, slots, rank, key)) return false;
    prim[key] = id;
  }

  std::uint64_t nmemo = 0;
  if (!r.pod(nmemo) || nmemo > kMaxCount) return false;
  std::vector<std::pair<std::uint64_t, TypeId>> memo(nmemo);
  for (auto& [key, id] : memo) {
    if (!r.pod(key) || !r.pod(id)) return false;
    if (id != kInvalidType &&
        (id < 0 || static_cast<std::uint64_t>(id) >= n))
      return false;
  }

  const std::uint64_t computed = r.sum();
  std::uint64_t stored = 0;
  in.read(reinterpret_cast<char*>(&stored), sizeof(stored));
  if (!in || stored != computed) return false;

  // Everything validated: install and rebuild the derived indices.
  nodes_.clear();
  index_.clear();
  for (auto& node : nodes) {
    index_.insert(hash_type_node(node), static_cast<TypeId>(nodes_.size()));
    nodes_.push_back(std::move(node));
  }
  ops_.clear();
  op_index_.clear();
  for (auto& f : ops) {
    const int id = static_cast<int>(ops_.size());
    op_index_[f] = id;
    ops_.push_back(std::move(f));
  }
  primitive_memo_ = std::move(prim);
  memo_.clear();
  memo_.reserve(std::min<std::size_t>(memo.size(), kMemoCap));
  for (const auto& [key, id] : memo) {
    if (memo_.size() == kMemoCap) break;
    memo_.insert(key, id);
  }
  return true;
}

bool load_universe_cache(Engine& engine, const std::string& path) {
  auto note = [](const char* name) {
    if (metrics::Registry* const reg = metrics::global())
      reg->counter(name).add(1);
  };
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    note("bpt.universe_cache.misses");
    return false;
  }
  // A readable file that fails validation (stale version/config/checksum)
  // counts as a miss too: the caller recomputes either way.
  const bool ok = engine.load_universe(in);
  note(ok ? "bpt.universe_cache.hits" : "bpt.universe_cache.misses");
  return ok;
}

bool save_universe_cache(const Engine& engine, const std::string& path) {
  namespace fs = std::filesystem;
  std::error_code ec;
  const fs::path target(path);
  if (target.has_parent_path())
    fs::create_directories(target.parent_path(), ec);
  fs::path tmp = target;
  tmp += ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return false;
    engine.save_universe(out);
    out.flush();  // surface ENOSPC-style errors before the rename commits
    if (!out) {
      fs::remove(tmp, ec);
      return false;
    }
  }
  fs::rename(tmp, target, ec);
  if (ec) {
    fs::remove(tmp, ec);
    return false;
  }
  return true;
}

}  // namespace dmc::bpt
