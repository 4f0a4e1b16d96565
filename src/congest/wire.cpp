#include "congest/wire.hpp"

#include <algorithm>
#include <bit>
#include <map>
#include <sstream>

#include "congest/fragment.hpp"
#include "congest/network.hpp"

#if defined(__GNUG__)
#include <cxxabi.h>

#include <cstdlib>
#endif

namespace dmc::audit {

int uint_bits(std::uint64_t v) {
  return std::max(1, static_cast<int>(std::bit_width(v)));
}

std::uint64_t zigzag(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}

std::int64_t unzigzag(std::uint64_t v) {
  return static_cast<std::int64_t>(v >> 1) ^ -static_cast<std::int64_t>(v & 1);
}

int varuint_bits(std::uint64_t v) { return 8 * ((uint_bits(v) + 6) / 7); }

int varint_bits(std::int64_t v) { return varuint_bits(zigzag(v)); }

void BitWriter::put_bit(bool b) {
  if (bits_ % 8 == 0) bytes_.push_back(0);
  if (b) bytes_.back() |= static_cast<std::uint8_t>(1u << (bits_ % 8));
  ++bits_;
}

void BitWriter::put_uint(std::uint64_t v, int width) {
  if (width < 0 || width > 64)
    throw std::invalid_argument("BitWriter::put_uint: width out of range");
  if (width < 64 && (v >> width) != 0)
    throw std::invalid_argument("BitWriter::put_uint: value needs " +
                                std::to_string(uint_bits(v)) + " > " +
                                std::to_string(width) + " bits");
  // Byte-aligned chunks: the tail of the current byte, then whole bytes.
  // Bit i of v lands at stream position bits_ + i, as put_bit would put it.
  const long end = bits_ + width;
  bytes_.resize(static_cast<std::size_t>((end + 7) / 8), 0);
  while (bits_ < end) {
    const int offset = static_cast<int>(bits_ % 8);
    const int take = std::min<long>(8 - offset, end - bits_);
    bytes_[bits_ / 8] |= static_cast<std::uint8_t>((v & ((1u << take) - 1))
                                                   << offset);
    v >>= take;  // take <= 8 < 64
    bits_ += take;
  }
}

void BitWriter::put_uint_min(std::uint64_t v) { put_uint(v, uint_bits(v)); }

void BitWriter::put_varuint(std::uint64_t v) {
  do {
    const std::uint64_t group = v & 0x7f;
    v >>= 7;
    put_uint(group, 7);
    put_bit(v != 0);
  } while (v != 0);
}

void BitWriter::put_varint(std::int64_t v) { put_varuint(zigzag(v)); }

bool BitReader::get_bit() {
  if (pos_ >= nbits_)
    throw WireError("BitReader: read past end of frame");
  const bool b = (bytes_[pos_ / 8] >> (pos_ % 8)) & 1;
  ++pos_;
  return b;
}

std::uint64_t BitReader::get_uint(int width) {
  if (width < 0 || width > 64)
    throw WireError("BitReader::get_uint: width out of range");
  std::uint64_t v = 0;
  for (int i = 0; i < width; ++i)
    if (get_bit()) v |= 1ull << i;
  return v;
}

std::uint64_t BitReader::get_varuint() {
  std::uint64_t v = 0;
  int shift = 0;
  for (;;) {
    if (shift >= 64) throw WireError("BitReader: varuint overflows 64 bits");
    const std::uint64_t group = get_uint(7);
    v |= group << shift;
    shift += 7;
    if (!get_bit()) return v;
  }
}

std::int64_t BitReader::get_varint() { return unzigzag(get_varuint()); }

std::uint64_t BitReader::get_rest() {
  const long rest = remaining();
  if (rest > 64) throw WireError("BitReader::get_rest: > 64 bits remain");
  return get_uint(static_cast<int>(rest));
}

namespace {

using CodecMap = std::map<std::type_index, WireCodec>;

CodecMap& registry() {
  // Process-wide codec table, filled during static initialization of the
  // protocol translation units and read-only afterwards.
  static CodecMap map;  // dmc-lint: allow(global-state)
  return map;
}

std::string demangle(const char* name) {
#if defined(__GNUG__)
  int status = 0;
  char* buf = abi::__cxa_demangle(name, nullptr, nullptr, &status);
  if (status == 0 && buf != nullptr) {
    std::string out(buf);
    std::free(buf);
    return out;
  }
#endif
  return name;
}

}  // namespace

const WireCodec* find_codec(std::type_index type) {
  const CodecMap& map = registry();
  const auto it = map.find(type);
  return it == map.end() ? nullptr : &it->second;
}

const WireCodec* find_codec(const Payload& value) {
  return find_codec(std::type_index(value.type()));
}

void register_codec_erased(std::type_index type, WireCodec codec) {
  registry()[type] = std::move(codec);
}

std::vector<std::string> registered_codec_names() {
  std::vector<std::string> names;
  for (const auto& [type, codec] : registry()) names.push_back(codec.name);
  std::sort(names.begin(), names.end());
  return names;
}

std::string payload_type_name(const Payload& value) {
  if (const WireCodec* codec = find_codec(value)) return codec->name;
  return demangle(value.type().name());
}

long measured_bits(const Payload& value, const WireContext& ctx) {
  const WireCodec* codec = find_codec(value);
  if (codec == nullptr)
    throw WireError("measured_bits: no wire codec registered for payload "
                    "type " +
                    payload_type_name(value));
  BitWriter writer;
  codec->encode(value, ctx, writer);
  return writer.bits();
}

std::uint64_t fnv1a(const std::uint8_t* data, std::size_t size,
                    std::uint64_t seed) {
  std::uint64_t h = seed;
  for (std::size_t i = 0; i < size; ++i) {
    h ^= data[i];
    h *= 1099511628211ull;
  }
  return h;
}

std::uint64_t mix64(std::uint64_t a, std::uint64_t b) {
  // splitmix64 finalizer over the combination.
  std::uint64_t z = a + 0x9e3779b97f4a7c15ull + b;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

namespace {

AuditOutcome audit_through_codec(const WireCodec& codec, const Payload& value,
                                 long declared_bits, const WireContext& ctx) {
  BitWriter writer;
  codec.encode(value, ctx, writer);
  const long encoded = writer.bits();
  const long budget =
      codec.budget ? codec.budget(value, declared_bits) : declared_bits;
  if (encoded > budget) {
    std::ostringstream msg;
    msg << "wire audit: payload type " << codec.name
        << " under-declares its size: encoded " << encoded
        << " bits > declared " << budget << " bits";
    throw WireError(msg.str());
  }
  BitReader reader(writer.bytes(), encoded);
  Payload decoded;
  try {
    decoded = codec.decode(ctx, reader);
  } catch (const std::exception& e) {
    throw WireError("wire audit: payload type " + codec.name +
                    " failed to decode its own encoding: " + e.what());
  }
  if (reader.remaining() != 0)
    throw WireError("wire audit: payload type " + codec.name + " left " +
                    std::to_string(reader.remaining()) +
                    " encoded bits unconsumed");
  if (!codec.equal(value, decoded))
    throw WireError("wire audit: payload type " + codec.name +
                    " does not survive an encode/decode round trip");
  AuditOutcome out;
  out.encoded_bits = encoded;
  out.content_hash = fnv1a(writer.bytes().data(), writer.bytes().size());
  return out;
}

}  // namespace

AuditOutcome audit_payload(const Payload& value, long declared_bits,
                           const WireContext& ctx) {
  // Fragment chunks are envelopes: an empty chunk is pure budgeted
  // bandwidth (one flag bit of content), the final chunk carries the whole
  // logical payload, whose true size must fit the *logical* declaration
  // that the chunk stream was budgeted from.
  if (const auto* frag = value.get_if<congest::Fragment>()) {
    if (!frag->value.has_value()) {
      AuditOutcome out;
      out.encoded_bits = 1;
      const std::uint8_t flag = 0;
      out.content_hash = fnv1a(&flag, 1);
      return out;
    }
    const WireCodec* inner = find_codec(frag->value);
    if (inner == nullptr)
      throw WireError(
          "wire audit: fragmented payload type " +
          payload_type_name(frag->value) +
          " has no registered wire codec (register one with "
          "dmc::audit::register_codec)");
    return audit_through_codec(*inner, frag->value, frag->logical_bits, ctx);
  }
  const WireCodec* codec = find_codec(value);
  if (codec == nullptr)
    throw WireError("wire audit: payload type " + payload_type_name(value) +
                    " has no registered wire codec (register one with "
                    "dmc::audit::register_codec)");
  return audit_through_codec(*codec, value, declared_bits, ctx);
}

namespace {

std::uint64_t magnitude(std::int64_t v) {
  return v < 0 ? ~static_cast<std::uint64_t>(v) + 1
               : static_cast<std::uint64_t>(v);
}

std::int64_t apply_sign(bool neg, std::uint64_t mag) {
  return neg ? -static_cast<std::int64_t>(mag) : static_cast<std::int64_t>(mag);
}

// Core codecs for the two bare payload types the whole codebase shares:
// a node identifier (fixed id_bits(n) width) and a signed 64-bit value
// (sign bit + frame-sized magnitude). Registered here so that *every*
// binary linking the audit layer has them, independent of which protocol
// translation units the linker pulls. The dmc-mc transport scenarios
// (src/mc/congest_system.cpp) send bare std::int64_t payloads with audit
// on: PairSender's payload, FloodProgram's ids, and the value FragSource
// and FragRelay carry in a Fragment's final chunk.
[[maybe_unused]] const bool core_codecs_registered = [] {
  register_codec<VertexId>(
      "congest::id",
      [](const VertexId& v, const WireContext& ctx, BitWriter& w) {
        w.put_uint(static_cast<std::uint64_t>(v), congest::id_bits(ctx.n));
      },
      [](const WireContext& ctx, BitReader& r) {
        return static_cast<VertexId>(r.get_uint(congest::id_bits(ctx.n)));
      },
      [](const VertexId& a, const VertexId& b) { return a == b; });
  register_codec<std::int64_t>(
      "congest::value",
      [](const std::int64_t& v, const WireContext&, BitWriter& w) {
        w.put_bit(v < 0);
        w.put_uint_min(magnitude(v));
      },
      [](const WireContext&, BitReader& r) {
        const bool neg = r.get_bit();
        return apply_sign(neg, r.get_rest());
      },
      [](const std::int64_t& a, const std::int64_t& b) { return a == b; });
  return true;
}();

}  // namespace

}  // namespace dmc::audit
