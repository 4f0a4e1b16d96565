#include "congest/faults.hpp"

#include <charconv>
#include <cstdio>
#include <stdexcept>

#include "congest/wire.hpp"

namespace dmc::congest {

namespace {

[[noreturn]] void bad_spec(std::string_view spec, const std::string& why) {
  throw std::invalid_argument("bad fault spec \"" + std::string(spec) +
                              "\": " + why);
}

double parse_prob(std::string_view spec, std::string_view key,
                  std::string_view value) {
  double p = 0;
  const auto res = std::from_chars(value.data(), value.data() + value.size(), p);
  if (res.ec != std::errc{} || res.ptr != value.data() + value.size())
    bad_spec(spec, std::string(key) + " wants a number, got \"" +
                       std::string(value) + "\"");
  if (p < 0.0 || p > 1.0)
    bad_spec(spec, std::string(key) + " must be a probability in [0,1]");
  return p;
}

long parse_long(std::string_view spec, std::string_view key,
                std::string_view value) {
  long v = 0;
  const auto res = std::from_chars(value.data(), value.data() + value.size(), v);
  if (res.ec != std::errc{} || res.ptr != value.data() + value.size())
    bad_spec(spec, std::string(key) + " wants an integer, got \"" +
                       std::string(value) + "\"");
  return v;
}

}  // namespace

FaultPlan parse_fault_plan(std::string_view spec) {
  FaultPlan plan;
  std::string_view rest = spec;
  // Scalar keys may appear at most once (`crash` legitimately repeats, one
  // entry per crash fault). Last-wins would silently mask typos like
  // "drop=0.1,drop=0.9", so duplicates are rejected outright.
  std::vector<std::string> seen;
  auto note_key = [&](std::string_view logical_key) {
    const std::string k(logical_key);
    for (const std::string& s : seen)
      if (s == k) bad_spec(spec, "duplicate key \"" + k + "\"");
    seen.push_back(k);
  };
  while (!rest.empty()) {
    const std::size_t comma = rest.find(',');
    std::string_view item = rest.substr(0, comma);
    rest = comma == std::string_view::npos ? std::string_view{}
                                           : rest.substr(comma + 1);
    if (item.empty()) continue;
    const std::size_t eq = item.find('=');
    if (eq == std::string_view::npos)
      bad_spec(spec, "\"" + std::string(item) + "\" is not key=value");
    const std::string_view key = item.substr(0, eq);
    const std::string_view value = item.substr(eq + 1);
    if (key != "crash") note_key(key == "duplicate" ? "dup" : key);
    if (key == "drop") {
      plan.drop = parse_prob(spec, key, value);
    } else if (key == "dup" || key == "duplicate") {
      plan.duplicate = parse_prob(spec, key, value);
    } else if (key == "corrupt") {
      plan.corrupt = parse_prob(spec, key, value);
    } else if (key == "reorder") {
      plan.reorder = parse_prob(spec, key, value);
    } else if (key == "reorder_max") {
      const long v = parse_long(spec, key, value);
      if (v < 1 || v > 64) bad_spec(spec, "reorder_max must be in 1..64");
      plan.reorder_max = static_cast<int>(v);
    } else if (key == "seed") {
      const long v = parse_long(spec, key, value);
      if (v < 0) bad_spec(spec, "seed must be >= 0");
      plan.seed = static_cast<std::uint64_t>(v);
    } else if (key == "crash") {
      // crash=ID@rROUND — node ID crash-stops at the given physical round.
      const std::size_t at = value.find("@r");
      if (at == std::string_view::npos)
        bad_spec(spec, "crash wants ID@rROUND, got \"" + std::string(value) +
                           "\"");
      CrashFault crash;
      crash.node = static_cast<VertexId>(
          parse_long(spec, "crash node", value.substr(0, at)));
      crash.round = parse_long(spec, "crash round", value.substr(at + 2));
      if (crash.node < 0) bad_spec(spec, "crash node id must be >= 0");
      if (crash.round < 0) bad_spec(spec, "crash round must be >= 0");
      plan.crashes.push_back(crash);
    } else {
      bad_spec(spec, "unknown key \"" + std::string(key) + "\"");
    }
  }
  return plan;
}

std::string format_fault_plan(const FaultPlan& plan) {
  std::string out;
  char buf[64];
  auto add = [&](const char* key, double p) {
    if (p <= 0) return;
    std::snprintf(buf, sizeof(buf), "%s%s=%g", out.empty() ? "" : ",", key, p);
    out += buf;
  };
  add("drop", plan.drop);
  add("dup", plan.duplicate);
  add("corrupt", plan.corrupt);
  add("reorder", plan.reorder);
  if (plan.reorder > 0 && plan.reorder_max != 2) {
    std::snprintf(buf, sizeof(buf), ",reorder_max=%d", plan.reorder_max);
    out += buf;
  }
  for (const CrashFault& c : plan.crashes) {
    std::snprintf(buf, sizeof(buf), "%scrash=%d@r%ld", out.empty() ? "" : ",",
                  c.node, c.round);
    out += buf;
  }
  std::snprintf(buf, sizeof(buf), "%sseed=%llu", out.empty() ? "" : ",",
                static_cast<unsigned long long>(plan.seed));
  out += buf;
  return out;
}

FaultInjector::FaultInjector(FaultPlan plan) : plan_(std::move(plan)) {}

double FaultInjector::u01(std::uint64_t purpose, VertexId src, VertexId dst,
                          long round, std::uint64_t salt) const {
  std::uint64_t h = audit::mix64(plan_.seed, purpose);
  h = audit::mix64(h, (static_cast<std::uint64_t>(static_cast<std::uint32_t>(
                           src))
                       << 32) |
                          static_cast<std::uint64_t>(
                              static_cast<std::uint32_t>(dst)));
  h = audit::mix64(h, static_cast<std::uint64_t>(round));
  h = audit::mix64(h, salt);
  // 53 high bits -> uniform double in [0, 1).
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

FaultInjector::Fate FaultInjector::fate(VertexId src, VertexId dst, long round,
                                        std::uint64_t salt) const {
  Fate fate;
  if (u01(1, src, dst, round, salt) < plan_.drop) {
    fate.drop = true;
  } else {
    if (u01(2, src, dst, round, salt) < plan_.corrupt) fate.corrupt = true;
    if (plan_.reorder > 0 && u01(3, src, dst, round, salt) < plan_.reorder) {
      const double r = u01(4, src, dst, round, salt);
      fate.delay = 1 + static_cast<int>(r * plan_.reorder_max) %
                           plan_.reorder_max;
    }
  }
  if (u01(5, src, dst, round, salt) < plan_.duplicate) {
    fate.duplicate = true;
    fate.dup_corrupt = u01(6, src, dst, round, salt) < plan_.corrupt;
    const double r = u01(7, src, dst, round, salt);
    const int span = plan_.reorder_max > 0 ? plan_.reorder_max : 2;
    fate.dup_delay = 1 + static_cast<int>(r * span) % span;
  }
  return fate;
}

}  // namespace dmc::congest
