// perfbench: one run of one benchmark workload (see perfbench/README.md).
//
//   perfbench --workload NAME --seed N [--seconds S] [--trace 0|1]
//             [--smoke] [--work-dir DIR] [--spans FILE]
//
// Prints the workload's report lines, then as the last line one JSON
// object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1.
// perfbench/run.py builds this binary and forwards its arguments.
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <string>

#include "common.hpp"

namespace {

using perfbench::RunArgs;
using perfbench::RunResult;

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "deeppath-decide|serve-mix|churn-edges --seed N "
               "[--seconds S] [--trace 0|1] [--smoke] [--work-dir DIR] "
               "[--spans FILE]\n",
               why.c_str());
  std::exit(2);
}

long parse_long(const std::string& flag, const std::string& text, long lo,
                long hi) {
  long v = 0;
  const auto [end, ec] = std::from_chars(text.data(), text.data() + text.size(), v);
  if (ec != std::errc() || end != text.data() + text.size() || v < lo || v > hi)
    usage(flag + " expects an integer in [" + std::to_string(lo) + ", " +
          std::to_string(hi) + "], got '" + text + "'");
  return v;
}

RunArgs parse_args(int argc, char** argv) {
  RunArgs a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      a.smoke = true;
      continue;
    }
    if (i + 1 >= argc) usage(flag + " needs a value");
    const std::string value = argv[++i];
    if (flag == "--workload") a.workload = value;
    else if (flag == "--seed") a.seed = parse_long(flag, value, 0, 1L << 62);
    else if (flag == "--seconds") a.seconds = parse_long(flag, value, 1, 600);
    else if (flag == "--trace") a.trace = parse_long(flag, value, 0, 1) == 1;
    else if (flag == "--work-dir") a.work_dir = value;
    else if (flag == "--spans") a.spans_path = value;
    else usage("unknown flag " + flag);
  }
  if (a.workload.empty()) usage("--workload is required");
  return a;
}

/// All the digits of a value: whole numbers (counts) as integers, others
/// as the shortest text that reads back as the same double.
std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  if (v == std::trunc(v) && std::fabs(v) < 9e15)
    return std::to_string(static_cast<long long>(v));
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

}  // namespace

int main(int argc, char** argv) {
  const RunArgs args = parse_args(argc, argv);
  RunResult r;
  try {
    if (args.workload == "deeppath-decide") r = perfbench::run_deeppath_decide(args);
    else if (args.workload == "serve-mix") r = perfbench::run_serve_mix(args);
    else if (args.workload == "churn-edges") r = perfbench::run_churn_edges(args);
    else usage("unknown workload '" + args.workload + "'");
  } catch (const std::exception& e) {
    // A workload that cannot finish its run prints no result.
    std::fprintf(stderr, "perfbench: %s: %s\n", args.workload.c_str(), e.what());
    return 1;
  }
  if (r.attempted < 1) {
    std::fprintf(stderr, "perfbench: %s attempted no operation\n",
                 args.workload.c_str());
    return 1;
  }
  if (args.trace && !args.spans_path.empty()) {
    std::ofstream spans(args.spans_path);
    spans << r.spans_jsonl;
    if (!spans.flush()) {
      std::fprintf(stderr, "perfbench: cannot write %s\n",
                   args.spans_path.c_str());
      return 1;
    }
  }
  for (const std::string& note : r.notes) std::printf("# %s\n", note.c_str());
  std::printf("# answers_checked = %ld count\n", r.checked);
  for (const auto& m : r.report)
    std::printf("# %s = %s %s\n", m.name.c_str(), number(m.value).c_str(),
                m.unit.c_str());
  std::string line = "{\"correct\": ";
  line += r.failed == 0 ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(r.attempted);
  line += ", \"failed\": " + std::to_string(r.failed);
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const auto& m = r.metrics[i];
    if (i > 0) line += ", ";
    line += quoted(m.name) + ": {\"value\": " + number(m.value) +
            ", \"unit\": " + quoted(m.unit) + "}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  return 0;
}
