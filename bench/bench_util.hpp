// Shared table-printing helpers for the experiment harness.
//
// Every bench binary regenerates one experiment of EXPERIMENTS.md: it
// prints a header naming the experiment and the paper claim it validates,
// then one row per sweep point. Values are round counts / sizes measured in
// the CONGEST simulator, not wall-clock times (the paper's claims are about
// round complexity).
//
// Machine-readable output: when $DMC_BENCH_JSON names a file, every
// bench::row() additionally appends one JSON object per line (keys = the
// column names of the preceding bench::columns() call, tagged with the
// experiment of the preceding bench::header()), and run_benchmarks()
// streams each google-benchmark timing, with its user counters, into the
// same file. The human tables on stdout are unchanged.
// tools/collect_bench.py drives every binary this way and aggregates the
// lines into top-level BENCH_<exp>.json files.
#pragma once

#include <benchmark/benchmark.h>

#include <concepts>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "metrics/metrics.hpp"
#include "obs/buffer.hpp"
#include "obs/summary.hpp"

namespace dmc::bench {

namespace detail {

struct JsonState {
  std::FILE* out = nullptr;       // nullptr = JSON disabled
  std::string experiment;         // from the last header()
  std::vector<std::string> cols;  // from the last columns()
  std::vector<std::string> cells;  // accumulated by cell() until endrow()
  // DMC_BENCH_METRICS=1 installs the aggregate metrics registry for the
  // whole bench process and splices its snapshot into every JSON row
  // (fields are cumulative at row-emission time). Off by default: the
  // headline timings stay measurements of the metrics-disabled hot path.
  metrics::Registry* metrics = nullptr;

  static JsonState& get() {
    static JsonState state = [] {
      JsonState s;
      if (const char* path = std::getenv("DMC_BENCH_JSON"))
        if (*path != '\0') s.out = std::fopen(path, "a");
      if (const char* flag = std::getenv("DMC_BENCH_METRICS"))
        if (*flag != '\0' && std::string(flag) != "0") {
          static dmc::metrics::Registry registry;
          dmc::metrics::set_global(&registry);
          s.metrics = &registry;
        }
      return s;
    }();
    return state;
  }
};

inline std::string json_escape(const std::string& s) {
  std::string r;
  for (char c : s) {
    if (c == '"' || c == '\\') r += '\\';
    if (c == '\n') {
      r += "\\n";
      continue;
    }
    r += c;
  }
  return r;
}

}  // namespace detail

inline void header(const std::string& experiment, const std::string& claim) {
  std::printf("\n=== %s ===\n%s\n", experiment.c_str(), claim.c_str());
  detail::JsonState::get().experiment = experiment;
}

inline void columns(const std::vector<std::string>& names) {
  for (const auto& name : names) std::printf("%14s", name.c_str());
  std::printf("\n");
  for (std::size_t i = 0; i < names.size(); ++i) std::printf("%14s", "----");
  std::printf("\n");
  detail::JsonState::get().cols = names;
}

// Numeric cells record a bare JSON number, text cells a quoted string.
inline void cell(double value) {
  std::printf("%14.2f", value);
  detail::JsonState::get().cells.push_back(std::to_string(value));
}
inline void cell(const std::string& value) {
  std::printf("%14s", value.c_str());
  detail::JsonState::get().cells.push_back('"' + detail::json_escape(value) +
                                           '"');
}
inline void cell(const char* value) { cell(std::string(value)); }
template <std::integral T>
void cell(T value) {
  std::printf("%14lld", static_cast<long long>(value));
  detail::JsonState::get().cells.push_back(
      std::to_string(static_cast<long long>(value)));
}

inline void endrow() {
  std::printf("\n");
  auto& js = detail::JsonState::get();
  if (js.out != nullptr && js.cells.size() == js.cols.size() &&
      !js.cols.empty()) {
    std::fprintf(js.out, "{\"experiment\":\"%s\"",
                 detail::json_escape(js.experiment).c_str());
    for (std::size_t i = 0; i < js.cols.size(); ++i)
      std::fprintf(js.out, ",\"%s\":%s",
                   detail::json_escape(js.cols[i]).c_str(),
                   js.cells[i].c_str());
    if (js.metrics != nullptr) {
      std::ostringstream fields;
      js.metrics->write_json_fields(fields);
      if (!fields.str().empty()) std::fprintf(js.out, ",%s", fields.str().c_str());
    }
    std::fprintf(js.out, "}\n");
    std::fflush(js.out);
  }
  js.cells.clear();
}

template <typename... Ts>
void row(Ts... values) {
  (cell(values), ...);
  endrow();
}

namespace detail {

/// Console reporter that additionally streams each timing as a JSON line
/// into the DMC_BENCH_JSON file, tagged with the current experiment.
class JsonlTeeReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    benchmark::ConsoleReporter::ReportRuns(runs);
    auto& js = JsonState::get();
    if (js.out == nullptr) return;
    for (const Run& r : runs) {
      if (r.error_occurred) continue;
      std::fprintf(js.out,
                   "{\"experiment\":\"%s\",\"benchmark\":\"%s\","
                   "\"iterations\":%lld,\"real_time\":%.6g,"
                   "\"cpu_time\":%.6g,\"time_unit\":\"%s\"",
                   json_escape(js.experiment).c_str(),
                   json_escape(r.benchmark_name()).c_str(),
                   static_cast<long long>(r.iterations),
                   r.GetAdjustedRealTime(), r.GetAdjustedCPUTime(),
                   benchmark::GetTimeUnitString(r.time_unit));
      // User counters (state.counters) are deterministic columns.
      for (const auto& [name, counter] : r.counters)
        std::fprintf(js.out, ",\"%s\":%.6g", json_escape(name).c_str(),
                     counter.value);
      std::fprintf(js.out, "}\n");
    }
    std::fflush(js.out);
  }
};

}  // namespace detail

/// Drop-in replacement for Initialize + RunSpecifiedBenchmarks that also
/// feeds the DMC_BENCH_JSON stream (console output is unchanged).
inline void run_benchmarks(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (detail::JsonState::get().out != nullptr) {
    detail::JsonlTeeReporter reporter;
    benchmark::RunSpecifiedBenchmarks(&reporter);
  } else {
    benchmark::RunSpecifiedBenchmarks();
  }
}

/// Per-phase attribution of a traced run: prints the obs summary table so an
/// experiment's headline constant (e.g. E1's rounds/4^d) can be decomposed
/// into its protocol steps.
inline obs::Summary phase_breakdown(const obs::TraceBuffer& buffer,
                                    const std::string& caption) {
  obs::Summary s = obs::summarize(buffer);
  std::printf("\n%s\n%s", caption.c_str(), obs::format_summary(s).c_str());
  return s;
}

/// Adds one traced sweep point to a rounds-vs-x curve, one series per phase
/// aggregated at `depth` path components (depth 1 groups "a/b" under "a").
inline void curve_from_phases(obs::CurveTable& curve, long x,
                              const obs::Summary& summary, int depth = 1) {
  std::vector<std::string> seen;
  for (const auto& p : summary.phases) {
    std::string key = p.path;
    int slashes = 0;
    for (std::size_t i = 0; i < key.size(); ++i) {
      if (key[i] == '/' && ++slashes == depth) {
        key.resize(i);
        break;
      }
    }
    bool dup = false;
    for (const auto& s : seen) dup = dup || s == key;
    if (dup) continue;
    seen.push_back(key);
    curve.add(key, x, double(summary.aggregate(key).rounds));
  }
}

}  // namespace dmc::bench
