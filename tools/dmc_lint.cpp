// dmc-lint — static model-conformance checks for CONGEST protocol code.
//
// The dynamic audit layer (src/congest/wire.hpp) catches violations at run
// time on the inputs you happen to execute; this tool flags the classic
// sources of nonconformance at the source level, before any run:
//
//   unordered-iteration   range-for / .begin() iteration over a variable
//                         declared as std::unordered_map/set. Iteration
//                         order is implementation-defined, so any protocol
//                         decision derived from it is nondeterministic.
//   nondeterminism        rand()/srand()/std::random_device/time()/clock()
//                         in protocol code. Simulated nodes must be pure
//                         functions of their messages, ids, and explicit
//                         seeds.
//   raw-clock             <chrono clock>::now() reads outside src/obs and
//                         src/metrics. Wall-clock reads scattered through
//                         the stack cannot be faked in tests (obs::Clock's
//                         fake override never sees them) and make timing
//                         fields nondeterministic; go through
//                         obs::now_ms()/now_us() (src/obs/clock.hpp), the
//                         one sanctioned seam.
//   global-state          mutable static variables. Cross-node state
//                         sharing through globals breaks the model (nodes
//                         only communicate through messages) and breaks
//                         run-to-run determinism.
//   unregistered-payload  Message(SomePayload{...}) construction where no
//                         register_codec<SomePayload> exists in the scanned
//                         sources — the payload would fail the wire audit.
//   raw-send              NodeCtx::send_unreliable(...) in protocol code
//                         (paths under src/dist). Best-effort sends bypass
//                         the reliable-transport shim, so under fault
//                         injection the message may silently never arrive;
//                         protocols must either use plain send() or mark
//                         the loss-tolerant call site with
//                         "dmc-lint: allow(raw-send)".
//   raw-thread            std::thread / std::jthread / std::async outside
//                         src/par. Ad-hoc threads bypass the shared pool's
//                         nesting guard, exception funnel and threads=1
//                         serial path; use par::parallel_for (src/par/pool.hpp)
//                         or move the code under src/par.
//   raw-io                global-namespace blocking I/O calls — ::socket,
//                         ::bind, ::accept, ::connect, ::recv, ::send,
//                         ::read, ::write, ::poll, ::select, ::close —
//                         outside src/serve/io*. Blocking descriptor I/O
//                         scattered through scheduler or protocol code is
//                         invisible to deadlines and shutdown and cannot
//                         be faked in tests; all descriptor traffic goes
//                         through the serve::io layer (src/serve/io.hpp),
//                         which owns the sanctioned timeout-aware
//                         primitives.
//   naked-condvar-wait    cv.wait(lock) with no predicate. A wait without
//                         a predicate lambda is vulnerable to spurious
//                         wakeups and lost notifications unless the caller
//                         re-checks the condition in its own loop; the
//                         two-argument overload wait(lock, pred) encodes
//                         the loop correctly and self-documents what is
//                         being waited for. The pool internals (src/par)
//                         and the tier cache's hand-rolled wait loop
//                         (src/bpt/universe_tier.cpp) are the audited
//                         exceptions.
//   raw-metric            std::atomic* in simulator/protocol code (paths
//                         under src/congest or src/dist). Ad-hoc atomic
//                         counters are invisible to the metrics registry,
//                         so their totals can never be reconciled against
//                         NetworkStats or the obs trace; count through
//                         dmc::metrics (src/metrics/metrics.hpp) or plain
//                         serial counters. src/metrics and src/par
//                         themselves are exempt (they implement the
//                         sanctioned primitives); deliberate low-level
//                         atomics are marked "dmc-lint: allow(raw-metric)".
//
// Usage: dmc-lint [--self-test] <file-or-dir>...
//   Directories are scanned recursively for .cpp/.cc/.hpp/.h files.
//   Findings print as "file:line: rule: message"; exit status 1 if any.
//   A finding is suppressed by "// dmc-lint: allow(<rule>)" on its line.
//   --self-test: every expected finding in the inputs is marked with
//   "// lint-expect: <rule>"; the tool exits 0 iff the emitted findings
//   match the markers exactly (used by tests/lint_fixtures).
//
// Deliberately a lightweight lexical pass (comments and string literals
// are stripped, line numbers preserved): it complements, not replaces,
// clang-tidy (.clang-tidy) and the dynamic audit.
#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace {

struct Finding {
  std::string file;
  int line = 0;
  std::string rule;
  std::string message;
};

bool operator<(const Finding& a, const Finding& b) {
  return std::tie(a.file, a.line, a.rule) < std::tie(b.file, b.line, b.rule);
}

/// Removes comments and string/char literal *contents* while preserving
/// the line structure, so regex rules neither fire on prose nor lose line
/// numbers. Raw lines are kept separately for the marker scans.
std::string strip_comments_and_strings(const std::string& src) {
  std::string out;
  out.reserve(src.size());
  enum class State { Code, Line, Block, Str, Chr } state = State::Code;
  for (std::size_t i = 0; i < src.size(); ++i) {
    const char c = src[i];
    const char next = i + 1 < src.size() ? src[i + 1] : '\0';
    switch (state) {
      case State::Code:
        if (c == '/' && next == '/') {
          state = State::Line;
          ++i;
        } else if (c == '/' && next == '*') {
          state = State::Block;
          ++i;
        } else if (c == '"') {
          state = State::Str;
          out += c;
        } else if (c == '\'') {
          state = State::Chr;
          out += c;
        } else {
          out += c;
        }
        break;
      case State::Line:
        if (c == '\n') {
          state = State::Code;
          out += c;
        }
        break;
      case State::Block:
        if (c == '*' && next == '/') {
          state = State::Code;
          ++i;
        } else if (c == '\n') {
          out += c;
        }
        break;
      case State::Str:
        if (c == '\\') {
          ++i;
        } else if (c == '"') {
          state = State::Code;
          out += c;
        } else if (c == '\n') {
          out += c;  // unterminated; keep line structure
        }
        break;
      case State::Chr:
        if (c == '\\') {
          ++i;
        } else if (c == '\'') {
          state = State::Code;
          out += c;
        }
        break;
    }
  }
  return out;
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::string cur;
  for (char c : text) {
    if (c == '\n') {
      lines.push_back(cur);
      cur.clear();
    } else {
      cur += c;
    }
  }
  lines.push_back(cur);
  return lines;
}

struct FileText {
  std::string path;
  std::vector<std::string> raw;   // original lines (markers live here)
  std::vector<std::string> code;  // comment/string-stripped lines
};

const std::regex kUnorderedDecl(
    R"(std::unordered_(?:map|set|multimap|multiset)\s*<[^;{]*>\s+([A-Za-z_]\w*)\s*[;={(])");
const std::regex kRegisteredCodec(R"(register_codec\s*<\s*([A-Za-z_][\w:]*))");
const std::regex kPayloadSend(R"(Message\s*\(\s*([A-Z]\w*)\s*\{)");
const std::regex kBannedCall(
    R"((?:^|[^\w.])(rand|srand|time|clock)\s*\(|std::random_device)");
// Any chrono-style clock read: steady_clock::now, system_clock::now,
// high_resolution_clock::now, or a hand-rolled Clock::now. obs::now_ms is
// fine — `now` must be reached through `::`.
const std::regex kRawClock(R"((?:_clock|\bClock)\s*::\s*now\s*\()");
const std::regex kMutableStatic(
    R"((?:^|\s)static\s+(?!const\b|constexpr\b|_\w)[A-Za-z_][\w:<>,\s*&]*?\s[A-Za-z_]\w*\s*[;={])");
const std::regex kRawSend(R"(\bsend_unreliable\s*\()");
const std::regex kRawThread(R"(\bstd\s*::\s*(?:jthread|thread|async)\b)");
// Member wait call with a single bare-identifier argument — the lock-only
// condition_variable overload. A predicate wait has a second argument
// (`, [..] {...}`), so the comma keeps it from matching; wait_for/
// wait_until never match because `wait` must be followed by `(`.
const std::regex kNakedWait(R"(\.\s*wait\s*\(\s*[A-Za-z_]\w*\s*\))");
const std::regex kRawAtomic(R"(\bstd\s*::\s*atomic\w*)");
// Global-namespace-qualified POSIX descriptor calls only: `io::read_line`
// or `std::ios::in` must not match, so the `::` may not be preceded by an
// identifier character or another colon.
const std::regex kRawIo(
    R"((?:^|[^\w:])::\s*(socket|bind|listen|accept4?|connect|recv|recvfrom|send|sendto|read|write|poll|select|close)\s*\()");

/// The raw-send rule only applies to protocol sources (paths under
/// src/dist); the transport layer itself legitimately uses best-effort
/// sends. Separators are normalized so the check is OS-independent.
bool in_protocol_tree(const std::string& path) {
  std::string p = path;
  std::replace(p.begin(), p.end(), '\\', '/');
  return p.find("src/dist/") != std::string::npos ||
         p.find("src/dist") == 0;
}

/// The raw-thread rule exempts the pool implementation itself (paths under
/// src/par), which is the one place allowed to own std::thread objects.
bool in_par_tree(const std::string& path) {
  std::string p = path;
  std::replace(p.begin(), p.end(), '\\', '/');
  return p.find("src/par/") != std::string::npos || p.find("src/par") == 0;
}

/// The raw-metric rule covers the simulator and protocol trees; the metric
/// primitives themselves (src/metrics) and the pool's atomic helpers
/// (src/par) are the sanctioned owners of raw atomics.
bool in_congest_tree(const std::string& path) {
  std::string p = path;
  std::replace(p.begin(), p.end(), '\\', '/');
  return p.find("src/congest/") != std::string::npos ||
         p.find("src/congest") == 0;
}

bool in_metrics_tree(const std::string& path) {
  std::string p = path;
  std::replace(p.begin(), p.end(), '\\', '/');
  return p.find("src/metrics/") != std::string::npos ||
         p.find("src/metrics") == 0;
}

/// The raw-clock rule exempts the clock seam's own tree (src/obs owns
/// obs::Clock and the now_ms/now_us helpers) and src/metrics; everywhere
/// else must read time through the seam so tests can fake it.
bool in_clock_exempt(const std::string& path) {
  if (in_metrics_tree(path)) return true;
  std::string p = path;
  std::replace(p.begin(), p.end(), '\\', '/');
  return p.find("src/obs/") != std::string::npos || p.find("src/obs") == 0;
}

/// The raw-io rule exempts the serving I/O layer itself (src/serve/io.hpp
/// and src/serve/io.cpp), the one sanctioned owner of raw descriptors.
bool in_serve_io(const std::string& path) {
  std::string p = path;
  std::replace(p.begin(), p.end(), '\\', '/');
  const auto pos = p.find("src/serve/io");
  if (pos == std::string::npos) return false;
  // Match io.hpp / io.cpp / io_*.hpp, not e.g. src/serve/iovec_util.hpp
  // being smuggled past the rule by prefix: the next char must be '.' or
  // '_' or end the stem.
  const std::size_t next = pos + std::string("src/serve/io").size();
  return next >= p.size() || p[next] == '.' || p[next] == '_';
}

/// The naked-condvar-wait rule exempts the audited hand-rolled wait
/// loops: the pool internals (src/par) and the tier cache's single-flight
/// wait (src/bpt/universe_tier.cpp), whose enclosing while-loops re-check
/// the condition themselves.
bool in_condvar_exempt(const std::string& path) {
  if (in_par_tree(path)) return true;
  std::string p = path;
  std::replace(p.begin(), p.end(), '\\', '/');
  return p.find("src/bpt/universe_tier.cpp") != std::string::npos;
}

bool suppressed(const std::string& raw_line, const std::string& rule) {
  return raw_line.find("dmc-lint: allow(" + rule + ")") != std::string::npos;
}

void add_finding(std::vector<Finding>& out, const FileText& f, int line,
                 const std::string& rule, const std::string& message) {
  if (suppressed(f.raw[line], rule)) return;
  out.push_back(Finding{f.path, line + 1, rule, message});
}

void lint_file(const FileText& f, const std::set<std::string>& registered,
               std::vector<Finding>& out) {
  // Pass 1: names declared with unordered container types in this file.
  std::set<std::string> unordered_vars;
  for (const std::string& line : f.code) {
    for (std::sregex_iterator it(line.begin(), line.end(), kUnorderedDecl), end;
         it != end; ++it)
      unordered_vars.insert((*it)[1].str());
  }
  // Pass 2: per-line rules.
  for (int i = 0; i < static_cast<int>(f.code.size()); ++i) {
    const std::string& line = f.code[i];
    std::smatch m;

    for (const std::string& var : unordered_vars) {
      const std::regex iteration("(for\\s*\\([^;)]*:\\s*" + var +
                                 "\\b)|(\\b" + var + "\\s*\\.\\s*c?begin\\s*\\()");
      if (std::regex_search(line, m, iteration))
        add_finding(out, f, i, "unordered-iteration",
                    "iteration over unordered container '" + var +
                        "' — order is implementation-defined; use std::map/"
                        "std::set or sort first");
    }

    if (std::regex_search(line, m, kBannedCall)) {
      const std::string what =
          m[1].matched ? m[1].str() + "()" : "std::random_device";
      add_finding(out, f, i, "nondeterminism",
                  "call to '" + what +
                      "' — protocol code must be a deterministic function of "
                      "messages, ids, and explicit seeds");
    }

    if (!in_clock_exempt(f.path) && std::regex_search(line, m, kRawClock))
      add_finding(out, f, i, "raw-clock",
                  "raw '" + m[0].str() +
                      ")' outside src/obs — wall-clock reads off the seam "
                      "cannot be faked by obs::Clock in tests and make "
                      "timing fields nondeterministic; use obs::now_ms()/"
                      "now_us() (src/obs/clock.hpp)");

    if (std::regex_search(line, m, kMutableStatic))
      add_finding(out, f, i, "global-state",
                  "mutable static state — nodes may only share state through "
                  "messages; make it const/constexpr or pass it explicitly");

    if (in_protocol_tree(f.path) && std::regex_search(line, m, kRawSend))
      add_finding(out, f, i, "raw-send",
                  "best-effort send_unreliable() bypasses the reliable "
                  "transport — the message may be lost under fault "
                  "injection; use send(), or mark the loss-tolerant call "
                  "site with dmc-lint: allow(raw-send)");

    if ((in_protocol_tree(f.path) || in_congest_tree(f.path)) &&
        !in_par_tree(f.path) && !in_metrics_tree(f.path) &&
        std::regex_search(line, m, kRawAtomic))
      add_finding(out, f, i, "raw-metric",
                  "ad-hoc '" + m[0].str() +
                      "' in simulator/protocol code — atomic counters "
                      "outside dmc::metrics can never be reconciled against "
                      "NetworkStats or the obs trace; use "
                      "metrics::Counter/Gauge/Histogram "
                      "(src/metrics/metrics.hpp) or a plain serial counter, "
                      "or mark a deliberate low-level atomic with "
                      "dmc-lint: allow(raw-metric)");

    if (!in_serve_io(f.path) && std::regex_search(line, m, kRawIo))
      add_finding(out, f, i, "raw-io",
                  "raw '::" + m[1].str() +
                      "()' outside src/serve/io* — blocking descriptor I/O "
                      "in scheduler/protocol code is invisible to deadlines "
                      "and shutdown; go through serve::io "
                      "(src/serve/io.hpp), or move the code into the "
                      "sanctioned io layer");

    if (!in_condvar_exempt(f.path) && std::regex_search(line, m, kNakedWait))
      add_finding(out, f, i, "naked-condvar-wait",
                  "condition-variable wait without a predicate — spurious "
                  "wakeups and lost notifications slip through unless the "
                  "caller loops; use wait(lock, [&]{ return <condition>; }) "
                  "or mark an audited hand-rolled loop with "
                  "dmc-lint: allow(naked-condvar-wait)");

    if (!in_par_tree(f.path) && std::regex_search(line, m, kRawThread))
      add_finding(out, f, i, "raw-thread",
                  "raw '" + m[0].str() +
                      "' outside src/par — ad-hoc threads bypass the shared "
                      "pool's nesting guard, exception funnel, and "
                      "threads=1 serial path; use "
                      "par::parallel_for (src/par/pool.hpp)");

    for (std::sregex_iterator it(line.begin(), line.end(), kPayloadSend), end;
         it != end; ++it) {
      const std::string type = (*it)[1].str();
      if (type == "Message" || registered.count(type) != 0) continue;
      add_finding(out, f, i, "unregistered-payload",
                  "payload type '" + type +
                      "' has no register_codec<" + type +
                      "> in the scanned sources — it would fail the wire "
                      "audit (see src/congest/wire.hpp)");
    }
  }
}

bool lintable(const std::filesystem::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".cpp" || ext == ".cc" || ext == ".hpp" || ext == ".h";
}

int usage() {
  std::cerr << "usage: dmc-lint [--self-test] <file-or-dir>...\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  bool self_test = false;
  std::vector<std::filesystem::path> inputs;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--self-test")
      self_test = true;
    else if (!arg.empty() && arg[0] == '-')
      return usage();
    else
      inputs.emplace_back(arg);
  }
  if (inputs.empty()) return usage();

  std::vector<std::filesystem::path> files;
  for (const auto& input : inputs) {
    std::error_code ec;
    if (std::filesystem::is_directory(input, ec)) {
      for (const auto& entry :
           std::filesystem::recursive_directory_iterator(input))
        if (entry.is_regular_file() && lintable(entry.path()))
          files.push_back(entry.path());
    } else if (std::filesystem::is_regular_file(input, ec)) {
      files.push_back(input);
    } else {
      std::cerr << "dmc-lint: cannot read " << input << "\n";
      return 2;
    }
  }
  std::sort(files.begin(), files.end());

  std::vector<FileText> texts;
  std::set<std::string> registered;
  for (const auto& path : files) {
    std::ifstream in(path);
    std::stringstream buf;
    buf << in.rdbuf();
    FileText f;
    f.path = path.string();
    f.raw = split_lines(buf.str());
    f.code = split_lines(strip_comments_and_strings(buf.str()));
    for (const std::string& line : f.code) {
      for (std::sregex_iterator it(line.begin(), line.end(), kRegisteredCodec),
           end;
           it != end; ++it)
        registered.insert((*it)[1].str());
    }
    texts.push_back(std::move(f));
  }

  std::vector<Finding> findings;
  for (const FileText& f : texts) lint_file(f, registered, findings);
  std::sort(findings.begin(), findings.end());

  if (!self_test) {
    for (const Finding& f : findings)
      std::cout << f.file << ":" << f.line << ": " << f.rule << ": "
                << f.message << "\n";
    if (!findings.empty()) {
      std::cout << findings.size() << " finding(s)\n";
      return 1;
    }
    return 0;
  }

  // Self-test: findings must equal the "// lint-expect: <rule>" markers.
  std::set<std::string> expected, actual;
  const std::regex expect(R"(lint-expect:\s*([a-z-]+))");
  for (const FileText& f : texts)
    for (int i = 0; i < static_cast<int>(f.raw.size()); ++i) {
      std::smatch m;
      std::string line = f.raw[i];
      while (std::regex_search(line, m, expect)) {
        expected.insert(f.path + ":" + std::to_string(i + 1) + ":" +
                        m[1].str());
        line = m.suffix();
      }
    }
  for (const Finding& f : findings)
    actual.insert(f.file + ":" + std::to_string(f.line) + ":" + f.rule);

  bool ok = true;
  for (const std::string& e : expected)
    if (actual.count(e) == 0) {
      std::cout << "MISSED expected finding " << e << "\n";
      ok = false;
    }
  for (const std::string& a : actual)
    if (expected.count(a) == 0) {
      std::cout << "UNEXPECTED finding " << a << "\n";
      ok = false;
    }
  std::cout << "self-test: " << actual.size() << " findings, "
            << expected.size() << " expected — " << (ok ? "PASS" : "FAIL")
            << "\n";
  return ok ? 0 : 1;
}
