// Serving layer (src/serve): oracle equality and scheduler semantics.
//
// The load-bearing contract is *oracle equality*: a query answered by the
// daemon — any pipeline, cold or warm universe, batched with same-key
// neighbours or alone — must produce the byte-identical canonical result
// text (hence digest) as the equivalent one-shot run (run_one_shot, the
// exact cold-CLI path). Warmth and batching are allowed to change latency,
// never verdicts.
//
// Also pinned here: the issue's headline acceptance — a warm-key batch of
// 16 identical-(formula,width) queries performs exactly one universe
// construction — plus admission backpressure, queue-deadline expiry, and
// the protocol's malformed/exit-code mapping.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "dist/query.hpp"
#include "metrics/metrics.hpp"
#include "obs/spans.hpp"
#include "serve/client.hpp"
#include "serve/exec.hpp"
#include "serve/io.hpp"
#include "serve/protocol.hpp"
#include "serve/sched_core.hpp"
#include "serve/scheduler.hpp"
#include "serve/server.hpp"
#include "serve/span_store.hpp"

#include <sys/socket.h>

namespace dmc::serve {
namespace {

namespace fs = std::filesystem;

struct TempDir {
  fs::path path;
  TempDir() {
    // Per-test-case directory: ctest -j runs cases as separate processes,
    // so a shared path would be wiped out from under a concurrent case.
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    path = fs::temp_directory_path() /
           (std::string("dmc_serve_test_") + info->name());
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() { fs::remove_all(path); }
};

Query make_query(const std::string& id, const std::string& verb,
                 const std::string& formula, const std::string& family,
                 int dist = 4) {
  Query q;
  q.id = id;
  q.verb = verb;
  q.formula = formula;
  q.family = family;
  q.dist = dist;
  return q;
}

/// The four-pipeline probe set used by the oracle-equality cases.
std::vector<Query> probe_queries() {
  std::vector<Query> qs;
  qs.push_back(make_query("dec", "decide",
                          "exists vertex x, y. adj(x, y)", "path:6"));
  Query mx = make_query("max", "maximize", "!adj(S,S)", "path:6");
  mx.var = "S";
  mx.sort = "vset";
  qs.push_back(mx);
  Query mn = make_query("min", "minimize",
                        "forall vertex x. x in S | adj(x, S)", "cycle:6");
  mn.var = "S";
  mn.sort = "vset";
  qs.push_back(mn);
  Query ct = make_query("cnt", "count", "!adj(S,S)", "path:5");
  ct.vars = "S:vset";
  qs.push_back(ct);
  return qs;
}

/// Runs `qs` through a Scheduler (tier-shared engines) and returns the
/// responses keyed by query id.
std::map<std::string, JsonObject> run_scheduled(
    Scheduler& sched, const std::vector<Query>& qs) {
  std::mutex mu;
  std::condition_variable cv;
  std::map<std::string, JsonObject> out;
  for (const Query& q : qs) {
    std::string error;
    auto p = prepare(q, error);
    EXPECT_TRUE(p) << q.id << ": " << error;
    if (!p) continue;
    const bool ok = sched.submit(std::move(*p), [&, id = q.id](
                                                    const JsonObject& resp) {
      std::lock_guard<std::mutex> lock(mu);
      out[id] = resp;
      cv.notify_all();
    });
    EXPECT_TRUE(ok) << "admission rejected " << q.id;
  }
  sched.start();
  std::unique_lock<std::mutex> lock(mu);
  cv.wait(lock, [&] { return out.size() == qs.size(); });
  return out;
}

std::string text_of(const JsonObject& resp, const char* field) {
  const auto it = resp.find(field);
  return it == resp.end() ? std::string() : it->second.as_string();
}

TEST(ServeOracle, SoloAndBatchedColdAndWarmMatchOneShot) {
  const std::vector<Query> qs = probe_queries();
  std::map<std::string, QueryResult> oracle;
  for (const Query& q : qs) {
    oracle[q.id] = run_one_shot(q);
    ASSERT_EQ(oracle[q.id].code, 0) << q.id << ": " << oracle[q.id].result;
  }

  bpt::UniverseTier tier;  // shared across both passes: pass 2 is warm
  for (int pass = 0; pass < 2; ++pass) {
    // Two configurations per pass: one worker forces same-key grouping
    // (batched), four workers with distinct keys approximates solo runs.
    SchedulerOptions opts;
    opts.workers = pass == 0 ? 1 : 4;
    Scheduler sched(opts, tier);
    const auto out = run_scheduled(sched, qs);
    ASSERT_EQ(out.size(), qs.size());
    for (const Query& q : qs) {
      const JsonObject& resp = out.at(q.id);
      EXPECT_EQ(text_of(resp, "result"), oracle[q.id].result)
          << "pass " << pass << " verdict drift for " << q.id;
      EXPECT_EQ(text_of(resp, "digest"), oracle[q.id].digest)
          << "pass " << pass << " digest drift for " << q.id;
      EXPECT_EQ(text_of(resp, "status"), oracle[q.id].status);
      if (q.verb == "maximize" || q.verb == "minimize") {
        // The witness is certificate data, outside the canonical text: any
        // optimal solution is correct, and reconstruction tie-breaks on
        // engine class ids, which drift with warmth. It must be present
        // and must never leak into the digested verdict.
        EXPECT_EQ(text_of(resp, "witness").rfind("selected:", 0), 0u) << q.id;
        EXPECT_EQ(text_of(resp, "result").find("selected"),
                  std::string::npos) << q.id;
      }
    }
  }
  // Pass 2 reused pass 1's engines: no additional constructions. The
  // probe set has 3 distinct engine keys, not 4 — maximize and count both
  // lower `!adj(S,S)` with one vset slot, so they share one universe
  // (that cross-pipeline sharing is itself part of the contract).
  EXPECT_EQ(tier.stats().misses, 3);
  EXPECT_EQ(tier.stats().keys, 3u);
}

TEST(ServeOracle, WarmKeyBatchOf16ConstructsExactlyOneUniverse) {
  metrics::Registry registry;
  metrics::Registry* prev = metrics::set_global(&registry);
  {
    bpt::UniverseTier tier;  // fresh tier resolves counters against registry
    std::vector<Query> qs;
    std::map<std::string, QueryResult> oracle;
    for (int i = 0; i < 16; ++i) {
      Query q = make_query("q" + std::to_string(i), "decide",
                           "exists vertex x, y. adj(x, y)",
                           "path:" + std::to_string(5 + i % 4));
      oracle[q.id] = run_one_shot(q);
      qs.push_back(std::move(q));
    }
    SchedulerOptions opts;
    opts.workers = 4;  // even with parallel workers: one construction
    Scheduler sched(opts, tier);
    const auto out = run_scheduled(sched, qs);
    ASSERT_EQ(out.size(), 16u);
    int warm = 0;
    std::size_t max_batch = 0;
    for (const Query& q : qs) {
      const JsonObject& resp = out.at(q.id);
      EXPECT_EQ(text_of(resp, "digest"), oracle[q.id].digest) << q.id;
      warm += resp.find("warm")->second.as_bool() ? 1 : 0;
      max_batch = std::max(
          max_batch,
          static_cast<std::size_t>(resp.find("batch")->second.as_int()));
    }
    // One group, one lease, one construction: the batch shares a single
    // acquire, so the tier sees exactly one miss and zero extra traffic.
    EXPECT_EQ(warm, 15) << "all but the builder must run warm";
    EXPECT_EQ(max_batch, 16u) << "same-key queries must coalesce";
    const bpt::UniverseTier::Stats s = tier.stats();
    EXPECT_EQ(s.misses, 1) << "batch of 16 must construct exactly once";
    EXPECT_EQ(s.builds, 1);
    EXPECT_EQ(s.keys, 1u);
    // Same acceptance, read through the metrics counters the daemon
    // exports (bpt.universe_tier.* are the single-flight counters).
    EXPECT_EQ(registry.counter("bpt.universe_tier.builds").value(), 1);
    EXPECT_EQ(registry.counter("bpt.universe_tier.misses").value(), 1);
    EXPECT_EQ(registry.counter("serve.admission.accepted").value(), 16);
  }
  metrics::set_global(prev);
}

TEST(ServeScheduler, AdmissionBackpressureRejectsBeyondBound) {
  bpt::UniverseTier tier;
  // Declared before the scheduler: its workers may still be invoking
  // respond while the scheduler drains during destruction.
  std::atomic<int> answered{0};
  SchedulerOptions opts;
  opts.workers = 1;
  opts.max_queue = 2;
  Scheduler sched(opts, tier);  // not started: queue can only fill
  const Query q = probe_queries().front();
  auto respond = [&](const JsonObject&) { answered.fetch_add(1); };
  for (int i = 0; i < 2; ++i) {
    std::string error;
    auto p = prepare(q, error);
    ASSERT_TRUE(p);
    EXPECT_TRUE(sched.submit(std::move(*p), respond)) << i;
  }
  std::string error;
  auto p = prepare(q, error);
  ASSERT_TRUE(p);
  EXPECT_FALSE(sched.submit(std::move(*p), respond))
      << "third submit must bounce off max_queue=2";
  EXPECT_EQ(sched.queued(), 2u);
  sched.start();
  sched.stop();  // drain contract: both admitted queries are answered
  // Scheduler destructor joins the workers.
}

TEST(ServeScheduler, TwoKeyBurstOnTwoWorkersNeverWaitsInTier) {
  // Key affinity: while one worker runs a batch of key A, a burst that
  // interleaves A and B arrives. The idle worker must take B and leave A's
  // new group for later — never a second batch of A, which would park it
  // in the tier's exclusive lease. Every answer is the one-shot answer.
  metrics::Registry registry;
  metrics::Registry* prev = metrics::set_global(&registry);
  {
    std::vector<Query> qs;
    for (int i = 0; i < 16; ++i) {
      // A: a rank-3 decide slow enough (~0.1 s) to hold its worker while
      // the burst arrives. B: a fast count.
      Query q = i % 2 == 0
                    ? make_query("a" + std::to_string(i), "decide",
                                 "forall vertex x, y, z. "
                                 "!(adj(x,y) & adj(y,z) & adj(x,z))",
                                 "deeppath:500:4", 5)
                    : make_query("b" + std::to_string(i), "count",
                                 "!adj(S,S)",
                                 "path:" + std::to_string(5 + i % 3));
      if (q.verb == "count") q.vars = "S:vset";
      qs.push_back(std::move(q));
    }
    std::map<std::string, QueryResult> oracle;
    for (const Query& q : qs) {
      oracle[q.id] = run_one_shot(q);
      ASSERT_EQ(oracle[q.id].code, 0) << q.id << ": " << oracle[q.id].result;
    }

    std::mutex mu;
    std::condition_variable cv;
    std::map<std::string, JsonObject> out;
    bpt::UniverseTier tier;
    SchedulerOptions opts;
    opts.workers = 2;
    Scheduler sched(opts, tier);
    auto submit = [&](const Query& q) {
      std::string error;
      auto p = prepare(q, error);
      ASSERT_TRUE(p) << q.id << ": " << error;
      ASSERT_TRUE(sched.submit(std::move(*p), [&, id = q.id](
                                                  const JsonObject& resp) {
        std::lock_guard<std::mutex> lock(mu);
        out[id] = resp;
        cv.notify_all();
      }));
    };
    auto await = [&](std::size_t n) {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return out.size() == n; });
    };
    sched.start();
    // Warm-up: one query per key builds both engines.
    submit(qs[0]);
    submit(qs[1]);
    await(2);
    EXPECT_EQ(tier.stats().misses, 2);
    // A batch of four A queries, then the interleaved burst once a worker
    // has taken that batch (the queue is empty again).
    for (int i = 2; i < 10; i += 2) submit(qs[i]);
    while (sched.queued() != 0)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    for (int i = 3; i < 16; ++i)
      if (i % 2 == 1 || i >= 10) submit(qs[i]);
    await(qs.size());

    for (const Query& q : qs) {
      const JsonObject& resp = out.at(q.id);
      EXPECT_EQ(text_of(resp, "result"), oracle[q.id].result) << q.id;
      EXPECT_EQ(text_of(resp, "digest"), oracle[q.id].digest) << q.id;
      EXPECT_EQ(text_of(resp, "status"), oracle[q.id].status) << q.id;
    }
    const bpt::UniverseTier::Stats s = tier.stats();
    EXPECT_EQ(s.misses, 2) << "the burst must run on the warmed engines";
    EXPECT_EQ(s.waits, 0) << "a worker parked behind another lease";
    EXPECT_EQ(registry.counter("bpt.universe_tier.waits").value(), 0);
  }
  metrics::set_global(prev);
}

TEST(ServeSchedCore, PopSkipsARunningKeyUntilFinish) {
  core::GroupQueue<int> q(8);
  ASSERT_TRUE(q.push("a", 1));
  ASSERT_TRUE(q.push("b", 2));
  auto [k1, b1] = q.pop_group();
  EXPECT_EQ(k1, "a");
  EXPECT_EQ(b1, std::vector<int>{1});
  // "a" is running: its next arrival forms a new group that must wait,
  // even though it is the oldest group left once "b" is popped.
  ASSERT_TRUE(q.push("a", 3));
  EXPECT_TRUE(q.runnable());
  auto [k2, b2] = q.pop_group();
  EXPECT_EQ(k2, "b");
  EXPECT_FALSE(q.empty());
  EXPECT_FALSE(q.runnable()) << "the only group left belongs to running 'a'";
  q.finish("b");
  EXPECT_FALSE(q.runnable());
  q.finish("a");
  ASSERT_TRUE(q.runnable());
  auto [k3, b3] = q.pop_group();
  EXPECT_EQ(k3, "a");
  EXPECT_EQ(b3, std::vector<int>{3});
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(q.runnable());
}

TEST(ServeScheduler, QueueDeadlineExpiryAnswersWithoutRunning) {
  bpt::UniverseTier tier;
  SchedulerOptions opts;
  opts.workers = 1;
  Scheduler sched(opts, tier);  // submit before start: guaranteed queue wait
  Query q = probe_queries().front();
  q.deadline_ms = 1;
  std::string error;
  auto p = prepare(q, error);
  ASSERT_TRUE(p);
  std::mutex mu;
  std::condition_variable cv;
  JsonObject resp;
  bool got = false;
  ASSERT_TRUE(sched.submit(std::move(*p), [&](const JsonObject& r) {
    std::lock_guard<std::mutex> lock(mu);
    resp = r;
    got = true;
    cv.notify_all();
  }));
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  sched.start();
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return got; });
  }
  EXPECT_EQ(text_of(resp, "status"), "deadline");
  const auto code_it = resp.find("code");
  ASSERT_NE(code_it, resp.end());
  EXPECT_EQ(code_it->second.as_int(), kDeadlineExit);
  EXPECT_EQ(resp.find("rounds")->second.as_int(-1), 0) << "must not run";
}

TEST(ServeProtocol, MalformedRequestsAndExitCodeMapping) {
  EXPECT_EQ(parse_request("not json").kind, Request::Kind::kMalformed);
  EXPECT_EQ(parse_request("[1,2]").kind, Request::Kind::kMalformed);
  EXPECT_EQ(parse_request("{\"verb\":\"decide\"}").kind,
            Request::Kind::kMalformed);  // missing formula
  const Request both = parse_request(
      "{\"verb\":\"decide\",\"formula\":\"true\",\"family\":\"path:4\","
      "\"graph\":\"p 1 0\",\"dist\":2}");
  EXPECT_EQ(both.kind, Request::Kind::kMalformed)
      << "family and graph are mutually exclusive";
  const Request ping = parse_request("{\"verb\":\"ping\",\"id\":7}");
  EXPECT_EQ(ping.kind, Request::Kind::kPing);
  EXPECT_EQ(ping.id, "7");

  EXPECT_EQ(status_exit_code("ok"), 0);
  EXPECT_EQ(status_exit_code("fails"), 1);
  EXPECT_EQ(status_exit_code("infeasible"), 1);
  EXPECT_EQ(status_exit_code("treedepth"), 3);
  EXPECT_EQ(status_exit_code("error"), 4);
  EXPECT_EQ(status_exit_code("degraded"), 6);
  EXPECT_EQ(status_exit_code("deadline"), 6);
  EXPECT_EQ(status_exit_code("crashed"), 7);
  EXPECT_EQ(status_exit_code("overloaded"), 8);
  EXPECT_EQ(status_exit_code("malformed"), 2);

  // Round-trip: to_line output parses back to the same query.
  Query q = probe_queries()[1];
  q.deadline_ms = 250;
  const Request round = parse_request(to_line(q));
  ASSERT_EQ(round.kind, Request::Kind::kQuery);
  EXPECT_EQ(round.query.verb, q.verb);
  EXPECT_EQ(round.query.formula, q.formula);
  EXPECT_EQ(round.query.var, q.var);
  EXPECT_EQ(round.query.deadline_ms, 250);
}

// dmc and dmcd share one query grammar, dist::parse_query. Every case the
// library rejects the daemon answers malformed/2, over the wire and as a
// one-shot; every case it accepts answers with its pinned digest.
TEST(ServeGrammar, DaemonAgreesWithTheLibraryGrammar) {
  struct Case {
    const char* verb;
    const char* formula;
    const char* var;
    const char* sort;
    const char* vars;
    const char* digest;  // null: the grammar rejects the case
  };
  const char* in_s = "exists vertex x. x in S";
  const char* indep = "!adj(S,S)";
  const char* dom = "forall vertex x. x in S | adj(x, S)";
  const Case cases[] = {
      {"decide", "exists vertex x, y. adj(x, y)", "", "", "",
       "7477287ad37c50f1"},  // holds
      {"decide", "exists vertex x, y. adj(x, y)", "", "", "S:vset,S:vset",
       "7477287ad37c50f1"},  // decide takes no vars
      {"maximize", indep, "S", "vset", "", "1d6e6e508fca80cd"},  // optimum=2
      {"minimize", dom, "S", "vset", "", "1d6e6e508fca80cd"},    // optimum=2
      {"count", in_s, "", "", "S:vset", "6e93274300aad5c1"},     // count=15
      {"count", in_s, "", "", "S:vset,T:eset", "8ee4adda224bc88c"},  // 120
      {"maximize", indep, "", "vset", "", nullptr},     // no var
      {"minimize", dom, "S", "", "", nullptr},          // no sort
      {"maximize", indep, "S", "vertex", "", nullptr},  // bad sort
      {"count", in_s, "", "", "S:vset,", nullptr},      // trailing comma
      {"count", in_s, "", "", ":vset", nullptr},        // empty name
      {"count", in_s, "", "", "S:vset,:vset", nullptr},
      {"count", in_s, "", "", "S:vset,S:eset", nullptr},  // duplicate name
      {"count", in_s, "", "", "S:vset,S:vset", nullptr},
      {"count", in_s, "", "", "S", nullptr},  // missing colon
      {"count", in_s, "", "", "", nullptr},   // empty vars
      {"count", "exists vertex x. x in", "", "", "S:vset", nullptr},
      {"optimize", in_s, "S", "vset", "S:vset", nullptr},  // unknown verb
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(std::string(c.verb) + " var=" + c.var + " sort=" + c.sort +
                 " vars=" + c.vars);
    bool grammar_accepts = false;
    if (const auto kind = dist::kind_of(c.verb)) {
      try {
        dist::parse_query(*kind, c.formula, c.var, c.sort, c.vars);
        grammar_accepts = true;
      } catch (const std::invalid_argument&) {
      }
    }
    EXPECT_EQ(grammar_accepts, c.digest != nullptr);

    Query q = make_query("g", c.verb, c.formula, "path:4", 3);
    q.var = c.var;
    q.sort = c.sort;
    q.vars = c.vars;
    const Request wire = parse_request(to_line(q));
    std::string error;
    const bool daemon_accepts =
        wire.kind == Request::Kind::kQuery && prepare(wire.query, error);
    EXPECT_EQ(daemon_accepts, grammar_accepts) << error;
    const QueryResult r = run_one_shot(q);
    if (grammar_accepts) {
      EXPECT_EQ(r.code, 0) << r.result;
      EXPECT_EQ(r.digest, c.digest) << r.result;
    } else {
      EXPECT_EQ(r.status, "malformed") << r.result;
      EXPECT_EQ(r.code, kMalformedExit);
    }
  }
}

TEST(ServeServer, SocketEndToEndWithShutdownDrain) {
  TempDir tmp;
  const std::string sock = (tmp.path / "d.sock").string();
  ServerOptions opts;
  opts.socket_path = sock;
  opts.sched.workers = 2;
  Server server(opts);
  int rc = -1;
  std::thread daemon([&] { rc = server.run(); });

  // Wait for the socket to come up.
  std::unique_ptr<Client> client;
  for (int i = 0; i < 100 && !client; ++i) {
    try {
      client = std::make_unique<Client>(sock);
    } catch (const std::exception&) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }
  ASSERT_TRUE(client) << "daemon socket never appeared";

  const auto pong = client->ping();
  ASSERT_TRUE(pong);
  EXPECT_EQ((*pong)["status"].as_string(), "pong");

  const std::vector<Query> qs = probe_queries();
  const auto responses = client->pipeline(qs);
  ASSERT_EQ(responses.size(), qs.size());
  for (const Query& q : qs) {
    const QueryResult want = run_one_shot(q);
    const Json& resp = responses.at(q.id);
    EXPECT_EQ(resp["digest"].as_string(), want.digest) << q.id;
    EXPECT_EQ(resp["result"].as_string(), want.result) << q.id;
  }

  // Malformed over the wire: answered, connection stays usable.
  ASSERT_TRUE(client->send_line("{\"id\":\"bad\",\"verb\":\"decide\"}"));
  const auto bad = client->recv(5000);
  ASSERT_TRUE(bad);
  EXPECT_EQ((*bad)["status"].as_string(), "malformed");
  EXPECT_EQ((*bad)["code"].as_int(), 2);

  const auto metrics_resp = client->metrics();
  ASSERT_TRUE(metrics_resp);
  EXPECT_TRUE((*metrics_resp)["universe_tier"].is_object());

  const auto down = client->shutdown();
  ASSERT_TRUE(down);
  EXPECT_EQ((*down)["status"].as_string(), "shutting_down");
  daemon.join();
  EXPECT_EQ(rc, 0);
  EXPECT_FALSE(fs::exists(sock)) << "socket file must be unlinked";
}

TEST(ServeSpans, ResponseCarriesSpanBreakdown) {
  bpt::UniverseTier tier;
  SchedulerOptions opts;
  opts.workers = 1;
  Scheduler sched(opts, tier);
  std::vector<obs::SpanLog> logs;
  std::mutex logs_mu;
  sched.set_span_sink([&](obs::SpanLog&& log) {
    std::lock_guard<std::mutex> lock(logs_mu);
    logs.push_back(std::move(log));
  });
  const std::vector<Query> qs = {probe_queries().front()};
  const auto out = run_scheduled(sched, qs);
  const JsonObject& resp = out.at(qs[0].id);

  const auto spans_it = resp.find("spans");
  ASSERT_NE(spans_it, resp.end()) << "response must carry a spans object";
  const JsonObject& spans = spans_it->second.as_object();
  for (const char* key : {"queue_ms", "universe_ms", "exec_ms", "total_ms"})
    ASSERT_NE(spans.find(key), spans.end()) << key;
  // The root covers its children: total >= queue + universe + exec.
  EXPECT_GE(spans.find("total_ms")->second.as_int(),
            spans.find("exec_ms")->second.as_int());

  // The sink received the full log: root "query" with queue/exec children.
  std::lock_guard<std::mutex> lock(logs_mu);
  ASSERT_EQ(logs.size(), 1u);
  EXPECT_EQ(logs[0].query_id(), qs[0].id);
  ASSERT_NE(logs[0].find("query"), nullptr);
  ASSERT_NE(logs[0].find("exec"), nullptr);
  ASSERT_NE(logs[0].find("queue"), nullptr);
  // The cold batch head also times its universe construction.
  ASSERT_NE(logs[0].find("universe"), nullptr);
}

TEST(ServeSpans, SpanStoreEvictsOldestAndRefreshesReusedIds) {
  SpanStore store;
  for (int i = 0; i < 300; ++i)
    store.put(obs::SpanLog("q" + std::to_string(i)));
  EXPECT_EQ(store.size(), SpanStore::kDefaultCapacity);
  EXPECT_FALSE(store.find_json("q0").has_value()) << "oldest must be evicted";
  EXPECT_TRUE(store.find_json("q299").has_value());
  EXPECT_FALSE(store.find_json("unknown").has_value());

  // Re-using an id replaces the stored log and refreshes its FIFO slot.
  obs::SpanLog replay("q44");
  obs::set_now_ms_for_test(5);
  const int s = replay.open("exec");
  obs::set_now_ms_for_test(15);
  replay.close(s);
  obs::set_now_ms_for_test(-1);
  store.put(std::move(replay));
  EXPECT_EQ(store.size(), SpanStore::kDefaultCapacity) << "replace, not grow";
  const auto json = store.find_json("q44");
  ASSERT_TRUE(json.has_value());
  EXPECT_NE(json->find("\"name\":\"exec\""), std::string::npos) << *json;

  // Empty ids are dropped, not stored.
  store.put(obs::SpanLog());
  EXPECT_EQ(store.size(), SpanStore::kDefaultCapacity);
}

TEST(ServeFlight, DegradedQueryLeavesFlightDumpInFlightDir) {
  TempDir tmp;
  bpt::UniverseTier tier;
  SchedulerOptions opts;
  opts.workers = 1;
  opts.flight_dir = tmp.path.string();
  Scheduler sched(opts, tier);
  // A one-round budget forces the round-limit degradation (code 6), the
  // path that captures the network's flight ring into the result.
  Query q = probe_queries().front();
  q.id = "degraded/one";  // sanitizer must map this to a safe file name
  q.max_rounds = 1;
  const auto out = run_scheduled(sched, {q});
  const JsonObject& resp = out.at(q.id);
  EXPECT_EQ(text_of(resp, "status"), "degraded");
  EXPECT_EQ(resp.find("code")->second.as_int(), 6);

  const fs::path dump = tmp.path / "flight-degraded_one.jsonl";
  ASSERT_TRUE(fs::exists(dump)) << "degraded query must leave a flight dump";
  std::ifstream in(dump);
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_NE(buf.str().find("\"type\":\"flight_header\""), std::string::npos);
  EXPECT_NE(buf.str().find("\"type\":\"run_begin\""), std::string::npos);

  // The query ran without a trace sink, yet the ring holds its phases:
  // every phase_begin is closed by a phase_end of the same name at the
  // same depth, in LIFO order.
  auto field = [](const std::string& line, const std::string& key) {
    const std::size_t at = line.find("\"" + key + "\":");
    if (at == std::string::npos) return std::string();
    const std::size_t from = at + key.size() + 3;
    return line.substr(from, line.find_first_of(",}", from) - from);
  };
  std::vector<std::pair<std::string, std::string>> open;  // (name, depth)
  int begins = 0;
  std::istringstream lines(buf.str());
  for (std::string line; std::getline(lines, line);) {
    const std::string type = field(line, "type");
    const std::pair<std::string, std::string> span{field(line, "name"),
                                                   field(line, "depth")};
    if (type == "\"phase_begin\"") {
      EXPECT_EQ(span.second, std::to_string(open.size())) << line;
      open.push_back(span);
      ++begins;
    } else if (type == "\"phase_end\"") {
      ASSERT_FALSE(open.empty()) << "unmatched " << line;
      EXPECT_EQ(open.back(), span) << line;
      open.pop_back();
    }
  }
  EXPECT_GT(begins, 0) << "the dump must hold the query's phases";
  EXPECT_TRUE(open.empty()) << open.size() << " phase(s) never ended";

  // Healthy queries must not leave dumps.
  const auto ok_out = run_scheduled(sched, {probe_queries().front()});
  EXPECT_EQ(text_of(ok_out.at("dec"), "status"), "ok");
  std::size_t dumps = 0;
  for (const auto& entry : fs::directory_iterator(tmp.path)) {
    (void)entry;
    ++dumps;
  }
  EXPECT_EQ(dumps, 1u) << "only the degraded query may dump";
}

TEST(ServeServer, TraceVerbReturnsSpanTimeline) {
  TempDir tmp;
  const std::string sock = (tmp.path / "d.sock").string();
  ServerOptions opts;
  opts.socket_path = sock;
  opts.sched.workers = 1;
  Server server(opts);
  int rc = -1;
  std::thread daemon([&] { rc = server.run(); });
  std::unique_ptr<Client> client;
  for (int i = 0; i < 100 && !client; ++i) {
    try {
      client = std::make_unique<Client>(sock);
    } catch (const std::exception&) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }
  ASSERT_TRUE(client) << "daemon socket never appeared";

  const Query q = probe_queries().front();
  const auto responses = client->pipeline({q});
  ASSERT_EQ(responses.size(), 1u);

  // trace <id> of an answered query returns its retained span timeline.
  const auto trace = client->trace(q.id);
  ASSERT_TRUE(trace);
  EXPECT_EQ((*trace)["status"].as_string(), "ok");
  ASSERT_TRUE((*trace)["trace"].is_object());
  const Json& body = (*trace)["trace"];
  EXPECT_EQ(body["id"].as_string(), q.id);
  ASSERT_TRUE(body["spans"].is_array());
  EXPECT_GT(body["spans"].as_array().size(), 0u);

  // Unknown ids map to not_found / exit 1; malformed trace to code 2.
  const auto missing = client->trace("never-submitted");
  ASSERT_TRUE(missing);
  EXPECT_EQ((*missing)["status"].as_string(), "not_found");
  EXPECT_EQ((*missing)["code"].as_int(), 1);
  ASSERT_TRUE(client->send_line("{\"id\":\"t\",\"verb\":\"trace\"}"));
  const auto bad = client->recv(5000);
  ASSERT_TRUE(bad);
  EXPECT_EQ((*bad)["status"].as_string(), "malformed");

  const auto down = client->shutdown();
  ASSERT_TRUE(down);
  daemon.join();
  EXPECT_EQ(rc, 0);
}

// --- line framing ---------------------------------------------------------------

/// A connected unix-socket pair: `reader` is the daemon side of the
/// connection, `writer_fd` the raw client descriptor.
struct SocketPair {
  TempDir tmp;
  io::ListenSocket listener{(tmp.path / "io.sock").string()};
  io::Socket client = io::connect_unix(listener.path());
  io::Connection reader{std::move(*listener.accept(5000))};
  int writer_fd() const { return client.fd(); }
};

/// Writes `data` in `chunk`-byte sends from a separate thread (the reader
/// drains concurrently, so the socket buffer never has to hold it all).
std::thread write_in_chunks(int fd, std::string data, std::size_t chunk) {
  return std::thread([fd, data = std::move(data), chunk] {
    for (std::size_t off = 0; off < data.size(); off += chunk) {
      const std::size_t len = std::min(chunk, data.size() - off);
      std::size_t sent = 0;
      while (sent < len) {
        const ssize_t n = ::send(fd, data.data() + off + sent, len - sent,
                                 MSG_NOSIGNAL);
        if (n <= 0) return;
        sent += static_cast<std::size_t>(n);
      }
    }
  });
}

TEST(ServeIo, MegabyteLineInFourKilobyteWrites) {
  SocketPair pair;
  std::string line(1 << 20, 'x');
  for (std::size_t i = 0; i < line.size(); i += 997)
    line[i] = static_cast<char>('a' + i % 26);
  std::thread writer =
      write_in_chunks(pair.writer_fd(), line + "\r\nnext\n", 4096);
  std::string got;
  EXPECT_EQ(pair.reader.read_line(got, 10000),
            io::Connection::ReadStatus::kLine);
  EXPECT_EQ(got, line);
  EXPECT_EQ(pair.reader.read_line(got, 10000),
            io::Connection::ReadStatus::kLine);
  EXPECT_EQ(got, "next");
  writer.join();
}

TEST(ServeIo, TenThousandPipelinedLinesArriveInOrder) {
  SocketPair pair;
  constexpr int kLines = 10000;
  std::string batch;
  for (int i = 0; i < kLines; ++i)
    batch += "{\"id\":\"q" + std::to_string(i) + "\"}\n";
  std::thread writer = write_in_chunks(pair.writer_fd(), batch, 4096);
  std::string got;
  for (int i = 0; i < kLines; ++i) {
    ASSERT_EQ(pair.reader.read_line(got, 10000),
              io::Connection::ReadStatus::kLine)
        << "line " << i;
    ASSERT_EQ(got, "{\"id\":\"q" + std::to_string(i) + "\"}");
  }
  writer.join();
  pair.client.close();
  EXPECT_EQ(pair.reader.read_line(got, 10000),
            io::Connection::ReadStatus::kClosed);
}

}  // namespace
}  // namespace dmc::serve
