// Workload serve-mix: a real in-process serve::Server on a unix socket,
// driven in a closed loop by 2 client connections that each keep 4
// requests in flight, over a fixed count of queries drawn from a seeded
// pool of 20 distinct queries (all four verbs, five engine keys, btd and
// spider families and inline DIMACS graphs of 230-570 vertices).
//
// Why: the 8 requests in flight keep the scheduler's queue non-empty, so
// admission, same-key batching and UniverseTier leases are exercised; the
// work is the table folds of the four pipelines, not message volume. An
// open loop is left out: near saturation it amplifies machine noise past
// any useful bound.
//
// Set-up runs every distinct query once, so the timed phase finds every
// universe complete: each timed query is a warm one, and no query interns
// new classes, which keeps message sizes (and hence `bits`) exact.
#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <map>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>

#include "common.hpp"
#include "congest/network.hpp"
#include "dist/counting.hpp"
#include "dist/decision.hpp"
#include "dist/optimization.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "metrics/metrics.hpp"
#include "serve/client.hpp"
#include "serve/exec.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"

namespace perfbench {
namespace {

using namespace dmc;
namespace fs = std::filesystem;

constexpr int kClients = 2;
constexpr int kInFlight = 4;  // per client connection
constexpr int kRecvTimeoutMs = 120000;

/// The five engine keys: verb, formula, and free-variable slots.
struct KeySpec {
  const char* verb;
  const char* formula;
  const char* var;   // maximize / minimize
  const char* vars;  // count
};
constexpr KeySpec kKeys[] = {
    {"decide", "!exists vertex x, y, z. adj(x,y) & adj(y,z) & adj(x,z)", "",
     ""},
    {"decide", "forall vset X. empty(X) | full(X) | border(X)", "", ""},
    {"maximize", "!adj(S,S)", "S", ""},
    {"minimize", "forall vertex x. x in S | adj(x, S)", "S", ""},
    // Ordered adjacent pairs (2|E|): fits 64 bits at any size, where
    // counting independent sets would overflow (and correctly exit 4).
    {"count", "sing(X) & sing(Y) & adj(X,Y)", "", "X:vset,Y:vset"},
};

/// Seeded pool of distinct queries: per engine key, one query on each of
/// four graph sizes (a fixed ladder, jittered by the seed): an inline
/// DIMACS random bounded-treedepth graph, a spider and two btd families.
/// Every key sees every size and kind once, so the pool's total work
/// barely moves with the seed.
std::vector<serve::Query> make_pool(std::mt19937_64& rng, bool smoke,
                                    std::vector<double>& graph_ms,
                                    std::vector<double>& bytes_per_vertex) {
  const std::vector<int> ladder = smoke ? std::vector<int>{30, 40, 50, 60}
                                        : std::vector<int>{250, 350, 450, 550};
  const int jitter = smoke ? 5 : 20;
  const char* const kinds[] = {"dimacs", "spider", "btd", "btd"};
  std::vector<serve::Query> pool;
  for (const KeySpec& k : kKeys) {
    for (std::size_t j = 0; j < ladder.size(); ++j) {
      serve::Query q;
      q.id = "p" + std::to_string(pool.size());
      q.verb = k.verb;
      q.formula = k.formula;
      q.dist = 4;
      if (*k.var != '\0') {
        q.var = k.var;
        q.sort = "vset";
      }
      q.vars = k.vars;
      const int n = ladder[j] + static_cast<int>(rng() % (2 * jitter + 1)) -
                    jitter;
      const std::string kind = kinds[j];
      const auto t0 = SteadyClock::now();
      Graph g;
      if (kind == "dimacs") {
        gen::Rng grng(rng());
        g = gen::random_bounded_treedepth(n, 4, 0.2, grng);
        q.graph_dimacs = io::to_dimacs(g);
      } else {
        q.family = kind == "spider"
                       ? "spider:4:" + std::to_string(n / 7)
                       : "btd:" + std::to_string(n) + ":4";
        g = gen::family(q.family);
      }
      graph_ms.push_back(ms_since(t0));
      bytes_per_vertex.push_back(static_cast<double>(g.memory_bytes()) /
                                 g.num_vertices());
      pool.push_back(std::move(q));
    }
  }
  return pool;
}

/// A server with its own fresh universe directory, run on its own thread.
class ServerRun {
 public:
  ServerRun(const std::string& socket, const fs::path& universe_dir)
      : universe_dir_(universe_dir) {
    fs::remove_all(universe_dir_);
    fs::create_directories(universe_dir_);
    serve::ServerOptions opts;
    opts.socket_path = socket;
    opts.universe_dir = universe_dir_.string();
    opts.sched.workers = 2;
    server_ = std::make_unique<serve::Server>(opts);
    thread_ = std::thread([this] { server_->run(); });
    // Ready once a client can connect.
    for (int attempt = 0;; ++attempt) {
      try {
        serve::Client probe(socket);
        return;
      } catch (const std::exception&) {
        if (attempt >= 500) {
          stop();
          throw std::runtime_error("server did not start on " + socket);
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
    }
  }
  ~ServerRun() { stop(); }
  ServerRun(const ServerRun&) = delete;
  ServerRun& operator=(const ServerRun&) = delete;

  void stop() {
    if (thread_.joinable()) {
      server_->stop();
      thread_.join();
    }
    std::error_code ec;
    fs::remove_all(universe_dir_, ec);
  }

 private:
  fs::path universe_dir_;
  std::unique_ptr<serve::Server> server_;
  std::thread thread_;
};

struct Answer {
  int pool_index = -1;
  double latency_ms = 0;
  std::optional<serve::Json> response;
};

/// Closed loop on one connection: keep kInFlight requests outstanding
/// until every query in `mine` (indices into `answers`) is answered.
void client_loop(const std::string& socket,
                 const std::vector<serve::Query>& pool,
                 const std::vector<int>& mine, std::vector<Answer>& answers) {
  serve::Client client(socket);
  std::map<std::string, std::pair<int, SteadyClock::time_point>> in_flight;
  std::size_t next = 0;
  const auto send_next = [&] {
    const int k = mine[next++];
    serve::Query q = pool[answers[k].pool_index];
    q.id = "q" + std::to_string(k);
    in_flight[q.id] = {k, SteadyClock::now()};
    if (!client.send_line(serve::to_line(q)))
      throw std::runtime_error("send failed");
  };
  while (next < mine.size() && in_flight.size() < kInFlight) send_next();
  while (!in_flight.empty()) {
    std::optional<serve::Json> resp = client.recv(kRecvTimeoutMs);
    if (!resp) return;  // unanswered queries stay without a response
    const auto it = in_flight.find((*resp)["id"].as_string());
    if (it == in_flight.end()) continue;
    Answer& a = answers[it->second.first];
    a.latency_ms = ms_since(it->second.second);
    a.response = std::move(resp);
    in_flight.erase(it);
    if (next < mine.size()) send_next();
  }
}

/// Runs every query once through one connection (set-up warm-up).
std::vector<serve::Json> warm_up(const std::string& socket,
                                 const std::vector<serve::Query>& pool) {
  serve::Client client(socket);
  std::vector<serve::Json> out;
  for (const serve::Query& q : pool) {
    auto resp = client.query(q, kRecvTimeoutMs);
    if (!resp) throw std::runtime_error("warm-up query unanswered: " + q.id);
    out.push_back(std::move(*resp));
  }
  return out;
}

/// Per-layer probe of one prepared query: the calls execute() makes,
/// split so that each layer gets its own span.
void probe(Tracer& tracer, const serve::Prepared& p, bpt::Engine& engine,
           int op, Layers& layers) {
  Tracer::Scope span(tracer, "query", op);
  congest::NetworkConfig cfg;
  cfg.threads = 1;
  std::optional<congest::Network> net;
  {
    Tracer::Scope s(tracer, "congest.net_build");
    net.emplace(p.graph, cfg);
  }
  const Prologue pro =
      run_prologue(tracer, *net, p.q.dist, engine.config().vertex_labels,
                   engine.config().edge_labels, layers);
  Tracer::Scope s(tracer, "dist.solve");
  const auto& [tree, bags] = pro;
  if (p.q.verb == "decide")
    dist::run_decision_solve(*net, p.formula, tree, bags.bags, &engine);
  else if (p.q.verb == "maximize")
    dist::run_maximize_solve(*net, p.formula, p.frees[0].first,
                             p.frees[0].second, tree, bags.bags, &engine);
  else if (p.q.verb == "minimize")
    dist::run_minimize_solve(*net, p.formula, p.frees[0].first,
                             p.frees[0].second, tree, bags.bags, &engine);
  else
    dist::run_count_solve(*net, p.formula, p.frees, tree, bags.bags, &engine);
}

}  // namespace

RunResult run_serve_mix(const RunArgs& args) {
  std::mt19937_64 rng = workload_rng(args.seed, args.workload);
  RunResult r;
  std::vector<double> graph_ms, bytes_per_vertex;
  const std::vector<serve::Query> pool =
      make_pool(rng, args.smoke, graph_ms, bytes_per_vertex);
  // Each pool query the same number of times, in a seeded order.
  const int repeats = args.smoke ? 1 : args.seconds;
  std::vector<Answer> answers;
  for (int rep = 0; rep < repeats; ++rep)
    for (std::size_t i = 0; i < pool.size(); ++i)
      answers.push_back(Answer{static_cast<int>(i), 0, std::nullopt});
  std::shuffle(answers.begin(), answers.end(), rng);
  const int queries = static_cast<int>(answers.size());

  const std::string base =
      (fs::path(args.work_dir) / ("serve-" + std::to_string(getpid())))
          .string();
  const std::string socket = base + ".sock";
  if (socket.size() >= 100)
    throw std::runtime_error("socket path too long: " + socket);

  // The daemon always runs with a metrics registry installed (dmcd does),
  // so the untraced run keeps it too; it is the source of rounds,
  // messages and bits for the served queries.
  metrics::Registry registry;
  const GlobalMetrics installed(registry);

  std::vector<double> setup_s, universe_build_ms;
  std::optional<ServerRun> server;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    // Hand the previous repetition's memory back first, so that repeated
    // set-ups do not pile up in peak_rss_mb.
    server.reset();
    malloc_trim(0);
    const auto t0 = SteadyClock::now();
    server.emplace(socket, base + "-universe");
    const std::vector<serve::Json> warm = warm_up(socket, pool);
    setup_s.push_back(ms_since(t0) / 1000.0);
    for (const serve::Json& w : warm)
      if (!w["warm"].as_bool())
        universe_build_ms.push_back(w["spans"]["universe_ms"].as_number());
  }

  auto counter = [&](const char* name) {
    return registry.counter(name).value();
  };
  const long long rounds0 = counter("congest.rounds");
  const long long messages0 = counter("congest.messages");
  const long long bits0 = counter("congest.bits");
  const long long batches0 = counter("serve.batches");
  const long long batched0 = registry.histogram("serve.batch.size").sum();
  const BptSnapshot bpt0 = BptSnapshot::take(registry);

  Reference reference;
  std::vector<double> reference_ms;
  const auto t_run = SteadyClock::now();
  {
    std::vector<std::vector<int>> per_client(kClients);
    for (int k = 0; k < queries; ++k) per_client[k % kClients].push_back(k);
    std::vector<std::thread> clients;
    std::atomic<int> done{0};
    std::mutex err_mu;
    std::vector<std::string> errors;
    for (int c = 0; c < kClients; ++c)
      clients.emplace_back([&, c] {
        try {
          client_loop(socket, pool, per_client[c], answers);
        } catch (const std::exception& e) {
          std::lock_guard<std::mutex> lk(err_mu);
          errors.push_back(e.what());
        }
        ++done;
      });
    // Meanwhile this thread samples the reference, so that latencies are
    // compared with the machine's speed over the same window.
    while (done.load() < kClients) {
      reference_ms.push_back(reference.sample_ms());
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
    for (std::thread& t : clients) t.join();
    for (const std::string& e : errors) r.notes.push_back("client: " + e);
  }
  const double timed_s = ms_since(t_run) / 1000.0;
  server->stop();
  const BptSnapshot bpt1 = BptSnapshot::take(registry);

  Counts counts;
  counts.rounds = counter("congest.rounds") - rounds0;
  counts.messages = counter("congest.messages") - messages0;
  counts.bits = counter("congest.bits") - bits0;
  // One message per directed link per round, so the largest per-link
  // round load is the largest message (warm-up included: same queries).
  counts.max_msg_bits = registry.histogram("congest.link.round_bits").max();

  // Answer check, untimed: every response must carry the digest of the
  // cold one-shot run of its query (the dmc CLI's answer).
  std::vector<std::string> oracle(pool.size());
  for (std::size_t i = 0; i < pool.size(); ++i) {
    const serve::QueryResult o = serve::run_one_shot(pool[i]);
    if (o.code != 0 && o.code != 1)
      r.notes.push_back("oracle " + pool[i].id + ": " + o.result);
    oracle[i] = o.digest;
  }
  std::vector<double> lat, queue_ms, exec_ms, universe_ms;
  std::map<std::string, std::vector<double>> exec_by_verb;
  long warm = 0;
  for (int k = 0; k < queries; ++k) {
    const Answer& a = answers[k];
    ++r.attempted;
    if (!a.response) {
      r.fail("q" + std::to_string(k) + ": no response");
      continue;
    }
    const serve::Json& resp = *a.response;
    lat.push_back(a.latency_ms);
    const long long code = resp["code"].as_int(-1);
    ++r.checked;
    if (code != 0 && code != 1)
      r.fail("q" + std::to_string(k) + ": " + resp["status"].as_string() +
             " " + resp["result"].as_string());
    else if (resp["digest"].as_string() != oracle[a.pool_index])
      r.fail("q" + std::to_string(k) + ": digest differs from one-shot");
    warm += resp["warm"].as_bool() ? 1 : 0;
    queue_ms.push_back(resp["spans"]["queue_ms"].as_number());
    exec_ms.push_back(resp["spans"]["exec_ms"].as_number());
    exec_by_verb[resp["verb"].as_string()].push_back(exec_ms.back());
    universe_ms.push_back(resp["spans"]["universe_ms"].as_number());
  }

  if (!args.trace) {
    std::vector<double> relative;
    const double ref = median(reference_ms);
    for (const double ms : lat) relative.push_back(ms / ref);
    add_end_to_end(r, Timing{setup_s, lat, relative, timed_s}, counts);
    return r;
  }

  // Traced run: the served phase above plus a layer probe of every pool
  // query (parse + prepare, then the calls execute() makes), twice; the
  // second pass runs on warm engines as the timed phase did and is the
  // one reported.
  Tracer tracer;
  std::map<std::string, bpt::Engine> engines;
  Layers layers;
  for (int pass = 0; pass < 2; ++pass) {
    tracer = Tracer();
    layers = Layers();
    for (std::size_t i = 0; i < pool.size(); ++i) {
      std::optional<serve::Prepared> p;
      {
        Tracer::Scope s(tracer, "serve.parse_prepare", static_cast<int>(i));
        const serve::Request req = serve::parse_request(serve::to_line(pool[i]));
        std::string error;
        p = serve::prepare(req.query, error);
        if (!p) throw std::runtime_error("prepare " + pool[i].id + ": " + error);
      }
      const std::string key = p->formula_text + "|" + p->q.vars + p->q.var;
      auto it = engines.find(key);
      if (it == engines.end()) it = engines.try_emplace(key, p->cfg).first;
      probe(tracer, *p, it->second, static_cast<int>(i), layers);
    }
  }
  layers.graph_build_ms = graph_ms;
  layers.bytes_per_vertex = bytes_per_vertex;
  layers.net_build_ms = tracer.self_ms("congest.net_build");
  layers.solve_ms = tracer.self_ms("dist.solve");
  add_layers(r, layers);
  add_bpt_layer(r, bpt0, bpt1);
  r.extra("bpt.universe_build_ms", median(universe_build_ms), "ms");
  r.extra("serve.parse_prepare_ms",
          median(tracer.self_ms("serve.parse_prepare")), "ms");
  r.extra("serve.queue_wait_ms_p50", median(queue_ms), "ms");
  r.extra("serve.exec_ms_p50", median(exec_ms), "ms");
  r.extra("serve.universe_ms_p50", median(universe_ms), "ms");
  for (const auto& [verb, ms] : exec_by_verb)
    r.extra("serve.exec_ms_p50." + verb, median(ms), "ms");
  r.extra("serve.warm_share",
          lat.empty() ? 0 : static_cast<double>(warm) / lat.size(), "ratio");
  const long long batches = counter("serve.batches") - batches0;
  r.extra("serve.batch_size_mean",
          batches > 0 ? static_cast<double>(
                            registry.histogram("serve.batch.size").sum() -
                            batched0) /
                            batches
                      : 0,
          "count");
  r.extra("query.self_ms", median(tracer.self_ms("query")), "ms");
  r.extra("traced.latency_p50_ms", median(lat), "ms");
  r.spans_jsonl = tracer.to_jsonl();
  return r;
}

}  // namespace perfbench
