// serve-mix: kConnections closed-loop connections against one freshly
// spawned `dsf serve --threads kServerThreads`, each running its seeded
// script of cold solves, hot-set repeats and revise chains.
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdlib>
#include <exception>
#include <functional>
#include <latch>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "cli/json.hpp"
#include "common/random.hpp"
#include "graph/properties.hpp"
#include "inputs.hpp"
#include "pipeline.hpp"
#include "serve/admission.hpp"
#include "serve/cache.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "solve/incremental.hpp"
#include "solve/solver_spec.hpp"
#include "workload/spec.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

// Cold ops of the first kExactBlocks blocks of every script make the fixed
// set cost_over_dual is computed on.
constexpr long kExactBlocks = 32;
constexpr int kSetupSpawns = 41;
constexpr int kCheckThreads = 4;

// A `dsf serve` child process on an ephemeral port. Stopping sends SIGTERM
// (the server drains) and reaps the child.
class ServerProcess {
 public:
  explicit ServerProcess(const std::string& dsf_binary) {
    int pipe_fds[2];
    if (::pipe2(pipe_fds, O_CLOEXEC) != 0) throw std::runtime_error("pipe2 failed");
    const std::string threads = std::to_string(kServerThreads);
    std::vector<std::string> args = {dsf_binary, "serve", "--host", "127.0.0.1",
                                     "--port", "0", "--threads", threads};
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    const pid_t parent = ::getpid();
    pid_ = ::fork();
    if (pid_ == 0) {
      // The server dies with this process, so a crashed run leaves no
      // process behind.
      ::prctl(PR_SET_PDEATHSIG, SIGTERM);
      if (::getppid() != parent) ::_exit(127);
      ::dup2(pipe_fds[1], STDOUT_FILENO);
      ::execv(argv[0], argv.data());
      ::_exit(127);
    }
    ::close(pipe_fds[1]);
    out_fd_ = pipe_fds[0];
    if (pid_ < 0) {
      ::close(out_fd_);
      out_fd_ = -1;
      throw std::runtime_error("cannot fork for " + dsf_binary);
    }
    // The server prints one {"listening":...} line once it accepts.
    std::string line;
    char c = 0;
    while (line.size() < 4096) {
      pollfd pfd{out_fd_, POLLIN, 0};
      if (::poll(&pfd, 1, 30'000) <= 0 || ::read(out_fd_, &c, 1) != 1) break;
      if (c == '\n') break;
      line.push_back(c);
    }
    try {
      port_ = static_cast<int>(dsf::ParseJson(line).GetNumber("port", 0));
    } catch (const std::exception&) {
      port_ = 0;
    }
    if (port_ <= 0) {
      Stop();
      throw std::runtime_error("dsf serve did not report a port: '" + line + "'");
    }
  }
  ~ServerProcess() { Stop(); }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  [[nodiscard]] int Port() const noexcept { return port_; }
  [[nodiscard]] double PeakRss() const { return PeakRssMb(pid_); }

  void Stop() {
    if (pid_ > 0) {
      ::kill(pid_, SIGTERM);
      int status = 0;
      while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
      }
      pid_ = -1;
    }
    if (out_fd_ >= 0) {
      ::close(out_fd_);
      out_fd_ = -1;
    }
  }

 private:
  pid_t pid_ = -1;
  int out_fd_ = -1;
  int port_ = 0;
};

dsf::ConnectionLimits Limits() {
  dsf::ConnectionLimits limits;
  limits.connect_timeout_ms = 10'000;
  limits.send_timeout_ms = 60'000;
  limits.recv_timeout_ms = 120'000;
  return limits;
}

// Spawn to first ping answered.
std::unique_ptr<ServerProcess> SpawnAndPing(const std::string& dsf_binary,
                                            double* seconds) {
  const auto t0 = Clock::now();
  auto server = std::make_unique<ServerProcess>(dsf_binary);
  dsf::ClientConnection conn("127.0.0.1", server->Port(), Limits());
  const dsf::JsonValue pong = conn.RoundTrip(R"({"op":"ping"})");
  if (!pong.GetBool("pong", false)) throw std::runtime_error("ping not answered");
  *seconds = MsSince(t0) / 1000.0;
  return server;
}

struct Record {
  int conn = 0;
  long index = 0;
  ServeOp::Kind kind = ServeOp::Kind::kCold;
  double rt_ms = 0.0;
  double done_ms = 0.0;  // completion, since the loop started
  bool in_window = false;
  std::string error;  // non-empty: the op failed
  long hits = 0;
  long misses = 0;
  bool warm = false;
  double server_wall_ms = 0.0;  // handler time reported by the server
  double unit_wall_ms = 0.0;    // core + prune time of the unit
  std::string key;
  std::vector<dsf::EdgeId> edges;
  dsf::Weight weight = 0;
  bool feasible = false;
};

long long RawInt(const dsf::JsonValue* v) {
  if (v == nullptr || !v->IsNumber()) throw std::runtime_error("missing integer field");
  return std::strtoll(v->string.c_str(), nullptr, 10);
}

void ParseResponse(const std::string& line, Record& rec) {
  try {
    const dsf::JsonValue v = dsf::ParseJson(line);
    if (!v.GetBool("ok", false)) {
      rec.error = "server error: " + v.GetString("error", "?");
      return;
    }
    rec.hits = static_cast<long>(RawInt(v.Find("hits")));
    rec.misses = static_cast<long>(RawInt(v.Find("misses")));
    rec.warm = v.GetBool("warm", false);
    rec.server_wall_ms = v.GetNumber("wall_ms", 0.0);
    const dsf::JsonValue* results = v.Find("results");
    if (results == nullptr || !results->IsArray() || results->array.size() != 1) {
      rec.error = "expected exactly one result";
      return;
    }
    const dsf::JsonValue& r = results->array[0];
    rec.key = r.GetString("key", "");
    rec.weight = static_cast<dsf::Weight>(RawInt(r.Find("weight")));
    rec.feasible = r.GetBool("feasible", false);
    rec.unit_wall_ms = r.GetNumber("wall_ms", 0.0);
    if (r.GetBool("cancelled", false)) rec.error = "unit was cancelled";
    const dsf::JsonValue* edges = r.Find("edges");
    if (edges == nullptr || !edges->IsArray()) throw std::runtime_error("missing edges");
    for (const dsf::JsonValue& e : edges->array) {
      rec.edges.push_back(static_cast<dsf::EdgeId>(RawInt(&e)));
    }
  } catch (const std::exception& e) {
    rec.error = std::string("bad response: ") + e.what();
  }
}

// Every connection sends op i+1 only after op i's response has arrived.
// Ops still in flight at the deadline complete and are checked, but only
// ops that finished inside the window count toward latency and throughput.
std::vector<Record> ClosedLoop(int port, std::uint64_t seed, double seconds) {
  Clock::time_point start;
  std::vector<std::vector<Record>> per_conn(kConnections);
  std::latch ready(kConnections + 1);
  Clock::time_point deadline;
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  for (int c = 0; c < kConnections; ++c) {
    threads.emplace_back([&, c] {
      std::vector<Record>& records = per_conn[static_cast<std::size_t>(c)];
      std::unique_ptr<dsf::ClientConnection> conn;
      std::string connect_error;
      try {
        conn = std::make_unique<dsf::ClientConnection>("127.0.0.1", port, Limits());
      } catch (const std::exception& e) {
        connect_error = e.what();
      }
      ready.arrive_and_wait();
      while (!go.load()) std::this_thread::yield();
      std::unordered_map<long, std::string> keys;  // op index -> response key
      std::string response;
      for (long i = 0; Clock::now() < deadline; ++i) {
        const ServeOp op = MakeServeOp(seed, c, i);
        Record rec;
        rec.conn = c;
        rec.index = i;
        rec.kind = op.kind;
        if (!conn) {
          rec.error = "connect failed: " + connect_error;
          records.push_back(std::move(rec));
          break;
        }
        if (i % kBlockOps == 0) keys.clear();
        std::string base;
        if (op.base_op >= 0) {
          base = keys[op.base_op];
          // A failed base is already a failed op; the revise still runs
          // (on the server's cold path) against a key that is never cached.
          if (base.empty()) base.assign(32, '0');
        }
        const std::string line = RequestLine(op, base);
        const auto t0 = Clock::now();
        bool received = false;
        try {
          conn->SendLine(line);
          received = conn->RecvLine(response);
        } catch (const std::exception& e) {
          rec.error = e.what();
        }
        const auto t1 = Clock::now();
        rec.rt_ms = MsBetween(t0, t1);
        rec.in_window = t1 <= deadline;
        rec.done_ms = MsBetween(start, t1);
        if (received) {
          ParseResponse(response, rec);
        } else if (rec.error.empty()) {
          rec.error = "connection closed";
        }
        keys[i] = rec.key;
        const bool lost = !received;
        records.push_back(std::move(rec));
        if (lost) break;
      }
    });
  }
  ready.arrive_and_wait();
  start = Clock::now();
  deadline = After(seconds);
  go.store(true);
  for (std::thread& t : threads) t.join();
  std::vector<Record> all;
  for (auto& records : per_conn) {
    for (Record& r : records) all.push_back(std::move(r));
  }
  return all;
}

// The benchmark's own copy of one op's unit, expanded from the op's spec
// exactly as the server expands the request.
struct OwnUnit {
  std::unique_ptr<dsf::Workload> workload;
  dsf::SolveRequest request;  // borrows workload's graph; seed = unit seed
};

OwnUnit Expand(const ServeOp& op) {
  OwnUnit own;
  std::istringstream in(op.spec);
  dsf::WorkloadSpec spec = dsf::ParseWorkloadSpec(in, "<serve-mix>");
  spec.seed = op.seed;
  own.workload = std::make_unique<dsf::Workload>(dsf::ExpandWorkload(spec));
  dsf::SolveOptions options;
  options.validate = true;
  const std::vector<std::string> solvers = {dsf::ParseSolverSpec(op.solver).Canonical()};
  dsf::RequestMatrix matrix = dsf::BuildRequests(*own.workload, solvers, options);
  own.request = std::move(matrix.requests.at(0));
  own.request.seed = dsf::DeriveSeed(op.seed, 0);
  if (op.kind == ServeOp::Kind::kRevise) {
    own.request.ic = dsf::ApplyDelta(own.request.ic, op.delta);
  }
  return own;
}

// Correctness gate plus the exact metric. Every returned forest is
// re-checked on the benchmark's own graph; every solve answer (cold, hot,
// coalesced or cached) must equal an in-process Solve() of the same unit
// in weight and edges. Revise answers come from the warm path, so they
// are checked for feasibility against the revised instance.
void CheckAndScore(Outcome& out, std::uint64_t seed,
                   const std::vector<const Record*>& records, SpanLog& log) {
  struct Task {
    ServeOp op;
    std::vector<const Record*> records;
    bool exact = false;
    std::vector<std::string> failures;
    double log_ratio = 0.0;
    bool has_ratio = false;
    double dual_ms = 0.0;
  };
  std::vector<Task> tasks;
  std::map<std::string, std::size_t> by_identity;
  const auto task_for = [&](const ServeOp& op) -> Task& {
    // Ops with equal request text (base key aside) are one unit.
    const std::string id = RequestLine(op, "");
    auto it = by_identity.find(id);
    if (it == by_identity.end()) {
      it = by_identity.emplace(id, tasks.size()).first;
      tasks.push_back(Task{op, {}, false, {}, 0.0, false, 0.0});
    }
    return tasks[it->second];
  };
  for (int c = 0; c < kConnections; ++c) {
    for (long i = 0; i < kExactBlocks * kBlockOps; ++i) {
      const ServeOp op = MakeServeOp(seed, c, i);
      if (op.kind == ServeOp::Kind::kCold) task_for(op).exact = true;
    }
  }
  for (const Record* r : records) {
    if (!r->error.empty()) {
      out.Fail("conn " + std::to_string(r->conn) + " op " + std::to_string(r->index) +
               ": " + r->error);
      continue;
    }
    task_for(MakeServeOp(seed, r->conn, r->index)).records.push_back(r);
  }

  std::atomic<std::size_t> next{0};
  const auto work = [&] {
    for (std::size_t t = next++; t < tasks.size(); t = next++) {
      Task& task = tasks[t];
      try {
        const OwnUnit own = Expand(task.op);
        const dsf::Graph& g = *own.request.graph;
        const bool revise = task.op.kind == ServeOp::Kind::kRevise;
        dsf::SolveResult reference;
        if (!revise) reference = dsf::Solve(own.request);
        for (const Record* r : task.records) {
          std::string why = CheckForest(g, own.request, r->edges, r->weight);
          if (why.empty() && !r->feasible) why = "server reported infeasible";
          if (why.empty() && !revise &&
              (r->weight != reference.weight || r->edges != reference.forest)) {
            why = "answer differs from in-process Solve()";
          }
          if (!why.empty()) {
            task.failures.push_back("conn " + std::to_string(r->conn) + " op " +
                                    std::to_string(r->index) + ": " + why);
          }
        }
        if (task.exact) {
          const auto t0 = Clock::now();
          const double dual = DualOf(g, own.request);
          task.dual_ms = MsSince(t0);
          if (dual > 0.0) {
            task.log_ratio = std::log(static_cast<double>(reference.weight) / dual);
            task.has_ratio = true;
          }
        }
      } catch (const std::exception& e) {
        task.failures.push_back(std::string("check threw: ") + e.what());
      }
    }
  };
  std::vector<std::thread> workers;
  for (int w = 0; w < kCheckThreads; ++w) workers.emplace_back(work);
  for (std::thread& w : workers) w.join();

  double log_ratio = 0.0;
  long ratios = 0;
  long exact = 0;
  for (const Task& task : tasks) {
    for (const std::string& f : task.failures) out.Fail(f);
    if (!task.exact) continue;
    ++exact;
    log.Add("lowerbounds.dual", task.dual_ms);
    if (task.has_ratio) {
      log_ratio += task.log_ratio;
      ++ratios;
    }
  }
  out.info["exact_units"] = static_cast<double>(exact);
  out.info["checked_units"] = static_cast<double>(tasks.size());
  out.info["cost_over_dual"] = ratios > 0 ? std::exp(log_ratio / static_cast<double>(ratios)) : 0.0;
}

constexpr const char* kClasses[] = {"miss", "hit", "revise"};

// A response's class, by its op and its hits and misses.
const char* ClassOf(const Record& r) {
  if (r.kind == ServeOp::Kind::kRevise) return "revise";
  return r.misses > 0 ? "miss" : "hit";
}

// Latencies of the ops that completed inside the window, overall and per
// class.
struct Latencies {
  std::vector<double> all;
  double last_done_ms = 0.0;  // the window's last completion
  std::map<std::string, std::vector<double>> by_class;
  long warm = 0;  // revises that took the warm path
};

Latencies Collect(const std::vector<Record>& records) {
  Latencies l;
  for (const Record& r : records) {
    if (!r.in_window || !r.error.empty()) continue;
    l.all.push_back(r.rt_ms);
    l.last_done_ms = std::max(l.last_done_ms, r.done_ms);
    l.by_class[ClassOf(r)].push_back(r.rt_ms);
    if (r.kind == ServeOp::Kind::kRevise && r.warm) ++l.warm;
  }
  return l;
}

// Per-class p50/p95 as diagnostics, and as serve.* metrics in a traced
// run.
void ClassLatencies(Outcome& out, const Latencies& l, bool as_metrics) {
  out.info["ops_in_window"] = static_cast<double>(l.all.size());
  const std::vector<double> none;
  for (const std::string cls : kClasses) {
    const auto it = l.by_class.find(cls);
    const std::vector<double>& v = it == l.by_class.end() ? none : it->second;
    const double p50 = Percentile(v, 0.50);
    const double p95 = Percentile(v, 0.95);
    out.info[cls + "_ops"] = static_cast<double>(v.size());
    out.info[cls + "_share"] =
        l.all.empty() ? 0.0 : static_cast<double>(v.size()) / static_cast<double>(l.all.size());
    out.info[cls + "_p50_ms"] = p50;
    out.info[cls + "_p95_ms"] = p95;
    if (as_metrics) {
      SetMetric(out, "serve." + cls + "_p50_ms", p50, "ms");
      SetMetric(out, "serve." + cls + "_p95_ms", p95, "ms");
    }
  }
}

std::vector<const Record*> Pointers(const std::vector<Record>& records) {
  std::vector<const Record*> ptrs;
  for (const Record& r : records) ptrs.push_back(&r);
  return ptrs;
}

// --- traced replay ----------------------------------------------------------

std::uint64_t RequestSeed(const dsf::JsonValue& req) {
  const dsf::JsonValue* v = req.Find("seed");
  return v == nullptr ? 1 : std::strtoull(v->string.c_str(), nullptr, 10);
}

dsf::InstanceDelta ParseTerminalDelta(const dsf::JsonValue& req) {
  dsf::InstanceDelta delta;
  const dsf::JsonValue* d = req.Find("delta");
  if (d == nullptr) return delta;
  if (const dsf::JsonValue* add = d->Find("add_terminals")) {
    for (const dsf::JsonValue& e : add->array) {
      delta.add_terminals.push_back({static_cast<dsf::NodeId>(RawInt(&e.array.at(0))),
                                     static_cast<dsf::Label>(RawInt(&e.array.at(1)))});
    }
  }
  if (const dsf::JsonValue* rm = d->Find("remove_terminals")) {
    for (const dsf::JsonValue& e : rm->array) {
      delta.remove_terminals.push_back(static_cast<dsf::NodeId>(RawInt(&e)));
    }
  }
  return delta;
}

std::string SerializeResponse(const dsf::SolveResult& r, const dsf::WorkloadCase& wc,
                              bool cached, const dsf::CacheKey& key, bool revise,
                              bool warm, std::uint64_t seed) {
  std::ostringstream os;
  dsf::JsonWriter json(os);
  json.BeginObject();
  json.Key("ok");
  json.Bool(true);
  json.Key("seed");
  json.UInt(seed);
  json.Key("requests");
  json.Int(1);
  json.Key("hits");
  json.Int(cached ? 1 : 0);
  json.Key("misses");
  json.Int(cached ? 0 : 1);
  if (revise) {
    json.Key("warm");
    json.Bool(warm);
    json.Key("key");
    json.String(dsf::CacheKeyToHex(key));
  }
  json.Key("results");
  json.BeginArray();
  json.BeginObject();
  json.Key("solver");
  json.String(r.solver);
  json.Key("case");
  json.String(wc.name);
  json.Key("instance");
  json.String(wc.instances.at(0).name);
  json.Key("weight");
  json.Int(static_cast<long long>(r.weight));
  json.Key("feasible");
  json.Bool(r.feasible);
  json.Key("edges");
  json.BeginArray();
  for (const dsf::EdgeId e : r.forest) json.Int(e);
  json.EndArray();
  json.Key("rounds");
  json.Int(r.stats.rounds);
  json.Key("messages");
  json.Int(r.stats.messages);
  json.Key("wall_ms");
  json.Double(r.wall_ms);
  json.Key("cached");
  json.Bool(cached);
  json.Key("key");
  json.String(dsf::CacheKeyToHex(key));
  json.EndObject();
  json.EndArray();
  json.EndObject();
  return os.str();
}

// The shadow handler's stand-in for the server's dispatcher thread: it runs
// one task at a time on its own thread, so a unit solves on another thread
// than the one that expanded its graph, as it does in the server.
class Dispatcher {
 public:
  Dispatcher() : thread_([this] { Loop(); }) {}
  ~Dispatcher() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }
  Dispatcher(const Dispatcher&) = delete;
  Dispatcher& operator=(const Dispatcher&) = delete;

  // Runs `task` (which must not throw) on the dispatcher thread and waits.
  void Run(const std::function<void()>& task) {
    std::unique_lock<std::mutex> lock(mutex_);
    task_ = &task;
    done_ = false;
    cv_.notify_all();
    cv_.wait(lock, [&] { return done_; });
  }

 private:
  void Loop() {
    std::unique_lock<std::mutex> lock(mutex_);
    while (true) {
      cv_.wait(lock, [&] { return stop_ || task_ != nullptr; });
      if (stop_) return;
      const std::function<void()>* task = task_;
      lock.unlock();
      (*task)();
      lock.lock();
      task_ = nullptr;
      done_ = true;
      cv_.notify_all();
    }
  }

  std::mutex mutex_;
  std::condition_variable cv_;
  const std::function<void()>* task_ = nullptr;  // guarded by mutex_
  bool done_ = false;                            // guarded by mutex_
  bool stop_ = false;                            // guarded by mutex_
  std::thread thread_;  // last: starts after the members it uses
};

// What one replayed request did in the shadow handler.
struct ShadowResult {
  dsf::Weight weight = 0;
  bool solved = false;      // a unit ran (cache miss)
  bool revise = false;
  bool warm = false;
  double solve_stage_ms = 0.0;  // minimal + core + prune + validate spans
  double warm_solve_ms = 0.0;   // the warm revise's whole solve
  double untraced_solve_ms = 0.0;
  std::string solver;
};

// The serve handler rebuilt from public functions, one leaf span per
// stage, against its own cache (units solve inline instead of through an
// admission queue).
ShadowResult ShadowHandle(dsf::ResultCache& cache, Dispatcher& dispatcher,
                          const std::string& line, SpanLog& log) {
  ShadowResult out;
  const dsf::JsonValue req = Span(log, "cli.json_parse", [&] { return dsf::ParseJson(line); });
  out.revise = req.GetString("op", "") == "revise";
  dsf::CacheKey base_key;
  dsf::InstanceDelta delta;
  if (out.revise) {
    Span(log, "cli.json_parse", [&] {
      delta = ParseTerminalDelta(req);
      return dsf::CacheKeyFromHex(req.GetString("base", ""), &base_key);
    });
  }
  std::unique_ptr<dsf::Workload> workload;
  dsf::RequestMatrix matrix;
  std::uint64_t spec_seed = 1;
  Span(log, "workload.expand", [&] {
    std::istringstream in(req.Find("spec")->string);
    dsf::WorkloadSpec spec = dsf::ParseWorkloadSpec(in, "<wire>");
    spec.seed = RequestSeed(req);
    spec_seed = spec.seed;
    std::vector<std::string> solvers;
    for (const dsf::JsonValue& s : req.Find("solvers")->array) {
      solvers.push_back(dsf::ParseSolverSpec(s.string).Canonical());
    }
    workload = std::make_unique<dsf::Workload>(dsf::ExpandWorkload(spec));
    dsf::SolveOptions options;
    options.validate = true;
    matrix = dsf::BuildRequests(*workload, solvers, options);
    return 0;
  });
  const dsf::WorkloadCase& wc = workload->cases.at(0);
  const bool connected = Span(log, "graph.connected", [&] { return dsf::IsConnected(wc.graph); });
  if (!connected) throw std::runtime_error("disconnected case");
  const std::uint64_t seed = dsf::DeriveSeed(spec_seed, 0);
  const dsf::SolveRequest& base_request = matrix.requests.at(0);
  const dsf::CacheKey graph_hash = Span(log, "serve.hash", [&] { return dsf::HashGraph(wc.graph); });
  dsf::SolveRequest unit = base_request;
  if (out.revise) {
    unit.ic = Span(log, "steiner.delta", [&] { return dsf::ApplyDelta(unit.ic, delta); });
  }
  const dsf::CacheKey key =
      Span(log, "serve.hash", [&] { return dsf::CanonicalHash(graph_hash, unit, seed); });
  unit.seed = seed;
  auto hit = Span(log, "serve.cache_lookup", [&] { return cache.Lookup(key); });
  dsf::SolveResult result;
  const bool cached = hit.has_value();
  if (cached) {
    result = std::move(*hit);
  } else {
    if (out.revise) {
      auto base = Span(log, "serve.cache_lookup", [&] { return cache.Lookup(base_key); });
      if (base) {
        dsf::WarmStartPlan plan = Span(log, "solve.repair", [&] {
          return dsf::PrepareWarmStart(base_request, base->forest, delta);
        });
        if (plan.warm) {
          out.warm = true;
          unit = std::move(plan.revised);
          unit.seed = seed;
        }
      }
    }
    // Solve and publish on the dispatcher thread; the hand-off there and
    // back is serve.dispatch.
    double inside_ms = 0.0;
    std::exception_ptr error;
    const auto d0 = Clock::now();
    dispatcher.Run([&] {
      const auto t0 = Clock::now();
      try {
        const double before = log.Sum();
        result = TracedSolve(unit, seed, log);
        out.solve_stage_ms = log.Sum() - before;
        if (out.warm) out.warm_solve_ms = MsSince(t0);
        Span(log, "serve.cache_insert", [&] {
          cache.Insert(key, result);
          return 0;
        });
      } catch (...) {
        error = std::current_exception();
      }
      inside_ms = MsSince(t0);
    });
    log.Add("serve.dispatch", MsSince(d0) - inside_ms);
    if (error) std::rethrow_exception(error);
    out.solved = true;
    out.solver = dsf::ParseSolverSpec(unit.solver).base;
    // The untraced pipeline on the same unit, for solve.overhead_ms. Not
    // part of the request's spans.
    if (!out.revise) {
      const auto u0 = Clock::now();
      (void)dsf::Solve(unit, seed, 1);
      out.untraced_solve_ms = MsSince(u0);
    }
  }
  const std::string response = Span(log, "serve.serialize", [&] {
    return SerializeResponse(result, wc, cached, key, out.revise, out.warm, spec_seed);
  });
  out.weight = result.weight;
  return out;
}

// Serial replay of connection 0's script through three copies of the
// handler that see the same request sequence, hence the same cache states:
// a fresh server over the socket (round trip), an in-process
// HandleRequestLine, and the shadow handler with leaf spans.
void Replay(Outcome& out, const RunArgs& args, double seconds,
            std::vector<Record>& replayed, double loaded_wait_ms) {
  ServerProcess server(args.dsf_binary);
  dsf::ClientConnection conn("127.0.0.1", server.Port(), Limits());
  dsf::ResultCache in_process_cache(4096, 8);
  dsf::AdmissionQueue in_process_queue(&in_process_cache,
                                       dsf::AdmissionOptions{kServerThreads, 32, 1024});
  dsf::ServeContext ctx;
  ctx.cache = &in_process_cache;
  ctx.queue = &in_process_queue;
  dsf::ResultCache shadow_cache(4096, 8);
  Dispatcher dispatcher;

  SpanLog log;
  double handler_total = 0.0;
  double shadow_total = 0.0;
  Accounting accounting;
  double socket_total = 0.0;
  double stage_overhead = 0.0;
  long untraced_units = 0;
  double incremental_total = 0.0;
  long requests = 0, solved = 0, revises = 0, warm = 0;
  long hits = 0;
  double hit_hash = 0.0, hit_handler = 0.0, hit_rt = 0.0;
  std::map<std::string, long> per_solver;
  std::vector<double> idle_gap;  // server handler − unit core time, misses
  std::unordered_map<long, std::string> keys;
  std::string response;
  const auto deadline = After(seconds);
  for (long i = 0; Clock::now() < deadline; ++i) {
    const ServeOp op = MakeServeOp(args.seed, 0, i);
    std::string base;
    if (op.base_op >= 0) {
      base = keys[op.base_op];
      if (base.empty()) base.assign(32, '0');
    }
    const std::string line = RequestLine(op, base);
    Record rec;
    rec.conn = 0;
    rec.index = i;
    rec.kind = op.kind;
    const auto t0 = Clock::now();
    conn.SendLine(line);
    const bool received = conn.RecvLine(response);
    rec.rt_ms = MsSince(t0);
    if (received) {
      ParseResponse(response, rec);
    } else {
      rec.error = "connection closed";
    }
    keys[i] = rec.key;

    // The in-process handler and the shadow alternate which goes first.
    double handler_ms = 0.0;
    const auto handler = [&] {
      const auto h0 = Clock::now();
      dsf::HandleRequestLine(ctx, line);
      handler_ms = MsSince(h0);
    };
    ShadowResult shadow;
    double spans = 0.0;
    double hash_ms = 0.0;
    const auto traced = [&] {
      const double before = log.Sum();
      const double hash_before = log.Total("serve.hash");
      const auto s0 = Clock::now();
      try {
        shadow = ShadowHandle(shadow_cache, dispatcher, line, log);
      } catch (const std::exception& e) {
        out.Fail(std::string("shadow handler threw: ") + e.what());
      }
      shadow_total += MsSince(s0) - shadow.untraced_solve_ms;
      spans = log.Sum() - before;
      hash_ms = log.Total("serve.hash") - hash_before;
    };
    if (i % 2 == 0) {
      handler();
      traced();
    } else {
      traced();
      handler();
    }
    if (rec.error.empty() && rec.kind != ServeOp::Kind::kRevise && rec.misses == 0) {
      ++hits;
      hit_hash += hash_ms;
      hit_handler += handler_ms;
      hit_rt += rec.rt_ms;
    }

    if (rec.error.empty() && shadow.weight != rec.weight) {
      out.Fail("op " + std::to_string(i) + ": shadow handler diverged from the server");
    }
    ++requests;
    handler_total += handler_ms;
    accounting.Add(rec.error.empty() ? ClassOf(rec) : "failed", handler_ms, spans);
    socket_total += rec.rt_ms - handler_ms;
    if (shadow.solved) {
      ++solved;
      ++per_solver[shadow.solver];
      if (!shadow.revise) {
        stage_overhead += shadow.untraced_solve_ms - shadow.solve_stage_ms;
        ++untraced_units;
      }
    }
    if (shadow.revise) {
      ++revises;
      if (shadow.warm) {
        ++warm;
        incremental_total += shadow.warm_solve_ms;
      }
    }
    if (rec.error.empty() && rec.kind != ServeOp::Kind::kRevise && rec.misses > 0) {
      idle_gap.push_back(rec.server_wall_ms - rec.unit_wall_ms);
    }
    replayed.push_back(std::move(rec));
  }
  conn.SendLine(R"({"op":"ping"})");
  conn.RecvLine(response);
  server.Stop();
  in_process_queue.Drain();

  const auto per = [](double total, long n) { return n > 0 ? total / static_cast<double>(n) : 0.0; };
  SetMetric(out, "serve.socket_ms", per(socket_total, requests), "ms");
  SetMetric(out, "cli.json_parse_ms", per(log.Total("cli.json_parse"), requests), "ms");
  SetMetric(out, "workload.expand_ms", per(log.Total("workload.expand"), requests), "ms");
  SetMetric(out, "graph.connected_ms", per(log.Total("graph.connected"), requests), "ms");
  SetMetric(out, "serve.hash_ms", per(log.Total("serve.hash"), requests), "ms");
  SetMetric(out, "serve.cache_lookup_ms", per(log.Total("serve.cache_lookup"), requests), "ms");
  SetMetric(out, "serve.cache_insert_ms", per(log.Total("serve.cache_insert"), requests), "ms");
  SetMetric(out, "serve.dispatch_ms", per(log.Total("serve.dispatch"), solved), "ms");
  SetMetric(out, "serve.serialize_ms", per(log.Total("serve.serialize"), requests), "ms");
  SetMetric(out, "steiner.delta_ms", per(log.Total("steiner.delta"), revises), "ms");
  SetMetric(out, "solve.repair_ms", per(log.Total("solve.repair"), revises), "ms");
  SetMetric(out, "solve.incremental_ms", per(incremental_total, warm), "ms");
  for (const char* solver : CoreSolvers()) {
    const std::string span = "core." + std::string(solver);
    SetMetric(out, span + "_ms", per(log.Total(span), per_solver[solver]), "ms");
  }
  SetMetric(out, "steiner.minimal_ms", per(log.Total("steiner.minimal"), solved), "ms");
  SetMetric(out, "steiner.prune_ms", per(log.Total("steiner.prune"), solved), "ms");
  SetMetric(out, "steiner.validate_ms", per(log.Total("steiner.validate"), solved), "ms");
  SetMetric(out, "steiner.phases", per(log.CountTotal("steiner.phases"), solved), "count");
  SetMetric(out, "solve.overhead_ms", per(stage_overhead, untraced_units), "ms");
  // Queue wait under load: the miss handler time the server reports beyond
  // the unit's own core time, loaded loop minus this uncontended replay.
  SetMetric(out, "serve.queue_wait_ms", loaded_wait_ms - Median(idle_gap), "ms");
  SetMetric(out, "trace.unaccounted_share", accounting.Overall(), "ratio");
  SetMetric(out, "trace.overhead_ratio",
            handler_total > 0 ? (shadow_total - handler_total) / handler_total : 0.0, "ratio");
  SetMetric(out, "trace.accounted_ops", static_cast<double>(requests), "count");
  // Hash time against the whole hit, for the findings in README.md.
  out.info["replay_hit_hash_ms"] = per(hit_hash, hits);
  out.info["replay_hit_handler_ms"] = per(hit_handler, hits);
  out.info["replay_hit_rt_ms"] = per(hit_rt, hits);
  accounting.Check(out, kAccountingBound);
}

void LoopCounters(Outcome& out, int port, const Latencies& l) {
  dsf::ClientConnection conn("127.0.0.1", port, Limits());
  const dsf::JsonValue stats = conn.RoundTrip(R"({"op":"stats"})");
  const dsf::JsonValue* cache = stats.Find("cache");
  const dsf::JsonValue* queue = stats.Find("queue");
  if (cache == nullptr || queue == nullptr) throw std::runtime_error("stats op failed");
  const auto num = [](const dsf::JsonValue* obj, const char* key) {
    return static_cast<double>(RawInt(obj->Find(key)));
  };
  const double batches = num(queue, "batches");
  const double admitted = num(queue, "admitted");
  const double coalesced = num(queue, "coalesced");
  const double hits = num(cache, "hits");
  const double lookups = hits + num(cache, "misses");
  SetMetric(out, "serve.batch_units", batches > 0 ? num(queue, "computed") / batches : 0.0, "count");
  SetMetric(out, "serve.coalesced_ratio",
            admitted + coalesced > 0 ? coalesced / (admitted + coalesced) : 0.0, "ratio");
  SetMetric(out, "serve.rejected", num(queue, "rejected"), "count");
  SetMetric(out, "serve.cache_hit_ratio", lookups > 0 ? hits / lookups : 0.0, "ratio");
  SetMetric(out, "serve.cache_evictions", num(cache, "evictions"), "count");
  const auto revises = l.by_class.find("revise");
  SetMetric(out, "solve.warm_ratio",
            revises == l.by_class.end()
                ? 0.0
                : static_cast<double>(l.warm) / static_cast<double>(revises->second.size()),
            "ratio");
}

double LoadedWait(const std::vector<Record>& records) {
  std::vector<double> gap;
  for (const Record& r : records) {
    if (r.error.empty() && r.kind != ServeOp::Kind::kRevise && r.misses > 0) {
      gap.push_back(r.server_wall_ms - r.unit_wall_ms);
    }
  }
  return Median(gap);
}

}  // namespace

Outcome RunServeMix(const RunArgs& args) {
  Outcome out;
  if (args.trace) {
    // Only IC requests with centralized solvers, so no graph parameters and
    // no simulator; the batch overhead is measured on the batch workloads.
    Bypass(out, {"graph.params_ms", "dist.transform_ms", "dist.transform_rounds",
                 "dist.transform_messages", "congest.rounds", "congest.messages",
                 "congest.bits", "congest.us_per_round", "congest.msgs_per_s",
                 "solve.batch_overhead_ms", "rounds_sum", "messages_sum"});
    double spawn_s = 0.0;
    std::vector<Record> records;
    {
      auto server = SpawnAndPing(args.dsf_binary, &spawn_s);
      records = ClosedLoop(server->Port(), args.seed, args.seconds / 2.0);
      LoopCounters(out, server->Port(), Collect(records));
    }
    std::vector<Record> replayed;
    Replay(out, args, args.seconds / 2.0, replayed, LoadedWait(records));
    out.attempted = static_cast<long>(records.size() + replayed.size());
    std::vector<const Record*> all = Pointers(records);
    for (const Record& r : replayed) all.push_back(&r);
    SpanLog log;
    CheckAndScore(out, args.seed, all, log);
    SetMetric(out, "lowerbounds.dual_ms", log.Mean("lowerbounds.dual"), "ms");
    ClassLatencies(out, Collect(records), true);
    return out;
  }

  // Set-up: spawn to first ping answered, several times; the last server
  // stays up for the measured loop.
  std::vector<double> setup;
  std::unique_ptr<ServerProcess> server;
  for (int s = 0; s < kSetupSpawns; ++s) {
    server.reset();
    double seconds = 0.0;
    server = SpawnAndPing(args.dsf_binary, &seconds);
    setup.push_back(seconds);
  }
  const std::vector<Record> records = ClosedLoop(server->Port(), args.seed, args.seconds);
  SetMetric(out, "peak_rss_mb", server->PeakRss(), "MB");
  server->Stop();

  const Latencies l = Collect(records);
  out.attempted = static_cast<long>(records.size());
  SetMetric(out, "setup_s", Median(setup), "s");
  SetMetric(out, "throughput_per_s",
            l.last_done_ms > 0 ? 1000.0 * static_cast<double>(l.all.size()) / l.last_done_ms : 0.0,
            "1/s");
  SetMetric(out, "unit_p50_ms", Percentile(l.all, 0.50), "ms");
  SetMetric(out, "unit_p95_ms", Percentile(l.all, 0.95), "ms");
  ClassLatencies(out, l, false);
  SpanLog log;
  CheckAndScore(out, args.seed, Pointers(records), log);
  SetMetric(out, "cost_over_dual", out.info["cost_over_dual"], "ratio");
  return out;
}

}  // namespace perfbench
