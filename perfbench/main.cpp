// psc-perfbench — one input of the end-to-end simulator benchmark.
//
//   psc-perfbench --workload W --seed N --seconds S --trace 0|1
//   psc-perfbench --workload W --seed N --equivalence
//
// Workloads (single-threaded, closed-loop clients):
//   flood_ring      psc-sim flood --lint --certify --flight on a 65,536-node
//                   ring, 4 waves: assembly, observers and teardown at 1e5
//                   machines
//   register_clock  Theorem 6.5: algorithm S through Simulation 1, random
//                   drift, 8 nodes x 400 ops; the linearizability checker
//                   dominates
//   register_mmt    Theorem 5.2: both simulations composed, 6 nodes x 750
//                   read-heavy ops; the executor's tick/step loop dominates
//
// The process builds and runs the workload on input seed N again and again
// until S seconds are spent (at least once). With --trace 1 each plain
// iteration is followed by a traced one on the same input, which attaches
// the executor's Profiler and a benchmark-owned Probe.
//
// Every iteration times the public call into each layer from outside, as a
// tree of spans: iteration -> setup -> {clock, assemble, lint, certify},
// run, verify -> {check, flood_safe, bounds}, teardown. A layer the
// workload bypasses keeps an empty span. Timings are host time; values read
// off the modelled system are simulated time and depend only on the input.
//
// stdout: one JSON record per iteration ({"iteration": {...}}: spans, work
// counts, outcome checks, the simulated-output digest, and on traced
// iterations the profiler report), then {"process": {"peak_rss_mb": ...}}.
// perfbench/run.py runs one such process per input and aggregates.
//
// --equivalence assembles the register workload once and checks that its
// op history and event count equal those of the library's own harness
// (run_rw_clock / run_rw_mmt) at the same seed; exit 0 iff they do.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "algos/flood.hpp"
#include "analysis/bounds.hpp"
#include "analysis/trace_check.hpp"
#include "clock/trajectory.hpp"
#include "mmt/mmt_system.hpp"
#include "obs/flight.hpp"
#include "obs/prof.hpp"
#include "runtime/composite.hpp"
#include "runtime/executor.hpp"
#include "runtime/system.hpp"
#include "rw/algorithm.hpp"
#include "rw/client.hpp"
#include "rw/harness.hpp"
#include "rw/spec.hpp"
#include "transform/buffers.hpp"
#include "transform/clock_system.hpp"
#include "util/rng.hpp"

using namespace psc;

namespace {

// --- workloads ---------------------------------------------------------------

enum class Kind { kFlood, kClock, kMmt };

struct Workload {
  const char* name;
  Kind kind;
};

constexpr Workload kWorkloads[] = {
    {"flood_ring", Kind::kFlood},
    {"register_clock", Kind::kClock},
    {"register_mmt", Kind::kMmt},
};

// flood_ring: the psc-sim flood defaults, scaled to 1e5 machines.
constexpr int kFloodNodes = 65536;
constexpr int kFloodWaves = 4;
constexpr Duration kFloodD1 = microseconds(20);
constexpr Duration kFloodD2 = microseconds(300);
constexpr Duration kFloodMargin = microseconds(10);

// register_*: the psc-sim rw-clock / rw-mmt configuration at the sizes the
// workload table states.
RwRunConfig register_config(Kind kind, std::uint64_t seed) {
  RwRunConfig cfg;
  const bool mmt = kind == Kind::kMmt;
  cfg.num_nodes = mmt ? 6 : 8;
  // 750 rather than 800 ops keeps every input's event count (~487k) well
  // below 2^19, where the recorded trace's vector doubles and peak RSS
  // would jump by ~75 MB for some seeds but not others.
  cfg.ops_per_node = mmt ? 750 : 400;
  cfg.write_fraction = mmt ? 0.1 : 0.5;
  cfg.d1 = microseconds(20);
  cfg.d2 = microseconds(300);
  cfg.eps = microseconds(50);
  cfg.c = microseconds(40);
  cfg.think_max = microseconds(300);
  cfg.horizon = seconds(60);
  cfg.seed = seed;
  return cfg;
}
constexpr Duration kMmtEll = microseconds(10);
int mmt_k(const RwRunConfig& cfg) { return cfg.num_nodes + 2; }

// Random drift: unlike psc-sim's default zigzag, it makes the Simulation-1
// receive buffers actually hold messages.
const DriftModel& drift_model() {
  static const RandomDrift drift(0.1, milliseconds(1));
  return drift;
}

// --- host measurement ----------------------------------------------------------

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Bytes currently allocated from the heap (small chunks plus mmapped ones).
std::size_t heap_bytes() {
  const struct mallinfo2 mi = mallinfo2();
  return mi.uordblks + mi.hblkhd;
}

double peak_rss_mb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB -> MiB
}

struct Span {
  std::string name;
  double start = 0;
  double end = 0;
  int parent = -1;  // index into the same iteration's spans, -1 = root
};

// Spans of one iteration, in opening order.
class SpanLog {
 public:
  int open(const char* name, int parent) {
    spans_.push_back({name, now_s(), 0, parent});
    return static_cast<int>(spans_.size()) - 1;
  }
  void close(int id) { spans_[static_cast<std::size_t>(id)].end = now_s(); }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
};

// The benchmark's own probe on traced iterations: the cold start (run begin
// to the first executed event, i.e. the all-dirty first flush) and an
// independent event count.
class ColdStartProbe final : public Probe {
 public:
  bool observes_time() const override { return false; }
  void on_run_begin(Time /*now*/) override { begin_ = now_s(); }
  void on_event(const TimedEvent& /*e*/, const Machine& /*owner*/) override {
    if (events_++ == 0) first_ = now_s();
  }
  double cold_start_s() const { return events_ == 0 ? 0.0 : first_ - begin_; }
  std::uint64_t events() const { return events_; }

 private:
  double begin_ = 0;
  double first_ = 0;
  std::uint64_t events_ = 0;
};

struct Tracer {
  Profiler prof;
  ColdStartProbe probe;

  void attach(Executor& exec) {
    exec.attach_profiler(&prof);
    exec.attach_probe(&probe);
  }
};

// --- one iteration --------------------------------------------------------------

struct Iter {
  std::uint64_t input = 0;
  bool traced = false;
  SpanLog spans;
  // Work done.
  std::size_t machines = 0;
  std::size_t events = 0;
  ExecutorStats stats;
  std::size_t segments = 0, messages = 0, received = 0, buffered = 0;
  std::size_t ticks = 0, completed = 0, check_states = 0;
  std::size_t analysis_errors = 0;
  std::uint64_t flight_records = 0;
  // Outcome: operations attempted and failed, and why.
  std::size_t attempted = 0, failed = 0;
  std::vector<std::string> problems;
  // The modelled system, in simulated time.
  std::uint64_t digest = 0;
  Duration read_p99 = 0, write_p99 = 0, min_slack = 0;
  std::vector<Operation> ops;  // kept only for --equivalence
  // Traced iterations only.
  double bytes_per_machine = 0;

  void fail_all(const std::string& why) {
    problems.push_back(why);
    failed = attempted;
  }
};

class Fnv {
 public:
  void add(std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h_ ^= (v >> (8 * b)) & 0xff;
      h_ *= 0x100000001b3ULL;
    }
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

Duration p99(std::vector<Duration> xs) {
  if (xs.empty()) return 0;
  std::sort(xs.begin(), xs.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(0.99 * static_cast<double>(xs.size())));
  return xs[std::max<std::size_t>(rank, 1) - 1];
}

// Shared tail of every workload: outcome checks common to all runs.
void check_run(Iter& r, const ExecutorReport& rep) {
  if (rep.hit_event_cap) r.fail_all("run hit the executor's event cap");
  if (r.analysis_errors > 0) {
    r.fail_all(std::to_string(r.analysis_errors) + " lint/certify error(s)");
  }
}

Iter flood_iteration(std::uint64_t seed, Tracer* tr) {
  Iter r;
  r.input = seed;
  r.traced = tr != nullptr;
  SpanLog& sp = r.spans;
  const int root = sp.open("iteration", -1);
  const int setup = sp.open("setup", root);
  // Timed model: node clocks are the identity, so the clock layer has no
  // work here (its span stays empty).
  const int clk = sp.open("clock", setup);
  sp.close(clk);

  const int asm_ = sp.open("assemble", setup);
  const std::size_t heap0 = tr != nullptr ? heap_bytes() : 0;
  ExecutorOptions eo;
  eo.horizon = seconds(60);
  eo.seed = seed;
  auto exec = std::make_unique<Executor>(eo);
  const Graph g = Graph::ring(kFloodNodes);
  ChannelConfig cc;
  cc.d1 = kFloodD1;
  cc.d2 = kFloodD2;
  cc.seed = seed ^ 0xf100d;
  const SystemHandles handles = add_timed_system(
      *exec, g, cc,
      make_flood_nodes(g, /*source=*/0, /*payload=*/42, /*hops_bound=*/g.n,
                       kFloodD2, kFloodMargin, kFloodWaves,
                       /*wave_gap=*/kFloodD2));
  r.machines = exec->machine_count();
  if (tr != nullptr) {
    r.bytes_per_machine = static_cast<double>(heap_bytes() - heap0) /
                          static_cast<double>(r.machines);
  }
  auto flight = std::make_unique<FlightRecorder>();
  sp.close(asm_);

  const int lint = sp.open("lint", setup);
  const DiagnosticReport lint_rep = exec->validate_composition();
  TraceCheckOptions lo;
  lo.d1 = kFloodD1;
  lo.d2 = kFloodD2;
  lo.num_nodes = kFloodNodes;
  auto inv = std::make_unique<InvariantProbe>(lo);
  sp.close(lint);

  const int cert_s = sp.open("certify", setup);
  BoundCertOptions bo;
  bo.d1 = kFloodD1;
  bo.d2 = kFloodD2;
  auto cert = std::make_unique<CertificateProbe>(bo);
  cert->harvest(exec->composition());
  sp.close(cert_s);

  // The online observers of `psc-sim flood --lint --certify --flight`.
  exec->attach_flight(flight.get());
  exec->attach_probe(inv.get());
  exec->attach_probe(cert.get());
  if (tr != nullptr) tr->attach(*exec);
  sp.close(setup);

  const int run = sp.open("run", root);
  const ExecutorReport rep = exec->run();
  sp.close(run);

  const int ver = sp.open("verify", root);
  const int chk = sp.open("check", ver);
  sp.close(chk);  // no register history on this workload
  const int fs = sp.open("flood_safe", ver);
  const bool safe = flood_safe(exec->events(), kFloodNodes, kFloodWaves);
  sp.close(fs);
  const int bnd = sp.open("bounds", ver);
  // Operations are the n * waves deliveries; each must precede COMPLETE.
  r.attempted = static_cast<std::size_t>(kFloodNodes) * kFloodWaves;
  Fnv h;
  std::vector<Time> delivers;
  delivers.reserve(r.attempted);
  Time complete = -1;
  for (const TimedEvent& e : exec->events()) {
    if (e.action.name == "DELIVER") {
      delivers.push_back(e.time);
      h.add(static_cast<std::uint64_t>(e.time));
      h.add(static_cast<std::uint64_t>(e.action.node));
    } else if (e.action.name == "COMPLETE" && complete < 0) {
      complete = e.time;
      h.add(static_cast<std::uint64_t>(e.time));
    }
  }
  std::size_t on_time = 0;
  Time last = 0;
  for (const Time t : delivers) {
    if (complete >= 0 && t <= complete) ++on_time;
    last = std::max(last, t);
  }
  r.failed = r.attempted - std::min(on_time, r.attempted);
  if (r.failed > 0) {
    r.problems.push_back(std::to_string(r.failed) +
                         " delivery(ies) missing or after COMPLETE");
  }
  if (!safe) r.fail_all("flood_safe violated");
  r.events = rep.steps;
  r.stats = rep.stats;
  for (const Channel* ch : handles.channels) r.messages += ch->stats().delivered;
  // The certificate report holds the static PSC2xx and online PSC206 codes.
  r.analysis_errors = lint_rep.errors() + inv->report().errors() +
                      cert->report().errors();
  r.flight_records = flight->total_recorded();
  if (r.flight_records != rep.steps) {
    r.fail_all("flight recorder saw " + std::to_string(r.flight_records) +
               " of " + std::to_string(rep.steps) + " events");
  }
  check_run(r, rep);
  r.min_slack = complete >= 0 ? complete - last : 0;
  h.add(rep.steps);
  h.add(static_cast<std::uint64_t>(r.min_slack));
  r.digest = h.value();
  sp.close(bnd);
  sp.close(ver);

  const int td = sp.open("teardown", root);
  exec.reset();
  inv.reset();
  cert.reset();
  flight.reset();
  sp.close(td);
  sp.close(root);
  return r;
}

// The S/R buffers inside one node composite (Simulation 1).
void add_buffer_stats(Iter& r, Machine& inner) {
  auto& comp = dynamic_cast<CompositeMachine&>(inner);
  for (std::size_t k = 0; k < comp.size(); ++k) {
    if (const auto* rb = dynamic_cast<const ReceiveBuffer*>(&comp.member(k))) {
      r.received += rb->stats().received;
      r.buffered += rb->stats().buffered;
    }
  }
}

// Assembles run_rw_clock / run_rw_mmt (rw/harness.cpp) from the same public
// pieces — make_clients, make_rw_algorithms, DriftModel::generate,
// add_clock_system / add_mmt_system — so each layer can be timed on its
// own; --equivalence checks the two agree.
Iter register_iteration(Kind kind, std::uint64_t seed, Tracer* tr,
                        bool keep_ops = false) {
  const bool mmt = kind == Kind::kMmt;
  const RwRunConfig cfg = register_config(kind, seed);
  const int k = mmt_k(cfg);
  Iter r;
  r.input = seed;
  r.traced = tr != nullptr;
  r.attempted = static_cast<std::size_t>(cfg.num_nodes) *
                static_cast<std::size_t>(cfg.ops_per_node);
  SpanLog& sp = r.spans;
  const int root = sp.open("iteration", -1);
  const int setup = sp.open("setup", root);

  const int clk = sp.open("clock", setup);
  std::vector<std::shared_ptr<const ClockTrajectory>> trajs;
  Rng seeder(cfg.seed ^ 0xc1c1c1c1ULL);
  for (int i = 0; i < cfg.num_nodes; ++i) {
    Rng rng = seeder.split();
    auto traj = std::make_shared<ClockTrajectory>(
        drift_model().generate(cfg.eps, cfg.horizon, rng));
    traj->validate(cfg.horizon);
    r.segments += traj->points().size();
    trajs.push_back(std::move(traj));
  }
  sp.close(clk);

  const int asm_ = sp.open("assemble", setup);
  const std::size_t heap0 = tr != nullptr ? heap_bytes() : 0;
  ExecutorOptions eo;
  eo.horizon = cfg.horizon;
  eo.seed = cfg.seed;
  auto exec = std::make_unique<Executor>(eo);
  ClientOptions co;
  co.num_ops = cfg.ops_per_node;
  co.think_min = cfg.think_min;
  co.think_max = cfg.think_max;
  co.write_fraction = cfg.write_fraction;
  std::vector<RwClient*> clients;
  for (auto& c : make_clients(cfg.num_nodes, co, cfg.seed ^ 0xc7, &clients)) {
    exec->add_owned(std::move(c));
  }
  const Graph g = Graph::complete_with_self_loops(cfg.num_nodes);
  RwParams p;
  p.num_nodes = cfg.num_nodes;
  p.c = cfg.c;
  p.delta = cfg.delta;
  p.d2_prime = mmt ? mmt_d2(cfg.d2, cfg.eps, k, kMmtEll)
                   : timed_d2(cfg.d2, cfg.eps);
  p.two_eps = cfg.super ? 2 * cfg.eps : 0;
  p.v0 = cfg.v0;
  ChannelConfig cc;
  cc.d1 = cfg.d1;
  cc.d2 = cfg.d2;
  cc.seed = cfg.seed ^ 0xe5e5;
  std::vector<Machine*> nodes;  // one composite host per node
  std::vector<Channel*> channels;
  std::vector<TickSource*> ticks;
  if (mmt) {
    MmtConfig mc;
    mc.ell = kMmtEll;
    mc.seed = cfg.seed ^ 0x4d4d54;
    auto h = add_mmt_system(*exec, g, cc,
                            make_rw_algorithms(cfg.num_nodes, p), trajs, mc);
    for (MmtNode* n : h.nodes) nodes.push_back(&n->inner());
    channels = h.channels;
    ticks = h.ticks;
    exec->stop_when([clients] {
      for (const auto* c : clients) {
        if (!c->finished()) return false;
      }
      return true;
    });
  } else {
    auto h = add_clock_system(*exec, g, cc,
                              make_rw_algorithms(cfg.num_nodes, p), trajs);
    for (ClockedMachine* n : h.nodes) nodes.push_back(&n->inner());
    channels = h.channels;
  }
  r.machines = exec->machine_count();
  if (tr != nullptr) {
    r.bytes_per_machine = static_cast<double>(heap_bytes() - heap0) /
                          static_cast<double>(r.machines);
  }
  sp.close(asm_);

  const int lint = sp.open("lint", setup);
  const DiagnosticReport lint_rep = exec->validate_composition();
  sp.close(lint);
  const int cert_s = sp.open("certify", setup);
  BoundCertOptions bo;
  bo.eps = cfg.eps;
  bo.d1 = cfg.d1;
  bo.d2 = cfg.d2;
  if (mmt) bo.ell = kMmtEll;
  CertificateProbe cert(bo);
  cert.harvest(exec->composition());
  sp.close(cert_s);
  if (tr != nullptr) tr->attach(*exec);
  sp.close(setup);

  const int run = sp.open("run", root);
  const ExecutorReport rep = exec->run();
  sp.close(run);

  const int ver = sp.open("verify", root);
  std::vector<Operation> ops = collect_operations(clients);
  const int chk = sp.open("check", ver);
  const LinearizabilityResult lin = check_linearizable(ops, cfg.v0);
  sp.close(chk);
  const int fs = sp.open("flood_safe", ver);
  sp.close(fs);  // no flood on this workload
  const int bnd = sp.open("bounds", ver);
  r.check_states = lin.states;
  r.completed = ops.size();
  // Theorem 6.5 bounds hold in clock time; real time may drift by 2 eps.
  // Theorem 5.2 adds the MMT shift and the k * ell design widening.
  const Duration shift = mmt ? mmt_shift_bound(k, kMmtEll, cfg.eps) : 0;
  const Duration design = mmt ? static_cast<Duration>(k) * kMmtEll : 0;
  const Duration read_bound = bound_read_clock(cfg) + 2 * cfg.eps + shift;
  const Duration write_bound =
      bound_write_clock(cfg) + design + 2 * cfg.eps + shift;
  std::vector<Duration> reads, writes;
  std::size_t late = 0;
  Duration slack = kTimeMax;
  Fnv h;
  for (const Operation& op : ops) {
    const bool is_read = op.kind == Operation::Kind::kRead;
    const Duration lat = op.res - op.inv;
    const Duration s = (is_read ? read_bound : write_bound) - lat;
    (is_read ? reads : writes).push_back(lat);
    slack = std::min(slack, s);
    if (s < 0) ++late;
    h.add(static_cast<std::uint64_t>(op.proc));
    h.add(is_read ? 0 : 1);
    h.add(static_cast<std::uint64_t>(op.value));
    h.add(static_cast<std::uint64_t>(op.inv));
    h.add(static_cast<std::uint64_t>(op.res));
  }
  r.failed = late + (r.attempted - std::min(ops.size(), r.attempted));
  if (r.failed > 0) {
    r.problems.push_back(std::to_string(late) + " op(s) out of bound, " +
                         std::to_string(r.attempted - ops.size()) +
                         " not completed");
  }
  if (!lin.conclusive) {
    r.fail_all("linearizability inconclusive after " +
               std::to_string(lin.states) + " states");
  } else if (!lin.ok) {
    r.fail_all("linearizability violated: " + lin.why);
  }
  r.events = rep.steps;
  r.stats = rep.stats;
  for (Machine* n : nodes) add_buffer_stats(r, *n);
  for (const Channel* ch : channels) r.messages += ch->stats().delivered;
  for (const TickSource* t : ticks) r.ticks += t->ticks();
  r.analysis_errors = lint_rep.errors() + cert.report().errors();
  check_run(r, rep);
  r.read_p99 = p99(std::move(reads));
  r.write_p99 = p99(std::move(writes));
  r.min_slack = slack == kTimeMax ? 0 : slack;
  h.add(rep.steps);
  h.add(static_cast<std::uint64_t>(r.read_p99));
  h.add(static_cast<std::uint64_t>(r.write_p99));
  h.add(r.buffered);
  h.add(static_cast<std::uint64_t>(r.min_slack));
  r.digest = h.value();
  if (keep_ops) r.ops = std::move(ops);
  sp.close(bnd);
  sp.close(ver);

  const int td = sp.open("teardown", root);
  exec.reset();
  trajs.clear();
  sp.close(td);
  sp.close(root);
  return r;
}

Iter run_iteration(Kind kind, std::uint64_t seed, Tracer* tr) {
  return kind == Kind::kFlood ? flood_iteration(seed, tr)
                              : register_iteration(kind, seed, tr);
}

// --- output -------------------------------------------------------------------

std::string num(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string str(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

// Minimal JSON object writer: fields are appended in call order.
class Obj {
 public:
  Obj& add(const char* key, const std::string& raw) {
    out_ += (out_.size() > 1 ? ", " : "") + str(key) + ": " + raw;
    return *this;
  }
  Obj& add(const char* key, double v) { return add(key, num(v)); }
  Obj& add(const char* key, std::uint64_t v) {
    return add(key, std::to_string(v));
  }
  std::string done() const { return out_ + "}"; }

 private:
  std::string out_ = "{";
};

std::string profile_json(const ProfReport& p) {
  const auto entries = [](const std::vector<ProfEntry>& es) {
    Obj o;
    for (const ProfEntry& e : es) o.add(e.name.c_str(), e.ns);
    return o.done();
  };
  return Obj()
      .add("events", p.events)
      .add("cpu_ns", p.cpu_ns)
      .add("phases", entries(p.phases))
      .add("kinds", entries(p.kinds))
      .done();
}

void print_record(const Iter& r, double origin, const Tracer* tr) {
  const auto parent_name = [&r](const Span& s) {
    return r.spans.spans()[static_cast<std::size_t>(s.parent)].name;
  };
  std::string spans = "[";
  for (const Span& s : r.spans.spans()) {
    spans += (spans.size() > 1 ? ", " : "") +
             Obj().add("name", str(s.name))
                 .add("start_s", s.start - origin)
                 .add("end_s", s.end - origin)
                 .add("parent", s.parent < 0 ? "null" : str(parent_name(s)))
                 .done();
  }
  spans += "]";
  std::string problems = "[";
  for (const std::string& p : r.problems) {
    problems += (problems.size() > 1 ? ", " : "") + str(p);
  }
  problems += "]";
  char digest[17];
  std::snprintf(digest, sizeof digest, "%016" PRIx64, r.digest);
  const ExecutorStats& st = r.stats;
  Obj o;
  o.add("input", r.input)
      .add("traced", r.traced ? "true" : "false")
      .add("spans", spans)
      .add("machines", std::uint64_t{r.machines})
      .add("events", std::uint64_t{r.events})
      .add("stats", Obj().add("time_advances", st.time_advances)
                        .add("dirty_repolls", st.dirty_repolls)
                        .add("cand_cache_hits", st.cand_cache_hits)
                        .add("kind_memo_hits", st.kind_memo_hits)
                        .add("stale_drops", st.wheel.stale_drops)
                        .add("cascades", st.wheel.cascades)
                        .done())
      .add("segments", std::uint64_t{r.segments})
      .add("messages", std::uint64_t{r.messages})
      .add("received", std::uint64_t{r.received})
      .add("buffered", std::uint64_t{r.buffered})
      .add("ticks", std::uint64_t{r.ticks})
      .add("completed", std::uint64_t{r.completed})
      .add("check_states", std::uint64_t{r.check_states})
      .add("analysis_errors", std::uint64_t{r.analysis_errors})
      .add("flight_records", r.flight_records)
      .add("attempted", std::uint64_t{r.attempted})
      .add("failed", std::uint64_t{r.failed})
      .add("problems", problems)
      .add("digest", str(digest))
      .add("read_p99_ns", static_cast<double>(r.read_p99))
      .add("write_p99_ns", static_cast<double>(r.write_p99))
      .add("min_slack_ns", static_cast<double>(r.min_slack));
  if (tr != nullptr) {
    o.add("bytes_per_machine", r.bytes_per_machine)
        .add("cold_start_s", tr->probe.cold_start_s())
        .add("probe_events", tr->probe.events())
        .add("profile", profile_json(tr->prof.report()));
  }
  std::cout << Obj().add("iteration", o.done()).done() << "\n";
}

// --- driver ---------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool equivalence = false;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "psc-perfbench: %s\nusage: psc-perfbench --workload "
               "flood_ring|register_clock|register_mmt --seed N "
               "(--seconds S --trace 0|1 | --equivalence)\n",
               why.c_str());
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--equivalence") {
      a.equivalence = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + k);
    const std::string v = argv[++i];
    char* end = nullptr;
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
      if (v.empty() || *end != '\0') usage("bad --seed");
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v.c_str(), &end);
      if (v.empty() || *end != '\0' || !(a.seconds > 0)) usage("bad --seconds");
    } else if (k == "--trace") {
      if (v != "0" && v != "1") usage("bad --trace");
      a.trace = v == "1";
    } else {
      usage("unknown argument " + k);
    }
  }
  return a;
}

bool same_ops(const std::vector<Operation>& a, const std::vector<Operation>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].proc != b[i].proc || a[i].kind != b[i].kind ||
        a[i].value != b[i].value || a[i].inv != b[i].inv ||
        a[i].res != b[i].res) {
      return false;
    }
  }
  return true;
}

int equivalence(const Workload& w, std::uint64_t seed) {
  if (w.kind == Kind::kFlood) {
    std::printf("equivalence: %s has no library harness to compare\n", w.name);
    return 0;
  }
  const Iter ours = register_iteration(w.kind, seed, nullptr, /*keep_ops=*/true);
  const RwRunConfig cfg = register_config(w.kind, seed);
  const RwRunResult ref =
      w.kind == Kind::kMmt
          ? run_rw_mmt(cfg, drift_model(), kMmtEll, mmt_k(cfg))
          : run_rw_clock(cfg, drift_model());
  const bool ok = same_ops(ours.ops, ref.ops) && ours.events == ref.events.size();
  std::printf("equivalence %s seed=%" PRIu64
              ": %s (ops %zu vs harness %zu, events %zu vs harness %zu)\n",
              w.name, seed, ok ? "ok" : "MISMATCH", ours.ops.size(),
              ref.ops.size(), ours.events, ref.events.size());
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  const Workload* wp = nullptr;
  for (const Workload& w : kWorkloads) {
    if (args.workload == w.name) wp = &w;
  }
  if (wp == nullptr) usage("unknown or missing --workload");
  if (args.equivalence) return equivalence(*wp, args.seed);

  // Never start an iteration that could push the process past ~100 s.
  constexpr double kHardStop = 100.0;
  const double origin = now_s();
  double longest = 0;
  // Peak RSS as one psc-sim run sees it: the high-water mark after the
  // first iteration, before later ones add allocator fragmentation.
  double first_peak_rss_mb = 0;
  for (int i = 0;; ++i) {
    const double elapsed = now_s() - origin;
    if (i > 0 && (elapsed >= args.seconds || elapsed + longest > kHardStop)) {
      break;
    }
    const double t0 = now_s();
    print_record(run_iteration(wp->kind, args.seed, nullptr), origin, nullptr);
    if (i == 0) first_peak_rss_mb = peak_rss_mb();
    if (args.trace) {
      Tracer tr;
      print_record(run_iteration(wp->kind, args.seed, &tr), origin, &tr);
    }
    longest = std::max(longest, now_s() - t0);
  }
  std::cout << Obj()
                   .add("process", Obj().add("peak_rss_mb", first_peak_rss_mb)
                                       .done())
                   .done()
            << std::endl;
  return 0;
}
