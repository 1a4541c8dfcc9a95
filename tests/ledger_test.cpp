// Event-ledger consumers: every checker and probe that matches deliveries
// to sends, or measures TICK/MMT-step gaps, must keep reporting exactly the
// pinned diagnostics, metrics and causal DAG.
//
// LedgerConsumers.* run three seeded assemblies — a flood in the timed
// model, register S under Simulation 1 and register S under both
// simulations — with all seven consumers attached (InvariantProbe,
// CertificateProbe, BoundSlackProbe, ChannelLatencyProbe,
// Sim1BufferProbe, MmtProbe, CausalTraceProbe). The checker options are
// deliberately tighter than the assemblies' real bounds, so PSC101, 102,
// 104, 105 and 106 all fire and the diagnostics pin *which* events each
// check matched. Three digests are pinned per run: the diagnostic JSONL
// (message uids renumbered by first appearance — uids come from a
// process-global counter), the metrics registry dump, and the
// uid-normalized causal DAG text. Each run is also replayed through
// check_trace after a text round-trip, where every event has kind = -1, so
// the name fallback must classify exactly as the interned-kind memo does.
//
// EventLedger.* unit-test the ledger itself: the classifier, the per-uid
// record (sends before the earliest uid, deliveries without a send,
// re-sent and sparse uids) and the TICK / MMT-step gap trackers.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <cstdio>
#include <map>
#include <optional>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "algos/flood.hpp"
#include "analysis/bounds.hpp"
#include "analysis/ledger.hpp"
#include "analysis/trace_check.hpp"
#include "channel/channel.hpp"
#include "clock/trajectory.hpp"
#include "core/trace_io.hpp"
#include "mmt/mmt_system.hpp"
#include "obs/causal.hpp"
#include "obs/instrument.hpp"
#include "obs/metrics.hpp"
#include "runtime/composite.hpp"
#include "runtime/executor.hpp"
#include "runtime/system.hpp"
#include "rw/algorithm.hpp"
#include "rw/client.hpp"
#include "rw/harness.hpp"
#include "transform/buffers.hpp"
#include "transform/clock_system.hpp"

namespace psc {
namespace {

std::string fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

// Renumbers every "uid <n>" by first appearance.
std::string normalize_uids(const std::string& s) {
  std::map<std::string, std::size_t> ids;
  std::string out;
  std::size_t i = 0;
  while (i < s.size()) {
    if (s.compare(i, 4, "uid ") == 0 && i + 4 < s.size() &&
        std::isdigit(static_cast<unsigned char>(s[i + 4]))) {
      std::size_t j = i + 4;
      while (j < s.size() && std::isdigit(static_cast<unsigned char>(s[j]))) {
        ++j;
      }
      const auto it = ids.emplace(s.substr(i + 4, j - i - 4), ids.size() + 1);
      out += "uid " + std::to_string(it.first->second);
      i = j;
      continue;
    }
    out += s[i++];
  }
  return out;
}

std::string report_jsonl(const DiagnosticReport& r) {
  std::ostringstream os;
  r.write_jsonl(os);
  return os.str();
}

struct Pinned {
  std::string diags;     // lint + cert report JSONL, uids normalized
  std::string registry;  // metrics registry JSONL
  std::string dag;       // CausalDag::to_text()
  std::size_t lint_codes = 0;  // distinct PSC1xx codes the run raised
  bool round_trip_equal = false;
};

// Everything a run needs besides the assembly itself: the seven consumers,
// wired through one RunObserver the way psc-sim and the harnesses wire
// them.
class Consumers {
 public:
  Consumers(const TraceCheckOptions& lo, const BoundCertOptions& bo,
            const SlackOptions& so)
      : lint_opts_(lo), lint_(lo), cert_(bo) {
    obs_.registry = &reg_;
    obs_.causal = &causal_;
    obs_.lint = &lint_;
    obs_.cert = &cert_;
    obs_.slack = true;
    observer_ = std::make_unique<RunObserver>(&obs_);
    observer_->add_channel_latency(so.d1, so.d2);
    observer_->add_slack(so);
    buffers_ = observer_->add_buffers();
    mmt_ = observer_->add_mmt();
  }

  Sim1BufferProbe* buffers() { return buffers_; }
  MmtProbe* mmt() { return mmt_; }
  CausalTraceProbe& causal() { return causal_; }

  Pinned run(Executor& exec) {
    observer_->attach(exec);
    exec.run();
    Pinned p;
    p.diags = normalize_uids(report_jsonl(lint_.report()) +
                             report_jsonl(cert_.report()));
    std::ostringstream reg;
    reg_.write_jsonl(reg);
    p.registry = reg.str();
    p.dag = causal_.dag().to_text();
    for (int code = 101; code <= 107; ++code) {
      if (lint_.report().count(static_cast<DiagCode>(code)) > 0) {
        ++p.lint_codes;
      }
    }
    const TimedTrace replay = trace_from_text(trace_to_text(exec.events()));
    bool all_name_path = !replay.empty();
    for (const TimedEvent& e : replay) all_name_path &= e.kind < 0;
    p.round_trip_equal =
        all_name_path && report_jsonl(check_trace(replay, lint_opts_)) ==
                             report_jsonl(lint_.report());
    return p;
  }

 private:
  TraceCheckOptions lint_opts_;
  MetricsRegistry reg_;
  CausalTraceProbe causal_;
  InvariantProbe lint_;
  CertificateProbe cert_;
  ObsOptions obs_;
  std::unique_ptr<RunObserver> observer_;
  Sim1BufferProbe* buffers_ = nullptr;
  MmtProbe* mmt_ = nullptr;
};

// Register-run shape shared by the clock and MMT assemblies: clocks skew
// in opposite directions, so Simulation-1 receive buffers really hold
// messages, and transit stays under 2 eps.
constexpr int kNodes = 3;
constexpr Duration kD1 = microseconds(20);
constexpr Duration kD2 = microseconds(60);
constexpr Duration kEps = microseconds(40);
constexpr Duration kEll = microseconds(10);

void add_register_clients(Executor& exec, std::uint64_t seed,
                          std::vector<RwClient*>* handles) {
  ClientOptions co;
  co.num_ops = 6;
  co.think_max = microseconds(300);
  for (auto& c : make_clients(kNodes, co, seed ^ 0xc7, handles)) {
    exec.add_owned(std::move(c));
  }
}

std::vector<std::shared_ptr<const ClockTrajectory>> trajectories(
    std::uint64_t seed) {
  std::vector<std::shared_ptr<const ClockTrajectory>> out;
  Rng seeder(seed ^ 0xc1c1c1c1ULL);
  const OpposingOffsetDrift drift;
  for (int i = 0; i < kNodes; ++i) {
    Rng r = seeder.split();
    out.push_back(std::make_shared<ClockTrajectory>(
        drift.generate(kEps, seconds(5), r)));
  }
  return out;
}

ChannelConfig register_channels(std::uint64_t seed) {
  ChannelConfig cc;
  cc.d1 = kD1;
  cc.d2 = kD2;
  cc.seed = seed ^ 0xe5e5;
  return cc;
}

std::vector<std::unique_ptr<Machine>> register_algorithms(Duration d2_prime) {
  RwParams p;
  p.num_nodes = kNodes;
  p.c = microseconds(30);
  p.d2_prime = d2_prime;
  p.two_eps = 2 * kEps;
  return make_rw_algorithms(kNodes, p);
}

// Checker options tighter than the assemblies' real bounds, so the checks
// fire at specific events.
TraceCheckOptions tight_lint(Duration eps, Duration ell) {
  TraceCheckOptions lo;
  lo.d1 = kD1;
  lo.d2 = microseconds(45);
  lo.eps = eps;
  lo.ell = ell;
  lo.num_nodes = kNodes;
  return lo;
}

// Certificates are derived from the real bounds: the runs stay inside
// them, so PSC206 must stay silent while the tight checker fires.
BoundCertOptions register_cert(Duration ell) {
  BoundCertOptions bo;
  bo.eps = kEps;
  bo.d1 = kD1;
  bo.d2 = kD2;
  bo.ell = ell;
  return bo;
}

Pinned run_flood() {
  const Duration d1 = microseconds(100);
  const Duration d2 = microseconds(200);
  TraceCheckOptions lo;
  lo.d1 = d1;
  lo.d2 = microseconds(170);
  lo.num_nodes = 8;
  BoundCertOptions bo;
  bo.d1 = d1;
  bo.d2 = d2;
  Consumers c(lo, bo, {.d1 = d1, .d2 = microseconds(170)});
  Executor exec({.horizon = seconds(10), .seed = 4711});
  const Graph g = Graph::ring(8);
  ChannelConfig cc;
  cc.d1 = d1;
  cc.d2 = d2;
  cc.seed = 4711 ^ 0xf100d;
  add_timed_system(exec, g, cc,
                   make_flood_nodes(g, /*source=*/0, /*payload=*/42,
                                    /*hops_bound=*/g.n, d2,
                                    microseconds(10)));
  return c.run(exec);
}

Pinned run_clock() {
  const std::uint64_t seed = 2;
  Consumers c(tight_lint(microseconds(30), -1),
              register_cert(-1),
              {.eps = microseconds(30), .d1 = kD1, .d2 = microseconds(45)});
  Executor exec({.horizon = seconds(5), .seed = seed});
  std::vector<RwClient*> clients;
  add_register_clients(exec, seed, &clients);
  const auto handles = add_clock_system(
      exec, Graph::complete_with_self_loops(kNodes), register_channels(seed),
      register_algorithms(timed_d2(kD2, kEps)), trajectories(seed));
  for (ClockedMachine* node : handles.nodes) {
    auto& comp = dynamic_cast<CompositeMachine&>(node->inner());
    for (std::size_t k = 0; k < comp.size(); ++k) {
      if (auto* rb = dynamic_cast<ReceiveBuffer*>(&comp.member(k))) {
        c.buffers()->watch(rb);
        c.causal().watch(rb);
      } else if (const auto* sb =
                     dynamic_cast<const SendBuffer*>(&comp.member(k))) {
        c.buffers()->watch(sb);
      }
    }
  }
  return c.run(exec);
}

Pinned run_mmt() {
  const std::uint64_t seed = 2;
  const int k = kNodes + 2;
  Consumers c(tight_lint(microseconds(30), microseconds(6)),
              register_cert(kEll),
              {.eps = microseconds(30),
               .d1 = kD1,
               .d2 = microseconds(45),
               .ell = microseconds(6)});
  Executor exec({.horizon = seconds(5), .seed = seed});
  std::vector<RwClient*> clients;
  add_register_clients(exec, seed, &clients);
  MmtConfig mc;
  mc.ell = kEll;
  mc.seed = seed ^ 0x4d4d54;
  const auto handles = add_mmt_system(
      exec, Graph::complete_with_self_loops(kNodes), register_channels(seed),
      register_algorithms(mmt_d2(kD2, kEps, k, kEll)), trajectories(seed),
      mc);
  for (const MmtNode* node : handles.nodes) c.mmt()->watch(node);
  exec.stop_when([clients] {
    for (const RwClient* cl : clients) {
      if (!cl->finished()) return false;
    }
    return true;
  });
  return c.run(exec);
}

TEST(LedgerConsumers, FloodTimedModelIsPinned) {
  const Pinned p = run_flood();
  EXPECT_GE(p.lint_codes, 1u);
  EXPECT_TRUE(p.round_trip_equal);
  EXPECT_EQ(fnv1a(p.diags), "dab0691190db2b4b") << p.diags.substr(0, 400);
  EXPECT_EQ(fnv1a(p.registry), "55fb2890eba409f5");
  EXPECT_EQ(fnv1a(p.dag), "43f6a46c62789706");
}

TEST(LedgerConsumers, RegisterSimulation1IsPinned) {
  const Pinned p = run_clock();
  EXPECT_GE(p.lint_codes, 3u);
  EXPECT_TRUE(p.round_trip_equal);
  EXPECT_EQ(fnv1a(p.diags), "9415fe8c2fc4ac1a") << p.diags.substr(0, 400);
  EXPECT_EQ(fnv1a(p.registry), "3fc0ce81cc0ea540");
  EXPECT_EQ(fnv1a(p.dag), "37e0bd4f9ce5b304");
}

TEST(LedgerConsumers, RegisterBothSimulationsIsPinned) {
  const Pinned p = run_mmt();
  EXPECT_GE(p.lint_codes, 4u);
  EXPECT_TRUE(p.round_trip_equal);
  EXPECT_EQ(fnv1a(p.diags), "dc540558a663a760") << p.diags.substr(0, 400);
  EXPECT_EQ(fnv1a(p.registry), "d10621ee3f2ba053");
  EXPECT_EQ(fnv1a(p.dag), "94da888c67c46f60");
}

TEST(LedgerConsumers, ChannelMetricsIndependentOfCausalProbe) {
  // Every probe matches through its own ledger, so attaching the causal
  // probe must not move a channel metric.
  auto metrics_text = [](bool with_causal) {
    CausalTraceProbe probe;
    MetricsRegistry reg;
    ObsOptions obs;
    obs.registry = &reg;
    if (with_causal) obs.causal = &probe;
    RwRunConfig cfg;
    cfg.num_nodes = kNodes;
    cfg.d1 = kD1;
    cfg.d2 = kD2;
    cfg.eps = kEps;
    cfg.c = microseconds(30);
    cfg.ops_per_node = 6;
    cfg.think_max = microseconds(300);
    cfg.horizon = seconds(5);
    cfg.seed = 42;
    cfg.obs = &obs;
    run_rw_clock(cfg, PerfectDrift());
    const Histogram* h = reg.find_histogram("channel.latency_ns");
    EXPECT_NE(h, nullptr);
    EXPECT_GT(h != nullptr ? h->count() : 0, 0u);
    std::ostringstream os;
    reg.write_jsonl(os);
    return os.str();
  };
  EXPECT_EQ(metrics_text(true), metrics_text(false));
}

// --- EventLedger unit ----------------------------------------------------

// Flight snapshots store the class byte, so the values are a file format.
static_assert(static_cast<int>(EventClass::kOther) == 0);
static_assert(static_cast<int>(EventClass::kSend) == 1);
static_assert(static_cast<int>(EventClass::kRecv) == 2);
static_assert(static_cast<int>(EventClass::kESend) == 3);
static_assert(static_cast<int>(EventClass::kERecv) == 4);
static_assert(static_cast<int>(EventClass::kTick) == 5);
static_assert(static_cast<int>(EventClass::kMmtStep) == 6);

TimedEvent message_event(Action a, Time t) {
  TimedEvent e;
  e.action = std::move(a);
  e.time = t;
  return e;
}

Message with_uid(std::uint64_t uid, Time tag = kNoClockTag) {
  Message m = make_message("PING");
  m.uid = uid;
  m.clock_tag = tag;
  return m;
}

// Classifies and matches one event, as every consumer does.
const EventLedger::Record& feed(EventLedger& ledger, const TimedEvent& e) {
  return ledger.match(e, ledger.classify(e));
}

TEST(EventLedger, ClassifiesConventionalNames) {
  EXPECT_EQ(classify_name("SENDMSG"), EventClass::kSend);
  EXPECT_EQ(classify_name("RECVMSG"), EventClass::kRecv);
  EXPECT_EQ(classify_name("ESENDMSG"), EventClass::kESend);
  EXPECT_EQ(classify_name("ERECVMSG"), EventClass::kERecv);
  EXPECT_EQ(classify_name("TICK"), EventClass::kTick);
  EXPECT_EQ(classify_name("MMTSTEP"), EventClass::kMmtStep);
  for (const char* other : {"", "DELIVER", "SENDMSGX", "SENDMS", "sendmsg",
                            "EXECVMSG", "ESENDMSH", "TOCK", "MMTSTEQ"}) {
    EXPECT_EQ(classify_name(other), EventClass::kOther) << other;
  }
  // The per-kind memo answers what the name answers, and a second kind id
  // for the same name is classified on its own.
  EventLedger ledger;
  TimedEvent e = message_event(make_action("TICK", 0), 1);
  e.kind = 3;
  EXPECT_EQ(ledger.classify(e), EventClass::kTick);
  EXPECT_EQ(ledger.classify(e), EventClass::kTick);
  e.action.name = "WRITE";
  e.kind = 0;
  EXPECT_EQ(ledger.classify(e), EventClass::kOther);
  e.kind = kNoKind;
  e.action.name = "MMTSTEP";
  EXPECT_EQ(ledger.classify(e), EventClass::kMmtStep);
}

TEST(EventLedger, SendsRecordTimesAndTheTag) {
  EventLedger ledger;
  const Message m = with_uid(100, /*tag=*/microseconds(4));
  Message untagged = m;
  untagged.clock_tag = kNoClockTag;
  feed(ledger, message_event(make_send(0, 1, untagged), microseconds(5)));
  const EventLedger::Record& sent =
      feed(ledger, message_event(make_send(0, 1, m, "ESENDMSG"),
                                 microseconds(5)));
  EXPECT_EQ(sent.tag, microseconds(4));  // a trace may lack the ERECVMSG
  const EventLedger::Record& arrived =
      feed(ledger, message_event(make_recv(1, 0, m, "ERECVMSG"),
                                 microseconds(9)));
  EXPECT_EQ(arrived.send_time, microseconds(5));
  EXPECT_EQ(arrived.esend_time, microseconds(5));
  EXPECT_EQ(arrived.erecv_time, microseconds(9));
  EXPECT_EQ(arrived.tag, microseconds(4));
  // The receive buffer strips the tag before release; the record keeps it.
  const EventLedger::Record& released = feed(
      ledger, message_event(make_recv(1, 0, untagged), microseconds(12)));
  EXPECT_EQ(released.tag, microseconds(4));
  EXPECT_EQ(released.erecv_time, microseconds(9));
  EXPECT_TRUE(released.sent());
}

TEST(EventLedger, SendBeforeTheEarliestUid) {
  // An earlier-created message observed after later ones lands below the
  // dense range's base; every uid keeps its own record.
  EventLedger ledger;
  for (std::uint64_t uid = 50; uid < 60; ++uid) {
    feed(ledger, message_event(make_send(0, 1, with_uid(uid)),
                               static_cast<Time>(uid)));
  }
  feed(ledger, message_event(make_send(0, 1, with_uid(7)), 1000));
  ASSERT_NE(ledger.find(7), nullptr);
  EXPECT_EQ(ledger.find(7)->send_time, 1000);
  for (std::uint64_t uid = 50; uid < 60; ++uid) {
    ASSERT_NE(ledger.find(uid), nullptr);
    EXPECT_EQ(ledger.find(uid)->send_time, static_cast<Time>(uid));
  }
  // Uids between them were never written: all fields unset.
  const EventLedger::Record* gap = ledger.find(20);
  EXPECT_TRUE(gap == nullptr || !gap->sent());
}

TEST(EventLedger, DeliveryWithoutASend) {
  EventLedger ledger;
  const Message m = with_uid(9, /*tag=*/123);
  // RECVMSG of an unknown uid reads an empty record and creates nothing.
  const EventLedger::Record& recv =
      feed(ledger, message_event(make_recv(1, 0, m), 10));
  EXPECT_FALSE(recv.sent());
  EXPECT_EQ(recv.erecv_time, -1);
  EXPECT_EQ(ledger.find(9), nullptr);
  // ERECVMSG records its arrival but, with no ESENDMSG seen, not the tag.
  const EventLedger::Record& erecv =
      feed(ledger, message_event(make_recv(1, 0, m, "ERECVMSG"), 20));
  EXPECT_FALSE(erecv.sent());
  EXPECT_EQ(erecv.erecv_time, 20);
  EXPECT_EQ(erecv.tag, kNoClockTag);
  // A message-less event of a send class records nothing either.
  TimedEvent bare = message_event(make_action("SENDMSG", 0), 30);
  EXPECT_FALSE(feed(ledger, bare).sent());
}

TEST(EventLedger, ResentUidLatestSendWins) {
  EventLedger ledger;
  const Message m = with_uid(5);
  feed(ledger, message_event(make_send(0, 1, m), 100));
  feed(ledger, message_event(make_recv(1, 0, m), 150));
  feed(ledger, message_event(make_send(0, 1, m), 400));
  const EventLedger::Record& r =
      feed(ledger, message_event(make_recv(1, 0, m), 420));
  EXPECT_EQ(r.send_time, 400);
}

TEST(EventLedger, SparseUidsDoNotSpanTheRange) {
  // 1 and 10^15 in either order, a huge uid mid-run, then a descending
  // run: each is findable, and nothing allocates the range between.
  for (const bool ascending : {true, false}) {
    EventLedger ledger;
    const std::uint64_t lo = 1;
    const std::uint64_t hi = 1000000000000000ull;
    feed(ledger, message_event(make_send(0, 1, with_uid(ascending ? lo : hi)),
                               1));
    feed(ledger, message_event(make_send(0, 1, with_uid(ascending ? hi : lo)),
                               2));
    feed(ledger, message_event(make_send(0, 1, with_uid(~0ull)), 3));
    for (std::uint64_t uid = 2000000; uid > 1000000; uid -= 7) {
      feed(ledger, message_event(make_send(0, 1, with_uid(uid)),
                                 static_cast<Time>(uid)));
    }
    EXPECT_EQ(ledger.find(ascending ? lo : hi)->send_time, 1);
    EXPECT_EQ(ledger.find(ascending ? hi : lo)->send_time, 2);
    EXPECT_EQ(ledger.find(~0ull)->send_time, 3);
    EXPECT_EQ(ledger.find(1300000)->send_time, 1300000);
    EXPECT_EQ(ledger.find(2000000)->send_time, 2000000);
  }
}

TEST(EventLedger, OverflowedUidKeepsOneRecordAsTheRangeGrows) {
  // Uid 10000 arrives when the dense range is too young to stretch that
  // far, so it overflows; monotone uids then grow the range past it. Its
  // later events must still reach the one overflow record.
  EventLedger ledger;
  feed(ledger, message_event(make_send(0, 1, with_uid(1)), 1));
  feed(ledger, message_event(make_send(0, 1, with_uid(10000)), 77));
  for (std::uint64_t uid = 2; uid <= 10001; ++uid) {
    if (uid == 10000) continue;
    feed(ledger, message_event(make_send(0, 1, with_uid(uid)), 2));
  }
  feed(ledger,
       message_event(make_send(0, 1, with_uid(10000), "ESENDMSG"), 80));
  const EventLedger::Record* r = ledger.find(10000);
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->send_time, 77);
  EXPECT_EQ(r->esend_time, 80);
}

TEST(EventLedger, TickGapsPerNodeIgnoreNodelessTicks) {
  EventLedger ledger;
  auto tick = [&](int node, Time t) {
    const TimedEvent e = message_event(make_action("TICK", node), t);
    return ledger.tick_gap(e, ledger.classify(e));
  };
  EXPECT_EQ(tick(0, 7), 7);  // the first gap runs from time 0
  EXPECT_EQ(tick(1, 9), 9);
  EXPECT_EQ(tick(0, 12), 5);
  // A TICK from kNoNode is no node's tick: not tracked, no gap.
  EXPECT_EQ(tick(kNoNode, 20), std::nullopt);
  EXPECT_EQ(ledger.last_tick(kNoNode), std::nullopt);
  EXPECT_EQ(ledger.last_tick(0), 12);
  EXPECT_EQ(ledger.last_tick(2), std::nullopt);
  // Other classes are not ticks.
  const TimedEvent step = message_event(make_action("MMTSTEP", 0), 30);
  EXPECT_EQ(ledger.tick_gap(step, ledger.classify(step)), std::nullopt);
}

TEST(EventLedger, StepGapsStartOnceTheOwnerIsAnMmtNode) {
  EventLedger ledger;
  auto step = [&](const char* name, int owner, Time t) {
    TimedEvent e = message_event(make_action(name, 0), t);
    e.owner = owner;
    return ledger.step_gap(e, ledger.classify(e));
  };
  EXPECT_EQ(step("WRITE", 4, 3), std::nullopt);  // not yet an MMT node
  EXPECT_EQ(step("MMTSTEP", 4, 10), 7);          // gap from its last event
  EXPECT_EQ(step("RETURN", 4, 15), 5);
  EXPECT_EQ(step("MMTSTEP", 6, 8), 8);  // first event of owner 6: from 0
  EXPECT_EQ(step("WRITE", -1, 20), std::nullopt);  // no owner
}

}  // namespace
}  // namespace psc
