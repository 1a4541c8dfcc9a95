// Differential tests for Machine::enabled_into's recycled-slot cursor and
// the idle() contract.
//
// Every machine that writes its candidates in place (and every wrapper that
// forwards the cursor) is driven through seeded random states. At each step
// its enumeration is written once into an empty vector and several times
// into vectors pre-filled with stale junk — shorter and longer lists, heap-
// sized names and args, engaged messages with fields and a clock tag — and
// all of them must agree with each other and with enabled(), uids aside
// (SENDMSG slots draw a fresh uid per enumeration). At the same step,
// idle() == true must mean: nothing enabled and both bounds kTimeMax, now
// and later. For composites, the idle-skipping walk must equal the full
// walk over every member.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "algos/flood.hpp"
#include "channel/channel.hpp"
#include "clock/trajectory.hpp"
#include "mmt/mmt_node.hpp"
#include "mmt/tick_source.hpp"
#include "runtime/clocked.hpp"
#include "runtime/composite.hpp"
#include "rw/algorithm.hpp"
#include "transform/buffers.hpp"
#include "transform/clock_system.hpp"
#include "util/rng.hpp"

namespace psc {
namespace {

constexpr int kSteps = 1500;
constexpr std::uint64_t kSeeds[] = {11, 12, 13};
constexpr std::uint64_t kJunkUid = 424242;

// Uids aside — but every message must carry a real one, not a stale or
// default uid left in the slot.
std::vector<Action> without_uids(std::vector<Action> acts) {
  for (Action& a : acts) {
    if (!a.msg) continue;
    EXPECT_NE(a.msg->uid, kJunkUid) << to_string(a);
    EXPECT_NE(a.msg->uid, 0u) << to_string(a);
    a.msg->uid = 0;
  }
  return acts;
}

// `n` slots of stale contents no writer would produce.
std::vector<Action> junk(Rng& rng, std::size_t n) {
  std::vector<Action> out(n);
  for (Action& a : out) {
    a.name = rng.flip(0.5) ? "STALE_NAME_LONGER_THAN_THE_INLINE_BUFFER"
                           : "TICK";
    a.node = 97;
    a.peer = 98;
    const std::size_t nargs = rng.index(4);
    for (std::size_t k = 0; k < nargs; ++k) {
      a.args.resize(k + 1);
      a.args[k] = k % 2 == 0
                      ? Value{std::string("stale-arg-on-the-heap-0123456789")}
                      : Value{std::int64_t{7}};
    }
    if (rng.flip(0.7)) {
      Message m;
      m.kind = "STALE_KIND_LONGER_THAN_THE_INLINE_BUFFER";
      m.fields.resize(3);
      m.fields[0] = Value{std::int64_t{1}};
      m.fields[1] = Value{std::string("stale-field-on-the-heap-0123456789")};
      m.fields[2] = Value{2.5};
      m.uid = kJunkUid;
      m.clock_tag = 5151;
      a.msg = std::move(m);
    }
  }
  return out;
}

std::vector<Action> enumerate_into(const Machine& m, Time t,
                                   std::vector<Action> buf) {
  ActionCursor cursor(buf);
  m.enabled_into(t, cursor);
  cursor.trim();
  return buf;
}

// The composite's idle-skipping walk against the full walk over members.
void expect_full_walk(const Machine& m, Time t) {
  const auto* comp = dynamic_cast<const CompositeMachine*>(&m);
  if (comp == nullptr) return;
  std::vector<Action> all;
  Time ub = kTimeMax;
  Time ne = kTimeMax;
  for (std::size_t i = 0; i < comp->member_count(); ++i) {
    const Machine& member = *comp->member_at(i);
    for (Action& a : member.enabled(t)) all.push_back(std::move(a));
    ub = std::min(ub, member.upper_bound(t));
    ne = std::min(ne, member.next_enabled(t));
  }
  EXPECT_EQ(without_uids(comp->enabled(t)), without_uids(all));
  EXPECT_EQ(comp->upper_bound(t), ub);
  EXPECT_EQ(comp->next_enabled(t), ne);
}

// The Section 4.2 interface: RECVMSG delivers m, ESENDMSG carries (m, c).
void expect_interface(const std::vector<Action>& acts) {
  for (const Action& a : acts) {
    if (a.name == "RECVMSG") {
      ASSERT_TRUE(a.msg.has_value());
      EXPECT_EQ(a.msg->clock_tag, kNoClockTag) << to_string(a);
    } else if (a.name == "ESENDMSG") {
      ASSERT_TRUE(a.msg.has_value());
      EXPECT_NE(a.msg->clock_tag, kNoClockTag) << to_string(a);
    }
  }
}

void check_step(const Machine& m, Time t, Rng& rng) {
  const std::vector<Action> fresh = enumerate_into(m, t, {});
  const std::vector<Action> expected = without_uids(fresh);
  const std::size_t n = fresh.size();
  for (const std::size_t len :
       {n > 0 ? n - 1 : std::size_t{0}, n, n + 1, n + 3, rng.index(6)}) {
    EXPECT_EQ(without_uids(enumerate_into(m, t, junk(rng, len))), expected)
        << m.name() << " at t=" << t << " into " << len << " junk slots";
  }
  EXPECT_EQ(without_uids(m.enabled(t)), expected) << m.name();
  expect_interface(fresh);
  if (const auto* clocked = dynamic_cast<const ClockedMachine*>(&m)) {
    const Time c = clocked->trajectory().clock_at(t);
    EXPECT_EQ(without_uids(clocked->inner().enabled(c)), expected);
    expect_full_walk(clocked->inner(), c);
  }
  expect_full_walk(m, t);
  if (m.idle()) {
    for (const Time x : {t, t + 1, t + 1000 + static_cast<Time>(rng.index(
                                                   1000000))}) {
      EXPECT_TRUE(m.enabled(x).empty()) << m.name() << " idle at " << x;
      EXPECT_EQ(m.upper_bound(x), kTimeMax) << m.name() << " idle at " << x;
      EXPECT_EQ(m.next_enabled(x), kTimeMax) << m.name() << " idle at " << x;
    }
  }
}

// A random walk over one machine's states: inputs from `input`, local
// actions picked from enabled(), and time passage within upper_bound().
struct Walk {
  Machine& machine;
  // Fills `a` with an input acceptable at `t`; false when none is.
  std::function<bool(Rng&, Time, Action& a)> input;
  std::function<void(const Action&)> on_local = [](const Action&) {};
  Duration max_gap = 100;
};

void run_walk(const Walk& w, std::uint64_t seed) {
  SCOPED_TRACE(w.machine.name() + " seed " + std::to_string(seed));
  Rng rng(seed);
  Time t = 0;
  for (int step = 0; step < kSteps; ++step) {
    check_step(w.machine, t, rng);
    if (::testing::Test::HasFailure()) return;
    const std::vector<Action> acts = w.machine.enabled(t);
    const std::size_t choice = rng.index(3);
    Action in;
    if (choice == 0 && w.input(rng, t, in)) {
      w.machine.apply_input(in, t);
      continue;
    }
    const Time ub = w.machine.upper_bound(t);
    if (!acts.empty() && (choice == 1 || ub <= t)) {
      const Action& a = acts[rng.index(acts.size())];
      w.machine.apply_local(a, t);
      w.on_local(a);
    } else if (ub > t) {
      t = std::min<Time>(ub, t + rng.uniform(1, w.max_gap));
    } else if (w.input(rng, t, in)) {
      w.machine.apply_input(in, t);
    }
  }
}

std::shared_ptr<const ClockTrajectory> random_clock(std::uint64_t seed) {
  Rng rng(seed);
  return std::make_shared<ClockTrajectory>(
      RandomDrift(0.1, 2000).generate(/*eps=*/60, /*horizon=*/1'000'000, rng));
}

Message update_message(Rng& rng, Time t) {
  return make_message("UPDATE", {Value{static_cast<std::int64_t>(rng.index(9))},
                                 Value{t + rng.uniform(-50, 400)}});
}

// READ/WRITE inputs honouring the register's alternation, and UPDATE
// messages from any of three nodes (as RECVMSG, or tagged as ERECVMSG).
struct RegisterInputs {
  bool reading = false;
  bool writing = false;

  bool next(Rng& rng, Time t, Action& a, bool tagged) {
    switch (rng.index(3)) {
      case 0:
        if (reading) return false;
        reading = true;
        a = make_action("READ", 0);
        return true;
      case 1:
        if (writing) return false;
        writing = true;
        a = make_action("WRITE", 0,
                        {Value{static_cast<std::int64_t>(rng.index(9))}});
        return true;
      default: {
        const int j = static_cast<int>(rng.index(3));
        Message m = update_message(rng, t);
        if (!tagged) {
          a = make_recv(0, j, std::move(m));
          return true;
        }
        m.clock_tag = std::max<Time>(0, t + rng.uniform(-100, 200));
        a = make_recv(0, j, std::move(m), "ERECVMSG");
        return true;
      }
    }
  }
  void observe(const Action& a) {
    if (a.name == "RETURN") reading = false;
    if (a.name == "ACK") writing = false;
  }
};

RwParams register_params() {
  RwParams p;
  p.node = 0;
  p.num_nodes = 3;
  p.c = 40;
  p.delta = 1;
  p.d2_prime = 400;
  p.two_eps = 120;
  return p;
}

std::unique_ptr<CompositeMachine> register_node() {
  return make_node_composite(std::make_unique<RwAlgorithm>(register_params()),
                             0, {0, 1, 2}, {0, 1, 2});
}

TEST(CursorDifferential, RwAlgorithm) {
  for (const std::uint64_t seed : kSeeds) {
    RwAlgorithm alg(register_params());
    RegisterInputs in;
    run_walk({alg,
              [&](Rng& r, Time t, Action& a) { return in.next(r, t, a, false); },
              [&](const Action& a) { in.observe(a); }},
             seed);
  }
}

TEST(CursorDifferential, SendBuffer) {
  for (const std::uint64_t seed : kSeeds) {
    SendBuffer sb(0, 1);
    run_walk({sb,
              [](Rng& r, Time t, Action& a) {
                a = make_send(0, 1, update_message(r, t));
                return true;
              }},
             seed);
  }
}

TEST(CursorDifferential, ReceiveBuffer) {
  for (const std::uint64_t seed : kSeeds) {
    ReceiveBuffer rb(1, 0);
    run_walk({rb,
              [](Rng& r, Time t, Action& a) {
                Message m = update_message(r, t);
                m.clock_tag = std::max<Time>(0, t + r.uniform(-100, 300));
                a = make_recv(0, 1, std::move(m), "ERECVMSG");
                return true;
              }},
             seed);
  }
}

TEST(CursorDifferential, TickSource) {
  for (const std::uint64_t seed : kSeeds) {
    TickSource ts(0, random_clock(seed), /*ell=*/50, Rng(seed));
    run_walk({ts, [](Rng&, Time, Action&) { return false; }}, seed);
  }
}

TEST(CursorDifferential, Channel) {
  for (const std::uint64_t seed : kSeeds) {
    Channel ch(0, 1, 20, 300, DelayPolicy::uniform(), Rng(seed));
    run_walk({ch,
              [](Rng& r, Time t, Action& a) {
                a = make_send(0, 1, update_message(r, t));
                return true;
              }},
             seed);
  }
}

TEST(CursorDifferential, FloodNode) {
  for (const std::uint64_t seed : kSeeds) {
    for (const bool source : {true, false}) {
      FloodParams p;
      p.node = 0;
      p.source = source;
      p.peers = {1, 2};
      p.payload = 10;
      p.hops_bound = 2;
      p.d2_design = 300;
      p.waves = 4;
      p.wave_gap = 150;
      FloodNode node(p);
      run_walk({node,
                [](Rng& r, Time, Action& a) {
                  a = make_recv(0, static_cast<int>(1 + r.index(2)),
                                make_message("FLOOD", {Value{static_cast<
                                    std::int64_t>(10 + r.index(6))}}));
                  return true;
                }},
               seed);
    }
  }
}

TEST(CursorDifferential, CompositeUnderClockedMachine) {
  for (const std::uint64_t seed : kSeeds) {
    ClockedMachine node(register_node(), random_clock(seed));
    RegisterInputs in;
    run_walk({node,
              [&](Rng& r, Time t, Action& a) { return in.next(r, t, a, true); },
              [&](const Action& a) { in.observe(a); }},
             seed);
  }
}

TEST(CursorDifferential, MmtNode) {
  for (const std::uint64_t seed : kSeeds) {
    MmtNode node(0, register_node(), /*ell=*/30, Rng(seed));
    RegisterInputs in;
    Time clock = 0;
    run_walk({node,
              [&](Rng& r, Time t, Action& a) {
                if (r.flip(0.5)) {
                  clock = std::max(clock, t + r.uniform(-20, 20));
                  a = make_action("TICK", 0, {Value{clock}});
                  return true;
                }
                return in.next(r, t, a, true);
              },
              [&](const Action& a) { in.observe(a); }},
             seed);
  }
}

}  // namespace
}  // namespace psc
