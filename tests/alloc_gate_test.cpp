// Deterministic allocation gate for the clock-model node stacks.
//
// Counts global operator new calls during Executor::run() for the two
// register workloads of the end-to-end benchmark: Simulation 1
// (add_clock_system, 8 nodes x 400 ops) and Simulations 1+2
// (add_mmt_system, 6 nodes x 750 ops), with record_events off and a fixed
// seed. The count is a work counter, not a timing: it does not move with
// machine load, so the bound can sit close to the measured value.
//
// What still allocates per event is per *message*, not per poll: the
// channel's InFlight copy, the Sim-1 buffer queues, the write's send_procs
// set, the MMT pending queue, and the clients' operation records. A
// candidate enumeration that rebuilds its actions (instead of writing into
// the recycled slots) costs several allocations per event and fails the
// bound.
//
// This binary replaces the global operator new/delete, so it is its own
// executable. Under ASan the replacement still wins over the sanitizer's
// (the executable's definition preempts the runtime's) and forwards to the
// intercepted malloc/free, so the count is the same in that lane.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "clock/trajectory.hpp"
#include "mmt/mmt_system.hpp"
#include "runtime/executor.hpp"
#include "rw/algorithm.hpp"
#include "rw/client.hpp"
#include "transform/clock_system.hpp"
#include "util/rng.hpp"

namespace {
bool g_counting = false;
std::uint64_t g_news = 0;
}  // namespace

void* operator new(std::size_t n) {
  if (g_counting) ++g_news;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace psc {
namespace {

constexpr std::uint64_t kSeed = 20261017;

struct Workload {
  int nodes;
  int ops;
  double write_fraction;
  bool mmt;
};

struct Count {
  std::uint64_t news = 0;
  std::uint64_t events = 0;
  double per_event() const {
    return static_cast<double>(news) / static_cast<double>(events);
  }
};

// The perfbench register_clock / register_mmt assembly at the same sizes.
Count count_run_allocations(const Workload& w) {
  const Duration d1 = microseconds(20);
  const Duration d2 = microseconds(300);
  const Duration eps = microseconds(50);
  const Duration ell = microseconds(10);
  const Time horizon = seconds(60);
  const int k = w.nodes + 2;

  std::vector<std::shared_ptr<const ClockTrajectory>> trajs;
  const RandomDrift drift(0.1, milliseconds(1));
  Rng seeder(kSeed ^ 0xc1c1c1c1ULL);
  for (int i = 0; i < w.nodes; ++i) {
    Rng rng = seeder.split();
    trajs.push_back(
        std::make_shared<ClockTrajectory>(drift.generate(eps, horizon, rng)));
  }

  ExecutorOptions eo;
  eo.horizon = horizon;
  eo.seed = kSeed;
  eo.record_events = false;
  Executor exec(eo);
  ClientOptions co;
  co.num_ops = w.ops;
  co.think_max = microseconds(300);
  co.write_fraction = w.write_fraction;
  std::vector<RwClient*> clients;
  for (auto& c : make_clients(w.nodes, co, kSeed ^ 0xc7, &clients)) {
    exec.add_owned(std::move(c));
  }
  RwParams p;
  p.num_nodes = w.nodes;
  p.c = microseconds(40);
  p.d2_prime = w.mmt ? mmt_d2(d2, eps, k, ell) : timed_d2(d2, eps);
  p.two_eps = 2 * eps;
  ChannelConfig cc;
  cc.d1 = d1;
  cc.d2 = d2;
  cc.seed = kSeed ^ 0xe5e5;
  const Graph g = Graph::complete_with_self_loops(w.nodes);
  if (w.mmt) {
    MmtConfig mc;
    mc.ell = ell;
    mc.seed = kSeed ^ 0x4d4d54;
    add_mmt_system(exec, g, cc, make_rw_algorithms(w.nodes, p), trajs, mc);
    exec.stop_when([&clients] {
      for (const RwClient* c : clients) {
        if (!c->finished()) return false;
      }
      return true;
    });
  } else {
    add_clock_system(exec, g, cc, make_rw_algorithms(w.nodes, p), trajs);
  }

  g_news = 0;
  g_counting = true;
  const ExecutorReport rep = exec.run();
  g_counting = false;
  for (const RwClient* c : clients) EXPECT_TRUE(c->finished());
  return {g_news, rep.stats.events};
}

// Measured 1.485 news/event (104,863 over 70,632 events); the bound leaves
// 21% headroom. Rebuilding candidates on every poll measured 6.52.
TEST(AllocGate, ClockSystemRunAllocatesPerMessageOnly) {
  const Count c = count_run_allocations({8, 400, 0.5, false});
  ASSERT_GT(c.events, 50000u);
  std::printf("%llu news over %llu events: %.3f per event\n",
              static_cast<unsigned long long>(c.news),
              static_cast<unsigned long long>(c.events), c.per_event());
  EXPECT_LT(c.per_event(), 1.8) << c.news << " news over " << c.events
                                << " events";
}

// Measured 0.582 news/event (283,337 over 487,125 events); the bound leaves
// 20% headroom. Rebuilding candidates on every poll measured 1.72.
TEST(AllocGate, MmtSystemRunAllocatesPerMessageOnly) {
  const Count c = count_run_allocations({6, 750, 0.1, true});
  ASSERT_GT(c.events, 200000u);
  std::printf("%llu news over %llu events: %.3f per event\n",
              static_cast<unsigned long long>(c.news),
              static_cast<unsigned long long>(c.events), c.per_event());
  EXPECT_LT(c.per_event(), 0.7) << c.news << " news over " << c.events
                                << " events";
}

}  // namespace
}  // namespace psc
