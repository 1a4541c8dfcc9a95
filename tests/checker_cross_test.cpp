// Cross-validation of the linearizability checkers on randomly generated
// histories: histories built from a hidden sequential execution (with the
// generating points as ground truth) must be accepted by both the
// Wing-Gong search and the witness checker; corrupted variants must be
// rejected by both. Differential runs compare the frontier-window searches
// against full-scan reference searches, state for state. Also scale smoke:
// a 10-node register system run stays checkable.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <unordered_set>

#include "rw/harness.hpp"
#include "rw/queue.hpp"
#include "util/rng.hpp"

namespace psc {
namespace {

struct GeneratedHistory {
  std::vector<Operation> ops;
  std::vector<Time> points;  // the hidden linearization points
};

// Builds a history from a random sequential register execution: op k takes
// effect at point p_k (strictly increasing); its interval extends up to
// `fuzz` on both sides (clamped so intervals still contain their point).
GeneratedHistory random_register_history(int n, Duration fuzz, Rng& rng) {
  GeneratedHistory h;
  Time p = 10;
  std::int64_t reg = 0;
  for (int k = 0; k < n; ++k) {
    p += 1 + rng.uniform(0, fuzz);
    Operation op;
    op.proc = static_cast<int>(rng.index(4));
    op.inv = std::max<Time>(0, p - rng.uniform(0, fuzz));
    op.res = p + rng.uniform(0, fuzz);
    if (rng.flip(0.5)) {
      op.kind = Operation::Kind::kWrite;
      op.value = k + 1000;
      reg = op.value;
    } else {
      op.kind = Operation::Kind::kRead;
      op.value = reg;
    }
    h.ops.push_back(op);
    h.points.push_back(p);
  }
  return h;
}

class CheckerCross : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CheckerCross, GeneratedHistoriesAcceptedByBothCheckers) {
  Rng rng(GetParam());
  for (int round = 0; round < 10; ++round) {
    const auto h = random_register_history(24, 40, rng);
    EXPECT_TRUE(check_with_points(h.ops, h.points, 0));
    const auto wg = check_linearizable(h.ops, 0);
    EXPECT_TRUE(wg.ok) << "round " << round << ": " << wg.why;
  }
}

TEST_P(CheckerCross, CorruptedReadRejectedByBothCheckers) {
  Rng rng(GetParam() ^ 0xbad);
  for (int round = 0; round < 10; ++round) {
    auto h = random_register_history(24, 40, rng);
    // Find a read and corrupt it to a value that is never written.
    bool corrupted = false;
    for (auto& op : h.ops) {
      if (op.kind == Operation::Kind::kRead) {
        op.value = -777;
        corrupted = true;
        break;
      }
    }
    if (!corrupted) continue;
    EXPECT_FALSE(check_with_points(h.ops, h.points, 0).ok);
    EXPECT_FALSE(check_linearizable(h.ops, 0).ok);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CheckerCross,
                         ::testing::Values(1, 2, 3, 5, 8, 13));

// The same construction for the FIFO queue checker.
std::vector<QueueOp> random_queue_history(int n, Duration fuzz, Rng& rng) {
  std::vector<QueueOp> ops;
  std::deque<std::int64_t> q;
  Time p = 10;
  for (int k = 0; k < n; ++k) {
    p += 1 + rng.uniform(0, fuzz);
    QueueOp op;
    op.proc = static_cast<int>(rng.index(4));
    op.inv = std::max<Time>(0, p - rng.uniform(0, fuzz));
    op.res = p + rng.uniform(0, fuzz);
    if (rng.flip(0.5)) {
      op.kind = QueueOp::Kind::kEnq;
      op.value = k + 1000;
      q.push_back(op.value);
    } else {
      op.kind = QueueOp::Kind::kDeq;
      if (q.empty()) {
        op.value = -1;
      } else {
        op.value = q.front();
        q.pop_front();
      }
    }
    ops.push_back(op);
  }
  return ops;
}

TEST_P(CheckerCross, GeneratedQueueHistoriesAccepted) {
  Rng rng(GetParam() ^ 0x9ece);
  for (int round = 0; round < 10; ++round) {
    const auto ops = random_queue_history(20, 40, rng);
    const auto r = check_linearizable_queue(ops);
    EXPECT_TRUE(r.ok) << "round " << round << ": " << r.why;
  }
}

TEST_P(CheckerCross, CorruptedDequeueRejected) {
  Rng rng(GetParam() ^ 0xdead);
  for (int round = 0; round < 10; ++round) {
    auto ops = random_queue_history(20, 40, rng);
    bool corrupted = false;
    for (auto& op : ops) {
      if (op.kind == QueueOp::Kind::kDeq && op.value >= 0) {
        op.value = -777;
        corrupted = true;
        break;
      }
    }
    if (!corrupted) continue;
    EXPECT_FALSE(check_linearizable_queue(ops).ok);
  }
}

// --- differential: frontier-window search vs full-scan reference -------------

// The Wing & Gong searches as they stood before the frontier window: each
// state scans all n ops for min(res) and for candidates, and memoizes on
// the full done bitmask. They explore states in the same order as
// check_linearizable / check_linearizable_queue, so ok, conclusive, the
// state count and the diagnosis must all agree.
template <class Op>
class FullScanSearch {
 public:
  FullScanSearch(const std::vector<Op>& ops, std::size_t cap)
      : ops_(ops), max_states_(cap), mask_((ops.size() + 63) / 64, 0) {}

  std::size_t states() const { return states_; }
  bool capped() const { return capped_; }

 protected:
  bool done(std::size_t k) const { return (mask_[k / 64] >> (k % 64)) & 1; }
  void set(std::size_t k, bool v) {
    if (v) {
      mask_[k / 64] |= std::uint64_t{1} << (k % 64);
    } else {
      mask_[k / 64] &= ~(std::uint64_t{1} << (k % 64));
    }
  }
  // Counts the state; false once the cap is exceeded.
  bool enter() {
    if (++states_ > max_states_) {
      capped_ = true;
      return false;
    }
    return true;
  }
  std::string mask_key() const {
    return std::string(reinterpret_cast<const char*>(mask_.data()),
                       mask_.size() * sizeof(std::uint64_t));
  }
  // Candidate ops in ascending index: not done, inv <= min(res) of the rest.
  std::vector<std::size_t> candidates() const {
    Time min_res = kTimeMax;
    for (std::size_t k = 0; k < ops_.size(); ++k) {
      if (!done(k)) min_res = std::min(min_res, ops_[k].res);
    }
    std::vector<std::size_t> out;
    for (std::size_t k = 0; k < ops_.size(); ++k) {
      if (!done(k) && ops_[k].inv <= min_res) out.push_back(k);
    }
    return out;
  }

  const std::vector<Op>& ops_;
  std::unordered_set<std::string> failed_;

 private:
  std::size_t max_states_;
  std::size_t states_ = 0;
  bool capped_ = false;
  std::vector<std::uint64_t> mask_;
};

class FullScanRegister : public FullScanSearch<Operation> {
 public:
  using FullScanSearch::FullScanSearch;

  bool search(std::size_t remaining, std::int64_t value) {
    if (remaining == 0) return true;
    if (!enter()) return false;
    std::string key = mask_key();
    key.append(reinterpret_cast<const char*>(&value), sizeof(value));
    if (failed_.count(key)) return false;
    for (const std::size_t k : candidates()) {
      const auto& op = ops_[k];
      if (op.kind == Operation::Kind::kRead && op.value != value) continue;
      set(k, true);
      if (search(remaining - 1,
                 op.kind == Operation::Kind::kWrite ? op.value : value)) {
        return true;
      }
      set(k, false);
      if (capped()) return false;
    }
    failed_.insert(key);
    return false;
  }
};

class FullScanQueue : public FullScanSearch<QueueOp> {
 public:
  using FullScanSearch::FullScanSearch;

  bool search(std::size_t remaining, std::deque<std::int64_t>& q) {
    if (remaining == 0) return true;
    if (!enter()) return false;
    std::string key = mask_key();
    for (const auto v : q) {
      key.append(reinterpret_cast<const char*>(&v), sizeof(v));
    }
    if (failed_.count(key)) return false;
    for (const std::size_t k : candidates()) {
      const auto& op = ops_[k];
      const bool enq = op.kind == QueueOp::Kind::kEnq;
      const bool was_empty = q.empty();
      // A dequeue returns the current front, or -1 when empty.
      if (!enq && op.value != (was_empty ? -1 : q.front())) continue;
      if (enq) {
        q.push_back(op.value);
      } else if (!was_empty) {
        q.pop_front();
      }
      set(k, true);
      if (search(remaining - 1, q)) return true;
      set(k, false);
      if (enq) {
        q.pop_back();
      } else if (!was_empty) {
        q.push_front(op.value);
      }
      if (capped()) return false;
    }
    failed_.insert(key);
    return false;
  }
};

LinearizabilityResult full_scan_register(const std::vector<Operation>& ops,
                                         std::int64_t v0, std::size_t cap) {
  FullScanRegister s(ops, cap);
  LinearizabilityResult r;
  r.ok = s.search(ops.size(), v0);
  r.conclusive = !s.capped();
  r.states = s.states();
  if (!r.ok) {
    r.why = s.capped() ? "state cap reached (inconclusive)"
                       : "no legal linearization exists";
  }
  return r;
}

QueueCheckResult full_scan_queue(const std::vector<QueueOp>& ops,
                                 std::size_t cap) {
  FullScanQueue s(ops, cap);
  std::deque<std::int64_t> q;
  QueueCheckResult r;
  r.ok = s.search(ops.size(), q);
  r.conclusive = !s.capped();
  r.states = s.states();
  if (!r.ok) r.why = s.capped() ? "state cap reached" : "no legal linearization";
  return r;
}

// Shapes for the differential runs. Most histories come from a hidden
// sequential execution (linearizable); the rest stress the search: a
// corrupted response, free-floating random intervals (mostly not
// linearizable), times snapped to a coarse grid (many equal timestamps),
// values drawn from a tiny set (repeated written values), and shuffled
// input order.
struct Shape {
  bool random_intervals = false;
  bool corrupt = false;
  bool shuffle = false;
  bool few_values = false;
  Duration grain = 1;
  std::size_t cap = 4'000'000;
};

Shape random_shape(Rng& rng) {
  Shape s;
  s.random_intervals = rng.flip(0.25);
  s.corrupt = rng.flip(0.3);
  s.shuffle = rng.flip(0.5);
  s.few_values = rng.flip(0.5);
  s.grain = rng.flip(0.5) ? 1 : 8;
  // A small cap forces the capped path; the larger one keeps the
  // free-floating histories bounded.
  s.cap = rng.flip(0.2) ? 50 : 100'000;
  return s;
}

// Snaps [inv, res] outward onto the grain, so it still holds its point.
template <class Op>
void snap_and_shuffle(std::vector<Op>& ops, const Shape& s, Rng& rng) {
  for (auto& op : ops) {
    op.inv -= op.inv % s.grain;
    op.res += (s.grain - op.res % s.grain) % s.grain;
  }
  if (s.shuffle) {
    for (std::size_t k = ops.size(); k > 1; --k) {
      std::swap(ops[k - 1], ops[rng.index(k)]);
    }
  }
}

std::vector<Operation> differential_register_history(const Shape& s,
                                                     Rng& rng) {
  const int n = static_cast<int>(rng.uniform(1, s.random_intervals ? 12 : 28));
  const auto fuzz = rng.uniform(0, 30);
  auto value = [&](int k) -> std::int64_t {
    return s.few_values ? rng.uniform(0, 2) : k + 1000;
  };
  std::vector<Operation> ops;
  Time p = 10;
  std::int64_t reg = 0;
  for (int k = 0; k < n; ++k) {
    Operation op;
    op.proc = static_cast<int>(rng.index(5));
    op.kind = rng.flip(0.5) ? Operation::Kind::kWrite : Operation::Kind::kRead;
    if (s.random_intervals) {
      op.inv = rng.uniform(0, 60);
      op.res = op.inv + rng.uniform(0, 30);
      op.value = value(k);
    } else {
      p += rng.uniform(0, 6);  // 0: two ops share a point
      op.inv = std::max<Time>(0, p - rng.uniform(0, fuzz));
      op.res = p + rng.uniform(0, fuzz);
      if (op.kind == Operation::Kind::kWrite) reg = value(k);
      op.value = reg;
    }
    ops.push_back(op);
  }
  if (s.corrupt) {
    for (auto& op : ops) {
      if (op.kind == Operation::Kind::kRead) {
        op.value = s.few_values ? rng.uniform(0, 3) : -777;
        break;
      }
    }
  }
  snap_and_shuffle(ops, s, rng);
  return ops;
}

std::vector<QueueOp> differential_queue_history(const Shape& s, Rng& rng) {
  const int n = static_cast<int>(rng.uniform(1, s.random_intervals ? 12 : 24));
  const auto fuzz = rng.uniform(0, 30);
  std::vector<QueueOp> ops;
  std::deque<std::int64_t> q;
  Time p = 10;
  for (int k = 0; k < n; ++k) {
    QueueOp op;
    op.proc = static_cast<int>(rng.index(5));
    op.kind = rng.flip(0.5) ? QueueOp::Kind::kEnq : QueueOp::Kind::kDeq;
    const std::int64_t v = s.few_values ? rng.uniform(0, 2) : k + 1000;
    if (s.random_intervals) {
      op.inv = rng.uniform(0, 60);
      op.res = op.inv + rng.uniform(0, 30);
      op.value = op.kind == QueueOp::Kind::kEnq ? v : rng.uniform(-1, 2);
    } else {
      p += rng.uniform(0, 6);
      op.inv = std::max<Time>(0, p - rng.uniform(0, fuzz));
      op.res = p + rng.uniform(0, fuzz);
      if (op.kind == QueueOp::Kind::kEnq) {
        op.value = v;
        q.push_back(v);
      } else if (q.empty()) {
        op.value = -1;
      } else {
        op.value = q.front();
        q.pop_front();
      }
    }
    ops.push_back(op);
  }
  if (s.corrupt) {
    for (auto& op : ops) {
      if (op.kind == QueueOp::Kind::kDeq) {
        op.value = op.value == -1 ? 0 : -1;
        break;
      }
    }
  }
  snap_and_shuffle(ops, s, rng);
  return ops;
}

// Tallies the outcomes so a run that never reaches a branch fails loudly.
struct Outcomes {
  int ok = 0, refuted = 0, capped = 0;
  template <class R>
  void add(const R& r) {
    if (!r.conclusive) {
      ++capped;
    } else if (r.ok) {
      ++ok;
    } else {
      ++refuted;
    }
  }
};

TEST(CheckerDifferential, RegisterSearchMatchesFullScanOracle) {
  Rng rng(0x5eed);
  Outcomes seen;
  for (int round = 0; round < 2500; ++round) {
    const Shape s = random_shape(rng);
    const auto ops = differential_register_history(s, rng);
    const auto v0 = s.few_values ? rng.uniform(0, 2) : 0;
    const auto want = full_scan_register(ops, v0, s.cap);
    const auto got = check_linearizable(ops, v0, s.cap);
    ASSERT_EQ(got.ok, want.ok) << "round " << round;
    ASSERT_EQ(got.conclusive, want.conclusive) << "round " << round;
    ASSERT_EQ(got.states, want.states) << "round " << round;
    ASSERT_EQ(got.why, want.why) << "round " << round;
    seen.add(got);
  }
  EXPECT_GT(seen.ok, 500);
  EXPECT_GT(seen.refuted, 200);
  EXPECT_GT(seen.capped, 50);
}

TEST(CheckerDifferential, QueueSearchMatchesFullScanOracle) {
  Rng rng(0x9e5eed);
  Outcomes seen;
  for (int round = 0; round < 2000; ++round) {
    const Shape s = random_shape(rng);
    const auto ops = differential_queue_history(s, rng);
    const auto want = full_scan_queue(ops, s.cap);
    const auto got = check_linearizable_queue(ops, s.cap);
    ASSERT_EQ(got.ok, want.ok) << "round " << round;
    ASSERT_EQ(got.conclusive, want.conclusive) << "round " << round;
    ASSERT_EQ(got.states, want.states) << "round " << round;
    ASSERT_EQ(got.why, want.why) << "round " << round;
    seen.add(got);
  }
  EXPECT_GT(seen.ok, 400);
  EXPECT_GT(seen.refuted, 200);
  EXPECT_GT(seen.capped, 50);
}

// A real history: Theorem 6.5's algorithm S through Simulation 1 at the
// size of the register_clock benchmark (8 nodes x 400 ops, half writes,
// random drift). The state count is the full-scan search's on this
// history; the window search must explore exactly those states.
TEST(CheckerDifferential, ClockRun8x400StateCountPinned) {
  RwRunConfig cfg;
  cfg.num_nodes = 8;
  cfg.ops_per_node = 400;
  cfg.write_fraction = 0.5;
  cfg.d1 = microseconds(20);
  cfg.d2 = microseconds(300);
  cfg.eps = microseconds(50);
  cfg.c = microseconds(40);
  cfg.think_max = microseconds(300);
  cfg.horizon = seconds(60);
  cfg.seed = 200;
  const RandomDrift drift(0.1, milliseconds(1));
  const auto run = run_rw_clock(cfg, drift);
  ASSERT_EQ(run.ops.size(), 3200u);
  const auto lin = check_linearizable(run.ops, cfg.v0);
  EXPECT_TRUE(lin.ok && lin.conclusive) << lin.why;
  EXPECT_EQ(lin.states, 141916u);
}

// --- scale smoke ---------------------------------------------------------------

TEST(ScaleTest, TenNodeRegisterSystemChecksOut) {
  RwRunConfig cfg;
  cfg.num_nodes = 10;
  cfg.d1 = microseconds(20);
  cfg.d2 = microseconds(300);
  cfg.eps = microseconds(40);
  cfg.c = microseconds(30);
  cfg.ops_per_node = 6;
  cfg.think_max = microseconds(500);
  cfg.horizon = seconds(10);
  ZigzagDrift drift(0.3);
  const auto run = run_rw_clock(cfg, drift);
  ASSERT_EQ(run.ops.size(), 60u);
  const auto lin = check_linearizable(run.ops, cfg.v0);
  EXPECT_TRUE(lin.ok && lin.conclusive) << lin.why;
}

}  // namespace
}  // namespace psc
