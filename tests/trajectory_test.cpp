// Tests for clock trajectories and drift models: axioms C1/C3, the C_eps
// band, inversion properties, generator sweeps, and a differential test of
// the cursor-based queries against the search-based implementation.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "clock/trajectory.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace psc {
namespace {

TEST(TrajectoryTest, PerfectClockIsIdentity) {
  const auto traj = ClockTrajectory::perfect();
  for (Time t : {Time{0}, Time{5}, milliseconds(3), seconds(2)}) {
    EXPECT_EQ(traj.clock_at(t), t);
    EXPECT_EQ(traj.time_first_at(t), t);
    EXPECT_EQ(traj.time_last_at(t), t);
  }
}

TEST(TrajectoryTest, AxiomC1Enforced) {
  EXPECT_THROW(ClockTrajectory({{0, 5}}, 10), CheckError);
  EXPECT_THROW(ClockTrajectory({{5, 0}}, 10), CheckError);
  EXPECT_NO_THROW(ClockTrajectory({{0, 0}}, 10));
}

TEST(TrajectoryTest, BreakpointsMustIncrease) {
  EXPECT_THROW(ClockTrajectory({{0, 0}, {10, 5}, {10, 8}}, 100), CheckError);
  EXPECT_THROW(ClockTrajectory({{0, 0}, {10, 5}, {20, 5}}, 100), CheckError);
}

TEST(TrajectoryTest, PiecewiseInterpolation) {
  // Rate 2 until t=10 (c=20), then rate 1.
  const ClockTrajectory traj({{0, 0}, {10, 20}}, 100);
  EXPECT_EQ(traj.clock_at(5), 10);
  EXPECT_EQ(traj.clock_at(10), 20);
  EXPECT_EQ(traj.clock_at(15), 25);  // final ray at rate 1
}

TEST(TrajectoryTest, InverseConsistency) {
  const ClockTrajectory traj({{0, 0}, {10, 20}, {30, 25}}, 100);
  for (Time c = 0; c <= 40; ++c) {
    const Time tf = traj.time_first_at(c);
    EXPECT_GE(traj.clock_at(tf), c) << "c=" << c;
    if (tf > 0) {
      EXPECT_LT(traj.clock_at(tf - 1), c) << "c=" << c;
    }
    const Time tl = traj.time_last_at(c);
    EXPECT_LE(traj.clock_at(tl), c) << "c=" << c;
    EXPECT_GT(traj.clock_at(tl + 1), c) << "c=" << c;
  }
}

// The definitions InverseConsistency checks, as one predicate.
::testing::AssertionResult inverse_consistent(const ClockTrajectory& traj,
                                              Time c) {
  const Time tf = traj.time_first_at(c);
  if (traj.clock_at(tf) < c || (tf > 0 && traj.clock_at(tf - 1) >= c)) {
    return ::testing::AssertionFailure()
           << "time_first_at(" << c << ") = " << tf;
  }
  const Time tl = traj.time_last_at(c);
  if (traj.clock_at(tl) > c || traj.clock_at(tl + 1) <= c) {
    return ::testing::AssertionFailure()
           << "time_last_at(" << c << ") = " << tl;
  }
  return ::testing::AssertionSuccess();
}

// The same definitions on generated trajectories with over a thousand
// breakpoints and both fast and slow segments: at random clock values, at
// every breakpoint's clock value and its neighbours, and on the final
// rate-1 ray.
TEST(TrajectoryTest, InverseConsistencyOnGeneratedTrajectories) {
  Rng rng(11);
  const RandomDrift random(0.1, microseconds(10));
  const ZigzagDrift zigzag(0.25);
  for (const DriftModel* model : {static_cast<const DriftModel*>(&random),
                                  static_cast<const DriftModel*>(&zigzag)}) {
    const auto traj =
        model->generate(microseconds(2), milliseconds(20), rng);
    const auto& pts = traj.points();
    ASSERT_GE(pts.size(), 1000u) << model->name();
    for (const auto& p : pts) {
      for (Time c = std::max<Time>(0, p.c - 1); c <= p.c + 1; ++c) {
        ASSERT_TRUE(inverse_consistent(traj, c)) << model->name();
      }
    }
    const Time last_c = pts.back().c;
    for (int k = 0; k < 5000; ++k) {
      ASSERT_TRUE(inverse_consistent(traj, rng.uniform(0, last_c)))
          << model->name();
    }
    for (Time c = last_c; c <= last_c + microseconds(50); c += 997) {
      ASSERT_TRUE(inverse_consistent(traj, c)) << model->name();
    }
  }
}

TEST(TrajectoryTest, ClockIsMonotone) {
  const ClockTrajectory traj({{0, 0}, {7, 3}, {20, 30}, {40, 41}}, 100);
  Time prev = traj.clock_at(0);
  for (Time t = 1; t <= 60; ++t) {
    const Time c = traj.clock_at(t);
    EXPECT_GE(c, prev);
    prev = c;
  }
}

TEST(TrajectoryTest, ValidateAcceptsInBandRejectsOutOfBand) {
  const ClockTrajectory ok({{0, 0}, {10, 12}}, 2);
  EXPECT_NO_THROW(ok.validate(100));
  const ClockTrajectory bad({{0, 0}, {10, 15}}, 2);
  EXPECT_THROW(bad.validate(100), CheckError);
}

// --- differential test: cursor + closed forms vs. search + bisection --------

// The query implementation before the segment cursor and the closed-form
// inverses, kept as the reference oracle: a binary search over all
// breakpoints on every query, then a bisection over the nanosecond grid for
// the two inverses.
class SearchOracle {
 public:
  explicit SearchOracle(const std::vector<Breakpoint>& pts) : pts_(pts) {}

  Time clock_at(Time t) const {
    const auto& last = pts_.back();
    if (t >= last.t) return last.c + (t - last.t);
    const auto it = std::upper_bound(
        pts_.begin(), pts_.end(), t,
        [](Time x, const Breakpoint& b) { return x < b.t; });
    const auto& hi = *it;
    const auto& lo = *(it - 1);
    if (t == lo.t) return lo.c;
    return lerp(lo, hi, t);
  }

  Time time_first_at(Time c) const {
    if (c <= 0) return 0;
    const auto& last = pts_.back();
    if (c >= last.c) return last.t + (c - last.c);
    const auto [lo, hi] = segment_by_clock(c);
    if (c == lo.c) return lo.t;
    Time a = lo.t, b = hi.t;  // clock(a) < c <= clock(b)
    while (a + 1 < b) {
      const Time mid = a + (b - a) / 2;
      if (lerp(lo, hi, mid) >= c) {
        b = mid;
      } else {
        a = mid;
      }
    }
    return b;
  }

  Time time_last_at(Time c) const {
    const auto& last = pts_.back();
    if (c >= last.c) return last.t + (c - last.c);
    const auto [lo, hi] = segment_by_clock(c);
    Time a = lo.t, b = hi.t;  // clock(a) <= c < clock(b)
    while (a + 1 < b) {
      const Time mid = a + (b - a) / 2;
      if (lerp(lo, hi, mid) <= c) {
        a = mid;
      } else {
        b = mid;
      }
    }
    return a;
  }

 private:
  static Time lerp(const Breakpoint& lo, const Breakpoint& hi, Time t) {
    const __int128 num = static_cast<__int128>(hi.c - lo.c) * (t - lo.t);
    return lo.c + static_cast<Time>(num / (hi.t - lo.t));
  }

  std::pair<Breakpoint, Breakpoint> segment_by_clock(Time c) const {
    const auto it = std::upper_bound(
        pts_.begin(), pts_.end(), c,
        [](Time x, const Breakpoint& b) { return x < b.c; });
    return {*(it - 1), *it};
  }

  const std::vector<Breakpoint>& pts_;
};

// Runs queries against one trajectory and the oracle side by side, counting
// mismatches and keeping the first one for the failure message.
class Differential {
 public:
  explicit Differential(const ClockTrajectory& traj)
      : traj_(traj), oracle_(traj.points()) {}

  void at_time(Time t) {
    compare("clock_at", t, traj_.clock_at(t), oracle_.clock_at(t));
  }
  void at_clock(Time c) {
    compare("time_first_at", c, traj_.time_first_at(c),
            oracle_.time_first_at(c));
    if (c >= 0) {
      compare("time_last_at", c, traj_.time_last_at(c),
              oracle_.time_last_at(c));
    }
  }

  ::testing::AssertionResult clean() const {
    if (mismatches_ == 0) return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure()
           << mismatches_ << " mismatch(es) in " << queries_
           << " queries; first: " << first_;
  }

 private:
  void compare(const char* what, Time arg, Time got, Time want) {
    ++queries_;
    if (got == want) return;
    if (mismatches_++ == 0) {
      std::ostringstream os;
      os << what << "(" << arg << ") = " << got << ", oracle " << want;
      first_ = os.str();
    }
  }

  const ClockTrajectory& traj_;
  SearchOracle oracle_;
  std::size_t queries_ = 0;
  std::size_t mismatches_ = 0;
  std::string first_;
};

// Every access pattern the executor and the probes produce, plus the ones
// that force the cursor's miss path, on one trajectory.
void run_differential(const ClockTrajectory& traj, const std::string& name,
                      Rng& rng) {
  const auto& pts = traj.points();
  const Breakpoint last = pts.back();
  const Time mean_segment =
      std::max<Time>(1, last.t / static_cast<Time>(pts.size()));
  Differential d(traj);

  // Time-local monotone walk past the final breakpoint, interleaving
  // t-queries with clock-queries at and a little ahead of the current
  // reading, the way a clocked machine's next-enabled hints look ahead.
  for (Time t = 0; t <= last.t + 4 * mean_segment;
       t += rng.uniform(0, 2 * mean_segment)) {
    d.at_time(t);
    const Time c = traj.clock_at(t);
    d.at_clock(c);
    d.at_clock(c + rng.uniform(0, 8 * mean_segment));
  }

  // Random forward and backward jumps, t and c interleaved.
  for (int k = 0; k < 20'000; ++k) {
    d.at_time(rng.uniform(0, last.t + mean_segment));
    d.at_clock(rng.uniform(0, last.c + mean_segment));
  }

  // Exactly at every breakpoint and its grid neighbours, first forward and
  // then backward so the cursor also walks down.
  const auto probe_breakpoint = [&](const Breakpoint& p) {
    for (Time dt = -1; dt <= 1; ++dt) {
      if (p.t + dt >= 0) d.at_time(p.t + dt);
      if (p.c + dt >= 0) d.at_clock(p.c + dt);
    }
  };
  std::for_each(pts.begin(), pts.end(), probe_breakpoint);
  std::for_each(pts.rbegin(), pts.rend(), probe_breakpoint);

  // The final rate-1 ray, and clock values at or below zero.
  for (const Time off : {Time{0}, Time{1}, Time{997}, seconds(3)}) {
    d.at_time(last.t + off);
    d.at_clock(last.c + off);
  }
  for (const Time c : {Time{0}, Time{-1}, Time{-1000}}) d.at_clock(c);

  EXPECT_TRUE(d.clean()) << name;
}

TEST(TrajectoryDifferential, GeneratedTrajectoriesMatchSearchOracle) {
  Rng rng(2024);
  const RandomDrift calm(0.1, microseconds(10));
  const ZigzagDrift zigzag(0.25);
  const auto random_calm = calm.generate(microseconds(2), milliseconds(20), rng);
  const auto zig = zigzag.generate(microseconds(2), milliseconds(20), rng);
  // Rate up to 1.9 over ~37 ns segments: most segments skip clock values,
  // and the trajectory has ~50k breakpoints, as in register_clock runs.
  const RandomDrift wild(0.9, 37);
  const auto random_wild = wild.generate(microseconds(2), milliseconds(2), rng);
  bool skips = false;
  for (std::size_t i = 1; i < random_wild.points().size(); ++i) {
    const auto& lo = random_wild.points()[i - 1];
    const auto& hi = random_wild.points()[i];
    skips = skips || hi.c - lo.c > hi.t - lo.t;
  }
  ASSERT_TRUE(skips);
  ASSERT_GE(random_wild.points().size(), 40'000u);
  run_differential(random_calm, "random rho=0.1", rng);
  run_differential(random_wild, "random rho=0.9 37ns", rng);
  run_differential(zig, "zigzag", rng);
}

TEST(TrajectoryDifferential, OffsetRampsMatchSearchOracle) {
  Rng rng(5);
  // +eps ramps at rate 2, -eps at rate 1/2; then the rate-1 ray.
  run_differential(OffsetDrift(+1.0).generate(microseconds(3), seconds(1), rng),
                   "offset +1", rng);
  run_differential(OffsetDrift(-1.0).generate(microseconds(3), seconds(1), rng),
                   "offset -1", rng);
}

TEST(TrajectoryDifferential, WideSegmentsNeed128BitProducts) {
  // Segments spanning more than 2^32 ns in both coordinates, one fast and
  // one slow: k * B exceeds 2^63 for most clock offsets k.
  const Time t1 = (Time{1} << 33) + 12'345;
  const Time c1 = (Time{1} << 34) + 777;
  const Time t2 = t1 + 3 * (Time{1} << 33) + 1;
  const Time c2 = c1 + (Time{1} << 33) + 5;
  const ClockTrajectory traj({{0, 0}, {t1, c1}, {t2, c2}}, t2);
  Rng rng(9);
  run_differential(traj, "wide segments", rng);
}

TEST(TrajectoryDifferential, NegativeArgumentsStillRejected) {
  const ClockTrajectory traj({{0, 0}, {10, 20}}, 100);
  EXPECT_THROW((void)traj.clock_at(-1), CheckError);
  EXPECT_THROW((void)traj.time_last_at(-1), CheckError);
  EXPECT_EQ(traj.time_first_at(-5), 0);
}

// --- drift models ------------------------------------------------------------

class DriftModelTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DriftModelTest, AllStandardModelsStayInBand) {
  const Duration eps = milliseconds(1);
  const Time horizon = seconds(1);
  Rng rng(GetParam());
  for (const auto& model : standard_drift_models()) {
    const auto traj = model->generate(eps, horizon, rng);
    EXPECT_NO_THROW(traj.validate(horizon)) << model->name();
    // Pointwise band check on a grid, including between breakpoints.
    for (Time t = 0; t <= horizon; t += horizon / 997) {
      const Time c = traj.clock_at(t);
      EXPECT_LE(std::llabs(c - t), eps)
          << model->name() << " at t=" << format_time(t);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DriftModelTest,
                         ::testing::Values(1, 2, 3, 17, 99, 12345));

TEST(DriftModelsTest, OffsetReachesItsTarget) {
  const Duration eps = microseconds(100);
  Rng rng(7);
  OffsetDrift plus(+1.0), minus(-1.0);
  const auto tp = plus.generate(eps, seconds(1), rng);
  const auto tm = minus.generate(eps, seconds(1), rng);
  // After the ramp, skew settles at +eps / -eps.
  EXPECT_EQ(tp.clock_at(seconds(1)) - seconds(1), eps);
  EXPECT_EQ(tm.clock_at(seconds(1)) - seconds(1), -eps);
}

TEST(DriftModelsTest, ZigzagActuallySwings) {
  const Duration eps = microseconds(100);
  Rng rng(7);
  ZigzagDrift zig(0.25);
  const auto traj = zig.generate(eps, seconds(1), rng);
  Time max_skew = 0, min_skew = 0;
  for (Time t = 0; t <= seconds(1); t += microseconds(10)) {
    const Time skew = traj.clock_at(t) - t;
    max_skew = std::max(max_skew, skew);
    min_skew = std::min(min_skew, skew);
  }
  EXPECT_GT(max_skew, eps / 2);   // swings well into the positive band
  EXPECT_LT(min_skew, -eps / 2);  // and the negative band
}

TEST(DriftModelsTest, OffsetFracOutOfRangeRejected) {
  EXPECT_THROW(OffsetDrift(1.5), CheckError);
  EXPECT_THROW(OffsetDrift(-2.0), CheckError);
}

TEST(DriftModelsTest, ZeroEpsDegeneratesToPerfect) {
  Rng rng(3);
  RandomDrift rd(0.1, milliseconds(1));
  const auto traj = rd.generate(0, seconds(1), rng);
  EXPECT_EQ(traj.clock_at(milliseconds(123)), milliseconds(123));
}

TEST(DriftModelsTest, RandomDriftIsSeedDeterministic) {
  const Duration eps = milliseconds(1);
  RandomDrift rd(0.2, milliseconds(5));
  Rng r1(42), r2(42), r3(43);
  const auto a = rd.generate(eps, seconds(1), r1);
  const auto b = rd.generate(eps, seconds(1), r2);
  const auto c = rd.generate(eps, seconds(1), r3);
  ASSERT_EQ(a.points().size(), b.points().size());
  for (std::size_t i = 0; i < a.points().size(); ++i) {
    EXPECT_EQ(a.points()[i].t, b.points()[i].t);
    EXPECT_EQ(a.points()[i].c, b.points()[i].c);
  }
  // Different seed should (overwhelmingly) differ somewhere.
  bool differs = a.points().size() != c.points().size();
  for (std::size_t i = 0; !differs && i < a.points().size(); ++i) {
    differs = a.points()[i].c != c.points()[i].c;
  }
  EXPECT_TRUE(differs);
}

}  // namespace
}  // namespace psc
