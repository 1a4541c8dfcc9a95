// Tests for clock trajectories and drift models: axioms C1/C3, the C_eps
// band, inversion properties, and generator sweeps.
#include <gtest/gtest.h>

#include <algorithm>

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
