// Unit tests for the two-phase simplex solver.
#include <gtest/gtest.h>

#include <cmath>

#include "lp/simplex.hpp"
#include "test_support.hpp"
#include "util/random.hpp"

namespace spider {
namespace {

TEST(Simplex, SimpleTwoVariable) {
  // max 3x + 2y s.t. x + y <= 4, x + 3y <= 6 -> x=4, y=0, obj 12.
  LpModel m;
  const int x = m.add_variable(3.0);
  const int y = m.add_variable(2.0);
  m.add_constraint({{x, 1}, {y, 1}}, RowSense::kLeq, 4);
  m.add_constraint({{x, 1}, {y, 3}}, RowSense::kLeq, 6);
  const LpSolution s = solve_lp(m);
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_NEAR(s.objective, 12.0, 1e-7);
  EXPECT_NEAR(s.x[static_cast<std::size_t>(x)], 4.0, 1e-7);
  EXPECT_NEAR(s.x[static_cast<std::size_t>(y)], 0.0, 1e-7);
}

TEST(Simplex, InteriorOptimum) {
  // max x + y s.t. 2x + y <= 4, x + 2y <= 4 -> x=y=4/3, obj 8/3.
  LpModel m;
  const int x = m.add_variable(1.0);
  const int y = m.add_variable(1.0);
  m.add_constraint({{x, 2}, {y, 1}}, RowSense::kLeq, 4);
  m.add_constraint({{x, 1}, {y, 2}}, RowSense::kLeq, 4);
  const LpSolution s = solve_lp(m);
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_NEAR(s.objective, 8.0 / 3.0, 1e-7);
  EXPECT_NEAR(s.x[static_cast<std::size_t>(x)], 4.0 / 3.0, 1e-7);
}

TEST(Simplex, DetectsUnbounded) {
  LpModel m;
  const int x = m.add_variable(1.0);
  m.add_constraint({{x, -1}}, RowSense::kLeq, 1);  // -x <= 1: no upper bound
  EXPECT_EQ(solve_lp(m).status, LpStatus::kUnbounded);
}

TEST(Simplex, DetectsInfeasible) {
  LpModel m;
  const int x = m.add_variable(1.0);
  m.add_constraint({{x, 1}}, RowSense::kLeq, 1);
  m.add_constraint({{x, 1}}, RowSense::kGeq, 3);
  EXPECT_EQ(solve_lp(m).status, LpStatus::kInfeasible);
}

TEST(Simplex, EqualityRows) {
  // max x + 2y s.t. x + y == 3, y <= 2 -> x=1, y=2, obj 5.
  LpModel m;
  const int x = m.add_variable(1.0);
  const int y = m.add_variable(2.0);
  m.add_constraint({{x, 1}, {y, 1}}, RowSense::kEq, 3);
  m.add_constraint({{y, 1}}, RowSense::kLeq, 2);
  const LpSolution s = solve_lp(m);
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_NEAR(s.objective, 5.0, 1e-7);
  EXPECT_NEAR(s.x[static_cast<std::size_t>(x)], 1.0, 1e-7);
  EXPECT_NEAR(s.x[static_cast<std::size_t>(y)], 2.0, 1e-7);
}

TEST(Simplex, GeqRowsNeedPhaseOne) {
  // max -x s.t. x >= 2, x <= 5 -> x=2.
  LpModel m;
  const int x = m.add_variable(-1.0);
  m.add_constraint({{x, 1}}, RowSense::kGeq, 2);
  m.add_constraint({{x, 1}}, RowSense::kLeq, 5);
  const LpSolution s = solve_lp(m);
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_NEAR(s.x[static_cast<std::size_t>(x)], 2.0, 1e-7);
}

TEST(Simplex, NegativeRhsNormalization) {
  // x - y <= -1 (i.e. y >= x + 1), y <= 3, max x -> x=2, y=3.
  LpModel m;
  const int x = m.add_variable(1.0);
  const int y = m.add_variable(0.0);
  m.add_constraint({{x, 1}, {y, -1}}, RowSense::kLeq, -1);
  m.add_constraint({{y, 1}}, RowSense::kLeq, 3);
  const LpSolution s = solve_lp(m);
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_NEAR(s.x[static_cast<std::size_t>(x)], 2.0, 1e-7);
}

TEST(Simplex, DegenerateRhsZeroRowsTerminate) {
  // Balance-style rows with rhs 0 (heavy degeneracy).
  LpModel m;
  const int x = m.add_variable(1.0);
  const int y = m.add_variable(1.0);
  m.add_constraint({{x, 1}, {y, -1}}, RowSense::kLeq, 0);
  m.add_constraint({{y, 1}, {x, -1}}, RowSense::kLeq, 0);
  m.add_constraint({{x, 1}}, RowSense::kLeq, 2);
  const LpSolution s = solve_lp(m);
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_NEAR(s.objective, 4.0, 1e-7);  // x = y = 2
}

TEST(Simplex, ArtificialsLeftInTheBasisStayAtZero) {
  // The second row repeats the first, so one artificial can never leave
  // the basis. max x - y -> x=3, y=0.
  LpModel redundant;
  const int x = redundant.add_variable(1.0);
  const int y = redundant.add_variable(-1.0);
  redundant.add_constraint({{x, 1}, {y, 1}}, RowSense::kEq, 3);
  redundant.add_constraint({{x, 2}, {y, 2}}, RowSense::kEq, 6);
  redundant.add_constraint({{x, 1}}, RowSense::kLeq, 5);
  const LpSolution s = solve_lp(redundant);
  expect_strong_duality(redundant, s);
  EXPECT_NEAR(s.x[static_cast<std::size_t>(x)], 3.0, 1e-7);
  EXPECT_NEAR(s.x[static_cast<std::size_t>(y)], 0.0, 1e-7);

  // Phase 1 ends with the artificial of -x == 0 basic at zero (x has a
  // negative phase-1 reduced cost), so in phase 2 that row, not x <= 5,
  // must block x: max x -> x = 0.
  LpModel pinned;
  const int z = pinned.add_variable(1.0);
  pinned.add_constraint({{z, -1}}, RowSense::kEq, 0);
  pinned.add_constraint({{z, 1}}, RowSense::kLeq, 5);
  const LpSolution p = solve_lp(pinned);
  expect_strong_duality(pinned, p);
  EXPECT_NEAR(p.x[static_cast<std::size_t>(z)], 0.0, 1e-9);
}

TEST(Simplex, ZeroObjectiveReturnsFeasiblePoint) {
  LpModel m;
  const int x = m.add_variable(0.0);
  m.add_constraint({{x, 1}}, RowSense::kLeq, 10);
  const LpSolution s = solve_lp(m);
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_NEAR(m.max_violation(s.x), 0.0, 1e-9);
}

TEST(Simplex, EmptyModelIsTrivial) {
  LpModel m;
  const int x = m.add_variable(5.0);
  (void)x;
  // No constraints at all: unbounded.
  EXPECT_EQ(solve_lp(m).status, LpStatus::kUnbounded);
}

TEST(Simplex, RepeatedVariableTermsAreSummed) {
  // max x with (0.5x + 0.5x) <= 3 -> x = 3.
  LpModel m;
  const int x = m.add_variable(1.0);
  m.add_constraint({{x, 0.5}, {x, 0.5}}, RowSense::kLeq, 3);
  const LpSolution s = solve_lp(m);
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_NEAR(s.x[static_cast<std::size_t>(x)], 3.0, 1e-7);
}

TEST(LpModel, EvaluateAndViolation) {
  LpModel m;
  const int x = m.add_variable(2.0);
  const int y = m.add_variable(1.0);
  m.add_constraint({{x, 1}, {y, 1}}, RowSense::kLeq, 3);
  m.add_constraint({{x, 1}}, RowSense::kGeq, 1);
  m.add_constraint({{y, 1}}, RowSense::kEq, 1);
  const std::vector<double> feasible{2.0, 1.0};
  EXPECT_DOUBLE_EQ(m.evaluate_objective(feasible), 5.0);
  EXPECT_NEAR(m.max_violation(feasible), 0.0, 1e-12);
  const std::vector<double> infeasible{0.0, 3.0};
  EXPECT_GT(m.max_violation(infeasible), 0.9);
}

TEST(LpModel, RejectsUnknownVariable) {
  LpModel m;
  (void)m.add_variable(1.0);
  EXPECT_THROW(m.add_constraint({{5, 1.0}}, RowSense::kLeq, 1),
               AssertionError);
}

/// Property: on random small LPs with b >= 0 (always feasible at 0), the
/// solver's optimum matches brute-force enumeration over a fine grid lower
/// bound and is feasible.
class SimplexProperty : public testing::TestWithParam<std::uint64_t> {};

TEST_P(SimplexProperty, OptimumIsFeasibleAndDominatesGridSearch) {
  Rng rng(GetParam());
  LpModel m;
  const int nv = 3;
  for (int v = 0; v < nv; ++v) m.add_variable(rng.uniform(0.1, 2.0));
  for (int c = 0; c < 4; ++c) {
    std::vector<LpTerm> terms;
    for (int v = 0; v < nv; ++v)
      terms.push_back({v, rng.uniform(0.05, 1.0)});  // positive: bounded
    m.add_constraint(std::move(terms), RowSense::kLeq, rng.uniform(1.0, 5.0));
  }
  const LpSolution s = solve_lp(m);
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_LE(m.max_violation(s.x), 1e-6);

  // Coarse grid search can only find feasible points at least as bad.
  double best_grid = 0;
  const int steps = 12;
  for (int i = 0; i <= steps; ++i)
    for (int j = 0; j <= steps; ++j)
      for (int k = 0; k <= steps; ++k) {
        const std::vector<double> x{i * 0.5, j * 0.5, k * 0.5};
        if (m.max_violation(x) <= 1e-9)
          best_grid = std::max(best_grid, m.evaluate_objective(x));
      }
  EXPECT_GE(s.objective, best_grid - 1e-6);
}

/// Property: random LPs that mix <=, >= and == rows (some with negative
/// rhs, which the solver negates) are feasible by construction, since every
/// row holds at a random point x0, so phase 1 must find a basis; the
/// optimum then carries a strong-duality certificate.
TEST_P(SimplexProperty, MixedSenseRowsSolveWithDualCertificate) {
  Rng rng(GetParam());
  LpModel m;
  const int nv = 6;
  for (int v = 0; v < nv; ++v) m.add_variable(rng.uniform(-1.0, 2.0));
  std::vector<double> x0(static_cast<std::size_t>(nv));
  for (double& v : x0) v = rng.uniform(0.0, 2.0);
  auto at_x0 = [&x0](const std::vector<LpTerm>& terms) {
    double lhs = 0.0;
    for (const LpTerm& t : terms)
      lhs += t.coeff * x0[static_cast<std::size_t>(t.var)];
    return lhs;
  };
  auto random_terms = [&](double lo, double hi) {
    std::vector<LpTerm> terms;
    for (int v = 0; v < nv; ++v)
      if (rng.uniform(0.0, 1.0) < 0.7)
        terms.push_back({v, rng.uniform(lo, hi)});
    return terms;
  };
  // Positive <= rows over every variable keep the LP bounded.
  for (int c = 0; c < 3; ++c) {
    std::vector<LpTerm> terms;
    for (int v = 0; v < nv; ++v) terms.push_back({v, rng.uniform(0.1, 1.0)});
    const double rhs = at_x0(terms) + rng.uniform(0.0, 2.0);
    m.add_constraint(std::move(terms), RowSense::kLeq, rhs);
  }
  for (int c = 0; c < 3; ++c) {
    std::vector<LpTerm> terms = random_terms(-1.0, 1.0);
    const double rhs = at_x0(terms) - rng.uniform(0.0, 1.0);
    m.add_constraint(std::move(terms), RowSense::kGeq, rhs);
  }
  for (int c = 0; c < 2; ++c) {
    std::vector<LpTerm> terms = random_terms(-1.0, 1.0);
    const double rhs = at_x0(terms);
    m.add_constraint(std::move(terms), RowSense::kEq, rhs);
  }
  const LpSolution s = solve_lp(m);
  expect_strong_duality(m, s);
  EXPECT_GE(s.objective, m.evaluate_objective(x0) - 1e-6);

  // Bland's rule from the first pivot and a factor rebuilt after every
  // pivot reach the same optimum.
  SimplexOptions stressed;
  stressed.bland_after = 0;
  stressed.refactor_every = 1;
  const LpSolution b = solve_lp(m, stressed);
  expect_strong_duality(m, b);
  EXPECT_NEAR(b.objective, s.objective, 1e-7 * (1.0 + std::abs(s.objective)));
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimplexProperty,
                         testing::Values(101, 102, 103, 104, 105, 106, 107,
                                         108, 109, 110));

}  // namespace
}  // namespace spider
