#include "lp/simplex.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace spider {

namespace {

/// Dense tableau state. Columns: [structural vars | slack/surplus |
/// artificial | rhs]. Basis columns always form an identity submatrix.
class Tableau {
 public:
  Tableau(const LpModel& model, double eps) : eps_(eps) {
    const int n = model.num_variables();
    const int m = model.num_constraints();
    num_structural_ = n;

    // Count helper columns.
    int num_slack = 0;
    int num_artificial = 0;
    for (const auto& row : model.rows()) {
      const bool flip = row.rhs < 0;
      RowSense sense = row.sense;
      if (flip && sense != RowSense::kEq)
        sense = (sense == RowSense::kLeq) ? RowSense::kGeq : RowSense::kLeq;
      if (sense == RowSense::kLeq) {
        ++num_slack;
      } else if (sense == RowSense::kGeq) {
        ++num_slack;  // surplus
        ++num_artificial;
      } else {
        ++num_artificial;
      }
    }
    first_artificial_ = n + num_slack;
    cols_ = n + num_slack + num_artificial + 1;  // +1 rhs
    rows_ = m;
    t_.assign(static_cast<std::size_t>(m) * static_cast<std::size_t>(cols_),
              0.0);
    basis_.assign(static_cast<std::size_t>(m), -1);

    int next_slack = n;
    int next_artificial = first_artificial_;
    for (int i = 0; i < m; ++i) {
      const auto& row = model.rows()[static_cast<std::size_t>(i)];
      const bool flip = row.rhs < 0;
      const double sign = flip ? -1.0 : 1.0;
      RowSense sense = row.sense;
      if (flip && sense != RowSense::kEq)
        sense = (sense == RowSense::kLeq) ? RowSense::kGeq : RowSense::kLeq;

      for (const LpTerm& term : row.terms) at(i, term.var) += sign * term.coeff;
      at(i, cols_ - 1) = sign * row.rhs;

      if (sense == RowSense::kLeq) {
        at(i, next_slack) = 1.0;
        basis_[static_cast<std::size_t>(i)] = next_slack++;
      } else if (sense == RowSense::kGeq) {
        at(i, next_slack) = -1.0;
        ++next_slack;
        at(i, next_artificial) = 1.0;
        basis_[static_cast<std::size_t>(i)] = next_artificial++;
      } else {  // kEq (rhs made non-negative via sign)
        if (at(i, cols_ - 1) < 0) {
          // kEq with negative rhs: negate whole row so the artificial basis
          // is feasible.
          for (int j = 0; j < cols_; ++j) at(i, j) = -at(i, j);
        }
        at(i, next_artificial) = 1.0;
        basis_[static_cast<std::size_t>(i)] = next_artificial++;
      }
    }
    num_artificial_ = num_artificial;
  }

  [[nodiscard]] double& at(int row, int col) {
    return t_[static_cast<std::size_t>(row) * static_cast<std::size_t>(cols_) +
              static_cast<std::size_t>(col)];
  }
  [[nodiscard]] double at(int row, int col) const {
    return t_[static_cast<std::size_t>(row) * static_cast<std::size_t>(cols_) +
              static_cast<std::size_t>(col)];
  }

  [[nodiscard]] int rows() const { return rows_; }
  [[nodiscard]] int rhs_col() const { return cols_ - 1; }
  [[nodiscard]] int num_decision_cols() const { return cols_ - 1; }
  [[nodiscard]] int first_artificial() const { return first_artificial_; }
  [[nodiscard]] int num_artificial() const { return num_artificial_; }
  [[nodiscard]] int basis(int row) const {
    return basis_[static_cast<std::size_t>(row)];
  }

  /// One pivot: make column `col` basic in row `row`.
  void pivot(int row, int col) {
    const double p = at(row, col);
    const double inv = 1.0 / p;
    for (int j = 0; j < cols_; ++j) at(row, j) *= inv;
    at(row, col) = 1.0;  // kill rounding residue
    // Eliminate over the pivot row's nonzero columns only: x - f * 0 == x
    // (up to the sign of a zero x, which no comparison or division below
    // can observe), so skipping them leaves every other entry unchanged.
    const double* source = &t_[static_cast<std::size_t>(row) *
                               static_cast<std::size_t>(cols_)];
    nonzero_.clear();
    for (int j = 0; j < cols_; ++j)
      if (source[j] != 0.0) nonzero_.push_back(j);
    for (int i = 0; i < rows_; ++i) {
      if (i == row) continue;
      const double factor = at(i, col);
      if (factor == 0.0) continue;
      double* target = &t_[static_cast<std::size_t>(i) *
                           static_cast<std::size_t>(cols_)];
      for (const int j : nonzero_) target[j] -= factor * source[j];
      at(i, col) = 0.0;
    }
    basis_[static_cast<std::size_t>(row)] = col;
  }

  /// Ratio test restricted to pivot elements above `min_pivot`: the leaving
  /// row for entering column `col`, or -1 if no row qualifies. Ties break
  /// toward the smallest basis index (lexicographic flavour that combats
  /// cycling even under Dantzig).
  [[nodiscard]] int ratio_test(int col, double min_pivot) const {
    int best_row = -1;
    double best_ratio = std::numeric_limits<double>::infinity();
    for (int i = 0; i < rows_; ++i) {
      const double a = at(i, col);
      if (a <= min_pivot) continue;
      const double ratio = at(i, rhs_col()) / a;
      if (ratio < best_ratio - eps_ ||
          (ratio < best_ratio + eps_ &&
           (best_row == -1 || basis(i) < basis(best_row)))) {
        best_ratio = ratio;
        best_row = i;
      }
    }
    return best_row;
  }

 private:
  double eps_;
  int rows_ = 0;
  int cols_ = 0;
  int num_structural_ = 0;
  int first_artificial_ = 0;
  int num_artificial_ = 0;
  std::vector<double> t_;
  std::vector<int> basis_;
  std::vector<int> nonzero_;  // pivot scratch: the pivot row's support
};

/// Recomputes the reduced-cost row for objective `c` (length = decision
/// cols) from scratch given the current basis. reduced[j] = cB·T[:,j] - c[j]
/// (so entering candidates are reduced[j] < 0); objective = cB·rhs.
void rebuild_reduced(const Tableau& tab, const std::vector<double>& c,
                     std::vector<double>& reduced, double& objective) {
  const int cols = tab.num_decision_cols();
  reduced.assign(static_cast<std::size_t>(cols), 0.0);
  objective = 0.0;
  for (int j = 0; j < cols; ++j)
    reduced[static_cast<std::size_t>(j)] = -c[static_cast<std::size_t>(j)];
  for (int i = 0; i < tab.rows(); ++i) {
    const double cb = c[static_cast<std::size_t>(tab.basis(i))];
    if (cb == 0.0) continue;
    for (int j = 0; j < cols; ++j)
      reduced[static_cast<std::size_t>(j)] += cb * tab.at(i, j);
    objective += cb * tab.at(i, tab.rhs_col());
  }
  // Basis columns must read exactly zero.
  for (int i = 0; i < tab.rows(); ++i)
    reduced[static_cast<std::size_t>(tab.basis(i))] = 0.0;
}

/// Runs simplex iterations for the objective encoded in `reduced` (the
/// reduced-cost row: entering candidates have reduced[j] < -eps for a
/// maximization written in this sign convention). `c` is the true cost
/// vector backing `reduced`, used to rebuild it periodically.
/// `allow_col(j)` gates entering columns (phase 2 forbids artificials).
struct PhaseResult {
  LpStatus status = LpStatus::kOptimal;
  long iterations = 0;
  bool stalled = false;
};

template <typename AllowCol>
PhaseResult run_phase(Tableau& tab, std::vector<double>& reduced,
                      double& objective, const std::vector<double>& c,
                      const SimplexOptions& opt, AllowCol allow_col) {
  PhaseResult result;
  // The phase objective is nondecreasing in exact arithmetic (degenerate
  // pivots hold it, every other pivot improves it), so `stall` counting
  // pivots since the last material improvement is a sound progress monitor.
  double best_objective = objective;
  long stall = 0;
  for (long iter = 0; iter < opt.max_iterations; ++iter) {
    if (opt.rebuild_every > 0 && iter > 0 && iter % opt.rebuild_every == 0)
      rebuild_reduced(tab, c, reduced, objective);
    const bool bland = iter >= opt.bland_after;
    int entering = -1;
    double best = -opt.eps;
    for (int j = 0; j < tab.num_decision_cols(); ++j) {
      if (!allow_col(j)) continue;
      const double r = reduced[static_cast<std::size_t>(j)];
      if (r < best) {
        entering = j;
        if (bland) break;  // Bland: first eligible column
        best = r;
      }
    }
    if (entering == -1) {
      result.status = LpStatus::kOptimal;
      result.iterations = iter;
      return result;
    }
    // Prefer a sturdy pivot; fall back to tiny-but-nonzero elements only
    // when the column has nothing better (pivoting on ~eps entries scales
    // the row by ~1/eps and destroys the tableau numerically).
    int leaving = tab.ratio_test(entering, opt.pivot_tol);
    if (leaving == -1) leaving = tab.ratio_test(entering, opt.eps);
    if (leaving == -1) {
      result.status = LpStatus::kUnbounded;
      result.iterations = iter;
      return result;
    }
    // Update the reduced-cost row alongside the tableau pivot.
    const double factor = reduced[static_cast<std::size_t>(entering)];
    tab.pivot(leaving, entering);
    if (factor != 0.0) {
      // After tab.pivot the leaving row is normalized; subtract its multiple.
      for (int j = 0; j < tab.num_decision_cols(); ++j)
        reduced[static_cast<std::size_t>(j)] -= factor * tab.at(leaving, j);
      objective -= factor * tab.at(leaving, tab.rhs_col());
      reduced[static_cast<std::size_t>(entering)] = 0.0;
    }
    const double progress_tol =
        opt.pivot_tol * (1.0 + std::abs(best_objective));
    if (objective > best_objective + progress_tol) {
      best_objective = objective;
      stall = 0;
    } else if (opt.stall_after > 0 && ++stall >= opt.stall_after) {
      // Degenerate grind: keep the current (feasible) basis rather than
      // burning the rest of the iteration budget on zero progress.
      result.status = LpStatus::kOptimal;
      result.iterations = iter + 1;
      result.stalled = true;
      return result;
    }
  }
  result.status = LpStatus::kIterationLimit;
  result.iterations = opt.max_iterations;
  return result;
}

}  // namespace

LpSolution solve_lp(const LpModel& model, const SimplexOptions& options) {
  LpSolution solution;
  Tableau tab(model, options.eps);
  const int cols = tab.num_decision_cols();

  std::vector<double> reduced;
  double objective = 0.0;

  // Phase 1: drive artificials to zero (maximize -sum(artificials)).
  if (tab.num_artificial() > 0) {
    std::vector<double> c1(static_cast<std::size_t>(cols), 0.0);
    for (int j = tab.first_artificial(); j < cols; ++j)
      c1[static_cast<std::size_t>(j)] = -1.0;
    rebuild_reduced(tab, c1, reduced, objective);
    const PhaseResult phase1 = run_phase(tab, reduced, objective, c1, options,
                                         [](int) { return true; });
    solution.iterations += phase1.iterations;
    if (phase1.status == LpStatus::kIterationLimit) {
      solution.status = LpStatus::kIterationLimit;
      return solution;
    }
    // Phase-1 objective is -(sum of artificials); feasible iff ~0.
    if (objective < -1e-6) {
      solution.status = LpStatus::kInfeasible;
      return solution;
    }
    // Pivot any artificial still in the basis (at value 0) out of it, so
    // phase 2 can ignore artificial columns entirely.
    for (int i = 0; i < tab.rows(); ++i) {
      if (tab.basis(i) < tab.first_artificial()) continue;
      int replacement = -1;
      for (int j = 0; j < tab.first_artificial(); ++j) {
        if (std::abs(tab.at(i, j)) > options.eps) {
          replacement = j;
          break;
        }
      }
      if (replacement >= 0) tab.pivot(i, replacement);
      // else: redundant row; the artificial stays basic at 0 and is inert.
    }
  }

  // Phase 2: the real objective.
  std::vector<double> c2(static_cast<std::size_t>(cols), 0.0);
  for (int j = 0; j < model.num_variables(); ++j)
    c2[static_cast<std::size_t>(j)] = model.objective_coeff(j);
  rebuild_reduced(tab, c2, reduced, objective);
  const int first_artificial = tab.first_artificial();
  const PhaseResult phase2 =
      run_phase(tab, reduced, objective, c2, options,
                [first_artificial](int j) { return j < first_artificial; });
  solution.iterations += phase2.iterations;
  solution.stalled = phase2.stalled;
  if (phase2.status != LpStatus::kOptimal) {
    solution.status = phase2.status;
    return solution;
  }

  solution.status = LpStatus::kOptimal;
  solution.x.assign(static_cast<std::size_t>(model.num_variables()), 0.0);
  for (int i = 0; i < tab.rows(); ++i) {
    const int b = tab.basis(i);
    if (b < model.num_variables())
      solution.x[static_cast<std::size_t>(b)] =
          std::max(0.0, tab.at(i, tab.rhs_col()));
  }
  solution.objective = model.evaluate_objective(solution.x);
  return solution;
}

}  // namespace spider
