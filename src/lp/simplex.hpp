// Two-phase revised simplex over a sparse, column-wise model.
//
// Why hand-rolled: the reproduction must be self-contained (no external
// solver). The solver maximizes, treats all variables as >= 0, and supports
// <=, >= and == rows (the last two through phase-1 artificials).
//
// Why revised: the routing LPs (eqs. 1–5 and their variants) are large and
// very sparse. A path column has one demand entry plus three entries per
// hop, so isp-lp's 528 × 916 model holds only 7.6k nonzeros. The solver
// keeps the constraint matrix in compressed columns (and a row-wise copy)
// and the basis inverse as a product-form eta file, which it rebuilds from
// the basis columns every `refactor_every` pivots. An iteration transforms
// only the entering column and one row of the basis inverse; no dense
// tableau is ever formed. DESIGN.md "LP solver" has the measurements.
//
// Pricing is Devex: the entering column maximizes d_j² / w_j over reduced
// costs d_j, which are updated from the pivot row after every pivot.
//
// Robustness:
//   - Reduced costs are recomputed from fresh simplex multipliers at every
//     rebuild of the factor and before optimality is declared, and basic
//     values at every rebuild, so rounding drift does not accumulate.
//   - Harris's two-pass ratio test pivots on the largest entry among the
//     rows that block within a tolerance, never on one below `pivot_tol`.
//   - The balance rows (rhs 0) make the LPs heavily degenerate. After
//     `bland_after` degenerate pivots in a row the solver switches to
//     Bland's rule, which cannot cycle, until the objective moves again.
//   - Every choice breaks ties toward the lowest index, so a model always
//     solves to the same bits.
#pragma once

#include <vector>

#include "lp/model.hpp"

namespace spider {

enum class LpStatus { kOptimal, kUnbounded, kInfeasible, kIterationLimit };

struct LpSolution {
  LpStatus status = LpStatus::kIterationLimit;
  double objective = 0.0;
  std::vector<double> x;  // primal values, one per model variable
  /// Dual values, one per model row: y >= 0 on <= rows, y <= 0 on >= rows,
  /// free on == rows, with c_j - yᵀA_j <= 0 for every variable and
  /// bᵀy == objective at the optimum.
  std::vector<double> duals;
  long iterations = 0;
};

struct SimplexOptions {
  long max_iterations = 500'000;
  /// Primal and dual feasibility tolerance (the dual one scaled by the
  /// largest cost).
  double eps = 1e-9;
  /// Smallest transformed-column entry the ratio test pivots on.
  double pivot_tol = 1e-9;
  /// Rebuild the basis factor after this many pivots.
  long refactor_every = 100;
  /// Switch to Bland's rule after this many degenerate pivots in a row.
  long bland_after = 50;
};

/// Solves `model`. On kOptimal, x and duals are feasible to within ~eps and
/// optimal; on any other status both are empty.
[[nodiscard]] LpSolution solve_lp(const LpModel& model,
                                  const SimplexOptions& options = {});

}  // namespace spider
