#include "lp/simplex.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace spider {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Eta entries below this magnitude are dropped; the next rebuild of the
/// factor sheds the error.
constexpr double kDropTol = 1e-13;

/// The model in computational form. Every row is negated where needed so
/// its rhs is non-negative, and gets one logical column (+1 in its row);
/// every >= row also gets a surplus column (-1). The logical of a <= row is
/// its slack; the logical of a >= or == row is an artificial, which phase 1
/// drives to zero and phase 2 holds there. Columns are ordered structural,
/// surplus, logical, and stored both column-wise and (all but the
/// logicals) row-wise.
struct StandardForm {
  int m = 0;
  int num_structural = 0;
  int first_logical = 0;  // row i's logical is column first_logical + i
  int num_cols = 0;
  // Column j's entries are [col_start[j], col_start[j + 1]) of col_row and
  // col_value; row i's are [row_start[i], row_start[i + 1]) of row_col and
  // row_value.
  std::vector<int> col_start;
  std::vector<int> col_row;
  std::vector<double> col_value;
  std::vector<int> row_start;
  std::vector<int> row_col;
  std::vector<double> row_value;
  std::vector<double> rhs;
  std::vector<double> sign;      // -1 where the model row was negated
  std::vector<char> artificial;  // per row: its logical is an artificial

  [[nodiscard]] bool is_artificial(int col) const {
    return col >= first_logical && artificial[col - first_logical] != 0;
  }
};

StandardForm standard_form(const LpModel& model) {
  StandardForm f;
  f.m = model.num_constraints();
  f.num_structural = model.num_variables();
  const int n = f.num_structural;
  f.rhs.resize(f.m);
  f.sign.resize(f.m);
  f.artificial.resize(f.m);

  // Row pass: normalise each row and sum repeated terms.
  struct Entry {
    int col;
    int row;
    double value;
  };
  std::vector<Entry> entries;
  std::vector<double> sum(n, 0.0);
  std::vector<int> seen_in(n, -1);
  std::vector<int> touched;
  std::vector<int> surplus_rows;
  for (int i = 0; i < f.m; ++i) {
    const LpModel::Row& r = model.rows()[i];
    const double sign = r.rhs < 0 ? -1.0 : 1.0;
    RowSense sense = r.sense;
    if (sign < 0 && sense != RowSense::kEq)
      sense = sense == RowSense::kLeq ? RowSense::kGeq : RowSense::kLeq;
    f.sign[i] = sign;
    f.rhs[i] = sign * r.rhs;
    f.artificial[i] = sense != RowSense::kLeq;
    if (sense == RowSense::kGeq) surplus_rows.push_back(i);
    touched.clear();
    for (const LpTerm& t : r.terms) {
      if (seen_in[t.var] != i) {
        seen_in[t.var] = i;
        sum[t.var] = 0.0;
        touched.push_back(t.var);
      }
      sum[t.var] += sign * t.coeff;
    }
    for (const int v : touched)
      if (sum[v] != 0.0) entries.push_back({v, i, sum[v]});
  }

  // Column-wise: the structural entries (rows ascending, as the row pass
  // emitted them), then one unit entry per surplus and logical column.
  const int num_surplus = static_cast<int>(surplus_rows.size());
  f.first_logical = n + num_surplus;
  f.num_cols = f.first_logical + f.m;
  f.col_start.assign(f.num_cols + 1, 0);
  for (const Entry& e : entries) ++f.col_start[e.col + 1];
  for (int j = n; j < f.num_cols; ++j) f.col_start[j + 1] = 1;
  for (int j = 0; j < f.num_cols; ++j) f.col_start[j + 1] += f.col_start[j];
  f.col_row.resize(f.col_start[f.num_cols]);
  f.col_value.resize(f.col_start[f.num_cols]);
  std::vector<int> next(f.col_start.begin(), f.col_start.end() - 1);
  auto place = [&f, &next](int col, int row, double value) {
    f.col_row[next[col]] = row;
    f.col_value[next[col]++] = value;
  };
  for (const Entry& e : entries) place(e.col, e.row, e.value);
  for (int s = 0; s < num_surplus; ++s) place(n + s, surplus_rows[s], -1.0);
  for (int i = 0; i < f.m; ++i) place(f.first_logical + i, i, 1.0);

  // Row-wise copy of the structural and surplus entries.
  const int nonlogical = f.col_start[f.first_logical];
  f.row_start.assign(f.m + 1, 0);
  for (int k = 0; k < nonlogical; ++k) ++f.row_start[f.col_row[k] + 1];
  for (int i = 0; i < f.m; ++i) f.row_start[i + 1] += f.row_start[i];
  f.row_col.resize(nonlogical);
  f.row_value.resize(nonlogical);
  next.assign(f.row_start.begin(), f.row_start.end() - 1);
  for (int j = 0; j < f.first_logical; ++j)
    for (int k = f.col_start[j]; k < f.col_start[j + 1]; ++k) {
      const int at = next[f.col_row[k]]++;
      f.row_col[at] = j;
      f.row_value[at] = f.col_value[k];
    }
  return f;
}

/// The basis inverse in product form: B^-1 = E_k^-1 ... E_1^-1, where eta
/// E_t is the identity with column `row` replaced by a transformed basis
/// column. An eta that would be the identity is not stored.
class EtaFile {
 public:
  void clear() {
    etas_.clear();
    index_.clear();
    value_.clear();
  }

  /// Appends the eta that pivots the dense column `v` in row `row`.
  void push(int row, const std::vector<double>& v) {
    const std::size_t begin = index_.size();
    for (int i = 0; i < static_cast<int>(v.size()); ++i) {
      if (i == row || std::abs(v[i]) <= kDropTol) continue;
      index_.push_back(i);
      value_.push_back(v[i]);
    }
    close(row, v[row], begin);
  }

  /// Appends the eta of a sparse column that needs no transformation.
  void push_sparse(int row, const int* rows, const double* values, int len) {
    const std::size_t begin = index_.size();
    double pivot = 0.0;
    for (int k = 0; k < len; ++k) {
      if (rows[k] == row) {
        pivot = values[k];
      } else {
        index_.push_back(rows[k]);
        value_.push_back(values[k]);
      }
    }
    close(row, pivot, begin);
  }

  /// v <- B^-1 v.
  void ftran(std::vector<double>& v) const {
    for (const Eta& e : etas_) {
      double t = v[e.row];
      if (t == 0.0) continue;
      t /= e.pivot;
      v[e.row] = t;
      for (std::size_t k = e.begin; k < e.end; ++k)
        v[index_[k]] -= value_[k] * t;
    }
  }

  /// y <- B^-T y.
  void btran(std::vector<double>& y) const {
    for (auto e = etas_.rbegin(); e != etas_.rend(); ++e) {
      double s = y[e->row];
      for (std::size_t k = e->begin; k < e->end; ++k)
        s -= value_[k] * y[index_[k]];
      y[e->row] = s / e->pivot;
    }
  }

 private:
  struct Eta {
    int row;
    double pivot;
    std::size_t begin;  // off-pivot entries: [begin, end) of index_/value_
    std::size_t end;
  };

  void close(int row, double pivot, std::size_t begin) {
    if (pivot == 1.0 && index_.size() == begin) return;  // the identity
    etas_.push_back({row, pivot, begin, index_.size()});
  }

  std::vector<Eta> etas_;
  std::vector<int> index_;
  std::vector<double> value_;
};

/// Revised simplex over a StandardForm: a basis header (the basic column of
/// each row position), the basic values, the reduced costs with their Devex
/// weights, and an eta file for the basis inverse.
class RevisedSimplex {
 public:
  RevisedSimplex(const StandardForm& form, const SimplexOptions& options)
      : f_(form),
        opt_(options),
        basis_(form.m),
        position_(form.num_cols, -1),
        x_(form.rhs),
        y_(form.m),
        alpha_(form.m),
        rho_(form.m),
        d_(form.num_cols),
        weight_(form.num_cols),
        row_alpha_(form.num_cols, 0.0) {
    // The all-logical basis is the identity, so B^-1 b = b.
    for (int i = 0; i < f_.m; ++i) {
      basis_[i] = f_.first_logical + i;
      position_[f_.first_logical + i] = i;
    }
  }

  /// Pivots from the current basis until `cost` (one entry per column) is
  /// maximized. In phase 2 (`hold_artificials`) a basic artificial is held
  /// at zero.
  LpStatus run(const std::vector<double>& cost, bool hold_artificials,
               long& iterations) {
    double cost_scale = 1.0;
    for (const double c : cost) cost_scale = std::max(cost_scale, std::abs(c));
    const double dual_tol = opt_.eps * cost_scale;
    std::fill(weight_.begin(), weight_.end(), 1.0);
    reprice(cost);
    long degenerate = 0;
    for (;;) {
      if (since_refactor_ >= opt_.refactor_every) {
        refactor();
        reprice(cost);
      }
      const bool bland = degenerate >= opt_.bland_after;
      const int entering = choose_entering(dual_tol, bland);
      if (entering < 0) {
        if (fresh_) return LpStatus::kOptimal;
        reprice(cost);  // confirm on reduced costs free of update drift
        continue;
      }
      if (iterations >= opt_.max_iterations) return LpStatus::kIterationLimit;
      load_column(entering, alpha_);
      etas_.ftran(alpha_);
      const int leaving = bland ? ratio_test_bland(hold_artificials)
                                : ratio_test_harris(hold_artificials);
      if (leaving < 0) return LpStatus::kUnbounded;
      update_pricing(entering, leaving);
      const double theta = pivot(entering, leaving, hold_artificials);
      degenerate = theta > opt_.eps ? 0 : degenerate + 1;
      ++iterations;
    }
  }

  /// Phase-1 infeasibility: the total value of the basic artificials.
  [[nodiscard]] double artificial_total() const {
    double total = 0.0;
    for (int r = 0; r < f_.m; ++r)
      if (f_.is_artificial(basis_[r])) total += std::max(0.0, x_[r]);
    return total;
  }

  /// The value of every structural column (0 when nonbasic).
  [[nodiscard]] std::vector<double> primal() const {
    std::vector<double> x(f_.num_structural, 0.0);
    for (int r = 0; r < f_.m; ++r)
      if (basis_[r] < f_.num_structural) x[basis_[r]] = std::max(0.0, x_[r]);
    return x;
  }

  /// The simplex multipliers of the last repricing, one per model row in
  /// the model's own orientation.
  [[nodiscard]] std::vector<double> duals() const {
    std::vector<double> y(y_);
    for (int i = 0; i < f_.m; ++i) y[i] *= f_.sign[i];
    return y;
  }

 private:
  void load_column(int col, std::vector<double>& v) const {
    std::fill(v.begin(), v.end(), 0.0);
    for (int k = f_.col_start[col]; k < f_.col_start[col + 1]; ++k)
      v[f_.col_row[k]] = f_.col_value[k];
  }

  /// Recomputes the multipliers y = c_B B^-1 and every reduced cost
  /// d_j = c_j - yᵀA_j (0 for basic columns) from scratch.
  void reprice(const std::vector<double>& cost) {
    for (int r = 0; r < f_.m; ++r) y_[r] = cost[basis_[r]];
    etas_.btran(y_);
    for (int j = 0; j < f_.num_cols; ++j) {
      double d = 0.0;
      if (position_[j] < 0) {
        d = cost[j];
        for (int k = f_.col_start[j]; k < f_.col_start[j + 1]; ++k)
          d -= y_[f_.col_row[k]] * f_.col_value[k];
      }
      d_[j] = d;
    }
    fresh_ = true;
  }

  /// The entering column: the largest d_j² / w_j among reduced costs above
  /// `dual_tol` (Devex), or under Bland's rule the first such column. Ties
  /// go to the lowest column. Artificials never enter.
  [[nodiscard]] int choose_entering(double dual_tol, bool bland) const {
    int entering = -1;
    double best = 0.0;
    for (int j = 0; j < f_.num_cols; ++j) {
      const double d = d_[j];
      if (d <= dual_tol || position_[j] >= 0 || f_.is_artificial(j)) continue;
      if (bland) return j;
      const double score = d * d / weight_[j];
      if (score > best) {
        best = score;
        entering = j;
      }
    }
    return entering;
  }

  /// Updates the reduced costs and Devex weights for the pivot that brings
  /// `entering` into position `leaving`. The pivot row e_rᵀB^-1 A is built
  /// row-wise over the nonzeros of rho = e_rᵀB^-1.
  void update_pricing(int entering, int leaving) {
    std::fill(rho_.begin(), rho_.end(), 0.0);
    rho_[leaving] = 1.0;
    etas_.btran(rho_);
    for (int i = 0; i < f_.m; ++i) {
      const double r = rho_[i];
      if (r == 0.0) continue;
      for (int k = f_.row_start[i]; k < f_.row_start[i + 1]; ++k)
        row_alpha_[f_.row_col[k]] += r * f_.row_value[k];
      row_alpha_[f_.first_logical + i] += r;
    }
    const double pivot = alpha_[leaving];
    const double step = d_[entering] / pivot;
    const double entering_weight = weight_[entering];
    for (int j = 0; j < f_.num_cols; ++j) {
      const double a = row_alpha_[j];
      if (a == 0.0) continue;
      row_alpha_[j] = 0.0;
      if (position_[j] >= 0 || j == entering) continue;
      d_[j] -= step * a;
      const double ratio = a / pivot;
      weight_[j] = std::max(weight_[j], ratio * ratio * entering_weight);
    }
    const int out = basis_[leaving];
    d_[out] = -step;
    weight_[out] = std::max(entering_weight / (pivot * pivot), 1.0);
    d_[entering] = 0.0;
    fresh_ = false;
  }

  /// True when basic position `r` is an artificial held at zero.
  [[nodiscard]] bool held(int r, bool hold_artificials) const {
    return hold_artificials && f_.is_artificial(basis_[r]);
  }

  /// Harris's two-pass ratio test: pass 1 finds the longest step that keeps
  /// every basic value above -eps; pass 2 picks, among the rows that block
  /// within that step, the largest pivot (ties: lowest basic column).
  [[nodiscard]] int ratio_test_harris(bool hold_artificials) const {
    double bound = kInf;
    for (int r = 0; r < f_.m; ++r) {
      const double a = alpha_[r];
      if (held(r, hold_artificials)) {
        if (std::abs(a) > opt_.pivot_tol)
          bound = std::min(bound, opt_.eps / std::abs(a));
      } else if (a > opt_.pivot_tol) {
        bound = std::min(bound, (x_[r] + opt_.eps) / a);
      }
    }
    if (bound == kInf) return -1;
    int leaving = -1;
    double best = 0.0;
    for (int r = 0; r < f_.m; ++r) {
      const double a = alpha_[r];
      double magnitude = 0.0;
      if (held(r, hold_artificials)) {
        if (std::abs(a) <= opt_.pivot_tol) continue;
        magnitude = std::abs(a);
      } else {
        if (a <= opt_.pivot_tol || x_[r] / a > bound) continue;
        magnitude = a;
      }
      if (magnitude > best ||
          (magnitude == best && basis_[r] < basis_[leaving])) {
        best = magnitude;
        leaving = r;
      }
    }
    return leaving;
  }

  /// The textbook minimum-ratio test with ties to the lowest basic column:
  /// the leaving rule under which Bland's rule cannot cycle.
  [[nodiscard]] int ratio_test_bland(bool hold_artificials) const {
    int leaving = -1;
    double best = kInf;
    for (int r = 0; r < f_.m; ++r) {
      const double a = alpha_[r];
      double ratio = 0.0;
      if (held(r, hold_artificials)) {
        if (std::abs(a) <= opt_.pivot_tol) continue;
      } else {
        if (a <= opt_.pivot_tol) continue;
        ratio = std::max(0.0, x_[r]) / a;
      }
      if (ratio < best || (ratio == best && basis_[r] < basis_[leaving])) {
        best = ratio;
        leaving = r;
      }
    }
    return leaving;
  }

  /// Makes `entering` basic in position `leaving` (alpha_ holds its
  /// transformed column); returns the step length.
  double pivot(int entering, int leaving, bool hold_artificials) {
    const double theta =
        held(leaving, hold_artificials)
            ? 0.0
            : std::max(0.0, x_[leaving] / alpha_[leaving]);
    if (theta != 0.0)
      for (int i = 0; i < f_.m; ++i) x_[i] -= theta * alpha_[i];
    x_[leaving] = theta;
    position_[basis_[leaving]] = -1;
    basis_[leaving] = entering;
    position_[entering] = leaving;
    etas_.push(leaving, alpha_);
    ++since_refactor_;
    return theta;
  }

  void refactor();

  const StandardForm& f_;
  const SimplexOptions& opt_;
  std::vector<int> basis_;          // basic column per row position
  std::vector<int> position_;       // per column: its row position, or -1
  std::vector<double> x_;           // basic values per row position
  std::vector<double> y_;           // simplex multipliers per row
  std::vector<double> alpha_;       // the transformed entering column
  std::vector<double> rho_;         // row `leaving` of B^-1
  std::vector<double> d_;           // reduced cost per column
  std::vector<double> weight_;      // Devex reference weight per column
  std::vector<double> row_alpha_;   // pivot row scratch, zero between pivots
  bool fresh_ = false;              // d_ recomputed since the last pivot
  long since_refactor_ = 0;
  EtaFile etas_;
};

/// Rebuilds the eta file from the basis columns. Column singletons (every
/// basic slack among them) and row singletons are peeled off first: they
/// permute to a triangular part whose etas are the basis columns
/// themselves, with no fill. The remaining bump is eliminated column by
/// column, shortest first, on the sparsest row whose entry is within 10× of
/// the column's largest. A bump column found dependent leaves the basis, and
/// each row left without a pivot takes its own logical.
void RevisedSimplex::refactor() {
  since_refactor_ = 0;
  etas_.clear();
  const int m = f_.m;
  auto col_begin = [this](int pos) { return f_.col_start[basis_[pos]]; };
  auto col_end = [this](int pos) { return f_.col_start[basis_[pos] + 1]; };

  // Row-wise view of the basis: the positions with an entry in each row.
  std::vector<int> row_start(m + 1, 0);
  for (int p = 0; p < m; ++p)
    for (int k = col_begin(p); k < col_end(p); ++k)
      ++row_start[f_.col_row[k] + 1];
  for (int i = 0; i < m; ++i) row_start[i + 1] += row_start[i];
  std::vector<int> row_pos(row_start[m]);
  std::vector<int> next(row_start.begin(), row_start.end() - 1);
  for (int p = 0; p < m; ++p)
    for (int k = col_begin(p); k < col_end(p); ++k)
      row_pos[next[f_.col_row[k]]++] = p;

  // Active counts: entries of each row among the unpivoted columns, and of
  // each column among the unpivoted rows.
  std::vector<int> row_count(m);
  std::vector<int> col_count(m);
  for (int i = 0; i < m; ++i) row_count[i] = row_start[i + 1] - row_start[i];
  for (int p = 0; p < m; ++p) col_count[p] = col_end(p) - col_begin(p);
  std::vector<char> row_done(m, 0);
  std::vector<char> col_done(m, 0);
  std::vector<int> col_queue;
  std::vector<int> row_queue;
  for (int p = 0; p < m; ++p)
    if (col_count[p] == 1) col_queue.push_back(p);
  for (int i = 0; i < m; ++i)
    if (row_count[i] == 1) row_queue.push_back(i);

  struct Pivot {
    int row;
    int pos;
  };
  std::vector<Pivot> front;  // row singletons, pivoted first
  std::vector<Pivot> back;   // column singletons, pivoted last (reversed)
  auto remove = [&](int row, int pos) {
    row_done[row] = 1;
    col_done[pos] = 1;
    for (int k = row_start[row]; k < row_start[row + 1]; ++k) {
      const int p = row_pos[k];
      if (!col_done[p] && --col_count[p] == 1) col_queue.push_back(p);
    }
    for (int k = col_begin(pos); k < col_end(pos); ++k) {
      const int i = f_.col_row[k];
      if (!row_done[i] && --row_count[i] == 1) row_queue.push_back(i);
    }
  };
  std::size_t col_head = 0;
  std::size_t row_head = 0;
  while (col_head < col_queue.size() || row_head < row_queue.size()) {
    if (col_head < col_queue.size()) {
      const int p = col_queue[col_head++];
      if (col_done[p] || col_count[p] != 1) continue;
      for (int k = col_begin(p); k < col_end(p); ++k) {
        if (row_done[f_.col_row[k]]) continue;
        if (std::abs(f_.col_value[k]) > opt_.pivot_tol) {
          back.push_back({f_.col_row[k], p});
          remove(f_.col_row[k], p);
        }
        break;
      }
      continue;
    }
    const int i = row_queue[row_head++];
    if (row_done[i] || row_count[i] != 1) continue;
    for (int k = row_start[i]; k < row_start[i + 1]; ++k) {
      const int p = row_pos[k];
      if (col_done[p]) continue;
      for (int e = col_begin(p); e < col_end(p); ++e) {
        if (f_.col_row[e] != i) continue;
        if (std::abs(f_.col_value[e]) > opt_.pivot_tol) {
          front.push_back({i, p});
          remove(i, p);
        }
        break;
      }
      break;
    }
  }

  std::vector<int> new_basis(m, -1);
  auto push_untransformed = [&](const Pivot& pivot) {
    const int begin = col_begin(pivot.pos);
    etas_.push_sparse(pivot.row, &f_.col_row[begin], &f_.col_value[begin],
                      col_end(pivot.pos) - begin);
    new_basis[pivot.row] = basis_[pivot.pos];
  };
  for (const Pivot& pivot : front) push_untransformed(pivot);

  std::vector<int> bump;
  for (int p = 0; p < m; ++p)
    if (!col_done[p]) bump.push_back(p);
  std::stable_sort(bump.begin(), bump.end(), [&col_count](int a, int b) {
    return col_count[a] < col_count[b];
  });
  std::vector<double>& v = alpha_;
  for (const int p : bump) {
    load_column(basis_[p], v);
    etas_.ftran(v);
    double largest = opt_.pivot_tol;
    for (int i = 0; i < m; ++i)
      if (!row_done[i]) largest = std::max(largest, std::abs(v[i]));
    int row = -1;
    for (int i = 0; i < m; ++i) {
      if (row_done[i] || std::abs(v[i]) <= opt_.pivot_tol ||
          std::abs(v[i]) < 0.1 * largest)
        continue;
      if (row < 0 || row_count[i] < row_count[row]) row = i;
    }
    if (row < 0) continue;  // dependent: leaves the basis
    etas_.push(row, v);
    row_done[row] = 1;
    new_basis[row] = basis_[p];
    for (int k = col_begin(p); k < col_end(p); ++k) --row_count[f_.col_row[k]];
  }

  for (auto pivot = back.rbegin(); pivot != back.rend(); ++pivot)
    push_untransformed(*pivot);

  // A row left without a pivot takes its logical, a unit column: no eta.
  std::fill(position_.begin(), position_.end(), -1);
  for (int i = 0; i < m; ++i) {
    if (new_basis[i] < 0) new_basis[i] = f_.first_logical + i;
    position_[new_basis[i]] = i;
  }
  basis_ = std::move(new_basis);
  x_ = f_.rhs;
  etas_.ftran(x_);
}

}  // namespace

LpSolution solve_lp(const LpModel& model, const SimplexOptions& options) {
  LpSolution solution;
  const StandardForm form = standard_form(model);
  RevisedSimplex simplex(form, options);
  std::vector<double> cost(form.num_cols, 0.0);

  // Phase 1: drive the artificials to zero (maximize minus their sum).
  bool any_artificial = false;
  for (int i = 0; i < form.m; ++i) {
    if (!form.artificial[i]) continue;
    cost[form.first_logical + i] = -1.0;
    any_artificial = true;
  }
  if (any_artificial) {
    solution.status =
        simplex.run(cost, /*hold_artificials=*/false, solution.iterations);
    if (solution.status == LpStatus::kIterationLimit) return solution;
    double rhs_scale = 1.0;
    for (const double b : form.rhs) rhs_scale = std::max(rhs_scale, b);
    if (simplex.artificial_total() > 1e-9 * rhs_scale + 1e-7) {
      solution.status = LpStatus::kInfeasible;
      return solution;
    }
  }

  // Phase 2: the model's objective, with the artificials held at zero.
  std::fill(cost.begin(), cost.end(), 0.0);
  for (int j = 0; j < model.num_variables(); ++j)
    cost[j] = model.objective_coeff(j);
  solution.status =
      simplex.run(cost, /*hold_artificials=*/true, solution.iterations);
  if (solution.status != LpStatus::kOptimal) return solution;
  solution.x = simplex.primal();
  solution.duals = simplex.duals();
  solution.objective = model.evaluate_objective(solution.x);
  return solution;
}

}  // namespace spider
