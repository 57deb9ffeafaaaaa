// Dense Gauss–Jordan tableau LP engine — the reference implementation.
//
// This is the original simplex backend, kept bit-exact as an A/B baseline
// for the sparse revised engine (simplex.cpp): tests cross-check statuses,
// objectives, and duals between the two, and bench_solver runs a dense
// regression arm. Both engines consume the same StandardForm snapshot and
// the same warm-attempt accounting (lp_engine.hpp), so they can only
// differ in pivot arithmetic. Memory is O(rows * cols) — do not use this
// engine beyond paper-scale instances.
#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <vector>

#include "birp/solver/lp_engine.hpp"
#include "birp/solver/simplex.hpp"
#include "birp/solver/standard_form.hpp"

namespace birp::solver {
namespace {

/// Dense working storage for one simplex solve. The tableau holds B^{-1}A
/// and is updated in place on every pivot.
class DenseTableau {
 public:
  DenseTableau(const Model& model, std::span<const double> lower_override,
               std::span<const double> upper_override, SimplexOptions options)
      : model_(model), options_(options) {
    init_from(build_standard_form(model, lower_override, upper_override));
    // Cold start: the standard-form basis is the identity; the raw tableau
    // already equals B^{-1}A.
  }

  /// Warm construction from a prior basis; check warm_ok() before solving.
  DenseTableau(const Model& model, std::span<const double> lower_override,
               std::span<const double> upper_override, SimplexOptions options,
               const Basis& warm)
      : model_(model), options_(options) {
    const StandardForm form =
        build_standard_form(model, lower_override, upper_override, warm);
    if (!form.ok) return;  // warm_ok_ stays false
    init_from(form);
    if (!factorize(form.basic_cols)) return;  // singular: cold fallback
    recompute_basic_values();
    warm_ok_ = true;
  }

  Solution solve();
  /// Warm solve: dual repair + Phase II. nullopt asks the caller to fall
  /// back to the cold path (a repair or Phase II that stalls).
  std::optional<Solution> solve_warm();

  [[nodiscard]] bool warm_ok() const noexcept { return warm_ok_; }
  [[nodiscard]] Basis extract_basis() const;
  [[nodiscard]] std::int64_t iterations() const noexcept { return iterations_; }
  [[nodiscard]] std::int64_t factor_pivots() const noexcept {
    return factor_pivots_;
  }

 private:
  enum class Repair { Done, Infeasible, GiveUp };

  [[nodiscard]] double& at(int row, int col) noexcept {
    return tableau_[static_cast<std::size_t>(row) *
                        static_cast<std::size_t>(cols_) +
                    static_cast<std::size_t>(col)];
  }
  [[nodiscard]] double at(int row, int col) const noexcept {
    return tableau_[static_cast<std::size_t>(row) *
                        static_cast<std::size_t>(cols_) +
                    static_cast<std::size_t>(col)];
  }

  /// Densifies the shared standard form into the tableau working set.
  void init_from(const StandardForm& form) {
    rows_ = form.rows;
    cols_ = form.cols;
    structural_ = form.structural;
    artificial_begin_ = form.artificial_begin;
    tableau_.assign(
        static_cast<std::size_t>(rows_) * static_cast<std::size_t>(cols_), 0.0);
    for (int j = 0; j < cols_; ++j) {
      for (int p = form.col_start[static_cast<std::size_t>(j)];
           p < form.col_start[static_cast<std::size_t>(j) + 1]; ++p) {
        at(form.row_index[static_cast<std::size_t>(p)], j) =
            form.values[static_cast<std::size_t>(p)];
      }
    }
    rhs_ = form.rhs;
    lower_ = form.lower;
    upper_ = form.upper;
    state_ = form.state;
    value_ = form.value;
    basis_ = form.basis;
    dual_col_ = form.dual_col;
    dual_sign_ = form.dual_sign;
    slack_row_ = form.slack_row;
    col_scale_ = form.col_scale;
    rhs_scale_ = form.rhs_scale;
    reduced_.assign(static_cast<std::size_t>(cols_), 0.0);
    row_ratio_.assign(static_cast<std::size_t>(cols_), 0.0);
    iteration_limit_ = options_.max_iterations > 0
                           ? options_.max_iterations
                           : 200 + 30ll * (rows_ + cols_);
  }

  void compute_reduced_costs(const std::vector<double>& costs);
  void recompute_basic_values();
  [[nodiscard]] std::vector<double> phase2_costs() const;
  /// One phase of the primal simplex. Returns Optimal / Unbounded /
  /// IterationLimit relative to the given costs.
  SolveStatus iterate(const std::vector<double>& costs);
  /// Bounded-variable dual simplex: drives basic variables back inside
  /// their bounds while keeping the reduced costs dual feasible. Requires
  /// compute_reduced_costs to have run for the Phase II costs.
  Repair dual_repair();
  void pivot(int leave_row, int enter_col);
  /// Gauss-Jordan refactorization of `basic_cols` (one column per row, any
  /// order) with partial pivoting. False when the basis is singular.
  bool factorize(const std::vector<int>& basic_cols);
  /// Shared Optimal tail: duals, cleaned values, objective.
  void finish(Solution& result);

  const Model& model_;
  SimplexOptions options_;

  int rows_ = 0;        // number of constraints m
  int cols_ = 0;        // total columns n (structural + slack + artificial)
  int structural_ = 0;  // number of model variables
  int artificial_begin_ = 0;

  std::vector<double> tableau_;        // m x n, row-major: B^{-1}A
  std::vector<double> rhs_;            // B^{-1}b
  std::vector<double> lower_, upper_;  // per column
  std::vector<double> reduced_;        // reduced costs per column
  std::vector<double> row_ratio_;      // dual ratios per column (dual repair)
  std::vector<VarState> state_;
  std::vector<double> value_;      // current value per column
  std::vector<int> basis_;         // basic column per row
  std::vector<int> dual_col_;      // slack/artificial anchoring row i's dual
  std::vector<double> dual_sign_;  // cumulative row flips vs model orientation
  std::vector<int> slack_row_;     // slack/artificial column -> its row
  std::vector<double> col_scale_;  // per-column infinity norm (standard form)
  double rhs_scale_ = 0.0;         // rhs infinity norm

  std::int64_t iterations_ = 0;
  std::int64_t iteration_limit_ = 0;
  std::int64_t factor_pivots_ = 0;
  bool warm_ok_ = false;
};

bool DenseTableau::factorize(const std::vector<int>& basic_cols) {
  std::vector<char> row_used(static_cast<std::size_t>(rows_), 0);
  for (int idx = 0; idx < rows_; ++idx) {
    const int col = basic_cols[static_cast<std::size_t>(idx)];
    // Partial pivoting over the rows not yet claimed by a basic column; the
    // singularity cutoff is relative to the transformed column's magnitude
    // (floored by the raw column norm) so a uniformly scaled column is not
    // misread as singular — mirrors BasisLu::factorize.
    double total_max = 0.0;
    for (int i = 0; i < rows_; ++i) {
      total_max = std::max(total_max, std::abs(at(i, col)));
    }
    const double ref =
        std::max(total_max, col_scale_[static_cast<std::size_t>(col)]);
    int best_row = -1;
    double best_abs = options_.pivot_tolerance * ref;
    for (int i = 0; i < rows_; ++i) {
      if (row_used[static_cast<std::size_t>(i)]) continue;
      const double a = std::abs(at(i, col));
      if (a > best_abs) {
        best_abs = a;
        best_row = i;
      }
    }
    if (best_row < 0) return false;  // numerically singular basis
    pivot(best_row, col);            // reduced_ is all zero here: no-op there
    ++factor_pivots_;
    basis_[static_cast<std::size_t>(best_row)] = col;
    row_used[static_cast<std::size_t>(best_row)] = 1;
  }
  return true;
}

void DenseTableau::compute_reduced_costs(const std::vector<double>& costs) {
  // d_j = c_j - sum_i c_{basis(i)} * T(i, j)
  std::vector<double> basic_costs(static_cast<std::size_t>(rows_));
  bool any_nonzero = false;
  for (int i = 0; i < rows_; ++i) {
    basic_costs[static_cast<std::size_t>(i)] =
        costs[static_cast<std::size_t>(basis_[static_cast<std::size_t>(i)])];
    any_nonzero =
        any_nonzero || basic_costs[static_cast<std::size_t>(i)] != 0.0;
  }
  std::copy(costs.begin(), costs.end(), reduced_.begin());
  if (!any_nonzero) return;
  for (int i = 0; i < rows_; ++i) {
    const double cb = basic_costs[static_cast<std::size_t>(i)];
    if (cb == 0.0) continue;
    const double* row =
        &tableau_[static_cast<std::size_t>(i) * static_cast<std::size_t>(cols_)];
    for (int j = 0; j < cols_; ++j) {
      reduced_[static_cast<std::size_t>(j)] -= cb * row[j];
    }
  }
  for (int i = 0; i < rows_; ++i) {
    reduced_[static_cast<std::size_t>(basis_[static_cast<std::size_t>(i)])] =
        0.0;
  }
}

void DenseTableau::recompute_basic_values() {
  // xB = B^{-1} b - sum over nonbasic j with nonzero value of T(:, j) * x_j.
  std::vector<double> xb(rhs_.begin(), rhs_.end());
  for (int j = 0; j < cols_; ++j) {
    if (state_[static_cast<std::size_t>(j)] == VarState::Basic) continue;
    const double v = value_[static_cast<std::size_t>(j)];
    if (v == 0.0) continue;
    for (int i = 0; i < rows_; ++i) {
      xb[static_cast<std::size_t>(i)] -= at(i, j) * v;
    }
  }
  for (int i = 0; i < rows_; ++i) {
    value_[static_cast<std::size_t>(basis_[static_cast<std::size_t>(i)])] =
        xb[static_cast<std::size_t>(i)];
  }
}

std::vector<double> DenseTableau::phase2_costs() const {
  std::vector<double> costs(static_cast<std::size_t>(cols_), 0.0);
  for (int j = 0; j < structural_; ++j) {
    costs[static_cast<std::size_t>(j)] = model_.variable(j).objective;
  }
  return costs;
}

void DenseTableau::pivot(int leave_row, int enter_col) {
  const double pivot_value = at(leave_row, enter_col);
  double* prow = &tableau_[static_cast<std::size_t>(leave_row) *
                           static_cast<std::size_t>(cols_)];
  const double inv = 1.0 / pivot_value;
  for (int j = 0; j < cols_; ++j) prow[j] *= inv;
  rhs_[static_cast<std::size_t>(leave_row)] *= inv;

  for (int i = 0; i < rows_; ++i) {
    if (i == leave_row) continue;
    const double factor = at(i, enter_col);
    if (factor == 0.0) continue;
    double* row =
        &tableau_[static_cast<std::size_t>(i) * static_cast<std::size_t>(cols_)];
    for (int j = 0; j < cols_; ++j) row[j] -= factor * prow[j];
    rhs_[static_cast<std::size_t>(i)] -=
        factor * rhs_[static_cast<std::size_t>(leave_row)];
  }

  const double dfactor = reduced_[static_cast<std::size_t>(enter_col)];
  if (dfactor != 0.0) {
    for (int j = 0; j < cols_; ++j) {
      reduced_[static_cast<std::size_t>(j)] -= dfactor * prow[j];
    }
  }
  reduced_[static_cast<std::size_t>(enter_col)] = 0.0;
}

SolveStatus DenseTableau::iterate(const std::vector<double>& costs) {
  compute_reduced_costs(costs);
  int stalled = 0;

  while (true) {
    if (++iterations_ > iteration_limit_) return SolveStatus::IterationLimit;
    const bool bland = stalled >= options_.stall_threshold;

    // --- Pricing: pick an entering column with a profitable direction. ---
    int enter = -1;
    double enter_dir = 0.0;
    double best_score = options_.tolerance;
    for (int j = 0; j < cols_; ++j) {
      const auto sj = state_[static_cast<std::size_t>(j)];
      if (sj == VarState::Basic) continue;
      const double lo = lower_[static_cast<std::size_t>(j)];
      const double hi = upper_[static_cast<std::size_t>(j)];
      if (lo == hi) continue;  // fixed (includes retired artificials)
      const double d = reduced_[static_cast<std::size_t>(j)];
      double dir = 0.0;
      if (sj == VarState::AtLower && d < -options_.tolerance) dir = 1.0;
      if (sj == VarState::AtUpper && d > options_.tolerance) dir = -1.0;
      if (dir == 0.0) continue;
      if (bland) {
        enter = j;
        enter_dir = dir;
        break;
      }
      // Dantzig pricing with a first-wins margin; see kDualPickTie for the
      // cross-engine rationale.
      if (std::abs(d) > best_score + kDualPickTie * (1.0 + best_score)) {
        best_score = std::abs(d);
        enter = j;
        enter_dir = dir;
      }
    }
    if (enter == -1) return SolveStatus::Optimal;

    // --- Ratio test: how far can the entering variable move? Pivot
    // eligibility is relative to the transformed column's magnitude. ---
    double alpha_scale = 0.0;
    for (int i = 0; i < rows_; ++i) {
      alpha_scale = std::max(alpha_scale, std::abs(at(i, enter)));
    }
    // Purely scale-relative; see simplex.cpp for rationale.
    const double eligible = options_.pivot_tolerance * alpha_scale;

    double t_best = upper_[static_cast<std::size_t>(enter)] -
                    lower_[static_cast<std::size_t>(enter)];
    int leave_row = -1;
    bool leave_to_upper = false;
    for (int i = 0; i < rows_; ++i) {
      const double alpha = enter_dir * at(i, enter);
      if (std::abs(alpha) <= eligible) continue;
      const int bvar = basis_[static_cast<std::size_t>(i)];
      const double xv = value_[static_cast<std::size_t>(bvar)];
      double t = kInfinity;
      bool to_upper = false;
      if (alpha > 0.0) {  // basic variable decreases toward its lower bound
        t = (xv - lower_[static_cast<std::size_t>(bvar)]) / alpha;
      } else {  // basic variable increases toward its upper bound
        const double hi = upper_[static_cast<std::size_t>(bvar)];
        if (!std::isfinite(hi)) continue;
        t = (hi - xv) / (-alpha);
        to_upper = true;
      }
      t = std::max(t, 0.0);
      // Strictly smaller step wins (ties measured relative to the step
      // scale; zero while t_best is still the unbounded sentinel); under
      // Bland's rule, ties break toward the smallest basic variable index
      // to guarantee anti-cycling.
      const double tie =
          std::isfinite(t_best) ? kRatioTie * (1.0 + std::abs(t_best)) : 0.0;
      if (t < t_best - tie ||
          (bland && leave_row >= 0 && t <= t_best + tie &&
           bvar < basis_[static_cast<std::size_t>(leave_row)])) {
        t_best = t;
        leave_row = i;
        leave_to_upper = to_upper;
      }
    }

    if (!std::isfinite(t_best)) return SolveStatus::Unbounded;
    stalled = t_best <= options_.tolerance ? stalled + 1 : 0;

    if (leave_row == -1) {
      // Bound flip: the entering variable runs to its opposite bound.
      const double t = t_best;
      for (int i = 0; i < rows_; ++i) {
        const double a = at(i, enter);
        if (a == 0.0) continue;
        const int bvar = basis_[static_cast<std::size_t>(i)];
        value_[static_cast<std::size_t>(bvar)] -= enter_dir * t * a;
      }
      auto& sj = state_[static_cast<std::size_t>(enter)];
      if (enter_dir > 0.0) {
        sj = VarState::AtUpper;
        value_[static_cast<std::size_t>(enter)] =
            upper_[static_cast<std::size_t>(enter)];
      } else {
        sj = VarState::AtLower;
        value_[static_cast<std::size_t>(enter)] =
            lower_[static_cast<std::size_t>(enter)];
      }
      continue;
    }

    // --- Basis change. ---
    const double t = t_best;
    for (int i = 0; i < rows_; ++i) {
      if (i == leave_row) continue;
      const double a = at(i, enter);
      if (a == 0.0) continue;
      const int bvar = basis_[static_cast<std::size_t>(i)];
      value_[static_cast<std::size_t>(bvar)] -= enter_dir * t * a;
    }
    const int leaving = basis_[static_cast<std::size_t>(leave_row)];
    state_[static_cast<std::size_t>(leaving)] =
        leave_to_upper ? VarState::AtUpper : VarState::AtLower;
    value_[static_cast<std::size_t>(leaving)] =
        leave_to_upper ? upper_[static_cast<std::size_t>(leaving)]
                       : lower_[static_cast<std::size_t>(leaving)];

    const double enter_value =
        value_[static_cast<std::size_t>(enter)] + enter_dir * t;
    pivot(leave_row, enter);
    basis_[static_cast<std::size_t>(leave_row)] = enter;
    state_[static_cast<std::size_t>(enter)] = VarState::Basic;
    value_[static_cast<std::size_t>(enter)] = enter_value;
  }
}

DenseTableau::Repair DenseTableau::dual_repair() {
  // Tight budget, separate from the global pivot limit: a genuinely warm
  // basis repairs in far fewer pivots than a cold solve takes, so once the
  // repair rivals a cold solve's cost (or cycles on degeneracy) it is
  // cheaper to give up early and fall back than to grind to the full limit.
  const std::int64_t repair_limit =
      std::min(iteration_limit_, iterations_ + rows_ + 100);
  while (true) {
    if (++iterations_ > repair_limit) return Repair::GiveUp;

    // --- Leaving row: the basic variable with the largest bound violation.
    // sigma = +1 when it must decrease (above upper), -1 when it must
    // increase (below lower). A later row must beat the pick by the
    // kDualPickTie margin so that near-tied violations resolve to the same
    // (smallest) row in both engines.
    int leave_row = -1;
    double best_viol = options_.tolerance;
    double sigma = 0.0;
    for (int i = 0; i < rows_; ++i) {
      const int bvar = basis_[static_cast<std::size_t>(i)];
      const double v = value_[static_cast<std::size_t>(bvar)];
      const double above = v - upper_[static_cast<std::size_t>(bvar)];
      const double below = lower_[static_cast<std::size_t>(bvar)] - v;
      const double tie = kDualPickTie * (1.0 + best_viol);
      if (above > best_viol + tie) {
        best_viol = above;
        leave_row = i;
        sigma = 1.0;
      }
      if (below > best_viol + tie) {
        best_viol = below;
        leave_row = i;
        sigma = -1.0;
      }
    }
    if (leave_row < 0) return Repair::Done;  // primal feasible

    // Pivot-row eligibility is relative to the row's magnitude across the
    // nonbasic candidates.
    double row_scale = 0.0;
    for (int j = 0; j < cols_; ++j) {
      if (state_[static_cast<std::size_t>(j)] == VarState::Basic) continue;
      row_scale = std::max(row_scale, std::abs(at(leave_row, j)));
    }
    const double eligible = options_.pivot_tolerance * row_scale;

    // --- Entering candidates, mirroring the sparse engine: a candidate must
    // move the violating basic variable toward its bound; its dual ratio
    // |d_j / alpha| measures how far the duals can move before that
    // candidate's reduced cost changes sign. The cascade below consumes
    // candidates in ratio order (smallest first, largest |alpha| among
    // near-ties — under dual degeneracy many candidates tie at ratio zero,
    // and picking them by index admits microscopic pivots). Ties in the
    // |alpha| pick break to the smallest column index (deterministic).
    bool any_candidate = false;
    for (int j = 0; j < cols_; ++j) {
      row_ratio_[static_cast<std::size_t>(j)] = kInfinity;
      const auto sj = state_[static_cast<std::size_t>(j)];
      if (sj == VarState::Basic) continue;
      if (lower_[static_cast<std::size_t>(j)] ==
          upper_[static_cast<std::size_t>(j)]) {
        continue;  // fixed (artificials)
      }
      const double alpha = at(leave_row, j);
      if (std::abs(alpha) <= eligible) continue;
      if (sj == VarState::AtLower) {
        if (sigma * alpha <= 0.0) continue;  // moving up must shrink the violation
      } else {
        if (sigma * alpha >= 0.0) continue;  // moving down must shrink it
      }
      row_ratio_[static_cast<std::size_t>(j)] = std::max(
          0.0, reduced_[static_cast<std::size_t>(j)] / (sigma * alpha));
      any_candidate = true;
    }
    if (!any_candidate) {
      // No column can reduce the violation: this row proves the bounds
      // cannot be met (the dual is unbounded), i.e. the LP is infeasible.
      return Repair::Infeasible;
    }

    // --- Long-step flip cascade, mirroring the sparse engine. Candidates
    // whose step overshoots their box are flipped (no basis change) and
    // consumed; the cascade continues on the same row until a candidate
    // absorbs the rest of the violation with a true basis change, or flips
    // alone repair the row. Consuming flipped candidates inside one ratio
    // pass is what terminates: a zero-ratio flip makes no dual progress, so
    // without it two rows can trade the same flip back and forth forever.
    // Flips leave the basis — and therefore every candidate's alpha and
    // reduced cost — unchanged, so the ratios computed above stay valid
    // throughout the cascade.
    double remaining = best_viol;
    while (true) {
      double cur_best = kInfinity;
      for (int j = 0; j < cols_; ++j) {
        cur_best = std::min(cur_best, row_ratio_[static_cast<std::size_t>(j)]);
      }
      if (cur_best == kInfinity) return Repair::Infeasible;
      const double ratio_window = cur_best + kDualPickTie * (1.0 + cur_best);
      int enter = -1;
      double enter_dir = 0.0;
      double enter_alpha = 0.0;
      for (int j = 0; j < cols_; ++j) {
        if (row_ratio_[static_cast<std::size_t>(j)] > ratio_window) continue;
        const double a = std::abs(at(leave_row, j));
        if (a > enter_alpha * (1.0 + kDualPickTie)) {
          enter_alpha = a;
          enter = j;
          enter_dir =
              state_[static_cast<std::size_t>(j)] == VarState::AtLower ? 1.0
                                                                       : -1.0;
        }
      }
      if (enter < 0) return Repair::Infeasible;

      const double alpha = at(leave_row, enter);
      const double gain = sigma * alpha * enter_dir;  // > 0 by eligibility
      const double step = remaining / gain;           // > 0
      const double range = upper_[static_cast<std::size_t>(enter)] -
                           lower_[static_cast<std::size_t>(enter)];
      if (step <= range) {
        // --- Basis change: the violating variable leaves exactly at the
        // bound it violated; the entering variable absorbs the step.
        for (int i = 0; i < rows_; ++i) {
          if (i == leave_row) continue;
          const double a = at(i, enter);
          if (a == 0.0) continue;
          const int bvar = basis_[static_cast<std::size_t>(i)];
          value_[static_cast<std::size_t>(bvar)] -= enter_dir * step * a;
        }
        const int leaving = basis_[static_cast<std::size_t>(leave_row)];
        state_[static_cast<std::size_t>(leaving)] =
            sigma > 0.0 ? VarState::AtUpper : VarState::AtLower;
        value_[static_cast<std::size_t>(leaving)] =
            sigma > 0.0 ? upper_[static_cast<std::size_t>(leaving)]
                        : lower_[static_cast<std::size_t>(leaving)];

        const double enter_value =
            value_[static_cast<std::size_t>(enter)] + enter_dir * step;
        pivot(leave_row, enter);
        basis_[static_cast<std::size_t>(leave_row)] = enter;
        state_[static_cast<std::size_t>(enter)] = VarState::Basic;
        value_[static_cast<std::size_t>(enter)] = enter_value;
        break;
      }

      // Box step: the entering variable hits its opposite bound before the
      // violation is fully resolved. Flip it, consume it, keep cascading;
      // the violation shrank strictly by range * |alpha|.
      for (int i = 0; i < rows_; ++i) {
        const double a = at(i, enter);
        if (a == 0.0) continue;
        const int bvar = basis_[static_cast<std::size_t>(i)];
        value_[static_cast<std::size_t>(bvar)] -= enter_dir * range * a;
      }
      auto& sj = state_[static_cast<std::size_t>(enter)];
      if (enter_dir > 0.0) {
        sj = VarState::AtUpper;
        value_[static_cast<std::size_t>(enter)] =
            upper_[static_cast<std::size_t>(enter)];
      } else {
        sj = VarState::AtLower;
        value_[static_cast<std::size_t>(enter)] =
            lower_[static_cast<std::size_t>(enter)];
      }
      row_ratio_[static_cast<std::size_t>(enter)] = kInfinity;
      remaining -= range * gain;
      if (++iterations_ > repair_limit) return Repair::GiveUp;
      if (remaining <= options_.tolerance) break;  // flips repaired the row
    }
  }
}

void DenseTableau::finish(Solution& result) {
  result.status = SolveStatus::Optimal;

  // Constraint duals: every row's slack/artificial column appears only in
  // that row with original stored coefficient +1 and zero phase-2 cost, so
  // its reduced cost is d = -y_i (stored orientation); undo the row flips
  // to express the dual against the model's orientation.
  result.duals.resize(static_cast<std::size_t>(rows_));
  for (int i = 0; i < rows_; ++i) {
    const int anchor = dual_col_[static_cast<std::size_t>(i)];
    result.duals[static_cast<std::size_t>(i)] =
        dual_sign_[static_cast<std::size_t>(i)] *
        -reduced_[static_cast<std::size_t>(anchor)];
  }

  result.values.resize(static_cast<std::size_t>(structural_));
  for (int j = 0; j < structural_; ++j) {
    double v = value_[static_cast<std::size_t>(j)];
    // Clean tiny drift against the (possibly overridden) bounds.
    v = std::max(v, lower_[static_cast<std::size_t>(j)]);
    if (std::isfinite(upper_[static_cast<std::size_t>(j)])) {
      v = std::min(v, upper_[static_cast<std::size_t>(j)]);
    }
    result.values[static_cast<std::size_t>(j)] = v;
  }
  result.objective = model_.objective_value(result.values);
}

Solution DenseTableau::solve() {
  Solution result;

  // ---- Phase I: minimize the sum of artificial variables. ----
  std::vector<double> phase1(static_cast<std::size_t>(cols_), 0.0);
  for (int j = artificial_begin_; j < cols_; ++j) {
    phase1[static_cast<std::size_t>(j)] = 1.0;
  }

  bool need_phase1 = false;
  for (int i = 0; i < rows_; ++i) {
    if (value_[static_cast<std::size_t>(basis_[static_cast<std::size_t>(i)])] >
        options_.tolerance) {
      need_phase1 = true;
      break;
    }
  }
  if (need_phase1) {
    const SolveStatus status = iterate(phase1);
    // Phase I is bounded below by zero, so Unbounded cannot legitimately
    // occur; treat it as a numerical failure surfaced as IterationLimit.
    if (status == SolveStatus::IterationLimit ||
        status == SolveStatus::Unbounded) {
      result.status = SolveStatus::IterationLimit;
      result.simplex_iterations = iterations_;
      result.factor_pivots = factor_pivots_;
      return result;
    }
    recompute_basic_values();
    double infeasibility = 0.0;
    for (int j = artificial_begin_; j < cols_; ++j) {
      if (state_[static_cast<std::size_t>(j)] == VarState::Basic ||
          value_[static_cast<std::size_t>(j)] != 0.0) {
        infeasibility += value_[static_cast<std::size_t>(j)];
      }
    }
    // Scale-relative verdict (with the tolerance itself as the absolute
    // floor); see simplex.cpp for rationale.
    if (infeasibility >
        10.0 * options_.tolerance * (1.0 + rhs_scale_)) {
      result.status = SolveStatus::Infeasible;
      result.simplex_iterations = iterations_;
      result.factor_pivots = factor_pivots_;
      return result;
    }
  }

  // Retire artificials: they may remain basic at value zero (degenerate /
  // redundant rows) but are fixed so they can never re-enter or move.
  for (int j = artificial_begin_; j < cols_; ++j) {
    lower_[static_cast<std::size_t>(j)] = 0.0;
    upper_[static_cast<std::size_t>(j)] = 0.0;
    if (state_[static_cast<std::size_t>(j)] != VarState::Basic) {
      value_[static_cast<std::size_t>(j)] = 0.0;
      state_[static_cast<std::size_t>(j)] = VarState::AtLower;
    }
  }

  // ---- Phase II: the real objective. ----
  const SolveStatus status = iterate(phase2_costs());
  result.simplex_iterations = iterations_;
  result.factor_pivots = factor_pivots_;
  if (status == SolveStatus::Unbounded) {
    result.status = SolveStatus::Unbounded;
    return result;
  }
  if (status == SolveStatus::IterationLimit) {
    result.status = SolveStatus::IterationLimit;
    return result;
  }

  recompute_basic_values();
  finish(result);
  return result;
}

std::optional<Solution> DenseTableau::solve_warm() {
  const std::vector<double> costs = phase2_costs();
  compute_reduced_costs(costs);

  // Primal feasibility of the refactorized basis under the current bounds.
  double primal_viol = 0.0;
  for (int i = 0; i < rows_; ++i) {
    const int bvar = basis_[static_cast<std::size_t>(i)];
    const double v = value_[static_cast<std::size_t>(bvar)];
    primal_viol =
        std::max(primal_viol, v - upper_[static_cast<std::size_t>(bvar)]);
    primal_viol =
        std::max(primal_viol, lower_[static_cast<std::size_t>(bvar)] - v);
  }

  if (primal_viol > options_.tolerance) {
    // Dual repair needs a dual-feasible start: prepare_dual_repair flips,
    // shifts and perturbs exactly as the sparse engine does (lp_engine.hpp).
    // The shifted reduced costs live only until Phase II recomputes them
    // from the true costs.
    std::vector<double> shift(reduced_.size(), 0.0);
    if (prepare_dual_repair(state_, value_, lower_, upper_, costs, reduced_,
                            options_.tolerance, shift)) {
      recompute_basic_values();
    }
    for (std::size_t j = 0; j < shift.size(); ++j) reduced_[j] += shift[j];
    switch (dual_repair()) {
      case Repair::GiveUp:
        return std::nullopt;  // stalled: distrust the basis, cold retry
      case Repair::Infeasible: {
        Solution result;
        result.status = SolveStatus::Infeasible;
        result.simplex_iterations = iterations_;
        result.factor_pivots = factor_pivots_;
        result.warm_started = true;
        return result;
      }
      case Repair::Done:
        break;
    }
  }

  // Phase II on the true costs from a primal-feasible basis (recomputes
  // reduced costs, dropping the repair's shifts and any accumulated drift).
  const SolveStatus status = iterate(costs);
  if (status == SolveStatus::IterationLimit) return std::nullopt;

  Solution result;
  result.simplex_iterations = iterations_;
  result.factor_pivots = factor_pivots_;
  result.warm_started = true;
  if (status == SolveStatus::Unbounded) {
    result.status = SolveStatus::Unbounded;
    return result;
  }
  recompute_basic_values();
  finish(result);
  return result;
}

Basis DenseTableau::extract_basis() const {
  Basis basis;
  basis.structural.assign(static_cast<std::size_t>(structural_),
                          VarState::AtLower);
  for (int j = 0; j < structural_; ++j) {
    basis.structural[static_cast<std::size_t>(j)] =
        state_[static_cast<std::size_t>(j)];
  }
  basis.basic.assign(static_cast<std::size_t>(rows_), -1);
  for (int i = 0; i < rows_; ++i) {
    const int col = basis_[static_cast<std::size_t>(i)];
    if (col < structural_) {
      basis.basic[static_cast<std::size_t>(i)] = col;
    } else if (col < artificial_begin_) {
      basis.basic[static_cast<std::size_t>(i)] =
          structural_ + slack_row_[static_cast<std::size_t>(col)];
    }
    // Artificial columns stay encoded as -1.
  }
  return basis;
}

}  // namespace

Solution solve_lp_dense(const Model& model, std::span<const double> lower,
                        std::span<const double> upper,
                        const SimplexOptions& options, const Basis* warm_start,
                        bool emit_basis) {
  return solve_lp_with<DenseTableau>(model, lower, upper, options, warm_start,
                                     emit_basis);
}

}  // namespace birp::solver
