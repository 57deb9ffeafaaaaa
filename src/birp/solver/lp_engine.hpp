// Internal glue between the public solve_lp API and the two LP engines.
//
// Each engine (RevisedSimplex in simplex.cpp, DenseTableau in
// dense_tableau.cpp) implements the same shape: a cold constructor, a warm
// constructor gated by warm_ok(), solve()/solve_warm(), and the diagnostic
// accessors. `solve_lp_with` is the one and only warm-attempt-then-cold
// accounting path, shared by both backends so the bookkeeping invariants
// cannot diverge:
//
//  - Exactly one of {warm, cold} serves each solve_lp call: the returned
//    Solution has warm_started == true iff the warm engine produced it, and
//    branch-and-bound counts warm_lp_solves/cold_lp_solves off that flag,
//    so a mismatched or singular seed basis increments cold_lp_solves once
//    and warm_lp_solves never.
//  - A failed warm attempt's work (iterations, factorization pivots) is
//    charged to the cold fallback's Solution exactly once — the wasted
//    counters are read once, after the attempt is abandoned, and added to
//    the fallback totals; nothing is read before the attempt resolves, so
//    there is no path that counts the same elimination twice.
//
// The warm path's dual-feasibility step (`prepare_dual_repair`) and the pick
// margins live here too, so both engines make the same flip, shift and
// perturbation choices on the same basis and stay on the same pivot path.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>
#include <span>
#include <utility>

#include "birp/solver/model.hpp"
#include "birp/solver/simplex.hpp"
#include "birp/solver/solution.hpp"
#include "birp/util/rng.hpp"

namespace birp::solver {

/// Relative tie window for ratio tests: two steps within this fraction of
/// each other are considered tied (Bland tie-breaks then apply). The
/// historical absolute 1e-12 window stopped meaning anything once steps
/// left the O(1) range.
inline constexpr double kRatioTie = 1e-11;

/// Tie margin for the dual-repair picks (leaving row, ratio window, pivot
/// magnitude) and Dantzig pricing. Wider than kRatioTie on purpose: the two
/// LP engines compute these quantities through different linear algebra
/// (eta-file solves vs in-place tableau updates), so near-ties carry ~1e-12
/// cross-engine noise. A first-within-margin-wins pick keeps both engines on
/// the same pivot path, which is what keeps scheduler decisions
/// bit-identical across engines when alternate optima exist.
inline constexpr double kDualPickTie = 1e-9;

/// Size of the dual-repair cost perturbation, relative to 1 + |c_j|. Each
/// column's share is hashed into [0.5, 1) of it, so perturbed reduced costs
/// differ by far more than the kDualPickTie window: the ratio test stops
/// meeting the zero-ratio ties of a dual-degenerate basis, which is where
/// the unperturbed repair cycled until its pivot budget ran out. Sized on
/// bench_solver's quick sparse-large arm: it abandoned 7% of its warm
/// attempts at 1e-8, 3% at 1e-7 and 1% at 1e-6, against at most 0.6% for
/// 1e-5 to 1e-4 over four seeds; the smallest of those leaves Phase II the
/// least to undo.
inline constexpr double kDualPerturbation = 1e-5;

/// The perturbation of column `col` with cost `cost` (> 0; deterministic).
[[nodiscard]] inline double dual_perturbation(int col, double cost) noexcept {
  // The first SplitMix64 output seeded by the column index, top 53 bits as
  // a uniform in [0, 1).
  util::SplitMix64 hash(static_cast<std::uint64_t>(col));
  const double u = static_cast<double>(hash() >> 11) * 0x1.0p-53;
  return kDualPerturbation * (1.0 + std::abs(cost)) * (0.5 + 0.5 * u);
}

/// Makes a warm basis dual feasible for the dual repair, given each
/// column's reduced cost `reduced[j]` under the true costs `costs`. Per
/// nonbasic, non-fixed column:
///  - a wrong-sign reduced cost (beyond `tolerance`) with a finite opposite
///    bound is bound-flipped (state and value move; the basis does not);
///  - one whose opposite bound is infinite keeps its bound and gets a
///    repair-only cost shift that zeroes its reduced cost (as does a wrong
///    sign within `tolerance`);
///  - then every such column's repair cost is perturbed by
///    dual_perturbation() in its dual-feasible direction (d >= 0 at lower,
///    d <= 0 at upper).
/// `shift[j]` receives the repair cost minus the true cost (0 for basic and
/// fixed columns). The caller runs the dual repair on costs + shift and
/// Phase II on the true costs, so every optimum it returns is optimal for
/// the real objective. Returns true when a flip moved a nonbasic value (the
/// caller must recompute the basic values).
inline bool prepare_dual_repair(std::span<VarState> state,
                                std::span<double> value,
                                std::span<const double> lower,
                                std::span<const double> upper,
                                std::span<const double> costs,
                                std::span<const double> reduced,
                                double tolerance, std::span<double> shift) {
  bool flipped = false;
  for (std::size_t j = 0; j < state.size(); ++j) {
    shift[j] = 0.0;
    if (state[j] == VarState::Basic || lower[j] == upper[j]) continue;
    const double d = reduced[j];
    if (state[j] == VarState::AtLower && d < -tolerance &&
        std::isfinite(upper[j])) {
      state[j] = VarState::AtUpper;
      value[j] = upper[j];
      flipped = true;
    } else if (state[j] == VarState::AtUpper && d > tolerance &&
               std::isfinite(lower[j])) {
      state[j] = VarState::AtLower;
      value[j] = lower[j];
      flipped = true;
    }
    const double dir = state[j] == VarState::AtLower ? 1.0 : -1.0;
    shift[j] = dir * (std::max(0.0, -dir * d) +
                      dual_perturbation(static_cast<int>(j), costs[j]));
  }
  return flipped;
}

/// Sparse revised simplex backend (the default; simplex.cpp).
[[nodiscard]] Solution solve_lp_revised(const Model& model,
                                        std::span<const double> lower,
                                        std::span<const double> upper,
                                        const SimplexOptions& options,
                                        const Basis* warm_start,
                                        bool emit_basis);

/// Dense tableau reference backend (dense_tableau.cpp).
[[nodiscard]] Solution solve_lp_dense(const Model& model,
                                      std::span<const double> lower,
                                      std::span<const double> upper,
                                      const SimplexOptions& options,
                                      const Basis* warm_start,
                                      bool emit_basis);

template <class Engine>
[[nodiscard]] Solution solve_lp_with(const Model& model,
                                     std::span<const double> lower,
                                     std::span<const double> upper,
                                     const SimplexOptions& options,
                                     const Basis* warm_start,
                                     bool emit_basis) {
  for (std::size_t j = 0; j < lower.size(); ++j) {
    if (lower[j] > upper[j]) {
      Solution infeasible;
      infeasible.status = SolveStatus::Infeasible;
      return infeasible;
    }
  }

  // Attempt the warm path first; a rejection (shape mismatch, singular
  // basis, a repair or Phase II that still stalls) falls through to the cold
  // two-phase solve, carrying the wasted work in the diagnostics.
  std::int64_t wasted_iterations = 0;
  std::int64_t wasted_factor_pivots = 0;
  if (warm_start != nullptr && !warm_start->empty() &&
      warm_start->matches(model.num_variables(), model.num_constraints())) {
    Engine engine(model, lower, upper, options, *warm_start);
    if (engine.warm_ok()) {
      if (auto solution = engine.solve_warm()) {
        if (emit_basis && solution->status == SolveStatus::Optimal) {
          solution->basis = engine.extract_basis();
        }
        return *std::move(solution);
      }
    }
    wasted_iterations = engine.iterations();
    wasted_factor_pivots = engine.factor_pivots();
  }

  Engine engine(model, lower, upper, options);
  Solution solution = engine.solve();
  solution.simplex_iterations += wasted_iterations;
  solution.factor_pivots += wasted_factor_pivots;
  if (emit_basis && solution.status == SolveStatus::Optimal) {
    solution.basis = engine.extract_basis();
  }
  return solution;
}

}  // namespace birp::solver
