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
#pragma once

#include <optional>
#include <span>
#include <utility>

#include "birp/solver/model.hpp"
#include "birp/solver/simplex.hpp"
#include "birp/solver/solution.hpp"

namespace birp::solver {

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

  // Attempt the warm path first; any rejection (shape mismatch, singular
  // basis, dual-infeasible start, stalled repair) falls through to the cold
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
