#include "birp/sched/oaei.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "birp/core/problem.hpp"
#include "birp/sim/validate.hpp"
#include "birp/util/check.hpp"

namespace birp::sched {
namespace {

/// EWMA smoothing for the capacity-correction factor.
constexpr double kCapacitySmoothing = 0.2;

/// Seed of the model-selection rounding stream.
constexpr std::uint64_t kRoundingSeed = 0x0ae1;

/// Builds OAEI's serial-execution LP into the shared BuiltProblem shape so
/// core::extract_decision can read the solution; core::add_slot_rows adds
/// the rows it shares with BIRP's problem. What differs: x is relaxed to
/// [0,1]; z links to x with a big-M of the app's cluster-wide demand (serial
/// execution has no per-deployment batch cap); kernel caps stay 1, so memory
/// reserves batch-1 activations; compute charges gamma per request with the
/// learned capacity factor (no TIR speedup — execution is serial).
core::BuiltProblem build_oaei_problem(
    const device::ClusterSpec& cluster,
    const util::Grid2<std::int64_t>& demand, const sim::SlotDecision* previous,
    const std::vector<double>& capacity_factor) {
  const int I = cluster.num_apps();
  const int K = cluster.num_devices();
  core::BuiltProblem built(cluster);
  auto& model = built.model;

  for (int i = 0; i < I; ++i) {
    // Cluster-wide demand per app bounds any single deployment's share.
    double app_demand = 0.0;
    for (int k = 0; k < K; ++k) {
      app_demand += static_cast<double>(demand(i, k));
    }
    const int J = cluster.zoo().num_variants(i);
    for (int j = 0; j < J; ++j) {
      for (int k = 0; k < K; ++k) {
        const std::string tag = "_i" + std::to_string(i) + "j" +
                                std::to_string(j) + "k" + std::to_string(k);
        built.x(i, j, k) = model.add_continuous("x" + tag, 0.0, 1.0);
        built.z(i, j, k) = model.add_continuous("n" + tag, 0.0, app_demand);
        model.set_objective(built.z(i, j, k), cluster.zoo().variant(i, j).loss);
        // n <= D_i * x : serving requires deployment.
        model.add_constraint({{built.z(i, j, k), 1.0},
                              {built.x(i, j, k), -app_demand}},
                             solver::Relation::LessEqual, 0.0, "link" + tag);
      }
    }
  }

  const auto charge = [&](int k, int i, int j) {
    return core::ComputeCharge{
        cluster.gamma_s(k, i, j) *
            capacity_factor[static_cast<std::size_t>(k)],
        0.0};
  };
  core::add_slot_rows(built, cluster, demand, previous, charge, {});
  return built;
}

}  // namespace

OaeiScheduler::OaeiScheduler(const device::ClusterSpec& cluster)
    : cluster_(cluster),
      rng_(kRoundingSeed),
      capacity_factor_(static_cast<std::size_t>(cluster.num_devices()), 1.0),
      predicted_busy_s_(static_cast<std::size_t>(cluster.num_devices()), 0.0) {}

double OaeiScheduler::capacity_factor(int k) const {
  util::check(k >= 0 && k < cluster_.num_devices(), "OAEI: bad device");
  return capacity_factor_[static_cast<std::size_t>(k)];
}

sim::SlotDecision OaeiScheduler::decide(const sim::SlotState& state) {
  const int I = cluster_.num_apps();
  const int K = cluster_.num_devices();

  core::BuiltProblem problem = build_oaei_problem(
      cluster_, state.demand, state.previous, capacity_factor_);
  const solver::Solution relaxed = solver::solve_lp(problem.model);

  sim::SlotDecision decision(I, cluster_.zoo().max_variants(), K);
  if (!relaxed.usable()) {
    // Degenerate safety net: drop everything (validator will account).
    return decision;
  }

  // --- Randomized rounding of deployments, respecting memory and network
  //     switch budgets so the fixed-x problem stays feasible. ---
  const int n_vars = problem.model.num_variables();
  std::vector<double> lower(static_cast<std::size_t>(n_vars));
  std::vector<double> upper(static_cast<std::size_t>(n_vars));
  for (int v = 0; v < n_vars; ++v) {
    lower[static_cast<std::size_t>(v)] = problem.model.variable(v).lower;
    upper[static_cast<std::size_t>(v)] = problem.model.variable(v).upper;
  }

  // Memory and network follow the validator's budget model with batch-1
  // activation reservations.
  std::vector<sim::EdgeBudget> budget;
  budget.reserve(static_cast<std::size_t>(K));
  for (int k = 0; k < K; ++k) budget.emplace_back(cluster_, k);

  // Model selection with randomized rounding, the defining element of [19]:
  // each (app, edge) selects exactly ONE model version, sampled from the
  // LP's fractional deployment weights, skipping versions that do not fit
  // the remaining memory / network-switch budget. Everything else stays
  // closed; the second-stage LP then routes requests across edges given
  // the selected versions.
  for (int i = 0; i < I; ++i) {
    const int J = cluster_.zoo().num_variants(i);
    for (int k = 0; k < K; ++k) {
      for (int j = 0; j < J; ++j) {
        const int xv = problem.x(i, j, k);
        lower[static_cast<std::size_t>(xv)] = 0.0;
        upper[static_cast<std::size_t>(xv)] = 0.0;
      }
      if (state.demand(i, k) <= 0 && relaxed.values.empty()) continue;

      // Sampling order: draw versions without replacement, probability
      // proportional to the LP weight, until one fits.
      std::vector<int> order;
      std::vector<double> weight(static_cast<std::size_t>(J), 0.0);
      double total = 0.0;
      for (int j = 0; j < J; ++j) {
        weight[static_cast<std::size_t>(j)] = std::max(
            0.0,
            relaxed.values[static_cast<std::size_t>(problem.x(i, j, k))]);
        total += weight[static_cast<std::size_t>(j)];
      }
      if (total <= 1e-9) {
        if (state.demand(i, k) <= 0) continue;
        // LP routed everything away yet demand exists locally: keep the
        // smallest version available as a safety valve.
        for (int j = 0; j < J; ++j) weight[static_cast<std::size_t>(j)] = j == 0;
        total = 1.0;
      }
      std::vector<bool> used(static_cast<std::size_t>(J), false);
      for (int draw = 0; draw < J; ++draw) {
        double pick = rng_.uniform(0.0, total);
        int j = -1;
        for (int candidate = 0; candidate < J; ++candidate) {
          if (used[static_cast<std::size_t>(candidate)]) continue;
          pick -= weight[static_cast<std::size_t>(candidate)];
          if (pick <= 0.0) {
            j = candidate;
            break;
          }
        }
        if (j < 0) break;
        used[static_cast<std::size_t>(j)] = true;
        total -= weight[static_cast<std::size_t>(j)];

        const auto& variant = cluster_.zoo().variant(i, j);
        auto& b = budget[static_cast<std::size_t>(k)];
        const bool was_deployed =
            state.previous == nullptr || state.previous->deployed(i, j, k);
        const double net_cost = was_deployed ? 0.0 : variant.compressed_mb;
        if (!b.fits_memory(variant.weights_mb, variant.intermediate_mb)) {
          continue;
        }
        if (!b.fits_network(net_cost)) continue;

        b.deploy(variant.weights_mb, variant.intermediate_mb);
        b.network_mb += net_cost;
        const int xv = problem.x(i, j, k);
        lower[static_cast<std::size_t>(xv)] = 1.0;
        upper[static_cast<std::size_t>(xv)] = 1.0;
        break;  // exactly one version per (app, edge)
      }
    }
  }

  // --- Second stage: request placement with deployments fixed. Always
  //     feasible (drops absorb everything). ---
  const solver::Solution fixed =
      solver::solve_lp(problem.model, lower, upper);
  if (!fixed.usable()) return decision;

  decision = core::extract_decision(problem, fixed, cluster_, state.demand);

  // Serial execution: every request is its own batch-1 launch, and the
  // predicted busy time per edge feeds the capacity learner.
  std::fill(predicted_busy_s_.begin(), predicted_busy_s_.end(), 0.0);
  for (int i = 0; i < I; ++i) {
    const int J = cluster_.zoo().num_variants(i);
    for (int j = 0; j < J; ++j) {
      for (int k = 0; k < K; ++k) {
        if (decision.served(i, j, k) > 0) {
          decision.kernel(i, j, k) = 1;
          predicted_busy_s_[static_cast<std::size_t>(k)] +=
              cluster_.gamma_s(k, i, j) *
              static_cast<double>(decision.served(i, j, k));
        }
      }
    }
  }
  return decision;
}

void OaeiScheduler::observe(const sim::SlotFeedback& feedback) {
  for (int k = 0; k < cluster_.num_devices(); ++k) {
    const double predicted = predicted_busy_s_[static_cast<std::size_t>(k)];
    if (predicted < 0.1) continue;  // too little signal this slot
    const double observed = feedback.busy_s[static_cast<std::size_t>(k)];
    auto& factor = capacity_factor_[static_cast<std::size_t>(k)];
    const double sample =
        std::clamp(observed / predicted * factor, 0.25, 4.0);
    factor = (1.0 - kCapacitySmoothing) * factor + kCapacitySmoothing * sample;
  }
}

}  // namespace birp::sched
