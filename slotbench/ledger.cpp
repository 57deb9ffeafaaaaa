#include "ledger.hpp"

#include <span>
#include <stdexcept>
#include <utility>

#include "birp/core/problem.hpp"
#include "birp/sim/validate.hpp"
#include "birp/solver/branch_and_bound.hpp"

namespace slotbench {

bool decisions_equal(const birp::sim::SlotDecision& a,
                     const birp::sim::SlotDecision& b) {
  if (a.served.raw() != b.served.raw() || a.kernel.raw() != b.kernel.raw() ||
      a.drops.raw() != b.drops.raw() ||
      a.pad_partial_launches != b.pad_partial_launches ||
      a.flows.size() != b.flows.size()) {
    return false;
  }
  for (std::size_t f = 0; f < a.flows.size(); ++f) {
    const auto& x = a.flows[f];
    const auto& y = b.flows[f];
    if (x.app != y.app || x.from != y.from || x.to != y.to ||
        x.count != y.count) {
      return false;
    }
  }
  return true;
}

void DecisionDigest::add_word(std::uint64_t word) {
  for (int byte = 0; byte < 8; ++byte) {
    hash_ ^= (word >> (8 * byte)) & 0xffU;
    hash_ *= 0x100000001b3ULL;
  }
}

void DecisionDigest::add(const birp::sim::SlotDecision& decision) {
  add_word(static_cast<std::uint64_t>(decision.apps()));
  add_word(static_cast<std::uint64_t>(decision.max_variants()));
  add_word(static_cast<std::uint64_t>(decision.devices()));
  for (const auto v : decision.served.raw()) add_word(static_cast<std::uint64_t>(v));
  for (const auto v : decision.kernel.raw()) add_word(static_cast<std::uint64_t>(v));
  for (const auto v : decision.drops.raw()) add_word(static_cast<std::uint64_t>(v));
  add_word(decision.flows.size());
  for (const auto& flow : decision.flows) {
    add_word(static_cast<std::uint64_t>(flow.app));
    add_word(static_cast<std::uint64_t>(flow.from));
    add_word(static_cast<std::uint64_t>(flow.to));
    add_word(static_cast<std::uint64_t>(flow.count));
  }
  add_word(decision.pad_partial_launches ? 1U : 0U);
}

ShadowReplay::ShadowReplay(const birp::device::ClusterSpec& cluster,
                           const birp::core::BirpScheduler& scheduler,
                           birp::core::BirpConfig config)
    : cluster_(cluster), scheduler_(scheduler), config_(std::move(config)) {
  if (!config_.online || config_.solver_threads != 0) {
    throw std::invalid_argument(
        "shadow replay covers online BIRP solving on the calling thread");
  }
}

ShadowSlot ShadowReplay::replay(const birp::sim::SlotState& state,
                                const birp::sim::SlotDecision& real) {
  ShadowSlot out;
  const auto start = Clock::now();
  const birp::core::TirLookup lookup = [&](int k, int i, int j) {
    ++out.lookup_calls;
    return scheduler_.believed_tir(k, i, j);
  };
  // The same option overlay BirpScheduler::decide applies per slot.
  birp::core::ProblemOptions options = config_.problem;
  if (state.any_down()) options.edge_up = state.edge_up;
  if (state.hints != nullptr && !state.hints->empty()) {
    options.avoid_import = state.hints->avoid_import;
    options.variant_cap = state.hints->variant_cap;
  }

  const auto problem = birp::core::build_slot_problem(
      cluster_, state.demand, state.previous, lookup, options);
  const auto built = Clock::now();
  out.build_ms = ms_between(start, built);

  const auto repair = [&](std::span<const double> values) {
    ++out.heuristic_calls;
    return birp::core::heuristic_incumbent(problem, values, cluster_,
                                           state.demand, state.previous,
                                           lookup, options);
  };
  birp::solver::BranchAndBoundOptions solver_options = config_.solver;
  solver_options.incumbent_heuristic = [&](std::span<const double> lp) {
    const auto t0 = Clock::now();
    auto candidate = repair(lp);
    out.callback_ms += ms_between(t0, Clock::now());
    return candidate;
  };
  double seed_ms = 0.0;
  if (solver_options.warm_start) {
    if (prev_basis_.matches(problem.model.num_variables(),
                            problem.model.num_constraints())) {
      solver_options.root_basis = &prev_basis_;
    }
    if (prev_values_.size() ==
        static_cast<std::size_t>(problem.model.num_variables())) {
      const auto t0 = Clock::now();
      solver_options.seed_candidate = repair(prev_values_);
      seed_ms = ms_between(t0, Clock::now());
    }
  }

  const auto solve_start = Clock::now();
  const auto solution = birp::solver::solve_milp(problem.model, solver_options);
  const auto solved = Clock::now();
  out.solve_ms = ms_between(solve_start, solved);
  out.heuristic_ms = seed_ms + out.callback_ms;
  out.pivots = solution.simplex_iterations;
  out.factor_pivots = solution.factor_pivots;
  out.nodes = solution.nodes_explored;
  out.warm_lps = solution.warm_lp_solves;
  out.cold_lps = solution.cold_lp_solves;

  if (!solution.basis.empty()) prev_basis_ = solution.basis;
  if (solution.usable()) {
    prev_values_ = solution.values;
    const auto decision = birp::core::extract_decision(problem, solution,
                                                       cluster_, state.demand);
    out.extract_ms = ms_between(solved, Clock::now());
    out.match = decisions_equal(decision, real);
  }
  // An unusable solve sends the real scheduler to its private greedy
  // fallback, which the replay cannot reproduce: that slot is a mismatch.
  out.total_ms = ms_between(start, Clock::now());
  return out;
}

TimedScheduler::TimedScheduler(Rig& rig, bool shadow) : rig_(rig) {
  if (shadow) {
    if (rig.birp == nullptr) {
      throw std::invalid_argument("shadow replay needs a monolithic BIRP rig");
    }
    shadow_ = std::make_unique<ShadowReplay>(*rig.cluster, *rig.birp,
                                             rig.birp_config);
  }
}

std::string TimedScheduler::name() const { return rig_.scheduler->name(); }

std::int64_t TimedScheduler::fallback_count() const noexcept {
  return rig_.scheduler->fallback_count();
}

birp::sim::SlotDecision TimedScheduler::decide(
    const birp::sim::SlotState& state) {
  spans_ = SlotSpans{};
  const auto start = Clock::now();
  auto decision = rig_.scheduler->decide(state);
  const auto decided = Clock::now();
  spans_.decide_ms = ms_between(start, decided);

  if (shadow_ != nullptr) {
    spans_.replay = shadow_->replay(state, decision);
    spans_.has_replay = true;
  }
  auto copy = decision;
  const auto validate_start = Clock::now();
  (void)birp::sim::validate_and_repair(*rig_.cluster, state.demand,
                                       state.previous, copy);
  decide_returned_ = Clock::now();
  spans_.validate_ms = ms_between(validate_start, decide_returned_);
  spans_.shadow_ms = ms_between(decided, decide_returned_);
  return decision;
}

void TimedScheduler::observe(const birp::sim::SlotFeedback& feedback) {
  const auto start = Clock::now();
  spans_.execute_ms = ms_between(decide_returned_, start);
  rig_.scheduler->observe(feedback);
  spans_.observe_ms = ms_between(start, Clock::now());
}

CellDelta SlotCounters::total() const {
  CellDelta sum;
  for (const auto& c : cells) {
    sum.pivots += c.pivots;
    sum.factor_pivots += c.factor_pivots;
    sum.nodes += c.nodes;
    sum.warm_lps += c.warm_lps;
    sum.cold_lps += c.cold_lps;
    sum.fallbacks += c.fallbacks;
  }
  return sum;
}

namespace {

CellDelta snapshot(const birp::core::BirpScheduler& cell) {
  return {cell.total_pivots(),    cell.total_factor_pivots(),
          cell.total_nodes(),     cell.warm_lp_solves(),
          cell.cold_lp_solves(),  cell.fallback_count()};
}

}  // namespace

SlotCounters CounterProbe::read(const Rig& rig) {
  std::vector<CellDelta> now;
  std::int64_t moved = 0;
  std::int64_t trips = 0;
  std::int64_t degraded = 0;
  if (rig.plane != nullptr) {
    if (rig.plane->repartitions() != last_repartitions_) {
      last_repartitions_ = rig.plane->repartitions();
      last_cells_.clear();
      last_moved_ = last_trips_ = last_degraded_ = 0;
    }
    const auto& cells = rig.plane->scheduler();
    for (int c = 0; c < cells.cells(); ++c) now.push_back(snapshot(cells.cell(c)));
    moved = cells.balancer().moved_total();
    trips = cells.watchdog_trips();
    degraded = cells.degraded_cell_slots();
  } else if (rig.birp != nullptr) {
    now.push_back(snapshot(*rig.birp));
  }
  if (last_cells_.size() != now.size()) last_cells_.assign(now.size(), {});

  SlotCounters out;
  for (std::size_t c = 0; c < now.size(); ++c) {
    const auto& a = now[c];
    const auto& b = last_cells_[c];
    out.cells.push_back({a.pivots - b.pivots, a.factor_pivots - b.factor_pivots,
                         a.nodes - b.nodes, a.warm_lps - b.warm_lps,
                         a.cold_lps - b.cold_lps, a.fallbacks - b.fallbacks});
  }
  out.moved = moved - last_moved_;
  out.watchdog_trips = trips - last_trips_;
  out.degraded_cell_slots = degraded - last_degraded_;
  last_cells_ = std::move(now);
  last_moved_ = moved;
  last_trips_ = trips;
  last_degraded_ = degraded;
  return out;
}

}  // namespace slotbench
