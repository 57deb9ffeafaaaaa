// Per-layer ledger for the slot-loop benchmark, measured from outside the
// library: every number here comes from timing a call into a layer's
// public functions or from diffing a layer's public counters. Nothing in
// the library is instrumented.
//
//   TimedScheduler  wraps the rig's sim::Scheduler; times decide and
//                   observe, the backend interval between them, and a
//                   validate_and_repair of a copy of the raw decision.
//   ShadowReplay    re-runs the monolithic BirpScheduler's decide through
//                   core/solver public calls (build_slot_problem,
//                   heuristic_incumbent, solve_milp, extract_decision) and
//                   checks the replayed decision equals the real one.
//   CounterProbe    per-slot deltas of the per-cell solver counters and the
//                   cluster's balancer/watchdog counters.
#pragma once

#include <cstdint>
#include <vector>

#include "birp/core/birp_scheduler.hpp"
#include "birp/sim/decision.hpp"
#include "birp/sim/scheduler.hpp"
#include "birp/solver/solution.hpp"
#include "rig.hpp"

namespace slotbench {

/// Exact equality of two slot decisions (every tensor entry and flow).
[[nodiscard]] bool decisions_equal(const birp::sim::SlotDecision& a,
                                   const birp::sim::SlotDecision& b);

/// FNV-1a over a stream of post-repair slot decisions.
class DecisionDigest {
 public:
  void add(const birp::sim::SlotDecision& decision);
  void add_word(std::uint64_t word);
  [[nodiscard]] std::uint64_t value() const noexcept { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/// What one shadow replay of BirpScheduler::decide measured.
struct ShadowSlot {
  double build_ms = 0.0;      ///< build_slot_problem
  double heuristic_ms = 0.0;  ///< seed repair + every solver callback
  double callback_ms = 0.0;   ///< the callback part (inside solve_milp)
  double solve_ms = 0.0;      ///< solve_milp, callbacks included
  double extract_ms = 0.0;    ///< extract_decision
  double total_ms = 0.0;      ///< the whole replay
  std::int64_t heuristic_calls = 0;
  std::int64_t lookup_calls = 0;  ///< TirLookup invocations
  std::int64_t pivots = 0;
  std::int64_t factor_pivots = 0;
  std::int64_t nodes = 0;
  std::int64_t warm_lps = 0;
  std::int64_t cold_lps = 0;
  bool match = false;  ///< replayed decision == real decision
};

/// Replays a monolithic online BirpScheduler's decide from public calls,
/// carrying its own warm-start chain (root basis + previous values) the
/// way the scheduler does. Must be called after every real decide and
/// before the scheduler observes feedback (beliefs change on observe).
class ShadowReplay {
 public:
  ShadowReplay(const birp::device::ClusterSpec& cluster,
               const birp::core::BirpScheduler& scheduler,
               birp::core::BirpConfig config);

  [[nodiscard]] ShadowSlot replay(const birp::sim::SlotState& state,
                                  const birp::sim::SlotDecision& real);

 private:
  const birp::device::ClusterSpec& cluster_;
  const birp::core::BirpScheduler& scheduler_;
  birp::core::BirpConfig config_;
  birp::solver::Basis prev_basis_;
  std::vector<double> prev_values_;
};

/// Timings of one slot taken by TimedScheduler.
struct SlotSpans {
  double decide_ms = 0.0;    ///< inner decide (the whole scheduler stack)
  double execute_ms = 0.0;   ///< decide returned -> observe called
  double observe_ms = 0.0;   ///< inner observe
  double validate_ms = 0.0;  ///< validate_and_repair on a raw copy
  double shadow_ms = 0.0;    ///< wrapper work inside step (excluded)
  bool has_replay = false;
  ShadowSlot replay;
};

/// Transparent timing decorator over the rig's scheduler. Everything it
/// does besides forwarding happens between the inner decide's return and
/// the wrapper's return, and is reported as shadow_ms so the harness can
/// subtract it from the step's wall time.
class TimedScheduler final : public birp::sim::Scheduler {
 public:
  /// `shadow` replays the monolithic scheduler's decide when true (the
  /// rig must have a monolithic BirpScheduler).
  TimedScheduler(Rig& rig, bool shadow);

  [[nodiscard]] std::string name() const override;
  [[nodiscard]] birp::sim::SlotDecision decide(
      const birp::sim::SlotState& state) override;
  void observe(const birp::sim::SlotFeedback& feedback) override;
  [[nodiscard]] std::int64_t fallback_count() const noexcept override;

  /// Spans of the slot that last called observe; reset by the next decide.
  [[nodiscard]] const SlotSpans& spans() const noexcept { return spans_; }

 private:
  Rig& rig_;
  std::unique_ptr<ShadowReplay> shadow_;
  SlotSpans spans_;
  Clock::time_point decide_returned_;
};

/// Solver counters of one cell over one slot.
struct CellDelta {
  std::int64_t pivots = 0;
  std::int64_t factor_pivots = 0;
  std::int64_t nodes = 0;
  std::int64_t warm_lps = 0;
  std::int64_t cold_lps = 0;
  std::int64_t fallbacks = 0;
};

/// Counter deltas of one slot across the scheduler stack.
struct SlotCounters {
  std::vector<CellDelta> cells;  ///< one per cell (1 when monolithic)
  std::int64_t moved = 0;        ///< balancer inter-cell moves
  std::int64_t watchdog_trips = 0;
  std::int64_t degraded_cell_slots = 0;

  [[nodiscard]] CellDelta total() const;
};

/// Reads the stack's cumulative public counters after each step and
/// returns the slot's deltas. A live repartition replaces the whole
/// CellScheduler (its counters restart at zero), so the baseline resets
/// whenever the control plane reports a new repartition.
class CounterProbe {
 public:
  [[nodiscard]] SlotCounters read(const Rig& rig);

 private:
  std::vector<CellDelta> last_cells_;
  std::int64_t last_moved_ = 0;
  std::int64_t last_trips_ = 0;
  std::int64_t last_degraded_ = 0;
  std::int64_t last_repartitions_ = 0;
};

}  // namespace slotbench
