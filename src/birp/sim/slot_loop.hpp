// The slot control loop both execution backends share.
//
// BIRP is one loop per time slot: observe, decide, execute, feed back.
// sim::Simulator (slot-level) and serve::ServeEngine (request-level) differ
// only in how they execute a decision and charge its outcome; everything
// around that lives here, so the two cannot drift apart. A backend owns one
// SlotLoop and drives every slot through it in this order:
//
//   open → decide (scheduler, then validate_and_repair) → execute_edges
//   (the backend's per-edge execution and merge) → resolve_orphans
//   (failover) → the backend charges its drops → close (slot loss, observe,
//   advance).
//
// With an empty fault plan every edge is up, every factor is 1 and nothing
// is orphaned, so fault-free runs take exactly the fault-free path.
#pragma once

#include <cstdint>
#include <future>
#include <optional>
#include <vector>

#include "birp/device/cluster.hpp"
#include "birp/fault/failover.hpp"
#include "birp/fault/fault_plan.hpp"
#include "birp/metrics/run_metrics.hpp"
#include "birp/runtime/thread_pool.hpp"
#include "birp/sim/decision.hpp"
#include "birp/sim/scheduler.hpp"
#include "birp/sim/validate.hpp"
#include "birp/util/grid.hpp"
#include "birp/util/rng.hpp"

namespace birp::sim {

/// What every backend reports for a slot; SlotResult and SlotServeResult
/// add their own counters. The loop fills the decision, repairs, feedback
/// and orphan counts; the backend adds what it served and charged.
struct SlotOutcome {
  SlotDecision decision;  ///< post-repair decision that executed
  ValidationReport repairs;
  SlotFeedback feedback;
  double slot_loss = 0.0;
  std::int64_t served = 0;
  std::int64_t slo_failures = 0;
  std::int64_t orphaned = 0;  ///< terminal losses to edge failures
  std::int64_t retried = 0;   ///< orphans queued for a later slot
};

class SlotLoop {
 public:
  using Orphans = fault::FailoverPolicy::OrphanOutcome;

  /// `threads`: per-edge execution workers; 0 = hardware concurrency.
  SlotLoop(const device::ClusterSpec& cluster, int threads,
           fault::FaultPlan fault_plan, const fault::FailoverConfig& failover);

  /// Slots closed so far; the next open() starts this slot.
  [[nodiscard]] int slot() const noexcept { return slot_; }

  /// Opens the current slot over the backend's `demand`: resolves liveness
  /// and adds failover re-admissions to the demand. `hints` (may be null)
  /// reach the scheduler and steer re-admission targets. Returns the
  /// re-admissions, or null when there can be none.
  const util::Grid2<std::int64_t>* open(util::Grid2<std::int64_t> demand,
                                        const SchedulerHints* hints = nullptr);

  /// The open slot's scheduler input (demand includes re-admissions).
  [[nodiscard]] const SlotState& state() const noexcept { return state_; }
  [[nodiscard]] bool is_up(int k) const noexcept { return state_.is_up(k); }
  /// Wireless-bandwidth and execution-time multipliers of edge k this slot.
  [[nodiscard]] double bandwidth_factor(int k) const noexcept {
    return fault_plan_.bandwidth_factor(k, slot_);
  }
  [[nodiscard]] double straggler_factor(int k) const noexcept {
    return fault_plan_.straggler_factor(k, slot_);
  }

  /// Edge k's execution-noise stream for the open slot. Both backends seed
  /// it per (slot, edge), so results never depend on which worker ran k.
  [[nodiscard]] util::Xoshiro256StarStar edge_rng(std::uint64_t seed,
                                                  int k) const noexcept {
    const auto stream = static_cast<std::uint64_t>(slot_) * 1024 +
                        static_cast<std::uint64_t>(k) + 1;
    return util::Xoshiro256StarStar(seed ^ (0x9e3779b97f4a7c15ULL * stream));
  }

  /// The scheduler's decision for the open slot, repaired against its
  /// demand: what executes.
  void decide(Scheduler& scheduler, SlotOutcome& slot) const;

  /// Executes the live edges concurrently — `execute(k)` runs on the pool,
  /// one task per edge — then walks every edge in order, sampling liveness
  /// on fault runs. Once live edge k has executed, `merge(k)` folds the
  /// backend's outcome into `slot` and returns that outcome, whose
  /// `observations` and `busy_s` land in the slot's feedback and whose busy
  /// time is billed as busy fraction and energy. A down edge executes
  /// nothing and records nothing.
  template <class Execute, class Merge>
  void execute_edges(SlotOutcome& slot, metrics::RunMetrics* metrics,
                     Execute&& execute, Merge&& merge) {
    const int K = cluster_.num_devices();
    const double tau = cluster_.tau_s();
    std::vector<std::future<void>> done(static_cast<std::size_t>(K));
    // Tasks reference this frame, so none may outlive it, even when a merge
    // or an edge's execution throws.
    struct Join {
      std::vector<std::future<void>>& tasks;
      ~Join() {
        for (auto& task : tasks) {
          if (task.valid()) task.wait();
        }
      }
    } join{done};
    for (int k = 0; k < K; ++k) {
      if (!is_up(k)) continue;
      done[static_cast<std::size_t>(k)] =
          pool_.submit([&execute, k] { execute(k); });
    }
    SlotFeedback& feedback = slot.feedback;
    feedback.slot = slot_;
    feedback.busy_s.assign(static_cast<std::size_t>(K), 0.0);
    for (int k = 0; k < K; ++k) {
      if (have_faults() && metrics != nullptr) {
        metrics->record_edge_slot(k, is_up(k));
      }
      if (!is_up(k)) continue;
      done[static_cast<std::size_t>(k)].get();
      const auto& outcome = merge(k);
      feedback.observations.insert(feedback.observations.end(),
                                   outcome.observations.begin(),
                                   outcome.observations.end());
      feedback.busy_s[static_cast<std::size_t>(k)] = outcome.busy_s;
      if (metrics != nullptr) {
        metrics->record_edge_busy(outcome.busy_s / tau);
        metrics->record_energy(
            cluster_.device(k).slot_energy_j(outcome.busy_s, tau));
      }
    }
  }

  /// Resolves what edge failures orphaned this slot: a down edge's whole
  /// demand (local serving, exports, planned drops — nothing gets in or
  /// out) plus what a live edge shipped toward a down one (lost in transit,
  /// charged to its origin so the retry budget stays pessimistic). The
  /// failover policy splits each (app, origin) cell into retries and
  /// terminal drops, counted into `slot` and the metrics; then
  /// `on_cell(app, origin, outcome)` lets the backend charge the drops' loss,
  /// in (app, origin) order.
  template <class OnCell>
  void resolve_orphans(SlotOutcome& slot, metrics::RunMetrics* metrics,
                       OnCell&& on_cell) {
    if (!have_faults()) return;
    const int I = cluster_.num_apps();
    const int K = cluster_.num_devices();
    util::Grid2<std::int64_t> orphans(I, K, 0);
    for (int i = 0; i < I; ++i) {
      for (int k = 0; k < K; ++k) {
        if (!is_up(k)) orphans(i, k) = state_.demand(i, k);
      }
    }
    for (const Flow& flow : slot.decision.flows) {
      if (is_up(flow.from) && !is_up(flow.to)) {
        orphans(flow.app, flow.from) += flow.count;
      }
    }
    for (int i = 0; i < I; ++i) {
      for (int k = 0; k < K; ++k) {
        if (orphans(i, k) == 0) continue;
        const Orphans outcome = failover_.on_orphans(i, k, orphans(i, k));
        slot.retried += outcome.retried;
        slot.orphaned += outcome.dropped;
        slot.slo_failures += outcome.dropped;
        if (metrics != nullptr) {
          metrics->record_retries(outcome.retried);
          for (std::int64_t d = 0; d < outcome.dropped; ++d) {
            metrics->record_orphan_drop();
          }
        }
        on_cell(i, k, outcome);
      }
    }
  }

  /// Closes the slot: records its loss, feeds back to the scheduler, keeps
  /// the executed decision for the next slot's switch costs, and advances.
  void close(Scheduler& scheduler, const SlotOutcome& slot,
             metrics::RunMetrics* metrics);

  /// Flushes terminal state into `metrics` after the last slot: orphans
  /// still awaiting re-admission become terminal drops, and the scheduler's
  /// fallback count is recorded.
  void finish(Scheduler& scheduler, metrics::RunMetrics& metrics);

 private:
  [[nodiscard]] bool have_faults() const noexcept {
    return !fault_plan_.empty();
  }

  const device::ClusterSpec& cluster_;
  runtime::ThreadPool pool_;
  fault::FaultPlan fault_plan_;
  fault::FailoverPolicy failover_;
  int slot_ = 0;
  std::optional<SlotDecision> previous_;
  SlotState state_;
};

}  // namespace birp::sim
