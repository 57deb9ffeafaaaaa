#include "birp/sim/slot_loop.hpp"

#include <utility>

namespace birp::sim {

SlotLoop::SlotLoop(const device::ClusterSpec& cluster, int threads,
                   fault::FaultPlan fault_plan,
                   const fault::FailoverConfig& failover)
    : cluster_(cluster),
      pool_(threads <= 0 ? 0 : static_cast<std::size_t>(threads)),
      fault_plan_(std::move(fault_plan)),
      failover_(failover, cluster.num_apps(), cluster.num_devices()) {}

const util::Grid2<std::int64_t>* SlotLoop::open(
    util::Grid2<std::int64_t> demand, const SchedulerHints* hints) {
  state_.slot = slot_;
  state_.demand = std::move(demand);
  state_.previous = previous_.has_value() ? &previous_.value() : nullptr;
  state_.hints = hints;
  if (!have_faults()) return nullptr;

  // Heartbeat view: schedulers learn the liveness mask at the slot boundary.
  // Fault-free runs keep edge_up empty (all up).
  state_.edge_up = fault_plan_.up_mask(cluster_.num_devices(), slot_);
  if (!failover_.enabled()) return nullptr;
  // Orphans queued by earlier failures re-enter demand at survivors, routed
  // around breaker-open (app, edge) pairs when the guard publishes them.
  const auto& readmit = failover_.begin_slot(
      slot_, state_.edge_up, hints != nullptr ? &hints->avoid_import : nullptr);
  for (int i = 0; i < readmit.rows(); ++i) {
    for (int k = 0; k < readmit.cols(); ++k) {
      state_.demand(i, k) += readmit(i, k);
    }
  }
  return &readmit;
}

void SlotLoop::decide(Scheduler& scheduler, SlotOutcome& slot) const {
  slot.decision = scheduler.decide(state_);
  slot.repairs = validate_and_repair(cluster_, state_.demand, state_.previous,
                                     slot.decision);
}

void SlotLoop::close(Scheduler& scheduler, const SlotOutcome& slot,
                     metrics::RunMetrics* metrics) {
  if (metrics != nullptr) metrics->record_slot_loss(slot.slot_loss);
  scheduler.observe(slot.feedback);
  previous_ = slot.decision;
  ++slot_;
}

void SlotLoop::finish(Scheduler& scheduler, metrics::RunMetrics& metrics) {
  for (std::int64_t d = failover_.drain_pending(); d > 0; --d) {
    metrics.record_orphan_drop();
  }
  metrics.set_solver_fallbacks(scheduler.fallback_count());
}

}  // namespace birp::sim
