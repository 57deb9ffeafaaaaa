// Time-slotted edge-collaboration simulator: the slot-level backend.
//
// Each slot runs through the shared SlotLoop (slot_loop.hpp): demand comes
// from the trace, the loop resolves faults and failover, decides and
// validates, and this class executes every live edge's batch jobs
// concurrently (one worker per edge on the thread pool) and charges the
// decision's drops. Execution uses ground-truth TIR curves with
// multiplicative lognormal noise — the stand-in for real accelerator
// nondeterminism.
//
// Determinism: all noise derives from per-(slot, edge) forked RNG streams,
// so results are bit-identical regardless of thread count.
#pragma once

#include <cstdint>
#include <vector>

#include "birp/device/cluster.hpp"
#include "birp/fault/failover.hpp"
#include "birp/fault/fault_plan.hpp"
#include "birp/metrics/run_metrics.hpp"
#include "birp/sim/decision.hpp"
#include "birp/sim/scheduler.hpp"
#include "birp/sim/slot_loop.hpp"
#include "birp/sim/validate.hpp"
#include "birp/workload/trace.hpp"

namespace birp::sim {

struct SimulatorConfig {
  /// Lognormal sigma applied to every batch execution time.
  double noise_sigma = 0.04;
  std::uint64_t seed = 0x51beef;
  /// Worker threads for per-edge execution; 0 = hardware concurrency,
  /// 1 = fully sequential (useful in tests).
  int threads = 0;
  /// When false the per-batch TIR observations are not reported (isolates
  /// the value of feedback in ablations).
  bool report_observations = true;
  /// Fault injection (extension beyond the paper's always-up cluster): timed
  /// edge outages, bandwidth degradation, and straggler episodes. An empty
  /// plan leaves every code path bit-identical to the fault-free simulator.
  fault::FaultPlan fault_plan;
  /// What happens to requests orphaned by an edge failure: terminal drops
  /// (disabled, the default) or re-admission at surviving edges next slot.
  fault::FailoverConfig failover;
};

/// Outcome of one slot, exposed for tests and fine-grained experiments.
struct SlotResult : SlotOutcome {
  std::int64_t dropped = 0;  ///< scheduler drops charged this slot
};

class Simulator {
 public:
  Simulator(const device::ClusterSpec& cluster, const workload::Trace& trace,
            SimulatorConfig config = {});

  /// Runs the scheduler over the whole horizon (or `max_slots` if positive
  /// and smaller) and returns aggregated metrics.
  metrics::RunMetrics run(Scheduler& scheduler, int max_slots = -1);

  /// Runs a single slot against `scheduler`, advancing internal state
  /// (previous-decision tracking). Used by tests and the ablations.
  SlotResult step(Scheduler& scheduler, metrics::RunMetrics* metrics = nullptr);

  /// Flushes terminal state into `metrics` (SlotLoop::finish): failover
  /// orphans still awaiting re-admission become terminal drops, and the
  /// scheduler's fallback count is recorded. run() calls this at the horizon;
  /// harnesses driving step() themselves must call it once after the last
  /// step for exact request conservation.
  void finish(Scheduler& scheduler, metrics::RunMetrics& metrics);

  /// Slots executed so far.
  [[nodiscard]] int current_slot() const noexcept { return loop_.slot(); }

  [[nodiscard]] const device::ClusterSpec& cluster() const noexcept {
    return cluster_;
  }

 private:
  /// Everything one edge produces in a slot; merged single-threaded.
  struct EdgeOutcome {
    std::vector<double> completions_tau;
    std::vector<bool> met_slo;
    std::vector<TirObservation> observations;
    double busy_s = 0.0;
    double loss = 0.0;
  };

  /// Executes edge k's share of the open slot's decision.
  [[nodiscard]] EdgeOutcome execute_edge(int k,
                                         const SlotDecision& decision) const;

  const device::ClusterSpec& cluster_;
  const workload::Trace& trace_;
  SimulatorConfig config_;
  SlotLoop loop_;
};

}  // namespace birp::sim
