// Decision validation and repair.
//
// The simulator never trusts a scheduler: before execution every decision is
// checked against the physical constraints (request conservation, memory
// capacity, network budget) and repaired into a feasible plan. Infeasible
// excess becomes dropped requests — which are charged worst-model loss and
// count as SLO failures — so no algorithm can gain by emitting impossible
// plans. The report makes repairs observable to tests and experiments.
#pragma once

#include <algorithm>
#include <cstdint>

#include "birp/device/cluster.hpp"
#include "birp/sim/decision.hpp"
#include "birp/util/grid.hpp"

namespace birp::sim {

struct ValidationReport {
  std::int64_t trimmed_served = 0;    ///< served requests without a source
  std::int64_t added_drops = 0;       ///< demand left unserved -> drops
  std::int64_t cancelled_flow = 0;    ///< flow units cancelled (network budget)
  std::int64_t evicted_served = 0;    ///< served requests lost to memory evictions
  int memory_evictions = 0;           ///< deployments evicted for memory

  /// True when the decision needed no repair beyond bookkeeping.
  [[nodiscard]] bool clean() const noexcept {
    return trimmed_served == 0 && added_drops == 0 && cancelled_flow == 0 &&
           memory_evictions == 0;
  }
};

/// Hard cap on kernel batch sizes accepted by the runtime.
inline constexpr int kMaxKernelBatch = 32;

/// Slack on every memory and network budget comparison: charges are sums of
/// doubles, so an exactly full edge must not read as overrun.
inline constexpr double kBudgetSlackMb = 1e-9;

/// One edge's memory and network budget — the feasibility model every
/// planner charges as it places work and the validator enforces. Memory
/// (Eq. 6 under time-sliced execution) is resident weights plus the largest
/// activation reservation of any deployment; each planner reserves its own
/// launch size (BIRP's kernel cap, MAX's B0, OAEI's batch 1, the validator
/// the executed kernel). Network (Eq. 9) is switch plus transfer MB. Compute
/// is not here: every planner believes its own latency model.
struct EdgeBudget {
  double memory_cap_mb = 0.0;
  double network_cap_mb = 0.0;
  double weights_mb = 0.0;  ///< resident weights of deployed variants
  double peak_mb = 0.0;     ///< largest activation reservation
  double network_mb = 0.0;  ///< switch + transfer MB charged so far

  EdgeBudget(const device::ClusterSpec& cluster, int k)
      : memory_cap_mb(cluster.memory_mb(k)),
        network_cap_mb(cluster.network_mb(k)) {}

  [[nodiscard]] double memory_mb() const noexcept {
    return weights_mb + peak_mb;
  }
  /// True when a deployment adding `weights` and reserving `reserve_mb` of
  /// activations still fits memory (no arguments: the charges so far fit).
  [[nodiscard]] bool fits_memory(double weights = 0.0,
                                 double reserve_mb = 0.0) const noexcept {
    return weights_mb + weights + std::max(peak_mb, reserve_mb) <=
           memory_cap_mb + kBudgetSlackMb;
  }
  /// True when `mb` more network traffic still fits.
  [[nodiscard]] bool fits_network(double mb = 0.0) const noexcept {
    return network_mb + mb <= network_cap_mb + kBudgetSlackMb;
  }
  void deploy(double weights, double reserve_mb) noexcept {
    weights_mb += weights;
    peak_mb = std::max(peak_mb, reserve_mb);
  }
};

/// Network megabytes `decision` charges to edge k (Eq. 9's left-hand side):
/// compressed weights of newly deployed variants plus per-request transfer
/// costs of flows touching k. At t = 0 (previous == nullptr) the switch term
/// is absent (P1 / Eq. 13).
[[nodiscard]] double decision_network_mb(const device::ClusterSpec& cluster,
                                         const SlotDecision& decision,
                                         const SlotDecision* previous, int k);

/// Memory megabytes `decision` consumes on edge k: resident weights plus the
/// peak in-flight activation footprint (Eq. 6 under time-sliced execution).
[[nodiscard]] double decision_memory_mb(const device::ClusterSpec& cluster,
                                        const SlotDecision& decision, int k);

/// Validates `decision` against `cluster` and `demand` (r^t_{ik}), repairing
/// in place. `previous` (may be null at t = 0) supplies the prior
/// deployment for model-switch network costs.
ValidationReport validate_and_repair(const device::ClusterSpec& cluster,
                                     const util::Grid2<std::int64_t>& demand,
                                     const SlotDecision* previous,
                                     SlotDecision& decision);

}  // namespace birp::sim
