// Workload rigs for the slot-loop benchmark.
//
// A rig is one fully built workload: the cluster, the seeded demand trace
// (and fault storm), the scheduler stack and the execution backend, wired
// exactly as a deployment would wire them. Everything is built through the
// library's public constructors; the harness never reaches inside.
//
//   paper-steady  ClusterSpec::paper_large, monolithic online BirpScheduler,
//                 request-level ServeEngine (adaptive batching, 1 thread).
//   cells-steady  64-edge scale-free topology, ControlPlane over 16 cells
//                 (4 cell threads), slot-level Simulator (4 threads).
//   storm-heal    24-edge topology, ControlPlane over 4 cells with the
//                 watchdog (2 cell threads), ServeEngine (2 threads) with
//                 failover, guard admission + breakers and adaptive
//                 batching, under a correlated storm on a flash crowd.
//
// The topology and the storm of each workload are fixed (they are the
// system and the incident under test); the seed and the part index drive
// the demand trace, the arrival timestamps and the execution noise.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>

#include "birp/cluster/control_plane.hpp"
#include "birp/core/birp_scheduler.hpp"
#include "birp/device/cluster.hpp"
#include "birp/metrics/run_metrics.hpp"
#include "birp/serve/engine.hpp"
#include "birp/sim/scheduler.hpp"
#include "birp/sim/simulator.hpp"
#include "birp/workload/topology.hpp"
#include "birp/workload/trace.hpp"

namespace slotbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_between(Clock::time_point a,
                                       Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Wall-clock split of one rig construction.
struct SetupTimes {
  double total_s = 0.0;      ///< everything below plus cluster and engine
  double generate_ms = 0.0;  ///< demand trace plus fault storm generation
  double plane_ms = 0.0;     ///< ControlPlane construction (0 if none)
};

/// What one slot of the backend produced, as the harness consumes it.
struct StepOut {
  birp::sim::SlotDecision decision;  ///< post-repair decision that executed
  birp::sim::ValidationReport repairs;
  std::int64_t retried = 0;  ///< orphans queued for a later slot
};

struct Rig {
  std::string workload;
  std::unique_ptr<birp::workload::Topology> topology;  ///< null: paper spec
  std::unique_ptr<birp::device::ClusterSpec> cluster;
  std::unique_ptr<birp::workload::Trace> trace;
  std::unique_ptr<birp::sim::Scheduler> scheduler;
  /// Config of the monolithic scheduler (shadow replay input).
  birp::core::BirpConfig birp_config;
  birp::core::BirpScheduler* birp = nullptr;       ///< monolithic only
  birp::cluster::ControlPlane* plane = nullptr;    ///< sharded only
  std::unique_ptr<birp::sim::Simulator> simulator;    ///< slot-level backend
  std::unique_ptr<birp::serve::ServeEngine> engine;   ///< request-level
  SetupTimes setup;

  [[nodiscard]] int slots() const noexcept { return trace->slots(); }

  /// Runs one slot through the backend with `scheduler` (the rig's own
  /// scheduler, or a wrapper around it).
  StepOut step(birp::sim::Scheduler& scheduler,
               birp::metrics::RunMetrics* metrics);
};

/// One round of a workload: `parts` independent inputs derived from the
/// seed, each served for `slots` slots from a fresh set-up. Several parts
/// per round average the slot cost over many demand patterns, so one seed
/// reads like another.
struct RoundShape {
  int parts = 1;
  int slots = 0;
};

/// Throws std::invalid_argument for an unknown workload name.
[[nodiscard]] RoundShape round_shape(const std::string& workload);

/// Builds part `part` of `workload` for `seed`, timing the construction
/// into rig->setup. `slots` > 0 overrides the round shape's horizon.
[[nodiscard]] std::unique_ptr<Rig> build_rig(const std::string& workload,
                                             std::uint64_t seed, int part,
                                             int slots = 0);

}  // namespace slotbench
