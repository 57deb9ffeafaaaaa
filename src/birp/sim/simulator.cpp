#include "birp/sim/simulator.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "birp/util/check.hpp"
#include "birp/util/rng.hpp"

namespace birp::sim {
namespace {

/// One executable job on an edge: a (app, variant) deployment with its
/// request count and kernel batch size.
struct Job {
  int app = 0;
  int variant = 0;
  std::int64_t served = 0;
  int kernel = 1;
  std::int64_t imported = 0;  ///< how many of `served` arrived via flows
};

}  // namespace

Simulator::Simulator(const device::ClusterSpec& cluster,
                     const workload::Trace& trace, SimulatorConfig config)
    : cluster_(cluster),
      trace_(trace),
      config_(config),
      loop_(cluster, config.threads, config.fault_plan, config.failover) {
  util::check(trace.apps() == cluster.num_apps(),
              "Simulator: trace apps != cluster apps");
  util::check(trace.devices() == cluster.num_devices(),
              "Simulator: trace devices != cluster devices");
  util::check(config_.noise_sigma >= 0.0, "Simulator: negative noise");
}

Simulator::EdgeOutcome Simulator::execute_edge(
    int k, const SlotDecision& decision) const {
  const double tau = cluster_.tau_s();
  const double straggler = loop_.straggler_factor(k);
  EdgeOutcome outcome;

  auto rng = loop_.edge_rng(config_.seed, k);

  // Imports whose origin edge is down this slot never arrive: they fill no
  // batch slots and are billed no transfer time (the slot loop orphans
  // them).
  std::vector<std::int64_t> lost(
      static_cast<std::size_t>(cluster_.num_apps()), 0);
  for (const Flow& flow : decision.flows) {
    if (flow.to == k && !loop_.is_up(flow.from)) {
      lost[static_cast<std::size_t>(flow.app)] += flow.count;
    }
  }

  // Collect jobs. Imports are attributed per app, then spread over that
  // app's jobs (largest kernel last so padded batches absorb stragglers).
  std::vector<Job> jobs;
  std::vector<std::int64_t> imports_left(
      static_cast<std::size_t>(cluster_.num_apps()));
  std::vector<double> import_bytes_mb(
      static_cast<std::size_t>(cluster_.num_apps()), 0.0);
  double total_import_mb = 0.0;
  std::int64_t total_imports = 0;
  for (int i = 0; i < cluster_.num_apps(); ++i) {
    imports_left[static_cast<std::size_t>(i)] =
        decision.imports(i, k) - lost[static_cast<std::size_t>(i)];
    total_imports += imports_left[static_cast<std::size_t>(i)];
    import_bytes_mb[static_cast<std::size_t>(i)] =
        cluster_.zoo().app(i).request_mb;
    total_import_mb += import_bytes_mb[static_cast<std::size_t>(i)] *
                       static_cast<double>(imports_left[static_cast<std::size_t>(i)]);
    const int variants = cluster_.zoo().num_variants(i);
    for (int j = 0; j < variants; ++j) {
      const auto served = decision.served(i, j, k);
      if (served <= 0) continue;
      Job job;
      job.app = i;
      job.variant = j;
      job.served = served;
      job.kernel = std::max(1, decision.kernel(i, j, k));
      jobs.push_back(job);
    }
  }

  // Lost imports shrink the jobs that would have hosted them (same reverse
  // order as import attribution below, so exactly the import-backed batch
  // slots go away).
  for (auto it = jobs.rbegin(); it != jobs.rend(); ++it) {
    auto& left = lost[static_cast<std::size_t>(it->app)];
    const auto take = std::min(left, it->served);
    it->served -= take;
    left -= take;
  }

  // Attribute imported requests to jobs (later jobs of the same app first so
  // early launches run on local data while transfers are still in flight).
  for (auto it = jobs.rbegin(); it != jobs.rend(); ++it) {
    auto& left = imports_left[static_cast<std::size_t>(it->app)];
    const auto take = std::min(left, it->served);
    it->imported = take;
    left -= take;
  }

  // Transfer schedule: imported requests stream over the edge's wireless
  // link back-to-back; request q of Q arrives at (q/Q) * total transfer time.
  // Bandwidth-degradation faults stretch the schedule.
  const double bw_mbps =
      cluster_.device(k).bandwidth_mbps * loop_.bandwidth_factor(k);
  const double transfer_total_s = total_import_mb * 8.0 / bw_mbps;

  // Deterministic execution order.
  rng.shuffle(jobs);

  double cursor_s = 0.0;
  std::int64_t imports_scheduled = 0;
  for (const auto& job : jobs) {
    std::int64_t remaining = job.served;
    std::int64_t imported_remaining = job.imported;
    bool first_launch = true;
    while (remaining > 0) {
      const auto in_launch =
          std::min<std::int64_t>(remaining, job.kernel);
      // Local requests fill the launch first; imports go in what remains.
      const std::int64_t local_in_launch =
          std::min(in_launch, remaining - imported_remaining);
      const std::int64_t imported_in_launch = in_launch - local_in_launch;

      // The launch cannot start before its last imported member arrives.
      double ready_s = 0.0;
      if (imported_in_launch > 0 && total_imports > 0) {
        const std::int64_t last_import_index =
            imports_scheduled + imported_in_launch;
        ready_s = transfer_total_s * static_cast<double>(last_import_index) /
                  static_cast<double>(total_imports);
      }

      // Launch size: static-shape padding (MAX) bills the full kernel even
      // for a partial tail; otherwise the runtime right-sizes the launch.
      const int launch_size =
          decision.pad_partial_launches
              ? job.kernel
              : static_cast<int>(std::min<std::int64_t>(job.kernel, remaining));
      const double clean_s =
          cluster_.truth().batch_time_s(k, job.app, job.variant, launch_size);
      const double noise =
          config_.noise_sigma > 0.0
              ? rng.lognormal(-0.5 * config_.noise_sigma * config_.noise_sigma,
                              config_.noise_sigma)
              : 1.0;
      // Straggler faults stretch every launch; the slowdown is visible to the
      // scheduler through longer busy time and a depressed observed TIR.
      const double duration_s = clean_s * noise * straggler;

      const double start_s = std::max(cursor_s, ready_s);
      cursor_s = start_s + duration_s;

      const double completion_tau = cursor_s / tau;
      const double slo =
          cluster_.zoo().app(job.app).slo_fraction;
      for (std::int64_t r = 0; r < in_launch; ++r) {
        outcome.completions_tau.push_back(completion_tau);
        outcome.met_slo.push_back(completion_tau <= slo + 1e-12);
      }
      outcome.loss += cluster_.zoo().variant(job.app, job.variant).loss *
                      static_cast<double>(in_launch);

      if (first_launch && config_.report_observations) {
        // Observed TIR per Eq. 1: the merged kernel processed `kernel`
        // items in duration_s versus gamma each when serial.
        TirObservation obs;
        obs.device = k;
        obs.app = job.app;
        obs.variant = job.variant;
        obs.batch = launch_size;
        obs.observed_tir = static_cast<double>(launch_size) *
                           cluster_.truth().gamma_s(k, job.app, job.variant) /
                           duration_s;
        outcome.observations.push_back(obs);
        first_launch = false;
      }

      imports_scheduled += imported_in_launch;
      imported_remaining -= imported_in_launch;
      remaining -= in_launch;
    }
  }

  // Dropped requests at this edge: worst-model loss, SLO failure. Their
  // accounting happens in step() (needs metrics); only busy time here.
  outcome.busy_s = cursor_s;
  return outcome;
}

SlotResult Simulator::step(Scheduler& scheduler, metrics::RunMetrics* metrics) {
  util::check(loop_.slot() < trace_.slots(), "Simulator: horizon exhausted");
  const int I = cluster_.num_apps();
  const int K = cluster_.num_devices();

  util::Grid2<std::int64_t> demand(I, K, 0);
  for (int i = 0; i < I; ++i) {
    for (int k = 0; k < K; ++k) demand(i, k) = trace_.at(loop_.slot(), i, k);
  }
  loop_.open(std::move(demand));

  SlotResult result;
  loop_.decide(scheduler, result);

  // Execute the live edges concurrently; outcomes merge deterministically
  // in edge order.
  std::vector<EdgeOutcome> outcomes(static_cast<std::size_t>(K));
  loop_.execute_edges(result, metrics, [&](int k) {
    outcomes[static_cast<std::size_t>(k)] = execute_edge(k, result.decision);
  }, [&](int k) -> const EdgeOutcome& {
    const EdgeOutcome& outcome = outcomes[static_cast<std::size_t>(k)];
    result.slot_loss += outcome.loss;
    for (std::size_t r = 0; r < outcome.completions_tau.size(); ++r) {
      if (metrics != nullptr) {
        metrics->record_request(outcome.completions_tau[r],
                                outcome.met_slo[r]);
      }
      result.slo_failures += outcome.met_slo[r] ? 0 : 1;
      ++result.served;
    }
    return outcome;
  });

  loop_.resolve_orphans(
      result, metrics, [&](int i, int, const SlotLoop::Orphans& outcome) {
        result.slot_loss += cluster_.zoo().worst_loss(i) *
                            static_cast<double>(outcome.dropped);
      });

  // Dropped requests. Paper semantics: every unserved request fails this
  // slot (worst-model loss, SLO failure). Down edges are excluded: their
  // whole demand was already orphaned above.
  for (int i = 0; i < I; ++i) {
    const double worst = cluster_.zoo().worst_loss(i);
    for (int k = 0; k < K; ++k) {
      if (!loop_.is_up(k)) continue;
      const auto failed = result.decision.drops(i, k);
      if (failed <= 0) continue;
      result.slot_loss += worst * static_cast<double>(failed);
      result.dropped += failed;
      result.slo_failures += failed;
      if (metrics != nullptr) {
        for (std::int64_t d = 0; d < failed; ++d) metrics->record_dropped();
      }
    }
  }
  loop_.close(scheduler, result, metrics);
  return result;
}

void Simulator::finish(Scheduler& scheduler, metrics::RunMetrics& metrics) {
  loop_.finish(scheduler, metrics);
}

metrics::RunMetrics Simulator::run(Scheduler& scheduler, int max_slots) {
  const int horizon = max_slots > 0 ? std::min(max_slots, trace_.slots())
                                    : trace_.slots();
  metrics::RunMetrics metrics(horizon);
  while (loop_.slot() < horizon) step(scheduler, &metrics);
  finish(scheduler, metrics);
  return metrics;
}

}  // namespace birp::sim
