// Slot-loop benchmark for the BIRP control loop.
//
//   slot_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//   slot_bench --self-test [--seed <n>]
//
// One slot is one backend step(): observe -> decide -> validate -> execute
// -> feedback. The loop is closed: each slot starts when the previous
// step() returns; inside a slot, arrivals follow the seeded trace in
// simulated time. A pass serves one of the workload's parts (inputs derived
// from the seed) over its horizon from a fresh set-up. A run makes one
// round over every part, then keeps serving parts in order while the time
// lasts, and ends with an untraced repeat of part 0. Deterministic metrics
// come from the first round; timings from every pass.
//
// --trace 0 prints the end-to-end metrics of untraced passes. --trace 1
// drives the passes through the ledger's TimedScheduler (plus the shadow
// replay on the monolithic workload) and prints the per-layer metrics.
//
// Correctness gate: exact request conservation on every pass, and every
// pass identical to the first-round pass of its part (decision digest and
// every deterministic outcome), traced and untraced alike. On any failure
// the last line reports correct=false with no metrics and the exit code
// is 1.
//
// The last line of stdout is one JSON object:
//   {"correct": ..., "attempted": <slots stepped>, "failed": <slots that
//    threw>, "metrics": {"<name>": {"value": v, "unit": u}, ...}}
#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "birp/serve/adaptive.hpp"
#include "birp/util/stats.hpp"
#include "ledger.hpp"
#include "rig.hpp"

namespace slotbench {
namespace {

/// Everything a pass produces that must repeat exactly across passes.
struct Outcome {
  std::uint64_t digest = 0;
  std::int64_t slots = 0;
  std::int64_t arrived = 0;   ///< trace total
  std::int64_t resolved = 0;  ///< RunMetrics::total_requests()
  std::int64_t pending = 0;   ///< orphans awaiting re-admission at the end
  std::int64_t slo_met = 0;
  std::int64_t dropped = 0;  ///< every cause, pending orphans included
  std::int64_t queue_drops = 0;
  std::int64_t orphan_drops = 0;
  std::int64_t deadline_sheds = 0;
  std::int64_t retries = 0;
  std::int64_t breaker_trips = 0;
  std::int64_t served = 0;
  std::int64_t launches = 0;
  std::array<std::int64_t, birp::serve::kNumSealReasons> seals{};
  std::int64_t repaired_slots = 0;
  std::int64_t cell_slots = 0;
  std::int64_t fallbacks = 0;
  std::int64_t degraded_cell_slots = 0;
  std::int64_t watchdog_trips = 0;
  std::int64_t moved = 0;
  std::int64_t repartitions = 0;
  std::int64_t requests_at_risk = 0;
  std::int64_t pivots = 0;
  std::int64_t factor_pivots = 0;
  std::int64_t nodes = 0;
  std::int64_t warm_lps = 0;
  std::int64_t cold_lps = 0;
  double total_loss = 0.0;
  double latency_p50 = 0.0;
  double latency_p99 = 0.0;
  double queue_wait_p99 = 0.0;
  double dispatch_wait_p99 = 0.0;
  double admit_to_launch_p99 = 0.0;
  double mttr_mean = 0.0;

  bool operator==(const Outcome&) const = default;
};

struct Pass {
  int part = 0;
  Outcome outcome;
  SetupTimes setup;
  double peak_rss_mb = 0.0;  ///< process high-water mark when the pass ended
  double repartition_ms_mean = 0.0;
  std::vector<double> step_ms;        ///< traced: minus the wrapper's work
  std::vector<SlotSpans> spans;       ///< traced only
  std::vector<double> pivot_imbalance;  ///< max / mean cell pivots per slot
};

/// The passes of one run in order: pass i serves part i % parts, so the
/// first `parts` passes are one round over every part and later passes
/// repeat parts already served.
struct Run {
  std::vector<Pass> passes;
  Outcome round;  ///< first round: counts summed, quantiles over its merge
};

/// Peak resident set of this process image. VmHWM, unlike getrusage's
/// ru_maxrss, starts afresh at exec, so a launcher's footprint never leaks
/// into it. 0 where /proc is unavailable.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0.0;
}

double quantile_or_zero(const birp::util::Ecdf& ecdf, double q) {
  return ecdf.empty() ? 0.0 : ecdf.quantile(q);
}

/// The quantile and mean fields of an Outcome, read from `metrics`.
void read_distributions(const birp::metrics::RunMetrics& metrics, Outcome& o) {
  o.latency_p50 = quantile_or_zero(metrics.completion(), 0.5);
  o.latency_p99 = quantile_or_zero(metrics.completion(), 0.99);
  o.queue_wait_p99 = quantile_or_zero(metrics.queue_wait(), 0.99);
  o.dispatch_wait_p99 = quantile_or_zero(metrics.dispatch_wait(), 0.99);
  o.admit_to_launch_p99 = quantile_or_zero(metrics.admit_to_launch(), 0.99);
  o.mttr_mean = metrics.failure_events() > 0 ? metrics.mttr_slots().mean() : 0.0;
}

/// Runs one part over its horizon and folds its metrics into `merged`
/// (when not null).
Pass run_pass(const std::string& workload, std::uint64_t seed, int part,
              bool traced, birp::metrics::RunMetrics* merged, int slots = 0) {
  auto rig = build_rig(workload, seed, part, slots);
  Pass pass;
  pass.part = part;
  pass.setup = rig->setup;
  Outcome& o = pass.outcome;

  birp::metrics::RunMetrics metrics(rig->slots());
  std::optional<TimedScheduler> timed;
  if (traced) timed.emplace(*rig, rig->birp != nullptr);
  birp::sim::Scheduler& scheduler =
      traced ? static_cast<birp::sim::Scheduler&>(*timed) : *rig->scheduler;

  CounterProbe probe;
  DecisionDigest digest;
  std::int64_t readmitted = 0;
  std::int64_t retried = 0;
  pass.step_ms.reserve(static_cast<std::size_t>(rig->slots()));
  for (int t = 0; t < rig->slots(); ++t) {
    const auto start = Clock::now();
    StepOut out = rig->step(scheduler, &metrics);
    double step_ms = ms_between(start, Clock::now());
    if (traced) {
      step_ms -= timed->spans().shadow_ms;
      pass.spans.push_back(timed->spans());
    }
    pass.step_ms.push_back(step_ms);

    digest.add(out.decision);
    if (!out.repairs.clean()) ++o.repaired_slots;
    // A repaired decision conserves the slot's demand exactly, so its
    // served + dropped total less the trace's arrivals is what failover
    // re-admitted into this slot.
    readmitted += out.decision.total_served() + out.decision.total_dropped() -
                  rig->trace->slot_total(t);
    retried += out.retried;

    const SlotCounters counters = probe.read(*rig);
    const CellDelta sum = counters.total();
    o.cell_slots += static_cast<std::int64_t>(counters.cells.size());
    o.fallbacks += sum.fallbacks;
    o.degraded_cell_slots += counters.degraded_cell_slots;
    o.watchdog_trips += counters.watchdog_trips;
    o.moved += counters.moved;
    o.pivots += sum.pivots;
    o.factor_pivots += sum.factor_pivots;
    o.nodes += sum.nodes;
    o.warm_lps += sum.warm_lps;
    o.cold_lps += sum.cold_lps;
    if (sum.pivots > 0) {
      std::int64_t most = 0;
      for (const auto& c : counters.cells) most = std::max(most, c.pivots);
      pass.pivot_imbalance.push_back(
          static_cast<double>(most) * static_cast<double>(counters.cells.size()) /
          static_cast<double>(sum.pivots));
    }
  }

  // Terminal flush. The Simulator drains its failover queue into drops;
  // the ServeEngine only does that inside run(), so the harness counts
  // the orphans still pending as drops itself.
  if (rig->simulator != nullptr) {
    rig->simulator->finish(scheduler, metrics);
  } else {
    o.pending = retried - readmitted;
  }
  if (rig->plane != nullptr) {
    rig->plane->export_metrics(metrics);
    o.repartitions = rig->plane->repartitions();
    o.requests_at_risk = rig->plane->requests_at_risk();
    pass.repartition_ms_mean = metrics.repartition_latency_ms().mean();
  }

  o.digest = digest.value();
  o.slots = rig->slots();
  o.arrived = rig->trace->total();
  o.resolved = metrics.total_requests();
  o.slo_met = metrics.slo_met_requests();
  o.dropped = metrics.dropped() + o.pending;
  o.queue_drops = metrics.queue_dropped();
  o.orphan_drops = metrics.orphan_dropped() + o.pending;
  o.deadline_sheds = metrics.deadline_shed();
  o.retries = metrics.retries();
  o.breaker_trips = metrics.breaker_trips();
  o.served = static_cast<std::int64_t>(metrics.completion().count());
  o.launches = metrics.total_batches();
  for (int r = 0; r < birp::serve::kNumSealReasons; ++r) {
    o.seals[static_cast<std::size_t>(r)] = metrics.batch_seals(r);
  }
  o.total_loss = metrics.total_loss();
  read_distributions(metrics, o);
  pass.peak_rss_mb = peak_rss_mb();
  if (merged != nullptr) merged->merge(metrics);
  return pass;
}

/// Sums the passes' counts; distributions come from the merged metrics.
Outcome round_total(const std::vector<Pass>& passes,
                    const birp::metrics::RunMetrics& merged) {
  Outcome sum;
  DecisionDigest digest;
  for (const auto& p : passes) {
    const Outcome& o = p.outcome;
    digest.add_word(o.digest);
    sum.slots += o.slots;
    sum.arrived += o.arrived;
    sum.resolved += o.resolved;
    sum.pending += o.pending;
    sum.slo_met += o.slo_met;
    sum.dropped += o.dropped;
    sum.queue_drops += o.queue_drops;
    sum.orphan_drops += o.orphan_drops;
    sum.deadline_sheds += o.deadline_sheds;
    sum.retries += o.retries;
    sum.breaker_trips += o.breaker_trips;
    sum.served += o.served;
    sum.launches += o.launches;
    for (std::size_t r = 0; r < o.seals.size(); ++r) sum.seals[r] += o.seals[r];
    sum.repaired_slots += o.repaired_slots;
    sum.cell_slots += o.cell_slots;
    sum.fallbacks += o.fallbacks;
    sum.degraded_cell_slots += o.degraded_cell_slots;
    sum.watchdog_trips += o.watchdog_trips;
    sum.moved += o.moved;
    sum.repartitions += o.repartitions;
    sum.requests_at_risk += o.requests_at_risk;
    sum.pivots += o.pivots;
    sum.factor_pivots += o.factor_pivots;
    sum.nodes += o.nodes;
    sum.warm_lps += o.warm_lps;
    sum.cold_lps += o.cold_lps;
    sum.total_loss += o.total_loss;
  }
  sum.digest = digest.value();
  read_distributions(merged, sum);
  return sum;
}

/// One round over every part, then further passes in part order while
/// the next one (assumed as long as the last) still fits in `seconds`.
Run run_passes(const std::string& workload, std::uint64_t seed, double seconds,
               bool traced) {
  const int parts = round_shape(workload).parts;
  Run run;
  birp::metrics::RunMetrics merged;
  const auto start = Clock::now();
  for (int i = 0;; ++i) {
    const auto pass_start = Clock::now();
    run.passes.push_back(run_pass(workload, seed, i % parts, traced,
                                  i < parts ? &merged : nullptr));
    const double pass_ms = ms_between(pass_start, Clock::now());
    if (i + 1 < parts) continue;
    if (i + 1 == parts) run.round = round_total(run.passes, merged);
    if (ms_between(start, Clock::now()) + pass_ms > seconds * 1000.0) break;
  }
  return run;
}

double median(std::vector<double> values) {
  return values.empty() ? 0.0 : birp::util::percentile(values, 0.5);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

std::vector<double> pooled_steps(const std::vector<const Pass*>& passes) {
  std::vector<double> all;
  for (const Pass* p : passes) {
    all.insert(all.end(), p->step_ms.begin(), p->step_ms.end());
  }
  return all;
}

/// `passes` holds every untraced pass of the run, the first round first.
std::vector<Metric> end_to_end(const Outcome& o,
                               const std::vector<const Pass*>& passes) {
  const auto steps = pooled_steps(passes);
  double loop_ms = 0.0;
  for (const double s : steps) loop_ms += s;
  std::vector<double> setups;
  for (const Pass* p : passes) setups.push_back(p->setup.total_s);
  const auto arrived = static_cast<double>(o.arrived);
  return {
      {"slot_ms_p50", birp::util::percentile(steps, 0.5), "ms"},
      {"slot_ms_p95", birp::util::percentile(steps, 0.95), "ms"},
      {"slots_per_s", ratio(static_cast<double>(steps.size()), loop_ms / 1000.0),
       "1/s"},
      {"goodput", ratio(static_cast<double>(o.slo_met), arrived), "ratio"},
      {"loss_per_request", ratio(o.total_loss, arrived), "loss/request"},
      {"drop_rate", ratio(static_cast<double>(o.dropped), arrived), "ratio"},
      {"latency_tau_p50", o.latency_p50, "tau"},
      {"latency_tau_p99", o.latency_p99, "tau"},
      // 1 - fallback rate: the cell-slots the MILP decided, as opposed to
      // BIRP's greedy fallback or a watchdog-degraded GreedyLocal slot.
      // Reported as the complement so the metric is never 0.
      {"milp_slot_share",
       1.0 - ratio(static_cast<double>(o.fallbacks + o.degraded_cell_slots),
                   static_cast<double>(o.cell_slots)),
       "ratio"},
      {"setup_s", median(setups), "s"},
      // Sampled after the first pass, before the harness's own merged
      // metrics grow: one workload instance over its whole horizon.
      {"peak_rss_mb", passes.front()->peak_rss_mb, "MB"},
  };
}

/// `untraced` is the untraced repeat of part 0, the trace overhead's base.
std::vector<Metric> per_layer(const Run& traced, const Pass& untraced) {
  const Outcome& o = traced.round;
  const auto slots = static_cast<double>(o.slots);

  std::vector<double> decide, execute, imbalance, milp_self, generate, plane;
  std::vector<double> repartition_ms;
  double observe_sum = 0.0, validate_sum = 0.0, decide_sum = 0.0;
  double covered_sum = 0.0, build_sum = 0.0, heuristic_sum = 0.0;
  double extract_sum = 0.0, replay_sum = 0.0, milp_self_sum = 0.0;
  double heuristic_calls = 0.0, lookup_calls = 0.0, matched = 0.0;
  double replays = 0.0, replay_pivots = 0.0, pivots = 0.0;
  std::vector<const Pass*> all, part0;
  for (const Pass& p : traced.passes) {
    all.push_back(&p);
    if (p.part == 0) part0.push_back(&p);
    pivots += static_cast<double>(p.outcome.pivots);
    generate.push_back(p.setup.generate_ms);
    plane.push_back(p.setup.plane_ms);
    repartition_ms.push_back(p.repartition_ms_mean);
    imbalance.insert(imbalance.end(), p.pivot_imbalance.begin(),
                     p.pivot_imbalance.end());
    for (const auto& s : p.spans) {
      decide.push_back(s.decide_ms);
      execute.push_back(s.execute_ms);
      decide_sum += s.decide_ms;
      observe_sum += s.observe_ms;
      validate_sum += s.validate_ms;
      covered_sum += s.decide_ms + s.execute_ms + s.observe_ms;
      if (!s.has_replay) continue;
      const auto& r = s.replay;
      replays += 1.0;
      build_sum += r.build_ms;
      heuristic_sum += r.heuristic_ms;
      extract_sum += r.extract_ms;
      replay_sum += r.total_ms;
      milp_self.push_back(r.solve_ms - r.callback_ms);
      milp_self_sum += r.solve_ms - r.callback_ms;
      replay_pivots += static_cast<double>(r.pivots);
      heuristic_calls += static_cast<double>(r.heuristic_calls);
      lookup_calls += static_cast<double>(r.lookup_calls);
      if (r.match) matched += 1.0;
    }
  }
  const double n = static_cast<double>(decide.size());
  double step_sum = 0.0;
  for (const double s : pooled_steps(all)) step_sum += s;
  const double overhead =
      ratio(birp::util::percentile(pooled_steps(part0), 0.5),
            birp::util::percentile(untraced.step_ms, 0.5));
  const bool replayed = replays > 0.0;
  // Monolithic: the replay's solve_milp self time per pivot. Sharded: the
  // decide wall time (all cells, in parallel) per pivot.
  const double us_per_pivot =
      replayed ? ratio(milp_self_sum * 1000.0, replay_pivots)
               : ratio(decide_sum * 1000.0, pivots);
  const double launches = static_cast<double>(o.launches);
  const auto seal = [&](birp::serve::SealReason r) {
    return ratio(static_cast<double>(o.seals[static_cast<std::size_t>(r)]),
                 launches);
  };
  using birp::serve::SealReason;
  return {
      {"sim.decide_ms_p50", birp::util::percentile(decide, 0.5), "ms"},
      {"sim.decide_ms_p95", birp::util::percentile(decide, 0.95), "ms"},
      {"sim.execute_ms_p50", birp::util::percentile(execute, 0.5), "ms"},
      {"sim.observe_ms_mean", observe_sum / n, "ms"},
      {"sim.validate_ms_mean", validate_sum / n, "ms"},
      {"sim.repaired_slot_share", static_cast<double>(o.repaired_slots) / slots,
       "ratio"},
      {"core.build_problem_ms_mean", ratio(build_sum, replays), "ms"},
      {"core.heuristic_ms_mean", ratio(heuristic_sum, replays), "ms"},
      {"core.extract_ms_mean", ratio(extract_sum, replays), "ms"},
      {"core.heuristic_calls_per_slot", ratio(heuristic_calls, replays),
       "count"},
      {"core.tir_lookup_calls_per_slot", ratio(lookup_calls, replays),
       "count"},
      {"core.shadow_match", ratio(matched, replays), "ratio"},
      {"core.shadow_coverage", ratio(replay_sum, decide_sum), "ratio"},
      {"solver.milp_self_ms_p50",
       replayed ? birp::util::percentile(milp_self, 0.5) : 0.0, "ms"},
      {"solver.us_per_pivot", us_per_pivot, "us"},
      {"solver.simplex_pivots_per_slot", static_cast<double>(o.pivots) / slots,
       "count"},
      {"solver.factor_pivots_per_slot",
       static_cast<double>(o.factor_pivots) / slots, "count"},
      {"solver.nodes_per_slot", static_cast<double>(o.nodes) / slots, "count"},
      {"solver.cold_lp_share",
       ratio(static_cast<double>(o.cold_lps),
             static_cast<double>(o.warm_lps + o.cold_lps)),
       "ratio"},
      {"solver.fallbacks", static_cast<double>(o.fallbacks), "count"},
      {"cluster.cell_pivot_imbalance_p95",
       imbalance.empty() ? 0.0 : birp::util::percentile(imbalance, 0.95),
       "ratio"},
      {"cluster.setup_ms", median(plane), "ms"},
      {"cluster.repartitions", static_cast<double>(o.repartitions), "count"},
      {"cluster.repartition_ms_mean", median(repartition_ms), "ms"},
      {"cluster.inter_cell_moved", static_cast<double>(o.moved), "count"},
      {"cluster.requests_at_risk", static_cast<double>(o.requests_at_risk),
       "count"},
      {"cluster.watchdog_trips", static_cast<double>(o.watchdog_trips),
       "count"},
      {"cluster.degraded_cell_slots",
       static_cast<double>(o.degraded_cell_slots), "count"},
      {"cluster.mttr_slots_mean", o.mttr_mean, "slots"},
      {"serve.queue_wait_tau_p99", o.queue_wait_p99, "tau"},
      {"serve.dispatch_wait_tau_p99", o.dispatch_wait_p99, "tau"},
      {"serve.admit_to_launch_tau_p99", o.admit_to_launch_p99, "tau"},
      {"serve.batch_size_mean", ratio(static_cast<double>(o.served), launches),
       "count"},
      {"serve.seal_share.full", seal(SealReason::kFull), "ratio"},
      {"serve.seal_share.timeout", seal(SealReason::kTimeout), "ratio"},
      {"serve.seal_share.exhausted", seal(SealReason::kExhausted), "ratio"},
      {"serve.seal_share.deadline", seal(SealReason::kDeadline), "ratio"},
      {"serve.seal_share.growth", seal(SealReason::kGrowth), "ratio"},
      {"serve.seal_share.utility", seal(SealReason::kUtility), "ratio"},
      {"serve.queue_drops", static_cast<double>(o.queue_drops), "count"},
      {"fault.retries", static_cast<double>(o.retries), "count"},
      {"fault.orphan_drops", static_cast<double>(o.orphan_drops), "count"},
      {"guard.deadline_sheds", static_cast<double>(o.deadline_sheds), "count"},
      {"guard.breaker_trips", static_cast<double>(o.breaker_trips), "count"},
      {"workload.generate_ms", median(generate), "ms"},
      {"workload.requests", static_cast<double>(o.arrived), "count"},
      {"trace_overhead", overhead, "ratio"},
      {"trace_coverage", ratio(covered_sum, step_sum), "ratio"},
  };
}

/// Conservation on every pass, and every pass identical to the first-round
/// pass of the same part (`run_passes` are in part order from part 0).
bool check_passes(const std::vector<const Pass*>& passes,
                  const std::vector<Pass>& run_passes) {
  bool ok = true;
  for (const Pass* p : passes) {
    const Outcome& o = p->outcome;
    if (o.pending < 0 || o.resolved + o.pending != o.arrived) {
      std::cerr << "FAIL: part " << p->part << " conservation: " << o.resolved
                << " resolved + " << o.pending << " pending != " << o.arrived
                << " arrived\n";
      ok = false;
    }
    const Outcome& first =
        run_passes[static_cast<std::size_t>(p->part)].outcome;
    if (!(o == first)) {
      std::cerr << "FAIL: part " << p->part << " differs between passes "
                << "(digest " << std::hex << o.digest << " vs " << first.digest
                << std::dec << ")\n";
      ok = false;
    }
  }
  return ok;
}

std::string json_number(double v) {
  std::ostringstream out;
  out.precision(17);
  out << v;
  return out.str();
}

void print_result(bool correct, std::int64_t attempted, std::int64_t failed,
                  const std::vector<Metric>& metrics) {
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": {";
  for (std::size_t m = 0; m < metrics.size(); ++m) {
    std::cout << (m > 0 ? ", " : "") << "\"" << metrics[m].name
              << "\": {\"value\": " << json_number(metrics[m].value)
              << ", \"unit\": \"" << metrics[m].unit << "\"}";
  }
  std::cout << "}}" << std::endl;
}

void print_run(const char* label, const Run& run, std::size_t parts) {
  std::printf("%s: %zu passes over %zu parts; first round %lld slots, %lld "
              "requests, digest %016llx\n",
              label, run.passes.size(), parts,
              static_cast<long long>(run.round.slots),
              static_cast<long long>(run.round.arrived),
              static_cast<unsigned long long>(run.round.digest));
}

/// Self-tests on a short paper-steady run: the timing wrapper is
/// transparent (same digest and outcomes as the bare scheduler), and the
/// shadow replay reproduces every decision.
int self_test(std::uint64_t seed) {
  constexpr int kSlots = 24;
  const Pass bare = run_pass("paper-steady", seed, 0, false, nullptr, kSlots);
  const Pass wrapped = run_pass("paper-steady", seed, 0, true, nullptr, kSlots);
  const bool transparent = bare.outcome == wrapped.outcome;
  int matched = 0;
  for (const auto& s : wrapped.spans) matched += s.replay.match ? 1 : 0;
  std::printf("self-test: wrapper %s (digest %016llx vs %016llx), shadow "
              "replay matched %d/%d decisions\n",
              transparent ? "transparent" : "CHANGED THE RUN",
              static_cast<unsigned long long>(bare.outcome.digest),
              static_cast<unsigned long long>(wrapped.outcome.digest), matched,
              kSlots);
  return transparent && matched == kSlots ? 0 : 1;
}

int usage() {
  std::cerr << "usage: slot_bench --workload <paper-steady|cells-steady|"
               "storm-heal> --seed <n> --seconds <s> --trace <0|1>\n"
               "       slot_bench --self-test [--seed <n>]\n";
  return 2;
}

}  // namespace
}  // namespace slotbench

int main(int argc, char** argv) {
  using namespace slotbench;
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  bool self = false;
  for (int a = 1; a < argc; ++a) {
    const std::string flag = argv[a];
    const bool has_value = a + 1 < argc;
    if (flag == "--workload" && has_value) {
      workload = argv[++a];
    } else if (flag == "--seed" && has_value) {
      seed = std::strtoull(argv[++a], nullptr, 0);
    } else if (flag == "--seconds" && has_value) {
      seconds = std::atof(argv[++a]);
    } else if (flag == "--trace" && has_value) {
      trace = std::atoi(argv[++a]);
    } else if (flag == "--self-test") {
      self = true;
    } else {
      return usage();
    }
  }
  if (self) return self_test(seed);
  std::size_t parts = 0;
  try {
    parts = static_cast<std::size_t>(round_shape(workload).parts);
  } catch (const std::invalid_argument&) {
    return usage();
  }
  if (!(seconds > 0.0) || (trace != 0 && trace != 1)) return usage();

  std::int64_t attempted = 0;
  try {
    const Run run = run_passes(workload, seed, seconds, trace == 1);
    // Every run ends with an untraced repeat of part 0: a repeat check even
    // when the first round filled the time, and the trace overhead's base.
    const Pass repeat = run_pass(workload, seed, 0, false, nullptr);
    std::vector<const Pass*> all;
    for (const auto& p : run.passes) all.push_back(&p);
    all.push_back(&repeat);
    for (const Pass* p : all) {
      attempted += static_cast<std::int64_t>(p->step_ms.size());
    }
    print_run(trace == 1 ? "traced" : "untraced", run, parts);
    std::printf("untraced repeat of part 0: digest %016llx (first round: "
                "%016llx)\n",
                static_cast<unsigned long long>(repeat.outcome.digest),
                static_cast<unsigned long long>(run.passes.front().outcome.digest));
    bool ok = check_passes(all, run.passes);
    std::vector<Metric> metrics;
    if (ok) metrics = trace == 0 ? end_to_end(run.round, all) : per_layer(run, repeat);
    for (const auto& m : metrics) {
      if (!std::isfinite(m.value)) {
        std::cerr << "FAIL: metric " << m.name << " is not finite\n";
        ok = false;
      }
    }
    if (!ok) {
      print_result(false, attempted, 0, {});
      return 1;
    }
    print_result(true, attempted, 0, metrics);
  } catch (const std::exception& e) {
    std::cerr << "FAIL: " << e.what() << "\n";
    print_result(false, std::max<std::int64_t>(attempted, 1), 1, {});
    return 1;
  }
  return 0;
}
