#include "birp/sim/validate.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "birp/util/check.hpp"

namespace birp::sim {

double decision_network_mb(const device::ClusterSpec& cluster,
                           const SlotDecision& decision,
                           const SlotDecision* previous, int k) {
  double cost = 0.0;
  // Model-switch term: ship compressed weights for newly deployed variants.
  // At t = 0 (previous == nullptr) models are staged before the experiment,
  // matching P1 (Eq. 13), so no switch cost applies.
  if (previous != nullptr) {
    for (int i = 0; i < cluster.num_apps(); ++i) {
      const int variants = cluster.zoo().num_variants(i);
      for (int j = 0; j < variants; ++j) {
        const bool now = decision.deployed(i, j, k);
        const bool before = previous->deployed(i, j, k);
        if (now && !before) cost += cluster.zoo().variant(i, j).compressed_mb;
      }
    }
  }
  // Redistribution term: both endpoints pay for each forwarded request.
  for (const auto& flow : decision.flows) {
    if (flow.from != k && flow.to != k) continue;
    cost += cluster.zoo().app(flow.app).request_mb *
            static_cast<double>(flow.count);
  }
  return cost;
}

namespace {

/// `decision`'s deployments on edge k charged to a fresh budget: resident
/// weights plus each executed kernel's activation reservation.
EdgeBudget memory_charged(const device::ClusterSpec& cluster,
                          const SlotDecision& decision, int k) {
  EdgeBudget budget(cluster, k);
  for (int i = 0; i < cluster.num_apps(); ++i) {
    const int variants = cluster.zoo().num_variants(i);
    for (int j = 0; j < variants; ++j) {
      if (!decision.deployed(i, j, k)) continue;
      const auto& variant = cluster.zoo().variant(i, j);
      budget.deploy(variant.weights_mb,
                    variant.intermediate_mb *
                        static_cast<double>(decision.kernel(i, j, k)));
    }
  }
  return budget;
}

}  // namespace

double decision_memory_mb(const device::ClusterSpec& cluster,
                          const SlotDecision& decision, int k) {
  return memory_charged(cluster, decision, k).memory_mb();
}

ValidationReport validate_and_repair(const device::ClusterSpec& cluster,
                                     const util::Grid2<std::int64_t>& demand,
                                     const SlotDecision* previous,
                                     SlotDecision& decision) {
  const int I = cluster.num_apps();
  const int K = cluster.num_devices();
  util::check(decision.apps() == I && decision.devices() == K,
              "validate: decision dimensions do not match cluster");
  util::check(demand.rows() == I && demand.cols() == K,
              "validate: demand dimensions do not match cluster");

  ValidationReport report;

  // ---- 1. Sanitize counters. ----
  for (int i = 0; i < I; ++i) {
    const int variants = cluster.zoo().num_variants(i);
    for (int j = 0; j < decision.max_variants(); ++j) {
      for (int k = 0; k < K; ++k) {
        auto& served = decision.served(i, j, k);
        if (j >= variants) {
          // Phantom variant index: the paper pads the tensor with
          // non-existent models; serving on one is impossible.
          report.trimmed_served += std::max<std::int64_t>(served, 0);
          served = 0;
          continue;
        }
        served = std::max<std::int64_t>(served, 0);
        auto& kernel = decision.kernel(i, j, k);
        if (served > 0) {
          if (kernel <= 0) {
            kernel = static_cast<int>(
                std::min<std::int64_t>(served, kMaxKernelBatch));
          }
          kernel = std::min(kernel, kMaxKernelBatch);
        } else {
          kernel = 0;
        }
      }
    }
    for (int k = 0; k < K; ++k) {
      decision.drops(i, k) = std::max<std::int64_t>(decision.drops(i, k), 0);
    }
  }
  std::erase_if(decision.flows, [](const Flow& f) {
    return f.count <= 0 || f.from == f.to;
  });

  // ---- 2. Exports must not exceed local demand. ----
  for (int i = 0; i < I; ++i) {
    for (int k = 0; k < K; ++k) {
      std::int64_t excess = decision.exports(i, k) - demand(i, k);
      if (excess <= 0) continue;
      for (auto& flow : decision.flows) {
        if (excess <= 0) break;
        if (flow.app != i || flow.from != k) continue;
        const std::int64_t cut = std::min(excess, flow.count);
        flow.count -= cut;
        excess -= cut;
        report.cancelled_flow += cut;
      }
      std::erase_if(decision.flows, [](const Flow& f) { return f.count <= 0; });
    }
  }

  // ---- 3. Network budgets: cancel flows (largest first) until each edge
  //         fits. Model-switch costs are preserved: a deployment only
  //         disappears via memory eviction below. ----
  for (int k = 0; k < K; ++k) {
    EdgeBudget budget(cluster, k);
    while (true) {
      budget.network_mb = decision_network_mb(cluster, decision, previous, k);
      if (budget.fits_network()) break;
      // Largest flow touching k.
      Flow* victim = nullptr;
      for (auto& flow : decision.flows) {
        if (flow.from != k && flow.to != k) continue;
        if (victim == nullptr || flow.count > victim->count) victim = &flow;
      }
      if (victim == nullptr) break;  // switch cost alone exceeds budget
      const double per_request =
          cluster.zoo().app(victim->app).request_mb;
      const double over = budget.network_mb - budget.network_cap_mb;
      const auto cut = std::min(
          victim->count,
          std::max<std::int64_t>(
              1, static_cast<std::int64_t>(std::ceil(over / per_request))));
      victim->count -= cut;
      report.cancelled_flow += cut;
      if (victim->count <= 0) {
        std::erase_if(decision.flows,
                      [](const Flow& f) { return f.count <= 0; });
      }
    }
  }

  // ---- 4. Memory budgets: evict deployments (largest footprint first);
  //         their requests become drops at that edge. ----
  for (int k = 0; k < K; ++k) {
    while (!memory_charged(cluster, decision, k).fits_memory()) {
      int worst_i = -1;
      int worst_j = -1;
      double worst_mb = 0.0;
      for (int i = 0; i < I; ++i) {
        const int variants = cluster.zoo().num_variants(i);
        for (int j = 0; j < variants; ++j) {
          if (!decision.deployed(i, j, k)) continue;
          const auto& variant = cluster.zoo().variant(i, j);
          const double mb =
              variant.weights_mb +
              variant.intermediate_mb *
                  static_cast<double>(decision.kernel(i, j, k));
          if (mb > worst_mb) {
            worst_mb = mb;
            worst_i = i;
            worst_j = j;
          }
        }
      }
      if (worst_i < 0) break;  // nothing deployed yet still over: impossible
      const std::int64_t lost = decision.served(worst_i, worst_j, k);
      decision.served(worst_i, worst_j, k) = 0;
      decision.kernel(worst_i, worst_j, k) = 0;
      decision.drops(worst_i, k) += lost;
      report.evicted_served += lost;
      ++report.memory_evictions;
    }
  }

  // ---- 5. Request conservation (Eq. 3 + Eq. 5): per (app, edge),
  //         served + drops == demand - exports + imports. ----
  for (int i = 0; i < I; ++i) {
    for (int k = 0; k < K; ++k) {
      const std::int64_t available =
          demand(i, k) - decision.exports(i, k) + decision.imports(i, k);
      std::int64_t served_total = 0;
      const int variants = cluster.zoo().num_variants(i);
      for (int j = 0; j < variants; ++j) {
        served_total += decision.served(i, j, k);
      }
      std::int64_t balance = served_total + decision.drops(i, k) - available;
      if (balance > 0) {
        // Serving phantom requests: shrink drops first, then served counts
        // (largest deployment first).
        const std::int64_t from_drops =
            std::min(balance, decision.drops(i, k));
        decision.drops(i, k) -= from_drops;
        balance -= from_drops;
        while (balance > 0) {
          int largest = -1;
          for (int j = 0; j < variants; ++j) {
            if (decision.served(i, j, k) <= 0) continue;
            if (largest < 0 ||
                decision.served(i, j, k) > decision.served(i, largest, k)) {
              largest = j;
            }
          }
          if (largest < 0) break;
          const std::int64_t cut =
              std::min(balance, decision.served(i, largest, k));
          decision.served(i, largest, k) -= cut;
          if (decision.served(i, largest, k) == 0) {
            decision.kernel(i, largest, k) = 0;
          }
          report.trimmed_served += cut;
          balance -= cut;
        }
      } else if (balance < 0) {
        // Unserved demand: becomes drops.
        decision.drops(i, k) += -balance;
        report.added_drops += -balance;
      }
    }
  }

  return report;
}

}  // namespace birp::sim
