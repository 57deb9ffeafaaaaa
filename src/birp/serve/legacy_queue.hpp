// The seed admission queue, kept as the A/B reference implementation.
//
// This is the seed AdmissionQueue verbatim — std::deque FIFOs, a
// std::priority_queue departure heap, a std::function admission gate —
// with one addition: a mutex serializing every public operation. The seed
// engine relied on external serialization (one queue per edge worker); any
// shared thread-safe variant of it would have paid this lock on every
// admission, which the single-owner AdmissionQueue never needs.
// bench_serve's baseline arm drives this class to measure that cost, and
// the byte-identity suite in serve_test asserts the current queue
// reproduces its admit/shed/defer streams decision for decision.
//
// Do not extend this class; it exists to stay still.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <queue>
#include <vector>

#include "birp/serve/queue.hpp"  // QueuePolicy, shared with AdmissionQueue
#include "birp/serve/request.hpp"
#include "birp/util/stats.hpp"

namespace birp::serve {

/// The seed's gate type: an owning type-erased callable (heap-allocating
/// for capturing lambdas — part of the measured legacy cost).
using LegacyAdmissionGate =
    std::function<bool(const ServeItem& item, std::int64_t buffered_ahead)>;

class LegacyAdmissionQueue {
 public:
  /// `stream` must be sorted by (available_s, app, origin, seq).
  /// `capacity` <= 0 means unbounded.
  LegacyAdmissionQueue(int apps, std::vector<ServeItem> stream,
                       std::int64_t capacity, QueuePolicy policy,
                       LegacyAdmissionGate gate = nullptr);

  void fill(int app, std::size_t want);
  void fill_until(int app, std::size_t want, double threshold_s);
  [[nodiscard]] bool exhausted(int app) const;
  [[nodiscard]] std::int64_t upstream(int app) const;
  /// Snapshot of `app`'s waiting FIFO (copy: the deque is lock-guarded).
  [[nodiscard]] std::vector<ServeItem> waiting_snapshot(int app) const;
  [[nodiscard]] std::size_t waiting_size(int app) const;
  [[nodiscard]] std::vector<ServeItem> take(int app, std::size_t count);
  void on_dispatch(double start_s, std::size_t count);
  [[nodiscard]] std::vector<ServeItem> dropped_snapshot() const;
  [[nodiscard]] std::vector<ServeItem> deadline_shed_snapshot() const;
  [[nodiscard]] util::RunningStats depth_stats_snapshot() const;
  [[nodiscard]] std::int64_t depth() const;
  [[nodiscard]] std::vector<ServeItem> drain_unprocessed();
  [[nodiscard]] std::vector<ServeItem> drain_waiting();

 private:
  void admit_next();
  void settle_departures();
  void sample_depth() { depth_stats_.add(static_cast<double>(depth_)); }

  mutable std::mutex mutex_;
  int apps_;
  std::vector<ServeItem> stream_;
  std::size_t next_ = 0;
  std::vector<std::int64_t> upstream_;
  std::int64_t capacity_;
  QueuePolicy policy_;
  LegacyAdmissionGate gate_;
  std::int64_t depth_ = 0;
  std::vector<std::deque<ServeItem>> fifos_;
  std::priority_queue<std::pair<double, std::int64_t>,
                      std::vector<std::pair<double, std::int64_t>>,
                      std::greater<>>
      departures_;
  std::vector<ServeItem> dropped_;
  std::vector<ServeItem> deadline_shed_;
  util::RunningStats depth_stats_;
};

}  // namespace birp::serve
