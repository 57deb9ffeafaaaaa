// Per-edge admission queue for the serving runtime.
//
// One edge's requests (local arrivals plus redistributed imports) form a
// single chronological stream; the queue admits them in availability order
// against a shared capacity on buffered-not-yet-dispatched requests,
// applying the configured backpressure policy when full. Admitted requests
// wait in per-application FIFOs until the batch assembler takes them;
// dispatch events (launch starts) free their capacity at the right point
// in time, so an admission decision at time T sees exactly the requests
// buffered at T.
//
// A queue has exactly one owner: the engine worker serving its edge in the
// slot, which stages the merged, sorted stream and consumes it on the same
// thread. Every part is therefore a plain container that keeps its
// capacity across reset():
//
//   * staging — the slot's stream copied into a vector read through a
//     cursor, with a per-app count of what is still upstream;
//   * waiting — one vector per app with a head index, cleared whenever it
//     empties;
//   * departures — a binary min-heap of (launch start, count), released up
//     to each arrival's time: the seed's std::priority_queue semantics for
//     any dispatch order;
//   * the admission gate — a non-owning context+function-pointer pair, not
//     a std::function, so re-arming it allocates nothing.
//
// Once reserve() has sized it, an engine reusing one queue per edge across
// slots performs zero heap allocations per request (asserted in serve_test
// with the BIRP_COUNT_ALLOCS hook).
//
// Determinism: the admission decision sequence is byte-identical to the
// seed implementation (kept as serve/legacy_queue.hpp), pinned by
// serve_test's byte-identity suite.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "birp/serve/request.hpp"
#include "birp/util/stats.hpp"

namespace birp::serve {

/// What to do with an arrival when the queue is at capacity.
enum class QueuePolicy {
  kRejectNewest,  ///< bounce the arriving request
  kEvictOldest,   ///< evict the longest-waiting buffered request instead
};

/// Deadline-aware admission verdict, consulted for each arrival before the
/// capacity check. A non-owning (context, function-pointer) pair: the
/// engine keeps the context alive for the queue's lifetime. Returning
/// false sheds the request (it lands in deadline_shed(), not dropped()).
/// Default-constructed gates admit everything.
class AdmissionGate {
 public:
  using Fn = bool (*)(const void* ctx, const ServeItem& item,
                      std::int64_t buffered_ahead);

  AdmissionGate() = default;
  AdmissionGate(const void* ctx, Fn fn) : ctx_(ctx), fn_(fn) {}

  explicit operator bool() const noexcept { return fn_ != nullptr; }
  bool operator()(const ServeItem& item, std::int64_t buffered_ahead) const {
    return fn_(ctx_, item, buffered_ahead);
  }

 private:
  const void* ctx_ = nullptr;
  Fn fn_ = nullptr;
};

class AdmissionQueue {
 public:
  /// An empty queue; reset() before use (the engine's reuse path).
  AdmissionQueue() = default;

  /// One-shot form (tests, benches): constructs and reset()s.
  AdmissionQueue(int apps, const std::vector<ServeItem>& stream,
                 std::int64_t capacity, QueuePolicy policy,
                 AdmissionGate gate = {});

  /// Re-arms the queue for a new slot and stages `stream`, which must be
  /// sorted by (available_s, app, origin, seq). `capacity` <= 0 means
  /// unbounded. Retains all storage, so steady-state reuse allocates
  /// nothing.
  void reset(int apps, const std::vector<ServeItem>& stream,
             std::int64_t capacity, QueuePolicy policy,
             AdmissionGate gate = {});

  /// Sizes every internal container for `apps` apps and streams of up to
  /// `items` requests, so a later reset()+fill()+take cycle within that
  /// size never allocates. No-op once capacity suffices.
  void reserve(int apps, std::size_t items);

  /// Processes arrivals chronologically until `app`'s FIFO holds `want`
  /// admitted requests or the stream runs out.
  void fill(int app, std::size_t want);

  /// Like fill(), but stops before the first arrival with
  /// available_s > threshold_s (that arrival stays unprocessed).
  void fill_until(int app, std::size_t want, double threshold_s);

  /// True when no request of `app` is waiting and none remains upstream.
  [[nodiscard]] bool exhausted(int app) const;

  /// Requests of `app` still unprocessed in the stream (not yet admitted
  /// or dropped).
  [[nodiscard]] std::int64_t upstream(int app) const {
    return upstream_[static_cast<std::size_t>(app)];
  }

  /// Live, non-owning view of `app`'s waiting FIFO (oldest first). Reads
  /// the queue's current state on every call, so a view taken before a
  /// fill()/take() observes the mutation — same semantics as the deque
  /// reference the seed queue returned.
  class WaitingView {
   public:
    using Iterator = const ServeItem*;

    [[nodiscard]] std::size_t size() const noexcept {
      return queue_->fifo(app_).size();
    }
    [[nodiscard]] bool empty() const noexcept { return size() == 0; }
    [[nodiscard]] const ServeItem& front() const { return *begin(); }
    [[nodiscard]] Iterator begin() const {
      const auto& f = queue_->fifo(app_);
      return f.items.data() + f.head;
    }
    [[nodiscard]] Iterator end() const {
      const auto& f = queue_->fifo(app_);
      return f.items.data() + f.items.size();
    }

   private:
    friend class AdmissionQueue;
    WaitingView(const AdmissionQueue* queue, int app)
        : queue_(queue), app_(app) {}
    const AdmissionQueue* queue_;
    int app_;
  };

  /// Admitted requests of `app` waiting for batch assembly, oldest first.
  [[nodiscard]] WaitingView waiting(int app) const {
    return WaitingView(this, app);
  }

  /// Removes the first `count` waiting requests of `app` (sealed into a
  /// batch) into `out` (cleared first; capacity retained across calls).
  /// Capacity is not released here — call on_dispatch with the launch
  /// start so the departure lands at the right time.
  void take_into(int app, std::size_t count, std::vector<ServeItem>& out);

  /// Allocating convenience wrapper over take_into (tests).
  [[nodiscard]] std::vector<ServeItem> take(int app, std::size_t count);

  /// Registers that `count` buffered requests leave the queue at `start_s`.
  /// Dispatch times need not be monotone.
  void on_dispatch(double start_s, std::size_t count);

  /// Requests dropped by backpressure so far, in drop order.
  [[nodiscard]] const std::vector<ServeItem>& dropped() const noexcept {
    return dropped_;
  }

  /// Requests the admission gate shed at enqueue time, in shed order.
  [[nodiscard]] const std::vector<ServeItem>& deadline_shed() const noexcept {
    return deadline_shed_;
  }

  /// Depth samples taken after every admission decision. Every decision
  /// path (admit, bounce, evict-then-admit) contributes exactly one
  /// sample: the buffered count after the decision.
  [[nodiscard]] const util::RunningStats& depth_stats() const noexcept {
    return depth_stats_;
  }

  /// Requests currently occupying buffer capacity: admitted-and-waiting
  /// plus taken-but-not-yet-departed (their launch has not started).
  [[nodiscard]] std::int64_t depth() const noexcept { return depth_; }

  /// Requests never processed (stream leftovers); drains the stream.
  /// Terminal: settles all pending departures first, so a fully drained
  /// queue reports depth() == waiting count (0 after drain_waiting too).
  void drain_unprocessed_into(std::vector<ServeItem>& out);
  [[nodiscard]] std::vector<ServeItem> drain_unprocessed();

  /// Admitted requests still waiting across all apps. Terminal like
  /// drain_unprocessed(): settles pending departures before removing, so
  /// depth() drops to exactly the in-flight count released by those
  /// departures — never stale.
  void drain_waiting_into(std::vector<ServeItem>& out);
  [[nodiscard]] std::vector<ServeItem> drain_waiting();

 private:
  /// One app's FIFO: items[head, size) wait, oldest first.
  struct Fifo {
    std::vector<ServeItem> items;
    std::size_t head = 0;
    [[nodiscard]] std::size_t size() const noexcept {
      return items.size() - head;
    }
  };
  /// (launch start, requests leaving), ordered as a min-heap on the time.
  using Departure = std::pair<double, std::int64_t>;

  void admit_next();
  /// Releases the capacity of every departure at or before `time_s`.
  void release_departures(double time_s);
  /// Applies every pending departure regardless of time (used by the
  /// drains: end-of-slot means all registered launches have started).
  void settle_departures();
  /// One depth sample per admission decision (shared by all paths).
  void sample_depth() { depth_stats_.add(static_cast<double>(depth_)); }

  [[nodiscard]] Fifo& fifo(int app) {
    return fifos_[static_cast<std::size_t>(app)];
  }
  [[nodiscard]] const Fifo& fifo(int app) const {
    return fifos_[static_cast<std::size_t>(app)];
  }
  /// Drops `count` requests from the front of `f`, clearing it once empty.
  static void pop_front(Fifo& f, std::size_t count);

  int apps_ = 0;
  std::vector<ServeItem> stream_;  ///< the slot's staged arrivals
  std::size_t next_ = 0;           ///< first unprocessed stream index
  std::vector<std::int64_t> upstream_;  ///< per-app unprocessed count
  std::int64_t capacity_ = 0;
  QueuePolicy policy_ = QueuePolicy::kRejectNewest;
  AdmissionGate gate_;
  std::int64_t depth_ = 0;
  std::vector<Fifo> fifos_;
  std::vector<Departure> departures_;
  std::vector<ServeItem> dropped_;
  std::vector<ServeItem> deadline_shed_;
  util::RunningStats depth_stats_;
};

}  // namespace birp::serve
