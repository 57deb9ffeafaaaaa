#include "birp/serve/queue.hpp"

#include <algorithm>
#include <functional>

#include "birp/util/check.hpp"

namespace birp::serve {

AdmissionQueue::AdmissionQueue(int apps, const std::vector<ServeItem>& stream,
                               std::int64_t capacity, QueuePolicy policy,
                               AdmissionGate gate) {
  reset(apps, stream, capacity, policy, gate);
}

void AdmissionQueue::reset(int apps, const std::vector<ServeItem>& stream,
                           std::int64_t capacity, QueuePolicy policy,
                           AdmissionGate gate) {
  util::check(apps > 0, "AdmissionQueue: need at least one app");
  apps_ = apps;
  capacity_ = capacity;
  policy_ = policy;
  gate_ = gate;
  depth_ = 0;

  stream_.assign(stream.begin(), stream.end());
  next_ = 0;
  upstream_.assign(static_cast<std::size_t>(apps), 0);
  for (const auto& item : stream_) {
    util::check(item.app >= 0 && item.app < apps_,
                "AdmissionQueue: item app out of range");
    ++upstream_[static_cast<std::size_t>(item.app)];
  }

  if (fifos_.size() < static_cast<std::size_t>(apps)) {
    fifos_.resize(static_cast<std::size_t>(apps));
  }
  for (auto& f : fifos_) pop_front(f, f.size());
  departures_.clear();

  dropped_.clear();
  deadline_shed_.clear();
  depth_stats_ = util::RunningStats{};
}

void AdmissionQueue::reserve(int apps, std::size_t items) {
  util::check(apps > 0, "AdmissionQueue: need at least one app");
  stream_.reserve(items);
  upstream_.reserve(static_cast<std::size_t>(apps));
  if (fifos_.size() < static_cast<std::size_t>(apps)) {
    fifos_.resize(static_cast<std::size_t>(apps));
  }
  for (auto& f : fifos_) f.items.reserve(items);
  departures_.reserve(items);
  dropped_.reserve(items);
  deadline_shed_.reserve(items);
}

void AdmissionQueue::pop_front(Fifo& f, std::size_t count) {
  f.head += count;
  if (f.head == f.items.size()) {
    f.items.clear();
    f.head = 0;
  }
}

void AdmissionQueue::release_departures(double time_s) {
  while (!departures_.empty() && departures_.front().first <= time_s) {
    depth_ -= departures_.front().second;
    std::pop_heap(departures_.begin(), departures_.end(), std::greater<>{});
    departures_.pop_back();
  }
}

void AdmissionQueue::admit_next() {
  util::check(next_ < stream_.size(), "AdmissionQueue: stream exhausted");
  const ServeItem item = stream_[next_++];
  --upstream_[static_cast<std::size_t>(item.app)];

  // Apply departures (launch starts) that happened before this arrival.
  release_departures(item.available_s);

  // Deadline-aware shedding happens before the capacity check: a request
  // predicted to miss its SLO is cheap to reject here, and must not evict a
  // still-viable buffered request to make room for itself.
  if (gate_ &&
      !gate_(item, static_cast<std::int64_t>(fifo(item.app).size()))) {
    deadline_shed_.push_back(item);
    sample_depth();
    return;
  }

  if (capacity_ > 0 && depth_ >= capacity_) {
    if (policy_ == QueuePolicy::kEvictOldest) {
      // Evict the longest-waiting buffered request (ties: lowest app).
      Fifo* victim = nullptr;
      for (auto& f : fifos_) {
        if (f.size() == 0) continue;
        if (victim == nullptr || f.items[f.head].available_s <
                                     victim->items[victim->head].available_s) {
          victim = &f;
        }
      }
      if (victim != nullptr) {
        dropped_.push_back(victim->items[victim->head]);
        pop_front(*victim, 1);
        --depth_;
      } else {
        // Every buffered request is already sealed into a launch; nothing
        // is evictable, so the arrival bounces after all.
        dropped_.push_back(item);
        sample_depth();
        return;
      }
    } else {
      dropped_.push_back(item);
      sample_depth();
      return;
    }
  }

  fifo(item.app).items.push_back(item);
  ++depth_;
  sample_depth();
}

void AdmissionQueue::fill(int app, std::size_t want) {
  const auto& f = fifo(app);
  while (f.size() < want && upstream(app) > 0) admit_next();
}

void AdmissionQueue::fill_until(int app, std::size_t want,
                                double threshold_s) {
  const auto& f = fifo(app);
  while (f.size() < want && upstream(app) > 0 &&
         stream_[next_].available_s <= threshold_s) {
    admit_next();
  }
}

bool AdmissionQueue::exhausted(int app) const {
  return fifo(app).size() == 0 && upstream(app) == 0;
}

void AdmissionQueue::take_into(int app, std::size_t count,
                               std::vector<ServeItem>& out) {
  auto& f = fifo(app);
  util::check(count <= f.size(), "AdmissionQueue: take beyond waiting");
  const auto first = f.items.begin() + static_cast<std::ptrdiff_t>(f.head);
  out.assign(first, first + static_cast<std::ptrdiff_t>(count));
  pop_front(f, count);
}

std::vector<ServeItem> AdmissionQueue::take(int app, std::size_t count) {
  std::vector<ServeItem> taken;
  take_into(app, count, taken);
  return taken;
}

void AdmissionQueue::on_dispatch(double start_s, std::size_t count) {
  if (count == 0) return;
  departures_.emplace_back(start_s, static_cast<std::int64_t>(count));
  std::push_heap(departures_.begin(), departures_.end(), std::greater<>{});
}

void AdmissionQueue::settle_departures() {
  // End-of-slot: every registered launch has started, so all deferred
  // departures release their capacity now. Without this, a drained queue
  // kept stale events and a depth_ still counting requests that left long
  // ago.
  for (const auto& departure : departures_) depth_ -= departure.second;
  departures_.clear();
  util::check(depth_ >= 0, "AdmissionQueue: departures exceed admissions");
}

void AdmissionQueue::drain_unprocessed_into(std::vector<ServeItem>& out) {
  settle_departures();
  out.assign(stream_.begin() + static_cast<std::ptrdiff_t>(next_),
             stream_.end());
  next_ = stream_.size();
  std::fill(upstream_.begin(), upstream_.end(), 0);
}

std::vector<ServeItem> AdmissionQueue::drain_unprocessed() {
  std::vector<ServeItem> rest;
  drain_unprocessed_into(rest);
  return rest;
}

void AdmissionQueue::drain_waiting_into(std::vector<ServeItem>& out) {
  settle_departures();
  out.clear();
  for (auto& f : fifos_) {
    depth_ -= static_cast<std::int64_t>(f.size());
    out.insert(out.end(),
               f.items.begin() + static_cast<std::ptrdiff_t>(f.head),
               f.items.end());
    pop_front(f, f.size());
  }
  util::check(depth_ == 0, "AdmissionQueue: depth inconsistent after drain");
}

std::vector<ServeItem> AdmissionQueue::drain_waiting() {
  std::vector<ServeItem> rest;
  drain_waiting_into(rest);
  return rest;
}

}  // namespace birp::serve
