// SingleFlightCache: the one get-or-compute primitive behind
// PredictionService's sample and profile caches. Service-private.
//
// The first request for a key computes the value; concurrent requests
// for the same key wait on that computation instead of duplicating it
// (no thundering herd). Failure contract: a failed computation never
// stays cached. The computing thread erases its slot from the map
// *before* publishing the error, so by the time any joiner observes the
// failure the cache no longer holds it and the next request for the key
// re-attempts. Joiners of the failed computation receive that failure
// (deterministic under an armed fault schedule) but do not latch it —
// deliberately NOT a once_flag, which would latch the first failure.

#ifndef PREDICT_SERVICE_SINGLE_FLIGHT_CACHE_H_
#define PREDICT_SERVICE_SINGLE_FLIGHT_CACHE_H_

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>

#include "common/result.h"

namespace predict {

template <typename V>
class SingleFlightCache {
 public:
  using Ptr = std::shared_ptr<const V>;

  /// Returns the value cached (or in flight) for `key`, or runs
  /// `compute` — a callable returning Result<Ptr> — outside any lock and
  /// caches its success. `hit` (may be null) reports whether the value
  /// was served from the cache, joining an in-flight computation
  /// included. A hit takes one map lock and one slot wait.
  template <typename Compute>
  Result<Ptr> GetOrCompute(const std::string& key, Compute&& compute,
                           bool* hit) {
    std::shared_ptr<Slot> slot;
    bool creator = false;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      std::shared_ptr<Slot>& entry = map_[key];
      if (entry == nullptr) {
        entry = std::make_shared<Slot>();
        creator = true;
        ++misses_;
      } else {
        ++hits_;
      }
      slot = entry;
    }
    if (hit != nullptr) *hit = !creator;
    if (!creator) return slot->Wait();

    Result<Ptr> result = compute();
    if (!result.ok()) {
      std::lock_guard<std::mutex> lock(mutex_);
      auto it = map_.find(key);
      if (it != map_.end() && it->second == slot) map_.erase(it);
    }
    slot->Publish(result);
    return result;
  }

  /// Drops every entry (in-flight computations still complete for their
  /// waiters) and returns how many were dropped. Counters are kept.
  uint64_t Clear() {
    std::lock_guard<std::mutex> lock(mutex_);
    const uint64_t dropped = map_.size();
    map_.clear();
    return dropped;
  }

  /// Cumulative (hits, misses).
  std::pair<uint64_t, uint64_t> counts() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return {hits_, misses_};
  }

 private:
  struct Slot {
    std::mutex m;
    std::condition_variable cv;
    bool done = false;
    Result<Ptr> result = Status::Internal("uncomputed");

    void Publish(Result<Ptr> value) {
      {
        std::lock_guard<std::mutex> lock(m);
        result = std::move(value);
        done = true;
      }
      cv.notify_all();
    }

    Result<Ptr> Wait() {
      std::unique_lock<std::mutex> lock(m);
      cv.wait(lock, [&] { return done; });
      return result;
    }
  };

  mutable std::mutex mutex_;  // guards map_ and the counters
  std::unordered_map<std::string, std::shared_ptr<Slot>> map_;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
};

}  // namespace predict

#endif  // PREDICT_SERVICE_SINGLE_FLIGHT_CACHE_H_
