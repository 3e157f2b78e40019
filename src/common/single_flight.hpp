// Single-flight memo map: the one primitive behind both serving caches
// (service::SpecializationCache for whole deployments, and every memo
// level of minicc::CompileCache).
//
// The first requester of a key becomes its leader and runs `compute`;
// concurrent and later requesters of the key block on the leader's
// shared_future and share its result. Entries live until erase(), so a
// completed entry is also the cache hit. Everything — hits and misses —
// goes through one mutex; the critical section is a hash probe plus a
// shared_future copy, and the value is resolved outside it.
//
// Failures are the caller's policy, with two building blocks:
//  - erase-before-publish: a compute that must not leave its result
//    behind (a failed lowering, an injected fault) calls erase(key)
//    before returning. The waiters already blocked on this round still
//    receive the result; every later requester elects a fresh leader.
//  - a compute that throws: the leader erases the entry *before* it
//    wakes its waiters, so no requester can observe the exception as a
//    cached entry. The waiters of that round rethrow it, the leader
//    rethrows it, and the next requester recomputes. A compute that
//    calls erase() must not throw afterwards (the leader's erase would
//    then drop a newer round's entry, which costs a duplicate compute).
#pragma once

#include <cstddef>
#include <exception>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

namespace xaas::common {

/// Thread-safety: every method is safe from any thread. `compute` runs
/// on the leader's thread outside the map's lock, so it may call erase()
/// (or any other method) on the same map.
template <typename V>
class SingleFlightMap {
public:
  using Value = std::shared_ptr<const V>;

  /// The entry for `key`, computing it once if absent. `joined`, when
  /// non-null, reports whether this caller shared another caller's
  /// entry (true) or was the leader that ran `compute` (false); it is
  /// set before the call blocks or computes, so it is valid even when
  /// the call throws.
  Value get_or_compute(const std::string& key,
                       const std::function<Value()>& compute,
                       bool* joined = nullptr) {
    std::shared_future<Value> future;
    std::promise<Value> promise;
    bool leader = false;
    {
      std::lock_guard lock(mutex_);
      const auto it = entries_.find(key);
      if (it != entries_.end()) {
        future = it->second;
      } else {
        future = promise.get_future().share();
        entries_.emplace(key, future);
        leader = true;
      }
    }
    if (joined) *joined = !leader;
    if (!leader) return future.get();
    Value value;
    try {
      value = compute();
    } catch (...) {
      erase(key);
      promise.set_exception(std::current_exception());
      throw;
    }
    promise.set_value(value);
    return value;
  }

  /// Drop the entry for `key`, if any (see erase-before-publish above).
  void erase(const std::string& key) {
    std::lock_guard lock(mutex_);
    entries_.erase(key);
  }

  /// Entries currently held, in-flight ones included.
  std::size_t size() const {
    std::lock_guard lock(mutex_);
    return entries_.size();
  }

private:
  mutable std::mutex mutex_;
  std::unordered_map<std::string, std::shared_future<Value>> entries_;
};

}  // namespace xaas::common
