// Fair-share admission primitives for the multi-gateway cluster
// (service/cluster.hpp): per-tenant token-bucket quotas and weighted
// fair queuing. Both are driven by an *explicit* clock — every method
// takes `now` in seconds — so the fairness properties are testable with
// virtual time (no sleeps, no wall-clock reads): feed a deterministic
// event sequence, assert the exact admission/drain order
// (tests/service/fair_queue_test.cpp).
//
// TokenBucket / QuotaSet answer "may this tenant submit more work right
// now" (rate * burst quotas, retry-after hints on denial);
// WeightedFairQueue answers "whose queued job runs next": higher request
// priorities strictly first, then service in proportion to weight while
// backlogged, FIFO within one tenant. The cluster's per-shard WFQ is the
// service's only queue — its dispatchers hand each popped job straight
// to Gateway::serve on their own thread.
//
// Thread-safety: TokenBucket and WeightedFairQueue are deliberately NOT
// thread-safe (the cluster guards each shard's queue with the shard
// mutex; tests drive them single-threaded with virtual time). QuotaSet
// is thread-safe — admission checks race across client threads.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <utility>

namespace xaas::service {

/// Per-tenant fair-share configuration: admission rate (token bucket)
/// and drain share (WFQ weight).
struct TenantQuota {
  /// Sustained admissions per second (token refill rate).
  double rate_per_second = 1e9;
  /// Bucket capacity: admissions that may burst back to back after idle.
  double burst = 1e9;
  /// WFQ weight: a backlogged tenant with weight 2 drains twice as fast
  /// as one with weight 1. Must be > 0.
  double weight = 1.0;
};

/// Deterministic token bucket over an explicit clock. Starts full
/// (burst available immediately); refills continuously at
/// rate_per_second up to burst. `now` values must be monotonically
/// non-decreasing across calls.
class TokenBucket {
public:
  explicit TokenBucket(TenantQuota quota, double now = 0.0);

  /// Consume `cost` tokens if available at `now`. A cost larger than the
  /// burst capacity can never be admitted whole and is clamped to the
  /// burst (documented quota semantics: one oversized request costs at
  /// most a full bucket).
  bool try_acquire(double now, double cost = 1.0);

  /// Seconds from `now` until `cost` tokens will be available (0 when
  /// try_acquire would already succeed). Always finite: cost is clamped
  /// to the burst capacity, and a zero refill rate reports one hour.
  double retry_after_seconds(double now, double cost = 1.0) const;

  /// Tokens available at `now` (refill applied, bucket not mutated).
  double tokens(double now) const;

private:
  double refilled(double now) const;

  TenantQuota quota_;
  double tokens_;
  double last_;  // time of the last mutation (refill anchor)
};

/// Thread-safe per-tenant quota table: a TokenBucket per tenant, created
/// on first use from the default quota or a per-tenant override. The
/// cluster consults this at admission; denials carry a retry-after hint.
class QuotaSet {
public:
  explicit QuotaSet(TenantQuota default_quota) : default_(default_quota) {}

  /// Override the quota for one tenant. Resets that tenant's bucket (the
  /// new burst is immediately available); call before serving.
  void set_quota(const std::string& tenant, TenantQuota quota);

  /// Admit `cost` units for `tenant` at `now`, or deny and report the
  /// refill wait in `*retry_after` (always > 0 on denial).
  bool try_admit(const std::string& tenant, double now, double cost,
                 double* retry_after);

  /// The WFQ weight configured for this tenant (default quota's weight
  /// when no override exists).
  double weight(const std::string& tenant) const;

  /// The quota in force for this tenant.
  TenantQuota quota(const std::string& tenant) const;

private:
  mutable std::mutex mutex_;
  TenantQuota default_;
  std::map<std::string, TenantQuota> overrides_;
  std::map<std::string, TokenBucket> buckets_;
};

/// Weighted fair queue (virtual-finish-time WFQ) with strict priority
/// levels: pop() serves the highest priority that holds a job, and within
/// it the job with the smallest virtual finish tag, so backlogged tenants
/// receive service in proportion to their weight regardless of arrival
/// bursts. Each priority level keeps its own virtual clock; with every job
/// at one priority this is plain WFQ. Tags are a pure function of the
/// push/pop sequence — identical sequences drain in identical order (ties
/// break on (finish tag, tenant name), never on clocks or addresses).
///
/// Virtual time advances to the start tag of each served job; an idle
/// tenant's next job starts at max(virtual time, its last finish), so
/// idling banks no credit.
template <typename T>
class WeightedFairQueue {
public:
  /// Set (or change) a tenant's weight; affects jobs pushed afterwards.
  void set_weight(const std::string& tenant, double weight) {
    weights_[tenant] = weight > 0.0 ? weight : 1.0;
  }

  /// Enqueue one job of `cost` virtual units for `tenant`.
  void push(const std::string& tenant, double cost, T value) {
    push_weighted(tenant, cost, 0.0, std::move(value));
  }

  /// Enqueue with a per-job weight override (0 = the tenant's weight) at
  /// `priority` (higher drains first).
  void push_weighted(const std::string& tenant, double cost, double weight,
                     T value, int priority = 0) {
    Level& level = levels_[priority];
    Tenant& state = level.tenants[tenant];
    double w = weight;
    if (w <= 0.0) {
      const auto it = weights_.find(tenant);
      w = it == weights_.end() ? 1.0 : it->second;
    }
    const double start = std::max(state.last_finish, level.virtual_time);
    const double finish = start + (cost > 0.0 ? cost : 1e-9) / w;
    state.last_finish = finish;
    state.backlog.push_back(Item{start, finish, std::move(value)});
    ++level.size;
    ++size_;
  }

  /// Dequeue the job with the smallest finish tag at the highest
  /// non-empty priority. Returns false when empty. On success fills
  /// `*out` and (when non-null) `*tenant`.
  bool pop(T* out, std::string* tenant = nullptr) {
    for (auto& [priority, level] : levels_) {
      if (level.size == 0) continue;
      Tenant* best = nullptr;
      const std::string* best_name = nullptr;
      for (auto& [name, state] : level.tenants) {
        if (state.backlog.empty()) continue;
        // Equal tags: std::map iteration is name-ascending, so the first
        // seen wins — deterministic without comparing anything else.
        if (best == nullptr ||
            state.backlog.front().finish < best->backlog.front().finish) {
          best = &state;
          best_name = &name;
        }
      }
      Item item = std::move(best->backlog.front());
      best->backlog.pop_front();
      --level.size;
      --size_;
      if (item.start > level.virtual_time) level.virtual_time = item.start;
      if (tenant != nullptr) *tenant = *best_name;
      *out = std::move(item.value);
      return true;
    }
    return false;
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

private:
  struct Item {
    double start = 0.0;
    double finish = 0.0;
    T value;
  };
  struct Tenant {
    double last_finish = 0.0;
    std::deque<Item> backlog;
  };
  /// One priority's WFQ. Levels live as long as the queue, like tenants,
  /// so a level that drains keeps its virtual clock.
  struct Level {
    std::map<std::string, Tenant> tenants;
    double virtual_time = 0.0;
    std::size_t size = 0;
  };

  std::map<int, Level, std::greater<int>> levels_;  // highest first
  std::map<std::string, double> weights_;
  std::size_t size_ = 0;
};

}  // namespace xaas::service
