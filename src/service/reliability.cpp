#include "service/reliability.hpp"

#include <algorithm>

namespace xaas::service {

std::string_view to_string(ErrorCode code) {
  switch (code) {
    case ErrorCode::Ok:
      return "ok";
    case ErrorCode::Shed:
      return "shed";
    case ErrorCode::ShuttingDown:
      return "shutting_down";
    case ErrorCode::NotFound:
      return "not_found";
    case ErrorCode::NoCompatibleNode:
      return "no_compatible_node";
    case ErrorCode::NodesUnavailable:
      return "nodes_unavailable";
    case ErrorCode::DeployFailed:
      return "deploy_failed";
    case ErrorCode::RunFailed:
      return "run_failed";
    case ErrorCode::DeadlineExceeded:
      return "deadline_exceeded";
    case ErrorCode::QuotaExceeded:
      return "quota_exceeded";
  }
  return "unknown";
}

bool is_retryable(ErrorCode code) {
  switch (code) {
    case ErrorCode::Shed:
    case ErrorCode::NodesUnavailable:
    case ErrorCode::QuotaExceeded:
      return true;
    default:
      return false;
  }
}

double RetryPolicy::backoff_seconds(int failed_attempt,
                                    std::uint64_t seed) const {
  double base = initial_backoff_seconds;
  for (int i = 1; i < failed_attempt; ++i) {
    base *= backoff_multiplier;
    if (base >= max_backoff_seconds) break;
  }
  base = std::min(base, max_backoff_seconds);
  const double j = std::clamp(jitter, 0.0, 1.0);
  if (j <= 0.0 || base <= 0.0) return base;
  // SplitMix64 finalizer over (seed, attempt): deterministic full-range
  // jitter without shared RNG state between worker threads.
  std::uint64_t x = seed + static_cast<std::uint64_t>(failed_attempt) *
                               0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  x ^= x >> 31;
  const double u = static_cast<double>(x >> 11) * 0x1.0p-53;  // [0, 1)
  return base * (1.0 - j * u);
}

bool CircuitBreaker::allow(Clock::time_point now) {
  // Healthy-fleet fast path: no lock, one acquire load.
  if (state_.load(std::memory_order_acquire) == State::Closed) return true;
  std::lock_guard lock(mutex_);
  switch (state_.load(std::memory_order_relaxed)) {
    case State::Closed:
      return true;
    case State::Open:
      if (now < open_until_) return false;
      state_.store(State::HalfOpen, std::memory_order_release);
      probes_granted_ = 0;
      [[fallthrough]];
    case State::HalfOpen:
      if (probes_granted_ >= options_.half_open_probes) return false;
      ++probes_granted_;
      return true;
  }
  return true;
}

void CircuitBreaker::record_success() {
  if (state_.load(std::memory_order_acquire) == State::Closed) {
    consecutive_failures_.store(0, std::memory_order_relaxed);
    return;
  }
  std::lock_guard lock(mutex_);
  consecutive_failures_.store(0, std::memory_order_relaxed);
  probes_granted_ = 0;
  state_.store(State::Closed, std::memory_order_release);
}

bool CircuitBreaker::record_failure(Clock::time_point now) {
  std::lock_guard lock(mutex_);
  const State state = state_.load(std::memory_order_relaxed);
  bool trip = false;
  if (state == State::HalfOpen) {
    trip = true;  // the probe failed: straight back to Open
  } else if (state == State::Closed) {
    const int failures =
        consecutive_failures_.fetch_add(1, std::memory_order_relaxed) + 1;
    trip = failures >= options_.failure_threshold;
  }
  // A failure landing while already Open (admitted before the trip)
  // neither re-trips nor extends the cooling window.
  if (trip) {
    consecutive_failures_.store(0, std::memory_order_relaxed);
    open_until_ = now + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(
                                options_.open_seconds));
    state_.store(State::Open, std::memory_order_release);
    trips_.fetch_add(1, std::memory_order_relaxed);
  }
  return trip;
}

}  // namespace xaas::service
