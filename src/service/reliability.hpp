// Reliability primitives for the serving plane: machine-readable error
// codes, retry backoff, request deadlines, and a per-node three-state
// circuit breaker. The Gateway wires these through its
// route → deploy → run pipeline (gateway.cpp); docs/SERVICE.md
// "Reliability" documents the semantics end to end.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string_view>

namespace xaas::service {

/// Machine-readable completion classification for RunResult (and failure
/// classification for FleetDeployResult). Ok iff the request succeeded;
/// everything else names the stage that gave up, so clients branch on
/// the code instead of parsing error strings.
enum class ErrorCode {
  Ok = 0,
  /// Load-shed at cluster admission (shard backlog at max_pending, or
  /// failure rate over the shed threshold). Retryable;
  /// retry_after_seconds set.
  Shed,
  /// The cluster is stopping; resubmit elsewhere.
  ShuttingDown,
  /// Image reference unknown to the registry. Not retryable.
  NotFound,
  /// No fleet node can ever serve this request (architecture or explicit
  /// march mismatch). Not retryable.
  NoCompatibleNode,
  /// Compatible nodes exist but every breaker is open. Retryable.
  NodesUnavailable,
  /// Specialize/build failed and the retry budget is spent.
  DeployFailed,
  /// Execution failed on every attempted node.
  RunFailed,
  /// The request's deadline budget ran out (in queue, before deploy,
  /// before run, or before a backoff sleep).
  DeadlineExceeded,
  /// The tenant's token-bucket quota is exhausted (cluster admission —
  /// see service/cluster.hpp). Retryable; retry_after_seconds carries
  /// the bucket's refill wait and is always > 0.
  QuotaExceeded,
};

std::string_view to_string(ErrorCode code);
/// Whether a client could plausibly succeed by resubmitting later.
bool is_retryable(ErrorCode code);

/// Exponential backoff with deterministic jitter for transient
/// deploy/build/store failures. backoff_seconds() is a pure function of
/// (attempt, seed): reproducible for a fixed serve order, decorrelated
/// across requests (the Gateway seeds with its serve() sequence number).
struct RetryPolicy {
  /// Total attempts (first try included). 1 disables retries.
  int max_attempts = 4;
  double initial_backoff_seconds = 0.0005;
  double backoff_multiplier = 2.0;
  double max_backoff_seconds = 0.025;
  /// Jitter fraction in [0, 1]: the sleep is uniform in
  /// [backoff * (1 - jitter), backoff].
  double jitter = 0.5;

  /// Sleep before retrying after `failed_attempt` (1-based) failed.
  double backoff_seconds(int failed_attempt, std::uint64_t seed) const;
};

/// A request deadline: an absolute budget fixed at admission. Stages
/// check expired() before starting work; a stage never preempts work in
/// flight (runs are short — the check granularity is one stage).
class Deadline {
public:
  using Clock = std::chrono::steady_clock;

  Deadline() = default;  // no deadline: never expires

  static Deadline after(double budget_seconds, Clock::time_point from) {
    Deadline d;
    d.active_ = true;
    d.at_ = from + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(budget_seconds));
    return d;
  }

  bool active() const { return active_; }
  bool expired(Clock::time_point now) const { return active_ && now >= at_; }
  /// Seconds left (negative when past due); meaningless when !active().
  double remaining_seconds(Clock::time_point now) const {
    return std::chrono::duration<double>(at_ - now).count();
  }

private:
  bool active_ = false;
  Clock::time_point at_{};
};

/// Three-state circuit breaker guarding one fleet node.
///
///             failure_threshold consecutive failures
///   Closed ──────────────────────────────────────────> Open
///     ^                                                  │
///     │ probe succeeds                   open_seconds    │
///     │                                    elapsed       v
///   HalfOpen <────────────────────────────────────── (cooling)
///     │
///     └── probe fails ──> Open again (counts another trip)
///
/// Closed admits everything (the hot path is one acquire load — no
/// lock); Open admits nothing until open_seconds elapse; HalfOpen admits
/// up to half_open_probes requests, whose outcome closes or re-opens the
/// breaker.
///
/// Thread-safety: all methods are safe from any thread; transitions
/// serialize on an internal mutex, the Closed fast path does not touch
/// it.
class alignas(64) CircuitBreaker {
public:
  using Clock = std::chrono::steady_clock;
  enum class State { Closed, Open, HalfOpen };

  struct Options {
    /// Consecutive failures that trip Closed -> Open.
    int failure_threshold = 3;
    /// Cooling period before Open admits a probe.
    double open_seconds = 0.05;
    /// Concurrent probes admitted while HalfOpen.
    int half_open_probes = 1;
  };

  CircuitBreaker() : CircuitBreaker(Options{}) {}
  explicit CircuitBreaker(Options options) : options_(options) {}

  CircuitBreaker(const CircuitBreaker&) = delete;
  CircuitBreaker& operator=(const CircuitBreaker&) = delete;

  /// Whether a request may be routed here now (grants a probe slot when
  /// HalfOpen).
  bool allow(Clock::time_point now);
  void record_success();
  /// Returns true when THIS failure tripped the breaker open (from
  /// Closed via the threshold, or a failed HalfOpen probe) — the
  /// caller's cue to count a breaker_open event. trips() counts the
  /// same transitions.
  bool record_failure(Clock::time_point now);

  State state() const { return state_.load(std::memory_order_acquire); }
  std::uint64_t trips() const { return trips_.load(std::memory_order_relaxed); }

private:
  const Options options_;
  std::atomic<State> state_{State::Closed};
  std::atomic<int> consecutive_failures_{0};
  std::atomic<std::uint64_t> trips_{0};

  std::mutex mutex_;  // guards transitions + the fields below
  int probes_granted_ = 0;
  Clock::time_point open_until_{};
};

}  // namespace xaas::service
