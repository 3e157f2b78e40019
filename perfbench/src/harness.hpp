// Measurement helpers of the serving benchmark, kept apart from the
// workloads so the self-tests (perfbench/tests/selftest.cpp) can check
// them without a cluster: the seeded request stream, the percentile rule,
// span self-time arithmetic, and the exact post-drain reconciliation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "service/telemetry.hpp"

namespace perfbench {

// ---- Seeded randomness ------------------------------------------------------

/// splitmix64: a fixed, platform-independent generator, so one seed gives
/// one request stream on every standard library (std distributions do not
/// promise that).
class Rng {
public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform in [0, n); n > 0.
  std::uint64_t below(std::uint64_t n) { return next() % n; }
  /// Uniform in [0, 1).
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

private:
  std::uint64_t state_;
};

// ---- Request streams --------------------------------------------------------

/// One generated request: which class of the workload, which tenant, and
/// how it relates to what came earlier in the stream.
struct Draw {
  std::uint32_t cls = 0;
  std::uint32_t tenant = 0;
  /// First occurrence of a class in the stream (a specialization miss).
  bool never_seen = false;
};

/// A fixed mix: each draw picks a class with probability proportional to
/// `weights` and a tenant by `tenant_of[cls]`.
std::vector<Draw> mix_stream(std::uint64_t seed, std::size_t length,
                             const std::vector<double>& weights,
                             const std::vector<std::uint32_t>& tenant_of);

/// A specialization-heavy stream over `class_count` classes. Each draw is, with
/// probability `repeat_share`, a repeat of a class first drawn at least
/// `repeat_gap` draws earlier (so its first request has long completed);
/// otherwise the next class of a seeded permutation of all classes. The
/// stream never runs out: after the permutation is spent, draws repeat.
std::vector<Draw> cold_stream(std::uint64_t seed, std::size_t length,
                              std::size_t class_count, double repeat_share, std::size_t repeat_gap,
                              std::uint32_t tenants);

// ---- Percentiles ------------------------------------------------------------

/// Nearest-rank quantile of `samples` (sorted or not); 0 when empty.
double quantile(std::vector<double> samples, double q);

/// Samples strictly beyond the nearest-rank q-quantile of n samples.
std::size_t samples_beyond(std::size_t n, double q);

/// Whether n samples support reporting the q-quantile: at least ten
/// samples lie beyond it.
bool percentile_supported(std::size_t n, double q);

/// The highest of 0.5, 0.9, 0.99, 0.999, 0.9999 that n samples support;
/// 0 when not even the median is supported.
double highest_supported_percentile(std::size_t n);

double median(std::vector<double> samples);

/// Throughput that a short stall of the host does not move: the completion
/// times (seconds, any order) are cut into `slices` runs of equal count, the
/// first run (the ramp-up) is left out, and the median of the other runs'
/// rates, in completions per second, is returned; 0 with fewer than
/// `slices` completions.
double median_slice_rate(std::vector<double> completions, std::size_t slices);

// ---- Spans ------------------------------------------------------------------

/// One traced interval, in seconds since the run's epoch. Spans of one
/// request share `request`; `parent` is the id of the enclosing span (0 for
/// a root).
struct Span {
  std::string name;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t request = 0;
  double start = 0.0;
  double end = 0.0;
  int thread = 0;
};

/// Duration of `span` minus the part of it covered by `children`
/// (overlapping children count once; parts outside the span count not at
/// all).
double self_time(const Span& span, const std::vector<Span>& children);

/// Total self time per span name over a whole trace.
std::vector<std::pair<std::string, double>> self_time_by_name(
    const std::vector<Span>& spans);

/// Chrome trace-event JSON ("X" events, microseconds).
std::string chrome_trace_json(const std::vector<Span>& spans);

// ---- Reconciliation ---------------------------------------------------------

/// The counters the post-drain identities relate, gathered from the
/// cluster snapshot, every gateway snapshot and the returned results.
struct Counts {
  std::uint64_t requests = 0, admitted = 0, rejected = 0, shed = 0,
                quota_denied = 0, completed = 0, failed = 0;
  std::uint64_t gateway_instructions = 0;  // sum of gateway vm.instructions
  std::uint64_t result_instructions = 0;   // sum of RunResult.run.instructions
  std::uint64_t spec_hits = 0, spec_disk_hits = 0, spec_misses = 0;
  std::uint64_t deploys = 0;  // sum of gateway.deploy_seconds counts
  /// Expected spec_cache.misses (never-seen classes), or -1 to skip.
  std::int64_t expected_misses = -1;
};

/// Fill the snapshot-derived fields of `out` (result_instructions and
/// expected_misses are the caller's).
void counts_from_snapshots(
    const xaas::service::telemetry::MetricsSnapshot& cluster,
    const std::vector<xaas::service::telemetry::MetricsSnapshot>& gateways,
    Counts* out);

/// The identities that do not hold, as readable lines; empty when all do.
std::vector<std::string> reconcile(const Counts& counts);

}  // namespace perfbench
