// Self-tests of the benchmark harness: the seeded request stream, the
// percentile rule, span self-time arithmetic and the reconciliation check.
// Exit status 0 when every check holds.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "harness.hpp"

namespace {

int failures = 0;

void expect(bool ok, const char* what, int line) {
  if (!ok) {
    ++failures;
    std::fprintf(stderr, "selftest line %d: %s\n", line, what);
  }
}
#define EXPECT(cond) expect((cond), #cond, __LINE__)

bool same(const std::vector<perfbench::Draw>& a,
          const std::vector<perfbench::Draw>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].cls != b[i].cls || a[i].tenant != b[i].tenant ||
        a[i].never_seen != b[i].never_seen) {
      return false;
    }
  }
  return true;
}

void stream_is_a_function_of_the_seed() {
  using perfbench::cold_stream;
  using perfbench::mix_stream;
  const std::vector<double> weights = {1.0, 2.0, 1.0};
  const std::vector<std::uint32_t> tenants = {0, 1, 0};
  EXPECT(same(mix_stream(7, 5000, weights, tenants),
              mix_stream(7, 5000, weights, tenants)));
  EXPECT(!same(mix_stream(7, 5000, weights, tenants),
               mix_stream(8, 5000, weights, tenants)));
  EXPECT(same(cold_stream(7, 6000, 4000, 0.25, 1024, 2),
              cold_stream(7, 6000, 4000, 0.25, 1024, 2)));
  EXPECT(!same(cold_stream(7, 6000, 4000, 0.25, 1024, 2),
               cold_stream(9, 6000, 4000, 0.25, 1024, 2)));

  // A repeat only revisits a class first drawn >= gap draws earlier, and a
  // class is never-seen exactly on its first draw.
  const auto stream = cold_stream(3, 6000, 8000, 0.25, 1024, 2);
  std::vector<long> first(8000, -1);
  bool gap_ok = true, never_seen_ok = true;
  std::size_t repeats = 0;
  for (std::size_t i = 0; i < stream.size(); ++i) {
    const auto c = stream[i].cls;
    if (first[c] < 0) {
      first[c] = static_cast<long>(i);
      never_seen_ok = never_seen_ok && stream[i].never_seen;
    } else {
      ++repeats;
      gap_ok = gap_ok && static_cast<long>(i) - first[c] >= 1024;
      never_seen_ok = never_seen_ok && !stream[i].never_seen;
    }
  }
  EXPECT(gap_ok);
  EXPECT(never_seen_ok);
  EXPECT(repeats > 500 && repeats < 2000);
}

void percentile_needs_ten_samples_beyond() {
  using perfbench::highest_supported_percentile;
  using perfbench::percentile_supported;
  EXPECT(percentile_supported(1000, 0.99));
  EXPECT(!percentile_supported(999, 0.99));
  EXPECT(percentile_supported(20, 0.5));
  EXPECT(!percentile_supported(19, 0.5));
  EXPECT(highest_supported_percentile(19) == 0.0);
  EXPECT(highest_supported_percentile(20) == 0.5);
  EXPECT(highest_supported_percentile(100) == 0.9);
  EXPECT(highest_supported_percentile(999) == 0.9);
  EXPECT(highest_supported_percentile(1000) == 0.99);
  EXPECT(highest_supported_percentile(10000) == 0.999);

  std::vector<double> samples;
  for (int i = 1000; i >= 1; --i) samples.push_back(i);
  EXPECT(perfbench::quantile(samples, 0.99) == 990.0);
  EXPECT(perfbench::quantile(samples, 0.5) == 500.0);
  EXPECT(perfbench::samples_beyond(1000, 0.99) == 10);
  EXPECT(perfbench::quantile({}, 0.5) == 0.0);
}

void self_time_subtracts_covered_children() {
  using perfbench::Span;
  const Span parent{"gateway", 1, 0, 1, 0.0, 10.0, 0};
  // Overlapping children count once; the part outside the parent not at all.
  const std::vector<Span> children = {{"a", 2, 1, 1, 1.0, 3.0, 0},
                                      {"b", 3, 1, 1, 2.0, 5.0, 0},
                                      {"c", 4, 1, 1, 8.0, 12.0, 0}};
  EXPECT(std::fabs(perfbench::self_time(parent, children) - 4.0) < 1e-12);
  EXPECT(perfbench::self_time(parent, {}) == 10.0);

  std::vector<Span> trace = {parent};
  trace.insert(trace.end(), children.begin(), children.end());
  trace.push_back({"d", 5, 3, 1, 2.5, 3.5, 0});  // grandchild under "b"
  double gateway = -1, b = -1, c = -1;
  for (const auto& [name, seconds] : perfbench::self_time_by_name(trace)) {
    if (name == "gateway") gateway = seconds;
    if (name == "b") b = seconds;
    if (name == "c") c = seconds;
  }
  EXPECT(std::fabs(gateway - 4.0) < 1e-12);
  EXPECT(std::fabs(b - 2.0) < 1e-12);
  EXPECT(std::fabs(c - 4.0) < 1e-12);
}

void reconciliation_fires_on_a_doctored_snapshot() {
  xaas::service::telemetry::MetricsSnapshot cluster;
  cluster.counters = {{"cluster.requests", 100}, {"cluster.admitted", 97},
                      {"cluster.rejected", 1},   {"cluster.shed", 1},
                      {"cluster.quota_denied", 1}, {"cluster.completed", 96},
                      {"cluster.failed", 1}};
  xaas::service::telemetry::MetricsSnapshot gateway;
  gateway.counters = {{"vm.instructions", 5000}, {"spec_cache.hits", 90},
                      {"spec_cache.disk_hits", 2}, {"spec_cache.misses", 5}};
  gateway.histograms["gateway.deploy_seconds"].count = 97;

  perfbench::Counts counts;
  perfbench::counts_from_snapshots(cluster, {gateway}, &counts);
  counts.result_instructions = 5000;
  counts.expected_misses = 5;
  EXPECT(perfbench::reconcile(counts).empty());

  auto doctored = cluster;
  doctored.counters["cluster.completed"] = 95;  // one completion lost
  perfbench::counts_from_snapshots(doctored, {gateway}, &counts);
  EXPECT(perfbench::reconcile(counts).size() == 1);

  perfbench::counts_from_snapshots(cluster, {gateway}, &counts);
  counts.result_instructions = 4999;
  EXPECT(perfbench::reconcile(counts).size() == 1);
  counts.result_instructions = 5000;
  counts.expected_misses = 4;
  EXPECT(perfbench::reconcile(counts).size() == 1);

  auto extra_request = cluster;
  extra_request.counters["cluster.requests"] = 101;
  auto miscounted = gateway;
  miscounted.counters["spec_cache.hits"] = 91;
  perfbench::counts_from_snapshots(extra_request, {miscounted}, &counts);
  counts.expected_misses = 5;
  EXPECT(perfbench::reconcile(counts).size() == 2);
}

}  // namespace

void slice_rate_ignores_a_stall() {
  // 100 completions per second, with one half-second stall in the middle.
  std::vector<double> completions;
  for (int i = 0; i < 800; ++i) completions.push_back(i * 0.01 + (i >= 400 ? 0.5 : 0.0));
  std::reverse(completions.begin(), completions.end());
  const double rate = perfbench::median_slice_rate(completions, 8);
  EXPECT(rate > 99.99 && rate < 100.01);
  EXPECT(perfbench::median_slice_rate({1.0, 2.0, 3.0}, 8) == 0.0);
}

int main() {
  stream_is_a_function_of_the_seed();
  percentile_needs_ten_samples_beyond();
  self_time_subtracts_covered_children();
  reconciliation_fires_on_a_doctored_snapshot();
  slice_rate_ignores_a_stall();
  if (failures == 0) std::printf("perfbench selftest: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
