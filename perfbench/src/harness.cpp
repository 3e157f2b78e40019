#include "harness.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <numeric>
#include <unordered_map>

namespace perfbench {

std::uint64_t Rng::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::vector<Draw> mix_stream(std::uint64_t seed, std::size_t length,
                             const std::vector<double>& weights,
                             const std::vector<std::uint32_t>& tenant_of) {
  std::vector<double> cumulative(weights.size());
  std::partial_sum(weights.begin(), weights.end(), cumulative.begin());
  const double total = cumulative.empty() ? 0.0 : cumulative.back();
  Rng rng(seed);
  std::vector<Draw> stream(length);
  for (auto& draw : stream) {
    const double x = rng.unit() * total;
    const auto it = std::upper_bound(cumulative.begin(), cumulative.end(), x);
    draw.cls = static_cast<std::uint32_t>(
        std::min<std::size_t>(it - cumulative.begin(), weights.size() - 1));
    draw.tenant = tenant_of[draw.cls];
  }
  return stream;
}

std::vector<Draw> cold_stream(std::uint64_t seed, std::size_t length,
                              std::size_t class_count, double repeat_share, std::size_t repeat_gap,
                              std::uint32_t tenants) {
  Rng rng(seed);
  std::vector<std::uint32_t> order(class_count);
  std::iota(order.begin(), order.end(), 0u);
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.below(i)]);
  }
  std::vector<Draw> stream(length);
  std::vector<std::uint32_t> first_seen;  // classes, in first-draw order
  std::vector<std::size_t> first_index;   // stream index of that draw
  std::size_t next_new = 0;
  for (std::size_t i = 0; i < length; ++i) {
    Draw& draw = stream[i];
    // Classes whose first draw lies at least repeat_gap draws back.
    const std::size_t eligible =
        i < repeat_gap
            ? 0
            : static_cast<std::size_t>(
                  std::upper_bound(first_index.begin(), first_index.end(),
                                   i - repeat_gap) -
                  first_index.begin());
    const bool repeat = (i >= repeat_gap && eligible > 0 &&
                         rng.unit() < repeat_share) ||
                        next_new == order.size();
    if (repeat) {
      const std::size_t pool = eligible > 0 ? eligible : first_seen.size();
      draw.cls = first_seen[rng.below(pool)];
    } else {
      draw.cls = order[next_new++];
      draw.never_seen = true;
      first_seen.push_back(draw.cls);
      first_index.push_back(i);
    }
    draw.tenant = static_cast<std::uint32_t>(rng.below(tenants));
  }
  return stream;
}

std::size_t samples_beyond(std::size_t n, double q) {
  if (n == 0) return 0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(n) - 1e-9));
  return n - std::clamp<std::size_t>(rank, 1, n);
}

double quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  const std::size_t index = samples.size() - 1 - samples_beyond(samples.size(), q);
  std::nth_element(samples.begin(), samples.begin() + static_cast<long>(index),
                   samples.end());
  return samples[index];
}

bool percentile_supported(std::size_t n, double q) {
  return samples_beyond(n, q) >= 10;
}

double highest_supported_percentile(std::size_t n) {
  double best = 0.0;
  for (const double q : {0.5, 0.9, 0.99, 0.999, 0.9999}) {
    if (percentile_supported(n, q)) best = q;
  }
  return best;
}

double median(std::vector<double> samples) { return quantile(std::move(samples), 0.5); }

double median_slice_rate(std::vector<double> completions, std::size_t slices) {
  const std::size_t k = slices == 0 ? 0 : completions.size() / slices;
  if (slices < 2 || k == 0) return 0.0;
  std::sort(completions.begin(), completions.end());
  std::vector<double> rates;
  for (std::size_t j = 1; j < slices; ++j) {
    const double span = completions[(j + 1) * k - 1] - completions[j * k - 1];
    if (span > 0.0) rates.push_back(static_cast<double>(k) / span);
  }
  return median(std::move(rates));
}

double self_time(const Span& span, const std::vector<Span>& children) {
  std::vector<std::pair<double, double>> covered;
  for (const Span& child : children) {
    const double lo = std::max(child.start, span.start);
    const double hi = std::min(child.end, span.end);
    if (hi > lo) covered.emplace_back(lo, hi);
  }
  std::sort(covered.begin(), covered.end());
  double busy = 0.0, run_lo = 0.0, run_hi = -1.0;
  for (const auto& [lo, hi] : covered) {
    if (lo > run_hi) {
      if (run_hi > run_lo) busy += run_hi - run_lo;
      run_lo = lo;
      run_hi = hi;
    } else {
      run_hi = std::max(run_hi, hi);
    }
  }
  if (run_hi > run_lo) busy += run_hi - run_lo;
  return (span.end - span.start) - busy;
}

std::vector<std::pair<std::string, double>> self_time_by_name(
    const std::vector<Span>& spans) {
  std::unordered_map<std::uint64_t, std::vector<Span>> children;
  for (const Span& span : spans) {
    if (span.parent != 0) children[span.parent].push_back(span);
  }
  static const std::vector<Span> kNone;
  std::map<std::string, double> totals;
  for (const Span& span : spans) {
    const auto it = children.find(span.id);
    totals[span.name] += self_time(span, it == children.end() ? kNone : it->second);
  }
  return {totals.begin(), totals.end()};
}

std::string chrome_trace_json(const std::vector<Span>& spans) {
  std::string out = "{\"traceEvents\":[\n";
  char line[512];
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::snprintf(line, sizeof(line),
                  "{\"name\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,"
                  "\"pid\":1,\"tid\":%d,\"args\":{\"request\":%llu,"
                  "\"id\":%llu,\"parent\":%llu}}%s\n",
                  s.name.c_str(), s.start * 1e6, (s.end - s.start) * 1e6,
                  s.thread, static_cast<unsigned long long>(s.request),
                  static_cast<unsigned long long>(s.id),
                  static_cast<unsigned long long>(s.parent),
                  i + 1 < spans.size() ? "," : "");
    out += line;
  }
  out += "],\"displayTimeUnit\":\"ms\"}\n";
  return out;
}

void counts_from_snapshots(
    const xaas::service::telemetry::MetricsSnapshot& cluster,
    const std::vector<xaas::service::telemetry::MetricsSnapshot>& gateways,
    Counts* out) {
  out->requests = cluster.counter("cluster.requests");
  out->admitted = cluster.counter("cluster.admitted");
  out->rejected = cluster.counter("cluster.rejected");
  out->shed = cluster.counter("cluster.shed");
  out->quota_denied = cluster.counter("cluster.quota_denied");
  out->completed = cluster.counter("cluster.completed");
  out->failed = cluster.counter("cluster.failed");
  out->gateway_instructions = out->spec_hits = out->spec_disk_hits =
      out->spec_misses = out->deploys = 0;
  for (const auto& snap : gateways) {
    out->gateway_instructions += snap.counter("vm.instructions");
    out->spec_hits += snap.counter("spec_cache.hits");
    out->spec_disk_hits += snap.counter("spec_cache.disk_hits");
    out->spec_misses += snap.counter("spec_cache.misses");
    const auto it = snap.histograms.find("gateway.deploy_seconds");
    if (it != snap.histograms.end()) out->deploys += it->second.count;
  }
}

std::vector<std::string> reconcile(const Counts& c) {
  std::vector<std::string> broken;
  const auto check = [&broken](bool holds, const std::string& what) {
    if (!holds) broken.push_back(what);
  };
  const auto s = [](std::uint64_t v) { return std::to_string(v); };
  check(c.requests == c.admitted + c.rejected + c.shed + c.quota_denied,
        "cluster.requests " + s(c.requests) + " != admitted + rejected + shed "
        "+ quota_denied " + s(c.admitted + c.rejected + c.shed + c.quota_denied));
  check(c.admitted == c.completed + c.failed,
        "cluster.admitted " + s(c.admitted) + " != completed + failed " +
            s(c.completed + c.failed));
  check(c.gateway_instructions == c.result_instructions,
        "gateway vm.instructions " + s(c.gateway_instructions) +
            " != sum of RunResult instructions " + s(c.result_instructions));
  check(c.spec_hits + c.spec_disk_hits + c.spec_misses == c.deploys,
        "spec_cache hits + disk_hits + misses " +
            s(c.spec_hits + c.spec_disk_hits + c.spec_misses) + " != deploys " +
            s(c.deploys));
  if (c.expected_misses >= 0) {
    check(c.spec_misses == static_cast<std::uint64_t>(c.expected_misses),
          "spec_cache.misses " + s(c.spec_misses) + " != never-seen classes " +
              std::to_string(c.expected_misses));
  }
  return broken;
}

}  // namespace perfbench
