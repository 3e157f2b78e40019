// Cluster fairness bench: fair-share multi-tenancy under a flooding
// tenant (§2/§7 — many tenants behind one acceleration service). A
// 4-gateway cluster over 32 homogeneous nodes serves 10k requests:
// three well-behaved victims plus one flooder with a tight token-bucket
// quota and a fraction of the victims' WFQ weight.
//
// Acceptance gate (exit status):
//  - victim p99 latency under flood stays within 3x of the no-flood
//    baseline (with a 15 ms floor so scheduler noise cannot fail it);
//  - zero wrong answers: every completed request — victim or flooder,
//    home-served or stolen — is bit-identical (numerics digest) to a
//    direct deploy+run of its class;
//  - the telemetry reconciles exactly after drain:
//      requests == admitted + rejected + shed + quota_denied
//      admitted == completed + failed, failed == 0 for victims
//      stolen   == sum over gateways of gateway.<name>.stolen
//    and per-tenant counters and latency histograms account for every
//    request.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.hpp"
#include "service/cluster.hpp"

namespace xaas {
namespace {

using Clock = std::chrono::steady_clock;

constexpr apps::MdWorkloadParams kParams{64, 8, 4, 64};
constexpr int kVictims = 3;
constexpr int kPerVictim = 320;       // x2 phases = 1920 victim requests
constexpr int kFloodRequests = 9040;  // flood phase total: 10 000
constexpr double kP99FloorSeconds = 0.015;
constexpr double kP99Budget = 3.0;

const char* victim_name(int v) {
  static const char* kNames[kVictims] = {"alice", "bob", "carol"};
  return kNames[v];
}

service::RunRequest make_request(const std::string& tenant, int i) {
  service::RunRequest request;
  request.image_reference = "spcl/minimd:ir";
  request.selections = {{"MD_SIMD", i % 2 == 0 ? "SSE4.1" : "AVX_512"}};
  request.workload = apps::minimd_workload(kParams);
  request.threads = 1;
  request.tenant = tenant;
  return request;
}

service::ClusterOptions cluster_options() {
  service::ClusterOptions options;
  options.gateways = 4;
  options.dispatchers_per_gateway = 2;
  options.max_pending = 8192;  // victims must shed nothing
  return options;
}

struct VictimStats {
  std::vector<double> latencies;  // total_seconds per request
  int completed = 0;
  int wrong = 0;
};

double p99(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t index =
      std::min(samples.size() - 1,
               static_cast<std::size_t>(0.99 * static_cast<double>(
                                                   samples.size())));
  return samples[index];
}

/// One victim submits sequentially (submit, wait, repeat): its measured
/// latency is exactly what a well-behaved interactive tenant sees.
VictimStats run_victim(service::Cluster& cluster, const std::string& tenant,
                       const std::map<std::string, std::string>& reference) {
  VictimStats stats;
  stats.latencies.reserve(kPerVictim);
  for (int i = 0; i < kPerVictim; ++i) {
    const auto result = cluster.submit(make_request(tenant, i)).get();
    if (!result.result.ok) continue;
    ++stats.completed;
    stats.latencies.push_back(result.total_seconds);
    const std::string& want =
        reference.at(i % 2 == 0 ? "SSE4.1" : "AVX_512");
    if (result.result.numerics_digest != want) ++stats.wrong;
  }
  return stats;
}

int run() {
  bench::print_header(
      "Cluster fairness",
      "4 gateways x 32 nodes, 3 victims + 1 flooding tenant, 10k "
      "requests, WFQ + token-bucket admission, work stealing");

  apps::MinimdOptions app_options;
  app_options.module_count = 4;
  app_options.gpu_module_count = 1;
  const Application app = apps::make_minimd(app_options);
  IrBuildOptions build_options;
  build_options.points = {{"MD_SIMD", {"SSE4.1", "AVX_512"}}};
  const auto build = build_ir_container(app, isa::Arch::X86_64, build_options);
  if (!build.ok) {
    std::printf("IR container build failed: %s\n", build.error.c_str());
    return 1;
  }

  // Reference digests: direct deploy+run per request class, before any
  // cluster exists. The fleet is homogeneous, so one digest per class.
  const vm::NodeSpec reference_node = vm::node("ault23");
  std::map<std::string, std::string> reference;
  for (const std::string simd : {"SSE4.1", "AVX_512"}) {
    IrDeployOptions deploy_options;
    deploy_options.selections = {{"MD_SIMD", simd}};
    const auto direct =
        deploy_ir_container(build.image, reference_node, deploy_options);
    if (!direct.ok) {
      std::printf("reference deploy failed (%s): %s\n", simd.c_str(),
                  direct.error.c_str());
      return 1;
    }
    vm::Workload workload = apps::minimd_workload(kParams);
    const auto run = direct.run_on(reference_node, workload, 1);
    if (!run.ok) {
      std::printf("reference run failed (%s): %s\n", simd.c_str(),
                  run.error.c_str());
      return 1;
    }
    reference[simd] = service::numerics_digest(run, workload);
  }

  const auto run_victims = [&](service::Cluster& cluster) {
    std::vector<VictimStats> stats(kVictims);
    std::vector<std::thread> threads;
    for (int v = 0; v < kVictims; ++v) {
      threads.emplace_back([&, v] {
        stats[static_cast<std::size_t>(v)] =
            run_victim(cluster, victim_name(v), reference);
      });
    }
    for (auto& thread : threads) thread.join();
    return stats;
  };

  // Phase 1 — baseline: victims alone on the cluster.
  std::vector<double> baseline_all;
  {
    service::Cluster cluster(
        vm::simulated_fleet(vm::node("ault23"), 32, "node-"),
        cluster_options());
    cluster.push(build.image, "spcl/minimd:ir");
    for (auto& stats : run_victims(cluster)) {
      if (stats.completed != kPerVictim || stats.wrong != 0) {
        std::printf("baseline victim run degraded (%d/%d ok, %d wrong)\n",
                    stats.completed, kPerVictim, stats.wrong);
        return 1;
      }
      baseline_all.insert(baseline_all.end(), stats.latencies.begin(),
                          stats.latencies.end());
    }
  }
  const double p99_base = p99(baseline_all);

  // Phase 2 — flood: same victim load plus the flooding tenant.
  service::ClusterOptions options = cluster_options();
  options.tenant_quotas["mallory"] = {/*rate=*/400.0, /*burst=*/32.0,
                                      /*weight=*/0.25};
  service::Cluster cluster(
      vm::simulated_fleet(vm::node("ault23"), 32, "node-"), options);
  cluster.push(build.image, "spcl/minimd:ir");

  const auto t_flood = Clock::now();
  std::vector<VictimStats> flood_stats(kVictims);
  std::vector<std::thread> threads;
  for (int v = 0; v < kVictims; ++v) {
    threads.emplace_back([&, v] {
      flood_stats[static_cast<std::size_t>(v)] =
          run_victim(cluster, victim_name(v), reference);
    });
  }
  std::vector<std::future<service::ClusterRunResult>> flood_futures;
  flood_futures.reserve(kFloodRequests);
  threads.emplace_back([&] {
    // The flood: one hot request class, fired as fast as submit returns;
    // the token bucket turns the excess into immediate quota denials.
    for (int i = 0; i < kFloodRequests; ++i) {
      flood_futures.push_back(
          cluster.submit(make_request("mallory", /*i=*/1)));
    }
  });
  for (auto& thread : threads) thread.join();

  std::uint64_t flood_ok = 0, flood_denied = 0, flood_other = 0;
  std::uint64_t flood_wrong = 0, flood_stolen = 0;
  double min_retry_after = 1e9;
  for (auto& future : flood_futures) {
    const auto result = future.get();
    if (result.result.ok) {
      ++flood_ok;
      if (result.stolen) ++flood_stolen;
      if (result.result.numerics_digest != reference.at("AVX_512")) {
        ++flood_wrong;
      }
    } else if (result.result.code == service::ErrorCode::QuotaExceeded) {
      ++flood_denied;
      min_retry_after =
          std::min(min_retry_after, result.result.retry_after_seconds);
    } else {
      ++flood_other;
    }
  }
  const double flood_wall =
      std::chrono::duration<double>(Clock::now() - t_flood).count();

  std::vector<double> flood_all;
  int victims_completed = 0, victims_wrong = 0;
  for (const auto& stats : flood_stats) {
    victims_completed += stats.completed;
    victims_wrong += stats.wrong;
    flood_all.insert(flood_all.end(), stats.latencies.begin(),
                     stats.latencies.end());
  }
  const double p99_flood = p99(flood_all);
  const double p99_bound = kP99Budget * std::max(p99_base, kP99FloorSeconds);

  // Exact reconciliation over the flood-phase cluster.
  const auto snap = cluster.snapshot();
  const std::uint64_t total_requests =
      static_cast<std::uint64_t>(kVictims) * kPerVictim + kFloodRequests;
  std::uint64_t per_gateway_stolen = 0, per_gateway_served = 0;
  for (std::size_t g = 0; g < cluster.gateway_count(); ++g) {
    const std::string& name = cluster.gateway_name(g);
    per_gateway_stolen += snap.counter("gateway." + name + ".stolen");
    per_gateway_served += snap.counter("gateway." + name + ".served");
  }
  bool per_tenant_consistent = true;
  for (int v = 0; v < kVictims; ++v) {
    const std::string tenant = victim_name(v);
    per_tenant_consistent =
        per_tenant_consistent &&
        snap.counter("tenant." + tenant + ".requests") ==
            static_cast<std::uint64_t>(kPerVictim) &&
        snap.counter("tenant." + tenant + ".admitted") ==
            static_cast<std::uint64_t>(kPerVictim) &&
        snap.counter("tenant." + tenant + ".completed") ==
            static_cast<std::uint64_t>(kPerVictim) &&
        snap.histograms.at("tenant." + tenant + ".total_seconds").count ==
            static_cast<std::uint64_t>(kPerVictim);
  }
  const bool reconciles =
      snap.counter("cluster.requests") == total_requests &&
      snap.counter("cluster.requests") ==
          snap.counter("cluster.admitted") +
              snap.counter("cluster.rejected") + snap.counter("cluster.shed") +
              snap.counter("cluster.quota_denied") &&
      snap.counter("cluster.admitted") ==
          snap.counter("cluster.completed") +
              snap.counter("cluster.failed") &&
      snap.counter("cluster.failed") == 0 &&
      snap.counter("cluster.quota_denied") == flood_denied &&
      snap.counter("tenant.mallory.quota_denied") == flood_denied &&
      snap.counter("tenant.mallory.completed") == flood_ok &&
      snap.counter("cluster.stolen") == per_gateway_stolen &&
      snap.counter("cluster.admitted") == per_gateway_served &&
      per_tenant_consistent && flood_other == 0 && cluster.pending() == 0;

  const bool victims_whole =
      victims_completed == kVictims * kPerVictim && victims_wrong == 0;
  const bool latency_ok = p99_flood <= p99_bound;
  const bool answers_ok = victims_wrong == 0 && flood_wrong == 0;
  const bool quota_hints_ok =
      flood_denied == 0 || (min_retry_after > 0.0 && min_retry_after < 1e9);

  common::Table table({"Metric", "Value"});
  table.add_row({"requests (flood phase)", std::to_string(total_requests)});
  table.add_row({"victim completed",
                 std::to_string(victims_completed) + " / " +
                     std::to_string(kVictims * kPerVictim)});
  table.add_row({"victim p99 baseline (s)", common::Table::num(p99_base, 5)});
  table.add_row({"victim p99 flooded (s)", common::Table::num(p99_flood, 5)});
  table.add_row({"victim p99 bound (s)", common::Table::num(p99_bound, 5)});
  table.add_row({"flooder admitted", std::to_string(flood_ok)});
  table.add_row({"flooder quota-denied", std::to_string(flood_denied)});
  table.add_row({"flooder served by thief", std::to_string(flood_stolen)});
  table.add_row({"steals (cluster)",
                 std::to_string(snap.counter("cluster.stolen"))});
  table.add_row({"steals skipped (unprofitable)",
                 std::to_string(snap.counter("cluster.steal_skipped"))});
  table.add_row({"cross-gateway fills",
                 std::to_string(snap.counter("cluster.fills"))});
  table.add_row({"wrong answers", std::to_string(victims_wrong + flood_wrong)});
  table.add_row({"flood wall (s)", common::Table::num(flood_wall, 3)});
  std::printf("%s", table.to_string().c_str());
  std::printf("%s", snap.render().c_str());

  const bool pass = victims_whole && latency_ok && answers_ok &&
                    quota_hints_ok && reconciles;
  std::printf(
      "acceptance (victim p99 within %gx, zero wrong answers, quota "
      "hints positive, telemetry reconciles): %s\n",
      kP99Budget, pass ? "PASS" : "FAIL");
  if (!latency_ok) {
    std::printf("  victim p99 %.5fs exceeds bound %.5fs\n", p99_flood,
                p99_bound);
  }
  if (!reconciles) std::printf("  telemetry failed to reconcile\n");
  if (!victims_whole) std::printf("  victim requests lost or degraded\n");
  if (!quota_hints_ok) std::printf("  quota denial retry hints invalid\n");
  return pass ? 0 : 1;
}

}  // namespace
}  // namespace xaas

int main() { return xaas::run(); }
