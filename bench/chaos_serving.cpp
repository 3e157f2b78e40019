// Chaos serving bench: the gateway_serving request loop (a one-gateway
// Cluster) re-run under a deterministic FaultPlan — crashed nodes, flaky
// TU builds, flaky IR lowering, artifact-store I/O errors and silent
// corruption — over a 32-node fleet with 3 nodes crashed. The reliability layer (retries
// with backoff, per-node circuit breakers, negative-result poisoning,
// store verification) must absorb every injected fault.
//
// Acceptance gate (exit status):
//  - every non-shed request completes ok and bit-identical (numerics
//    digest) to a healthy-fleet reference — zero wrong answers;
//  - no result ran on a crashed node;
//  - chaos actually happened (injected crash + build/store faults > 0);
//  - telemetry is exactly consistent after drain: cluster.requests ==
//    admitted + rejected + shed + quota_denied, completed + failed ==
//    admitted (in the cluster and in the gateway), gateway.retries ==
//    sum(attempts - 1), gateway.breaker_open == sum of breaker trips,
//    fault.<site> counters == the plan's injected_by_site(), WFQ
//    drained to zero;
//  - p99 latency from cluster admission stays bounded (backoff is
//    capped, breakers shortcut crashed nodes).
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <map>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "bench/bench_util.hpp"
#include "service/cluster.hpp"
#include "service/fault.hpp"

namespace xaas {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

constexpr int kClients = 4;
constexpr int kPerClient = 24;
constexpr int kTotal = kClients * kPerClient;
constexpr int kFleetSize = 32;
constexpr double kP99BoundSeconds = 5.0;
constexpr apps::MdWorkloadParams kParams{64, 8, 4, 64};

const char* kCrashed[] = {"node-0", "node-7", "node-19"};

bool is_crashed(const std::string& name) {
  for (const char* crashed : kCrashed) {
    if (name == crashed) return true;
  }
  return false;
}

service::RunRequest make_request(int klass) {
  service::RunRequest request;
  request.workload = apps::minimd_workload(kParams);
  request.threads = 2;
  request.deadline_seconds = 30.0;  // generous: exercises the plumbing
  switch (klass) {
    case 0:
      request.image_reference = "spcl/minimd:ir";
      request.selections = {{"MD_SIMD", "AVX_512"}};
      break;
    case 1:
      request.image_reference = "spcl/minimd:ir";
      request.selections = {{"MD_SIMD", "SSE4.1"}};
      break;
    default:
      request.image_reference = "spcl/minimd:src";  // auto-specialized build
      break;
  }
  return request;
}

int run() {
  bench::print_header(
      "Chaos serving",
      "4 clients x 24 requests over a 32-node fleet: 3 nodes crashed, "
      "flaky TU builds + IR lowering, store I/O faults + corruption");

  apps::MinimdOptions app_options;
  app_options.module_count = 8;
  app_options.gpu_module_count = 1;
  const Application app = apps::make_minimd(app_options);
  IrBuildOptions build_options;
  build_options.points = {{"MD_SIMD", {"SSE4.1", "AVX_512"}}};
  const auto build = build_ir_container(app, isa::Arch::X86_64, build_options);
  if (!build.ok) {
    std::printf("IR container build failed: %s\n", build.error.c_str());
    return 1;
  }
  const container::Image source_image =
      build_source_image(app, isa::Arch::X86_64);

  const std::vector<vm::NodeSpec> fleet =
      vm::simulated_fleet(vm::node("ault23"), kFleetSize, "node-");

  // Healthy reference digests, one per request class, computed with no
  // fault plan installed (the fleet is homogeneous, so one digest per
  // class covers every node).
  std::map<int, std::string> reference;
  for (int klass = 0; klass < 3; ++klass) {
    DeployedApp direct;
    if (klass == 2) {
      direct = deploy_source_container(source_image, app, fleet[1]);
    } else {
      IrDeployOptions deploy_options;
      deploy_options.selections = make_request(klass).selections;
      direct = deploy_ir_container(build.image, fleet[1], deploy_options);
    }
    if (!direct.ok) {
      std::printf("reference deploy failed (class %d): %s\n", klass,
                  direct.error.c_str());
      return 1;
    }
    vm::Workload workload = apps::minimd_workload(kParams);
    const auto healthy = direct.run_on(fleet[1], workload, 2);
    if (!healthy.ok) {
      std::printf("reference run failed (class %d): %s\n", klass,
                  healthy.error.c_str());
      return 1;
    }
    reference[klass] = service::numerics_digest(healthy, workload);
  }

  const std::filesystem::path store_root =
      std::filesystem::temp_directory_path() /
      ("xaas-chaos-bench-" + std::to_string(::getpid()));
  std::error_code ec;
  std::filesystem::remove_all(store_root, ec);

  // The plan outlives the cluster: its observer feeds gateway telemetry
  // and hooks stay installed through the destructor's drain.
  service::fault::FaultPlan plan(2025);
  for (const char* crashed : kCrashed) plan.crash_node(crashed);
  plan.set_probability(service::fault::kTuBuild, 0.10);
  plan.set_probability(service::fault::kIrLower, 0.10);
  plan.set_probability(service::fault::kStoreRead, 0.05);
  plan.set_probability(service::fault::kStoreWrite, 0.05);
  plan.set_probability(service::fault::kStoreCorrupt, 0.05);
  plan.set_slowdown_seconds(0.001);
  plan.set_probability(service::fault::kNodeSlow, 0.02);

  // One gateway behind the Cluster's admission layer.
  service::ClusterOptions options;
  options.gateways = 1;
  options.dispatchers_per_gateway = 4;
  options.max_pending = 128;  // depth shedding armed, not expected
  options.gateway.artifact_dir = (store_root / "store").string();
  options.gateway.retry.max_attempts = 16;
  options.gateway.breaker.failure_threshold = 2;
  options.gateway.breaker.open_seconds = 0.25;
  service::Cluster cluster(fleet, options);
  cluster.push(build.image, "spcl/minimd:ir");
  cluster.push(source_image, "spcl/minimd:src");
  service::Gateway& gateway = cluster.gateway(0);
  gateway.observe_fault_plan(plan);

  // The chaos run: faults injected from here until every future is
  // resolved; the guard uninstalls the hooks before the snapshot.
  const auto t_serve = Clock::now();
  std::vector<service::RunResult> results(kTotal);
  {
    service::fault::ScopedFaultPlan guard(plan);
    std::vector<std::vector<std::future<service::ClusterRunResult>>> futures(
        kClients);
    std::vector<std::thread> clients;
    clients.reserve(kClients);
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        for (int i = 0; i < kPerClient; ++i) {
          futures[c].push_back(cluster.submit(make_request((c + i) % 3)));
        }
      });
    }
    for (auto& client : clients) client.join();
    for (int c = 0; c < kClients; ++c) {
      for (int i = 0; i < kPerClient; ++i) {
        results[c * kPerClient + i] = futures[c][i].get().result;
      }
    }
  }
  const double serve_s = seconds_since(t_serve);

  int ok_count = 0, shed_count = 0, wrong = 0, on_crashed = 0;
  std::uint64_t attempts_minus_one = 0;
  for (int idx = 0; idx < kTotal; ++idx) {
    const auto& result = results[idx];
    if (result.attempts > 0) {
      attempts_minus_one += static_cast<std::uint64_t>(result.attempts - 1);
    }
    if (result.code == service::ErrorCode::Shed) {
      ++shed_count;
      if (result.retry_after_seconds <= 0.0) {
        std::printf("shed result missing retry_after hint\n");
        ++wrong;
      }
      continue;
    }
    if (!result.ok) {
      std::printf("request %d failed [%.*s]: %s\n", idx,
                  static_cast<int>(service::to_string(result.code).size()),
                  service::to_string(result.code).data(),
                  result.error.c_str());
      ++wrong;
      continue;
    }
    if (is_crashed(result.node_name)) {
      std::printf("request %d completed on crashed node %s\n", idx,
                  result.node_name.c_str());
      ++on_crashed;
    }
    const int klass = (idx / kPerClient + idx % kPerClient) % 3;
    if (result.numerics_digest == reference.at(klass)) {
      ++ok_count;
    } else {
      std::printf("digest mismatch: request %d class %d on %s\n", idx, klass,
                  result.node_name.c_str());
      ++wrong;
    }
  }

  std::uint64_t trips = 0;
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    trips += gateway.node_breaker(i).trips();
  }

  const auto cluster_snap = cluster.snapshot();
  const auto snap = gateway.snapshot();
  const auto& total_hist = snap.histograms.at("gateway.total_seconds");
  // Latency from cluster admission (WFQ wait included) to completion.
  const double p99 = cluster_snap.histograms.at("tenant.default.total_seconds")
                         .quantile_upper_seconds(0.99);
  const auto by_site = plan.injected_by_site();
  bool fault_counters_match = true;
  for (const auto& [site, injected] : by_site) {
    if (snap.counter("fault." + site) != injected) {
      std::printf("fault counter mismatch for %s: %llu != %llu\n",
                  site.c_str(),
                  static_cast<unsigned long long>(snap.counter("fault." + site)),
                  static_cast<unsigned long long>(injected));
      fault_counters_match = false;
    }
  }
  const std::uint64_t crash_injections =
      by_site.count(std::string(service::fault::kNodeCrash))
          ? by_site.at(std::string(service::fault::kNodeCrash))
          : 0;

  common::Table table({"Metric", "Value"});
  table.add_row({"requests", std::to_string(kTotal)});
  table.add_row({"ok + bit-identical", std::to_string(ok_count)});
  table.add_row({"shed (degraded)", std::to_string(shed_count)});
  table.add_row({"faults injected", std::to_string(plan.total_injected())});
  table.add_row({"  crash hits", std::to_string(crash_injections)});
  table.add_row({"retries", std::to_string(snap.counter("gateway.retries"))});
  table.add_row(
      {"breaker trips", std::to_string(snap.counter("gateway.breaker_open"))});
  table.add_row({"store verify failures",
                 std::to_string(snap.counter("artifact_store.verify_failures"))});
  table.add_row({"p99 latency (s)", common::Table::num(p99, 4)});
  table.add_row({"wall (s)", common::Table::num(serve_s, 3)});
  std::printf("%s", table.to_string().c_str());
  std::printf("%s", gateway.render_telemetry().c_str());

  const auto total = static_cast<std::uint64_t>(kTotal);
  const auto shed = static_cast<std::uint64_t>(shed_count);
  const auto admitted = cluster_snap.counter("cluster.admitted");
  const bool telemetry_consistent =
      cluster_snap.counter("cluster.requests") == total &&
      admitted + cluster_snap.counter("cluster.rejected") +
              cluster_snap.counter("cluster.shed") +
              cluster_snap.counter("cluster.quota_denied") ==
          total &&
      cluster_snap.counter("cluster.shed") == shed &&
      cluster_snap.counter("cluster.rejected") == 0 &&
      cluster_snap.counter("cluster.completed") +
              cluster_snap.counter("cluster.failed") ==
          admitted &&
      snap.counter("gateway.completed") + snap.counter("gateway.failed") ==
          admitted &&
      snap.counter("gateway.completed") ==
          static_cast<std::uint64_t>(ok_count) &&
      snap.counter("gateway.retries") == attempts_minus_one &&
      snap.counter("gateway.breaker_open") == trips &&
      snap.counter("gateway.deadline_exceeded") == 0 &&
      total_hist.count == admitted && fault_counters_match &&
      cluster.pending() == 0;

  const bool chaos_happened =
      crash_injections > 0 && plan.total_injected() > crash_injections;
  const bool pass = wrong == 0 && on_crashed == 0 &&
                    ok_count + shed_count == kTotal && chaos_happened &&
                    telemetry_consistent && p99 < kP99BoundSeconds;
  std::printf(
      "acceptance (zero wrong answers, crashed nodes avoided, chaos "
      "injected, telemetry exactly consistent, p99 < %.1fs): %s\n",
      kP99BoundSeconds, pass ? "PASS" : "FAIL");
  if (!telemetry_consistent) std::printf("  telemetry inconsistent\n");
  if (!chaos_happened) std::printf("  no faults injected -- plan inert\n");
  if (p99 >= kP99BoundSeconds) std::printf("  p99 unbounded: %.3fs\n", p99);

  std::filesystem::remove_all(store_root, ec);
  return pass ? 0 : 1;
}

}  // namespace
}  // namespace xaas

int main() { return xaas::run(); }
