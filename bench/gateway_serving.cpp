// Gateway serving bench: the end-to-end request loop of the XaaS service
// (§2/§7 — deploy + run behind one front door). N client threads submit
// M requests each — mixed IR configurations plus auto-specialized source
// builds — over a heterogeneous fleet (AVX-512 batch nodes + AVX2 edge
// nodes) to a one-gateway Cluster: the Cluster admits and queues, its
// dispatchers call Gateway::serve, which routes, specializes, and
// executes every one.
//
// Acceptance gate (exit status):
//  - every result is bit-identical (numerics digest: returns, cost
//    model, buffers) to a direct deploy+run on the same
//    microarchitecture;
//  - at least one specialization was reused across concurrent requests
//    (spec_cache.misses < requests);
//  - the telemetry snapshots reconcile exactly with the run: every
//    request admitted by the cluster and completed by the gateway,
//    histogram counts match, WFQ drained.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <thread>
#include <vector>

#include "bench/bench_util.hpp"
#include "service/cluster.hpp"

namespace xaas {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

constexpr int kClients = 4;
constexpr int kPerClient = 12;
constexpr apps::MdWorkloadParams kParams{64, 8, 4, 64};

service::RunRequest make_request(int klass) {
  service::RunRequest request;
  request.workload = apps::minimd_workload(kParams);
  request.threads = 2;
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
  bench::print_header("Gateway serving",
                      "4 clients x 12 requests, mixed source/IR, "
                      "heterogeneous fleet, live telemetry");

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

  // Heterogeneous fleet: 4 AVX-512 batch nodes, 2 AVX2 edge nodes.
  std::vector<vm::NodeSpec> fleet;
  for (auto& n : vm::simulated_fleet(vm::node("ault23"), 4, "batch-")) {
    fleet.push_back(std::move(n));
  }
  for (auto& n : vm::simulated_fleet(vm::node("devbox"), 2, "edge-")) {
    fleet.push_back(std::move(n));
  }
  const vm::NodeSpec batch_ref = fleet[0];
  const vm::NodeSpec edge_ref = fleet[4];

  service::ClusterOptions options;
  options.gateways = 1;
  options.dispatchers_per_gateway = 4;
  service::Cluster cluster(fleet, options);
  cluster.push(build.image, "spcl/minimd:ir");
  cluster.push(source_image, "spcl/minimd:src");
  service::Gateway& gateway = cluster.gateway(0);

  // Serial uncached reference digests, one per (class, microarch group),
  // computed before the service touches anything.
  std::map<std::pair<int, bool>, std::string> reference;
  for (const bool is_batch : {true, false}) {
    const vm::NodeSpec& node = is_batch ? batch_ref : edge_ref;
    for (int klass = 0; klass < 3; ++klass) {
      DeployedApp direct;
      if (klass == 2) {
        direct = deploy_source_container(source_image, app, node);
      } else {
        IrDeployOptions deploy_options;
        deploy_options.selections = make_request(klass).selections;
        direct = deploy_ir_container(build.image, node, deploy_options);
      }
      if (!direct.ok) {
        std::printf("reference deploy failed (class %d): %s\n", klass,
                    direct.error.c_str());
        return 1;
      }
      vm::Workload workload = apps::minimd_workload(kParams);
      const auto run = direct.run_on(node, workload, 2);
      if (!run.ok) {
        std::printf("reference run failed (class %d): %s\n", klass,
                    run.error.c_str());
        return 1;
      }
      reference[{klass, is_batch}] =
          service::numerics_digest(run, workload);
    }
  }

  // The serving run: N clients submit concurrently.
  const auto t_serve = Clock::now();
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

  int completed = 0, identical = 0, cache_hits = 0;
  double worst_total = 0.0;
  for (int c = 0; c < kClients; ++c) {
    for (int i = 0; i < kPerClient; ++i) {
      const auto served = futures[c][i].get();
      const service::RunResult& result = served.result;
      if (!result.ok) {
        std::printf("request failed: %s\n", result.error.c_str());
        continue;
      }
      ++completed;
      if (result.spec_cache_hit) ++cache_hits;
      worst_total = std::max(worst_total, served.total_seconds);
      const bool is_batch = result.node_name.rfind("batch-", 0) == 0;
      const int klass = (c + i) % 3;
      if (result.numerics_digest == reference.at({klass, is_batch})) {
        ++identical;
      } else {
        std::printf("digest mismatch: class %d on %s\n", klass,
                    result.node_name.c_str());
      }
    }
  }
  const double serve_s = seconds_since(t_serve);

  constexpr int kTotal = kClients * kPerClient;
  const auto cluster_snap = cluster.snapshot();
  const auto snap = gateway.snapshot();
  const auto misses = snap.counter("spec_cache.misses");
  const auto hits = snap.counter("spec_cache.hits");

  common::Table table({"Metric", "Value"});
  table.add_row({"requests", std::to_string(kTotal)});
  table.add_row({"completed", std::to_string(completed)});
  table.add_row({"bit-identical to direct", std::to_string(identical)});
  table.add_row({"specializations performed", std::to_string(misses)});
  table.add_row({"specializations reused", std::to_string(hits)});
  table.add_row({"TU compiles / hits",
                 std::to_string(snap.counter("tu_cache.compiles")) + " / " +
                     std::to_string(snap.counter("tu_cache.hits"))});
  table.add_row({"wall (s)", common::Table::num(serve_s, 3)});
  table.add_row({"worst request latency (s)",
                 common::Table::num(worst_total, 3)});
  std::printf("%s", table.to_string().c_str());
  std::printf("%s", gateway.render_telemetry().c_str());

  // Telemetry consistency: admission, completion, histograms, drain.
  const bool telemetry_consistent =
      cluster_snap.counter("cluster.requests") == kTotal &&
      cluster_snap.counter("cluster.admitted") == kTotal &&
      cluster_snap.counter("cluster.rejected") == 0 &&
      cluster_snap.counter("cluster.shed") == 0 &&
      cluster_snap.counter("cluster.completed") ==
          static_cast<std::uint64_t>(completed) &&
      cluster_snap.counter("cluster.failed") == 0 &&
      snap.counter("gateway.completed") ==
          static_cast<std::uint64_t>(completed) &&
      snap.counter("gateway.failed") == 0 &&
      snap.histograms.at("gateway.total_seconds").count == kTotal &&
      snap.histograms.at("gateway.deploy_seconds").count == kTotal &&
      snap.histograms.at("gateway.run_seconds").count == kTotal &&
      hits + misses == kTotal &&
      snap.histograms.at("spec_cache.lowering_seconds").count == misses &&
      snap.counter("vm.runs") == kTotal && cluster.pending() == 0;

  const bool pass = completed == kTotal && identical == kTotal &&
                    misses < kTotal && telemetry_consistent;
  std::printf(
      "acceptance (all bit-identical, specializations reused, telemetry "
      "consistent): %s\n",
      pass ? "PASS" : "FAIL");
  if (!telemetry_consistent) std::printf("  telemetry inconsistent\n");
  return pass ? 0 : 1;
}

}  // namespace
}  // namespace xaas

int main() { return xaas::run(); }
