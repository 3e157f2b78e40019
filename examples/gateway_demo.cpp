// Gateway demo: the full XaaS service loop in one program (§2/§7).
//
// A build machine pushes two containers — an IR container with baked
// SIMD configurations and a source container that builds on-node — into
// a one-gateway Cluster. Clients then submit *work* (image + config +
// workload + priority); the Cluster admits and queues it (priority
// first), and the gateway routes by ISA compatibility and load,
// specializes through the shared caches, executes on the pre-decoded
// program, and answers with numerics, per-stage latencies, and which
// caches hit. The gateway's live telemetry snapshot is printed at the
// end.
#include <cstdio>
#include <vector>

#include "apps/minimd.hpp"
#include "common/table.hpp"
#include "service/cluster.hpp"
#include "xaas/ir_pipeline.hpp"

using namespace xaas;

int main() {
  // Build machine: one IR container (two SIMD configurations) and one
  // source container of the same MD app.
  apps::MinimdOptions app_options;
  app_options.module_count = 8;
  app_options.gpu_module_count = 1;
  const Application app = apps::make_minimd(app_options);
  IrBuildOptions build_options;
  build_options.points = {{"MD_SIMD", {"SSE4.1", "AVX_512"}}};
  const auto build = build_ir_container(app, isa::Arch::X86_64, build_options);
  if (!build.ok) {
    std::printf("IR build failed: %s\n", build.error.c_str());
    return 1;
  }
  const container::Image source_image =
      build_source_image(app, isa::Arch::X86_64);

  // The platform: 3 AVX-512 batch nodes + 1 AVX2 edge node behind one
  // gateway, served by two dispatchers.
  std::vector<vm::NodeSpec> fleet;
  for (auto& n : vm::simulated_fleet(vm::node("ault23"), 3, "batch-")) {
    fleet.push_back(std::move(n));
  }
  for (auto& n : vm::simulated_fleet(vm::node("devbox"), 1, "edge-")) {
    fleet.push_back(std::move(n));
  }
  service::ClusterOptions options;
  options.gateways = 1;
  options.dispatchers_per_gateway = 2;
  service::Cluster cluster(std::move(fleet), options);
  cluster.push(build.image, "spcl/minimd:ir");
  cluster.push(source_image, "spcl/minimd:src");
  const service::Gateway& gateway = cluster.gateway(0);
  std::printf("pushed spcl/minimd:ir and spcl/minimd:src; fleet of %zu\n",
              gateway.fleet().size());

  // Clients: a batch of mixed requests, one marked latency-critical.
  std::vector<service::RunRequest> requests;
  for (int i = 0; i < 8; ++i) {
    service::RunRequest request;
    request.workload = apps::minimd_workload({64, 8, 4, 64});
    request.threads = 4;
    if (i % 3 == 2) {
      request.image_reference = "spcl/minimd:src";  // build on node
    } else {
      request.image_reference = "spcl/minimd:ir";
      request.selections = {{"MD_SIMD", i % 3 == 0 ? "AVX_512" : "SSE4.1"}};
    }
    if (i == 5) request.priority = 10;  // jump the queue
    requests.push_back(std::move(request));
  }
  const auto results = cluster.run_all(std::move(requests));

  common::Table table({"Node", "Config", "Cache", "Deploy ms", "Run ms",
                       "Energy", "Done#"});
  for (const auto& served : results) {
    const service::RunResult& r = served.result;
    if (!r.ok) {
      table.add_row({r.node_name.empty() ? "-" : r.node_name, "-", "-", "-",
                     "-", "failed: " + r.error, "-"});
      continue;
    }
    table.add_row({r.node_name, r.configuration,
                   r.spec_cache_hit ? "hit" : "specialized",
                   common::Table::num(r.deploy_seconds * 1e3, 2),
                   common::Table::num(r.run_seconds * 1e3, 2),
                   common::Table::num(r.run.ret_f64, 3),
                   std::to_string(r.completion_seq)});
  }
  std::printf("%s", table.to_string().c_str());

  std::printf("%s", gateway.render_telemetry().c_str());
  return 0;
}
