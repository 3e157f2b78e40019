#include "service/gateway.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <limits>
#include <map>
#include <thread>

#include "apps/minimd.hpp"
#include "xaas/ir_pipeline.hpp"

namespace xaas::service {
namespace {

Application make_app(int modules = 4) {
  apps::MinimdOptions options;
  options.module_count = modules;
  options.gpu_module_count = 1;
  return apps::make_minimd(options);
}

container::Image make_ir_image(const Application& app) {
  IrBuildOptions options;
  options.points = {{"MD_SIMD", {"SSE4.1", "AVX_512"}}};
  const auto build = build_ir_container(app, isa::Arch::X86_64, options);
  EXPECT_TRUE(build.ok) << build.error;
  return build.image;
}

RunRequest ir_request(const std::string& simd,
                      apps::MdWorkloadParams params = {64, 8, 4, 64}) {
  RunRequest request;
  request.image_reference = "spcl/minimd:ir";
  request.selections = {{"MD_SIMD", simd}};
  request.workload = apps::minimd_workload(params);
  request.threads = 2;
  return request;
}

TEST(Gateway, SingleRequestMatchesDirectDeployAndRun) {
  const Application app = make_app();
  const container::Image ir_image = make_ir_image(app);

  GatewayOptions options;
  options.worker_threads = 2;
  Gateway gateway({vm::node("ault23")}, options);
  gateway.push(ir_image, "spcl/minimd:ir");

  auto result = gateway.submit(ir_request("AVX_512")).get();
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.node_name, "ault23");
  EXPECT_FALSE(result.spec_cache_hit);  // first request lowers
  EXPECT_FALSE(result.configuration.empty());
  EXPECT_GT(result.total_seconds, 0.0);
  EXPECT_GE(result.total_seconds,
            result.deploy_seconds + result.run_seconds - 1e-9);

  // Reference: direct deploy + run on the same node, no gateway.
  IrDeployOptions deploy_options;
  deploy_options.selections = {{"MD_SIMD", "AVX_512"}};
  const DeployedApp direct =
      deploy_ir_container(ir_image, vm::node("ault23"), deploy_options);
  ASSERT_TRUE(direct.ok) << direct.error;
  vm::Workload workload = apps::minimd_workload({64, 8, 4, 64});
  const auto direct_run = direct.run_on(vm::node("ault23"), workload, 2);
  ASSERT_TRUE(direct_run.ok) << direct_run.error;

  EXPECT_EQ(result.image_digest, direct.image.digest());
  EXPECT_EQ(result.numerics_digest, numerics_digest(direct_run, workload));
  EXPECT_EQ(result.run.ret_f64, direct_run.ret_f64);
  EXPECT_EQ(result.run.elapsed_seconds, direct_run.elapsed_seconds);

  // A second identical request reuses the cached specialization.
  auto second = gateway.submit(ir_request("AVX_512")).get();
  ASSERT_TRUE(second.ok) << second.error;
  EXPECT_TRUE(second.spec_cache_hit);
  EXPECT_EQ(second.numerics_digest, result.numerics_digest);

  const auto snap = gateway.snapshot();
  EXPECT_EQ(snap.counter("gateway.requests"), 2u);
  EXPECT_EQ(snap.counter("gateway.completed"), 2u);
  EXPECT_EQ(snap.counter("spec_cache.hits"), 1u);
  EXPECT_EQ(snap.counter("spec_cache.misses"), 1u);
  EXPECT_EQ(snap.counter("vm.runs"), 2u);
  EXPECT_GT(snap.counter("vm.instructions"), 0u);
  EXPECT_EQ(snap.histograms.at("gateway.total_seconds").count, 2u);
}

// Pins the numerics_digest byte encoding (docs/SERVICE.md): the fixed
// result fields, then each f64 buffer and each i64 buffer as
// name + NUL + u64 count + little-endian elements, in map order. The
// expected hex was computed by the byte-string encoder this digest
// replaced, so a drift in field order, width or endianness shows here.
TEST(Gateway, NumericsDigestGolden) {
  vm::RunResult run;
  run.ok = true;
  run.ret_f64 = -1.5;
  run.ret_i64 = -42;
  run.cycles_serial = 1234.25;
  run.cycles_parallel = 5e9;
  run.cycles_gpu = 0.0;
  run.fork_joins = 7;
  run.instructions = 123456789012LL;
  run.threads_used = 4;  // not part of the digest
  run.elapsed_seconds = 3.5e-3;

  vm::Workload workload;
  workload.f64_buffers["pos"] = {1.0, -2.5, 1e300, -0.0};
  workload.f64_buffers["empty"] = {};
  workload.i64_buffers["ids"] = {0, -1, std::numeric_limits<long long>::max(),
                                 std::numeric_limits<long long>::min()};

  EXPECT_EQ(numerics_digest(run, workload),
            "e655d65dd6ae1c02a7676ba5c80b95e77e3e42163d114c882dc7d90e3d0ca2b6");
}

TEST(Gateway, RoutesByIsaCompatibility) {
  const Application app = make_app();
  const container::Image ir_image = make_ir_image(app);

  // One AVX-512 node, one AVX2-only node.
  std::vector<vm::NodeSpec> fleet = {vm::node("ault23"), vm::node("devbox")};
  ASSERT_FALSE(isa::runs_on(isa::VectorIsa::AVX_512,
                            fleet[1].best_vector_isa()));

  GatewayOptions options;
  options.worker_threads = 2;
  Gateway gateway(std::move(fleet), options);
  gateway.push(ir_image, "spcl/minimd:ir");

  // An explicit AVX-512 march can only be served by the AVX-512 node.
  for (int i = 0; i < 3; ++i) {
    RunRequest request = ir_request("AVX_512");
    request.march = isa::VectorIsa::AVX_512;
    const auto result = gateway.submit(std::move(request)).get();
    ASSERT_TRUE(result.ok) << result.error;
    EXPECT_EQ(result.node_name, "ault23");
  }
  const auto snap = gateway.snapshot();
  EXPECT_EQ(snap.counter("spec_cache.misses"), 1u);
  EXPECT_EQ(snap.counter("spec_cache.hits"), 2u);
}

TEST(Gateway, SourceImagesRouteThroughBuildFarm) {
  const Application app = make_app();
  const container::Image source_image =
      build_source_image(app, isa::Arch::X86_64);

  GatewayOptions options;
  options.worker_threads = 2;
  Gateway gateway({vm::node("devbox")}, options);
  gateway.push(source_image, "spcl/minimd:src");

  RunRequest request;
  request.image_reference = "spcl/minimd:src";
  request.workload = apps::minimd_workload({64, 8, 4, 64});
  const auto result = gateway.submit(std::move(request)).get();
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.node_name, "devbox");

  const auto snap = gateway.snapshot();
  // The farm compiled TUs and reported them through the gateway's
  // telemetry; the whole-deployment cache registered the build as a miss.
  EXPECT_GT(snap.counter("tu_cache.compiles"), 0u);
  EXPECT_EQ(snap.counter("spec_cache.misses"), 1u);
  EXPECT_EQ(snap.histograms.at("tu_cache.compile_seconds").count,
            snap.counter("tu_cache.compiles"));
}

TEST(Gateway, UnknownImageFailsAndIsCounted) {
  GatewayOptions options;
  options.worker_threads = 1;
  Gateway gateway({vm::node("ault23")}, options);

  RunRequest request;
  request.image_reference = "spcl/unknown:tag";
  const auto result = gateway.submit(std::move(request)).get();
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("not found"), std::string::npos);

  const auto snap = gateway.snapshot();
  EXPECT_EQ(snap.counter("gateway.requests"), 1u);
  EXPECT_EQ(snap.counter("gateway.failed"), 1u);
  EXPECT_EQ(snap.counter("gateway.completed"), 0u);
}

TEST(Gateway, NoCompatibleNodeFailsCleanly) {
  const Application app = make_app();
  const container::Image ir_image = make_ir_image(app);

  GatewayOptions options;
  options.worker_threads = 1;
  Gateway gateway({vm::node("devbox")}, options);  // AVX2-only fleet
  gateway.push(ir_image, "spcl/minimd:ir");

  RunRequest request = ir_request("AVX_512");
  request.march = isa::VectorIsa::AVX_512;  // no node can execute this
  const auto result = gateway.submit(std::move(request)).get();
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("no compatible node"), std::string::npos);
}

TEST(Gateway, PriorityOrdersQueuedRequests) {
  const Application app = make_app();
  const container::Image ir_image = make_ir_image(app);

  GatewayOptions options;
  options.worker_threads = 1;  // serialize execution: queue order observable
  options.max_queue = 64;
  Gateway gateway({vm::node("ault23")}, options);
  gateway.push(ir_image, "spcl/minimd:ir");

  // A heavy first request occupies the single worker (fresh lowering plus
  // a large workload) while the prioritized batch queues up behind it.
  auto heavy = gateway.submit(ir_request("AVX_512", {512, 32, 24, 256}));
  while (gateway.queue_depth() > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  std::vector<std::future<RunResult>> low, high;
  for (int i = 0; i < 3; ++i) {
    RunRequest request = ir_request("AVX_512");
    request.priority = -5;
    low.push_back(gateway.submit(std::move(request)));
  }
  for (int i = 0; i < 3; ++i) {
    RunRequest request = ir_request("AVX_512");
    request.priority = 5;
    high.push_back(gateway.submit(std::move(request)));
  }

  const auto heavy_result = heavy.get();
  ASSERT_TRUE(heavy_result.ok) << heavy_result.error;

  std::uint64_t max_high = 0, min_low = std::numeric_limits<std::uint64_t>::max();
  for (auto& f : high) {
    const auto r = f.get();
    ASSERT_TRUE(r.ok) << r.error;
    max_high = std::max(max_high, r.completion_seq);
  }
  for (auto& f : low) {
    const auto r = f.get();
    ASSERT_TRUE(r.ok) << r.error;
    min_low = std::min(min_low, r.completion_seq);
  }
  // Every high-priority request completed before every low-priority one,
  // even though the lows were submitted first.
  EXPECT_LT(max_high, min_low);
}

TEST(Gateway, BackpressureRejectsWhenConfigured) {
  const Application app = make_app();
  const container::Image ir_image = make_ir_image(app);

  GatewayOptions options;
  options.worker_threads = 1;
  options.max_queue = 1;
  options.reject_on_full = true;
  Gateway gateway({vm::node("ault23")}, options);
  gateway.push(ir_image, "spcl/minimd:ir");

  std::vector<std::future<RunResult>> futures;
  for (int i = 0; i < 8; ++i) {
    futures.push_back(gateway.submit(ir_request("AVX_512", {256, 16, 8, 128})));
  }
  int ok = 0, rejected = 0;
  for (auto& f : futures) {
    const auto r = f.get();
    if (r.ok) {
      ++ok;
    } else {
      EXPECT_NE(r.error.find("queue full"), std::string::npos) << r.error;
      ++rejected;
    }
  }
  EXPECT_GT(ok, 0);  // at least the first request is served

  const auto snap = gateway.snapshot();
  EXPECT_EQ(snap.counter("gateway.requests"), 8u);
  EXPECT_EQ(snap.counter("gateway.admitted") +
                snap.counter("gateway.rejected"),
            8u);
  EXPECT_EQ(snap.counter("gateway.rejected"),
            static_cast<std::uint64_t>(rejected));
  EXPECT_EQ(snap.counter("gateway.completed"),
            static_cast<std::uint64_t>(ok));
  EXPECT_EQ(gateway.queue_depth(), 0u);
  EXPECT_EQ(snap.gauge("gateway.in_flight"), 0);
}

// Many concurrent clients mixing source and IR requests over a
// heterogeneous fleet: every result must be bit-identical to a serial
// uncached execution on the same microarchitecture, and the telemetry
// counters must sum consistently. Runs under TSan via the stress label.
TEST(GatewayStress, MixedClientsBitIdenticalAndCountersConsistent) {
  const Application app = make_app(4);
  const container::Image ir_image = make_ir_image(app);
  const container::Image source_image =
      build_source_image(app, isa::Arch::X86_64);

  // Heterogeneous fleet: two AVX-512 batch nodes, two AVX2 edge nodes.
  std::vector<vm::NodeSpec> fleet;
  for (auto& n : vm::simulated_fleet(vm::node("ault23"), 2, "skl-")) {
    fleet.push_back(std::move(n));
  }
  for (auto& n : vm::simulated_fleet(vm::node("devbox"), 2, "edge-")) {
    fleet.push_back(std::move(n));
  }
  const vm::NodeSpec skl_ref = fleet[0];
  const vm::NodeSpec edge_ref = fleet[2];

  GatewayOptions options;
  options.worker_threads = 4;
  options.max_queue = 8;  // exercise blocking backpressure
  Gateway gateway(fleet, options);
  gateway.push(ir_image, "spcl/minimd:ir");
  gateway.push(source_image, "spcl/minimd:src");

  const apps::MdWorkloadParams params{64, 8, 4, 64};
  const auto make_request = [&](int klass) {
    RunRequest request;
    request.workload = apps::minimd_workload(params);
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
        request.image_reference = "spcl/minimd:src";  // auto-specialized
        break;
    }
    return request;
  };

  // Serial uncached references, one per (request class, microarch group).
  std::map<std::pair<int, bool>, std::string> reference;  // (class, is_skl)
  for (const bool is_skl : {true, false}) {
    const vm::NodeSpec& node = is_skl ? skl_ref : edge_ref;
    for (int klass = 0; klass < 3; ++klass) {
      DeployedApp direct;
      if (klass == 2) {
        direct = deploy_source_container(source_image, app, node);
      } else {
        IrDeployOptions deploy_options;
        deploy_options.selections =
            make_request(klass).selections;
        direct = deploy_ir_container(ir_image, node, deploy_options);
      }
      ASSERT_TRUE(direct.ok) << direct.error;
      vm::Workload workload = apps::minimd_workload(params);
      const auto run = direct.run_on(node, workload, 2);
      ASSERT_TRUE(run.ok) << run.error;
      reference[{klass, is_skl}] = numerics_digest(run, workload);
    }
  }

  constexpr int kClients = 4;
  constexpr int kPerClient = 8;
  std::vector<std::vector<std::future<RunResult>>> futures(kClients);
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < kPerClient; ++i) {
        futures[c].push_back(gateway.submit(make_request((c + i) % 3)));
      }
    });
  }
  for (auto& client : clients) client.join();

  int completed = 0;
  for (int c = 0; c < kClients; ++c) {
    for (int i = 0; i < kPerClient; ++i) {
      const auto result = futures[c][i].get();
      ASSERT_TRUE(result.ok) << result.error;
      ++completed;
      const bool is_skl = result.node_name.rfind("skl-", 0) == 0;
      ASSERT_TRUE(is_skl || result.node_name.rfind("edge-", 0) == 0)
          << result.node_name;
      const int klass = (c + i) % 3;
      EXPECT_EQ(result.numerics_digest, reference.at({klass, is_skl}))
          << "class " << klass << " on " << result.node_name;
    }
  }
  ASSERT_EQ(completed, kClients * kPerClient);

  const auto snap = gateway.snapshot();
  const auto total = static_cast<std::uint64_t>(kClients * kPerClient);
  EXPECT_EQ(snap.counter("gateway.requests"), total);
  EXPECT_EQ(snap.counter("gateway.admitted"), total);
  EXPECT_EQ(snap.counter("gateway.rejected"), 0u);
  EXPECT_EQ(snap.counter("gateway.completed"), total);
  EXPECT_EQ(snap.counter("gateway.failed"), 0u);
  EXPECT_EQ(snap.histograms.at("gateway.total_seconds").count, total);
  EXPECT_EQ(snap.histograms.at("gateway.deploy_seconds").count, total);
  EXPECT_EQ(snap.histograms.at("gateway.run_seconds").count, total);
  EXPECT_EQ(snap.gauge("gateway.queue_depth"), 0);
  EXPECT_EQ(snap.gauge("gateway.in_flight"), 0);
  EXPECT_EQ(snap.counter("vm.runs"), total);

  // Every request resolved through a specialization cache, and the fleet
  // reused specializations across concurrent requests.
  EXPECT_EQ(snap.counter("spec_cache.hits") +
                snap.counter("spec_cache.misses"),
            total);
  EXPECT_LT(snap.counter("spec_cache.misses"), total);
  EXPECT_EQ(snap.counter("spec_cache.misses"),
            gateway.scheduler().cache().lowerings() +
                gateway.farm().cache().lowerings());
  EXPECT_EQ(snap.counter("spec_cache.deploy_failures"), 0u);
  EXPECT_EQ(snap.histograms.at("spec_cache.lowering_seconds").count,
            snap.counter("spec_cache.misses"));

  // TU compiles happened (source builds) and hits+compiles cover every
  // compile request the farm made.
  EXPECT_GT(snap.counter("tu_cache.compiles"), 0u);
  EXPECT_EQ(snap.counter("tu_cache.hits") + snap.counter("tu_cache.compiles"),
            gateway.farm().tu_cache_hits() + gateway.farm().tu_compiles());
}

}  // namespace
}  // namespace xaas::service
