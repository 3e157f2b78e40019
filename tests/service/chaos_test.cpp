// FaultPlan-driven chaos tests for the serving plane: crashed nodes,
// flaky TU builds, failing lowerings, and a corrupting artifact store,
// with the reliability layer (retries, breakers, deadlines, shedding)
// expected to hide every transient fault — completed requests must be
// bit-identical to a healthy fleet and the telemetry must stay exactly
// consistent. Concurrent scenarios run through a one-gateway Cluster (the
// one admission layer); sequential ones call Gateway::serve directly.
// The *Stress* suites run under TSan via the stress label.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <future>
#include <map>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "apps/minimd.hpp"
#include "service/cluster.hpp"
#include "service/fault.hpp"
#include "xaas/ir_pipeline.hpp"

namespace xaas::service {
namespace {

namespace fs = std::filesystem;

class TempDir {
public:
  explicit TempDir(const std::string& tag) {
    static std::atomic<int> counter{0};
    path_ = fs::temp_directory_path() /
            ("xaas-chaos-" + tag + "-" + std::to_string(::getpid()) + "-" +
             std::to_string(counter.fetch_add(1)));
    fs::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  std::string str() const { return path_.string(); }

private:
  fs::path path_;
};

Application make_app() {
  apps::MinimdOptions options;
  options.module_count = 4;
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

const apps::MdWorkloadParams kParams{64, 8, 4, 64};
/// A workload heavy enough to pin a dispatcher while a test arranges the
/// queue behind it.
const apps::MdWorkloadParams kHeavyParams{512, 32, 24, 256};

/// A one-gateway Cluster over `fleet` with `dispatchers` serving threads.
ClusterOptions one_gateway(std::size_t dispatchers) {
  ClusterOptions options;
  options.gateways = 1;
  options.dispatchers_per_gateway = dispatchers;
  return options;
}

/// Block until the cluster's dispatchers took every queued job.
void wait_until_dispatched(const Cluster& cluster) {
  while (cluster.pending() > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

RunRequest ir_request(const std::string& simd,
                      apps::MdWorkloadParams params = kParams) {
  RunRequest request;
  request.image_reference = "spcl/minimd:ir";
  request.selections = {{"MD_SIMD", simd}};
  request.workload = apps::minimd_workload(params);
  request.threads = 1;
  return request;
}

RunRequest source_request() {
  RunRequest request;
  request.image_reference = "spcl/minimd:src";
  request.workload = apps::minimd_workload(kParams);
  request.threads = 1;
  return request;
}

/// Healthy-fleet reference digest for one request shape (no plan
/// installed), computed through a throwaway gateway on an identical
/// single-node fleet.
std::map<std::string, std::string> healthy_references(
    const container::Image& ir_image, const container::Image& source_image,
    const vm::NodeSpec& node) {
  Gateway gateway({node});
  gateway.push(ir_image, "spcl/minimd:ir");
  gateway.push(source_image, "spcl/minimd:src");
  std::map<std::string, std::string> reference;
  for (const char* simd : {"SSE4.1", "AVX_512"}) {
    const auto result = gateway.serve(ir_request(simd));
    EXPECT_TRUE(result.ok) << result.error;
    reference["ir:" + std::string(simd)] = result.numerics_digest;
  }
  const auto result = gateway.serve(source_request());
  EXPECT_TRUE(result.ok) << result.error;
  reference["src"] = result.numerics_digest;
  return reference;
}

// The flagship: a fleet with crashed nodes, flaky TU builds, failing IR
// lowerings, and an artifact store that corrupts, errors, and drops
// writes — every admitted request must still complete with numerics
// bit-identical to the healthy fleet, and the reliability counters must
// add up exactly after the drain.
TEST(ChaosStress, ServingSurvivesFaultsBitIdentical) {
  const Application app = make_app();
  const container::Image ir_image = make_ir_image(app);
  const container::Image source_image =
      build_source_image(app, isa::Arch::X86_64);

  // Identical-microarch fleet so one healthy reference digest covers
  // every node a request may be retried onto.
  auto fleet = vm::simulated_fleet(vm::node("ault23"), 8, "skl-");
  const auto reference =
      healthy_references(ir_image, source_image, fleet[0]);

  TempDir store_dir("survive");
  // The plan outlives the cluster (ScopedFaultPlan uninstalls before the
  // plan and the cluster die).
  fault::FaultPlan plan(2025);
  plan.crash_node("skl-1");
  plan.crash_node("skl-5");
  plan.set_probability(fault::kTuBuild, 0.10);
  plan.set_probability(fault::kIrLower, 0.20);
  plan.set_probability(fault::kStoreRead, 0.10);
  plan.set_probability(fault::kStoreWrite, 0.10);
  plan.set_probability(fault::kStoreCorrupt, 0.10);
  plan.set_slowdown_seconds(0.001);
  plan.set_probability(fault::kNodeSlow, 0.05);

  ClusterOptions options = one_gateway(4);
  options.gateway.artifact_dir = store_dir.str();
  options.gateway.retry.max_attempts = 16;  // generous budget: zero give-ups
  options.gateway.breaker.failure_threshold = 2;
  options.gateway.breaker.open_seconds = 0.25;  // crashed nodes mostly stay out
  Cluster cluster(fleet, options);
  Gateway& gateway = cluster.gateway(0);
  gateway.observe_fault_plan(plan);
  cluster.push(ir_image, "spcl/minimd:ir");
  cluster.push(source_image, "spcl/minimd:src");

  fault::ScopedFaultPlan guard(plan);

  constexpr int kRequests = 24;
  std::vector<std::future<ClusterRunResult>> futures;
  std::vector<std::string> expected;
  for (int i = 0; i < kRequests; ++i) {
    switch (i % 3) {
      case 0:
        futures.push_back(cluster.submit(ir_request("AVX_512")));
        expected.push_back(reference.at("ir:AVX_512"));
        break;
      case 1:
        futures.push_back(cluster.submit(ir_request("SSE4.1")));
        expected.push_back(reference.at("ir:SSE4.1"));
        break;
      default:
        futures.push_back(cluster.submit(source_request()));
        expected.push_back(reference.at("src"));
        break;
    }
  }

  std::uint64_t total_retries = 0;
  for (int i = 0; i < kRequests; ++i) {
    const auto result = futures[i].get().result;
    ASSERT_TRUE(result.ok) << "request " << i << ": " << result.error;
    EXPECT_EQ(result.code, ErrorCode::Ok);
    // Zero wrong answers: bit-identical to the healthy fleet.
    EXPECT_EQ(result.numerics_digest, expected[i]) << "request " << i;
    // Crashed nodes never serve a completed request.
    EXPECT_NE(result.node_name, "skl-1");
    EXPECT_NE(result.node_name, "skl-5");
    ASSERT_GE(result.attempts, 1);
    total_retries += static_cast<std::uint64_t>(result.attempts - 1);
  }

  const auto total = static_cast<std::uint64_t>(kRequests);
  const auto cluster_snap = cluster.snapshot();
  EXPECT_EQ(cluster_snap.counter("cluster.requests"), total);
  EXPECT_EQ(cluster_snap.counter("cluster.admitted"), total);
  EXPECT_EQ(cluster_snap.counter("cluster.completed"), total);
  EXPECT_EQ(cluster_snap.counter("cluster.failed"), 0u);
  EXPECT_EQ(cluster_snap.counter("cluster.rejected"), 0u);
  EXPECT_EQ(cluster_snap.counter("cluster.shed"), 0u);
  const auto snap = gateway.snapshot();
  EXPECT_EQ(snap.counter("gateway.completed"), total);
  EXPECT_EQ(snap.counter("gateway.failed"), 0u);
  // Retries granted == attempts beyond the first, summed over requests.
  EXPECT_EQ(snap.counter("gateway.retries"), total_retries);
  // Every breaker trip was counted exactly once.
  std::uint64_t trips = 0;
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    trips += gateway.node_breaker(i).trips();
  }
  EXPECT_EQ(snap.counter("gateway.breaker_open"), trips);
  // The observer mirrored every injected fault into fault.<site>.
  for (const auto& [site, injected] : plan.injected_by_site()) {
    EXPECT_EQ(snap.counter("fault." + site), injected) << site;
  }
  // Crashes actually happened and were retried around.
  EXPECT_GT(plan.injected(fault::kNodeCrash), 0u);
  EXPECT_GT(snap.counter("gateway.retries"), 0u);
}

// A crashed node trips its breaker and drops out of the routing
// rotation; the fleet keeps serving through the healthy node.
TEST(ChaosStress, BreakerRoutesAroundCrashedNode) {
  const Application app = make_app();
  const container::Image ir_image = make_ir_image(app);

  auto fleet = vm::simulated_fleet(vm::node("ault23"), 2, "skl-");
  fault::FaultPlan plan(7);
  plan.crash_node("skl-0");

  GatewayOptions options;
  options.retry.max_attempts = 6;
  options.breaker.failure_threshold = 2;
  options.breaker.open_seconds = 10.0;  // stays open for the whole test
  Gateway gateway(fleet, options);
  gateway.observe_fault_plan(plan);
  gateway.push(ir_image, "spcl/minimd:ir");

  fault::ScopedFaultPlan guard(plan);
  for (int i = 0; i < 8; ++i) {
    const auto result = gateway.serve(ir_request("AVX_512"));
    ASSERT_TRUE(result.ok) << result.error;
    EXPECT_EQ(result.node_name, "skl-1");
  }
  // The crashed node's breaker opened; the healthy node's never did.
  EXPECT_EQ(gateway.node_breaker(0).state(), CircuitBreaker::State::Open);
  EXPECT_GE(gateway.node_breaker(0).trips(), 1u);
  EXPECT_EQ(gateway.node_breaker(1).trips(), 0u);
  const auto snap = gateway.snapshot();
  EXPECT_EQ(snap.counter("gateway.breaker_open"),
            gateway.node_breaker(0).trips());
  // After the breaker opened, later requests route straight to skl-1
  // with no retry at all — the open breaker, not the retry budget, is
  // what hides the crashed node.
  const auto late = gateway.serve(ir_request("AVX_512"));
  ASSERT_TRUE(late.ok) << late.error;
  EXPECT_EQ(late.attempts, 1);
}

// Failed lowerings are never negatively cached: concurrent identical
// requests whose single-flight leader draws an injected lowering fault
// inherit the failure, retry immediately, and all converge on the first
// successful lowering.
TEST(ChaosStress, WaitersRetryAfterLeaderLoweringFailure) {
  const Application app = make_app();
  const container::Image ir_image = make_ir_image(app);

  auto fleet = vm::simulated_fleet(vm::node("ault23"), 2, "skl-");
  fault::FaultPlan plan(2024);
  plan.set_probability(fault::kIrLower, 0.6);

  ClusterOptions options = one_gateway(4);
  options.gateway.retry.max_attempts = 20;
  Cluster cluster(fleet, options);
  cluster.push(ir_image, "spcl/minimd:ir");

  fault::ScopedFaultPlan guard(plan);
  std::vector<std::future<ClusterRunResult>> futures;
  for (int i = 0; i < 8; ++i) {
    futures.push_back(cluster.submit(ir_request("AVX_512")));
  }
  for (auto& future : futures) {
    const auto result = future.get().result;
    ASSERT_TRUE(result.ok) << result.error;
  }
  const auto snap = cluster.gateway(0).snapshot();
  EXPECT_EQ(snap.counter("gateway.completed"), 8u);
  // The injected failures were observed by the spec cache as deploy
  // failures, yet no request ended with one: the negative results were
  // never retained.
  if (plan.injected(fault::kIrLower) > 0) {
    EXPECT_GT(snap.counter("spec_cache.deploy_failures"), 0u);
    EXPECT_GT(snap.counter("gateway.retries"), 0u);
  }
}

// Deadlines propagate through the queue: a budget that cannot cover the
// WFQ wait fails fast at dispatch with a structured code, without
// starting work.
TEST(ClusterReliability, DeadlineExceededInQueueFailsFast) {
  const Application app = make_app();
  ClusterOptions options = one_gateway(1);
  Cluster cluster({vm::node("ault23")}, options);
  cluster.push(make_ir_image(app), "spcl/minimd:ir");

  // Occupy the single dispatcher so queued requests actually wait.
  auto heavy = cluster.submit(ir_request("AVX_512", kHeavyParams));
  wait_until_dispatched(cluster);

  RunRequest doomed = ir_request("SSE4.1");
  doomed.deadline_seconds = 1e-9;  // can never cover a real queue wait
  const auto result = cluster.submit(std::move(doomed)).get().result;
  EXPECT_FALSE(result.ok);
  EXPECT_EQ(result.code, ErrorCode::DeadlineExceeded);
  EXPECT_EQ(result.attempts, 0);  // never started
  EXPECT_TRUE(heavy.get().result.ok);

  // A generous deadline on an idle cluster completes normally.
  RunRequest relaxed = ir_request("SSE4.1");
  relaxed.deadline_seconds = 60.0;
  const auto ok = cluster.submit(std::move(relaxed)).get().result;
  ASSERT_TRUE(ok.ok) << ok.error;
  EXPECT_EQ(ok.code, ErrorCode::Ok);

  const auto snap = cluster.gateway(0).snapshot();
  EXPECT_EQ(snap.counter("gateway.deadline_exceeded"), 1u);
  EXPECT_EQ(snap.counter("gateway.failed"), 1u);
  EXPECT_EQ(cluster.snapshot().counter("cluster.failed"), 1u);
}

// Depth shedding at the one bound, max_pending: past it new submissions
// complete immediately with Shed + a retry_after hint; shed is distinct
// from rejected, and requests == admitted + rejected + shed +
// quota_denied.
TEST(ClusterReliability, ShedsAtMaxPendingWithRetryAfterHint) {
  const Application app = make_app();
  ClusterOptions options = one_gateway(1);
  options.max_pending = 4;
  Cluster cluster({vm::node("ault23")}, options);
  cluster.push(make_ir_image(app), "spcl/minimd:ir");

  // Stall the dispatcher, then fill the shard to its bound.
  auto heavy = cluster.submit(ir_request("AVX_512", kHeavyParams));
  wait_until_dispatched(cluster);
  std::vector<std::future<ClusterRunResult>> queued;
  for (int i = 0; i < 4; ++i) {
    queued.push_back(cluster.submit(ir_request("AVX_512")));
  }

  const auto shed = cluster.submit(ir_request("AVX_512")).get().result;
  EXPECT_FALSE(shed.ok);
  EXPECT_EQ(shed.code, ErrorCode::Shed);
  EXPECT_TRUE(is_retryable(shed.code));
  EXPECT_GT(shed.retry_after_seconds, 0.0);
  EXPECT_EQ(shed.attempts, 0);

  EXPECT_TRUE(heavy.get().result.ok);
  for (auto& future : queued) EXPECT_TRUE(future.get().result.ok);

  const auto snap = cluster.snapshot();
  EXPECT_EQ(snap.counter("cluster.shed"), 1u);
  EXPECT_EQ(snap.counter("cluster.rejected"), 0u);
  EXPECT_EQ(snap.counter("cluster.admitted"), 5u);
  EXPECT_EQ(snap.counter("cluster.requests"),
            snap.counter("cluster.admitted") +
                snap.counter("cluster.rejected") +
                snap.counter("cluster.shed") +
                snap.counter("cluster.quota_denied"));
  EXPECT_EQ(snap.counter("cluster.admitted"),
            snap.counter("cluster.completed") + snap.counter("cluster.failed"));
  // The shed request never reached the gateway.
  EXPECT_EQ(cluster.gateway(0).snapshot().counter("gateway.completed"), 5u);
}

// Shutdown: the destructor stops admission — a submission that arrives
// while it drains completes at once with ShuttingDown — and still
// completes every job queued before it began.
TEST(ClusterReliability, ShutdownDrainsQueuedAndRejectsLateSubmitters) {
  const Application app = make_app();
  const container::Image ir_image = make_ir_image(app);

  // Every run stalls before executing, so the destructor's drain lasts
  // long past the late submission below. The second stall (the queued
  // job, served inside the destructor) also waits until the late
  // submission returned: the dispatcher the destructor joins then orders
  // that submission before the cluster's members die.
  std::promise<void> late_returned;
  const std::shared_future<void> late_gate =
      late_returned.get_future().share();
  std::atomic<int> stalls{0};
  fault::FaultPlan plan(11);
  plan.set_slowdown_seconds(0.25);
  plan.set_probability(fault::kNodeSlow, 1.0);
  plan.set_observer([&](std::string_view site) {
    if (site == fault::kNodeSlow && stalls.fetch_add(1) == 1) late_gate.wait();
  });
  fault::ScopedFaultPlan guard(plan);

  std::future<ClusterRunResult> queued;
  ClusterRunResult late;
  std::atomic<bool> destroying{false};
  std::thread submitter;
  {
    Cluster cluster({vm::node("ault23")}, one_gateway(1));
    cluster.push(ir_image, "spcl/minimd:ir");
    auto running = cluster.submit(ir_request("AVX_512"));
    wait_until_dispatched(cluster);
    queued = cluster.submit(ir_request("AVX_512"));
    (void)running;
    submitter = std::thread([&] {
      while (!destroying.load()) std::this_thread::yield();
      // The destructor has begun and is waiting on the stalled run.
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      late = cluster.submit(ir_request("AVX_512")).get();
      late_returned.set_value();
    });
    destroying.store(true);
  }
  submitter.join();
  EXPECT_FALSE(late.result.ok);
  EXPECT_EQ(late.result.code, ErrorCode::ShuttingDown);
  EXPECT_NE(late.result.error.find("shutting down"), std::string::npos);
  const auto drained = queued.get().result;
  EXPECT_TRUE(drained.ok) << drained.error;
  EXPECT_EQ(stalls.load(), 2);
}

// Failure-rate shedding (brownout) at cluster admission: a fleet where
// every request fails pushes the trailing failure rate over the
// threshold, and admission sheds until the window rotates.
TEST(ClusterReliability, FailureRateShedding) {
  ClusterOptions options = one_gateway(1);
  options.shed_failure_rate = 0.5;
  options.shed_min_samples = 4;
  options.shed_window_seconds = 60.0;  // never rotates inside the test
  Cluster cluster({vm::node("ault23")}, options);
  // No image pushed: every admitted request fails with NotFound.

  RunRequest request;
  request.image_reference = "spcl/unknown:tag";
  for (int i = 0; i < 4; ++i) {
    const auto result = cluster.submit(request).get().result;
    EXPECT_FALSE(result.ok);
    EXPECT_EQ(result.code, ErrorCode::NotFound);
  }
  // The window now holds 4 completions, all failed: shed.
  const auto shed = cluster.submit(request).get().result;
  EXPECT_FALSE(shed.ok);
  EXPECT_EQ(shed.code, ErrorCode::Shed);
  EXPECT_GT(shed.retry_after_seconds, 0.0);
  const auto snap = cluster.snapshot();
  EXPECT_EQ(snap.counter("cluster.shed"), 1u);
  EXPECT_EQ(snap.counter("cluster.failed"), 4u);
  EXPECT_EQ(snap.counter("cluster.requests"), 5u);
  EXPECT_EQ(cluster.gateway(0).snapshot().counter("gateway.failed"), 4u);
}

}  // namespace
}  // namespace xaas::service
