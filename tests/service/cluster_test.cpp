// Cluster-layer tests: consistent-hash ring properties (seeded,
// deterministic), cluster routing/quota/shed semantics over real
// gateways, and the multi-tenant isolation stress suite (ClusterStress,
// stress label — runs under TSan/ASan): one flooding tenant must not
// perturb the victims' results (bit-identical to a no-flood reference)
// and every cluster counter must reconcile exactly after drain.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "apps/minimd.hpp"
#include "common/rng.hpp"
#include "service/cluster.hpp"
#include "service/fault.hpp"
#include "xaas/ir_pipeline.hpp"

namespace xaas::service {
namespace {

/// Unique scratch directory, removed on scope exit.
class TempDir {
public:
  explicit TempDir(const std::string& tag) {
    static std::atomic<int> counter{0};
    path_ = std::filesystem::temp_directory_path() /
            ("xaas-cluster-" + tag + "-" + std::to_string(::getpid()) + "-" +
             std::to_string(counter.fetch_add(1)));
    std::filesystem::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  std::string str() const { return path_.string(); }

private:
  std::filesystem::path path_;
};

// ---- ConsistentHashRing properties -----------------------------------------

std::vector<std::string> seeded_keys(std::size_t count, std::uint64_t seed) {
  common::Rng rng(seed);
  std::vector<std::string> keys;
  keys.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    keys.push_back("class-" + std::to_string(rng.next_u64()));
  }
  return keys;
}

std::map<std::string, std::string> placements(
    const ConsistentHashRing& ring, const std::vector<std::string>& keys) {
  std::map<std::string, std::string> owners;
  for (const auto& key : keys) owners[key] = ring.lookup(key);
  return owners;
}

TEST(ConsistentHash, AddingAMemberMovesOnlyItsShare) {
  const auto keys = seeded_keys(2000, 1234);
  ConsistentHashRing ring(/*vnodes=*/64, /*seed=*/99);
  constexpr std::size_t kMembers = 8;
  for (std::size_t g = 0; g < kMembers; ++g) {
    ring.add("gw" + std::to_string(g));
  }
  const auto before = placements(ring, keys);
  ring.add("gw8");
  const auto after = placements(ring, keys);

  std::size_t moved = 0;
  for (const auto& key : keys) {
    if (after.at(key) != before.at(key)) {
      // The consistent-hashing contract: a key either keeps its owner or
      // moves to the NEW member — never between old members.
      EXPECT_EQ(after.at(key), "gw8") << key;
      ++moved;
    }
  }
  // Expected K/(N+1) with vnode variance; assert within a 2x envelope
  // and non-degenerate.
  const double expected = static_cast<double>(keys.size()) / (kMembers + 1);
  EXPECT_GT(moved, 0u);
  EXPECT_LE(static_cast<double>(moved), 2.0 * expected);
}

TEST(ConsistentHash, RemovingAMemberStrandsNoOtherKeys) {
  const auto keys = seeded_keys(2000, 5678);
  ConsistentHashRing ring(/*vnodes=*/64, /*seed=*/7);
  for (std::size_t g = 0; g < 8; ++g) ring.add("gw" + std::to_string(g));
  const auto before = placements(ring, keys);
  ring.remove("gw3");
  const auto after = placements(ring, keys);
  std::size_t moved = 0;
  for (const auto& key : keys) {
    if (before.at(key) == "gw3") {
      EXPECT_NE(after.at(key), "gw3");
      ++moved;
    } else {
      // Keys not owned by the removed member never move.
      EXPECT_EQ(after.at(key), before.at(key)) << key;
    }
  }
  const double expected = static_cast<double>(keys.size()) / 8;
  EXPECT_GT(moved, 0u);
  EXPECT_LE(static_cast<double>(moved), 2.0 * expected);
}

TEST(ConsistentHash, LookupIsInsertionOrderIndependent) {
  const auto keys = seeded_keys(1000, 42);
  const std::vector<std::string> members = {"gw0", "gw1", "gw2",
                                            "gw3", "gw4", "gw5"};
  ConsistentHashRing forward(/*vnodes=*/32, /*seed=*/3);
  for (const auto& m : members) forward.add(m);
  ConsistentHashRing reverse(/*vnodes=*/32, /*seed=*/3);
  for (auto it = members.rbegin(); it != members.rend(); ++it) {
    reverse.add(*it);
  }
  ConsistentHashRing shuffled(/*vnodes=*/32, /*seed=*/3);
  for (const auto& m : {"gw3", "gw0", "gw5", "gw1", "gw4", "gw2"}) {
    shuffled.add(m);
  }
  for (const auto& key : keys) {
    EXPECT_EQ(forward.lookup(key), reverse.lookup(key)) << key;
    EXPECT_EQ(forward.lookup(key), shuffled.lookup(key)) << key;
  }
}

TEST(ConsistentHash, IdenticalSeedsGiveIdenticalPlacements) {
  const auto keys = seeded_keys(1000, 777);
  ConsistentHashRing a(/*vnodes=*/64, /*seed=*/2024);
  ConsistentHashRing b(/*vnodes=*/64, /*seed=*/2024);
  ConsistentHashRing c(/*vnodes=*/64, /*seed=*/2025);
  for (std::size_t g = 0; g < 5; ++g) {
    a.add("gw" + std::to_string(g));
    b.add("gw" + std::to_string(g));
    c.add("gw" + std::to_string(g));
  }
  std::size_t differs = 0;
  for (const auto& key : keys) {
    EXPECT_EQ(a.lookup(key), b.lookup(key)) << key;
    if (a.lookup(key) != c.lookup(key)) ++differs;
  }
  EXPECT_GT(differs, 0u);  // the seed is load-bearing
}

TEST(ConsistentHash, RemoveThenReaddRestoresPlacements) {
  const auto keys = seeded_keys(500, 31337);
  ConsistentHashRing ring(/*vnodes=*/64, /*seed=*/1);
  for (std::size_t g = 0; g < 6; ++g) ring.add("gw" + std::to_string(g));
  const auto before = placements(ring, keys);
  ring.remove("gw2");
  ring.add("gw2");
  EXPECT_EQ(placements(ring, keys), before);
}

TEST(ConsistentHash, EveryMemberOwnsKeys) {
  const auto keys = seeded_keys(4000, 9);
  ConsistentHashRing ring(/*vnodes=*/64, /*seed=*/5);
  for (std::size_t g = 0; g < 8; ++g) ring.add("gw" + std::to_string(g));
  std::map<std::string, std::size_t> owned;
  for (const auto& key : keys) owned[ring.lookup(key)]++;
  EXPECT_EQ(owned.size(), 8u);  // no member starved outright
  for (const auto& [member, count] : owned) {
    // 64 vnodes keep the imbalance well inside 3x of fair share.
    EXPECT_GT(count, keys.size() / 8 / 3) << member;
  }
}

TEST(ConsistentHash, EmptyRingAndStealRule) {
  ConsistentHashRing ring;
  EXPECT_EQ(ring.lookup("anything"), "");
  // The steal-profitability rule is pure: ship iff cheaper than waiting.
  EXPECT_TRUE(Cluster::steal_profitable(0.0001, 0.01));
  EXPECT_FALSE(Cluster::steal_profitable(0.01, 0.0001));
  EXPECT_FALSE(Cluster::steal_profitable(0.01, 0.01));
}

// ---- Cluster over real gateways --------------------------------------------

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

RunRequest tenant_request(const std::string& tenant, const std::string& simd) {
  RunRequest request;
  request.image_reference = "spcl/minimd:ir";
  request.selections = {{"MD_SIMD", simd}};
  request.workload = apps::minimd_workload(kParams);
  request.threads = 1;
  request.tenant = tenant;
  return request;
}

ClusterOptions small_cluster_options() {
  ClusterOptions options;
  options.gateways = 2;
  options.dispatchers_per_gateway = 2;
  return options;
}

TEST(Cluster, RoutesEachClassToItsHashHome) {
  const Application app = make_app();
  std::vector<vm::NodeSpec> fleet =
      vm::simulated_fleet(vm::node("ault23"), 4, "node-");
  ClusterOptions options = small_cluster_options();
  options.steal = false;  // pin classes to their hash homes
  Cluster cluster(std::move(fleet), options);
  cluster.push(make_ir_image(app), "spcl/minimd:ir");

  std::map<std::string, std::string> class_home;
  for (int round = 0; round < 3; ++round) {
    for (const std::string simd : {"SSE4.1", "AVX_512"}) {
      const auto result =
          cluster.submit(tenant_request("t", simd)).get();
      ASSERT_TRUE(result.result.ok) << result.result.error;
      EXPECT_FALSE(result.stolen);
      // Never stolen => served by the hash home, and the same class
      // lands on the same gateway every time.
      EXPECT_EQ(result.gateway, result.home_gateway);
      const auto [it, fresh] =
          class_home.emplace(simd, result.gateway);
      EXPECT_EQ(it->second, result.gateway) << simd;
      if (fresh) {
        const auto key = Cluster::request_class_key(tenant_request("t", simd));
        EXPECT_EQ(cluster.ring().lookup(key), result.gateway);
      }
    }
  }
  const auto snap = cluster.snapshot();
  EXPECT_EQ(snap.counter("cluster.requests"), 6u);
  EXPECT_EQ(snap.counter("cluster.admitted"), 6u);
  EXPECT_EQ(snap.counter("cluster.completed"), 6u);
  EXPECT_EQ(snap.counter("cluster.stolen"), 0u);
}

TEST(Cluster, QuotaDenialIsImmediateAndRetryable) {
  const Application app = make_app();
  ClusterOptions options = small_cluster_options();
  options.tenant_quotas["capped"] = {/*rate=*/0.5, /*burst=*/2.0,
                                     /*weight=*/1.0};
  Cluster cluster(vm::simulated_fleet(vm::node("ault23"), 2, "node-"),
                  options);
  cluster.push(make_ir_image(app), "spcl/minimd:ir");

  int ok = 0, denied = 0;
  for (int i = 0; i < 6; ++i) {
    const auto result =
        cluster.submit(tenant_request("capped", "SSE4.1")).get();
    if (result.result.ok) {
      ++ok;
    } else {
      ASSERT_EQ(result.result.code, ErrorCode::QuotaExceeded);
      EXPECT_TRUE(is_retryable(result.result.code));
      EXPECT_GT(result.result.retry_after_seconds, 0.0);
      ++denied;
    }
  }
  EXPECT_EQ(ok + denied, 6);
  EXPECT_GE(denied, 1);  // burst 2 cannot cover 6 back-to-back requests
  const auto snap = cluster.snapshot();
  EXPECT_EQ(snap.counter("cluster.quota_denied"),
            static_cast<std::uint64_t>(denied));
  EXPECT_EQ(snap.counter("tenant.capped.quota_denied"),
            static_cast<std::uint64_t>(denied));
  EXPECT_EQ(snap.counter("cluster.requests"),
            snap.counter("cluster.admitted") +
                snap.counter("cluster.rejected") +
                snap.counter("cluster.shed") +
                snap.counter("cluster.quota_denied"));
}

/// One gateway, one dispatcher, no stealing: the WFQ drain order is the
/// completion order.
ClusterOptions serial_cluster_options() {
  ClusterOptions options;
  options.gateways = 1;
  options.dispatchers_per_gateway = 1;
  options.steal = false;
  return options;
}

void wait_until_dispatched(const Cluster& cluster) {
  while (cluster.pending() > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

// Priority is a WFQ input: with one dispatcher busy, every queued
// high-priority request completes before every low-priority one, even
// though the lows were submitted first and by a tenant with a larger
// weight.
TEST(Cluster, PriorityOrdersQueuedRequests) {
  const Application app = make_app();
  ClusterOptions options = serial_cluster_options();
  options.tenant_quotas["heavy-low"] = {1e9, 1e9, /*weight=*/8.0};
  Cluster cluster({vm::node("ault23")}, options);
  cluster.push(make_ir_image(app), "spcl/minimd:ir");

  // A heavy first request occupies the single dispatcher (fresh lowering
  // plus a large workload) while the prioritized batch queues up.
  RunRequest heavy_request = tenant_request("t", "AVX_512");
  heavy_request.workload = apps::minimd_workload({512, 32, 24, 256});
  auto heavy = cluster.submit(std::move(heavy_request));
  wait_until_dispatched(cluster);

  std::vector<std::future<ClusterRunResult>> low, high;
  for (int i = 0; i < 3; ++i) {
    RunRequest request = tenant_request("heavy-low", "AVX_512");
    request.priority = -5;
    low.push_back(cluster.submit(std::move(request)));
  }
  for (int i = 0; i < 3; ++i) {
    RunRequest request = tenant_request(i % 2 ? "a" : "b", "AVX_512");
    request.priority = 5;
    high.push_back(cluster.submit(std::move(request)));
  }

  const auto heavy_result = heavy.get().result;
  ASSERT_TRUE(heavy_result.ok) << heavy_result.error;

  std::uint64_t max_high = 0;
  std::uint64_t min_low = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t prev_low = 0;
  for (auto& f : high) {
    const auto r = f.get().result;
    ASSERT_TRUE(r.ok) << r.error;
    max_high = std::max(max_high, r.completion_seq);
  }
  for (auto& f : low) {
    const auto r = f.get().result;
    ASSERT_TRUE(r.ok) << r.error;
    min_low = std::min(min_low, r.completion_seq);
    EXPECT_GT(r.completion_seq, prev_low);  // FIFO within one tenant
    prev_low = r.completion_seq;
  }
  EXPECT_LT(max_high, min_low);
}

// A request's deadline runs from Cluster admission. Its budget runs out
// while it waits in the WFQ behind a long run, so it completes with
// DeadlineExceeded at dispatch: never deployed, never run, and still
// counted as cluster.failed.
TEST(Cluster, DeadlineCountsQueueWait) {
  const Application app = make_app();
  Cluster cluster({vm::node("ault23")}, serial_cluster_options());
  cluster.push(make_ir_image(app), "spcl/minimd:ir");

  // Every run stalls 200 ms before executing, so the first request holds
  // the only dispatcher well past the second's 50 ms budget. Measured
  // from the gateway alone, the second request would be on time: its
  // deploy is a cache hit and runs are never preempted.
  fault::FaultPlan plan(3);
  plan.set_slowdown_seconds(0.2);
  plan.set_probability(fault::kNodeSlow, 1.0);
  fault::ScopedFaultPlan guard(plan);

  auto first = cluster.submit(tenant_request("t", "AVX_512"));
  RunRequest doomed = tenant_request("t", "AVX_512");
  doomed.deadline_seconds = 0.05;
  auto second = cluster.submit(std::move(doomed));

  ASSERT_TRUE(first.get().result.ok);
  const auto late = second.get();
  EXPECT_FALSE(late.result.ok);
  EXPECT_EQ(late.result.code, ErrorCode::DeadlineExceeded);
  EXPECT_EQ(late.result.attempts, 0);
  EXPECT_GE(late.total_seconds, 0.05);

  const auto gateway = cluster.gateway(0).snapshot();
  EXPECT_EQ(gateway.histograms.at("gateway.deploy_seconds").count, 1u);
  EXPECT_EQ(gateway.counter("spec_cache.misses") +
                gateway.counter("spec_cache.hits"),
            1u);
  EXPECT_EQ(gateway.counter("vm.runs"), 1u);
  EXPECT_EQ(gateway.counter("gateway.deadline_exceeded"), 1u);
  const auto snap = cluster.snapshot();
  EXPECT_EQ(snap.counter("cluster.admitted"), 2u);
  EXPECT_EQ(snap.counter("cluster.completed"), 1u);
  EXPECT_EQ(snap.counter("cluster.failed"), 1u);
  EXPECT_EQ(snap.counter("tenant.t.failed"), 1u);
}

// With artifact_root set, the gateways' stores form a registry ring:
// after one gateway builds a class and gossip drains, the sibling serves
// the same class from pre-warmed blobs — zero lowerings, zero TU
// compiles, bit-identical numerics — and both snapshot layers carry the
// distribution counters.
TEST(Cluster, DistributionReplicatesAcrossGateways) {
  const Application app = make_app();
  TempDir root("dist");
  ClusterOptions options = small_cluster_options();
  options.steal = false;  // pin the class to its hash home
  options.artifact_root = root.str();
  Cluster cluster(vm::simulated_fleet(vm::node("ault23"), 4, "node-"),
                  options);
  cluster.push(make_ir_image(app), "spcl/minimd:ir");
  ASSERT_NE(cluster.distribution_fabric(), nullptr);

  // Serve one class: its hash home builds (and announces) the artifacts.
  const auto first = cluster.submit(tenant_request("t", "AVX_512")).get();
  ASSERT_TRUE(first.result.ok) << first.result.error;
  const std::string home = first.gateway;

  // Drain gossip: every announced blob replicates ring-wide.
  cluster.distribution_flush();

  // The *other* gateway serves the same class straight from its
  // pre-warmed store.
  Gateway* sibling = nullptr;
  std::string sibling_name;
  for (std::size_t g = 0; g < cluster.gateway_count(); ++g) {
    if (cluster.gateway_name(g) == home) continue;
    sibling = &cluster.gateway(g);
    sibling_name = cluster.gateway_name(g);
    break;
  }
  ASSERT_NE(sibling, nullptr);
  ASSERT_EQ(sibling->scheduler().cache().lowerings(), 0u);

  const auto replayed = sibling->serve(tenant_request("t", "AVX_512"));
  ASSERT_TRUE(replayed.ok) << replayed.error;
  EXPECT_EQ(replayed.numerics_digest, first.result.numerics_digest);
  EXPECT_EQ(sibling->scheduler().cache().lowerings(), 0u);
  EXPECT_EQ(sibling->farm().tu_compiles(), 0u);
  EXPECT_EQ(sibling->scheduler().cache().disk_hits(), 1u);

  // Telemetry: the sibling's gateway snapshot shows the pre-warm
  // arrivals, the cluster snapshot carries the fabric-wide totals, and
  // the identities reconcile with zero rejects.
  const auto sibling_snap = sibling->snapshot();
  EXPECT_GT(sibling_snap.counter("distribution.prewarm_fetches"), 0u);
  EXPECT_EQ(sibling_snap.counter("distribution.verify_rejects"), 0u);
  const auto snap = cluster.snapshot();
  EXPECT_GT(snap.counter("distribution.blobs_accepted"), 0u);
  EXPECT_EQ(snap.counter("distribution.blobs_sent"),
            snap.counter("distribution.blobs_accepted") +
                snap.counter("distribution.blobs_rejected"));
  EXPECT_EQ(snap.counter("distribution.blobs_rejected"), 0u);
  EXPECT_EQ(snap.counter("distribution.bytes_total"),
            snap.counter("distribution.manifest_bytes") +
                snap.counter("distribution.request_bytes") +
                snap.counter("distribution.blob_bytes") +
                snap.counter("distribution.gossip_bytes"));
  EXPECT_GT(snap.counter("distribution.transfer_nanos"), 0u);
  // Per-peer acceptances sum to the fabric total.
  std::uint64_t accepted = 0;
  for (std::size_t g = 0; g < cluster.gateway_count(); ++g) {
    accepted += cluster.gateway(g).snapshot().counter("distribution.blobs_in");
  }
  EXPECT_EQ(snap.counter("distribution.blobs_accepted"), accepted);
}

// ---- ClusterStress: fair-share isolation under flood (stress label) --------

struct TenantRun {
  std::vector<std::string> digests;  // per request, submission order
  int completed = 0;
  int failed = 0;
};

/// Submit `count` requests for one tenant (alternating the two baked
/// configurations) and collect completions in submission order.
TenantRun run_tenant(Cluster& cluster, const std::string& tenant, int count) {
  std::vector<std::future<ClusterRunResult>> futures;
  futures.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    futures.push_back(cluster.submit(
        tenant_request(tenant, i % 2 == 0 ? "SSE4.1" : "AVX_512")));
  }
  TenantRun run;
  for (auto& future : futures) {
    auto result = future.get();
    if (result.result.ok) {
      ++run.completed;
      run.digests.push_back(result.result.numerics_digest);
    } else {
      ++run.failed;
      run.digests.push_back("FAILED:" + result.result.error);
    }
  }
  return run;
}

ClusterOptions stress_cluster_options() {
  ClusterOptions options;
  options.gateways = 4;
  options.dispatchers_per_gateway = 2;
  options.max_pending = 4096;  // victims must never shed in this test
  return options;
}

TEST(ClusterStress, FloodingTenantCannotPerturbVictims) {
  const Application app = make_app();
  const container::Image image = make_ir_image(app);
  const std::vector<std::string> victims = {"alice", "bob", "carol"};
  constexpr int kPerVictim = 16;
  constexpr int kFloodRequests = 200;

  // Reference: the victims alone on an identical (same seed, same fleet)
  // cluster. The homogeneous fleet makes completions bit-identical no
  // matter which gateway — home or thief — serves them.
  std::map<std::string, TenantRun> reference;
  {
    Cluster cluster(vm::simulated_fleet(vm::node("ault23"), 8, "node-"),
                    stress_cluster_options());
    cluster.push(image, "spcl/minimd:ir");
    std::vector<std::thread> threads;
    std::mutex mutex;
    for (const auto& victim : victims) {
      threads.emplace_back([&, victim] {
        TenantRun run = run_tenant(cluster, victim, kPerVictim);
        std::lock_guard lock(mutex);
        reference[victim] = std::move(run);
      });
    }
    for (auto& thread : threads) thread.join();
  }
  for (const auto& victim : victims) {
    ASSERT_EQ(reference.at(victim).completed, kPerVictim) << victim;
  }

  // Flooded run: same victim load plus a flooding tenant with a tight
  // quota and a fraction of the victims' WFQ weight.
  ClusterOptions options = stress_cluster_options();
  options.tenant_quotas["mallory"] = {/*rate=*/200.0, /*burst=*/16.0,
                                      /*weight=*/0.25};
  Cluster cluster(vm::simulated_fleet(vm::node("ault23"), 8, "node-"),
                  options);
  cluster.push(image, "spcl/minimd:ir");

  std::map<std::string, TenantRun> flooded;
  std::mutex mutex;
  std::vector<std::thread> threads;
  for (const auto& victim : victims) {
    threads.emplace_back([&, victim] {
      TenantRun run = run_tenant(cluster, victim, kPerVictim);
      std::lock_guard lock(mutex);
      flooded[victim] = std::move(run);
    });
  }
  std::uint64_t flood_submitted = 0;
  std::vector<std::future<ClusterRunResult>> flood_futures;
  threads.emplace_back([&] {
    // The flood: one request class, fired as fast as submit() returns.
    for (int i = 0; i < kFloodRequests; ++i) {
      flood_futures.push_back(
          cluster.submit(tenant_request("mallory", "AVX_512")));
      ++flood_submitted;
    }
  });
  for (auto& thread : threads) thread.join();
  std::uint64_t flood_ok = 0, flood_denied = 0, flood_other = 0;
  for (auto& future : flood_futures) {
    const auto result = future.get();
    if (result.result.ok) {
      ++flood_ok;
    } else if (result.result.code == ErrorCode::QuotaExceeded) {
      EXPECT_GT(result.result.retry_after_seconds, 0.0);
      ++flood_denied;
    } else {
      ++flood_other;
    }
  }

  // Victims: every request admitted and completed (tolerance: exact —
  // their quotas are untouched), results bit-identical to the no-flood
  // reference.
  for (const auto& victim : victims) {
    const TenantRun& run = flooded.at(victim);
    EXPECT_EQ(run.completed, kPerVictim) << victim;
    EXPECT_EQ(run.failed, 0) << victim;
    EXPECT_EQ(run.digests, reference.at(victim).digests) << victim;
  }

  // Exact telemetry reconciliation, including stolen and quota_denials.
  const auto snap = cluster.snapshot();
  const std::uint64_t total_requests =
      static_cast<std::uint64_t>(victims.size()) * kPerVictim +
      flood_submitted;
  EXPECT_EQ(snap.counter("cluster.requests"), total_requests);
  EXPECT_EQ(snap.counter("cluster.requests"),
            snap.counter("cluster.admitted") +
                snap.counter("cluster.rejected") +
                snap.counter("cluster.shed") +
                snap.counter("cluster.quota_denied"));
  EXPECT_EQ(snap.counter("cluster.admitted"),
            snap.counter("cluster.completed") +
                snap.counter("cluster.failed"));
  EXPECT_EQ(snap.counter("cluster.quota_denied"), flood_denied);
  EXPECT_EQ(snap.counter("tenant.mallory.quota_denied"), flood_denied);
  EXPECT_EQ(snap.counter("tenant.mallory.completed"), flood_ok);
  EXPECT_EQ(flood_other, 0u);
  std::uint64_t per_gateway_stolen = 0, per_gateway_served = 0;
  for (std::size_t g = 0; g < cluster.gateway_count(); ++g) {
    per_gateway_stolen =
        per_gateway_stolen +
        snap.counter("gateway." + cluster.gateway_name(g) + ".stolen");
    per_gateway_served =
        per_gateway_served +
        snap.counter("gateway." + cluster.gateway_name(g) + ".served");
  }
  EXPECT_EQ(snap.counter("cluster.stolen"), per_gateway_stolen);
  EXPECT_EQ(snap.counter("cluster.admitted"), per_gateway_served);
  for (const auto& victim : victims) {
    EXPECT_EQ(snap.counter("tenant." + victim + ".requests"),
              static_cast<std::uint64_t>(kPerVictim));
    EXPECT_EQ(snap.counter("tenant." + victim + ".admitted"),
              static_cast<std::uint64_t>(kPerVictim));
    EXPECT_EQ(snap.counter("tenant." + victim + ".completed"),
              static_cast<std::uint64_t>(kPerVictim));
    EXPECT_EQ(snap.histograms.at("tenant." + victim + ".total_seconds").count,
              static_cast<std::uint64_t>(kPerVictim));
  }
  EXPECT_EQ(cluster.pending(), 0u);
}

TEST(ClusterStress, HotClassStealsReconcileAndStayBitIdentical) {
  const Application app = make_app();
  const container::Image image = make_ir_image(app);
  // Every request is ONE class: its hash home backs up while the other
  // three gateways idle — exactly the work-stealing scenario. The
  // homogeneous fleet keeps stolen completions bit-identical.
  ClusterOptions options = stress_cluster_options();
  options.dispatchers_per_gateway = 1;  // sharpen the backlog
  Cluster cluster(vm::simulated_fleet(vm::node("ault23"), 8, "node-"),
                  options);
  cluster.push(image, "spcl/minimd:ir");

  constexpr int kRequests = 48;
  std::vector<RunRequest> requests;
  requests.reserve(kRequests);
  for (int i = 0; i < kRequests; ++i) {
    requests.push_back(tenant_request("hot", "AVX_512"));
  }
  const auto results = cluster.run_all(std::move(requests));

  std::set<std::string> digests;
  std::set<std::string> serving_gateways;
  std::uint64_t stolen_seen = 0;
  for (const auto& result : results) {
    ASSERT_TRUE(result.result.ok) << result.result.error;
    digests.insert(result.result.numerics_digest);
    serving_gateways.insert(result.gateway);
    if (result.stolen) {
      ++stolen_seen;
      EXPECT_NE(result.gateway, result.home_gateway);
      // The steal was priced by the bandwidth model and charged.
      EXPECT_GT(result.fabric_seconds, 0.0);
    } else {
      EXPECT_EQ(result.gateway, result.home_gateway);
    }
  }
  EXPECT_EQ(digests.size(), 1u);  // one class, one numeric answer

  const auto snap = cluster.snapshot();
  EXPECT_EQ(snap.counter("cluster.stolen"), stolen_seen);
  std::uint64_t per_gateway_stolen = 0;
  for (std::size_t g = 0; g < cluster.gateway_count(); ++g) {
    per_gateway_stolen =
        per_gateway_stolen +
        snap.counter("gateway." + cluster.gateway_name(g) + ".stolen");
  }
  EXPECT_EQ(snap.counter("cluster.stolen"), per_gateway_stolen);
  EXPECT_EQ(snap.counter("cluster.admitted"),
            static_cast<std::uint64_t>(kRequests));
  EXPECT_EQ(snap.counter("cluster.completed"),
            static_cast<std::uint64_t>(kRequests));
  // Thieves that served the hot class cold filled it over the fabric.
  EXPECT_EQ(snap.counter("cluster.fills"),
            static_cast<std::uint64_t>(serving_gateways.size() - 1));
}

}  // namespace
}  // namespace xaas::service
