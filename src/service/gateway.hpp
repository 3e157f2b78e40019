// XaaS serving gateway: the front door that turns the container pieces
// into the service the paper describes (§2, §7 — and the companion
// "Acceleration as a Service" vision): a user submits *work*, not a
// deployment; the platform owns the fleet, specializes a container for
// the node it picks, runs the workload, and answers with numerics plus a
// structured account of where the time went and which caches hit.
//
// One request travels, on the caller's thread:
//
//   serve() ── routing (ISA compatibility + least current load, one
//              epoch snapshot of the breakers)
//        ──> deploy (DeployScheduler/BuildFarm; SpecializationCache and
//             CompileCache make repeat specializations ~free)
//        ──> run (pre-decoded program on the routed node, per-run stats
//             hook into telemetry)
//        ──> RunResult {numerics digest, per-stage latencies, cache hits}
//
// The gateway owns no queue and starts no worker threads: admission,
// priority, fair share, shedding and backpressure belong to the one
// admission layer in front of it, the Cluster (service/cluster.hpp). A
// standalone deployment is a one-gateway Cluster, or a sequential caller
// of serve().
//
// Everything the gateway and the caches do is measured into a
// telemetry::MetricsRegistry (see telemetry.hpp); snapshot() exposes it.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/rcu.hpp"
#include "service/build_farm.hpp"
#include "service/deploy_scheduler.hpp"
#include "service/fault.hpp"
#include "service/reliability.hpp"
#include "service/sharded_registry.hpp"
#include "service/telemetry.hpp"
#include "vm/executor.hpp"
#include "vm/node.hpp"

namespace xaas::service {

class DistributionFabric;

/// One unit of user work: which image, which configuration, what to run.
struct RunRequest {
  std::string image_reference;  // tag or "sha256:..." digest
  /// Option selections; for IR images they must name exactly one baked
  /// configuration, for source images anything unselected falls back to
  /// the recommendation policy (when auto_specialize) or script defaults.
  std::map<std::string, std::string> selections;
  std::optional<isa::VectorIsa> march;
  int opt_level = 2;
  bool auto_specialize = true;  // source path only
  vm::Workload workload;
  int threads = 1;
  /// Cluster WFQ priority: higher priorities are served strictly first;
  /// within one priority tenants share by weight, each tenant FIFO.
  int priority = 0;
  /// Total wall-clock budget in seconds, measured from admission — the
  /// Cluster's submit(), or the `admitted` time given to serve()
  /// (0 = no deadline). Checked at dispatch, before each attempt, before
  /// the run, and before every backoff sleep; work already in flight is
  /// never preempted.
  double deadline_seconds = 0.0;

  // Admission inputs (consumed by the Cluster, service/cluster.hpp;
  // Gateway::serve ignores priority, tenant and weight).
  /// Tenant identity for quota and fair-share accounting; "" is the
  /// anonymous default tenant.
  std::string tenant;
  /// Per-request WFQ weight override (0 = the tenant's configured
  /// weight). Larger weights drain faster while backlogged.
  double weight = 0.0;
};

/// Structured completion of one request.
struct RunResult {
  bool ok = false;
  std::string error;
  /// Machine-readable classification (Ok iff ok) — clients branch on
  /// this, never on the error string. is_retryable(code) says whether
  /// resubmitting can help.
  ErrorCode code = ErrorCode::Ok;
  /// For Shed/QuotaExceeded completions: suggested wait before
  /// resubmitting, seconds; 0 when not applicable.
  double retry_after_seconds = 0.0;
  /// Deploy+run attempts consumed (0 when the request never started).
  /// attempts - 1 retries were granted by the retry policy.
  int attempts = 0;

  std::string node_name;      // fleet node the request ran on
  std::string configuration;  // selected/resolved configuration id
  std::string image_digest;   // digest of the specialized (derived) image
  /// Whether the deployment reused a cached specialization instead of
  /// lowering/building.
  bool spec_cache_hit = false;

  /// Numerics + cost-model output of the execution.
  vm::RunResult run;
  /// sha256 over the run's returns, cost-model fields, and every output
  /// buffer — equal digests mean bit-identical results (the bench gate
  /// compares this against a direct deploy+run).
  std::string numerics_digest;

  // Per-stage wall-clock latencies, seconds.
  /// Always 0: the gateway holds no queue (the wait before serve() is the
  /// Cluster's, see ClusterRunResult::total_seconds). Kept only because
  /// the frozen perfbench harness reads it.
  double queue_seconds = 0.0;
  double deploy_seconds = 0.0;  // specialize (cache hit or lower/build)
  double run_seconds = 0.0;     // VM execution
  double total_seconds = 0.0;   // serve() entry to completion

  /// This gateway's completion order (1, 2, ...) — the observable the
  /// priority tests and request logs sort by.
  std::uint64_t completion_seq = 0;
};

/// Deterministic digest of a run's numeric outcome: returns, cost-model
/// counters, modeled time, and the contents of every workload buffer
/// after the run. Two executions are bit-identical iff digests match.
std::string numerics_digest(const vm::RunResult& run,
                            const vm::Workload& workload);

struct GatewayOptions {
  /// Unused: the gateway holds no queue, and the Cluster's max_pending is
  /// the one depth bound. Kept only because the frozen perfbench harness
  /// sets it.
  std::size_t max_queue = 256;
  /// Persistent artifact store directory. When non-empty the gateway
  /// owns an ArtifactStore rooted there and installs it as the disk tier
  /// under both specialization caches and the farm's TU caches — a
  /// restarted gateway pointed at a populated directory serves its first
  /// fleet with zero recompiles (bench/warm_start.cpp). Empty = no
  /// persistence (the seed behavior).
  std::string artifact_dir;
  /// Byte budget for the artifact store (0 = unlimited).
  std::uint64_t artifact_max_bytes = 0;
  /// Remote-registry membership (service/distribution.hpp): when
  /// non-null — and artifact_dir names a store — the gateway registers a
  /// DistributionPeer on this fabric and installs the remote tier under
  /// both caches, so cold keys pull from ring peers before building and
  /// fresh builds are announced for gossip pre-warming. Borrowed — the
  /// fabric must outlive the gateway.
  DistributionFabric* distribution = nullptr;
  /// This gateway's peer name on the fabric (the Cluster passes its
  /// shard name); defaults to "gateway" when empty.
  std::string distribution_name;
  /// Forwarded to the owned DeployScheduler / BuildFarm (their `threads`
  /// fields default to 1 here — serve() deploys synchronously on the
  /// caller's thread; their `artifact_store` pointers are overwritten
  /// with the owned store).
  DeploySchedulerOptions scheduler;
  BuildFarmOptions farm;
  /// Retry policy for transient deploy/run failures (max_attempts = 1
  /// disables retries). A waiter that inherited a failing single-flight
  /// leader's result retries immediately without consuming an attempt.
  RetryPolicy retry;
  /// Per-fleet-node circuit breaker configuration.
  CircuitBreaker::Options breaker;
};

/// The serving gateway. Owns the registry, the deploy services, the node
/// fleet, and the telemetry registry; serve() takes one request end to
/// end on the calling thread.
///
/// Thread-safety: serve(), snapshot(), and registry()/metrics() access
/// are safe from any thread (the Cluster's dispatchers call serve()
/// concurrently). scheduler() and farm() expose the owned services for
/// inspection (their const stats accessors are safe concurrently); do not
/// mutate them while the gateway is serving.
/// Ownership: the Gateway owns everything it exposes — references
/// returned by registry()/scheduler()/farm()/metrics() are valid for the
/// gateway's lifetime. Destroy it only after every serve() call returned.
///
/// Telemetry names reported (see docs/SERVICE.md "Telemetry"):
///   counters   gateway.{completed,failed,retries,breaker_open,
///              deadline_exceeded},
///              spec_cache.{hits,disk_hits,misses,deploy_failures},
///              tu_cache.{hits,disk_hits,compiles},
///              artifact_store.{disk_hits,disk_misses,writes,evictions,
///              verify_failures},
///              distribution.{blobs_in,bytes_in,blobs_out,bytes_out,
///              pushed_in,prewarm_fetches,lazy_fetches,verify_rejects}
///              (overlaid by snapshot() from this gateway's peer),
///              vm.{runs,instructions},
///              fault.<site> (via observe_fault_plan)
///              epoch.{swaps,deferred_frees} (RCU reclamation, overlaid
///              by snapshot() from the process-wide epoch domain)
///   histograms gateway.{deploy,run,total}_seconds,
///              spec_cache.lowering_seconds, tu_cache.compile_seconds
/// After every serve() returned: completed + failed ==
/// gateway.total_seconds count == serve() calls, exactly.
class Gateway {
public:
  using Clock = std::chrono::steady_clock;

  explicit Gateway(std::vector<vm::NodeSpec> fleet,
                   GatewayOptions options = {});

  Gateway(const Gateway&) = delete;
  Gateway& operator=(const Gateway&) = delete;

  /// Push an image into the gateway's registry (convenience passthrough).
  std::string push(const container::Image& image,
                   const std::string& reference) {
    return registry_.push(image, reference);
  }

  /// Serve one request on the calling thread: route, deploy, run (with
  /// retries and breakers), digest. Always returns a structured result.
  /// `admitted` starts the request's deadline clock — the Cluster passes
  /// its admission time, so time spent queued there is charged; a budget
  /// already spent on entry fails with DeadlineExceeded, attempts 0, and
  /// nothing deployed.
  RunResult serve(RunRequest request, Clock::time_point admitted = Clock::now());

  /// The circuit breaker guarding fleet()[index] (exposed for tests).
  const CircuitBreaker& node_breaker(std::size_t index) const {
    return *breakers_[index];
  }

  /// Mirror the plan's injected faults into this gateway's metrics as
  /// "fault.<site>" counters. Call before serving under the plan.
  void observe_fault_plan(fault::FaultPlan& plan);

  /// Point-in-time view of every metric, including the process-wide
  /// epoch-reclamation counters (epoch.swaps, epoch.deferred_frees).
  telemetry::MetricsSnapshot snapshot() const;
  /// Text render of snapshot() (what the demo and benches print).
  std::string render_telemetry() const { return snapshot().render(); }

  ShardedRegistry& registry() { return registry_; }
  telemetry::MetricsRegistry& metrics() { return metrics_; }
  DeployScheduler& scheduler() { return scheduler_; }
  BuildFarm& farm() { return farm_; }
  const std::vector<vm::NodeSpec>& fleet() const { return fleet_; }
  /// The owned persistent store, or nullptr when artifact_dir was empty.
  ArtifactStore* artifact_store() { return artifact_store_.get(); }
  /// This gateway's registry peer, or nullptr when no fabric was given.
  DistributionPeer* distribution() { return peer_.get(); }

private:
  /// Per-node in-flight count, cache-line-padded (routing reads all,
  /// serving threads write their own).
  struct alignas(64) NodeLoad {
    std::atomic<int> active{0};
  };

  /// Routing-epoch view of the breaker fleet: `open` nodes cooling until
  /// `open_until` are skipped by route() without consulting the live
  /// breaker, so one pass sees load and breaker state from the same
  /// snapshot (a node can never be selected after its breaker opened in
  /// the same pass).
  struct RouteTable {
    struct Node {
      bool open = false;
      Clock::time_point open_until{};
    };
    std::vector<Node> nodes;
  };

  /// Publish a node's breaker transition into the routing snapshot.
  void publish_route_state(std::size_t node_index, bool open,
                           Clock::time_point open_until);
  /// Fleet index serving this request, or -1 when none is available.
  /// `any_compatible` (when non-null) reports whether a compatible node
  /// exists at all — false means the request can never be served
  /// (architecture/march mismatch), true with -1 means every compatible
  /// node's breaker is open right now (transient).
  int route(const container::Image& image, const RunRequest& request,
            Clock::time_point now, bool* any_compatible);
  RunResult execute(RunRequest& request, const Deadline& deadline,
                    std::uint64_t seq);
  /// Sleep-and-continue decision after a transient failure: returns true
  /// when a retry was granted (counting gateway.retries), false when the
  /// attempt budget or deadline is spent (out.code/error are then final).
  bool backoff_for_retry(RunResult& out, ErrorCode code,
                         const std::string& error, int charged_attempts,
                         std::uint64_t jitter_seed, const Deadline& deadline,
                         bool immediate);

  GatewayOptions options_;
  std::vector<vm::NodeSpec> fleet_;

  // metrics_ precedes the services so the observers installed on their
  // caches (which reference these instruments) die after the services.
  telemetry::MetricsRegistry metrics_;
  telemetry::Counter* completed_ = nullptr;
  telemetry::Counter* failed_ = nullptr;
  telemetry::Counter* retries_ = nullptr;
  telemetry::Counter* breaker_open_ = nullptr;
  telemetry::Counter* deadline_exceeded_ = nullptr;
  telemetry::Counter* vm_runs_ = nullptr;
  telemetry::Counter* vm_instructions_ = nullptr;
  telemetry::Histogram* deploy_hist_ = nullptr;
  telemetry::Histogram* run_hist_ = nullptr;
  telemetry::Histogram* total_hist_ = nullptr;

  // Constructed before (so destroyed after) the services whose caches
  // hold tier adapters over it.
  std::unique_ptr<ArtifactStore> artifact_store_;
  // After the store (the peer serves out of it), before the services
  // (their distribution tiers borrow the peer). Registered on the fabric
  // for its whole lifetime; the Cluster quiesces cross-gateway traffic
  // (joins its dispatchers) before any gateway dies.
  std::unique_ptr<DistributionPeer> peer_;
  ShardedRegistry registry_;
  BuildFarm farm_;
  DeployScheduler scheduler_;
  std::vector<std::unique_ptr<NodeLoad>> load_;
  /// One breaker per fleet node (same indexing as fleet_/load_).
  std::vector<std::unique_ptr<CircuitBreaker>> breakers_;
  /// Epoch-snapshotted breaker view consumed by route() (see RouteTable).
  common::rcu::Snapshot<RouteTable> route_table_;
  // Hot independently-written atomics, each on its own cache line so a
  // routing scan and a completion never false-share.
  alignas(64) std::atomic<std::uint64_t> route_rr_{0};
  alignas(64) std::atomic<std::uint64_t> completion_seq_{0};
  alignas(64) std::atomic<std::uint64_t> next_seq_{0};
};

}  // namespace xaas::service
