// XaaS serving gateway: the front door that turns the container pieces
// into the service the paper describes (§2, §7 — and the companion
// "Acceleration as a Service" vision): a user submits *work*, not a
// deployment; the platform owns the fleet, specializes a container for
// the node it picks, runs the workload, and answers with numerics plus a
// structured account of where the time went and which caches hit.
//
// One request travels:
//
//   submit() ── admission ──> per-class MPMC rings ── worker ──> routing
//     (bounded, backpressure)    (priority desc,          (ISA compatibility +
//                                 FIFO within a class)     least current load,
//                                                          one epoch snapshot)
//        ──> deploy (DeployScheduler/BuildFarm; SpecializationCache and
//             CompileCache make repeat specializations ~free)
//        ──> run (pre-decoded program on the routed node, per-run stats
//             hook into telemetry)
//        ──> RunResult {numerics digest, per-stage latencies, cache hits}
//
// Everything the gateway and the caches do is measured into a
// telemetry::MetricsRegistry (see telemetry.hpp); snapshot() exposes it.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/mpmc_ring.hpp"
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
  /// Admission priority: higher runs first; FIFO within one priority.
  int priority = 0;
  /// Total wall-clock budget in seconds, measured from admission
  /// (0 = no deadline). Checked at dequeue, before each attempt, before
  /// the run, and before every backoff sleep; work already in flight is
  /// never preempted.
  double deadline_seconds = 0.0;

  // Multi-tenancy (consumed by the cluster front tier,
  // service/cluster.hpp — a single Gateway ignores both fields).
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
  /// For QueueFull/Shed completions: suggested wait before resubmitting,
  /// seconds (estimated queue drain time); 0 when not applicable.
  double retry_after_seconds = 0.0;
  /// Deploy+run attempts consumed (0 when the request never left the
  /// queue). attempts - 1 retries were granted by the retry policy.
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
  double queue_seconds = 0.0;   // admission to dequeue by a worker
  double deploy_seconds = 0.0;  // specialize (cache hit or lower/build)
  double run_seconds = 0.0;     // VM execution
  double total_seconds = 0.0;   // admission to completion

  /// Global completion order (1, 2, ...) — the observable the priority
  /// tests and request logs sort by.
  std::uint64_t completion_seq = 0;
};

/// Deterministic digest of a run's numeric outcome: returns, cost-model
/// counters, modeled time, and the contents of every workload buffer
/// after the run. Two executions are bit-identical iff digests match.
std::string numerics_digest(const vm::RunResult& run,
                            const vm::Workload& workload);

struct GatewayOptions {
  /// Worker threads executing requests (0 = hardware concurrency). The
  /// gateway's workers are the fan-out; the inner scheduler/farm pools
  /// are left at 1 thread unless explicitly set.
  std::size_t worker_threads = 0;
  /// Admitted-but-not-started bound, clamped to >= 1 (a zero bound
  /// would make blocking submission unsatisfiable). At the bound,
  /// submit() blocks (backpressure) or, with reject_on_full, completes
  /// the future immediately with an error.
  std::size_t max_queue = 256;
  bool reject_on_full = false;
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
  /// fields default to 1 here — see worker_threads; their
  /// `artifact_store` pointers are overwritten with the owned store).
  DeploySchedulerOptions scheduler;
  BuildFarmOptions farm;
  /// Retry policy for transient deploy/run failures (max_attempts = 1
  /// disables retries). A waiter that inherited a failing single-flight
  /// leader's result retries immediately without consuming an attempt.
  RetryPolicy retry;
  /// Per-fleet-node circuit breaker configuration.
  CircuitBreaker::Options breaker;
  /// Graceful degradation: shed new submissions (code Shed + retry_after
  /// hint, distinct from rejected) when the queue holds more than this
  /// fraction of max_queue. 0 (default) disables depth shedding.
  double shed_queue_fraction = 0.0;
  /// Shed when the failure rate over the trailing window exceeds this
  /// fraction. 0 (default) disables failure-rate shedding.
  double shed_failure_rate = 0.0;
  /// Completions required in the window before the failure-rate rule
  /// applies (avoids shedding on the first unlucky request).
  std::size_t shed_min_samples = 16;
  /// Failure-rate window length, seconds.
  double shed_window_seconds = 1.0;
  /// Weighted priority drain: after this many consecutive dequeues from
  /// one priority class, a worker offers the next lower class one
  /// dequeue before returning to the top — bounds starvation of low
  /// classes under a sustained high-priority stream. 0 (the default)
  /// keeps strict priority order (higher always drains first).
  std::size_t drain_quantum = 0;
};

/// The serving gateway. Owns the registry, the deploy services, the node
/// fleet, and the telemetry registry; serves submit() end to end.
///
/// Thread-safety: submit(), run_all(), snapshot(), queue_depth(), and
/// registry()/metrics() access are safe from any thread. scheduler() and
/// farm() expose the owned services for inspection (their const stats
/// accessors are safe concurrently); do not mutate them while the
/// gateway is serving.
/// Ownership: the Gateway owns everything it exposes — references
/// returned by registry()/scheduler()/farm()/metrics() are valid for the
/// gateway's lifetime. The destructor stops admission, drains every
/// queued request (their futures complete), and joins the workers.
///
/// Telemetry names reported (see docs/SERVICE.md "Telemetry"):
///   counters   gateway.{requests,admitted,rejected,shed,completed,failed,
///              backpressure_waits,retries,breaker_open,deadline_exceeded},
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
///   gauges     gateway.queue_depth, gateway.in_flight
///   histograms gateway.{queue,deploy,run,total}_seconds,
///              spec_cache.lowering_seconds, tu_cache.compile_seconds
/// After the queue drains: requests == admitted + rejected + shed and
/// admitted == completed + failed == gateway.total_seconds count —
/// exactly, including across the per-class admission rings.
class Gateway {
public:
  explicit Gateway(std::vector<vm::NodeSpec> fleet,
                   GatewayOptions options = {});
  ~Gateway();

  Gateway(const Gateway&) = delete;
  Gateway& operator=(const Gateway&) = delete;

  /// Push an image into the gateway's registry (convenience passthrough).
  std::string push(const container::Image& image,
                   const std::string& reference) {
    return registry_.push(image, reference);
  }

  /// Submit one request; the future completes when the request finishes
  /// (also on failure/rejection — never check .valid(), check .ok).
  std::future<RunResult> submit(RunRequest request);

  /// Submit a batch and wait; results are returned in request order.
  std::vector<RunResult> run_all(std::vector<RunRequest> requests);

  /// Submit a batch without ever blocking the caller: a request that
  /// would wait for queue space is shed (code Shed + retry_after hint)
  /// instead, so an overload spike degrades to a partial batch rather
  /// than a stalled client. Futures are returned in request order.
  std::vector<std::future<RunResult>> submit_batch(
      std::vector<RunRequest> requests);

  /// The circuit breaker guarding fleet()[index] (exposed for tests).
  const CircuitBreaker& node_breaker(std::size_t index) const {
    return *breakers_[index];
  }

  /// Mirror the plan's injected faults into this gateway's metrics as
  /// "fault.<site>" counters. Call before serving under the plan.
  void observe_fault_plan(fault::FaultPlan& plan);

  /// Admitted-but-not-started requests right now.
  std::size_t queue_depth() const;

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
  using Clock = std::chrono::steady_clock;

  struct Job {
    RunRequest request;
    std::promise<RunResult> promise;
    Clock::time_point admitted;
    /// Admission sequence number; seeds the per-request backoff jitter.
    std::uint64_t seq = 0;
  };

  /// Per-node in-flight count, cache-line-padded (routing reads all,
  /// workers write their own).
  struct alignas(64) NodeLoad {
    std::atomic<int> active{0};
  };

  /// One bounded MPMC ring per priority value, FIFO within the class.
  /// Classes are created on demand, owned forever (class_storage_), and
  /// published to workers through an RCU snapshot sorted by descending
  /// priority — admission and drain never take a queue-wide lock.
  struct ClassRing {
    ClassRing(std::int64_t priority_, std::size_t capacity)
        : priority(priority_), ring(capacity) {}
    const std::int64_t priority;
    common::MpmcRing<Job> ring;
  };
  using ClassTable = std::vector<ClassRing*>;

  /// Per-worker weighted-drain state (see GatewayOptions::drain_quantum).
  struct DrainState {
    std::int64_t last_priority = 0;
    std::size_t streak = 0;
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

  void worker_loop();
  std::future<RunResult> submit_impl(RunRequest request, bool never_block);
  /// Ring for `priority`, creating (and publishing) the class on first use.
  common::MpmcRing<Job>* ring_for(std::int64_t priority);
  /// Pop the next job honoring priority order (strict, or weighted when
  /// drain_quantum > 0). Lock-free: pins the class table and scans.
  bool try_dequeue(Job& out, DrainState& drain);
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
  RunResult execute(RunRequest& request, Clock::time_point admitted,
                    std::uint64_t seq);
  /// Sleep-and-continue decision after a transient failure: returns true
  /// when a retry was granted (counting gateway.retries), false when the
  /// attempt budget or deadline is spent (out.code/error are then final).
  bool backoff_for_retry(RunResult& out, ErrorCode code,
                         const std::string& error, int charged_attempts,
                         std::uint64_t jitter_seed, const Deadline& deadline,
                         bool immediate);
  RunResult reject(RunRequest& request, ErrorCode code,
                   const std::string& reason, double retry_after = 0.0);
  RunResult shed(const RunRequest& request, double retry_after);
  /// Whether admission should shed right now (queue fraction or trailing
  /// failure rate over threshold). Lock-free.
  bool should_shed() const;
  /// Estimated queue drain time — the retry_after hint. Lock-free.
  double retry_after_hint() const;
  /// Feed the failure-rate window and the service-time EMA.
  void record_completion(bool ok, double total_seconds);
  void finish(Job job, RunResult result);

  GatewayOptions options_;
  std::vector<vm::NodeSpec> fleet_;

  // metrics_ precedes the services so the observers installed on their
  // caches (which reference these instruments) die after the services.
  telemetry::MetricsRegistry metrics_;
  telemetry::Counter* requests_ = nullptr;
  telemetry::Counter* admitted_ = nullptr;
  telemetry::Counter* rejected_ = nullptr;
  telemetry::Counter* shed_ = nullptr;
  telemetry::Counter* completed_ = nullptr;
  telemetry::Counter* failed_ = nullptr;
  telemetry::Counter* backpressure_waits_ = nullptr;
  telemetry::Counter* retries_ = nullptr;
  telemetry::Counter* breaker_open_ = nullptr;
  telemetry::Counter* deadline_exceeded_ = nullptr;
  telemetry::Counter* vm_runs_ = nullptr;
  telemetry::Counter* vm_instructions_ = nullptr;
  telemetry::Gauge* queue_depth_ = nullptr;
  telemetry::Gauge* in_flight_ = nullptr;
  telemetry::Histogram* queue_hist_ = nullptr;
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
  // routing scan, a completion, and an admission never false-share.
  alignas(64) std::atomic<std::uint64_t> route_rr_{0};
  alignas(64) std::atomic<std::uint64_t> completion_seq_{0};
  alignas(64) std::atomic<std::uint64_t> next_seq_{0};
  /// Admitted-but-not-started count: the ticket that enforces max_queue
  /// across all class rings (incremented before push, decremented after
  /// pop — so no ring can ever be offered more than its capacity).
  alignas(64) std::atomic<std::size_t> queued_{0};

  // Trailing failure-rate window (load shedding) + service-time EMA (the
  // retry_after hint). All relaxed atomics: shedding is advisory.
  std::atomic<std::int64_t> window_start_nanos_{0};
  std::atomic<std::uint64_t> window_total_{0};
  std::atomic<std::uint64_t> window_failed_{0};
  std::atomic<std::uint64_t> service_ema_bits_{0};  // bit_cast<double>

  /// Class-ring ownership: rings are created on demand, never freed
  /// while the gateway lives (workers hold raw pointers via the pinned
  /// ClassTable snapshot). class_mutex_ serializes creation only —
  /// admission and drain go through class_table_ lock-free.
  std::mutex class_mutex_;
  std::vector<std::unique_ptr<ClassRing>> class_storage_;
  common::rcu::Snapshot<ClassTable> class_table_;

  /// Sleep/wake plumbing only — never guards queue state. Producers and
  /// consumers touch it solely to publish "something changed" to a
  /// blocked peer (acquired empty before notify so wakeups can't be
  /// lost); the job handoff itself is the lock-free ring.
  std::mutex wait_mutex_;
  std::condition_variable cv_workers_;  // a job was pushed / stopping
  std::condition_variable cv_space_;    // a job was popped / stopping
  std::atomic<bool> stop_{false};

  std::vector<std::thread> workers_;  // last member: started after, joined in dtor
};

}  // namespace xaas::service
