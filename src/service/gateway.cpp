#include "service/gateway.hpp"

#include <bit>
#include <limits>
#include <thread>

#include "common/sha256.hpp"
#include "container/image.hpp"
#include "service/distribution.hpp"

namespace xaas::service {

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

// The fields and buffers are hashed in place, so their memory must already
// be the digest's little-endian encoding (docs/SERVICE.md).
static_assert(std::endian::native == std::endian::little,
              "numerics_digest hashes buffer memory as little-endian");
static_assert(sizeof(double) == 8 && sizeof(long long) == 8);

template <typename T>
void hash_buffers(common::Sha256& hash,
                  const std::map<std::string, std::vector<T>>& buffers) {
  for (const auto& [name, buffer] : buffers) {
    hash.update(name.c_str(), name.size() + 1);  // name and its NUL
    const std::uint64_t count = buffer.size();
    hash.update(&count, sizeof count);
    hash.update(buffer.data(), buffer.size() * sizeof(T));
  }
}

/// Whether a fleet node can serve an image of the given OCI architecture
/// (source images are per-base-ISA; IR images use the llvm-ir+<isa>
/// pseudo-architectures of §5.2).
bool node_serves_arch(const vm::NodeSpec& node, const std::string& arch) {
  if (node.cpu.arch == isa::Arch::X86_64) {
    return arch == container::kArchAmd64 || arch == container::kArchLlvmIrAmd64;
  }
  return arch == container::kArchArm64 || arch == container::kArchLlvmIrArm64;
}

}  // namespace

std::string numerics_digest(const vm::RunResult& run,
                            const vm::Workload& workload) {
  common::Sha256 hash;
  const std::uint64_t fields[] = {
      std::bit_cast<std::uint64_t>(run.ret_f64),
      static_cast<std::uint64_t>(run.ret_i64),
      std::bit_cast<std::uint64_t>(run.cycles_serial),
      std::bit_cast<std::uint64_t>(run.cycles_parallel),
      std::bit_cast<std::uint64_t>(run.cycles_gpu),
      static_cast<std::uint64_t>(run.fork_joins),
      static_cast<std::uint64_t>(run.instructions),
      std::bit_cast<std::uint64_t>(run.elapsed_seconds)};
  hash.update(fields, sizeof fields);
  hash_buffers(hash, workload.f64_buffers);
  hash_buffers(hash, workload.i64_buffers);
  return hash.hex_digest();
}

Gateway::Gateway(std::vector<vm::NodeSpec> fleet, GatewayOptions options)
    : options_(std::move(options)),
      fleet_(std::move(fleet)),
      artifact_store_([&]() -> std::unique_ptr<ArtifactStore> {
        if (options_.artifact_dir.empty()) return nullptr;
        ArtifactStoreOptions store_options;
        store_options.dir = options_.artifact_dir;
        store_options.max_bytes = options_.artifact_max_bytes;
        return std::make_unique<ArtifactStore>(std::move(store_options));
      }()),
      peer_([&]() -> std::unique_ptr<DistributionPeer> {
        // The registry peer needs a store to serve from; without one the
        // gateway simply stays off the fabric.
        if (!options_.distribution || !artifact_store_) return nullptr;
        return std::make_unique<DistributionPeer>(
            options_.distribution_name.empty() ? "gateway"
                                               : options_.distribution_name,
            *artifact_store_, *options_.distribution);
      }()),
      farm_(registry_,
            [&] {
              // serve() deploys synchronously on the caller's thread; an
              // inner pool at hardware concurrency would only idle.
              BuildFarmOptions farm_options = options_.farm;
              if (farm_options.threads == 0) farm_options.threads = 1;
              farm_options.artifact_store = artifact_store_.get();
              farm_options.distribution = peer_.get();
              return farm_options;
            }()),
      scheduler_(registry_, farm_, [&] {
        DeploySchedulerOptions sched_options = options_.scheduler;
        if (sched_options.threads == 0) sched_options.threads = 1;
        sched_options.artifact_store = artifact_store_.get();
        sched_options.distribution = peer_.get();
        return sched_options;
      }()) {
  completed_ = &metrics_.counter("gateway.completed");
  failed_ = &metrics_.counter("gateway.failed");
  retries_ = &metrics_.counter("gateway.retries");
  breaker_open_ = &metrics_.counter("gateway.breaker_open");
  deadline_exceeded_ = &metrics_.counter("gateway.deadline_exceeded");
  vm_runs_ = &metrics_.counter("vm.runs");
  vm_instructions_ = &metrics_.counter("vm.instructions");
  deploy_hist_ = &metrics_.histogram("gateway.deploy_seconds");
  run_hist_ = &metrics_.histogram("gateway.run_seconds");
  total_hist_ = &metrics_.histogram("gateway.total_seconds");

  // The existing caches report into the same registry: both
  // whole-deployment caches (IR scheduler + source farm) feed one set of
  // specialization metrics, the farm's per-image TU caches feed the TU
  // metrics.
  auto* spec_hits = &metrics_.counter("spec_cache.hits");
  auto* spec_disk_hits = &metrics_.counter("spec_cache.disk_hits");
  auto* spec_misses = &metrics_.counter("spec_cache.misses");
  auto* spec_failures = &metrics_.counter("spec_cache.deploy_failures");
  auto* lowering_hist = &metrics_.histogram("spec_cache.lowering_seconds");
  const auto spec_observer =
      [spec_hits, spec_disk_hits, spec_misses, spec_failures,
       lowering_hist](const SpecializationCache::Event& event) {
        if (event.hit) {
          spec_hits->add(1);
          return;
        }
        if (event.disk_hit) {
          spec_disk_hits->add(1);
          return;
        }
        spec_misses->add(1);
        lowering_hist->observe(event.deploy_seconds);
        if (!event.ok) spec_failures->add(1);
      };
  scheduler_.cache().set_observer(spec_observer);
  farm_.cache().set_observer(spec_observer);

  auto* tu_hits = &metrics_.counter("tu_cache.hits");
  auto* tu_disk_hits = &metrics_.counter("tu_cache.disk_hits");
  auto* tu_compiles = &metrics_.counter("tu_cache.compiles");
  auto* tu_hist = &metrics_.histogram("tu_cache.compile_seconds");
  farm_.set_tu_observer(
      [tu_hits, tu_disk_hits, tu_compiles,
       tu_hist](const minicc::CompileCache::CompileEvent& event) {
        if (event.tu_cache_hit) {
          tu_hits->add(1);
          return;
        }
        if (event.disk_hit) {
          tu_disk_hits->add(1);
          return;
        }
        tu_compiles->add(1);
        tu_hist->observe(event.seconds);
      });

  if (artifact_store_) {
    auto* store_hits = &metrics_.counter("artifact_store.disk_hits");
    auto* store_misses = &metrics_.counter("artifact_store.disk_misses");
    auto* store_writes = &metrics_.counter("artifact_store.writes");
    auto* store_evictions = &metrics_.counter("artifact_store.evictions");
    auto* store_verify_failures =
        &metrics_.counter("artifact_store.verify_failures");
    artifact_store_->set_observer(
        [store_hits, store_misses, store_writes, store_evictions,
         store_verify_failures](const ArtifactStore::Event& event) {
          switch (event.kind) {
            case ArtifactStore::Event::Kind::DiskHit:
              store_hits->add(1);
              break;
            case ArtifactStore::Event::Kind::DiskMiss:
              store_misses->add(1);
              break;
            case ArtifactStore::Event::Kind::Write:
              store_writes->add(1);
              break;
            case ArtifactStore::Event::Kind::Eviction:
              store_evictions->add(1);
              break;
            case ArtifactStore::Event::Kind::VerifyFailure:
              store_verify_failures->add(1);
              break;
          }
        });
  }

  load_.reserve(fleet_.size());
  breakers_.reserve(fleet_.size());
  for (std::size_t i = 0; i < fleet_.size(); ++i) {
    load_.push_back(std::make_unique<NodeLoad>());
    breakers_.push_back(std::make_unique<CircuitBreaker>(options_.breaker));
  }
  // Routing snapshot starts all-closed (matches the fresh breakers).
  {
    auto table = std::make_unique<RouteTable>();
    table->nodes.resize(fleet_.size());
    route_table_.store(std::move(table));
  }
}

RunResult Gateway::serve(RunRequest request, Clock::time_point admitted) {
  const auto entered = Clock::now();
  const std::uint64_t seq = next_seq_.fetch_add(1, std::memory_order_relaxed);
  const Deadline deadline =
      request.deadline_seconds > 0.0
          ? Deadline::after(request.deadline_seconds, admitted)
          : Deadline();
  RunResult result;
  if (deadline.expired(entered)) {
    // The budget ran out while queued: fail fast, never start work.
    deadline_exceeded_->add(1);
    result.code = ErrorCode::DeadlineExceeded;
    result.error = "deadline exceeded while queued";
  } else {
    result = execute(request, deadline, seq);
  }
  result.total_seconds = seconds_since(entered);
  total_hist_->observe(result.total_seconds);
  (result.ok ? completed_ : failed_)->add(1);
  result.completion_seq = completion_seq_.fetch_add(1) + 1;
  return result;
}

void Gateway::observe_fault_plan(fault::FaultPlan& plan) {
  plan.set_observer([this](std::string_view site) {
    metrics_.counter("fault." + std::string(site)).add(1);
  });
}

telemetry::MetricsSnapshot Gateway::snapshot() const {
  telemetry::MetricsSnapshot snap = metrics_.snapshot();
  // Process-wide RCU reclamation counters: every snapshot swap retires
  // one version, every deferred free reclaims one.
  const auto& domain = common::rcu::EpochDomain::instance();
  snap.counters["epoch.swaps"] = domain.retired();
  snap.counters["epoch.deferred_frees"] = domain.freed();
  // This gateway's registry-peer counters (fabric-wide totals live in
  // the Cluster's snapshot — overlaying them here too would double-count
  // across gateways).
  if (peer_) {
    const PeerStats stats = peer_->stats();
    snap.counters["distribution.blobs_in"] = stats.blobs_in;
    snap.counters["distribution.bytes_in"] = stats.bytes_in;
    snap.counters["distribution.blobs_out"] = stats.blobs_out;
    snap.counters["distribution.bytes_out"] = stats.bytes_out;
    snap.counters["distribution.pushed_in"] = stats.pushed_in;
    snap.counters["distribution.prewarm_fetches"] = stats.prewarm_fetches;
    snap.counters["distribution.lazy_fetches"] = stats.lazy_fetches;
    snap.counters["distribution.verify_rejects"] = stats.verify_rejects;
  }
  return snap;
}

void Gateway::publish_route_state(std::size_t node_index, bool open,
                                  Clock::time_point open_until) {
  route_table_.update([&](RouteTable& table) {
    table.nodes[node_index].open = open;
    table.nodes[node_index].open_until = open_until;
  });
}

int Gateway::route(const container::Image& image, const RunRequest& request,
                   Clock::time_point now, bool* any_compatible) {
  if (any_compatible) *any_compatible = false;
  const std::size_t n = fleet_.size();
  if (n == 0) return -1;
  // Two passes at most: the second covers a breaker that opened while
  // the first pass was scanning (detected by the post-selection check).
  for (int pass = 0; pass < 2; ++pass) {
    // One pinned snapshot per pass: breaker state and the skip decision
    // come from the same epoch, so a node whose breaker opened before
    // the pass began can never be selected by it.
    const auto table = route_table_.read();
    // Rotate the scan start so equal-load compatible nodes share work.
    const std::size_t start =
        static_cast<std::size_t>(route_rr_.fetch_add(1) % n);
    int best = -1;
    int best_load = std::numeric_limits<int>::max();
    for (std::size_t k = 0; k < n; ++k) {
      const std::size_t i = (start + k) % n;
      const vm::NodeSpec& node = fleet_[i];
      if (!node_serves_arch(node, image.architecture)) continue;
      if (request.march) {
        // An explicit march the node cannot execute would only fail the
        // plan downstream — route around it up front.
        if (isa::arch_of(*request.march) != node.cpu.arch ||
            !isa::runs_on(*request.march, node.best_vector_isa())) {
          continue;
        }
      }
      if (any_compatible) *any_compatible = true;
      // A tripped breaker takes the node out of rotation until it
      // cools. Cooling nodes are skipped from the snapshot alone; once
      // the cooldown has elapsed the live breaker arbitrates half-open
      // probes (allow() hands out the bounded probe tokens).
      const RouteTable::Node& gate = table->nodes[i];
      if (gate.open && now < gate.open_until) continue;
      if (!breakers_[i]->allow(now)) continue;
      const int load = load_[i]->active.load(std::memory_order_relaxed);
      if (load < best_load) {
        best = static_cast<int>(i);
        best_load = load;
      }
    }
    if (best < 0) return -1;
    // Re-validate against the live breaker: if it opened mid-pass (after
    // our snapshot was pinned), rescan once with the fresh table instead
    // of routing to a node already known bad.
    if (breakers_[static_cast<std::size_t>(best)]->state() !=
        CircuitBreaker::State::Open) {
      return best;
    }
  }
  return -1;  // both passes raced an opening breaker: transient
}

bool Gateway::backoff_for_retry(RunResult& out, ErrorCode code,
                                const std::string& error, int charged_attempts,
                                std::uint64_t jitter_seed,
                                const Deadline& deadline, bool immediate) {
  if (charged_attempts >= options_.retry.max_attempts) {
    out.code = code;
    out.error = error + " (gave up after " +
                std::to_string(charged_attempts) + " attempts)";
    return false;
  }
  double backoff = 0.0;
  if (!immediate && charged_attempts > 0) {
    backoff = options_.retry.backoff_seconds(charged_attempts, jitter_seed);
  }
  if (deadline.active() &&
      deadline.remaining_seconds(Clock::now()) <= backoff) {
    // The budget cannot cover the sleep, let alone the retry.
    deadline_exceeded_->add(1);
    out.code = ErrorCode::DeadlineExceeded;
    out.error = "deadline exceeded while retrying after: " + error;
    return false;
  }
  if (backoff > 0.0) {
    std::this_thread::sleep_for(std::chrono::duration<double>(backoff));
  }
  retries_->add(1);
  return true;
}

RunResult Gateway::execute(RunRequest& request, const Deadline& deadline,
                           std::uint64_t seq) {
  RunResult out;

  const auto digest = registry_.resolve(request.image_reference);
  if (!digest) {
    out.code = ErrorCode::NotFound;
    out.error = "image not found in registry: " + request.image_reference;
    return out;
  }
  const auto image = registry_.pull(*digest);  // shared, no layer copy

  // Decorrelate backoff jitter across requests while keeping one
  // request's schedule a pure function of its serve() order.
  const std::uint64_t jitter_seed = (seq + 1) * 0x9e3779b97f4a7c15ULL;
  // Inherited single-flight failures (a waiter that joined a failing
  // leader) retry immediately without consuming attempts — but bounded,
  // so a pathological plan cannot loop forever.
  constexpr int kMaxInheritedRetries = 32;
  int inherited_retries = 0;

  for (int attempt = 1;; ++attempt) {
    out.attempts = attempt;
    const auto now = Clock::now();
    if (deadline.expired(now)) {
      deadline_exceeded_->add(1);
      out.code = ErrorCode::DeadlineExceeded;
      out.error = "deadline exceeded before attempt " +
                  std::to_string(attempt);
      return out;
    }

    bool any_compatible = false;
    const int node_index = route(*image, request, now, &any_compatible);
    if (node_index < 0) {
      if (!any_compatible) {
        // No node can *ever* serve this request: permanent, no retry.
        out.code = ErrorCode::NoCompatibleNode;
        out.error =
            "no compatible node in fleet for " + request.image_reference +
            " (architecture " + image->architecture +
            (request.march
                 ? ", march " + std::string(isa::to_string(*request.march))
                 : "") +
            ")";
        return out;
      }
      // Compatible nodes exist but every breaker is open right now.
      if (!backoff_for_retry(out, ErrorCode::NodesUnavailable,
                             "all compatible nodes unavailable (circuit "
                             "breakers open)",
                             attempt - inherited_retries, jitter_seed,
                             deadline, /*immediate=*/false)) {
        return out;
      }
      continue;
    }
    const vm::NodeSpec& node = fleet_[static_cast<std::size_t>(node_index)];
    out.node_name = node.name;
    CircuitBreaker& breaker = *breakers_[static_cast<std::size_t>(node_index)];
    NodeLoad& load = *load_[static_cast<std::size_t>(node_index)];
    load.active.fetch_add(1, std::memory_order_relaxed);

    // Deploy: the scheduler routes source images to the farm by the
    // container-kind annotation; both paths land in a specialization
    // cache, so repeat (image, config, target) requests reuse the cached
    // app.
    MixedDeployRequest deploy_request;
    deploy_request.node = node;
    deploy_request.image_reference = *digest;
    deploy_request.selections = request.selections;
    deploy_request.march = request.march;
    deploy_request.opt_level = request.opt_level;
    deploy_request.auto_specialize = request.auto_specialize;
    const auto t_deploy = Clock::now();
    const FleetDeployResult deployed = scheduler_.deploy(deploy_request);
    const double deploy_seconds = seconds_since(t_deploy);
    out.deploy_seconds += deploy_seconds;  // accumulated across attempts
    deploy_hist_->observe(deploy_seconds);
    if (!deployed.ok) {
      load.active.fetch_sub(1, std::memory_order_relaxed);
      if (!deployed.transient) {
        // Deterministic failure (unknown image, bad plan, malformed
        // source): retrying cannot help.
        out.code = deployed.code == ErrorCode::Ok ? ErrorCode::DeployFailed
                                                  : deployed.code;
        out.error = deployed.error;
        return out;
      }
      // Transient deploy failure. Failed lowerings are never cached
      // (spec_cache.cpp / compile_cache.cpp erase before publishing), so
      // a retry elects a fresh deployer. A waiter that inherited the
      // leader's failure (cache_hit on a failed result) did not spend
      // its own attempt — it retries immediately.
      const bool inherited = deployed.cache_hit;
      if (inherited) {
        ++inherited_retries;
        if (inherited_retries > kMaxInheritedRetries) {
          out.code = deployed.code;
          out.error = deployed.error + " (too many inherited failures)";
          return out;
        }
      }
      if (!backoff_for_retry(out, deployed.code, deployed.error,
                             attempt - inherited_retries, jitter_seed,
                             deadline, /*immediate=*/inherited)) {
        return out;
      }
      continue;
    }
    out.configuration = deployed.configuration;
    out.spec_cache_hit = deployed.cache_hit;
    // Memoized at deploy time; falling back to a fresh digest only covers
    // hand-constructed apps that never went through a deploy path.
    out.image_digest = deployed.app->image_digest.empty()
                           ? deployed.app->image.digest()
                           : deployed.app->image_digest;

    // The deploy may have eaten the budget: check before committing to
    // the run.
    if (deadline.expired(Clock::now())) {
      load.active.fetch_sub(1, std::memory_order_relaxed);
      deadline_exceeded_->add(1);
      out.code = ErrorCode::DeadlineExceeded;
      out.error = "deadline exceeded after deploy, before run";
      return out;
    }

    // Injected node failure modes: a crashed node fails every run routed
    // to it (its breaker opens and routing moves on); a slow node stalls
    // before executing.
    fault::FaultPlan* plan = fault::FaultInjector::active();
    vm::RunResult run;
    if (plan != nullptr && plan->node_crashed(node.name)) {
      run.ok = false;
      run.error = "injected node crash on " + node.name;
    } else {
      if (plan != nullptr && plan->fires(fault::kNodeSlow, node.name)) {
        std::this_thread::sleep_for(
            std::chrono::duration<double>(plan->slowdown_seconds()));
      }
      // Run on the routed node through the shared pre-decoded program;
      // the stats hook streams VM counters into telemetry.
      vm::ExecutorOptions exec_options;
      exec_options.threads = request.threads;
      exec_options.stats_hook = [this](const vm::RunResult& r) {
        vm_runs_->add(1);
        if (r.instructions > 0) {
          vm_instructions_->add(static_cast<std::uint64_t>(r.instructions));
        }
      };
      const auto t_run = Clock::now();
      run = deployed.app->run_on(node, request.workload, exec_options);
      const double run_seconds = seconds_since(t_run);
      out.run_seconds += run_seconds;  // accumulated across attempts
      run_hist_->observe(run_seconds);
    }
    load.active.fetch_sub(1, std::memory_order_relaxed);

    if (!run.ok) {
      const auto failure_now = Clock::now();
      if (breaker.record_failure(failure_now)) {
        breaker_open_->add(1);
        // Publish the trip into the routing snapshot: every route() pass
        // that pins a later epoch skips this node until it cools.
        publish_route_state(
            static_cast<std::size_t>(node_index), /*open=*/true,
            failure_now + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(
                                  options_.breaker.open_seconds)));
      }
      if (!backoff_for_retry(out, ErrorCode::RunFailed,
                             "run failed: " + run.error,
                             attempt - inherited_retries, jitter_seed,
                             deadline, /*immediate=*/false)) {
        return out;
      }
      continue;
    }
    breaker.record_success();
    // Close the routing gate if this node was marked open (a successful
    // half-open probe just re-admitted it). Probe only the snapshot on
    // the common path so healthy-node successes publish nothing.
    if (route_table_.read()->nodes[static_cast<std::size_t>(node_index)].open) {
      publish_route_state(static_cast<std::size_t>(node_index),
                          /*open=*/false, Clock::time_point{});
    }
    out.run = std::move(run);
    out.numerics_digest = numerics_digest(out.run, request.workload);
    out.code = ErrorCode::Ok;
    out.ok = true;
    return out;
  }
}

}  // namespace xaas::service
