#include "service/cluster.hpp"

#include <algorithm>
#include <bit>
#include <chrono>

#include "common/hashing.hpp"

namespace xaas::service {

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// SplitMix64 finalizer: decorrelates ring points derived from the same
/// member hash (replica index) and mixes the seed into key hashes.
std::uint64_t mix64(std::uint64_t x) {
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

// ---- ConsistentHashRing ----------------------------------------------------

ConsistentHashRing::ConsistentHashRing(std::size_t vnodes, std::uint64_t seed)
    : vnodes_(vnodes == 0 ? 1 : vnodes), seed_(seed) {}

std::uint64_t ConsistentHashRing::point(const std::string& member,
                                        std::size_t replica) const {
  return mix64(common::fnv1a_64(member) ^ seed_ ^
               (static_cast<std::uint64_t>(replica) * 0x9e3779b97f4a7c15ULL));
}

void ConsistentHashRing::add(const std::string& member) {
  if (!members_.insert(member).second) return;  // already present
  for (std::size_t r = 0; r < vnodes_; ++r) {
    auto& names = ring_[point(member, r)];
    names.insert(std::upper_bound(names.begin(), names.end(), member), member);
  }
}

void ConsistentHashRing::remove(const std::string& member) {
  if (members_.erase(member) == 0) return;
  for (std::size_t r = 0; r < vnodes_; ++r) {
    const auto it = ring_.find(point(member, r));
    if (it == ring_.end()) continue;
    auto& names = it->second;
    names.erase(std::remove(names.begin(), names.end(), member), names.end());
    if (names.empty()) ring_.erase(it);
  }
}

std::string ConsistentHashRing::lookup(std::string_view key) const {
  if (ring_.empty()) return {};
  const std::uint64_t h = mix64(common::fnv1a_64(key) ^ seed_);
  auto it = ring_.lower_bound(h);
  if (it == ring_.end()) it = ring_.begin();  // wrap
  return it->second.front();
}

// ---- Cluster ---------------------------------------------------------------

std::size_t workload_bytes(const vm::Workload& workload) {
  std::size_t bytes = 64;  // request framing
  for (const auto& [name, buffer] : workload.f64_buffers) {
    bytes += name.size() + 16 + buffer.size() * sizeof(double);
  }
  for (const auto& [name, buffer] : workload.i64_buffers) {
    bytes += name.size() + 16 + buffer.size() * sizeof(long long);
  }
  return bytes;
}

std::string Cluster::request_class_key(const RunRequest& request) {
  std::string key;
  common::key_append(key, request.image_reference);
  common::key_append(key, common::canonical_selections(request.selections));
  common::key_append(key,
                     request.march ? isa::to_string(*request.march) : "auto");
  common::key_append(key, std::to_string(request.opt_level));
  return key;
}

Cluster::Cluster(std::vector<vm::NodeSpec> fleet, ClusterOptions options)
    : options_(std::move(options)),
      ring_(options_.vnodes, options_.seed),
      quotas_(options_.default_quota),
      start_(Clock::now()) {
  if (options_.gateways == 0) options_.gateways = 1;
  if (options_.dispatchers_per_gateway == 0) {
    options_.dispatchers_per_gateway = 1;
  }
  if (options_.max_pending == 0) options_.max_pending = 1;
  for (const auto& [tenant, quota] : options_.tenant_quotas) {
    quotas_.set_quota(tenant, quota);
  }

  requests_ = &metrics_.counter("cluster.requests");
  admitted_ = &metrics_.counter("cluster.admitted");
  rejected_ = &metrics_.counter("cluster.rejected");
  shed_ = &metrics_.counter("cluster.shed");
  quota_denied_ = &metrics_.counter("cluster.quota_denied");
  completed_ = &metrics_.counter("cluster.completed");
  failed_ = &metrics_.counter("cluster.failed");
  stolen_ = &metrics_.counter("cluster.stolen");
  steal_skipped_ = &metrics_.counter("cluster.steal_skipped");
  fills_ = &metrics_.counter("cluster.fills");
  fabric_nanos_ = &metrics_.counter("cluster.fabric_nanos");

  // Registry fabric first: the gateways' peers register on it in shard
  // order, which fixes the gossip ring.
  if (!options_.artifact_root.empty()) {
    DistributionOptions dist_options = options_.distribution;
    dist_options.stack = options_.fabric_stack;
    fabric_ = std::make_unique<DistributionFabric>(std::move(dist_options));
  }

  // Contiguous near-equal fleet slices, one per gateway: the first
  // (fleet % gateways) shards take one extra node.
  const std::size_t gateways = std::min(
      options_.gateways, std::max<std::size_t>(1, fleet.size()));
  GatewayOptions gateway_options = options_.gateway;
  std::size_t next = 0;
  for (std::size_t g = 0; g < gateways; ++g) {
    auto shard = std::make_unique<Shard>();
    shard->name = "gw" + std::to_string(g);
    if (fabric_) {
      gateway_options.artifact_dir =
          options_.artifact_root + "/" + shard->name;
      gateway_options.distribution = fabric_.get();
      gateway_options.distribution_name = shard->name;
    }
    std::size_t take = fleet.size() / gateways;
    if (g < fleet.size() % gateways) ++take;
    std::vector<vm::NodeSpec> slice;
    slice.reserve(take);
    for (std::size_t i = 0; i < take && next < fleet.size(); ++i) {
      slice.push_back(fleet[next++]);
    }
    shard->gateway = std::make_unique<Gateway>(std::move(slice),
                                               gateway_options);
    shard->served = &metrics_.counter("gateway." + shard->name + ".served");
    shard->stolen = &metrics_.counter("gateway." + shard->name + ".stolen");
    shard->fills = &metrics_.counter("gateway." + shard->name + ".fills");
    shard_by_name_[shard->name] = g;
    ring_.add(shard->name);
    shards_.push_back(std::move(shard));
  }

  dispatchers_.reserve(shards_.size() * options_.dispatchers_per_gateway);
  for (std::size_t g = 0; g < shards_.size(); ++g) {
    for (std::size_t d = 0; d < options_.dispatchers_per_gateway; ++d) {
      dispatchers_.emplace_back([this, g] { dispatcher_loop(g); });
    }
  }
}

Cluster::~Cluster() {
  stop_.store(true, std::memory_order_seq_cst);
  for (auto& shard : shards_) {
    // Empty critical section: serializes with a dispatcher that checked
    // the predicate but has not yet slept (same idiom as ~Gateway).
    std::lock_guard lock(shard->mutex);
  }
  for (auto& shard : shards_) shard->cv.notify_all();
  for (auto& dispatcher : dispatchers_) dispatcher.join();
  // Gateways die with shards_ after the dispatchers.
}

void Cluster::push(const container::Image& image,
                   const std::string& reference) {
  for (auto& shard : shards_) shard->gateway->push(image, reference);
}

double Cluster::now_seconds() const { return seconds_since(start_); }

telemetry::Counter& Cluster::tenant_counter(const std::string& label,
                                            const char* which) {
  return metrics_.counter("tenant." + label + "." + which);
}

void Cluster::complete_inline(Job&& job, ErrorCode code,
                              const std::string& error, double retry_after) {
  ClusterRunResult out;
  out.tenant = job.tenant_label;
  out.result.code = code;
  out.result.error = error;
  out.result.retry_after_seconds = retry_after;
  out.total_seconds = seconds_since(job.admitted);
  job.promise.set_value(std::move(out));
}

std::future<ClusterRunResult> Cluster::submit(RunRequest request) {
  requests_->add(1);
  Job job;
  job.tenant_label = request.tenant.empty() ? "default" : request.tenant;
  job.admitted = Clock::now();
  tenant_counter(job.tenant_label, "requests").add(1);

  auto future = job.promise.get_future();
  if (stop_.load(std::memory_order_acquire)) {
    rejected_->add(1);
    tenant_counter(job.tenant_label, "rejected").add(1);
    complete_inline(std::move(job), ErrorCode::ShuttingDown,
                    "cluster is shutting down", 0.0);
    return future;
  }

  // Per-tenant token bucket: deny over-quota tenants up front with the
  // bucket's refill wait as the retry hint — the flood never reaches a
  // queue another tenant shares.
  double retry_after = 0.0;
  if (!quotas_.try_admit(request.tenant, now_seconds(), /*cost=*/1.0,
                         &retry_after)) {
    quota_denied_->add(1);
    tenant_counter(job.tenant_label, "quota_denied").add(1);
    complete_inline(std::move(job), ErrorCode::QuotaExceeded,
                    "tenant quota exceeded for " + job.tenant_label,
                    retry_after);
    return future;
  }

  job.class_key = request_class_key(request);
  const std::string home_name = ring_.lookup(job.class_key);
  job.home = shard_by_name_.at(home_name);
  Shard& shard = *shards_[job.home];

  // Graceful load-shedding: a full shard, or a cluster whose recent
  // requests mostly fail (brownout), sheds instead of queueing, with an
  // estimated drain time so clients back off.
  const std::size_t backlog = shard.pending.load(std::memory_order_acquire);
  const bool full = backlog >= options_.max_pending;
  if (full || browned_out()) {
    shed_->add(1);
    tenant_counter(job.tenant_label, "shed").add(1);
    complete_inline(std::move(job), ErrorCode::Shed,
                    full ? "gateway " + home_name +
                               " backlog full (cluster overloaded)"
                         : "request shed (failure rate over threshold)",
                    estimated_wait_seconds(backlog));
    return future;
  }

  const double weight = request.weight > 0.0 ? request.weight
                                             : quotas_.weight(request.tenant);
  const std::string tenant_label = job.tenant_label;
  job.request = std::move(request);
  {
    std::unique_lock lock(shard.mutex);
    if (stop_.load(std::memory_order_acquire)) {
      lock.unlock();
      rejected_->add(1);
      tenant_counter(tenant_label, "rejected").add(1);
      complete_inline(std::move(job), ErrorCode::ShuttingDown,
                      "cluster is shutting down", 0.0);
      return future;
    }
    const int priority = job.request.priority;
    shard.wfq.push_weighted(tenant_label, /*cost=*/1.0, weight,
                            std::move(job), priority);
    shard.pending.fetch_add(1, std::memory_order_acq_rel);
  }
  admitted_->add(1);
  tenant_counter(tenant_label, "admitted").add(1);
  shard.cv.notify_one();
  return future;
}

std::vector<ClusterRunResult> Cluster::run_all(
    std::vector<RunRequest> requests) {
  std::vector<std::future<ClusterRunResult>> futures;
  futures.reserve(requests.size());
  for (auto& request : requests) futures.push_back(submit(std::move(request)));
  std::vector<ClusterRunResult> results;
  results.reserve(futures.size());
  for (auto& future : futures) results.push_back(future.get());
  return results;
}

std::size_t Cluster::pending() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->pending.load(std::memory_order_acquire);
  }
  return total;
}

double Cluster::estimated_wait_seconds(std::size_t backlog) const {
  const double ema = std::bit_cast<double>(
      service_ema_bits_.load(std::memory_order_relaxed));
  const double per_request = ema > 0.0 ? ema : 1e-3;  // floor pre-completion
  const double dispatchers =
      static_cast<double>(options_.dispatchers_per_gateway);
  return per_request * (1.0 + static_cast<double>(backlog) / dispatchers);
}

bool Cluster::browned_out() const {
  if (options_.shed_failure_rate <= 0.0) return false;
  const auto total = window_total_.load(std::memory_order_relaxed);
  if (total < options_.shed_min_samples) return false;
  const auto failed = window_failed_.load(std::memory_order_relaxed);
  return static_cast<double>(failed) >=
         options_.shed_failure_rate * static_cast<double>(total);
}

void Cluster::record_outcome(bool ok) {
  if (options_.shed_failure_rate <= 0.0) return;
  const auto now = std::chrono::duration_cast<std::chrono::nanoseconds>(
                       Clock::now().time_since_epoch())
                       .count();
  auto start = window_start_nanos_.load(std::memory_order_relaxed);
  const auto window_nanos =
      static_cast<std::int64_t>(options_.shed_window_seconds * 1e9);
  if (now - start > window_nanos &&
      window_start_nanos_.compare_exchange_strong(start, now,
                                                  std::memory_order_relaxed)) {
    // One completion rotates the window; concurrent completions land in
    // the fresh window (approximate by design — shedding is advisory).
    window_total_.store(0, std::memory_order_relaxed);
    window_failed_.store(0, std::memory_order_relaxed);
  }
  window_total_.fetch_add(1, std::memory_order_relaxed);
  if (!ok) window_failed_.fetch_add(1, std::memory_order_relaxed);
}

bool Cluster::try_steal(std::size_t thief, Job* out) {
  // Most backed-up sibling above the threshold.
  std::size_t victim_index = shards_.size();
  std::size_t victim_depth = 0;
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    if (i == thief) continue;
    const std::size_t depth =
        shards_[i]->pending.load(std::memory_order_acquire);
    if (depth >= options_.steal_min_backlog && depth > victim_depth) {
      victim_index = i;
      victim_depth = depth;
    }
  }
  if (victim_index == shards_.size()) return false;

  // The bandwidth model arbitrates: ship only when the modeled transfer
  // (recent workload size over the inter-gateway fabric) costs less than
  // the victim's estimated drain of that backlog.
  const std::uint64_t ema_bytes =
      bytes_ema_.load(std::memory_order_relaxed);
  const std::size_t est_bytes =
      ema_bytes > 0 ? static_cast<std::size_t>(ema_bytes) : 4096;
  const double transfer =
      fabric::transfer_seconds(options_.fabric_stack, est_bytes);
  if (!steal_profitable(transfer, estimated_wait_seconds(victim_depth))) {
    steal_skipped_->add(1);
    return false;
  }

  Shard& victim = *shards_[victim_index];
  std::lock_guard lock(victim.mutex);
  if (!victim.wfq.pop(out)) return false;  // raced its own dispatchers
  victim.pending.fetch_sub(1, std::memory_order_acq_rel);
  return true;
}

void Cluster::dispatcher_loop(std::size_t shard_index) {
  Shard& shard = *shards_[shard_index];
  for (;;) {
    Job job;
    bool got = false;
    bool stolen = false;
    {
      std::unique_lock lock(shard.mutex);
      got = shard.wfq.pop(&job);
      if (got) shard.pending.fetch_sub(1, std::memory_order_acq_rel);
    }
    if (!got && options_.steal && !stop_.load(std::memory_order_acquire)) {
      got = try_steal(shard_index, &job);
      stolen = got;
    }
    if (!got) {
      std::unique_lock lock(shard.mutex);
      if (stop_.load(std::memory_order_acquire) && shard.wfq.empty()) {
        return;  // own shard drained; siblings drain themselves
      }
      // Bounded nap instead of an open wait: a sleeping dispatcher must
      // periodically rescan siblings for steal opportunities (their
      // pushes only notify their own shard).
      shard.cv.wait_for(lock, std::chrono::microseconds(500), [&] {
        return stop_.load(std::memory_order_acquire) || !shard.wfq.empty();
      });
      continue;
    }
    serve(shard_index, std::move(job), stolen);
  }
}

void Cluster::serve(std::size_t shard_index, Job job, bool stolen) {
  Shard& shard = *shards_[shard_index];
  double fabric_seconds = 0.0;
  const std::size_t bytes = workload_bytes(job.request.workload);
  if (stolen) {
    // The shipment the profitability check priced: workload bytes over
    // the inter-gateway fabric.
    fabric_seconds += fabric::transfer_seconds(options_.fabric_stack, bytes);
    stolen_->add(1);
    shard.stolen->add(1);
  }
  // Cross-gateway cache fill: the first gateway to serve a class builds
  // it; any other gateway serving the same class later (steal or ring
  // change) pulls the specialized artifact over the fabric instead of
  // rebuilding — modeled, like the steal shipment.
  {
    bool fill = false;
    {
      std::lock_guard lock(warm_mutex_);
      auto& warm = warm_[job.class_key];
      const bool cold_here = warm.insert(shard_index).second;
      fill = cold_here && warm.size() > 1;
    }
    if (fill) {
      // With distribution on, the registry protocol moves (and prices)
      // the real blobs — the flat fill model would double-charge.
      if (!fabric_) {
        fabric_seconds += fabric::transfer_seconds(options_.fabric_stack,
                                                   options_.fill_bytes);
      }
      fills_->add(1);
      shard.fills->add(1);
    }
  }

  // Served inline: the deadline runs from cluster admission, so the WFQ
  // wait above is charged to it.
  RunResult result =
      shard.gateway->serve(std::move(job.request), job.admitted);
  const double total = seconds_since(job.admitted);
  record_outcome(result.ok);

  // Service-time EMA (steal profitability + retry-after hints).
  auto ema_bits = service_ema_bits_.load(std::memory_order_relaxed);
  for (;;) {
    const double current = std::bit_cast<double>(ema_bits);
    const double next = current == 0.0 ? total : current * 0.9 + total * 0.1;
    if (service_ema_bits_.compare_exchange_weak(
            ema_bits, std::bit_cast<std::uint64_t>(next),
            std::memory_order_relaxed)) {
      break;
    }
  }
  // Workload-size EMA (integer arithmetic is plenty for an estimate).
  const std::uint64_t prev_bytes = bytes_ema_.load(std::memory_order_relaxed);
  bytes_ema_.store(prev_bytes == 0
                       ? bytes
                       : (prev_bytes * 9 + static_cast<std::uint64_t>(bytes)) /
                             10,
                   std::memory_order_relaxed);

  shard.served->add(1);
  (result.ok ? completed_ : failed_)->add(1);
  tenant_counter(job.tenant_label, result.ok ? "completed" : "failed").add(1);
  metrics_.histogram("tenant." + job.tenant_label + ".total_seconds")
      .observe(total);
  if (fabric_seconds > 0.0) {
    fabric_nanos_->add(static_cast<std::uint64_t>(fabric_seconds * 1e9));
  }

  ClusterRunResult out;
  out.result = std::move(result);
  out.tenant = job.tenant_label;
  out.gateway = shard.name;
  out.home_gateway = shards_[job.home]->name;
  out.stolen = stolen;
  out.fabric_seconds = fabric_seconds;
  out.total_seconds = total;
  job.promise.set_value(std::move(out));

  // Gossip cadence: every gossip_every-th completion on this shard
  // advertises its hot digests to the ring successors, so peers warm up
  // before their first request for the class.
  if (fabric_ && options_.gossip_every > 0) {
    const std::uint64_t n =
        shard.completions.fetch_add(1, std::memory_order_relaxed) + 1;
    if (n % options_.gossip_every == 0) {
      if (DistributionPeer* peer = shard.gateway->distribution()) {
        peer->gossip_round();
      }
    }
  }
}

void Cluster::distribution_flush() {
  if (!fabric_) return;
  // Sweep to quiescence: each sweep lets hints (and their blobs) hop
  // fanout successors further around the ring; when a full sweep accepts
  // nothing anywhere, every announced digest is replicated ring-wide.
  // Terminates: acceptances are bounded by peers × announced blobs.
  for (;;) {
    std::size_t accepted = 0;
    for (auto& shard : shards_) {
      if (DistributionPeer* peer = shard->gateway->distribution()) {
        accepted += peer->gossip_round();
      }
    }
    if (accepted == 0) return;
  }
}

telemetry::MetricsSnapshot Cluster::snapshot() const {
  telemetry::MetricsSnapshot snap = metrics_.snapshot();
  // Fabric-wide distribution totals overlay here (and only here: the
  // per-gateway snapshots carry their per-peer slices, so summing those
  // reconciles against these totals instead of double-counting them).
  if (fabric_) {
    const DistributionStats stats = fabric_->stats();
    snap.counters["distribution.manifest_msgs"] = stats.manifest_msgs;
    snap.counters["distribution.manifest_bytes"] = stats.manifest_bytes;
    snap.counters["distribution.request_msgs"] = stats.request_msgs;
    snap.counters["distribution.request_bytes"] = stats.request_bytes;
    snap.counters["distribution.blobs_sent"] = stats.blobs_sent;
    snap.counters["distribution.blob_bytes"] = stats.blob_bytes;
    snap.counters["distribution.gossip_msgs"] = stats.gossip_msgs;
    snap.counters["distribution.gossip_bytes"] = stats.gossip_bytes;
    snap.counters["distribution.blobs_accepted"] = stats.blobs_accepted;
    snap.counters["distribution.blobs_rejected"] = stats.blobs_rejected;
    snap.counters["distribution.dedup_saved_bytes"] = stats.dedup_saved_bytes;
    snap.counters["distribution.messages_total"] = stats.messages_total();
    snap.counters["distribution.bytes_total"] = stats.bytes_total();
    snap.counters["distribution.transfer_nanos"] = stats.transfer_nanos;
  }
  return snap;
}

}  // namespace xaas::service
