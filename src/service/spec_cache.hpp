// Specialization cache (§4.3/§5.2): a fleet of identical
// microarchitectures pulling the same IR container must lower it once,
// not once per node. Entries are keyed by the tuple that fully determines
// a deployment — (IR image digest, canonicalized selections, resolved
// TargetSpec) — established by xaas::plan_ir_deploy: equal keys produce
// bit-identical deployed images and programs, so the cached DeployedApp
// (image + linked program + DecodedProgram) is shared by every requester.
//
// The cache is single-flight (common/single_flight.hpp): concurrent
// requests for one key elect a single deployer; the rest block on its
// result instead of duplicating the lowering. A completed entry is the
// hit, so hits and misses share one map under one mutex. The map holds
// at most one entry per distinct specialization, and every miss that no
// tier can serve is one lowering.
#pragma once

#include <atomic>
#include <cstddef>
#include <functional>
#include <memory>
#include <string>

#include "common/single_flight.hpp"
#include "minicc/lower.hpp"
#include "xaas/source_container.hpp"

namespace xaas::service {

/// Cache key for one specialization. `digest` is the IR image content
/// digest; `selections` the canonical selection string
/// (common::canonical_selections); `target` the resolved (clamped)
/// lowering target.
struct SpecKey {
  std::string digest;
  std::string selections;
  minicc::TargetSpec target;

  /// Collision-free composite string (components joined with '\x1f').
  std::string to_string() const;
};

class ArtifactTier;

/// Single-flight whole-deployment cache, with an optional tier of
/// persisted artifacts under it (memory hit → store or remote peer →
/// deploy). Only the elected leader consults the tier, so concurrent
/// requests for one key read it and deploy at most once.
///
/// Thread-safety: get_or_deploy(), entry_count(), and the stats
/// accessors are safe from any thread. set_observer()/set_tier() must be
/// called before the cache starts serving.
/// Ownership: the cache owns its entries and shares the DeployedApp with
/// every requester via shared_ptr<const DeployedApp>. Typically owned by
/// a DeployScheduler, BuildFarm, or (transitively) a Gateway.
class SpecializationCache {
public:
  using Deployer = std::function<std::shared_ptr<const DeployedApp>()>;

  /// One telemetry event per get_or_deploy resolution: the caller reused
  /// an in-memory entry (hit), the elected deployer revived a persisted
  /// deployment (disk_hit), or it deployed for real (deployed, with the
  /// deployer's wall seconds and whether the deployment succeeded).
  struct Event {
    bool hit = false;
    bool disk_hit = false;
    bool deployed = false;
    bool ok = false;             // meaningful when deployed
    double deploy_seconds = 0.0; // meaningful when deployed
  };
  using Observer = std::function<void(const Event&)>;

  SpecializationCache() = default;
  SpecializationCache(const SpecializationCache&) = delete;
  SpecializationCache& operator=(const SpecializationCache&) = delete;

  /// Return the cached deployment for `key`, or run `deploy` exactly once
  /// across all concurrent callers of this key and cache its result.
  /// `was_hit`, when non-null, reports whether this caller reused an
  /// entry or a persisted artifact (true) or was the one that deployed
  /// (false). Failed deployments (null, or ok == false) are NOT cached,
  /// so a transient failure does not poison the key: they reach only the
  /// callers already waiting on this round. A deployer that throws
  /// rethrows to its own caller; its waiters receive nullptr.
  std::shared_ptr<const DeployedApp> get_or_deploy(const SpecKey& key,
                                                   const Deployer& deploy,
                                                   bool* was_hit = nullptr);

  /// Entries held, in-flight deployments included.
  std::size_t entry_count() const { return flights_.size(); }

  /// Install the telemetry observer (the Gateway points it at its
  /// MetricsRegistry). NOT thread-safe with respect to concurrent
  /// get_or_deploy: set it once, before the cache starts serving.
  void set_observer(Observer observer) { observer_ = std::move(observer); }

  /// Attach (or detach, with nullptr) the tier of persisted deployments
  /// (service/distribution.hpp). The tier must outlive the cache. NOT
  /// thread-safe with respect to concurrent get_or_deploy: set it once,
  /// before the cache starts serving.
  void set_tier(ArtifactTier* tier) { tier_ = tier; }

  // Monotonic statistics since construction. Every resolution is exactly
  // one of hits() / disk_hits() / lowerings(); without a tier,
  // disk_hits() is always zero.
  std::size_t hits() const { return hits_.load(); }
  /// Deployments revived from the tier (no lowering paid).
  std::size_t disk_hits() const { return disk_hits_.load(); }
  /// Number of deployer invocations == lowerings actually performed.
  std::size_t lowerings() const { return lowerings_.load(); }

private:
  common::SingleFlightMap<DeployedApp> flights_;  // keyed by SpecKey::to_string()
  Observer observer_;            // set once before serving
  ArtifactTier* tier_ = nullptr;  // set once before serving
  std::atomic<std::size_t> hits_{0};
  std::atomic<std::size_t> disk_hits_{0};
  std::atomic<std::size_t> lowerings_{0};
};

}  // namespace xaas::service
