#include "service/spec_cache.hpp"

#include <chrono>

#include "common/hashing.hpp"
#include "service/distribution.hpp"

namespace xaas::service {

std::string SpecKey::to_string() const {
  std::string out;
  common::key_append(out, digest);
  common::key_append(out, selections);
  common::key_append(out, target.to_string());
  return out;
}

std::shared_ptr<const DeployedApp> SpecializationCache::get_or_deploy(
    const SpecKey& key, const Deployer& deploy, bool* was_hit) {
  const std::string composite = key.to_string();
  const auto notify = [this](const Event& event) {
    if (observer_) observer_(event);
  };
  // Set by the leader's compute only, read by the leader after it.
  bool revived = false;
  std::chrono::steady_clock::time_point deploy_start;
  const auto deployed_event = [&](bool ok) {
    Event event;
    event.deployed = true;
    event.ok = ok;
    event.deploy_seconds = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - deploy_start)
                               .count();
    return event;
  };

  bool joined = false;
  std::shared_ptr<const DeployedApp> result;
  try {
    result = flights_.get_or_compute(
        composite,
        [&]() -> std::shared_ptr<const DeployedApp> {
          // Only the elected leader consults the tier, so concurrent
          // requests for one key read and decode a blob at most once.
          if (tier_) {
            if (auto app = tier_->load(composite, decode_deployed_app)) {
              revived = true;
              return app;
            }
          }
          lowerings_.fetch_add(1, std::memory_order_relaxed);
          deploy_start = std::chrono::steady_clock::now();
          auto app = deploy();
          // Failed lowerings are never cached: erase before publishing,
          // so the failure reaches only the waiters already blocked on
          // this round and every later requester elects a fresh
          // deployer. (Those waiters see cache_hit=true with a failed
          // result; the Gateway's retry loop treats that as "inherited a
          // leader's failure" and retries immediately.)
          if (!app || !app->ok) flights_.erase(composite);
          return app;
        },
        &joined);
  } catch (...) {
    if (!joined) {
      // This caller's deployer threw; the entry is already gone.
      notify(deployed_event(false));
      throw;
    }
    result = nullptr;  // inherited a leader's exception: an empty result
  }

  if (joined) {
    // Relaxed: hits_ is a statistic, not a synchronization edge.
    hits_.fetch_add(1, std::memory_order_relaxed);
    if (was_hit) *was_hit = true;
    Event event;
    event.hit = true;
    notify(event);
    return result;
  }
  if (revived) {
    disk_hits_.fetch_add(1, std::memory_order_relaxed);
    // The caller reused a persisted artifact (it paid no lowering), which
    // is what `cache_hit` means to the fleet-result consumers.
    if (was_hit) *was_hit = true;
    Event event;
    event.disk_hit = true;
    notify(event);
    return result;
  }
  if (was_hit) *was_hit = false;
  const bool ok = result && result->ok;
  // Persist after publishing so waiters are never blocked on the
  // serialization/write; a failed store just means the next process
  // starts cold for this key.
  if (ok && tier_) tier_->store(composite, encode_deployed_app(*result));
  notify(deployed_event(ok));
  return result;
}

}  // namespace xaas::service
