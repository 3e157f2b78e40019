// Thread-safe registry — the serving-layer counterpart of
// container::Registry (§4.3/§5.2: many heterogeneous nodes pull IR
// containers and specialize on demand).
//
// Two scaling changes versus the single-threaded map:
//  - images are held as shared_ptr<const Image>, so `pull` hands out a
//    reference instead of deep-copying every layer, and a popular image
//    is stored once no matter how many fleets pull it;
//  - the whole (images, tags) state is one immutable RCU snapshot
//    (common/rcu.hpp): reads pin an epoch and probe without taking any
//    lock; pushes copy-swap-retire the state under a small write mutex.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/rcu.hpp"
#include "container/image.hpp"

namespace xaas::service {

/// Thread-safe image registry with a wait-free read path.
///
/// Thread-safety: every member is safe to call concurrently from any
/// thread. Reads (pull/resolve/annotation/tags/...) pin an epoch and
/// work on one immutable snapshot — they never block, and a single read
/// sees tags and blobs from the *same* version (a tag can never point
/// at a blob the same snapshot lacks). Writes serialize on one small
/// mutex, copy the state, and publish the new version atomically; the
/// old version is reclaimed only after every pinned reader advances.
/// Ownership: the registry owns its images as shared_ptr<const Image>;
/// pull() hands out shared ownership (never a deep copy), so returned
/// images remain valid after the registry drops or replaces them.
class ShardedRegistry {
public:
  ShardedRegistry() = default;

  ShardedRegistry(const ShardedRegistry&) = delete;
  ShardedRegistry& operator=(const ShardedRegistry&) = delete;

  /// Push an image under `reference` ("repo/name:tag"); returns the image
  /// digest. Pushing the same content twice is idempotent (one blob).
  std::string push(const container::Image& image,
                   const std::string& reference);
  /// Zero-copy push of an already-shared image (e.g. a deployed image
  /// coming out of the specialization cache).
  std::string push(std::shared_ptr<const container::Image> image,
                   const std::string& reference);

  /// Pull by tag reference or "sha256:..." digest. The returned pointer
  /// shares ownership with the registry — layers are never copied.
  std::shared_ptr<const container::Image> pull(
      const std::string& reference_or_digest) const;

  /// Resolve a reference (or digest) to the stored digest, if present.
  std::optional<std::string> resolve(
      const std::string& reference_or_digest) const;

  /// Read one annotation without materializing layers (§5.2: query
  /// specialization points before pulling and building).
  std::optional<std::string> annotation(const std::string& reference,
                                        const std::string& key) const;

  /// All tags, sorted.
  std::vector<std::string> tags() const;

  /// Tags resolving to images of the given architecture — the "image
  /// index" query a multi-arch/multi-IR client performs. One consistent
  /// snapshot: every returned tag resolved against the same version.
  std::vector<std::string> tags_for_architecture(
      const std::string& arch) const;

  std::size_t image_count() const;

private:
  struct State {
    // Content store (digest -> blob) plus the tag table, and a
    // denormalized reference -> blob index maintained on push so the
    // hot read (pull by tag) is a single hash probe. Denormalizing on
    // the write side is free here: every publish copies the state
    // anyway, and immutability means the index can never go stale.
    std::unordered_map<std::string, std::shared_ptr<const container::Image>>
        images;
    std::unordered_map<std::string, std::string> tags;  // reference -> digest
    std::unordered_map<std::string, std::shared_ptr<const container::Image>>
        by_ref;  // reference -> blob (always tags composed with images)
  };

  common::rcu::Snapshot<State> state_;
};

}  // namespace xaas::service
