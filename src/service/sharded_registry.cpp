#include "service/sharded_registry.hpp"

#include <algorithm>
#include <utility>

namespace xaas::service {

std::string ShardedRegistry::push(const container::Image& image,
                                  const std::string& reference) {
  return push(std::make_shared<const container::Image>(image), reference);
}

std::string ShardedRegistry::push(
    std::shared_ptr<const container::Image> image,
    const std::string& reference) {
  const std::string digest = image->digest();
  state_.update([&](State& state) {
    // Idempotent: identical content keeps the first blob (digests are
    // content addresses, so the images are interchangeable).
    const auto [blob_it, _] = state.images.emplace(digest, std::move(image));
    state.tags[reference] = digest;
    // Point the read index at the stored blob (not the argument), so a
    // re-push of identical content keeps sharing the first blob.
    state.by_ref[reference] = blob_it->second;
  });
  return digest;
}

std::optional<std::string> ShardedRegistry::resolve(
    const std::string& reference_or_digest) const {
  const auto state = state_.read();
  std::string digest = reference_or_digest;
  const auto tag_it = state->tags.find(reference_or_digest);
  if (tag_it != state->tags.end()) digest = tag_it->second;
  if (!state->images.count(digest)) return std::nullopt;
  return digest;
}

std::shared_ptr<const container::Image> ShardedRegistry::pull(
    const std::string& reference_or_digest) const {
  const auto state = state_.read();
  // Hot path: pull by tag is one probe of the denormalized index.
  const auto ref_it = state->by_ref.find(reference_or_digest);
  if (ref_it != state->by_ref.end()) return ref_it->second;
  // Digest (or unknown reference): fall back to the content store.
  const auto it = state->images.find(reference_or_digest);
  return it == state->images.end() ? nullptr : it->second;
}

std::optional<std::string> ShardedRegistry::annotation(
    const std::string& reference, const std::string& key) const {
  const auto image = pull(reference);  // shares ownership, no layer copy
  if (!image) return std::nullopt;
  const auto it = image->annotations.find(key);
  if (it == image->annotations.end()) return std::nullopt;
  return it->second;
}

std::vector<std::string> ShardedRegistry::tags() const {
  const auto state = state_.read();
  std::vector<std::string> out;
  out.reserve(state->tags.size());
  for (const auto& [reference, _] : state->tags) out.push_back(reference);
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::string> ShardedRegistry::tags_for_architecture(
    const std::string& arch) const {
  const auto state = state_.read();
  std::vector<std::string> out;
  for (const auto& [reference, image] : state->by_ref) {
    if (image->architecture == arch) out.push_back(reference);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::size_t ShardedRegistry::image_count() const {
  return state_.read()->images.size();
}

}  // namespace xaas::service
