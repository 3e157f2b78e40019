#include "service/sharded_registry.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "container/image.hpp"

namespace xaas::service {
namespace {

container::Image make_image(const std::string& arch,
                            const std::string& contents) {
  common::Vfs files;
  files.write("payload", contents);
  return container::ImageBuilder()
      .architecture(arch)
      .add_layer(std::move(files))
      .annotation(container::kAnnotationKind, "test")
      .build();
}

TEST(ShardedRegistry, PushPullByTagAndDigest) {
  ShardedRegistry registry;
  const container::Image image = make_image(container::kArchAmd64, "v1");
  const std::string digest = registry.push(image, "spcl/minimd:latest");
  const auto by_tag = registry.pull("spcl/minimd:latest");
  ASSERT_NE(by_tag, nullptr);
  const auto by_digest = registry.pull(digest);
  ASSERT_NE(by_digest, nullptr);
  EXPECT_EQ(by_digest->digest(), digest);
  EXPECT_EQ(registry.pull("missing:tag"), nullptr);
  EXPECT_EQ(registry.resolve("spcl/minimd:latest"), digest);
}

TEST(ShardedRegistry, PullSharesOneStoredImage) {
  ShardedRegistry registry;
  registry.push(make_image(container::kArchAmd64, "shared"), "app:1");
  const auto a = registry.pull("app:1");
  const auto b = registry.pull("app:1");
  // shared_ptr identity: layers are stored once, never deep-copied out.
  EXPECT_EQ(a.get(), b.get());
}

TEST(ShardedRegistry, IdempotentPushKeepsOneBlob) {
  ShardedRegistry registry;
  const container::Image image = make_image(container::kArchAmd64, "same");
  registry.push(image, "app:a");
  registry.push(image, "app:b");
  EXPECT_EQ(registry.image_count(), 1u);
  EXPECT_EQ(registry.tags().size(), 2u);
}

TEST(ShardedRegistry, TagReassignmentRetainsBlobs) {
  ShardedRegistry registry;
  registry.push(make_image(container::kArchAmd64, "v1"), "app:latest");
  const std::string v2 =
      registry.push(make_image(container::kArchAmd64, "v2"), "app:latest");
  EXPECT_EQ(registry.pull("app:latest")->digest(), v2);
  EXPECT_EQ(registry.image_count(), 2u);
}

TEST(ShardedRegistry, ArchitectureQueryAndAnnotations) {
  ShardedRegistry registry;
  registry.push(make_image(container::kArchAmd64, "x"), "app:amd64");
  registry.push(make_image(container::kArchLlvmIrAmd64, "z"), "app:ir");
  EXPECT_EQ(registry.tags_for_architecture(container::kArchLlvmIrAmd64),
            (std::vector<std::string>{"app:ir"}));
  const auto ann = registry.annotation("app:ir", container::kAnnotationKind);
  ASSERT_TRUE(ann.has_value());
  EXPECT_EQ(*ann, "test");
  EXPECT_FALSE(registry.annotation("app:ir", "nope").has_value());
}

// The concurrency surface: writers tagging and pushing while readers
// pull, resolve, and list. Run under tests/run_tsan.sh to prove the RCU
// snapshot publication (one writer mutex, wait-free readers) is
// race-free.
TEST(ShardedRegistryStress, ConcurrentPushPullTag) {
  ShardedRegistry registry;
  constexpr int kWriters = 4;
  constexpr int kReaders = 4;
  constexpr int kImagesPerWriter = 32;

  std::atomic<bool> stop{false};
  std::atomic<int> pulled_ok{0};

  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&registry, w] {
      for (int i = 0; i < kImagesPerWriter; ++i) {
        const std::string id =
            std::to_string(w) + "." + std::to_string(i);
        const std::string arch = (i % 2 == 0) ? container::kArchAmd64
                                              : container::kArchLlvmIrAmd64;
        registry.push(make_image(arch, "blob-" + id), "app:" + id);
        // Retag an existing reference concurrently with readers.
        registry.push(make_image(arch, "blob-" + id + "-v2"),
                      "app:retagged-" + std::to_string(w));
      }
    });
  }
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&registry, &stop, &pulled_ok, r] {
      std::size_t laps = 0;
      while (!stop.load(std::memory_order_acquire) || laps < 1) {
        ++laps;
        for (const auto& tag : registry.tags()) {
          const auto image = registry.pull(tag);
          if (image) {
            pulled_ok.fetch_add(1, std::memory_order_relaxed);
            // Read through the shared image: digest + annotation.
            (void)registry.annotation(tag, container::kAnnotationKind);
            EXPECT_FALSE(image->architecture.empty());
          }
        }
        (void)registry.tags_for_architecture(container::kArchLlvmIrAmd64);
        (void)registry.image_count();
        if (r % 2 == 0) std::this_thread::yield();
      }
    });
  }
  for (int w = 0; w < kWriters; ++w) threads[w].join();
  stop.store(true, std::memory_order_release);
  for (std::size_t i = kWriters; i < threads.size(); ++i) threads[i].join();

  // Every pushed blob is retrievable afterwards; tag map is consistent.
  EXPECT_EQ(registry.tags().size(),
            static_cast<std::size_t>(kWriters * kImagesPerWriter + kWriters));
  for (const auto& tag : registry.tags()) {
    ASSERT_NE(registry.pull(tag), nullptr) << tag;
  }
  EXPECT_GT(pulled_ok.load(), 0);
}

}  // namespace
}  // namespace xaas::service
