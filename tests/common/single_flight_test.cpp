// The single-flight primitive (common/single_flight.hpp) behind both
// serving caches: one compute per key across concurrent callers, a
// throwing leader that leaves no entry, and erase-before-publish. The
// suite name matches the stress label, so it also runs under TSan/ASan
// via tests/run_tsan.sh.
//
// The failure cases hold the leader inside its compute until every other
// caller has started and then a little longer, so the others join its
// round. The assertions that do not depend on that timing come first:
// every leader computed exactly once, and every caller got an answer.
#include "common/single_flight.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace {

using xaas::common::SingleFlightMap;

constexpr int kCallers = 8;

/// Spin until `count` reaches `target`, then give the callers that just
/// arrived time to reach the map.
void hold_until_started(const std::atomic<int>& count, int target) {
  while (count.load() < target) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
}

TEST(SingleFlightStress, ConcurrentCallersComputeOnce) {
  SingleFlightMap<int> map;
  std::atomic<int> started{0};
  std::atomic<int> computes{0};
  std::vector<std::shared_ptr<const int>> results(kCallers);
  std::vector<char> joined(kCallers, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kCallers; ++t) {
    threads.emplace_back([&, t] {
      started.fetch_add(1);
      bool j = false;
      results[t] = map.get_or_compute(
          "key",
          [&] {
            computes.fetch_add(1);
            hold_until_started(started, kCallers);
            return std::make_shared<const int>(42);
          },
          &j);
      joined[t] = j;
    });
  }
  for (auto& thread : threads) thread.join();

  EXPECT_EQ(computes.load(), 1);
  int leaders = 0;
  for (int t = 0; t < kCallers; ++t) {
    ASSERT_NE(results[t], nullptr);
    EXPECT_EQ(results[t].get(), results[0].get());  // one shared value
    if (!joined[t]) ++leaders;
  }
  EXPECT_EQ(leaders, 1);
  EXPECT_EQ(map.size(), 1u);

  // A completed entry is the hit: no further compute.
  bool hit = false;
  const auto again = map.get_or_compute(
      "key", [] { return std::make_shared<const int>(0); }, &hit);
  EXPECT_TRUE(hit);
  EXPECT_EQ(again.get(), results[0].get());
}

TEST(SingleFlightStress, ThrowingLeaderReleasesWaitersAndLeavesNoEntry) {
  SingleFlightMap<int> map;
  std::atomic<int> started{0};
  std::atomic<int> computes{0};
  std::atomic<int> threw{0};
  std::vector<char> joined(kCallers, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kCallers; ++t) {
    threads.emplace_back([&, t] {
      started.fetch_add(1);
      bool j = false;
      try {
        map.get_or_compute(
            "key",
            [&]() -> std::shared_ptr<const int> {
              computes.fetch_add(1);
              hold_until_started(started, kCallers);
              throw std::runtime_error("leader failed");
            },
            &j);
      } catch (const std::runtime_error& e) {
        EXPECT_STREQ(e.what(), "leader failed");
        threw.fetch_add(1);
      }
      joined[t] = j;
    });
  }
  for (auto& thread : threads) thread.join();  // nobody hangs

  // Every caller, leader or waiter, saw the failure.
  EXPECT_EQ(threw.load(), kCallers);
  int leaders = 0;
  for (const char j : joined) leaders += j ? 0 : 1;
  EXPECT_EQ(computes.load(), leaders);
  EXPECT_EQ(leaders, 1);
  // The failure was never cached: the next call recomputes.
  EXPECT_EQ(map.size(), 0u);
  bool hit = true;
  const auto value = map.get_or_compute(
      "key", [] { return std::make_shared<const int>(7); }, &hit);
  EXPECT_FALSE(hit);
  ASSERT_NE(value, nullptr);
  EXPECT_EQ(*value, 7);
  EXPECT_EQ(map.size(), 1u);
}

TEST(SingleFlightStress, EraseBeforePublishFailsOnlyTheRoundsWaiters) {
  SingleFlightMap<int> map;
  std::atomic<int> started{0};
  std::atomic<int> computes{0};
  std::vector<std::shared_ptr<const int>> results(kCallers);
  std::vector<char> joined(kCallers, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kCallers; ++t) {
    threads.emplace_back([&, t] {
      started.fetch_add(1);
      bool j = false;
      results[t] = map.get_or_compute(
          "key",
          [&] {
            computes.fetch_add(1);
            hold_until_started(started, kCallers);
            // A failure that must not outlive this round (the caches'
            // transient-failure policy): erase, then publish.
            map.erase("key");
            return std::make_shared<const int>(-1);
          },
          &j);
      joined[t] = j;
    });
  }
  for (auto& thread : threads) thread.join();

  // The waiters of the round received the leader's failure.
  int leaders = 0;
  for (int t = 0; t < kCallers; ++t) {
    ASSERT_NE(results[t], nullptr);
    EXPECT_EQ(*results[t], -1);
    if (!joined[t]) ++leaders;
  }
  EXPECT_EQ(computes.load(), leaders);
  EXPECT_EQ(leaders, 1);

  // A later caller elects a new leader, whose success stays cached.
  EXPECT_EQ(map.size(), 0u);
  bool hit = true;
  const auto fresh = map.get_or_compute(
      "key", [] { return std::make_shared<const int>(1); }, &hit);
  EXPECT_FALSE(hit);
  EXPECT_EQ(*fresh, 1);
  const auto cached = map.get_or_compute(
      "key", [] { return std::make_shared<const int>(2); }, &hit);
  EXPECT_TRUE(hit);
  EXPECT_EQ(cached.get(), fresh.get());
}

}  // namespace
