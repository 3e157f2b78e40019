// Epoch-based reclamation (common/rcu.hpp): visibility, reader
// protection across snapshot swaps, and deferred reclamation. The
// stress suites run under TSan/ASan via tests/run_tsan.sh — a reader
// touching a freed version is a hard sanitizer failure, not a flake.
#include "common/rcu.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

namespace rcu = xaas::common::rcu;

namespace {

// Payload whose destruction is observable: checks use-after-free at the
// logic level even without a sanitizer.
struct Tracked {
  explicit Tracked(int v = 0) : value(v) {}
  Tracked(const Tracked& other) : value(other.value) {}
  ~Tracked() { value = -1; }
  int value;
};

}  // namespace

TEST(Rcu, ReadSeesInitialAndUpdatedVersions) {
  rcu::Snapshot<std::map<std::string, int>> snap;
  EXPECT_TRUE(snap.read()->empty());
  snap.update([](std::map<std::string, int>& m) { m["a"] = 1; });
  EXPECT_EQ(snap.read()->at("a"), 1);
  snap.update([](std::map<std::string, int>& m) { m["b"] = 2; });
  const auto ref = snap.read();
  EXPECT_EQ(ref->size(), 2u);
  EXPECT_EQ(ref->at("b"), 2);
}

TEST(Rcu, ReaderOutlivesSwap) {
  rcu::Snapshot<Tracked> snap(std::make_unique<Tracked>(7));
  const auto ref = snap.read();  // pins the epoch
  snap.update([](Tracked& t) { t.value = 8; });
  snap.update([](Tracked& t) { t.value = 9; });
  // Both retired predecessors are protected by our pin: the version we
  // hold must still carry its pre-swap value, not the destructor's -1.
  EXPECT_EQ(ref->value, 7);
  EXPECT_EQ(snap.read()->value, 9);
}

TEST(Rcu, RetiredVersionsFreeAfterReadersUnpin) {
  auto& domain = rcu::EpochDomain::instance();
  rcu::Snapshot<Tracked> snap(std::make_unique<Tracked>(1));
  const std::uint64_t retired_before = domain.retired();
  const std::uint64_t freed_before = domain.freed();
  {
    const auto ref = snap.read();
    snap.update([](Tracked& t) { t.value = 2; });
    // The old version is retired but cannot be freed while we pin.
    EXPECT_EQ(domain.retired(), retired_before + 1);
    EXPECT_EQ(ref->value, 1);
  }
  // Unpinned: the next retire()'s opportunistic reclaim frees it.
  snap.update([](Tracked& t) { t.value = 3; });
  domain.try_reclaim();
  EXPECT_GE(domain.freed(), freed_before + 1);
  // Everything retired in this quiescent state is reclaimable.
  EXPECT_EQ(domain.freed(), domain.retired());
  EXPECT_EQ(domain.pending(), 0u);
}

TEST(Rcu, NestedGuardsShareOnePin) {
  rcu::Snapshot<Tracked> snap(std::make_unique<Tracked>(5));
  rcu::EpochDomain::Guard outer;
  {
    rcu::EpochDomain::Guard inner;  // must not unpin on destruction
  }
  const auto ref = snap.read();
  snap.update([](Tracked& t) { t.value = 6; });
  EXPECT_EQ(ref->value, 5);  // still protected by the outer guard's pin
}

// Readers continuously validate a self-consistent payload while a
// writer swaps versions as fast as it can. A torn read, a reclaimed
// version observed by a pinned reader, or a lost update all fail the
// checksum (and TSan/ASan catch the underlying race/UAF directly).
TEST(RcuStress, ReadersNeverObserveReclaimedVersion) {
  struct Payload {
    std::uint64_t a = 0;
    std::uint64_t b = 0;  // invariant: b == a * 2 + 1
    std::vector<std::uint64_t> fill = std::vector<std::uint64_t>(64, 0);
  };
  rcu::Snapshot<Payload> snap;
  snap.update([](Payload& p) {
    p.a = 0;
    p.b = 1;
    for (auto& f : p.fill) f = 0;
  });

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> reads{0};
  std::atomic<unsigned> exited{0};
  std::vector<std::thread> readers;
  const unsigned reader_count = 4;
  for (unsigned r = 0; r < reader_count; ++r) {
    readers.emplace_back([&] {
      // Counted on every exit, a failed ASSERT's early return included.
      struct ExitCount {
        std::atomic<unsigned>& n;
        ~ExitCount() { n.fetch_add(1); }
      } exit_count{exited};
      while (!stop.load(std::memory_order_acquire)) {
        const auto ref = snap.read();
        ASSERT_EQ(ref->b, ref->a * 2 + 1);
        for (const auto f : ref->fill) ASSERT_EQ(f, ref->a);
        reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  // Start swapping only once a reader is running: on a loaded machine
  // the 400 swaps can otherwise finish before any reader is scheduled.
  while (reads.load() == 0 && exited.load() < reader_count) {
    std::this_thread::yield();
  }
  for (std::uint64_t i = 1; i <= 400; ++i) {
    snap.update([i](Payload& p) {
      p.a = i;
      p.b = i * 2 + 1;
      for (auto& f : p.fill) f = i;
    });
    if (i % 16 == 0) std::this_thread::yield();
  }
  stop.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();
  EXPECT_GT(reads.load(), 0u);

  auto& domain = rcu::EpochDomain::instance();
  domain.try_reclaim();
  // All readers quiescent: nothing may remain in limbo.
  EXPECT_EQ(domain.pending(), 0u);
  EXPECT_EQ(domain.freed(), domain.retired());
}

// Threads that come and go must recycle per-thread slots, not leak or
// corrupt them (the slot list is bounded by peak concurrency).
TEST(RcuStress, ThreadChurnRecyclesSlots) {
  rcu::Snapshot<Tracked> snap(std::make_unique<Tracked>(3));
  for (int round = 0; round < 8; ++round) {
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
      threads.emplace_back([&] {
        for (int i = 0; i < 50; ++i) {
          const auto ref = snap.read();
          ASSERT_GE(ref->value, 3);
        }
      });
    }
    snap.update([](Tracked& t) { t.value += 1; });
    for (auto& t : threads) t.join();
  }
  EXPECT_EQ(snap.read()->value, 3 + 8);
}
