// Deterministic fair-share admission tests: token buckets and the
// weighted fair queue are driven entirely with virtual time (explicit
// `now` values, no sleeps), so every assertion here is about the exact
// admission decision or drain order — fairness proven by construction,
// not by racing wall-clock threads.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "service/fair_queue.hpp"

namespace xaas::service {
namespace {

// ---- TokenBucket -----------------------------------------------------------

TEST(TokenBucket, BurstThenDeny) {
  TokenBucket bucket({/*rate=*/10.0, /*burst=*/3.0, /*weight=*/1.0});
  // The full burst is available immediately, back to back.
  EXPECT_TRUE(bucket.try_acquire(0.0));
  EXPECT_TRUE(bucket.try_acquire(0.0));
  EXPECT_TRUE(bucket.try_acquire(0.0));
  EXPECT_FALSE(bucket.try_acquire(0.0));
  // Denial consumes nothing: the retry hint is exactly one token's
  // refill, and acquiring exactly then succeeds.
  const double wait = bucket.retry_after_seconds(0.0);
  EXPECT_DOUBLE_EQ(wait, 0.1);
  EXPECT_FALSE(bucket.try_acquire(0.05));
  EXPECT_TRUE(bucket.try_acquire(wait));
}

TEST(TokenBucket, RefillCapsAtBurst) {
  TokenBucket bucket({/*rate=*/100.0, /*burst=*/5.0, /*weight=*/1.0});
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(bucket.try_acquire(0.0));
  // A long idle period refills to the burst cap, not beyond.
  EXPECT_DOUBLE_EQ(bucket.tokens(1000.0), 5.0);
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(bucket.try_acquire(1000.0));
  EXPECT_FALSE(bucket.try_acquire(1000.0));
}

TEST(TokenBucket, SteadyRateAdmitsExactly) {
  // rate 2/s, burst 1: after the initial token, admissions succeed only
  // every 0.5 virtual seconds.
  TokenBucket bucket({/*rate=*/2.0, /*burst=*/1.0, /*weight=*/1.0});
  int admitted = 0;
  for (int tick = 0; tick <= 100; ++tick) {
    if (bucket.try_acquire(0.1 * tick)) ++admitted;
  }
  // 10 virtual seconds at 2/s plus the initial burst token.
  EXPECT_EQ(admitted, 21);
}

TEST(TokenBucket, OversizedCostClampsToBurst) {
  TokenBucket bucket({/*rate=*/1.0, /*burst=*/4.0, /*weight=*/1.0});
  // cost > burst is clamped: one oversized request drains a full bucket
  // but can still be admitted (and the retry hint stays finite).
  EXPECT_TRUE(bucket.try_acquire(0.0, /*cost=*/100.0));
  EXPECT_FALSE(bucket.try_acquire(0.0, /*cost=*/100.0));
  const double wait = bucket.retry_after_seconds(0.0, /*cost=*/100.0);
  EXPECT_GT(wait, 0.0);
  EXPECT_LE(wait, 4.0 + 1e-9);
  EXPECT_TRUE(bucket.try_acquire(wait, /*cost=*/100.0));
}

TEST(TokenBucket, ZeroRateNeverRefillsButHintIsFinite) {
  TokenBucket bucket({/*rate=*/0.0, /*burst=*/1.0, /*weight=*/1.0});
  EXPECT_TRUE(bucket.try_acquire(0.0));
  EXPECT_FALSE(bucket.try_acquire(1e6));
  const double wait = bucket.retry_after_seconds(1e6);
  EXPECT_GT(wait, 0.0);
  EXPECT_LE(wait, 3600.0);
}

// ---- QuotaSet --------------------------------------------------------------

TEST(QuotaSet, DeniedRequestsCarryPositiveRetryAfter) {
  QuotaSet quotas({/*rate=*/5.0, /*burst=*/2.0, /*weight=*/1.0});
  double retry_after = -1.0;
  EXPECT_TRUE(quotas.try_admit("alice", 0.0, 1.0, &retry_after));
  EXPECT_DOUBLE_EQ(retry_after, 0.0);
  EXPECT_TRUE(quotas.try_admit("alice", 0.0, 1.0, &retry_after));
  EXPECT_FALSE(quotas.try_admit("alice", 0.0, 1.0, &retry_after));
  EXPECT_GT(retry_after, 0.0);  // the quota-denial contract
  // Tenants have independent buckets: bob is unaffected by alice.
  EXPECT_TRUE(quotas.try_admit("bob", 0.0, 1.0, &retry_after));
}

TEST(QuotaSet, PerTenantOverrideBeatsDefault) {
  QuotaSet quotas({/*rate=*/1e9, /*burst=*/1e9, /*weight=*/1.0});
  quotas.set_quota("flooder", {/*rate=*/1.0, /*burst=*/1.0, /*weight=*/0.5});
  double retry_after = 0.0;
  EXPECT_TRUE(quotas.try_admit("flooder", 0.0, 1.0, &retry_after));
  EXPECT_FALSE(quotas.try_admit("flooder", 0.0, 1.0, &retry_after));
  EXPECT_GT(retry_after, 0.0);
  // The default tenant still has the (effectively unlimited) default.
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(quotas.try_admit("normal", 0.0, 1.0, nullptr));
  }
  EXPECT_DOUBLE_EQ(quotas.weight("flooder"), 0.5);
  EXPECT_DOUBLE_EQ(quotas.weight("normal"), 1.0);
}

// ---- WeightedFairQueue -----------------------------------------------------

/// Drain the queue fully, returning the tenant sequence.
std::vector<std::string> drain(WeightedFairQueue<int>& wfq) {
  std::vector<std::string> order;
  int value = 0;
  std::string tenant;
  while (wfq.pop(&value, &tenant)) order.push_back(tenant);
  return order;
}

TEST(FairQueue, TwoToOneWeightsDrainWithinOneSlot) {
  WeightedFairQueue<int> wfq;
  wfq.set_weight("a", 2.0);
  wfq.set_weight("b", 1.0);
  // Both tenants fully backlogged before the first pop.
  for (int i = 0; i < 30; ++i) {
    wfq.push("a", 1.0, i);
    wfq.push("b", 1.0, 100 + i);
  }
  const auto order = drain(wfq);
  ASSERT_EQ(order.size(), 60u);
  // While both are backlogged (a exhausts after 45 pops), every prefix
  // serves a:b within one slot of 2:1.
  int served_a = 0, served_b = 0;
  for (std::size_t i = 0; i < 45; ++i) {
    (order[i] == "a" ? served_a : served_b)++;
    const double expected_b = static_cast<double>(i + 1) / 3.0;
    EXPECT_NEAR(static_cast<double>(served_b), expected_b, 1.0)
        << "after " << i + 1 << " pops";
  }
  EXPECT_EQ(served_a, 30);
  EXPECT_EQ(served_b, 15);
  // The tail is all-b (a ran dry).
  for (std::size_t i = 45; i < 60; ++i) EXPECT_EQ(order[i], "b");
}

TEST(FairQueue, FifoWithinOneTenant) {
  WeightedFairQueue<int> wfq;
  for (int i = 0; i < 10; ++i) wfq.push("t", 1.0, i);
  int value = -1;
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(wfq.pop(&value));
    EXPECT_EQ(value, i);
  }
  EXPECT_TRUE(wfq.empty());
}

TEST(FairQueue, IdleTenantBanksNoCredit) {
  WeightedFairQueue<int> wfq;
  wfq.set_weight("a", 1.0);
  wfq.set_weight("b", 1.0);
  // a drains alone for a long stretch; b was idle the whole time.
  for (int i = 0; i < 20; ++i) wfq.push("a", 1.0, i);
  int value;
  std::string tenant;
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(wfq.pop(&value, &tenant));
  // b arrives with a burst: it must NOT be repaid for its idle time with
  // consecutive service — equal weights alternate from here on.
  for (int i = 0; i < 10; ++i) wfq.push("b", 1.0, 100 + i);
  int served_a = 0, served_b = 0;
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(wfq.pop(&value, &tenant));
    (tenant == "a" ? served_a : served_b)++;
  }
  EXPECT_NEAR(served_a, 5, 1);
  EXPECT_NEAR(served_b, 5, 1);
}

TEST(FairQueue, PerJobWeightOverride) {
  WeightedFairQueue<int> wfq;
  wfq.set_weight("a", 1.0);
  wfq.set_weight("b", 1.0);
  for (int i = 0; i < 12; ++i) {
    wfq.push_weighted("a", 1.0, /*weight=*/3.0, i);  // boosted jobs
    wfq.push("b", 1.0, 100 + i);
  }
  // a's override makes it drain ~3x faster while both are backlogged.
  int served_a = 0, served_b = 0;
  int value;
  std::string tenant;
  for (int i = 0; i < 16; ++i) {
    ASSERT_TRUE(wfq.pop(&value, &tenant));
    (tenant == "a" ? served_a : served_b)++;
  }
  EXPECT_EQ(served_a, 12);
  EXPECT_EQ(served_b, 4);
}

TEST(FairQueue, SeededLoadDrainsIdentically) {
  // Property: the drain order is a pure function of the push sequence.
  const auto run_once = [](std::uint64_t seed) {
    WeightedFairQueue<int> wfq;
    wfq.set_weight("a", 3.0);
    wfq.set_weight("b", 2.0);
    wfq.set_weight("c", 1.0);
    common::Rng rng(seed);
    std::vector<std::string> order;
    int value;
    std::string tenant;
    for (int step = 0; step < 400; ++step) {
      const int op = static_cast<int>(rng.next_below(4));
      if (op < 3) {
        const std::string who(1, static_cast<char>('a' + op));
        wfq.push(who, rng.uniform(0.5, 2.0), step);
      } else if (wfq.pop(&value, &tenant)) {
        order.push_back(tenant);
      }
    }
    while (wfq.pop(&value, &tenant)) order.push_back(tenant);
    return order;
  };
  EXPECT_EQ(run_once(42), run_once(42));
  EXPECT_EQ(run_once(7), run_once(7));
  EXPECT_NE(run_once(42), run_once(7));  // the seed actually matters
}

TEST(FairQueue, HigherPriorityDrainsStrictlyFirst) {
  WeightedFairQueue<int> wfq;
  wfq.set_weight("a", 4.0);
  wfq.set_weight("b", 1.0);
  // a floods priority 0 with a large weight; b's priority-1 jobs still
  // drain first, then priority 0 (FIFO per tenant), then priority -1.
  for (int i = 0; i < 6; ++i) wfq.push_weighted("a", 1.0, 0.0, i, 0);
  wfq.push_weighted("c", 1.0, 0.0, 200, -1);
  for (int i = 0; i < 3; ++i) wfq.push_weighted("b", 1.0, 0.0, 100 + i, 1);
  EXPECT_EQ(wfq.size(), 10u);
  std::vector<int> values;
  int value = 0;
  while (wfq.pop(&value)) values.push_back(value);
  EXPECT_EQ(values,
            (std::vector<int>{100, 101, 102, 0, 1, 2, 3, 4, 5, 200}));
  EXPECT_TRUE(wfq.empty());
}

TEST(FairQueue, OnePriorityLevelDrainsAsPlainWfq) {
  // Every job at one priority — whichever — drains in the order of the
  // default level: the priority dimension adds nothing until used.
  const auto run_at = [](int priority) {
    WeightedFairQueue<int> wfq;
    wfq.set_weight("a", 3.0);
    wfq.set_weight("b", 1.0);
    common::Rng rng(99);
    std::vector<std::string> order;
    int value;
    std::string tenant;
    for (int step = 0; step < 300; ++step) {
      const int op = static_cast<int>(rng.next_below(3));
      if (op < 2) {
        wfq.push_weighted(op == 0 ? "a" : "b", rng.uniform(0.5, 2.0), 0.0,
                          step, priority);
      } else if (wfq.pop(&value, &tenant)) {
        order.push_back(tenant);
      }
    }
    while (wfq.pop(&value, &tenant)) order.push_back(tenant);
    return order;
  };
  EXPECT_EQ(run_at(0), run_at(7));
  EXPECT_EQ(run_at(0), run_at(-3));
}

TEST(FairQueue, WeightedShareUnderSeededMixedLoad) {
  // Three fully backlogged tenants at weights 4:2:1 drain 4:2:1 over any
  // window while all are backlogged.
  WeightedFairQueue<int> wfq;
  wfq.set_weight("a", 4.0);
  wfq.set_weight("b", 2.0);
  wfq.set_weight("c", 1.0);
  for (int i = 0; i < 70; ++i) {
    wfq.push("a", 1.0, i);
    wfq.push("b", 1.0, i);
    wfq.push("c", 1.0, i);
  }
  std::map<std::string, int> served;
  int value;
  std::string tenant;
  // 70 pops: c stays backlogged throughout (c has 70 jobs, gets 1/7).
  for (int i = 0; i < 70; ++i) {
    ASSERT_TRUE(wfq.pop(&value, &tenant));
    served[tenant]++;
  }
  EXPECT_NEAR(served["a"], 40, 2);
  EXPECT_NEAR(served["b"], 20, 2);
  EXPECT_NEAR(served["c"], 10, 2);
}

}  // namespace
}  // namespace xaas::service
