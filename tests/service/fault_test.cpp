#include "service/fault.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include "service/reliability.hpp"

namespace xaas::service {
namespace {

// ---- FaultPlan -----------------------------------------------------------

TEST(FaultPlan, IdenticalSeedsProduceIdenticalSchedules) {
  // The property the chaos bench leans on: a plan's fault schedule is a
  // pure function of (seed, site, key, evaluation index).
  const std::vector<std::string> keys = {"tu/a.c", "tu/b.c", "tu/c.c"};
  constexpr int kEvaluations = 200;

  const auto schedule = [&](std::uint64_t seed) {
    fault::FaultPlan plan(seed);
    plan.set_probability(fault::kTuBuild, 0.3);
    std::vector<bool> fired;
    for (const auto& key : keys) {
      for (int i = 0; i < kEvaluations; ++i) {
        fired.push_back(plan.fires(fault::kTuBuild, key));
      }
    }
    return fired;
  };

  const auto a = schedule(42);
  const auto b = schedule(42);
  const auto c = schedule(43);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);  // astronomically unlikely to collide over 600 draws
}

TEST(FaultPlan, ScheduleIsPerKeyAndIndependentOfInterleaving) {
  // Evaluating keys in a different order (as different thread
  // interleavings would) must not change any key's own schedule.
  const auto schedule_for = [](std::uint64_t seed, const std::string& key,
                               bool warm_other_keys) {
    fault::FaultPlan plan(seed);
    plan.set_probability(fault::kTuBuild, 0.5);
    if (warm_other_keys) {
      for (int i = 0; i < 17; ++i) {
        plan.fires(fault::kTuBuild, "other-" + std::to_string(i));
      }
    }
    std::vector<bool> fired;
    for (int i = 0; i < 64; ++i) {
      fired.push_back(plan.fires(fault::kTuBuild, key));
      if (warm_other_keys) plan.fires(fault::kTuBuild, "interleaved");
    }
    return fired;
  };
  EXPECT_EQ(schedule_for(7, "tu/x.c", false), schedule_for(7, "tu/x.c", true));
}

TEST(FaultPlan, ProbabilityRoughlyHonored) {
  fault::FaultPlan plan(1234);
  plan.set_probability(fault::kStoreRead, 0.1);
  int fired = 0;
  constexpr int kDraws = 5000;
  for (int i = 0; i < kDraws; ++i) {
    if (plan.fires(fault::kStoreRead, "key-" + std::to_string(i))) ++fired;
  }
  const double rate = static_cast<double>(fired) / kDraws;
  EXPECT_NEAR(rate, 0.1, 0.03);
  EXPECT_EQ(plan.injected(fault::kStoreRead),
            static_cast<std::uint64_t>(fired));
  EXPECT_EQ(plan.total_injected(), static_cast<std::uint64_t>(fired));
}

TEST(FaultPlan, UnconfiguredSiteNeverFires) {
  fault::FaultPlan plan(99);
  plan.set_probability(fault::kTuBuild, 1.0);
  EXPECT_FALSE(plan.fires(fault::kStoreWrite, "k"));
  EXPECT_TRUE(plan.fires(fault::kTuBuild, "k"));
  EXPECT_EQ(plan.injected(fault::kStoreWrite), 0u);
}

TEST(FaultPlan, CrashedNodesAreCountedPerQuery) {
  fault::FaultPlan plan(5);
  plan.crash_node("node-3");
  EXPECT_FALSE(plan.node_crashed("node-1"));
  EXPECT_TRUE(plan.node_crashed("node-3"));
  EXPECT_TRUE(plan.node_crashed("node-3"));
  EXPECT_EQ(plan.injected(fault::kNodeCrash), 2u);
}

TEST(FaultPlan, MaybeCorruptFlipsExactlyOneByteDeterministically) {
  fault::FaultPlan plan(77);
  plan.set_probability(fault::kStoreCorrupt, 1.0);
  const std::string original(256, 'x');

  std::string a = original;
  ASSERT_TRUE(plan.maybe_corrupt(fault::kStoreCorrupt, "blob-1", a));
  int diffs = 0;
  for (std::size_t i = 0; i < original.size(); ++i) {
    if (a[i] != original[i]) ++diffs;
  }
  EXPECT_EQ(diffs, 1);

  // Same seed + key corrupts the same byte.
  fault::FaultPlan plan2(77);
  plan2.set_probability(fault::kStoreCorrupt, 1.0);
  std::string b = original;
  ASSERT_TRUE(plan2.maybe_corrupt(fault::kStoreCorrupt, "blob-1", b));
  EXPECT_EQ(a, b);

  // Probability 0: bytes untouched.
  fault::FaultPlan off(77);
  std::string c = original;
  EXPECT_FALSE(off.maybe_corrupt(fault::kStoreCorrupt, "blob-1", c));
  EXPECT_EQ(c, original);
}

TEST(FaultPlan, ObserverSeesEveryInjection) {
  fault::FaultPlan plan(3);
  plan.set_probability(fault::kIrLower, 1.0);
  int observed = 0;
  plan.set_observer([&](std::string_view site) {
    EXPECT_EQ(site, fault::kIrLower);
    ++observed;
  });
  plan.fires(fault::kIrLower, "a");
  plan.fires(fault::kIrLower, "b");
  EXPECT_EQ(observed, 2);
}

TEST(FaultPlan, ScopedInstallGatesTheHooks) {
  EXPECT_FALSE(XAAS_FAULT_POINT(fault::kTuBuild, "k"));  // no plan: inert
  fault::FaultPlan plan(11);
  plan.set_probability(fault::kTuBuild, 1.0);
  {
    fault::ScopedFaultPlan guard(plan);
    EXPECT_TRUE(XAAS_FAULT_POINT(fault::kTuBuild, "k"));
  }
  EXPECT_FALSE(XAAS_FAULT_POINT(fault::kTuBuild, "k"));
  EXPECT_EQ(fault::FaultInjector::active(), nullptr);
}

// ---- RetryPolicy ---------------------------------------------------------

TEST(RetryPolicy, BackoffGrowsAndIsCapped) {
  RetryPolicy policy;
  policy.initial_backoff_seconds = 0.001;
  policy.backoff_multiplier = 2.0;
  policy.max_backoff_seconds = 0.004;
  policy.jitter = 0.0;  // deterministic base for the shape assertions
  EXPECT_DOUBLE_EQ(policy.backoff_seconds(1, 0), 0.001);
  EXPECT_DOUBLE_EQ(policy.backoff_seconds(2, 0), 0.002);
  EXPECT_DOUBLE_EQ(policy.backoff_seconds(3, 0), 0.004);
  EXPECT_DOUBLE_EQ(policy.backoff_seconds(4, 0), 0.004);  // capped
}

TEST(RetryPolicy, JitterIsDeterministicAndBounded) {
  RetryPolicy policy;
  policy.jitter = 0.5;
  for (int attempt = 1; attempt <= 4; ++attempt) {
    const double a = policy.backoff_seconds(attempt, 42);
    const double b = policy.backoff_seconds(attempt, 42);
    EXPECT_DOUBLE_EQ(a, b);  // pure function of (attempt, seed)
    RetryPolicy no_jitter = policy;
    no_jitter.jitter = 0.0;
    const double base = no_jitter.backoff_seconds(attempt, 42);
    EXPECT_GT(a, base * 0.5 - 1e-12);
    EXPECT_LE(a, base);
  }
  // Different seeds decorrelate.
  EXPECT_NE(policy.backoff_seconds(2, 1), policy.backoff_seconds(2, 2));
}

// ---- Deadline ------------------------------------------------------------

TEST(Deadline, DefaultNeverExpires) {
  const Deadline none;
  EXPECT_FALSE(none.active());
  EXPECT_FALSE(none.expired(Deadline::Clock::now() +
                            std::chrono::hours(24 * 365)));
}

TEST(Deadline, ExpiresAfterBudget) {
  const auto start = Deadline::Clock::now();
  const Deadline deadline = Deadline::after(0.050, start);
  EXPECT_TRUE(deadline.active());
  EXPECT_FALSE(deadline.expired(start));
  EXPECT_FALSE(deadline.expired(start + std::chrono::milliseconds(49)));
  EXPECT_TRUE(deadline.expired(start + std::chrono::milliseconds(50)));
  EXPECT_NEAR(deadline.remaining_seconds(start), 0.050, 1e-9);
  EXPECT_LT(deadline.remaining_seconds(start + std::chrono::milliseconds(60)),
            0.0);
}

// ---- CircuitBreaker ------------------------------------------------------

TEST(CircuitBreaker, TripsAfterConsecutiveFailuresAndCoolsToHalfOpen) {
  CircuitBreaker::Options options;
  options.failure_threshold = 3;
  options.open_seconds = 0.01;
  options.half_open_probes = 1;
  CircuitBreaker breaker(options);
  const auto t0 = CircuitBreaker::Clock::now();

  EXPECT_TRUE(breaker.allow(t0));
  EXPECT_FALSE(breaker.record_failure(t0));
  EXPECT_FALSE(breaker.record_failure(t0));
  EXPECT_TRUE(breaker.record_failure(t0));  // third failure trips
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::Open);
  EXPECT_EQ(breaker.trips(), 1u);

  // Open: nothing admitted until the cooling period elapses.
  EXPECT_FALSE(breaker.allow(t0 + std::chrono::milliseconds(5)));
  const auto cooled = t0 + std::chrono::milliseconds(11);
  EXPECT_TRUE(breaker.allow(cooled));  // the half-open probe
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::HalfOpen);
  EXPECT_FALSE(breaker.allow(cooled));  // only one probe outstanding

  // Successful probe closes the breaker.
  breaker.record_success();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::Closed);
  EXPECT_TRUE(breaker.allow(cooled));
}

TEST(CircuitBreaker, FailedProbeReopensAndCountsATrip) {
  CircuitBreaker::Options options;
  options.failure_threshold = 1;
  options.open_seconds = 0.01;
  CircuitBreaker breaker(options);
  const auto t0 = CircuitBreaker::Clock::now();

  EXPECT_TRUE(breaker.record_failure(t0));  // threshold 1: first trip
  const auto cooled = t0 + std::chrono::milliseconds(11);
  EXPECT_TRUE(breaker.allow(cooled));
  EXPECT_TRUE(breaker.record_failure(cooled));  // probe failed: re-trip
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::Open);
  EXPECT_EQ(breaker.trips(), 2u);
}

TEST(CircuitBreaker, SuccessResetsTheConsecutiveCount) {
  CircuitBreaker::Options options;
  options.failure_threshold = 2;
  CircuitBreaker breaker(options);
  const auto t0 = CircuitBreaker::Clock::now();
  EXPECT_FALSE(breaker.record_failure(t0));
  breaker.record_success();  // interleaved success: not consecutive
  EXPECT_FALSE(breaker.record_failure(t0));
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::Closed);
  EXPECT_EQ(breaker.trips(), 0u);
}

TEST(CircuitBreaker, LateFailureWhileOpenDoesNotExtendCooling) {
  CircuitBreaker::Options options;
  options.failure_threshold = 1;
  options.open_seconds = 0.01;
  CircuitBreaker breaker(options);
  const auto t0 = CircuitBreaker::Clock::now();
  EXPECT_TRUE(breaker.record_failure(t0));
  // A straggler admitted before the trip reports its failure late.
  EXPECT_FALSE(breaker.record_failure(t0 + std::chrono::milliseconds(9)));
  EXPECT_EQ(breaker.trips(), 1u);
  // Cooling still measured from the original trip.
  EXPECT_TRUE(breaker.allow(t0 + std::chrono::milliseconds(11)));
}

// ---- ErrorCode -----------------------------------------------------------

TEST(ErrorCodes, NamesAndRetryability) {
  EXPECT_EQ(to_string(ErrorCode::Ok), "ok");
  EXPECT_EQ(to_string(ErrorCode::Shed), "shed");
  EXPECT_EQ(to_string(ErrorCode::ShuttingDown), "shutting_down");
  EXPECT_EQ(to_string(ErrorCode::NotFound), "not_found");
  EXPECT_EQ(to_string(ErrorCode::NoCompatibleNode), "no_compatible_node");
  EXPECT_EQ(to_string(ErrorCode::NodesUnavailable), "nodes_unavailable");
  EXPECT_EQ(to_string(ErrorCode::DeployFailed), "deploy_failed");
  EXPECT_EQ(to_string(ErrorCode::RunFailed), "run_failed");
  EXPECT_EQ(to_string(ErrorCode::DeadlineExceeded), "deadline_exceeded");

  EXPECT_TRUE(is_retryable(ErrorCode::Shed));
  EXPECT_TRUE(is_retryable(ErrorCode::NodesUnavailable));
  EXPECT_FALSE(is_retryable(ErrorCode::Ok));
  EXPECT_FALSE(is_retryable(ErrorCode::NotFound));
  EXPECT_FALSE(is_retryable(ErrorCode::NoCompatibleNode));
  EXPECT_FALSE(is_retryable(ErrorCode::DeployFailed));
  EXPECT_FALSE(is_retryable(ErrorCode::DeadlineExceeded));
}

}  // namespace
}  // namespace xaas::service
