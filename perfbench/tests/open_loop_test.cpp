#include "harness/open_loop.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace perfbench {
namespace {

/// Virtual clock: time moves only when the generator sleeps or a send
/// stalls, so every latency below is exact.
class ManualPacer final : public Pacer {
 public:
  double Now() const override { return now_; }
  void SleepUntil(double t) override { now_ = std::max(now_, t); }
  void Advance(double seconds) { now_ += seconds; }

 private:
  double now_ = 100.0;
};

TEST(OpenLoopTest, SameSeedGivesSameSchedule) {
  const auto a = PoissonSchedule(42, 5000.0, 1.0);
  const auto b = PoissonSchedule(42, 5000.0, 1.0);
  const auto c = PoissonSchedule(43, 5000.0, 1.0);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  ASSERT_FALSE(a.empty());
  for (std::size_t i = 1; i < a.size(); ++i) EXPECT_GT(a[i], a[i - 1]);
  EXPECT_LT(a.back(), 1.0);
  // ~5000 arrivals: a Poisson count is within 5 sigma of its mean.
  EXPECT_NEAR(static_cast<double>(a.size()), 5000.0, 5 * std::sqrt(5000.0));
}

TEST(OpenLoopTest, StallIsChargedToRequestsBehindIt) {
  // Ten requests 1 ms apart; sending request 3 stalls the generator for
  // 10 ms.  Every request completes the instant it is sent.
  std::vector<double> schedule;
  for (int i = 0; i < 10; ++i) schedule.push_back(0.001 * i);
  OpenLoop loop(schedule);
  ManualPacer pacer;
  loop.Run(pacer, [&](std::size_t i) {
    if (i == 3) pacer.Advance(0.010);
    loop.Complete(i, pacer.Now(), true);
  });
  ASSERT_TRUE(loop.WaitAll(0.0));
  // Request 3 itself took 10 ms; request 4 was due 1 ms later but could
  // only go out after the stall, so it is charged the 9 ms it waited.
  EXPECT_NEAR(loop.Finished(3) - loop.Intended(3), 0.010, 1e-12);
  EXPECT_NEAR(loop.Finished(4) - loop.Intended(4), 0.009, 1e-12);
  EXPECT_NEAR(loop.Sent(4) - loop.Intended(4), 0.009, 1e-12);
  EXPECT_NEAR(loop.Finished(9) - loop.Intended(9), 0.004, 1e-12);
  EXPECT_NEAR(loop.Finished(2) - loop.Intended(2), 0.0, 1e-12);
  const Summary latency = loop.Latency();
  EXPECT_EQ(latency.samples, 10u);
  EXPECT_EQ(latency.failed, 0u);
  // Lateness 0,0,0,0 then 9,8,7,6,5,4 ms: the nearest-rank median is 4 ms.
  EXPECT_NEAR(loop.Lateness().median, 0.004, 1e-12);
}

TEST(OpenLoopTest, FailedAndMissingRequestsCountAsInfinity) {
  OpenLoop loop({0.0, 0.001, 0.002, 0.003});
  ManualPacer pacer;
  loop.Run(pacer, [&](std::size_t i) {
    if (i == 1) loop.Complete(i, pacer.Now(), false);
    if (i >= 2) loop.Complete(i, pacer.Now() + 0.001, true);
  });
  EXPECT_FALSE(loop.WaitAll(0.0));  // request 0 never completed
  const Summary latency = loop.Latency();
  EXPECT_EQ(latency.samples, 4u);
  EXPECT_EQ(latency.failed, 2u);
  EXPECT_TRUE(std::isinf(latency.p99));
}

}  // namespace
}  // namespace perfbench
