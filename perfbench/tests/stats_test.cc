// Self-tests for the load client's statistics: exact quantiles and the
// ten-beyond rule, due-time accounting, misses, and the slo_qps ladder and
// its backlog check.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "stats.h"

namespace perfbench {
namespace {

constexpr int64_t kMs = 1'000'000;

std::vector<double> Iota(size_t n) {
  std::vector<double> v(n);
  for (size_t i = 0; i < n; ++i) v[i] = static_cast<double>(i + 1);
  return v;
}

/// An open-loop sender with one stalled write: request i is due at i ms,
/// is sent at max(due, when the previous write returned), and the server
/// answers `service_ms` after the send. The write of request `stall_at`
/// blocks for `stall_ms`.
std::vector<RequestRecord> StalledSchedule(size_t n, size_t stall_at,
                                           double stall_ms,
                                           double service_ms) {
  std::vector<RequestRecord> out(n);
  int64_t writer_free = 0;
  for (size_t i = 0; i < n; ++i) {
    RequestRecord& r = out[i];
    r.due_ns = static_cast<int64_t>(i) * kMs;
    r.send_ns = std::max(r.due_ns, writer_free);
    writer_free = r.send_ns + (i == stall_at ? static_cast<int64_t>(stall_ms * kMs) : 0);
    r.recv_ns = r.send_ns + static_cast<int64_t>(service_ms * kMs);
    r.outcome = Outcome::kOk;
  }
  return out;
}

std::vector<RequestRecord> Flat(size_t n, double latency_ms) {
  std::vector<RequestRecord> out(n);
  for (size_t i = 0; i < n; ++i) {
    out[i].due_ns = static_cast<int64_t>(i) * kMs;
    out[i].send_ns = out[i].due_ns;
    out[i].recv_ns = out[i].due_ns + static_cast<int64_t>(latency_ms * kMs);
    out[i].outcome = Outcome::kOk;
  }
  return out;
}

TEST(ExactQuantile, NearestRankIsAnOrderStatistic) {
  const auto v = Iota(1000);
  EXPECT_EQ(ExactQuantile(v, 0.5), 500.0);
  EXPECT_EQ(ExactQuantile(v, 0.99), 990.0);
  EXPECT_EQ(ExactQuantile(v, 1.0), 1000.0);
  EXPECT_EQ(ExactQuantile({7.0}, 0.5), 7.0);
  EXPECT_EQ(ExactQuantile({1.0, 2.0, 3.0}, 0.5), 2.0);
  // Never interpolated: between two samples the answer is one of them.
  EXPECT_EQ(ExactQuantile({1.0, 100.0}, 0.75), 100.0);
}

TEST(ExactQuantile, TenSamplesBeyondRule) {
  EXPECT_EQ(SamplesBeyond(1000, 0.99), 10u);
  EXPECT_TRUE(QuantileReportable(1000, 0.99));
  EXPECT_EQ(SamplesBeyond(999, 0.99), 9u);
  EXPECT_FALSE(QuantileReportable(999, 0.99));
  EXPECT_FALSE(QuantileReportable(100, 0.99));
  EXPECT_TRUE(QuantileReportable(20, 0.5));
  EXPECT_EQ(SamplesBeyond(0, 0.5), 0u);
}

TEST(Summarize, StalledSendChargesTheRequestsAfterIt) {
  const auto recs = StalledSchedule(1000, 500, 50.0, 0.5);
  const PhaseSummary s = Summarize(recs, 0, 1.0);
  EXPECT_EQ(s.ok, 1000u);
  EXPECT_EQ(s.misses(), 0u);
  // ~50 requests queue behind the stalled write; timed from the send they
  // would all read 0.5 ms, timed from the due time they read up to 50 ms.
  EXPECT_GT(s.p99_ms, 30.0);
  EXPECT_NEAR(s.p50_ms, 0.5, 1e-9);
  EXPECT_GT(s.send_lag_p99_ms, 30.0);
  const PhaseSummary clean = Summarize(StalledSchedule(1000, 500, 0.0, 0.5), 0, 1.0);
  EXPECT_NEAR(clean.p99_ms, 0.5, 1e-9);
  EXPECT_NEAR(clean.send_lag_p99_ms, 0.0, 1e-9);
}

TEST(Summarize, ShedErrorTimeoutAndMismatchAreMisses) {
  auto recs = Flat(1000, 1.0);
  recs[1].outcome = Outcome::kShed;
  recs[2].outcome = Outcome::kError;
  recs[3].outcome = Outcome::kTimeout;
  recs[4].outcome = Outcome::kMismatch;
  recs[5].outcome = Outcome::kPending;  // never answered
  const PhaseSummary s = Summarize(recs, 0, 2.0);
  EXPECT_EQ(s.sent, 1000u);
  EXPECT_EQ(s.ok, 995u);
  EXPECT_EQ(s.shed, 1u);
  EXPECT_EQ(s.error, 1u);
  EXPECT_EQ(s.timeout, 2u);
  EXPECT_EQ(s.mismatch, 1u);
  EXPECT_EQ(s.misses(), 5u);
  EXPECT_DOUBLE_EQ(s.miss_frac(), 0.005);
  EXPECT_DOUBLE_EQ(s.ok_per_s, 497.5);
  // Misses sit at +inf: below 1% they leave p99 finite, but they still
  // fail a 0.1% miss budget.
  EXPECT_TRUE(std::isfinite(s.p99_ms));
  EXPECT_FALSE(StepPasses(s));
  // Beyond 1% misses, p99 itself is a miss.
  for (size_t i = 10; i < 30; ++i) recs[i].outcome = Outcome::kShed;
  EXPECT_TRUE(std::isinf(Summarize(recs, 0, 2.0).p99_ms));
  EXPECT_TRUE(std::isinf(LatencyFromDueMs(recs[1])));
}

TEST(Backlog, GrowingLatencyIsABacklogFlatIsNot) {
  EXPECT_FALSE(BacklogGrowing(Flat(1000, 2.0)));
  auto growing = Flat(1000, 0.0);
  for (size_t i = 0; i < growing.size(); ++i) {
    // Latency climbs 0 -> 10 ms: still under the 20 ms p99 limit.
    growing[i].recv_ns += static_cast<int64_t>(i) * kMs / 100;
  }
  EXPECT_TRUE(BacklogGrowing(growing));
  const PhaseSummary s = Summarize(growing, 0, 1.0);
  EXPECT_LE(s.p99_ms, kSloP99Ms);
  EXPECT_TRUE(s.backlog_growing);
  EXPECT_FALSE(StepPasses(s));
  EXPECT_TRUE(StepPasses(Summarize(Flat(1000, 2.0), 0, 1.0)));
  EXPECT_FALSE(StepPasses(Summarize(Flat(999, 2.0), 0, 1.0)));  // p99 unreportable
  EXPECT_FALSE(StepPasses(Summarize(Flat(1000, 25.0), 0, 1.0)));
}

TEST(Summarize, QuantilesPoolEveryRequestOfThePhase) {
  // 4 one-second windows of 1000 requests each at 1 ms; in the third, a
  // 40 ms stall hits 5% of its requests, 1.25% of the phase.
  std::vector<RequestRecord> recs;
  for (int w = 0; w < 4; ++w) {
    for (int i = 0; i < 1000; ++i) {
      RequestRecord r;
      r.due_ns = static_cast<int64_t>(w * 1000 + i) * kMs;
      r.send_ns = r.due_ns;
      r.recv_ns = r.due_ns + (w == 2 && i < 50 ? 40 : 1) * kMs;
      r.outcome = Outcome::kOk;
      recs.push_back(r);
    }
  }
  // One disturbed window of four still sets the phase's p99: windows
  // only shape the OK rate.
  const PhaseSummary s = Summarize(recs, 0, 4.0, 4);
  EXPECT_EQ(s.windows, 4u);
  EXPECT_TRUE(s.p99_reportable);
  EXPECT_DOUBLE_EQ(s.p99_ms, 40.0);
  EXPECT_DOUBLE_EQ(s.p50_ms, 1.0);
  EXPECT_DOUBLE_EQ(s.ok_per_s, 1000.0);
  EXPECT_DOUBLE_EQ(Summarize(recs, 0, 4.0, 1).p99_ms, 40.0);
}

TEST(Summarize, MostOfAPhaseMissingMakesP50AMiss) {
  auto recs = Flat(1000, 1.0);
  for (size_t i = 0; i < 600; ++i) {
    recs[i].outcome = i % 2 == 0 ? Outcome::kShed : Outcome::kTimeout;
  }
  const PhaseSummary s = Summarize(recs, 0, 1.0);
  EXPECT_TRUE(std::isinf(s.p50_ms));
  EXPECT_TRUE(std::isinf(s.p99_ms));
  EXPECT_EQ(s.misses(), 600u);
  EXPECT_DOUBLE_EQ(s.ok_per_s, 400.0);
  EXPECT_FALSE(StepPasses(s));
}

TEST(Windows, WindowsForIsOddAndAtLeastAQuarterSecond) {
  EXPECT_EQ(WindowsFor(4.0), 15u);
  EXPECT_EQ(WindowsFor(1.5), 5u);
  EXPECT_EQ(WindowsFor(0.75), 3u);
  EXPECT_EQ(WindowsFor(0.3), 1u);
}

/// A server with capacity `cap`: below it every step is flat at 1 ms,
/// above it the backlog grows.
std::function<PhaseSummary(double)> Server(double cap, std::vector<double>* seen) {
  return [cap, seen](double rate) {
    seen->push_back(rate);
    if (rate <= cap) return Summarize(Flat(1200, 1.0), 0, 1.0);
    auto recs = Flat(1200, 1.0);
    for (size_t i = 0; i < recs.size(); ++i) {
      recs[i].recv_ns += static_cast<int64_t>(i) * kMs / 20;
    }
    return Summarize(recs, 0, 1.0);
  };
}

/// Each failing rate of a ladder was run twice, each passing rate once
/// (after at most one failure).
void ExpectRetriedFailures(const LadderResult& r) {
  for (size_t i = 0; i < r.steps.size(); ++i) {
    if (r.steps[i].pass) continue;
    ASSERT_LT(i + 1, r.steps.size());
    EXPECT_DOUBLE_EQ(r.steps[i + 1].rate, r.steps[i].rate);
    if (!r.steps[i + 1].pass) ++i;
  }
}

TEST(Ladder, ClimbsThenBisectsToTheHighestPassingRate) {
  std::vector<double> seen;
  const LadderResult r = RunLadder(1000, Server(2200, &seen));
  // 1000, 1250, 1562.5, 1953.1 pass; 2441.4 fails twice; 3 bisections.
  EXPECT_FALSE(r.capped);
  EXPECT_LE(r.slo_qps, 2200.0);
  // Resolution after three bisections of one 1.25x step: 1.25^(1/8).
  EXPECT_GT(r.slo_qps, 2200.0 / std::pow(1.25, 1.0 / 8.0));
  for (const LadderStep& s : r.steps) EXPECT_EQ(s.pass, s.rate <= 2200.0);
  ExpectRetriedFailures(r);
}

TEST(Ladder, OneNoisyFailureDoesNotMoveTheResult) {
  std::vector<double> seen;
  auto server = Server(2200, &seen);
  bool noise_used = false;
  const LadderResult r = RunLadder(1000, [&](double rate) {
    if (rate > 1500 && !noise_used) {  // one burst at 1562.5
      noise_used = true;
      return Summarize(Flat(1200, 30.0), 0, 1.0);
    }
    return server(rate);
  });
  EXPECT_GT(r.slo_qps, 2200.0 / std::pow(1.25, 1.0 / 8.0));
  EXPECT_LE(r.slo_qps, 2200.0);
}

TEST(Ladder, DescendsUntilARatePassesAndCapsWhenNothingFails) {
  std::vector<double> seen;
  LadderResult r = RunLadder(1000, Server(300, &seen));
  // 1000 .. 327.7 fail, 262.1 passes: five descents, then bisection.
  EXPECT_LE(r.slo_qps, 300.0);
  EXPECT_GT(r.slo_qps, 300.0 / std::pow(1.25, 1.0 / 8.0));
  ExpectRetriedFailures(r);

  seen.clear();
  r = RunLadder(1000, Server(1e9, &seen));
  EXPECT_TRUE(r.capped);
  EXPECT_EQ(seen.size(), 1u + kLadderMaxUp);
  EXPECT_DOUBLE_EQ(r.slo_qps, 1000 * std::pow(1.25, kLadderMaxUp));

  // Nothing passes: the start and kLadderMaxDown descents, each twice.
  seen.clear();
  r = RunLadder(1000, Server(1, &seen));
  EXPECT_EQ(r.slo_qps, 0.0);
  EXPECT_EQ(seen.size(), 2u * (1 + kLadderMaxDown));
}

}  // namespace
}  // namespace perfbench
