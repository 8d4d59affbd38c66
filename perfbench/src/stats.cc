#include "stats.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

namespace perfbench {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

size_t NearestRank(size_t n, double q) {
  // ceil(q n) in exact integer-friendly form; q n is tiny relative to 2^53.
  const double r = std::ceil(q * static_cast<double>(n) - 1e-9);
  return std::clamp<size_t>(static_cast<size_t>(r), 1, n);
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return ExactQuantile(v, 0.5);
}

}  // namespace

double ExactQuantile(const std::vector<double>& sorted, double q) {
  assert(!sorted.empty());
  return sorted[NearestRank(sorted.size(), q) - 1];
}

size_t SamplesBeyond(size_t n, double q) {
  return n == 0 ? 0 : n - NearestRank(n, q);
}

bool QuantileReportable(size_t n, double q) {
  return SamplesBeyond(n, q) >= kMinSamplesBeyond;
}

double LatencyFromDueMs(const RequestRecord& r) {
  if (r.outcome != Outcome::kOk) return kInf;
  return static_cast<double>(r.recv_ns - r.due_ns) / 1e6;
}

bool BacklogGrowing(const std::vector<RequestRecord>& records) {
  if (records.size() < 8) return false;
  std::vector<const RequestRecord*> by_due;
  by_due.reserve(records.size());
  for (const RequestRecord& r : records) by_due.push_back(&r);
  std::stable_sort(by_due.begin(), by_due.end(),
                   [](const RequestRecord* a, const RequestRecord* b) {
                     return a->due_ns < b->due_ns;
                   });
  const size_t quarter = by_due.size() / 4;
  std::vector<double> first, last;
  for (size_t i = 0; i < quarter; ++i) {
    first.push_back(LatencyFromDueMs(*by_due[i]));
    last.push_back(LatencyFromDueMs(*by_due[by_due.size() - quarter + i]));
  }
  const double m_first = Median(first);
  const double m_last = Median(last);
  if (std::isinf(m_last)) return true;
  return m_last > 1.5 * m_first + 1.0;
}

PhaseSummary Summarize(const std::vector<RequestRecord>& records,
                       int64_t start_ns, double duration_s, size_t windows) {
  PhaseSummary s;
  s.sent = records.size();
  s.duration_s = duration_s;
  s.windows = std::max<size_t>(1, windows);
  const double window_ns = duration_s * 1e9 / static_cast<double>(s.windows);
  std::vector<size_t> ok(s.windows, 0);
  std::vector<double> latency, lag;
  latency.reserve(records.size());
  lag.reserve(records.size());
  for (const RequestRecord& r : records) {
    switch (r.outcome) {
      case Outcome::kOk: ++s.ok; break;
      case Outcome::kShed: ++s.shed; break;
      case Outcome::kError: ++s.error; break;
      case Outcome::kMismatch: ++s.mismatch; break;
      case Outcome::kPending:
      case Outcome::kTimeout: ++s.timeout; break;
    }
    lag.push_back(static_cast<double>(r.send_ns - r.due_ns) / 1e6);
    latency.push_back(LatencyFromDueMs(r));
    const double offset = static_cast<double>(r.due_ns - start_ns);
    const size_t w = std::min(
        s.windows - 1,
        static_cast<size_t>(std::max(0.0, offset) / std::max(window_ns, 1.0)));
    ok[w] += r.outcome == Outcome::kOk;
  }
  if (!latency.empty()) {
    std::sort(latency.begin(), latency.end());
    s.p50_ms = ExactQuantile(latency, 0.5);
    s.p99_ms = ExactQuantile(latency, 0.99);
    std::sort(lag.begin(), lag.end());
    s.send_lag_p99_ms = ExactQuantile(lag, 0.99);
  }
  s.p99_reportable = QuantileReportable(latency.size(), 0.99);
  std::vector<double> rate;
  for (size_t w = 0; w < s.windows; ++w) {
    rate.push_back(static_cast<double>(ok[w]) / (window_ns / 1e9));
  }
  s.ok_per_s = duration_s > 0 ? Median(rate) : 0.0;
  s.backlog_growing = BacklogGrowing(records);
  return s;
}

size_t WindowsFor(double duration_s) {
  const auto n = std::max<size_t>(1, static_cast<size_t>(duration_s / 0.25));
  return n % 2 == 1 ? n : n - 1;  // odd, so the median is one window's value
}

bool StepPasses(const PhaseSummary& s) {
  return s.p99_reportable && s.p99_ms <= kSloP99Ms &&
         s.miss_frac() <= kSloMaxMissFrac && !s.backlog_growing;
}

LadderResult RunLadder(double start_rate,
                       const std::function<PhaseSummary(double)>& run_step) {
  LadderResult out;
  // A rate passes when one of two steps at it passes: one burst of host
  // stalls should not move slo_qps by a whole step.
  auto passes = [&](double rate) {
    for (int attempt = 0; attempt < 2; ++attempt) {
      LadderStep st;
      st.rate = rate;
      st.summary = run_step(rate);
      st.pass = StepPasses(st.summary);
      out.steps.push_back(st);
      if (st.pass) return true;
    }
    return false;
  };
  double lo = 0.0;  // highest passing rate seen
  double hi = 0.0;  // lowest failing rate seen
  if (passes(start_rate)) {
    lo = start_rate;
    for (int i = 0; i < kLadderMaxUp && hi == 0.0; ++i) {
      const double rate = lo * kLadderGrowth;
      if (passes(rate)) {
        lo = rate;
      } else {
        hi = rate;
      }
    }
    if (hi == 0.0) {
      out.slo_qps = lo;
      out.capped = true;
      return out;
    }
  } else {
    hi = start_rate;
    for (int i = 0; i < kLadderMaxDown && lo == 0.0; ++i) {
      const double rate = hi / kLadderGrowth;
      if (passes(rate)) {
        lo = rate;
      } else {
        hi = rate;
      }
    }
    if (lo == 0.0) return out;
  }
  for (int i = 0; i < kLadderBisect; ++i) {
    const double mid = std::sqrt(lo * hi);
    if (passes(mid)) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  out.slo_qps = lo;
  return out;
}

}  // namespace perfbench
