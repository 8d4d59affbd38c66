// Statistics for the open-loop load client: exact sample quantiles, the
// per-phase summary (latency from each request's due time, with every
// shed, error, timeout or score mismatch counted as a miss), and the
// rate ladder that finds slo_qps.
//
// Everything here is a pure function of its inputs so the self-tests in
// perfbench/tests can pin it without a daemon.

#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

namespace perfbench {

/// A percentile is reported only when at least this many samples lie
/// beyond it; otherwise it is a guess about a single outlier.
inline constexpr size_t kMinSamplesBeyond = 10;

/// Latency limit of the service-level objective on p99 (ms).
inline constexpr double kSloP99Ms = 20.0;
/// Largest miss share a ladder step may have and still pass.
inline constexpr double kSloMaxMissFrac = 0.001;

enum class Outcome : uint8_t {
  kPending = 0,  ///< no response yet; a phase that ends leaves it a timeout
  kOk,
  kShed,
  kError,
  kTimeout,
  kMismatch,  ///< answered OK, but the scores differ from the reference
};

/// One request of an open-loop phase. Times are steady-clock nanoseconds.
struct RequestRecord {
  int64_t due_ns = 0;   ///< when the schedule said to send it
  int64_t send_ns = 0;  ///< when the sender actually wrote it
  int64_t recv_ns = 0;  ///< when its response was read (kOk/kShed/...)
  Outcome outcome = Outcome::kPending;
};

/// Nearest-rank quantile of an ascending sample: sorted[ceil(q n) - 1].
/// Exact (an order statistic of the sample, never interpolated or
/// bucketed). `sorted` must be non-empty and q in (0, 1].
double ExactQuantile(const std::vector<double>& sorted, double q);

/// Samples ranked strictly above the nearest-rank q-quantile of n.
size_t SamplesBeyond(size_t n, double q);

/// True when the q-quantile of n samples has kMinSamplesBeyond samples
/// beyond it.
bool QuantileReportable(size_t n, double q);

/// Per-request latency measured from the due time in ms; a miss (any
/// outcome other than kOk) is +infinity, so it exceeds every limit.
double LatencyFromDueMs(const RequestRecord& r);

/// True when the second half of a phase is waiting longer than the first:
/// the median due-time latency of the last quarter of requests (by due
/// time) exceeds 1.5x that of the first quarter plus 1 ms. A queue that
/// keeps up with its arrivals shows no such trend.
bool BacklogGrowing(const std::vector<RequestRecord>& records);

/// One phase: its exact p50 and p99 over every request sent in it (a
/// miss counts as +inf), and its OK rate as the median over equal windows
/// by due time, so a burst of host stalls in one window does not set the
/// rate. With one window the rate is the phase's own.
struct PhaseSummary {
  size_t sent = 0;
  size_t ok = 0;
  size_t shed = 0;
  size_t error = 0;
  size_t timeout = 0;
  size_t mismatch = 0;
  double duration_s = 0.0;  ///< scheduled length of the phase
  size_t windows = 0;
  double p50_ms = 0.0;  ///< from due; +inf when misses reach the rank
  double p99_ms = 0.0;
  bool p99_reportable = false;   ///< p99 has 10 samples beyond it
  double send_lag_p99_ms = 0.0;  ///< how late the generator ran (phase)
  double ok_per_s = 0.0;         ///< OK responses per scheduled second
  bool backlog_growing = false;

  size_t misses() const { return shed + error + timeout + mismatch; }
  double miss_frac() const {
    return sent == 0 ? 0.0 : static_cast<double>(misses()) / sent;
  }
};

/// Summarizes one phase that started at `start_ns` and was scheduled for
/// `duration_s`, over `windows` equal windows. A record still kPending
/// counts as a timeout.
PhaseSummary Summarize(const std::vector<RequestRecord>& records,
                       int64_t start_ns, double duration_s,
                       size_t windows = 1);

/// Rate windows for a phase of `duration_s`: the largest odd count of at
/// least 0.25 s each, and at least one.
size_t WindowsFor(double duration_s);

/// A ladder step passes when its p99 is reportable and within kSloP99Ms,
/// its misses are at most kSloMaxMissFrac of what was sent, and its
/// backlog is not growing.
bool StepPasses(const PhaseSummary& s);

/// Rate ladder shape: from its start rate, climb by kLadderGrowth per
/// rate (at most kLadderMaxUp times) until a rate fails, or descend (at
/// most kLadderMaxDown times) until one passes; then bisect geometrically
/// kLadderBisect times between the highest pass and the lowest fail, a
/// final resolution of 1.25^(1/8), about 2.8%. A rate fails only when two
/// steps at it both fail.
inline constexpr double kLadderGrowth = 1.25;
inline constexpr int kLadderMaxUp = 5;
inline constexpr int kLadderMaxDown = 8;
inline constexpr int kLadderBisect = 3;

struct LadderStep {
  double rate = 0.0;
  bool pass = false;
  PhaseSummary summary;
};

struct LadderResult {
  /// Highest rate that passed (0 when none did).
  double slo_qps = 0.0;
  /// True when the climb never found a failing rate (slo_qps is then a
  /// lower bound).
  bool capped = false;
  std::vector<LadderStep> steps;
};

/// Runs the rate ladder from `start_rate`. `run_step(rate)` runs one
/// open-loop step at `rate` and returns its summary.
LadderResult RunLadder(double start_rate,
                       const std::function<PhaseSummary(double)>& run_step);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
