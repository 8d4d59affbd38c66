// Subcommands of perfbench_client. perfbench/run.py is the only caller;
// see perfbench/README.md for what each measures.

#ifndef PERFBENCH_COMMANDS_H_
#define PERFBENCH_COMMANDS_H_

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>

#include "common/status.h"
#include "workload.h"

namespace perfbench {

/// World shape and seeds: `retina generate --scale 0.1 --users 6000` and
/// `retina train-retweet` at their default seed.
inline constexpr double kWorldScale = 0.1;
inline constexpr size_t kWorldUsers = 6000;
inline constexpr uint64_t kCliSeed = 7;

struct PrepareArgs {
  std::string world;
  std::string bundle;
  std::string out;  ///< universe file
};

struct ServeArgs {
  std::string workload_name;
  Workload workload = Workload::kHotCascade;
  uint64_t seed = 0;
  double seconds = 10.0;
  double nominal_qps = 0.0;
  double overload_qps = 0.0;
  int cold_starts = 1;  ///< daemon cold starts to time; the first serves
  std::string universe;
  std::string world;
  std::string bundle;
  std::string serve_bin;
  std::string socket;
  std::string daemon_log;
  std::string out;
};

struct TraceArgs {
  std::string workload_name;
  Workload workload = Workload::kHotCascade;
  uint64_t seed = 0;
  double seconds = 10.0;
  double nominal_qps = 0.0;
  std::string universe;
  std::string bundle;   ///< the run's bundle (cold-start layers load it)
  std::string workdir;  ///< scratch for the traced generate/train outputs
  std::string out;
  std::string spans_out;
};

/// Builds the universe and its reference scores from a world and bundle.
int RunPrepare(const PrepareArgs& args);
/// Spawns the daemon and drives the open-loop phases.
int RunServe(const ServeArgs& args);
/// In-process traced replay: train pipeline, load, serving replay.
int RunTrace(const TraceArgs& args);

inline int Fail(const retina::Status& st) {
  std::fprintf(stderr, "perfbench_client: %s\n", st.ToString().c_str());
  return 1;
}

/// Nominal-phase length for `seconds` of measurement: 25% of the run, and
/// never fewer than ~1200 requests so p99 has ten samples beyond it.
inline double NominalSeconds(double seconds, double nominal_qps) {
  return std::max(seconds * 0.25, 1200.0 / nominal_qps);
}

}  // namespace perfbench

#endif  // PERFBENCH_COMMANDS_H_
