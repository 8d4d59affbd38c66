// perfbench_client — the benchmark's own program.
//
//   perfbench_client prepare --world DIR --bundle DIR --out FILE
//   perfbench_client serve   --workload W --seed N --seconds S
//                            --nominal-qps R --overload-qps R --cold-starts N
//                            --universe FILE --world DIR --bundle DIR
//                            --serve-bin PATH --socket PATH
//                            --daemon-log FILE --out FILE
//   perfbench_client trace   --workload W --seed N --seconds S
//                            --nominal-qps R --universe FILE --bundle DIR
//                            --workdir DIR --out FILE --spans-out FILE

#include <cstdlib>
#include <cstring>
#include <map>
#include <string>

#include "commands.h"

namespace {

using perfbench::Fail;
using retina::Status;

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench_client <prepare|serve|trace> --flag value "
               "... (see perfbench/README.md)\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string cmd = argv[1];
  std::map<std::string, std::string> flags;
  for (int i = 2; i < argc; ++i) {
    if (std::strncmp(argv[i], "--", 2) != 0 || i + 1 >= argc) return Usage();
    flags[argv[i] + 2] = argv[i + 1];
    ++i;
  }
  bool missing = false;
  auto get = [&](const char* key) -> std::string {
    auto it = flags.find(key);
    if (it == flags.end()) {
      std::fprintf(stderr, "perfbench_client %s: missing --%s\n", cmd.c_str(),
                   key);
      missing = true;
      return "";
    }
    return it->second;
  };
  auto num = [&](const char* key) { return std::atof(get(key).c_str()); };

  if (cmd == "prepare") {
    perfbench::PrepareArgs a{get("world"), get("bundle"), get("out")};
    return missing ? 2 : perfbench::RunPrepare(a);
  }
  if (cmd == "serve" || cmd == "trace") {
    const std::string workload = get("workload");
    perfbench::Workload w;
    if (!missing && !perfbench::ParseWorkload(workload, &w)) {
      return Fail(Status::InvalidArgument("unknown workload " + workload));
    }
    const uint64_t seed = std::strtoull(get("seed").c_str(), nullptr, 10);
    const double seconds = num("seconds");
    const double nominal = num("nominal-qps");
    if (cmd == "serve") {
      perfbench::ServeArgs a;
      a.workload_name = workload;
      a.workload = w;
      a.seed = seed;
      a.seconds = seconds;
      a.nominal_qps = nominal;
      a.overload_qps = num("overload-qps");
      a.cold_starts = static_cast<int>(num("cold-starts"));
      a.universe = get("universe");
      a.world = get("world");
      a.bundle = get("bundle");
      a.serve_bin = get("serve-bin");
      a.socket = get("socket");
      a.daemon_log = get("daemon-log");
      a.out = get("out");
      if (missing || seconds <= 0 || nominal <= 0 || a.overload_qps <= 0 ||
          a.cold_starts < 1) {
        return Usage();
      }
      return perfbench::RunServe(a);
    }
    perfbench::TraceArgs a;
    a.workload_name = workload;
    a.workload = w;
    a.seed = seed;
    a.seconds = seconds;
    a.nominal_qps = nominal;
    a.universe = get("universe");
    a.bundle = get("bundle");
    a.workdir = get("workdir");
    a.out = get("out");
    a.spans_out = get("spans-out");
    if (missing || seconds <= 0 || nominal <= 0) return Usage();
    return perfbench::RunTrace(a);
  }
  return Usage();
}
