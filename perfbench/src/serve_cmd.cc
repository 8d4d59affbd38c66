// `perfbench_client serve`: spawns retina_serve at its default flags and
// drives it with an open loop from one process that uses two threads (the
// main thread and one helper, each sending and receiving on two of the
// four Unix-socket connections).
//
// Phases: daemon spawn to the first OK score (cold start), an untimed
// closed-loop warm-up plus a short open-loop settle, the nominal phase at
// a fixed rate, a fixed overload, and the slo_qps rate ladder; then, with
// --cold-starts N, N-1 more cold starts of fresh daemons. Every request is
// timed from its due time; every checkable response is byte-compared
// against the universe's in-process reference scores.

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <cstring>
#include <thread>

#include "commands.h"
#include "serve/protocol.h"
#include "stats.h"
#include "util.h"
#include "workload.h"

namespace perfbench {

using retina::Result;
using retina::Status;
namespace serve = retina::serve;

namespace {

constexpr size_t kConnections = 4;
constexpr size_t kWarmupWindow = 4;  // per lane
constexpr int64_t kResponseTimeoutNs = 3'000'000'000;
constexpr double kColdStartLimitS = 150.0;
/// Phase lengths as shares of --seconds. A ladder step is also at least
/// kLadderStepMinRequests long (so its p99 has 24 samples beyond it, and
/// one short hiccup does not decide the step) and at most
/// kLadderStepMaxS, which bounds the run on a very slow commit.
constexpr double kOverloadShare = 0.3;
constexpr double kLadderStepShare = 0.04;
constexpr double kLadderStepMaxS = 4.0;
constexpr double kLadderStepMinRequests = 2400.0;
/// The ladder starts at this share of the overload phase's OK rate.
constexpr double kLadderStartShare = 0.8;

/// The daemon process: spawned with its default flags plus the data,
/// model and socket it needs. Killed (and reaped) on destruction if it
/// was not stopped cleanly.
class Daemon {
 public:
  Daemon() = default;
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;
  ~Daemon() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
    }
  }

  Status Spawn(const std::vector<std::string>& argv, const std::string& log) {
    std::vector<char*> cargv;
    for (const std::string& a : argv) cargv.push_back(const_cast<char*>(a.c_str()));
    cargv.push_back(nullptr);
    const int log_fd = ::open(log.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (log_fd < 0) return Status::IOError("cannot open " + log);
    const pid_t parent = ::getpid();
    pid_ = ::fork();
    if (pid_ < 0) {
      ::close(log_fd);
      return Status::IOError("fork failed");
    }
    if (pid_ == 0) {
      // Never outlive the client, even if it is killed.
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      if (::getppid() != parent) ::_exit(127);
      ::dup2(log_fd, STDOUT_FILENO);
      ::dup2(log_fd, STDERR_FILENO);
      ::execv(cargv[0], cargv.data());
      ::_exit(127);
    }
    ::close(log_fd);
    return Status::OK();
  }

  bool Alive() {
    if (pid_ <= 0) return false;
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      return false;
    }
    return true;
  }

  /// Peak resident set (VmHWM) in kB, or -1.
  int64_t PeakRssKb() const {
    const std::string path = "/proc/" + std::to_string(pid_) + "/status";
    std::FILE* f = std::fopen(path.c_str(), "r");
    if (f == nullptr) return -1;
    char line[256];
    int64_t kb = -1;
    while (std::fgets(line, sizeof(line), f) != nullptr) {
      if (std::strncmp(line, "VmHWM:", 6) == 0) kb = std::atoll(line + 6);
    }
    std::fclose(f);
    return kb;
  }

  /// SIGTERM (graceful drain), then SIGKILL after 20 s; always reaps.
  Status Stop() {
    if (pid_ <= 0) return Status::IOError("daemon already exited");
    ::kill(pid_, SIGTERM);
    int status = 0;
    for (int i = 0; i < 2000; ++i) {
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        return WIFEXITED(status) && WEXITSTATUS(status) == 0
                   ? Status::OK()
                   : Status::IOError("daemon exited abnormally");
      }
      ::usleep(10'000);
    }
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, nullptr, 0);
    pid_ = -1;
    return Status::IOError("daemon did not drain within 20 s");
  }

 private:
  pid_t pid_ = -1;
};

Result<int> ConnectUnix(const std::string& path) {
  struct sockaddr_un addr;
  if (path.size() >= sizeof(addr.sun_path)) {
    return Status::InvalidArgument("socket path too long: " + path);
  }
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return Status::IOError("socket() failed");
  std::memset(&addr, 0, sizeof(addr));
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size());
  if (::connect(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) <
      0) {
    ::close(fd);
    return Status::IOError("connect " + path + ": " + std::strerror(errno));
  }
  return fd;
}

/// Open- and closed-loop request generator over kConnections sockets,
/// driven by two symmetric lanes: the calling thread and one helper
/// thread. Request i goes out on connection i % kConnections, and each
/// lane sends and receives on its own half of the connections, so no
/// request waits for a hand-off between a sender and a receiver thread.
class LoadClient {
 public:
  explicit LoadClient(const Universe& universe) : universe_(universe) {}
  LoadClient(const LoadClient&) = delete;
  LoadClient& operator=(const LoadClient&) = delete;
  ~LoadClient() {
    for (int fd : fds_) {
      if (fd >= 0) ::close(fd);
    }
  }

  /// Adopts `first` (the cold-start probe connection) and opens the rest.
  Status Start(int first, const std::string& socket) {
    fds_.push_back(first);
    while (fds_.size() < kConnections) {
      auto fd = ConnectUnix(socket);
      if (!fd.ok()) return fd.status();
      fds_.push_back(fd.ValueOrDie());
    }
    return Status::OK();
  }

  /// Sends `reqs` on their schedule (due_ns offsets from a start 2 ms from
  /// now) and waits for every response or the timeout.
  std::vector<RequestRecord> RunOpenLoop(const std::vector<Request>& reqs) {
    return Run(reqs, /*window=*/0);
  }

  /// Sends `reqs` back to back keeping at most `window` in flight per
  /// lane.
  std::vector<RequestRecord> RunClosedLoop(const std::vector<Request>& reqs,
                                           size_t window) {
    return Run(reqs, window);
  }

  /// One kMetrics snapshot, asked and read on the first connection while
  /// no phase runs. Late score responses met on the way are dropped.
  Result<retina::obs::RegistrySnapshot> Metrics() {
    serve::MetricsRequest req;
    req.request_id = ++metrics_id_;
    RETINA_RETURN_NOT_OK(
        serve::WriteFrame(fds_[0], serve::EncodeMetricsRequest(req)));
    const int64_t deadline = NowNs() + 10'000'000'000;
    std::string payload;
    while (NowNs() < deadline) {
      pollfd p = {fds_[0], POLLIN, 0};
      if (::poll(&p, 1, 100) <= 0) continue;
      bool eof = false;
      RETINA_RETURN_NOT_OK(serve::ReadFrame(fds_[0], &payload, &eof));
      if (eof) return Status::IOError("daemon closed the connection");
      auto type = serve::PeekMessageType(payload);
      if (!type.ok() ||
          type.ValueOrDie() != serve::MessageType::kMetricsResponse) {
        continue;
      }
      serve::MetricsResponse resp;
      RETINA_RETURN_NOT_OK(serve::DecodeMetricsResponse(payload, &resp));
      if (resp.request_id == req.request_id) return std::move(resp.snapshot);
    }
    return Status::IOError("kMetrics reply timed out");
  }

  struct Checks {
    size_t responses = 0;  ///< responses byte-compared to the reference
    size_t scores = 0;
    size_t mismatched = 0;
    size_t connection_errors = 0;
  };
  Checks checks() const {
    Checks c;
    for (const Checks& l : lane_checks_) {
      c.responses += l.responses;
      c.scores += l.scores;
      c.mismatched += l.mismatched;
      c.connection_errors += l.connection_errors;
    }
    return c;
  }

 private:
  static constexpr size_t kLanes = 2;

  /// One phase as both lanes see it. Each lane writes only the records of
  /// its own requests.
  struct Phase {
    uint64_t id = 0;
    const std::vector<Request>* reqs = nullptr;
    const std::vector<std::string>* frames = nullptr;
    std::vector<RequestRecord>* records = nullptr;
    int64_t t0 = 0;
    size_t window = 0;
  };

  std::vector<RequestRecord> Run(const std::vector<Request>& reqs,
                                 size_t window) {
    std::vector<RequestRecord> records(reqs.size());
    std::vector<std::string> frames;
    frames.reserve(reqs.size());
    const uint64_t id = ++phase_;
    for (size_t i = 0; i < reqs.size(); ++i) {
      serve::ScoreRequest req;
      req.request_id = (id << 32) | i;
      req.tweet_id = reqs[i].tweet;
      req.users = reqs[i].users;
      frames.push_back(serve::EncodeScoreRequest(req));
    }
    Phase phase{id, &reqs, &frames, &records, NowNs() + 2'000'000, window};
    std::thread helper([&] { RunLane(1, phase); });
    RunLane(0, phase);
    helper.join();
    return records;
  }

  /// The event loop of lane `lane`: sends each of its requests when due
  /// (open loop) or when fewer than `window` are in flight (closed loop),
  /// and reads responses between sends. Ends when every request of the
  /// lane is answered, or kResponseTimeoutNs after its last send.
  void RunLane(size_t lane, const Phase& ph) {
    const std::vector<Request>& reqs = *ph.reqs;
    std::vector<RequestRecord>& records = *ph.records;
    std::vector<size_t> mine;
    for (size_t i = 0; i < reqs.size(); ++i) {
      if (i % kConnections % kLanes == lane) mine.push_back(i);
    }
    std::vector<pollfd> pfds;
    for (size_t c = lane; c < fds_.size(); c += kLanes) {
      pfds.push_back({fds_[c], POLLIN, 0});
    }
    Checks& checks = lane_checks_[lane];
    size_t next = 0, answered = 0;
    int64_t last_send = ph.t0;
    std::string payload;
    auto settle = [&](RequestRecord& rec, Outcome outcome) {
      if (rec.outcome != Outcome::kPending) return;
      rec.outcome = outcome;
      ++answered;
    };
    while (answered < mine.size()) {
      const int64_t now = NowNs();
      int64_t wake = last_send + kResponseTimeoutNs;
      // A due request whose socket is full waits for room while the lane
      // keeps reading: a blocking write could deadlock against a daemon
      // that is itself blocked writing (shed) responses to this lane.
      int blocked_fd = -1;
      if (next < mine.size() &&
          (ph.window == 0 || next - answered < ph.window)) {
        const size_t i = mine[next];
        const int64_t due = ph.window == 0 ? ph.t0 + reqs[i].due_ns : now;
        pollfd out = {fds_[i % kConnections], POLLOUT, 0};
        if (due > now) {
          wake = std::min(wake, due);
        } else if (::poll(&out, 1, 0) == 0) {
          blocked_fd = out.fd;
        } else {
          RequestRecord& rec = records[i];
          rec.due_ns = due;
          rec.send_ns = NowNs();
          last_send = rec.send_ns;
          ++next;
          if (!serve::WriteFrame(fds_[i % kConnections], (*ph.frames)[i])
                   .ok()) {
            settle(rec, Outcome::kError);
          }
          continue;
        }
      }
      if (now >= wake) break;  // the daemon stopped answering
      const int64_t wait = std::max<int64_t>(0, wake - now);
      struct timespec ts = {static_cast<time_t>(wait / 1'000'000'000),
                            static_cast<long>(wait % 1'000'000'000)};
      for (pollfd& p : pfds) {
        p.events = p.fd == blocked_fd ? POLLIN | POLLOUT : POLLIN;
      }
      if (::ppoll(pfds.data(), pfds.size(), &ts, nullptr) <= 0) continue;
      for (pollfd& p : pfds) {
        if (p.fd < 0 || (p.revents & (POLLIN | POLLHUP | POLLERR)) == 0) {
          continue;
        }
        bool eof = false;
        const Status st = serve::ReadFrame(p.fd, &payload, &eof);
        const int64_t recv_ns = NowNs();
        if (!st.ok() || eof) {
          ++checks.connection_errors;
          p.fd = -1;  // ppoll ignores negative fds
          continue;
        }
        serve::ScoreResponse resp;
        auto type = serve::PeekMessageType(payload);
        if (!type.ok() ||
            type.ValueOrDie() != serve::MessageType::kScoreResponse ||
            !serve::DecodeScoreResponse(payload, &resp).ok()) {
          continue;
        }
        const size_t idx = resp.request_id & 0xffffffffu;
        if (resp.request_id >> 32 != ph.id || idx >= records.size() ||
            idx % kConnections % kLanes != lane ||
            records[idx].outcome != Outcome::kPending) {
          continue;  // a late response of an earlier phase
        }
        records[idx].recv_ns = recv_ns;
        settle(records[idx], Judge(reqs[idx], resp, &checks));
      }
    }
    for (size_t i : mine) {
      if (records[i].outcome == Outcome::kPending) {
        records[i].outcome = Outcome::kTimeout;
      }
    }
  }

  /// The outcome of one answered request; an OK response whose pairs are
  /// in the reference table is byte-compared against it.
  Outcome Judge(const Request& req, const serve::ScoreResponse& resp,
                Checks* checks) const {
    if (resp.code == serve::ResponseCode::kShed) return Outcome::kShed;
    if (resp.code != serve::ResponseCode::kOk) return Outcome::kError;
    Outcome outcome = Outcome::kOk;
    if (resp.scores.size() != req.users.size()) {
      outcome = Outcome::kMismatch;
    } else if (universe_.Checkable(req.tweet, req.users)) {
      ++checks->responses;
      for (size_t j = 0; j < req.users.size(); ++j) {
        uint64_t want = 0, got = 0;
        universe_.Lookup(req.tweet, req.users[j], &want);
        std::memcpy(&got, &resp.scores[j], sizeof(got));
        ++checks->scores;
        if (got != want) outcome = Outcome::kMismatch;
      }
    }
    if (outcome == Outcome::kMismatch) ++checks->mismatched;
    return outcome;
  }

  const Universe& universe_;
  std::vector<int> fds_;
  uint64_t phase_ = 1;
  uint64_t metrics_id_ = 0;
  Checks lane_checks_[kLanes];
};

JsonObject SummaryJson(const PhaseSummary& s, double rate) {
  JsonObject o;
  o.Num("rate", rate)
      .Int("sent", s.sent)
      .Int("ok", s.ok)
      .Int("shed", s.shed)
      .Int("error", s.error)
      .Int("timeout", s.timeout)
      .Int("mismatch", s.mismatch)
      .Num("duration_s", s.duration_s)
      .Int("windows", static_cast<int64_t>(s.windows))
      .Num("p50_ms", s.p50_ms)
      .Num("p99_ms", s.p99_ms)
      .Bool("p99_reportable", s.p99_reportable)
      .Num("send_lag_p99_ms", s.send_lag_p99_ms)
      .Num("ok_per_s", s.ok_per_s)
      .Bool("backlog_growing", s.backlog_growing)
      .Bool("slo_pass", StepPasses(s));
  return o;
}

/// Counter deltas between two kMetrics snapshots for the keys the
/// per-layer metrics use. The server overlays its own atomics onto the
/// counter map, so these exist with obs compiled out too.
JsonObject CounterDeltas(const retina::obs::RegistrySnapshot& a,
                         const retina::obs::RegistrySnapshot& b) {
  static const char* kKeys[] = {
      "serve.requests",         "serve.responses",
      "serve.shed",             "serve.errors",
      "serve.coalesce.batches", "serve.coalesce.batched_requests",
  };
  JsonObject o;
  for (const char* key : kKeys) {
    auto get = [key](const retina::obs::RegistrySnapshot& s) -> uint64_t {
      auto it = s.counters.find(key);
      return it == s.counters.end() ? 0 : it->second;
    };
    o.Int(key, static_cast<int64_t>(get(b) - get(a)));
  }
  return o;
}

int64_t QueueDepthPeak(const retina::obs::RegistrySnapshot& s) {
  if (auto it = s.counters.find("serve.queue_depth_peak");
      it != s.counters.end()) {
    return static_cast<int64_t>(it->second);
  }
  auto it = s.gauges.find("serve.queue.depth_peak");
  return it == s.gauges.end() ? -1 : it->second;
}

/// Spawns `daemon` and waits for its first OK score over the wire. Returns
/// the cold start (exec to that score, seconds) and leaves the connection
/// that got it open in *fd.
Result<double> ColdStart(Daemon* daemon, const std::vector<std::string>& argv,
                         const std::string& log, const std::string& socket,
                         const Universe& universe, int* fd) {
  serve::ScoreRequest probe;
  probe.request_id = 1;
  probe.tweet_id = universe.hot_tweets[0];
  probe.users = {universe.hot_users[0]};
  const std::string frame = serve::EncodeScoreRequest(probe);
  ::unlink(socket.c_str());
  const int64_t exec_ns = NowNs();
  RETINA_RETURN_NOT_OK(daemon->Spawn(argv, log));
  while (true) {
    if (static_cast<double>(NowNs() - exec_ns) / 1e9 > kColdStartLimitS) {
      return Status::IOError("daemon not ready in time");
    }
    if (!daemon->Alive()) return Status::IOError("daemon exited");
    auto conn = ConnectUnix(socket);
    if (!conn.ok()) {
      ::usleep(2000);
      continue;
    }
    const int probe_fd = conn.ValueOrDie();
    struct timeval tv = {10, 0};  // a loaded daemon answers at once
    ::setsockopt(probe_fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    std::string payload;
    bool eof = false;
    serve::ScoreResponse resp;
    if (serve::WriteFrame(probe_fd, frame).ok() &&
        serve::ReadFrame(probe_fd, &payload, &eof).ok() && !eof &&
        serve::DecodeScoreResponse(payload, &resp).ok() &&
        resp.code == serve::ResponseCode::kOk) {
      const double cold_start_s = static_cast<double>(NowNs() - exec_ns) / 1e9;
      tv = {0, 0};
      ::setsockopt(probe_fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
      *fd = probe_fd;
      return cold_start_s;
    }
    ::close(probe_fd);
    ::usleep(2000);
  }
}

}  // namespace

int RunServe(const ServeArgs& args) {
  ::prctl(PR_SET_TIMERSLACK, 1UL);
  auto universe_result = Universe::Load(args.universe);
  if (!universe_result.ok()) return Fail(universe_result.status());
  const Universe universe = std::move(universe_result).ValueOrDie();

  // The daemon at its default flags: only the inputs and a transport.
  const std::vector<std::string> daemon_argv = {
      args.serve_bin, "--data", args.world, "--model", args.bundle,
      "--socket",     args.socket};
  Daemon daemon;
  int probe_fd = -1;
  auto cold = ColdStart(&daemon, daemon_argv, args.daemon_log, args.socket,
                        universe, &probe_fd);
  if (!cold.ok()) return Fail(cold.status());
  std::vector<double> cold_starts = {cold.ValueOrDie()};

  LoadClient client(universe);
  Status st = client.Start(probe_fd, args.socket);
  if (!st.ok()) return Fail(st);

  const uint64_t seed = args.seed;
  const Workload w = args.workload;
  size_t warm_misses = 0;
  const auto warm = client.RunClosedLoop(
      WarmupRequests(w, universe, MixSeed(seed, 1)), kWarmupWindow);
  for (const RequestRecord& r : warm) warm_misses += r.outcome != Outcome::kOk;
  client.RunOpenLoop(
      OpenLoopPhase(w, universe, MixSeed(seed, 2), args.nominal_qps, 0.5));

  auto run_phase = [&](uint64_t tag, double rate, double seconds) {
    const std::vector<Request> reqs =
        OpenLoopPhase(w, universe, MixSeed(seed, tag), rate, seconds);
    const auto recs = client.RunOpenLoop(reqs);
    const int64_t start = recs.empty() ? 0 : recs[0].due_ns - reqs[0].due_ns;
    return Summarize(recs, start, seconds, WindowsFor(seconds));
  };

  auto m0 = client.Metrics();
  if (!m0.ok()) return Fail(m0.status());
  const double nominal_s = NominalSeconds(args.seconds, args.nominal_qps);
  const PhaseSummary nominal = run_phase(3, args.nominal_qps, nominal_s);
  auto m1 = client.Metrics();
  if (!m1.ok()) return Fail(m1.status());

  const PhaseSummary overload =
      run_phase(4, args.overload_qps, kOverloadShare * args.seconds);
  auto m2 = client.Metrics();
  if (!m2.ok()) return Fail(m2.status());

  // The ladder starts below the OK rate the overload sustained, so it
  // spends its steps near the knee on a fast and on a slow commit alike.
  uint64_t step_no = 0;
  const LadderResult ladder = RunLadder(
      std::max(kLadderStartShare * overload.ok_per_s, args.nominal_qps / 8),
      [&](double rate) {
        const double step_s = std::clamp(
            kLadderStepMinRequests / rate, kLadderStepShare * args.seconds,
            kLadderStepMaxS);
        return run_phase(100 + step_no++, rate, step_s);
      });

  const int64_t rss_kb = daemon.PeakRssKb();
  const LoadClient::Checks checks = client.checks();
  const Status stopped = daemon.Stop();

  // Further cold starts, each of a fresh daemon stopped at its first OK
  // score; the served one above was the first.
  bool extra_clean = true;
  for (int i = 1; i < args.cold_starts; ++i) {
    Daemon again;
    int fd = -1;
    auto c = ColdStart(&again, daemon_argv,
                       args.daemon_log + ".cold" + std::to_string(i),
                       args.socket, universe, &fd);
    if (!c.ok()) return Fail(c.status());
    ::close(fd);
    cold_starts.push_back(c.ValueOrDie());
    extra_clean = again.Stop().ok() && extra_clean;
  }
  std::string cold_json = "[";
  for (size_t i = 0; i < cold_starts.size(); ++i) {
    if (i > 0) cold_json += ",";
    cold_json += JsonNumber(cold_starts[i]);
  }
  cold_json += "]";

  double ladder_lag = nominal.send_lag_p99_ms;
  std::string steps = "[";
  for (size_t i = 0; i < ladder.steps.size(); ++i) {
    const LadderStep& s = ladder.steps[i];
    ladder_lag = std::max(ladder_lag, s.summary.send_lag_p99_ms);
    if (i > 0) steps += ",";
    steps += SummaryJson(s.summary, s.rate).str();
  }
  steps += "]";

  JsonObject kmetrics;
  kmetrics.Obj("nominal", CounterDeltas(m0.ValueOrDie(), m1.ValueOrDie()))
      .Obj("overload", CounterDeltas(m1.ValueOrDie(), m2.ValueOrDie()))
      .Int("queue_depth_peak_after_nominal", QueueDepthPeak(m1.ValueOrDie()))
      .Bool("obs_histograms", !m2.ValueOrDie().histograms.empty());

  std::string argv_json = "[";
  for (size_t i = 1; i < daemon_argv.size(); ++i) {
    if (i > 1) argv_json += ",";
    argv_json += Quote(daemon_argv[i]);
  }
  argv_json += "]";

  JsonObject out;
  out.Str("workload", args.workload_name)
      .Int("seed", static_cast<int64_t>(seed))
      .Int("num_tweets", static_cast<int64_t>(universe.num_tweets))
      .Int("num_users", static_cast<int64_t>(universe.num_users))
      .Raw("daemon_args", argv_json)
      .Raw("cold_starts_s", cold_json)
      .Num("serve_rss_mb", static_cast<double>(rss_kb) / 1024.0)
      .Bool("daemon_clean_exit", stopped.ok() && extra_clean)
      .Obj("warmup", JsonObject()
                         .Int("requests", static_cast<int64_t>(warm.size()))
                         .Int("misses", static_cast<int64_t>(warm_misses)))
      .Obj("nominal", SummaryJson(nominal, args.nominal_qps))
      .Obj("ladder", JsonObject()
                         .Num("slo_qps", ladder.slo_qps)
                         .Bool("capped", ladder.capped)
                         .Raw("steps", steps))
      .Obj("overload", SummaryJson(overload, args.overload_qps))
      .Num("send_lag_p99_ms", ladder_lag)
      .Obj("kmetrics", kmetrics)
      .Obj("check",
           JsonObject()
               .Int("responses", static_cast<int64_t>(checks.responses))
               .Int("scores", static_cast<int64_t>(checks.scores))
               .Int("mismatched_responses",
                    static_cast<int64_t>(checks.mismatched))
               .Int("connection_errors",
                    static_cast<int64_t>(checks.connection_errors)));
  st = WriteTextFile(args.out, out.str() + "\n");
  if (!st.ok()) return Fail(st);
  return 0;
}

}  // namespace perfbench
