// Seeded request streams for the serving workloads, and the per-world
// "universe" they draw from.
//
// The universe is a property of the world alone (never of the run seed):
// the hot tweets are the 32 largest cascades, the hot and warm user
// quarters are the most active users, and the check tweets are evenly
// spaced over all tweets. It also carries reference scores computed
// in-process by serve::RequestHandler::HandleScore for every (tweet, user)
// pair a correctness check can meet: hot tweets x (hot + warm users), and
// check tweets x all users. A candidate's score does not depend on which
// other candidates share its request (the engine's batched-forward
// contract), so any daemon response drawn from those pairs can be
// byte-compared against the table.

#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <random>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"

namespace perfbench {

enum class Workload { kHotCascade, kLongTail };

/// Parses "hot_cascade" / "long_tail".
bool ParseWorkload(const std::string& name, Workload* out);

inline constexpr size_t kHotTweets = 32;
inline constexpr size_t kCheckTweets = 128;
inline constexpr size_t kHotCandidates = 8;
inline constexpr size_t kLongTailCandidates = 32;
inline constexpr double kHotZipfExponent = 1.1;
inline constexpr double kHotUserShare = 0.8;

struct Universe {
  uint64_t num_tweets = 0;
  uint64_t num_users = 0;
  std::vector<uint32_t> hot_tweets;    ///< largest cascades first
  std::vector<uint32_t> hot_users;     ///< most active quarter of users
  std::vector<uint32_t> warm_users;    ///< the next quarter
  std::vector<uint32_t> check_tweets;  ///< evenly spaced tweet ids
  /// Reference score bit patterns, row-major:
  /// hot_scores[t * (hot+warm) + j] for hot_tweets[t] and
  /// (hot_users ++ warm_users)[j]; check_scores[t * num_users + u].
  std::vector<uint64_t> hot_scores;
  std::vector<uint64_t> check_scores;

  /// Builds the lookup indices; call after filling or loading.
  void Index();

  /// Reference bit pattern of score(tweet, user), if the table has it.
  bool Lookup(uint32_t tweet, uint32_t user, uint64_t* bits) const;

  /// True when every candidate of a request on `tweet` can be checked
  /// (hot tweets need users from the hot/warm quarters).
  bool Checkable(uint32_t tweet, const std::vector<uint32_t>& users) const;

  retina::Status Save(const std::string& path) const;
  static retina::Result<Universe> Load(const std::string& path);

 private:
  std::unordered_map<uint32_t, uint32_t> hot_row_;
  std::unordered_map<uint32_t, uint32_t> check_row_;
  std::vector<int32_t> working_col_;  ///< user -> column in hot_scores
};

struct Request {
  int64_t due_ns = 0;  ///< offset from the phase start
  uint32_t tweet = 0;
  std::vector<uint32_t> users;
};

/// Deterministic 64-bit mix (SplitMix64) used to derive stream seeds.
uint64_t MixSeed(uint64_t seed, uint64_t tag);

/// Draws requests of one workload: hot_cascade picks a hot tweet by
/// Zipf(1.1) rank and 8 distinct candidates, each from the hot quarter
/// with probability 0.8 and otherwise from the warm quarter (so the
/// working set of 3000 users fits the engine's 4096-entry user LRU);
/// long_tail picks a tweet uniformly over all tweets and 32 distinct
/// candidates uniformly over all users.
class RequestGen {
 public:
  RequestGen(Workload workload, const Universe& universe, uint64_t seed);

  Request Next();

  /// Exponential inter-arrival gap at `rate` requests/s, in ns.
  int64_t NextGapNs(double rate);

 private:
  uint64_t Below(uint64_t n);
  double Uniform();

  Workload workload_;
  const Universe& universe_;
  std::mt19937_64 rng_;
  std::vector<double> zipf_cdf_;
};

/// An open-loop phase: Poisson arrivals at `rate` for `duration_s`.
std::vector<Request> OpenLoopPhase(Workload workload, const Universe& universe,
                                   uint64_t seed, double rate,
                                   double duration_s);

/// Untimed warm-up requests that bring every engine's caches to the
/// workload's steady state: for hot_cascade, 20 shuffled sweeps of the
/// hot and warm users in 32-candidate requests over the hot tweets; for
/// long_tail, 1500 requests of the workload itself.
std::vector<Request> WarmupRequests(Workload workload,
                                    const Universe& universe, uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
