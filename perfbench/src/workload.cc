#include "workload.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <numeric>

namespace perfbench {

using retina::Result;
using retina::Status;

bool ParseWorkload(const std::string& name, Workload* out) {
  if (name == "hot_cascade") {
    *out = Workload::kHotCascade;
    return true;
  }
  if (name == "long_tail") {
    *out = Workload::kLongTail;
    return true;
  }
  return false;
}

void Universe::Index() {
  hot_row_.clear();
  check_row_.clear();
  for (size_t i = 0; i < hot_tweets.size(); ++i) hot_row_[hot_tweets[i]] = i;
  for (size_t i = 0; i < check_tweets.size(); ++i) {
    check_row_[check_tweets[i]] = i;
  }
  working_col_.assign(num_users, -1);
  for (size_t j = 0; j < hot_users.size(); ++j) {
    working_col_[hot_users[j]] = static_cast<int32_t>(j);
  }
  for (size_t j = 0; j < warm_users.size(); ++j) {
    working_col_[warm_users[j]] = static_cast<int32_t>(hot_users.size() + j);
  }
}

bool Universe::Lookup(uint32_t tweet, uint32_t user, uint64_t* bits) const {
  if (user >= num_users) return false;
  const size_t working = hot_users.size() + warm_users.size();
  if (auto it = hot_row_.find(tweet); it != hot_row_.end()) {
    const int32_t col = working_col_[user];
    if (col >= 0) {
      *bits = hot_scores[it->second * working + static_cast<size_t>(col)];
      return true;
    }
  }
  if (auto it = check_row_.find(tweet); it != check_row_.end()) {
    *bits = check_scores[it->second * num_users + user];
    return true;
  }
  return false;
}

bool Universe::Checkable(uint32_t tweet,
                         const std::vector<uint32_t>& users) const {
  uint64_t unused = 0;
  for (uint32_t u : users) {
    if (!Lookup(tweet, u, &unused)) return false;
  }
  return true;
}

namespace {

struct FileCloser {
  void operator()(std::FILE* f) const { std::fclose(f); }
};
using File = std::unique_ptr<std::FILE, FileCloser>;

template <typename T>
bool WriteVec(std::FILE* f, const std::vector<T>& v) {
  const uint64_t n = v.size();
  return std::fwrite(&n, sizeof(n), 1, f) == 1 &&
         (n == 0 || std::fwrite(v.data(), sizeof(T), n, f) == n);
}

template <typename T>
bool ReadVec(std::FILE* f, std::vector<T>* v, uint64_t max_n) {
  uint64_t n = 0;
  if (std::fread(&n, sizeof(n), 1, f) != 1 || n > max_n) return false;
  v->resize(n);
  return n == 0 || std::fread(v->data(), sizeof(T), n, f) == n;
}

constexpr uint64_t kUniverseMagic = 0x31564e5542524550ull;  // "PERBUNV1"

}  // namespace

Status Universe::Save(const std::string& path) const {
  const std::string tmp = path + ".tmp";
  {
    File f(std::fopen(tmp.c_str(), "wb"));
    if (!f) return Status::IOError("cannot write " + tmp);
    const uint64_t head[3] = {kUniverseMagic, num_tweets, num_users};
    if (std::fwrite(head, sizeof(head), 1, f.get()) != 1 ||
        !WriteVec(f.get(), hot_tweets) || !WriteVec(f.get(), hot_users) ||
        !WriteVec(f.get(), warm_users) || !WriteVec(f.get(), check_tweets) ||
        !WriteVec(f.get(), hot_scores) || !WriteVec(f.get(), check_scores)) {
      return Status::IOError("short write to " + tmp);
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    return Status::IOError("cannot rename " + tmp);
  }
  return Status::OK();
}

Result<Universe> Universe::Load(const std::string& path) {
  File f(std::fopen(path.c_str(), "rb"));
  if (!f) return Status::IOError("cannot read " + path);
  Universe u;
  uint64_t head[3] = {0, 0, 0};
  constexpr uint64_t kMax = 1ull << 28;
  if (std::fread(head, sizeof(head), 1, f.get()) != 1 ||
      head[0] != kUniverseMagic || head[1] > kMax || head[2] > kMax) {
    return Status::InvalidArgument("bad universe header in " + path);
  }
  u.num_tweets = head[1];
  u.num_users = head[2];
  if (!ReadVec(f.get(), &u.hot_tweets, kMax) ||
      !ReadVec(f.get(), &u.hot_users, kMax) ||
      !ReadVec(f.get(), &u.warm_users, kMax) ||
      !ReadVec(f.get(), &u.check_tweets, kMax) ||
      !ReadVec(f.get(), &u.hot_scores, kMax) ||
      !ReadVec(f.get(), &u.check_scores, kMax)) {
    return Status::InvalidArgument("truncated universe " + path);
  }
  const size_t working = u.hot_users.size() + u.warm_users.size();
  auto in_range = [](const std::vector<uint32_t>& ids, uint64_t n) {
    return std::all_of(ids.begin(), ids.end(),
                       [n](uint32_t id) { return id < n; });
  };
  if (u.hot_scores.size() != u.hot_tweets.size() * working ||
      u.check_scores.size() != u.check_tweets.size() * u.num_users ||
      !in_range(u.hot_tweets, u.num_tweets) ||
      !in_range(u.check_tweets, u.num_tweets) ||
      !in_range(u.hot_users, u.num_users) ||
      !in_range(u.warm_users, u.num_users) || u.hot_tweets.empty() ||
      u.hot_users.empty() || u.warm_users.empty()) {
    return Status::InvalidArgument("inconsistent universe " + path);
  }
  u.Index();
  return u;
}

uint64_t MixSeed(uint64_t seed, uint64_t tag) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ull * (tag + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

RequestGen::RequestGen(Workload workload, const Universe& universe,
                       uint64_t seed)
    : workload_(workload), universe_(universe), rng_(seed) {
  double total = 0.0;
  for (size_t k = 1; k <= universe.hot_tweets.size(); ++k) {
    total += 1.0 / std::pow(static_cast<double>(k), kHotZipfExponent);
    zipf_cdf_.push_back(total);
  }
  for (double& c : zipf_cdf_) c /= total;
}

double RequestGen::Uniform() {
  return static_cast<double>(rng_() >> 11) * 0x1.0p-53;
}

uint64_t RequestGen::Below(uint64_t n) { return rng_() % n; }

int64_t RequestGen::NextGapNs(double rate) {
  return static_cast<int64_t>(-std::log1p(-Uniform()) / rate * 1e9);
}

Request RequestGen::Next() {
  Request r;
  size_t want = 0;
  if (workload_ == Workload::kHotCascade) {
    const double u = Uniform();
    const size_t rank =
        std::lower_bound(zipf_cdf_.begin(), zipf_cdf_.end(), u) -
        zipf_cdf_.begin();
    r.tweet = universe_.hot_tweets[std::min(rank, zipf_cdf_.size() - 1)];
    want = kHotCandidates;
  } else {
    r.tweet = static_cast<uint32_t>(Below(universe_.num_tweets));
    want = kLongTailCandidates;
  }
  while (r.users.size() < want) {
    uint32_t user = 0;
    if (workload_ == Workload::kHotCascade) {
      const auto& pool = Uniform() < kHotUserShare ? universe_.hot_users
                                                    : universe_.warm_users;
      user = pool[Below(pool.size())];
    } else {
      user = static_cast<uint32_t>(Below(universe_.num_users));
    }
    if (std::find(r.users.begin(), r.users.end(), user) == r.users.end()) {
      r.users.push_back(user);
    }
  }
  return r;
}

std::vector<Request> OpenLoopPhase(Workload workload, const Universe& universe,
                                   uint64_t seed, double rate,
                                   double duration_s) {
  RequestGen gen(workload, universe, seed);
  std::vector<Request> out;
  const int64_t end_ns = static_cast<int64_t>(duration_s * 1e9);
  for (int64_t t = gen.NextGapNs(rate); t < end_ns; t += gen.NextGapNs(rate)) {
    Request r = gen.Next();
    r.due_ns = t;
    out.push_back(std::move(r));
  }
  return out;
}

std::vector<Request> WarmupRequests(Workload workload,
                                    const Universe& universe, uint64_t seed) {
  std::vector<Request> out;
  if (workload == Workload::kLongTail) {
    RequestGen gen(workload, universe, seed);
    for (int i = 0; i < 1500; ++i) out.push_back(gen.Next());
    return out;
  }
  std::vector<uint32_t> working = universe.hot_users;
  working.insert(working.end(), universe.warm_users.begin(),
                 universe.warm_users.end());
  std::mt19937_64 rng(seed);
  size_t request_no = 0;
  for (int pass = 0; pass < 20; ++pass) {
    for (size_t i = working.size(); i > 1; --i) {
      std::swap(working[i - 1], working[rng() % i]);
    }
    for (size_t begin = 0; begin < working.size();
         begin += kLongTailCandidates) {
      Request r;
      r.tweet = universe.hot_tweets[request_no++ % universe.hot_tweets.size()];
      const size_t end = std::min(working.size(), begin + kLongTailCandidates);
      r.users.assign(working.begin() + begin, working.begin() + end);
      out.push_back(std::move(r));
    }
  }
  return out;
}

}  // namespace perfbench
