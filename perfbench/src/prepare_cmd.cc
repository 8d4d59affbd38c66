// `perfbench_client prepare`: picks the world's universe (hot tweets, hot
// and warm user quarters, check tweets) and fills its reference tables
// through in-process serve::RequestHandler::HandleScore on the bundle.

#include <algorithm>
#include <cstring>
#include <numeric>

#include "commands.h"
#include "serve/handler.h"

namespace perfbench {

namespace serve = retina::serve;

namespace {

/// Scores tweets x users through HandleScore into `table` (row-major,
/// bit patterns). Users go in 32-candidate chunks, and each chunk is
/// scored against every tweet before the next, so the engine's user LRU
/// holds the chunk and its tweet LRU holds every tweet.
retina::Status FillTable(serve::RequestHandler* handler,
                         const std::vector<uint32_t>& tweets,
                         const std::vector<uint32_t>& users,
                         std::vector<uint64_t>* table) {
  table->assign(tweets.size() * users.size(), 0);
  serve::ScoreRequest req;
  serve::ScoreResponse resp;
  for (size_t begin = 0; begin < users.size(); begin += kLongTailCandidates) {
    const size_t end = std::min(users.size(), begin + kLongTailCandidates);
    req.users.assign(users.begin() + begin, users.begin() + end);
    for (size_t t = 0; t < tweets.size(); ++t) {
      req.tweet_id = tweets[t];
      handler->HandleScore(0, req, &resp);
      if (resp.code != serve::ResponseCode::kOk ||
          resp.scores.size() != req.users.size()) {
        return retina::Status::Internal("reference scoring failed: " +
                                        resp.message);
      }
      for (size_t j = 0; j < req.users.size(); ++j) {
        std::memcpy(&(*table)[t * users.size() + begin + j], &resp.scores[j],
                    sizeof(uint64_t));
      }
    }
  }
  return retina::Status::OK();
}

}  // namespace

int RunPrepare(const PrepareArgs& args) {
  serve::RequestHandlerOptions options;
  options.num_workers = 1;
  auto opened = serve::RequestHandler::Open(args.world, args.bundle, options);
  if (!opened.ok()) return Fail(opened.status());
  auto handler = std::move(opened).ValueOrDie();
  const auto& world = handler->world();

  Universe u;
  u.num_tweets = world.tweets().size();
  u.num_users = world.NumUsers();
  if (u.num_tweets < kCheckTweets || u.num_users < 4 * kLongTailCandidates) {
    return Fail(retina::Status::InvalidArgument("world too small"));
  }

  std::vector<uint32_t> tweets(u.num_tweets);
  std::iota(tweets.begin(), tweets.end(), 0);
  std::stable_sort(tweets.begin(), tweets.end(), [&](uint32_t a, uint32_t b) {
    return world.cascades()[a].retweets.size() >
           world.cascades()[b].retweets.size();
  });
  u.hot_tweets.assign(tweets.begin(), tweets.begin() + kHotTweets);

  std::vector<uint32_t> users(u.num_users);
  std::iota(users.begin(), users.end(), 0);
  std::stable_sort(users.begin(), users.end(), [&](uint32_t a, uint32_t b) {
    return world.History(a).size() > world.History(b).size();
  });
  const size_t quarter = u.num_users / 4;
  u.hot_users.assign(users.begin(), users.begin() + quarter);
  u.warm_users.assign(users.begin() + quarter, users.begin() + 2 * quarter);

  for (size_t i = 0; i < kCheckTweets; ++i) {
    u.check_tweets.push_back(static_cast<uint32_t>(i * u.num_tweets /
                                                   kCheckTweets));
  }
  std::vector<uint32_t> working = u.hot_users;
  working.insert(working.end(), u.warm_users.begin(), u.warm_users.end());
  std::vector<uint32_t> all_users(u.num_users);
  std::iota(all_users.begin(), all_users.end(), 0);

  retina::Status st = FillTable(handler.get(), u.hot_tweets, working,
                                &u.hot_scores);
  if (st.ok()) {
    st = FillTable(handler.get(), u.check_tweets, all_users, &u.check_scores);
  }
  if (st.ok()) st = u.Save(args.out);
  if (!st.ok()) return Fail(st);
  std::printf("universe: %zu tweets, %zu users, %zu reference scores\n",
              static_cast<size_t>(u.num_tweets),
              static_cast<size_t>(u.num_users),
              u.hot_scores.size() + u.check_scores.size());
  return 0;
}

}  // namespace perfbench
