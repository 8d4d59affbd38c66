// `perfbench_client trace`: the traced run. Replays, in-process, the same
// seeded inputs as the serving run and wraps benchmark-owned spans around
// calls into each module's public functions, so every layer is timed from
// outside. Three parts:
//
//   1. the train pipeline as `retina train-retweet --save-model` runs it at
//      its defaults (generate+export, import, features, task, fit, eval,
//      bundle save);
//   2. the daemon's load path by pieces (checkpoint read, model load,
//      extractor restore);
//   3. the serving replay: the workload's warm-up, settle and the first
//      nominal requests, through RequestHandler (handle) and ScoringEngine
//      (score), then once more through the tweet-context, user-block,
//      assembly and forward functions the engine calls, on the same inputs.
//
// The replay also measures its own overhead: the same requests through
// fresh handlers in lockstep, one bare and one with a span around each call.

#include <cstring>
#include <limits>
#include <unordered_map>

#include "commands.h"
#include "common/arena.h"
#include "common/lru_cache.h"
#include "common/sparse_vec.h"
#include "core/model_store.h"
#include "core/retina.h"
#include "core/retweet_task.h"
#include "core/scoring_engine.h"
#include "datagen/serialize.h"
#include "datagen/world.h"
#include "io/checkpoint.h"
#include "serve/handler.h"
#include "serve/protocol.h"
#include "stats.h"
#include "util.h"

namespace perfbench {

using retina::Status;
namespace core = retina::core;
namespace datagen = retina::datagen;
namespace serve = retina::serve;

namespace {

/// Cap on replayed nominal requests: enough for stable medians, small
/// enough that the slowest workload replays in seconds.
constexpr size_t kReplayNominal = 1500;
/// Nominal requests scored on a fresh engine when none missed a cache.
constexpr size_t kColdReplay = 200;

/// p50 of a sample, or NaN (written as null) when it is empty.
double P50(std::vector<double> v) {
  if (v.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(v.begin(), v.end());
  return ExactQuantile(v, 0.5);
}

JsonObject Dist(const std::vector<double>& v) {
  JsonObject o;
  o.Num("p50", P50(v)).Int("n", static_cast<int64_t>(v.size()));
  return o;
}

/// Tweet-side inputs the engine builds for a request, rebuilt outside it.
struct TweetParts {
  core::TweetContext ctx;
  std::vector<int> dist;
  retina::Vec trending;
};

}  // namespace

int RunTrace(const TraceArgs& args) {
  auto universe_result = Universe::Load(args.universe);
  if (!universe_result.ok()) return Fail(universe_result.status());
  const Universe universe = std::move(universe_result).ValueOrDie();
  SpanRecorder rec;
  JsonObject out;

  // ---- 1. train pipeline ------------------------------------------------
  const std::string world_dir = args.workdir + "/world";
  const std::string bundle_dir = args.workdir + "/bundle";
  double traced_macro_f1 = 0.0;
  {
    SpanRecorder::Scope train(&rec, "train");
    {
      SpanRecorder::Scope s(&rec, "datagen.generate");
      datagen::WorldConfig config;
      config.scale = kWorldScale;
      config.num_users = kWorldUsers;
      const auto generated = datagen::SyntheticWorld::Generate(config, kCliSeed);
      const Status st = datagen::ExportWorldCsv(generated, world_dir);
      if (!st.ok()) return Fail(st);
    }
    auto imported = InSpan(&rec, "datagen.import",
                           [&] { return datagen::ImportWorldCsv(world_dir); });
    if (!imported.ok()) return Fail(imported.status());
    const datagen::SyntheticWorld& world = imported.ValueOrDie();

    core::FeatureConfig fc;
    fc.history_tfidf_dim = 200;
    fc.news_tfidf_dim = 200;
    fc.tweet_tfidf_dim = 200;
    fc.news_window = 60;
    fc.seed = kCliSeed;
    auto fx = InSpan(&rec, "core.features_build",
                     [&] { return core::FeatureExtractor::Build(world, fc); });
    if (!fx.ok()) return Fail(fx.status());
    core::RetweetTaskOptions opts;
    opts.seed = kCliSeed;
    auto task_result = InSpan(&rec, "core.task_build", [&] {
      return core::BuildRetweetTask(fx.ValueOrDie(), opts);
    });
    if (!task_result.ok()) return Fail(task_result.status());
    const core::RetweetTask& task = task_result.ValueOrDie();
    core::RetinaOptions ropts;
    ropts.epochs = 4;
    ropts.seed = kCliSeed;
    core::Retina model(task.user_dim, task.content_dim, task.embed_dim,
                       task.NumIntervals(), ropts);
    {
      SpanRecorder::Scope s(&rec, "core.fit");
      const Status st = model.Train(task);
      if (!st.ok()) return Fail(st);
    }
    {
      SpanRecorder::Scope s(&rec, "core.eval");
      core::ScoringEngine engine(&model, &fx.ValueOrDie());
      const retina::Vec scores = engine.ScoreCandidates(task, task.test);
      traced_macro_f1 = core::EvaluateBinary(task.test, scores).macro_f1;
    }
    {
      SpanRecorder::Scope s(&rec, "io.bundle_save");
      core::ScoringBundleMeta meta;
      meta.task_seed = kCliSeed;
      const Status st =
          core::SaveScoringBundle(bundle_dir, model, fx.ValueOrDie(), meta);
      if (!st.ok()) return Fail(st);
    }
  }

  // ---- 2. load path ---------------------------------------------------
  auto world_result = InSpan(&rec, "load.import",
                             [&] { return datagen::ImportWorldCsv(world_dir); });
  if (!world_result.ok()) return Fail(world_result.status());
  const datagen::SyntheticWorld& world = world_result.ValueOrDie();
  if (world.tweets().size() != universe.num_tweets ||
      world.NumUsers() != universe.num_users) {
    return Fail(Status::InvalidArgument("universe does not match the world"));
  }
  auto ckpt = InSpan(&rec, "io.ckpt_read", [&] {
    return retina::io::Checkpoint::ReadFile(args.bundle + "/" +
                                            core::kModelCheckpointFile);
  });
  if (!ckpt.ok()) return Fail(ckpt.status());
  auto model_result = InSpan(&rec, "core.model_load", [&] {
    return core::Retina::Load(ckpt.ValueOrDie(), "retina/");
  });
  if (!model_result.ok()) return Fail(model_result.status());
  auto fx_result = InSpan(&rec, "core.restore", [&] {
    return core::FeatureExtractor::Restore(world, ckpt.ValueOrDie(),
                                           "features/");
  });
  if (!fx_result.ok()) return Fail(fx_result.status());
  const core::Retina& model = *model_result.ValueOrDie();
  const core::FeatureExtractor& fx = fx_result.ValueOrDie();

  // ---- 3. serving replay ------------------------------------------------
  std::vector<Request> reqs =
      WarmupRequests(args.workload, universe, MixSeed(args.seed, 1));
  for (Request& r : OpenLoopPhase(args.workload, universe,
                                  MixSeed(args.seed, 2), args.nominal_qps,
                                  0.5)) {
    reqs.push_back(std::move(r));
  }
  const size_t nominal_begin = reqs.size();
  {
    auto nominal = OpenLoopPhase(
        args.workload, universe, MixSeed(args.seed, 3), args.nominal_qps,
        NominalSeconds(args.seconds, args.nominal_qps));
    if (nominal.size() > kReplayNominal) nominal.resize(kReplayNominal);
    for (Request& r : nominal) reqs.push_back(std::move(r));
  }
  std::vector<serve::ScoreRequest> wire(reqs.size());
  for (size_t i = 0; i < reqs.size(); ++i) {
    wire[i].request_id = i;
    wire[i].tweet_id = reqs[i].tweet;
    wire[i].users = reqs[i].users;
  }

  // Lockstep pass: each request goes, in rotating order, through a bare
  // handler, a handler inside a span, and a bare ScoringEngine, all fresh
  // and single-worker. The three see the same host conditions and cache
  // history, so the spanned/bare ratio is the tracing overhead and the
  // handler/engine difference is the handler's own cost.
  std::vector<retina::Vec> bare_scores(reqs.size());
  bool replay_consistent = true;
  std::vector<double> handle_us, score_nominal_us;
  double bare_s = 0.0, spanned_s = 0.0;
  {
    serve::RequestHandlerOptions hopts;
    hopts.num_workers = 1;
    auto bare = serve::RequestHandler::Borrow(&model, &fx, hopts);
    auto spanned = serve::RequestHandler::Borrow(&model, &fx, hopts);
    core::ScoringEngine engine(&model, &fx);
    std::vector<serve::ScoreResponse> resps;
    std::vector<const serve::ScoreRequest*> batch(1);
    std::vector<retina::datagen::NodeId> users;
    retina::Vec spanned_scores, engine_scores;
    bool spanned_ok = false;
    for (size_t i = 0; i < reqs.size(); ++i) {
      const bool nominal = i >= nominal_begin;
      batch[0] = &wire[i];
      auto run_bare = [&] {
        const int64_t t0 = NowNs();
        bare->HandleScoreBatch(0, batch, &resps);
        bare_s += static_cast<double>(NowNs() - t0) / 1e9;
        bare_scores[i] = std::move(resps[0].scores);
      };
      auto run_spanned = [&] {
        const int64_t t0 = NowNs();
        {
          SpanRecorder::Scope s(&rec, "serve.handle", i + 1);
          spanned->HandleScoreBatch(0, batch, &resps);
          if (nominal) {
            handle_us.push_back(static_cast<double>(s.ElapsedNs()) / 1e3);
          }
        }
        spanned_s += static_cast<double>(NowNs() - t0) / 1e9;
        spanned_ok = resps[0].code == serve::ResponseCode::kOk;
        spanned_scores = std::move(resps[0].scores);
      };
      auto run_engine = [&] {
        users.assign(reqs[i].users.begin(), reqs[i].users.end());
        const int64_t t0 = NowNs();
        engine.ScoreTweetInto(world.tweets()[reqs[i].tweet], users,
                              &engine_scores);
        if (nominal) {
          score_nominal_us.push_back(static_cast<double>(NowNs() - t0) / 1e3);
        }
      };
      switch (i % 3) {
        case 0: run_bare(); run_spanned(); run_engine(); break;
        case 1: run_spanned(); run_engine(); run_bare(); break;
        default: run_engine(); run_bare(); run_spanned(); break;
      }
      if (!spanned_ok || spanned_scores != bare_scores[i] ||
          engine_scores != bare_scores[i]) {
        replay_consistent = false;
      }
    }
  }

  // Layers: the engine's own call, then its component calls from outside.
  core::ScoringEngine engine(&model, &fx);
  const core::ScoringEngineOptions& eopts = engine.options();
  retina::LruCache<size_t, char> shadow_tweets(eopts.tweet_cache_capacity);
  retina::LruCache<uint32_t, char> shadow_users(eopts.user_cache_capacity);
  std::unordered_map<size_t, TweetParts> parts_cache;
  std::unordered_map<uint32_t, retina::SparseVec> block_cache;
  retina::ScratchArena arena(1 << 20);
  const size_t user_dim = fx.RetweetUserDim();
  std::vector<double> rows;
  std::vector<const double*> row_ptrs;
  std::vector<retina::datagen::NodeId> users;
  retina::Vec scores, rescored, forward_out;
  uint64_t rescore_tweet_hits = 0, rescore_user_hits = 0;

  std::vector<double> codec_us, score_warm_us, score_cold_us, tfidf_us,
      doc2vec_us, news_us, bfs_us, bfs_reached, trending_us, block_us,
      assemble_us, forward_per_row_us, engine_self_us;
  bool shadow_consistent = true;
  core::ScoringEngineStats nominal_start{};

  auto timed = [&](const char* name, uint64_t id, auto&& fn) {
    SpanRecorder::Scope s(&rec, name, id);
    fn();
    return static_cast<double>(s.ElapsedNs()) / 1e3;
  };
  // The tweet-side calls the engine makes on a tweet miss, timed one by
  // one from outside; records each when `record`. Returns their sum.
  auto tweet_components = [&](uint64_t id, const datagen::Tweet& tweet,
                              TweetParts* parts, bool record) {
    parts->ctx.tweet_id = tweet.id;
    parts->ctx.hateful = tweet.is_hateful;
    const double tf = timed("text.tfidf", id, [&] {
      parts->ctx.content = fx.TweetContentFeatures(tweet);
    });
    const double d2v = timed("text.doc2vec", id, [&] {
      parts->ctx.embedding = fx.TweetEmbedding(tweet);
    });
    const double news = timed("core.news_window", id, [&] {
      parts->ctx.news_window = fx.NewsEmbeddingWindow(tweet.time);
    });
    const double bfs = timed("graph.bfs", id, [&] {
      parts->dist =
          world.network().BfsDistances(tweet.author, core::kPeerPathCutoff);
    });
    const double trend = timed("datagen.trending", id, [&] {
      parts->trending =
          world.TrendingIndicator(tweet.time, fx.config().trending_dim);
    });
    if (record) {
      tfidf_us.push_back(tf);
      doc2vec_us.push_back(d2v);
      news_us.push_back(news);
      bfs_us.push_back(bfs);
      trending_us.push_back(trend);
      size_t reached = 0;
      for (int d : parts->dist) reached += d != retina::graph::kUnreachable;
      bfs_reached.push_back(static_cast<double>(reached));
    }
    return tf + d2v + news + bfs + trend;
  };
  auto user_block = [&](uint64_t id, uint32_t u, bool record) {
    const double us = timed("core.user_block", id, [&] {
      block_cache[u] = retina::SparseVec::FromDense(fx.ComputeHistoryBlock(u));
    });
    if (record) block_us.push_back(us);
    return us;
  };
  // assemble + forward of each nominal request, for the cold pass below.
  std::unordered_map<size_t, double> tail_us;

  for (size_t i = 0; i < reqs.size(); ++i) {
    const uint64_t id = i + 1;
    const bool nominal = i >= nominal_begin;
    if (i == nominal_begin) nominal_start = engine.stats();
    const datagen::Tweet& tweet = world.tweets()[reqs[i].tweet];
    users.assign(reqs[i].users.begin(), reqs[i].users.end());

    double codec = timed("serve.codec", id, [&] {
      serve::ScoreRequest decoded;
      const Status st =
          serve::DecodeScoreRequest(serve::EncodeScoreRequest(wire[i]), &decoded);
      if (!st.ok()) replay_consistent = false;
    });

    const core::ScoringEngineStats before = engine.stats();
    const double score = timed("core.score", id, [&] {
      engine.ScoreTweetInto(tweet, users, &scores);
    });
    const core::ScoringEngineStats after = engine.stats();
    const bool tweet_miss = after.tweet_misses > before.tweet_misses;
    const bool warm = after.tweet_misses == before.tweet_misses &&
                      after.user_misses == before.user_misses;
    if (!warm && nominal) score_cold_us.push_back(score);
    if (nominal) {
      // The warm path on the same inputs: an immediate re-score finds the
      // tweet and every candidate cached, and leaves the LRU order as the
      // first call left it.
      const double rescore = timed("core.score_warm", id, [&] {
        engine.ScoreTweetInto(tweet, users, &rescored);
      });
      const core::ScoringEngineStats again = engine.stats();
      if (again.tweet_misses != after.tweet_misses ||
          again.user_misses != after.user_misses || rescored != scores) {
        replay_consistent = false;
      }
      rescore_tweet_hits += again.tweet_hits - after.tweet_hits;
      rescore_user_hits += again.user_hits - after.user_hits;
      score_warm_us.push_back(rescore);
    }

    codec += timed("serve.codec", id, [&] {
      serve::ScoreResponse resp, decoded;
      resp.request_id = i;
      resp.scores = scores;
      const Status st = serve::DecodeScoreResponse(
          serve::EncodeScoreResponse(resp), &decoded);
      if (!st.ok()) replay_consistent = false;
    });
    if (nominal) codec_us.push_back(codec);

    // Mirror the engine's LRUs to learn which inputs it had to compute.
    const bool shadow_tweet_miss = shadow_tweets.Get(tweet.id) == nullptr;
    if (shadow_tweet_miss) shadow_tweets.Put(tweet.id, 1);
    std::vector<uint32_t> missed_users;
    for (uint32_t u : reqs[i].users) {
      if (shadow_users.Get(u) == nullptr) {
        shadow_users.Put(u, 1);
        missed_users.push_back(u);
      }
    }
    if (shadow_tweet_miss != tweet_miss ||
        missed_users.size() != after.user_misses - before.user_misses) {
      shadow_consistent = false;
    }

    double components = 0.0;
    auto parts_it = parts_cache.find(tweet.id);
    if (tweet_miss || parts_it == parts_cache.end()) {
      TweetParts parts;
      const double us =
          tweet_components(id, tweet, &parts, tweet_miss && nominal);
      if (tweet_miss) components += us;
      parts_it = parts_cache.insert_or_assign(tweet.id, std::move(parts)).first;
    }
    const TweetParts& parts = parts_it->second;

    for (uint32_t u : missed_users) components += user_block(id, u, nominal);
    for (uint32_t u : reqs[i].users) {
      if (block_cache.count(u) == 0) {
        block_cache[u] = retina::SparseVec::FromDense(fx.ComputeHistoryBlock(u));
      }
    }

    const size_t n = users.size();
    rows.resize(n * user_dim);
    row_ptrs.resize(n);
    const double assemble = timed("core.assemble", id, [&] {
      for (size_t j = 0; j < n; ++j) {
        double* row = rows.data() + j * user_dim;
        fx.AssembleRetweetUserFeaturesInto(tweet, users[j],
                                           block_cache.at(users[j]),
                                           parts.trending,
                                           parts.dist[users[j]], row);
        row_ptrs[j] = row;
      }
    });
    forward_out.assign(n, 0.0);
    arena.Reset();
    const double forward = timed("nn.forward", id, [&] {
      model.ScoreBatchRows(parts.ctx, row_ptrs.data(), n, forward_out.data(),
                           &arena);
    });
    if (std::memcmp(forward_out.data(), scores.data(), n * sizeof(double)) !=
            0 ||
        scores != bare_scores[i]) {
      replay_consistent = false;
    }
    components += assemble + forward;
    if (nominal) {
      assemble_us.push_back(assemble);
      forward_per_row_us.push_back(forward / static_cast<double>(n));
      tail_us[i] = assemble + forward;
      if (!warm) engine_self_us.push_back(score - components);
    }
  }
  // When no nominal request missed a cache (hot_cascade after its
  // warm-up), the cold-path layers are timed on the nominal requests
  // themselves, each scored by a fresh engine with empty caches, so they
  // still describe this workload's requests.
  const bool cold_from_nominal = !score_cold_us.empty();
  if (!cold_from_nominal) {
    const size_t end = std::min(reqs.size(), nominal_begin + kColdReplay);
    for (size_t i = nominal_begin; i < end; ++i) {
      const uint64_t id = i + 1;
      const datagen::Tweet& tweet = world.tweets()[reqs[i].tweet];
      users.assign(reqs[i].users.begin(), reqs[i].users.end());
      core::ScoringEngine cold(&model, &fx);
      const double score = timed("core.score", id, [&] {
        cold.ScoreTweetInto(tweet, users, &scores);
      });
      if (cold.stats().tweet_misses != 1 || scores != bare_scores[i]) {
        replay_consistent = false;
      }
      score_cold_us.push_back(score);
      TweetParts parts;
      double components = tweet_components(id, tweet, &parts, true);
      for (uint32_t u : reqs[i].users) components += user_block(id, u, true);
      engine_self_us.push_back(score - components - tail_us.at(i));
    }
  }
  const core::ScoringEngineStats& end = engine.stats();
  auto frac = [](uint64_t hits, uint64_t misses) {
    return hits + misses == 0 ? std::numeric_limits<double>::quiet_NaN()
                              : static_cast<double>(hits) / (hits + misses);
  };

  JsonObject pipeline;
  for (const char* name :
       {"train", "datagen.generate", "datagen.import", "core.features_build",
        "core.task_build", "core.fit", "core.eval", "io.bundle_save",
        "load.import", "io.ckpt_read", "core.model_load", "core.restore"}) {
    pipeline.Num(name, rec.TotalSeconds(name));
  }
  JsonObject layers;
  layers.Obj("serve.codec_us", Dist(codec_us))
      .Obj("serve.handle_us", Dist(handle_us))
      .Obj("score_nominal_us", Dist(score_nominal_us))
      .Obj("core.score_warm_us", Dist(score_warm_us))
      .Obj("core.score_cold_us", Dist(score_cold_us))
      .Obj("core.user_block_us", Dist(block_us))
      .Obj("core.news_window_us", Dist(news_us))
      .Obj("core.engine_self_us", Dist(engine_self_us))
      .Obj("core.assemble_us", Dist(assemble_us))
      .Obj("text.tfidf_us", Dist(tfidf_us))
      .Obj("text.doc2vec_us", Dist(doc2vec_us))
      .Obj("graph.bfs_us", Dist(bfs_us))
      .Obj("graph.bfs_reached", Dist(bfs_reached))
      .Obj("datagen.trending_us", Dist(trending_us))
      .Obj("nn.forward_us_per_row", Dist(forward_per_row_us));
  out.Str("workload", args.workload_name)
      .Int("seed", static_cast<int64_t>(args.seed))
      .Num("traced_macro_f1", traced_macro_f1)
      .Obj("pipeline_s", pipeline)
      .Obj("layers", layers)
      .Num("core.tweet_cache_hit_frac",
           frac(end.tweet_hits - nominal_start.tweet_hits - rescore_tweet_hits,
                end.tweet_misses - nominal_start.tweet_misses))
      .Num("core.user_cache_hit_frac",
           frac(end.user_hits - nominal_start.user_hits - rescore_user_hits,
                end.user_misses - nominal_start.user_misses))
      .Int("replayed_requests", static_cast<int64_t>(reqs.size()))
      .Int("replayed_nominal", static_cast<int64_t>(reqs.size() - nominal_begin))
      .Num("replay_bare_s", bare_s)
      .Num("replay_spanned_s", spanned_s)
      .Num("harness.trace_overhead_frac", spanned_s / bare_s - 1.0)
      .Bool("cold_from_nominal", cold_from_nominal)
      .Bool("replay_consistent", replay_consistent)
      .Bool("shadow_cache_consistent", shadow_consistent);
  Status st = rec.WriteChromeTrace(args.spans_out);
  if (st.ok()) st = WriteTextFile(args.out, out.str() + "\n");
  if (!st.ok()) return Fail(st);
  return 0;
}

}  // namespace perfbench
