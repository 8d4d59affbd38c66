// Feature engineering of Sections IV and V-A.
//
// One FeatureExtractor is built per world: it fits the tf-idf vectorizers
// (user-history, news, root-tweet) and trains the shared Doc2Vec embedding
// on tweets+headlines. Per-user state (history blocks, user embeddings) is
// derived on first read, so loading a serving bundle computes nothing per
// user. The extractor then serves:
//   - hate-generation feature vectors f_1(S_en, S_ex, H_it, T)  (Eq. 1)
//   - retweet-prediction user vectors including peer signals     (Eq. 2)
//   - attention inputs: tweet Doc2Vec query + news Doc2Vec windows.
//
// History labels seen by the features are the *machine-annotated* view
// (gold labels with a configurable flip noise), matching the paper's use of
// the fine-tuned detector to label activity histories.

#ifndef RETINA_CORE_FEATURE_EXTRACTOR_H_
#define RETINA_CORE_FEATURE_EXTRACTOR_H_

#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/sparse_vec.h"
#include "common/status.h"
#include "common/vec.h"
#include "datagen/world.h"
#include "io/checkpoint.h"
#include "text/doc2vec.h"
#include "text/tfidf.h"

namespace retina::core {

using datagen::NodeId;

/// BFS depth cutoff used for the peer shortest-path feature; distances
/// beyond it are encoded as kPeerPathCutoff + 1.
inline constexpr int kPeerPathCutoff = 4;

/// Feature-group mask for the Table V ablations.
struct FeatureMask {
  bool history = true;   ///< H_{i,t}: tf-idf, hate ratio, lexicon, RT ratios…
  bool topic = true;     ///< T: Doc2Vec hashtag relatedness
  bool endogenous = true;  ///< S_en: trending-hashtag indicator
  bool exogenous = true;   ///< S_ex: recent-news tf-idf average

  static FeatureMask All() { return {}; }
  static FeatureMask Without(const char* group);
};

struct FeatureConfig {
  /// Most recent history tweets considered (paper: 30; Figure 7 ablates).
  size_t history_size = 30;
  size_t history_tfidf_dim = 300;
  size_t news_tfidf_dim = 300;
  size_t tweet_tfidf_dim = 300;
  /// News headlines in the exogenous window (paper tunes to 60).
  size_t news_window = 60;
  size_t trending_dim = 50;
  size_t doc2vec_dim = 50;
  int doc2vec_epochs = 8;
  /// Machine-annotation flip noise applied to history labels.
  double history_label_noise = 0.12;
  uint64_t seed = 21;
};

/// \brief Fitted feature pipeline over one SyntheticWorld.
class FeatureExtractor {
 public:
  /// Fits vectorizers and Doc2Vec and draws the machine-label noise.
  static Result<FeatureExtractor> Build(const datagen::SyntheticWorld& world,
                                        const FeatureConfig& config);

  /// Writes the fitted state under `prefix`: config, the three tf-idf
  /// vectorizers, the Doc2Vec model, and the machine-annotated history
  /// labels. Per-user tables and news embeddings are NOT written — they
  /// are pure functions of this state plus the world, so a restored
  /// extractor derives them bit-identically to the one that was saved.
  void SaveTo(io::Checkpoint* ckpt, const std::string& prefix) const;

  /// Rebuilds an extractor over `world` from the state saved under
  /// `prefix`. Returns InvalidArgument when the checkpoint does not match
  /// the world (label table sizes, Doc2Vec corpus size).
  static Result<FeatureExtractor> Restore(const datagen::SyntheticWorld& world,
                                          const io::Checkpoint& ckpt,
                                          const std::string& prefix);

  // ---- Section IV: hate generation ------------------------------------

  /// Full feature vector for (user, hashtag, prediction time) with groups
  /// selected by `mask`. Layout: [history | topic | endogenous | exogenous]
  /// with masked groups omitted (not zeroed) as in the paper's ablation.
  Vec HateGenFeatures(NodeId user, size_t hashtag, double t0,
                      const FeatureMask& mask = {}) const;

  /// Dimensionality of HateGenFeatures under `mask`.
  size_t HateGenDim(const FeatureMask& mask = {}) const;

  // ---- Section V-A: retweet prediction ---------------------------------

  /// User-side feature vector X^{u_j} for candidate `user` on root tweet
  /// `tweet`: history block + endogenous + peer signals (shortest path
  /// from the root author, past retweets of the author by this user).
  /// `path_length` is the BFS distance author->user (graph::kUnreachable
  /// if none); the task builder computes one BFS per tweet and shares it
  /// across candidates.
  Vec RetweetUserFeatures(const datagen::Tweet& tweet, NodeId user,
                          int path_length) const;
  size_t RetweetUserDim() const;

  /// Assembles X^{u_j} from a caller-supplied (typically cache-served)
  /// history block plus a trending vector shared across the tweet's whole
  /// candidate list. Layout and values are identical to
  /// RetweetUserFeatures; only the redundant per-candidate recomputation
  /// of the invariants is skipped. `trending` must be
  /// TrendingIndicator(tweet.time, config.trending_dim).
  Vec AssembleRetweetUserFeatures(const datagen::Tweet& tweet, NodeId user,
                                  const SparseVec& history_block,
                                  const Vec& trending,
                                  int path_length) const;

  /// AssembleRetweetUserFeatures into a caller-owned row of
  /// RetweetUserDim() entries (need not be zeroed) — the serving engine
  /// assembles candidate rows directly into its scratch arena with this.
  void AssembleRetweetUserFeaturesInto(const datagen::Tweet& tweet,
                                       NodeId user,
                                       const SparseVec& history_block,
                                       const Vec& trending, int path_length,
                                       double* out) const;

  /// Recomputes user's history block from scratch — the uncached path
  /// behind ScoringEngine's per-user LRU (at serving scale the per-user
  /// invariants cannot all be precomputed). Equal to UserHistoryBlock for
  /// any user.
  Vec ComputeHistoryBlock(NodeId user) const;

  /// Root-tweet content features: tweet tf-idf + hate-lexicon vector.
  Vec TweetContentFeatures(const datagen::Tweet& tweet) const;

  /// Sparse view of TweetContentFeatures (tf-idf and lexicon blocks are
  /// both mostly zeros); ToDense() equals the dense call.
  SparseVec TweetContentFeaturesSparse(const datagen::Tweet& tweet) const;

  size_t TweetContentDim() const;

  /// Doc2Vec embedding of the root tweet (attention Query input X^T).
  Vec TweetEmbedding(const datagen::Tweet& tweet) const;

  /// Doc2Vec features of the `news_window` most recent headlines before
  /// t0, one row each, most recent first (attention Key/Value input X^N).
  Matrix NewsEmbeddingWindow(double t0, size_t window = 0) const;

  /// Average news tf-idf over the window (exogenous feature for the
  /// feature-engineered models; Section IV-D). `window`=0 uses config.
  Vec NewsTfIdfAverage(double t0, size_t window = 0) const;

  /// Scalar tweet-news interaction features for the feature-engineered
  /// models: [cosine(tweet tf-idf, news tf-idf average),
  /// cosine(tweet Doc2Vec, mean news Doc2Vec), 24h news volume relative to
  /// the horizon average]. RETINA forms the same interaction inside its
  /// attention block; linear baselines need it spelled out to consume the
  /// exogenous signal at all.
  Vec NewsAlignmentFeatures(const datagen::Tweet& tweet,
                            size_t window = 0) const;
  static constexpr size_t kNewsAlignmentDim = 3;

  /// Per-user history block, shared by both tasks. The first call from
  /// any thread fills the table for every user; later calls read it.
  const Vec& UserHistoryBlock(NodeId user) const;
  size_t HistoryBlockDim() const;

  /// Doc2Vec topical relatedness of user to hashtag (Section IV-B). The
  /// first call infers the Doc2Vec embedding of every user's recent
  /// history; only hate generation pays that cost.
  double TopicRelatedness(NodeId user, size_t hashtag) const;

  const FeatureConfig& config() const { return config_; }
  const datagen::SyntheticWorld& world() const { return *world_; }
  const text::Doc2Vec& doc2vec() const { return doc2vec_; }

  /// Switches to a different history size (Figure 7's history ablation):
  /// drops both per-user tables, which refill on their next read. Not
  /// safe to call while other threads read the extractor.
  void SetHistorySize(size_t history_size);

 private:
  FeatureExtractor() = default;

  /// One row per user, filled for every user by the first Get. Held by
  /// unique_ptr because std::once_flag cannot move and the extractor is
  /// moved through Result<FeatureExtractor>.
  struct LazyUserTable {
    std::once_flag once;
    std::vector<Vec> rows;

    template <typename RowFn>
    const std::vector<Vec>& Get(size_t num_users, RowFn row) {
      std::call_once(once, [&] {
        rows.reserve(num_users);
        for (NodeId u = 0; u < num_users; ++u) rows.push_back(row(u));
      });
      return rows;
    }
  };

  const std::vector<Vec>& HistoryBlocks() const;
  const std::vector<Vec>& UserEmbeddings() const;

  FeatureConfig config_;
  const datagen::SyntheticWorld* world_ = nullptr;

  text::TfIdfVectorizer history_tfidf_;
  text::TfIdfVectorizer news_tfidf_;
  text::TfIdfVectorizer tweet_tfidf_;
  text::Doc2Vec doc2vec_;

  /// Noisy (machine-annotated) view of history hate labels, per user.
  std::vector<std::vector<bool>> history_machine_labels_;

  /// Read by RetweetUserFeatures, HateGenFeatures and UserHistoryBlock.
  std::unique_ptr<LazyUserTable> history_block_table_ =
      std::make_unique<LazyUserTable>();
  /// Doc2Vec of each user's recent history; read only by TopicRelatedness.
  std::unique_ptr<LazyUserTable> user_embedding_table_ =
      std::make_unique<LazyUserTable>();
  std::vector<Vec> news_embeddings_;  // per article

  /// std::shared_mutex with move semantics: a move constructs a fresh
  /// unlocked mutex. Safe because the extractor is only moved during
  /// construction (Result<FeatureExtractor> plumbing), never while other
  /// threads hold a lock.
  class MovableSharedMutex {
   public:
    MovableSharedMutex() = default;
    MovableSharedMutex(MovableSharedMutex&&) noexcept {}
    MovableSharedMutex& operator=(MovableSharedMutex&&) noexcept {
      return *this;
    }
    std::shared_mutex& get() const { return mu_; }

   private:
    mutable std::shared_mutex mu_;
  };

  /// Memoized news tf-idf averages keyed by (headlines before t0,
  /// window): that pair fixes exactly which headlines the window holds, so
  /// each value is a pure function of its key and the lock only protects
  /// the map structure, not determinism. The read-mostly steady state
  /// takes the shared lock and scales across threads.
  mutable MovableSharedMutex news_tfidf_mu_;
  mutable std::map<std::pair<size_t, size_t>, Vec> news_tfidf_cache_;
};

}  // namespace retina::core

#endif  // RETINA_CORE_FEATURE_EXTRACTOR_H_
