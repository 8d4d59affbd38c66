// Event-driven synthetic news stream (exogenous signal source).
//
// Stands in for the paper's news-please crawl (683k articles -> 319k
// filtered headlines). Each topic has a calm base intensity plus randomly
// placed exponentially decaying bursts ("events"); headline volume per day
// follows the intensity, and headline text shares the topical vocabulary
// with tweets — preserving the temporal-topical tweet/news correlation the
// exogenous-attention models consume.

#ifndef RETINA_DATAGEN_NEWS_H_
#define RETINA_DATAGEN_NEWS_H_

#include <string>
#include <vector>

#include "common/rng.h"
#include "common/vec.h"
#include "datagen/types.h"
#include "datagen/world_config.h"

namespace retina::datagen {

/// \brief Generated news corpus with its underlying intensity process.
class NewsStream {
 public:
  /// Builds a stream from parts (CSV importer). Articles must be sorted
  /// ascending by time; `intensity` is topics x days.
  static NewsStream FromParts(std::vector<NewsArticle> articles,
                              Matrix intensity, double horizon_days);

  /// All headlines sorted ascending by time.
  const std::vector<NewsArticle>& articles() const { return articles_; }

  /// Relative news intensity (1.0 = calm) for `topic` at `time_hours`.
  double IntensityAt(size_t topic, double time_hours) const;

  /// Number of articles strictly before `time_hours`.
  size_t CountBefore(double time_hours) const;

  /// Indices of the `k` most recent articles strictly before `time_hours`
  /// (most recent first). Fewer if the stream is younger than k.
  std::vector<size_t> MostRecentBefore(double time_hours, size_t k) const;

  /// topics x days intensity matrix.
  const Matrix& intensity() const { return intensity_; }

 private:
  friend NewsStream GenerateNews(
      const WorldConfig& config,
      const std::vector<std::vector<std::string>>& topic_words,
      const std::vector<std::string>& general_words, Rng* rng);

  std::vector<NewsArticle> articles_;
  Matrix intensity_;  // topics x days
  double horizon_days_ = 0.0;
};

/// Generates the news stream for the configured horizon.
NewsStream GenerateNews(
    const WorldConfig& config,
    const std::vector<std::vector<std::string>>& topic_words,
    const std::vector<std::string>& general_words, Rng* rng);

}  // namespace retina::datagen

#endif  // RETINA_DATAGEN_NEWS_H_
