#include "datagen/news.h"

#include <algorithm>
#include <cmath>

namespace retina::datagen {

NewsStream NewsStream::FromParts(std::vector<NewsArticle> articles,
                                 Matrix intensity, double horizon_days) {
  NewsStream stream;
  stream.articles_ = std::move(articles);
  stream.intensity_ = std::move(intensity);
  stream.horizon_days_ = horizon_days;
  return stream;
}

double NewsStream::IntensityAt(size_t topic, double time_hours) const {
  if (intensity_.empty()) return 1.0;
  int day = static_cast<int>(time_hours / 24.0);
  day = std::clamp(day, 0, static_cast<int>(intensity_.cols()) - 1);
  return intensity_(topic, static_cast<size_t>(day));
}

size_t NewsStream::CountBefore(double time_hours) const {
  // articles_ is sorted by time; find the first article at/after t.
  auto it = std::lower_bound(
      articles_.begin(), articles_.end(), time_hours,
      [](const NewsArticle& a, double t) { return a.time < t; });
  return static_cast<size_t>(it - articles_.begin());
}

std::vector<size_t> NewsStream::MostRecentBefore(double time_hours,
                                                 size_t k) const {
  size_t end = CountBefore(time_hours);
  std::vector<size_t> out;
  out.reserve(std::min(k, end));
  while (out.size() < k && end > 0) {
    --end;
    out.push_back(end);
  }
  return out;
}

NewsStream GenerateNews(
    const WorldConfig& config,
    const std::vector<std::vector<std::string>>& topic_words,
    const std::vector<std::string>& general_words, Rng* rng) {
  const size_t num_topics = config.num_topics;
  const size_t num_days = static_cast<size_t>(std::ceil(config.horizon_days));

  NewsStream stream;
  stream.horizon_days_ = config.horizon_days;
  stream.intensity_ = Matrix(num_topics, num_days, 1.0);

  // Place exponentially decaying bursts per topic.
  for (size_t t = 0; t < num_topics; ++t) {
    const int n_bursts = rng->Poisson(config.bursts_per_topic);
    for (int b = 0; b < n_bursts; ++b) {
      const double start = rng->Uniform(0.0, config.horizon_days);
      const double magnitude = rng->Uniform(2.0, 8.0);
      const double decay_days = rng->Uniform(1.5, 5.0);
      for (size_t d = 0; d < num_days; ++d) {
        const double dt = static_cast<double>(d) - start;
        if (dt < 0.0) continue;
        stream.intensity_(t, d) += magnitude * std::exp(-dt / decay_days);
      }
    }
  }

  // Headline volume per (day, topic) follows intensity.
  const double per_topic_rate = config.news_per_day / static_cast<double>(num_topics);
  for (size_t d = 0; d < num_days; ++d) {
    for (size_t t = 0; t < num_topics; ++t) {
      const double rate = per_topic_rate * stream.intensity_(t, d);
      const int count = rng->Poisson(rate);
      for (int i = 0; i < count; ++i) {
        NewsArticle article;
        article.time = (static_cast<double>(d) + rng->Uniform()) * 24.0;
        article.topic = t;
        // Headline: 6-12 tokens, ~2/3 topical.
        const int len = 6 + static_cast<int>(rng->UniformInt(7));
        article.tokens.reserve(static_cast<size_t>(len));
        for (int w = 0; w < len; ++w) {
          if (rng->Uniform() < 0.65 && !topic_words[t].empty()) {
            article.tokens.push_back(
                topic_words[t][rng->UniformInt(topic_words[t].size())]);
          } else if (!general_words.empty()) {
            article.tokens.push_back(
                general_words[rng->UniformInt(general_words.size())]);
          }
        }
        stream.articles_.push_back(std::move(article));
      }
    }
  }
  std::sort(stream.articles_.begin(), stream.articles_.end(),
            [](const NewsArticle& a, const NewsArticle& b) {
              return a.time < b.time;
            });
  return stream;
}

}  // namespace retina::datagen
