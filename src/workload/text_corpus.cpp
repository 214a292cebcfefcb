#include "workload/text_corpus.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace dias::workload {
namespace {

std::string word_for_rank(std::size_t rank) {
  // Deterministic pseudo-words: "w" + rank. Distinctness is all the word
  // count cares about; Zipf ranks carry the popularity structure.
  std::string word = "w";
  word += std::to_string(rank);
  return word;
}

}  // namespace

std::size_t TextCorpus::bytes() const {
  std::size_t n = 0;
  for (const auto& r : rows) n += r.size() + 1;
  return n;
}

TextCorpus generate_text_corpus(const std::string& site, const TextCorpusParams& params) {
  DIAS_EXPECTS(params.posts >= 1, "corpus needs at least one post");
  DIAS_EXPECTS(params.vocabulary >= 1, "vocabulary must be non-empty");
  DIAS_EXPECTS(params.mean_words_per_post >= 1, "posts need at least one word");
  DIAS_EXPECTS(params.topic_boost >= 1.0, "topic boost must be >= 1");

  Rng rng(params.seed);
  const ZipfDistribution zipf(params.vocabulary, params.zipf_exponent);

  // Pick per-segment topic-word subsets (ranks) to boost; segment 0 is the
  // site's base topic, later segments drift to other word windows.
  const std::size_t segments = std::max<std::size_t>(params.drift_segments, 1);
  const std::size_t topic_n = std::min(params.topic_words, params.vocabulary);
  std::vector<std::vector<std::size_t>> segment_topics(segments);
  for (auto& topic_ranks : segment_topics) {
    for (std::size_t i = 0; i < topic_n; ++i) {
      topic_ranks.push_back(1 + rng.uniform_int(params.vocabulary));
    }
  }
  // Probability that a word slot is re-drawn from the topic set.
  const double topic_share =
      params.topic_boost / (params.topic_boost + static_cast<double>(params.vocabulary) /
                                                     std::max<std::size_t>(topic_n, 1));

  TextCorpus corpus;
  corpus.site = site;
  corpus.rows.reserve(params.posts);
  for (std::size_t i = 0; i < params.posts; ++i) {
    const auto& topic_ranks = segment_topics[i * segments / params.posts];
    // Post lengths: geometric-ish spread around the mean.
    const auto len = std::max<std::size_t>(
        1, static_cast<std::size_t>(rng.exponential(1.0 / static_cast<double>(
                                                              params.mean_words_per_post)) +
                                    0.5));
    std::string body;
    body.reserve(len * 6);
    for (std::size_t w = 0; w < len; ++w) {
      std::size_t rank;
      if (!topic_ranks.empty() && rng.bernoulli(topic_share)) {
        rank = topic_ranks[rng.uniform_int(topic_ranks.size())];
      } else {
        rank = zipf(rng);
      }
      if (w > 0) body.push_back(' ');
      body += word_for_rank(rank);
    }
    corpus.rows.push_back("<row Id=\"" + std::to_string(i + 1) + "\" Site=\"" + site +
                          "\" Body=\"" + body + "\"/>");
  }
  return corpus;
}

std::string_view find_post_body(std::string_view row) {
  constexpr std::string_view kKey = "Body=\"";
  const auto start = row.find(kKey);
  if (start == std::string_view::npos) return {};
  const auto body_start = start + kKey.size();
  const auto end = row.find('"', body_start);
  if (end == std::string_view::npos) return {};
  return row.substr(body_start, end - body_start);
}

std::string extract_post_body(std::string_view row) { return std::string(find_post_body(row)); }

std::vector<std::string> tokenize(std::string_view body) {
  std::vector<std::string> words;
  std::string scratch;
  for_each_word(body, scratch, [&](const std::string& word) { words.push_back(word); });
  return words;
}

}  // namespace dias::workload
