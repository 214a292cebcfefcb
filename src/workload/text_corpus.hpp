// Synthetic StackExchange-like corpus generator.
//
// The paper analyses XML data dumps of 164 StackExchange sites ("find the
// popularity of different words in different topics"). We lack the dumps,
// so this generator synthesizes per-site post collections whose word
// frequencies follow a Zipf law over a shared vocabulary, with per-site
// (topic) skew: each site boosts a random subset of topic words. Posts are
// wrapped in the same XML-ish row format the real dumps use, so the word
// count job exercises parsing + tokenization like the paper's text jobs.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace dias::workload {

struct TextCorpusParams {
  std::size_t posts = 2000;            // rows in the dump
  std::size_t mean_words_per_post = 40;
  std::size_t vocabulary = 5000;       // distinct words
  double zipf_exponent = 1.05;         // word popularity skew
  std::size_t topic_words = 50;        // words boosted for this site/topic
  double topic_boost = 8.0;            // relative frequency multiplier

  // Topic drift: the dump is split into this many segments, each boosting
  // a different topic-word subset (real dumps are chronological and drift).
  // Drift makes partitions heterogeneous, so dropped tasks bias even
  // rescaled estimates. 1 = homogeneous corpus.
  std::size_t drift_segments = 1;

  std::uint64_t seed = 1;
};

struct TextCorpus {
  std::string site;
  std::vector<std::string> rows;  // XML-ish <row .../> lines

  // Approximate size of the dump in bytes.
  std::size_t bytes() const;
};

// Generates one site's dump. `site` names the topic (e.g. "anime").
TextCorpus generate_text_corpus(const std::string& site, const TextCorpusParams& params);

namespace detail {
// Byte -> lower-cased word byte, or 0 for a separator: ASCII letters and
// digits, matching std::isalnum/std::tolower under the "C" locale.
constexpr std::array<char, 256> make_word_bytes() {
  std::array<char, 256> t{};
  for (int c = '0'; c <= '9'; ++c) t[c] = static_cast<char>(c);
  for (int c = 'a'; c <= 'z'; ++c) t[c] = static_cast<char>(c);
  for (int c = 'A'; c <= 'Z'; ++c) t[c] = static_cast<char>(c - 'A' + 'a');
  return t;
}
inline constexpr std::array<char, 256> kWordBytes = make_word_bytes();
}  // namespace detail

// The post body of a <row ... Body="..."/> line, as a view into `row`;
// empty for malformed rows.
std::string_view find_post_body(std::string_view row);

// Calls `f(word)` for each word of `body` in order: a maximal run of ASCII
// letters and digits, lower-cased. Each word is built in `scratch` and
// passed as a const std::string& valid only for that call; the buffer is
// reused across words, so the walk allocates only while `scratch` grows.
template <typename F>
void for_each_word(std::string_view body, std::string& scratch, F&& f) {
  scratch.clear();
  for (const char c : body) {
    const char lower = detail::kWordBytes[static_cast<unsigned char>(c)];
    if (lower != 0) {
      scratch.push_back(lower);
    } else if (!scratch.empty()) {
      f(std::as_const(scratch));
      scratch.clear();
    }
  }
  if (!scratch.empty()) f(std::as_const(scratch));
}

// Owning wrappers over find_post_body / for_each_word.
std::string extract_post_body(std::string_view row);
std::vector<std::string> tokenize(std::string_view body);

}  // namespace dias::workload
