#include "workload/text_corpus.hpp"

#include <gtest/gtest.h>

#include <cctype>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/error.hpp"

namespace dias::workload {
namespace {

TEST(TextCorpusTest, GeneratesRequestedPosts) {
  TextCorpusParams params;
  params.posts = 123;
  params.seed = 1;
  const auto corpus = generate_text_corpus("anime", params);
  EXPECT_EQ(corpus.site, "anime");
  EXPECT_EQ(corpus.rows.size(), 123u);
  EXPECT_GT(corpus.bytes(), 123u * 10);
}

TEST(TextCorpusTest, RowsAreWellFormed) {
  TextCorpusParams params;
  params.posts = 50;
  const auto corpus = generate_text_corpus("coffee", params);
  for (const auto& row : corpus.rows) {
    EXPECT_EQ(row.rfind("<row ", 0), 0u) << row;
    EXPECT_NE(row.find("Body=\""), std::string::npos);
    EXPECT_NE(row.find("Site=\"coffee\""), std::string::npos);
    const std::string body = extract_post_body(row);
    EXPECT_FALSE(body.empty());
  }
}

TEST(TextCorpusTest, DeterministicPerSeed) {
  TextCorpusParams params;
  params.posts = 20;
  params.seed = 9;
  const auto a = generate_text_corpus("x", params);
  const auto b = generate_text_corpus("x", params);
  EXPECT_EQ(a.rows, b.rows);
  params.seed = 10;
  const auto c = generate_text_corpus("x", params);
  EXPECT_NE(a.rows, c.rows);
}

TEST(TextCorpusTest, WordFrequenciesAreSkewed) {
  TextCorpusParams params;
  params.posts = 2000;
  params.vocabulary = 500;
  params.zipf_exponent = 1.1;
  params.seed = 3;
  const auto corpus = generate_text_corpus("skew", params);
  std::unordered_map<std::string, int> counts;
  std::size_t total = 0;
  for (const auto& row : corpus.rows) {
    for (const auto& w : tokenize(extract_post_body(row))) {
      ++counts[w];
      ++total;
    }
  }
  int max_count = 0;
  for (const auto& [w, c] : counts) max_count = std::max(max_count, c);
  const double mean_count = static_cast<double>(total) / static_cast<double>(counts.size());
  EXPECT_GT(max_count, 5.0 * mean_count) << "Zipf corpus should have heavy hitters";
}

TEST(ExtractPostBodyTest, HandlesWellFormedAndMalformed) {
  EXPECT_EQ(extract_post_body("<row Id=\"1\" Body=\"a b c\"/>"), "a b c");
  EXPECT_EQ(extract_post_body("<row Id=\"1\"/>"), "");
  EXPECT_EQ(extract_post_body("<row Body=\"unterminated"), "");
  EXPECT_EQ(extract_post_body(""), "");
}

TEST(TokenizeTest, SplitsAndLowercases) {
  const auto words = tokenize("Hello, World! foo-bar baz42");
  ASSERT_EQ(words.size(), 5u);
  EXPECT_EQ(words[0], "hello");
  EXPECT_EQ(words[1], "world");
  EXPECT_EQ(words[2], "foo");
  EXPECT_EQ(words[3], "bar");
  EXPECT_EQ(words[4], "baz42");
}

TEST(TokenizeTest, EmptyAndWhitespaceOnly) {
  EXPECT_TRUE(tokenize("").empty());
  EXPECT_TRUE(tokenize("  ,.! ").empty());
}

// The std::isalnum/std::tolower tokenizer the table-driven one replaced;
// the test program never calls setlocale, so these run in the "C" locale.
std::vector<std::string> ctype_tokenize(const std::string& body) {
  std::vector<std::string> words;
  std::string current;
  for (char c : body) {
    if (std::isalnum(static_cast<unsigned char>(c))) {
      current.push_back(static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
    } else if (!current.empty()) {
      words.push_back(std::move(current));
      current.clear();
    }
  }
  if (!current.empty()) words.push_back(std::move(current));
  return words;
}

TEST(TokenizeTest, EveryByteMatchesCtypeInTheCLocale) {
  std::string all_bytes;
  for (int b = 0; b < 256; ++b) {
    const char c = static_cast<char>(b);
    const std::string alone(1, c);
    EXPECT_EQ(tokenize(alone), ctype_tokenize(alone)) << "byte " << b;
    // Inside a word: a word byte extends it, anything else splits it.
    const std::string inside = std::string("Ab") + c + "Cd";
    EXPECT_EQ(tokenize(inside), ctype_tokenize(inside)) << "byte " << b;
    all_bytes.push_back(c);
  }
  EXPECT_EQ(tokenize(all_bytes), ctype_tokenize(all_bytes));
  EXPECT_EQ(tokenize(all_bytes),
            (std::vector<std::string>{"0123456789", "abcdefghijklmnopqrstuvwxyz",
                                      "abcdefghijklmnopqrstuvwxyz"}));
}

TEST(TokenizeTest, MixedCaseDigitsAndPunctuationMatchCtype) {
  for (const std::string body :
       {"MiXeD CaSe", "W42 w42 42W", "  lead,trail.  ", "a\tb\nc\rd", "x_y-z+w/q",
        "don't STOP", "\xc3\xa9t\xc3\xa9 caf\xc3\xa9", "\x80\xff\x7f\x01z",
        "ALLCAPS123", "...", "9", "&amp;lt;tag&amp;gt; Body"}) {
    EXPECT_EQ(tokenize(body), ctype_tokenize(body)) << body;
  }
}

TEST(TokenizeTest, ForEachWordReusesOneScratchBuffer) {
  std::string scratch;
  scratch.reserve(64);
  const char* const buffer = scratch.data();
  std::vector<std::string> seen;
  for_each_word("One two THREE four", scratch, [&](const std::string& word) {
    EXPECT_EQ(&word, &scratch);
    EXPECT_EQ(word.data(), buffer);
    seen.push_back(word);
  });
  EXPECT_EQ(seen, (std::vector<std::string>{"one", "two", "three", "four"}));
}

TEST(ExtractPostBodyTest, FindPostBodyAgreesAndViewsTheRow) {
  for (const std::string row :
       {"<row Id=\"1\" Body=\"a b c\"/>", "<row Id=\"1\"/>", "<row Body=\"unterminated", "",
        "<row Body=\"\"/>", "Body=\"first\" Body=\"second\"", "<row body=\"lower\"/>"}) {
    const std::string_view body = find_post_body(row);
    EXPECT_EQ(std::string(body), extract_post_body(row)) << row;
    if (!body.empty()) {
      EXPECT_GE(body.data(), row.data());
      EXPECT_LE(body.data() + body.size(), row.data() + row.size());
    }
  }
}

TEST(TextCorpusTest, Validation) {
  TextCorpusParams params;
  params.posts = 0;
  EXPECT_THROW(generate_text_corpus("x", params), dias::precondition_error);
  params = {};
  params.vocabulary = 0;
  EXPECT_THROW(generate_text_corpus("x", params), dias::precondition_error);
  params = {};
  params.topic_boost = 0.5;
  EXPECT_THROW(generate_text_corpus("x", params), dias::precondition_error);
}

}  // namespace
}  // namespace dias::workload
