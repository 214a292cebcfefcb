// Known answers for the shared hashes in common/hash.hpp. BlockStore block
// checksums, the spill segment trailer, chaos decisions and Rng seeding all
// run on these two functions, so a change here changes stored bytes and
// every seeded run.
#include "common/hash.hpp"

#include <gtest/gtest.h>

namespace dias {
namespace {

TEST(Fnv1aTest, KnownProperties) {
  EXPECT_EQ(fnv1a(""), 0xCBF29CE484222325ULL);
  EXPECT_EQ(fnv1a("a"), 0xAF63DC4C8601EC8CULL);
  EXPECT_NE(fnv1a("a"), fnv1a("b"));
  EXPECT_EQ(fnv1a("dias"), fnv1a("dias"));
  // Hashing a stream piece by piece equals hashing it whole.
  EXPECT_EQ(fnv1a("cursor", fnv1a("spill ")), fnv1a("spill cursor"));
}

TEST(Splitmix64Test, KnownAnswer) {
  // First two outputs of the reference splitmix64 stream seeded with 0.
  EXPECT_EQ(splitmix64(0), 0xE220A8397B1DCDAFULL);
  EXPECT_EQ(splitmix64(kSplitmixGamma), 0x6E789E6AA1B965F4ULL);
}

}  // namespace
}  // namespace dias
