// The repo's two non-cryptographic hashes, one definition each:
//   * FNV-1a 64 — BlockStore block checksums, the spill segment trailer
//     (DSP2) and chaos point-name keys;
//   * the splitmix64 finalizer — the Rng's seed expansion, the chaos /
//     retry-backoff decision core and the shuffle FlatMap's slot mixing
//     of integer keys.
// Both are on-disk or decision formats: changing either changes stored
// checksums and every seeded chaos run.
#pragma once

#include <cstdint>
#include <string_view>

namespace dias {

inline constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
inline constexpr std::uint64_t kSplitmixGamma = 0x9E3779B97F4A7C15ULL;

// FNV-1a 64 over `s`, continuing from `h` — pass a previous result to hash
// a byte stream piece by piece (fnv1a(ab) == fnv1a(b, fnv1a(a))).
inline std::uint64_t fnv1a(std::string_view s, std::uint64_t h = kFnvOffset) {
  for (const char ch : s) {
    h ^= static_cast<unsigned char>(ch);
    h *= 0x100000001b3ULL;
  }
  return h;
}

// splitmix64 output for state `x`: the finalizer applied to
// x + kSplitmixGamma. A splitmix64 stream seeded with s yields
// splitmix64(s), splitmix64(s + kSplitmixGamma), ...
inline std::uint64_t splitmix64(std::uint64_t x) {
  x += kSplitmixGamma;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

}  // namespace dias
