// Tests for the fault model: BER sampling, site uniqueness, apply
// semantics for every fault type.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "core/fault_model.h"
#include "util/binary_io.h"

namespace ftnav {
namespace {

TEST(FaultModel, FaultBitsForBerRounding) {
  EXPECT_EQ(fault_bits_for_ber(0.0, 100, 8), 0u);
  EXPECT_EQ(fault_bits_for_ber(1.0, 100, 8), 800u);
  EXPECT_EQ(fault_bits_for_ber(0.001, 1000, 8), 8u);
  EXPECT_EQ(fault_bits_for_ber(0.5, 10, 8), 40u);
}

TEST(FaultModel, FaultBitsRejectsBadBer) {
  EXPECT_THROW(fault_bits_for_ber(-0.1, 10, 8), std::invalid_argument);
  EXPECT_THROW(fault_bits_for_ber(1.1, 10, 8), std::invalid_argument);
}

TEST(FaultModel, SampleCountIsExact) {
  Rng rng(1);
  const auto map =
      FaultMap::sample(FaultType::kTransientFlip, 0.1, 100, 8, rng);
  EXPECT_EQ(map.size(), 80u);
}

TEST(FaultModel, SitesAreDistinct) {
  Rng rng(2);
  const auto map =
      FaultMap::sample(FaultType::kTransientFlip, 0.5, 50, 8, rng);
  std::set<std::pair<std::uint32_t, int>> seen;
  for (const FaultSite& s : map.sites())
    EXPECT_TRUE(seen.insert({s.word_index, s.bit}).second);
}

TEST(FaultModel, SitesWithinBounds) {
  Rng rng(3);
  const auto map =
      FaultMap::sample(FaultType::kStuckAt1, 1.0, 20, 6, rng);
  EXPECT_EQ(map.size(), 120u);
  for (const FaultSite& s : map.sites()) {
    EXPECT_LT(s.word_index, 20u);
    EXPECT_LT(s.bit, 6);
  }
}

TEST(FaultModel, RejectsOversampling) {
  Rng rng(4);
  EXPECT_THROW(FaultMap::sample_count(FaultType::kStuckAt0, 81, 10, 8, rng),
               std::invalid_argument);
}

TEST(FaultModel, RejectsBadWordWidth) {
  Rng rng(5);
  EXPECT_THROW(FaultMap::sample(FaultType::kStuckAt0, 0.1, 10, 0, rng),
               std::invalid_argument);
  EXPECT_THROW(FaultMap::sample(FaultType::kStuckAt0, 0.1, 10, 33, rng),
               std::invalid_argument);
}

TEST(FaultModel, ApplyOnceTransientFlips) {
  FaultMap map(FaultType::kTransientFlip,
               {FaultSite{0, 0}, FaultSite{1, 7}});
  std::vector<Word> words = {0x00, 0xff};
  map.apply_once(words);
  EXPECT_EQ(words[0], 0x01u);
  EXPECT_EQ(words[1], 0x7fu);
  // Applying twice restores (XOR involution).
  map.apply_once(words);
  EXPECT_EQ(words[0], 0x00u);
  EXPECT_EQ(words[1], 0xffu);
}

TEST(FaultModel, ApplyOnceStuckAt) {
  FaultMap sa0(FaultType::kStuckAt0, {FaultSite{0, 3}});
  FaultMap sa1(FaultType::kStuckAt1, {FaultSite{0, 2}});
  std::vector<Word> words = {0xff};
  sa0.apply_once(words);
  EXPECT_EQ(words[0], 0xf7u);
  words[0] = 0x00;
  sa1.apply_once(words);
  EXPECT_EQ(words[0], 0x04u);
}

TEST(FaultModel, ApplyIgnoresOutOfRangeSites) {
  FaultMap map(FaultType::kTransientFlip, {FaultSite{5, 0}});
  std::vector<Word> words = {0x00};
  map.apply_once(words);  // must not crash or write
  EXPECT_EQ(words[0], 0x00u);
}

TEST(FaultModel, SliceRebasesIndices) {
  FaultMap map(FaultType::kTransientFlip,
               {FaultSite{2, 1}, FaultSite{5, 2}, FaultSite{9, 3}});
  const FaultMap sliced = map.slice(4, 8);
  ASSERT_EQ(sliced.size(), 1u);
  EXPECT_EQ(sliced.sites()[0].word_index, 1u);
  EXPECT_EQ(sliced.sites()[0].bit, 2);
}

TEST(FaultModel, PermanentClassification) {
  EXPECT_FALSE(is_permanent(FaultType::kTransientFlip));
  EXPECT_TRUE(is_permanent(FaultType::kStuckAt0));
  EXPECT_TRUE(is_permanent(FaultType::kStuckAt1));
}

TEST(FaultModel, Names) {
  EXPECT_EQ(to_string(FaultType::kTransientFlip), "transient");
  EXPECT_EQ(to_string(FaultType::kStuckAt0), "stuck-at-0");
  EXPECT_EQ(to_string(FaultType::kStuckAt1), "stuck-at-1");
  EXPECT_EQ(to_string(BufferKind::kWeight), "weight");
  EXPECT_EQ(to_string(BufferKind::kTabular), "tabular");
}

TEST(FaultModel, SamplingIsSeedDeterministic) {
  Rng a(77), b(77);
  const auto map_a =
      FaultMap::sample(FaultType::kTransientFlip, 0.2, 64, 8, a);
  const auto map_b =
      FaultMap::sample(FaultType::kTransientFlip, 0.2, 64, 8, b);
  ASSERT_EQ(map_a.size(), map_b.size());
  for (std::size_t i = 0; i < map_a.size(); ++i)
    EXPECT_EQ(map_a.sites()[i], map_b.sites()[i]);
}

TEST(FaultModel, SamplingCoversWholeBuffer) {
  Rng rng(78);
  const auto map =
      FaultMap::sample(FaultType::kTransientFlip, 1.0, 16, 4, rng);
  std::set<std::uint32_t> words;
  for (const FaultSite& s : map.sites()) words.insert(s.word_index);
  EXPECT_EQ(words.size(), 16u);
}

// Pins the exact (word, bit) site sequence sample_count draws, in draw
// order: FNV-1a over each site's little-endian word index and bit. The
// cases cover an empty map, a saturated map (fault_bits == positions)
// at 1- and 32-bit words, and sparse and dense draws in between, so
// any change to the draw sequence, the duplicate rejection or the
// position-to-site split changes a digest.
TEST(FaultModel, SampledSiteSequencesArePinned) {
  struct Case {
    std::size_t fault_bits, words;
    int bits_per_word;
    std::uint64_t seed;
    std::uint64_t digest;
  };
  const Case cases[] = {
      {0, 10, 8, 1, 0xcbf29ce484222325ULL},
      {1, 1, 1, 2, 0xe4bc4fd9252be94fULL},
      {37, 100, 1, 3, 0x12de51904f34088aULL},
      {100, 100, 1, 4, 0xc6c3d56afe8c0163ULL},
      {500, 64, 8, 5, 0x8fc4ea4a99b09a12ULL},
      {64, 16, 4, 6, 0x7688b1e99de17689ULL},
      {1600, 50, 32, 7, 0x82ff627359cb0655ULL},
      {1000, 4096, 32, 8, 0x72d8d7a14b4e9eeaULL},
      {5538, 34609, 16, 9, 0x5a7c657f59f1dbfaULL},
      {40, 5044, 8, 10, 0x5e47a17823904fd9ULL},
  };
  for (const Case& c : cases) {
    Rng rng(c.seed);
    const FaultMap map = FaultMap::sample_count(
        FaultType::kTransientFlip, c.fault_bits, c.words, c.bits_per_word,
        rng);
    ASSERT_EQ(map.size(), c.fault_bits);
    std::string bytes;
    for (const FaultSite& site : map.sites()) {
      for (int shift = 0; shift < 32; shift += 8)
        bytes.push_back(static_cast<char>((site.word_index >> shift) & 0xff));
      bytes.push_back(static_cast<char>(site.bit));
    }
    const std::uint64_t digest = io::fnv1a({bytes.data(), bytes.size()});
    char hex[32];
    std::snprintf(hex, sizeof(hex), "0x%016llxULL",
                  static_cast<unsigned long long>(digest));
    EXPECT_EQ(digest, c.digest)
        << "fault_bits=" << c.fault_bits << " words=" << c.words
        << " bits_per_word=" << c.bits_per_word << ": got " << hex;
  }
}

}  // namespace
}  // namespace ftnav
