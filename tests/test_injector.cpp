// Tests for the injection engines: stuck-at mask compilation, the
// faultable image's word tracking, transient value injection, and
// quantization round-trips.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

#include "core/injector.h"
#include "util/binary_io.h"

namespace ftnav {
namespace {

TEST(StuckAtMask, CompileRejectsTransient) {
  FaultMap map(FaultType::kTransientFlip, {FaultSite{0, 0}});
  EXPECT_THROW(StuckAtMask::compile(map), std::invalid_argument);
}

TEST(StuckAtMask, ApplyForcesBits) {
  FaultMap map(FaultType::kStuckAt1, {FaultSite{0, 1}, FaultSite{2, 7}});
  const StuckAtMask mask = StuckAtMask::compile(map);
  std::vector<Word> words = {0x00, 0x00, 0x00};
  mask.apply(words);
  EXPECT_EQ(words[0], 0x02u);
  EXPECT_EQ(words[1], 0x00u);
  EXPECT_EQ(words[2], 0x80u);
}

TEST(StuckAtMask, SurvivesRewrites) {
  FaultMap map(FaultType::kStuckAt0, {FaultSite{0, 0}});
  const StuckAtMask mask = StuckAtMask::compile(map);
  std::vector<Word> words = {0xff};
  mask.apply(words);
  EXPECT_EQ(words[0], 0xfeu);
  words[0] = 0xff;  // software writes over the cell...
  mask.apply(words);
  EXPECT_EQ(words[0], 0xfeu);  // ...but the bit is still broken
}

TEST(StuckAtMask, MergesMultipleSitesPerWord) {
  FaultMap map(FaultType::kStuckAt1,
               {FaultSite{0, 0}, FaultSite{0, 3}, FaultSite{0, 5}});
  const StuckAtMask mask = StuckAtMask::compile(map);
  EXPECT_EQ(mask.faulty_word_count(), 1u);
  std::vector<Word> words = {0x00};
  mask.apply(words);
  EXPECT_EQ(words[0], 0b101001u);
}

/// The compiled (and_mask, or_mask) of every word in [0, words): a
/// stuck-at-0 entry shows in what it leaves of an all-ones word, a
/// stuck-at-1 entry in what it sets in an all-zeros word.
std::vector<Word> compiled_words(const StuckAtMask& mask, std::size_t words) {
  std::vector<Word> ones(words, ~Word{0}), zeros(words, Word{0});
  mask.apply(ones);
  mask.apply(zeros);
  std::vector<Word> out;
  for (std::size_t i = 0; i < words; ++i) {
    out.push_back(ones[i]);
    out.push_back(zeros[i]);
  }
  return out;
}

TEST(StuckAtMask, CompiledEntriesArePinned) {
  // Unsorted sites, several per word, repeated sites and a word index
  // past the probe buffer (skipped by apply, still an entry).
  const std::vector<FaultSite> sites = {
      FaultSite{5, 3}, FaultSite{1, 0}, FaultSite{5, 7}, FaultSite{1, 0},
      FaultSite{3, 15}, FaultSite{5, 0}, FaultSite{1, 9}, FaultSite{40, 2},
      FaultSite{3, 1}};
  const StuckAtMask sa0 =
      StuckAtMask::compile(FaultMap(FaultType::kStuckAt0, sites));
  const StuckAtMask sa1 =
      StuckAtMask::compile(FaultMap(FaultType::kStuckAt1, sites));
  EXPECT_EQ(sa0.faulty_word_count(), 4u);
  EXPECT_EQ(sa1.faulty_word_count(), 4u);
  const Word all = ~Word{0};
  EXPECT_EQ(compiled_words(sa0, 6),
            (std::vector<Word>{all, 0, all & ~Word{0x201}, 0, all, 0,
                               all & ~Word{0x8002}, 0, all, 0,
                               all & ~Word{0x89}, 0}));
  EXPECT_EQ(compiled_words(sa1, 6),
            (std::vector<Word>{all, 0, all, 0x201, all, 0, all, 0x8002, all,
                               0, all, 0x89}));
  std::vector<Word> far(41, 0);
  sa1.apply(far);
  EXPECT_EQ(far[40], 0x4u);

  // Sampled maps dense enough that most faulty words carry several
  // sites, digested over the probe words.
  for (const FaultType type : {FaultType::kStuckAt0, FaultType::kStuckAt1}) {
    Rng rng(type == FaultType::kStuckAt0 ? 21 : 22);
    const FaultMap map = FaultMap::sample(type, 0.15, 64, 16, rng);
    const StuckAtMask mask = StuckAtMask::compile(map);
    const std::vector<Word> words = compiled_words(mask, 64);
    const std::uint64_t digest = io::fnv1a(
        {reinterpret_cast<const char*>(words.data()),
         words.size() * sizeof(Word)});
    char hex[32];
    std::snprintf(hex, sizeof(hex), "0x%016llxULL",
                  static_cast<unsigned long long>(digest));
    const bool sa0_map = type == FaultType::kStuckAt0;
    EXPECT_EQ(mask.faulty_word_count(), sa0_map ? 61u : 55u);
    EXPECT_EQ(digest,
              sa0_map ? 0x84d93589db751191ULL : 0x2ad113702792b777ULL)
        << to_string(type) << ": got " << hex << ", "
        << mask.faulty_word_count() << " words";
  }
}

TEST(StuckAtMask, EmptyMaskIsNoOp) {
  StuckAtMask mask;
  EXPECT_TRUE(mask.empty());
  std::vector<Word> words = {0xab};
  mask.apply(words);
  EXPECT_EQ(words[0], 0xabu);
}

std::vector<std::uint32_t> sorted_changes(const FaultableImage& image) {
  const auto changed = image.changed_words();
  std::vector<std::uint32_t> out(changed.begin(), changed.end());
  std::sort(out.begin(), out.end());
  return out;
}

TEST(FaultableImage, TracksTouchedAndChangedWords) {
  const QFormat fmt(3, 4);
  const std::vector<float> values = {0.5f, -1.0f, 2.0f, 0.25f,
                                     -0.75f, 1.5f, 0.0f, 3.0f};
  FaultableImage image(fmt, values);
  const std::vector<Word> golden(image.golden_words().begin(),
                                 image.golden_words().end());
  EXPECT_FALSE(image.dirty());
  EXPECT_TRUE(image.changed_words().empty());

  // Flips (a word hit twice is listed once), a layer slice rebased to
  // word 4, and a stuck-at mask.
  image.apply(FaultMap(FaultType::kTransientFlip,
                       {FaultSite{1, 0}, FaultSite{1, 3}, FaultSite{6, 7}}));
  image.apply(FaultMap(FaultType::kTransientFlip, {FaultSite{1, 2}}), 4, 4);
  image.apply(StuckAtMask::compile(
      FaultMap(FaultType::kStuckAt1, {FaultSite{2, 6}, FaultSite{6, 0}})));
  EXPECT_TRUE(image.dirty());
  EXPECT_EQ(sorted_changes(image), (std::vector<std::uint32_t>{1, 2, 5, 6}));

  // The consumer reads them; a restore lists the same words again and
  // puts back exactly the golden bytes.
  image.mark_synced();
  EXPECT_TRUE(image.changed_words().empty());
  image.restore();
  EXPECT_FALSE(image.dirty());
  EXPECT_EQ(sorted_changes(image), (std::vector<std::uint32_t>{1, 2, 5, 6}));
  const auto live = image.live().words();
  EXPECT_EQ(std::vector<Word>(live.begin(), live.end()), golden);

  // A restore of a clean image, or an empty map, changes nothing.
  image.mark_synced();
  image.restore();
  image.apply(FaultMap(FaultType::kTransientFlip, {}));
  image.apply(StuckAtMask());
  EXPECT_FALSE(image.dirty());
  EXPECT_TRUE(image.changed_words().empty());

  // Changes made before a sync and restored after it stay listed once.
  image.apply(FaultMap(FaultType::kTransientFlip, {FaultSite{3, 1}}));
  image.restore();
  image.apply(FaultMap(FaultType::kTransientFlip, {FaultSite{3, 2}}));
  EXPECT_EQ(sorted_changes(image), (std::vector<std::uint32_t>{3}));
  image.restore();
  EXPECT_EQ(std::vector<Word>(live.begin(), live.end()), golden);
}

TEST(InjectTransient, FlipsBufferBits) {
  QVector buffer(QFormat(3, 4), 4);
  buffer.set(0, 1.0);
  FaultMap map(FaultType::kTransientFlip, {FaultSite{0, 4}});
  inject_transient(buffer, map);
  EXPECT_NE(buffer.get(0), 1.0);
}

TEST(InjectTransient, RejectsPermanentMap) {
  QVector buffer(QFormat(3, 4), 4);
  FaultMap map(FaultType::kStuckAt0, {FaultSite{0, 0}});
  EXPECT_THROW(inject_transient(buffer, map), std::invalid_argument);
}

TEST(InjectTransientValues, FlipCountMatchesBer) {
  Rng rng(9);
  std::vector<float> values(1000, 0.0f);
  const QFormat fmt(3, 4);
  const std::size_t flips =
      inject_transient_values(values, fmt, 0.01, rng);
  EXPECT_EQ(flips, 80u);  // 1000 words * 8 bits * 1%
  // Flipping a zero word always produces a nonzero value.
  std::size_t changed = 0;
  for (float v : values)
    if (v != 0.0f) ++changed;
  EXPECT_GT(changed, 0u);
  EXPECT_LE(changed, flips);
}

TEST(InjectTransientValues, ZeroBerIsNoOp) {
  Rng rng(10);
  std::vector<float> values = {1.0f, 2.0f};
  EXPECT_EQ(inject_transient_values(values, QFormat(3, 4), 0.0, rng), 0u);
  EXPECT_EQ(values[0], 1.0f);
  EXPECT_EQ(values[1], 2.0f);
}

TEST(InjectTransientValues, ResultStaysRepresentable) {
  Rng rng(11);
  const QFormat fmt(4, 11);
  std::vector<float> values(64, 0.5f);
  inject_transient_values(values, fmt, 0.2, rng);
  for (float v : values) {
    EXPECT_GE(v, fmt.min_value());
    EXPECT_LE(v, fmt.max_value());
  }
}

TEST(EnforceStuckValues, ForcesValuesThroughEncoding) {
  const QFormat fmt(3, 4);
  // Stick the sign bit of word 0 to one: any value becomes negative.
  const StuckAtMask mask = StuckAtMask::compile(
      FaultMap(FaultType::kStuckAt1, {FaultSite{0, 7}}));
  std::vector<float> values = {1.0f, 1.0f};
  enforce_stuck_values(values, fmt, mask);
  EXPECT_LT(values[0], 0.0f);
  EXPECT_EQ(values[1], 1.0f);
}

TEST(EnforceStuckValues, EmptyMaskPreservesValuesExactly) {
  const QFormat fmt(3, 4);
  std::vector<float> values = {0.33f};  // not representable
  enforce_stuck_values(values, fmt, StuckAtMask());
  // Fast path: empty mask must not even quantize.
  EXPECT_FLOAT_EQ(values[0], 0.33f);
}

}  // namespace
}  // namespace ftnav
