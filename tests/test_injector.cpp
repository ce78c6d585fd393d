// Tests for the injection engines: stuck-at mask compilation/merging,
// transient value injection, and quantization round-trips.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/injector.h"

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

TEST(StuckAtMask, MergeCombinesMasks) {
  StuckAtMask a = StuckAtMask::compile(
      FaultMap(FaultType::kStuckAt0, {FaultSite{0, 0}}));
  const StuckAtMask b = StuckAtMask::compile(
      FaultMap(FaultType::kStuckAt1, {FaultSite{0, 1}, FaultSite{1, 2}}));
  a.merge(b);
  EXPECT_EQ(a.faulty_word_count(), 2u);
  std::vector<Word> words = {0xff, 0x00};
  a.apply(words);
  EXPECT_EQ(words[0], 0xfeu | 0x02u);
  EXPECT_EQ(words[1], 0x04u);
}

TEST(StuckAtMask, EmptyMaskIsNoOp) {
  StuckAtMask mask;
  EXPECT_TRUE(mask.empty());
  std::vector<Word> words = {0xab};
  mask.apply(words);
  EXPECT_EQ(words[0], 0xabu);
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
