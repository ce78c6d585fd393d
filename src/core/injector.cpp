#include "core/injector.h"

#include <algorithm>
#include <stdexcept>

namespace ftnav {

StuckAtMask StuckAtMask::compile(const FaultMap& map) {
  if (!is_permanent(map.type()))
    throw std::invalid_argument(
        "StuckAtMask::compile: fault map is not permanent");
  // Sort the sites by word, then fold each run of equal words into one
  // entry: the same sorted entries a per-word map would give. A site
  // packs into one integer key (word above bit), so the sort compares
  // integers.
  std::vector<std::uint64_t> keys;
  keys.reserve(map.size());
  for (const FaultSite& site : map.sites())
    keys.push_back(std::uint64_t{site.word_index} << 8 | site.bit);
  std::sort(keys.begin(), keys.end());
  const bool stuck_at_0 = map.type() == FaultType::kStuckAt0;
  StuckAtMask mask;
  for (const std::uint64_t key : keys) {
    const auto word = static_cast<std::uint32_t>(key >> 8);
    if (mask.entries_.empty() || mask.entries_.back().word_index != word)
      mask.entries_.push_back(Entry{word});
    Entry& entry = mask.entries_.back();
    const Word bit = Word{1} << (key & 0xff);
    if (stuck_at_0) {
      entry.and_mask &= ~bit;
    } else {
      entry.or_mask |= bit;
    }
  }
  return mask;
}

void StuckAtMask::apply(std::span<Word> words) const noexcept {
  for (const Entry& entry : entries_) {
    if (entry.word_index >= words.size()) continue;
    Word& w = words[entry.word_index];
    w = (w & entry.and_mask) | entry.or_mask;
  }
}

void FaultableImage::restore() {
  if (!dirty_) return;
  const std::span<Word> live = live_.words();
  for (const std::uint32_t word : touched_) {
    live[word] = golden_[word];
    if ((marks_[word] & kChanged) == 0) changed_.push_back(word);
    marks_[word] = kChanged;
  }
  touched_.clear();
  dirty_ = false;
}

void FaultableImage::mark_synced() noexcept {
  for (const std::uint32_t word : changed_)
    marks_[word] &= static_cast<std::uint8_t>(~kChanged);
  changed_.clear();
}

void FaultableImage::apply(const FaultMap& map, std::size_t begin,
                           std::size_t count) {
  if (map.sites().empty()) return;
  map.apply_once(live_.words().subspan(begin, count));
  for (const FaultSite& site : map.sites())
    if (site.word_index < count)
      touch(static_cast<std::uint32_t>(begin + site.word_index));
  dirty_ = true;
}

void FaultableImage::apply(const StuckAtMask& mask) {
  if (mask.empty()) return;
  mask.apply(live_);
  for (const StuckAtMask::Entry& entry : mask.entries())
    if (entry.word_index < size()) touch(entry.word_index);
  dirty_ = true;
}

void inject_transient(QVector& buffer, const FaultMap& map) {
  if (map.type() != FaultType::kTransientFlip)
    throw std::invalid_argument("inject_transient: map is not transient");
  map.apply_once(buffer.words());
}

std::size_t inject_transient_values(std::span<float> values,
                                    const QFormat& format, double ber,
                                    Rng& rng) {
  const std::size_t flips =
      fault_bits_for_ber(ber, values.size(), format.total_bits());
  const int bits = format.total_bits();
  for (std::size_t k = 0; k < flips; ++k) {
    // Dynamic faults hit a buffer that is rewritten every step, so
    // sampling with replacement matches independent upsets; collisions
    // are vanishingly rare at realistic BERs.
    const std::uint64_t pos =
        rng.below(values.size() * static_cast<std::size_t>(bits));
    const auto index = static_cast<std::size_t>(pos) /
                       static_cast<std::size_t>(bits);
    const int bit = static_cast<int>(pos % static_cast<std::size_t>(bits));
    const Word word = format.encode(values[index]);
    values[index] = static_cast<float>(format.decode(flip_bit(word, bit)));
  }
  return flips;
}

void enforce_stuck_values(std::span<float> values, const QFormat& format,
                          const StuckAtMask& mask) {
  if (mask.empty()) return;
  // Encode the whole tensor, force the stuck bits, decode back. The
  // clean positions round-trip through quantization, which is what the
  // physical buffer does to them anyway.
  std::vector<Word> words(values.size());
  for (std::size_t i = 0; i < values.size(); ++i)
    words[i] = format.encode(values[i]);
  mask.apply(words);
  for (std::size_t i = 0; i < values.size(); ++i)
    values[i] = static_cast<float>(format.decode(words[i]));
}

}  // namespace ftnav
