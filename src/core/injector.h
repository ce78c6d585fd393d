#pragma once
// Fault injection engines (paper §3.3).
//
// Injection has two modes:
//   * static  -- applied to a buffer before execution (permanent faults,
//                and transient faults in read-only weight buffers);
//   * dynamic -- applied during execution as tensor-level operations
//                (transient faults in inputs/activations, which are
//                rewritten every step).
//
// Permanent faults must survive writes: StuckAtMask compiles a FaultMap
// into per-word AND/OR masks that are re-applied after every buffer
// update, which is how a real stuck cell behaves under training.

#include <cstddef>
#include <span>
#include <vector>

#include "core/fault_model.h"
#include "fixed/qformat.h"
#include "fixed/qvector.h"
#include "util/rng.h"

namespace ftnav {

/// Compiled permanent-fault overlay: word := (word & and_mask) | or_mask.
class StuckAtMask {
 public:
  /// One faulty word: the OR/AND of every site that hits it.
  struct Entry {
    std::uint32_t word_index = 0;
    Word and_mask = ~Word{0};
    Word or_mask = 0;
  };

  StuckAtMask() = default;

  /// Compiles a stuck-at fault map. Throws std::invalid_argument if the
  /// map's type is transient. Multiple sites per word are merged.
  static StuckAtMask compile(const FaultMap& map);

  bool empty() const noexcept { return entries_.empty(); }
  std::size_t faulty_word_count() const noexcept { return entries_.size(); }
  /// The compiled entries, one per faulty word, in ascending word order.
  std::span<const Entry> entries() const noexcept { return entries_; }

  /// Enforces the stuck bits over a word buffer.
  void apply(std::span<Word> words) const noexcept;

  /// Enforces the stuck bits over a QVector.
  void apply(QVector& buffer) const noexcept { apply(buffer.words()); }

 private:
  std::vector<Entry> entries_;
};

/// A faultable buffer image: a live QVector plus a word-level golden
/// snapshot taken at construction. Campaign trial loops mutate the
/// live image with bit operations (flips, stuck-at masks) and call
/// restore() between trials, so batching thousands of trials through
/// one resident image is cheap. restore() produces exactly the words
/// the initial encode produced, so a restored image is bit-identical
/// to a freshly constructed one.
///
/// The image records which words its faults touch, so every step
/// costs what the faults cost, not what the buffer costs:
///   * restore() copies back only the words touched since the last
///     restore (a clean image is left alone), and dirty() lets callers
///     skip downstream work between trials whose faults never hit
///     this buffer;
///   * changed_words() lists every word that may differ from what a
///     consumer last read (touched by a fault, or put back by a
///     restore) since the consumer's last mark_synced(), so a decoded
///     copy of the image can be patched word by word instead of being
///     rebuilt.
/// Mutations must therefore go through the apply() overloads, which
/// keep both records honest; live() is read-only.
class FaultableImage {
 public:
  FaultableImage() = default;
  /// Quantizes `values` into the live image and snapshots the words.
  FaultableImage(QFormat format, std::span<const float> values)
      : live_(format, values),
        golden_(live_.words().begin(), live_.words().end()),
        marks_(live_.size(), 0) {}

  const QVector& live() const noexcept { return live_; }
  std::size_t size() const noexcept { return live_.size(); }
  std::span<const Word> golden_words() const noexcept { return golden_; }

  /// True when a fault has been applied since the last restore (the
  /// live words may differ from the golden snapshot).
  bool dirty() const noexcept { return dirty_; }

  /// Restores the touched words from the golden snapshot; a clean
  /// image is left untouched.
  void restore();

  /// Words that may have changed since the last mark_synced(), each
  /// listed once, in no particular order.
  std::span<const std::uint32_t> changed_words() const noexcept {
    return changed_;
  }
  /// Empties changed_words(): the consumer has read every live word.
  void mark_synced() noexcept;

  /// Transient bit-flips applied once to the live image.
  void apply(const FaultMap& map) { apply(map, 0, size()); }
  /// Transient bit-flips applied once to the word range
  /// [begin, begin + count) of the live image (per-layer injection).
  void apply(const FaultMap& map, std::size_t begin, std::size_t count);
  /// Stuck-at overlay enforced on the live image.
  void apply(const StuckAtMask& mask);

 private:
  static constexpr std::uint8_t kTouched = 1;  // in touched_
  static constexpr std::uint8_t kChanged = 2;  // in changed_

  void touch(std::uint32_t word) {
    std::uint8_t& mark = marks_[word];
    if ((mark & kTouched) == 0) touched_.push_back(word);
    if ((mark & kChanged) == 0) changed_.push_back(word);
    mark = kTouched | kChanged;
  }

  QVector live_;
  std::vector<Word> golden_;
  std::vector<std::uint8_t> marks_;       // per word: kTouched | kChanged
  std::vector<std::uint32_t> touched_;    // differ from golden_ (maybe)
  std::vector<std::uint32_t> changed_;    // not yet read by the consumer
  bool dirty_ = false;
};

/// Applies a transient bit-flip fault map once to a quantized buffer.
void inject_transient(QVector& buffer, const FaultMap& map);

/// Dynamic injection: flips `round(ber * bits)` random bits across a
/// float tensor *through* its fixed-point encoding -- each hit value is
/// encoded, bit-flipped and decoded in place. This is the tensor-level
/// operation the paper uses to keep dynamic injection cheap.
/// Returns the number of bits flipped.
std::size_t inject_transient_values(std::span<float> values,
                                    const QFormat& format, double ber,
                                    Rng& rng);

/// Dynamic stuck-at enforcement over a float tensor: every value passes
/// through its encoding with the stuck bits forced. Used for permanent
/// activation faults, where the buffer is rewritten each step but the
/// cells stay broken.
void enforce_stuck_values(std::span<float> values, const QFormat& format,
                          const StuckAtMask& mask);

}  // namespace ftnav
