#pragma once
// QVector: a quantized buffer of fixed-point words.
//
// Every faultable store in ftnav -- the tabular Q-table, NN weight /
// input / activation buffers -- is a QVector. It is the single point
// where float values meet their bit-level encodings, so fault injection
// (bit flips, stuck-at masks) and anomaly detection (sign+integer-bit
// range checks) both operate on QVector words.

#include <cstddef>
#include <span>
#include <vector>

#include "fixed/qformat.h"

namespace ftnav {

class QVector {
 public:
  QVector() : format_(3, 4) {}
  QVector(QFormat format, std::size_t size);
  /// Quantizes `values` into a fresh buffer.
  QVector(QFormat format, std::span<const float> values);
  QVector(QFormat format, std::span<const double> values);

  const QFormat& format() const noexcept { return format_; }
  std::size_t size() const noexcept { return words_.size(); }
  bool empty() const noexcept { return words_.empty(); }

  /// Decoded value at `i` (bounds-checked).
  double get(std::size_t i) const;
  /// Encodes `value` into slot `i` (bounds-checked, saturating).
  void set(std::size_t i, double value);

  /// Unchecked decoded read -- hot loops only.
  double get_fast(std::size_t i) const noexcept {
    return format_.decode(words_[i]);
  }
  /// Unchecked encode-write -- hot loops only.
  void set_fast(std::size_t i, double value) noexcept {
    words_[i] = format_.encode(value);
  }

  /// Raw word access for fault injectors.
  std::span<Word> words() noexcept { return words_; }
  std::span<const Word> words() const noexcept { return words_; }
  Word word(std::size_t i) const { return words_.at(i); }
  void set_word(std::size_t i, Word w);

  /// Decodes the whole buffer into floats (e.g. feeding the NN engine).
  void decode_into(std::span<float> out) const;
  std::vector<double> decode_all() const;
  /// Re-encodes floats element-wise; sizes must match.
  void encode_from(std::span<const float> values);
  void encode_from(std::span<const double> values);

  /// Total number of bit positions in the buffer (size * total_bits):
  /// the denominator of the paper's bit error rate.
  std::size_t bit_count() const noexcept {
    return words_.size() * static_cast<std::size_t>(format_.total_bits());
  }

 private:
  QFormat format_;
  std::vector<Word> words_;
};

}  // namespace ftnav
