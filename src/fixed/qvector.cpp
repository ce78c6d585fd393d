#include "fixed/qvector.h"

#include <stdexcept>

namespace ftnav {

QVector::QVector(QFormat format, std::size_t size)
    : format_(format), words_(size, 0) {}

QVector::QVector(QFormat format, std::span<const float> values)
    : format_(format) {
  words_.reserve(values.size());
  for (float v : values) words_.push_back(format_.encode(v));
}

QVector::QVector(QFormat format, std::span<const double> values)
    : format_(format) {
  words_.reserve(values.size());
  for (double v : values) words_.push_back(format_.encode(v));
}

double QVector::get(std::size_t i) const {
  return format_.decode(words_.at(i));
}

void QVector::set(std::size_t i, double value) {
  words_.at(i) = format_.encode(value);
}

void QVector::set_word(std::size_t i, Word w) {
  words_.at(i) = w & format_.word_mask();
}

void QVector::decode_into(std::span<float> out) const {
  if (out.size() != words_.size())
    throw std::invalid_argument("QVector::decode_into: size mismatch");
  for (std::size_t i = 0; i < words_.size(); ++i)
    out[i] = static_cast<float>(format_.decode(words_[i]));
}

std::vector<double> QVector::decode_all() const {
  std::vector<double> out;
  out.reserve(words_.size());
  for (Word w : words_) out.push_back(format_.decode(w));
  return out;
}

void QVector::encode_from(std::span<const float> values) {
  if (values.size() != words_.size())
    throw std::invalid_argument("QVector::encode_from: size mismatch");
  for (std::size_t i = 0; i < words_.size(); ++i)
    words_[i] = format_.encode(values[i]);
}

void QVector::encode_from(std::span<const double> values) {
  if (values.size() != words_.size())
    throw std::invalid_argument("QVector::encode_from: size mismatch");
  for (std::size_t i = 0; i < words_.size(); ++i)
    words_[i] = format_.encode(values[i]);
}

}  // namespace ftnav
