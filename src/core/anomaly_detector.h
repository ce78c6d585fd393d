#pragma once
// Range-based anomaly detection (paper §5.2, Fig. 10).
//
// After training, the value range (a_i, b_i) of every protected buffer
// (per NN layer, or the whole Q-table) is instrumented. At inference
// each value is checked against the bounds widened by a 10% margin.
// Two cost-saving choices follow the paper exactly:
//   * detection is *value-level*, not bit-level: masked or tiny
//     deviations pass, only destructive out-of-range values trigger;
//   * only the sign and integer bits participate in the comparison,
//     so in hardware the check is a short integer compare.
// Recovery: a detected outlier is skipped -- the value is replaced with
// zero, exploiting NN sparsity (small-magnitude values are the likely
// victims of high-bit flips under two's complement).

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "fixed/qformat.h"

namespace ftnav {

/// Calibrated bounds for one protected buffer (e.g. one NN layer).
struct LayerBounds {
  double low = 0.0;
  double high = 0.0;
  /// Thresholds on the integer part (value >> fraction_bits) used by the
  /// deployed check; derived by finalize().
  std::int32_t raw_low = 0;
  std::int32_t raw_high = 0;
  bool calibrated = false;
};

class RangeAnomalyDetector {
 public:
  /// `margin` is the fractional widening applied to calibrated bounds
  /// (0.1 == the paper's 10%).
  RangeAnomalyDetector(QFormat format, std::size_t layer_count,
                       double margin = 0.1);

  const QFormat& format() const noexcept { return format_; }
  std::size_t layer_count() const noexcept { return bounds_.size(); }
  double margin() const noexcept { return margin_; }

  /// Expands layer `layer`'s bounds to cover `values` (fault-free pass).
  void calibrate(std::size_t layer, std::span<const float> values);
  void calibrate(std::size_t layer, double value);

  /// Converts calibrated float bounds into integer-part thresholds.
  /// Must be called after calibration and before checking.
  void finalize();
  bool finalized() const noexcept { return finalized_; }

  /// Word-level check: compares only the sign+integer bits of `word`
  /// against layer thresholds. Returns true when anomalous.
  bool is_anomalous_word(std::size_t layer, Word word) const;

  /// Value-level convenience check (same integer-part semantics).
  bool is_anomalous(std::size_t layer, double value) const;

  /// Recovery: returns `value`, or 0 if anomalous (operation skipped).
  /// Counts detections for telemetry.
  float filter(std::size_t layer, float value);

  /// Applies filter() across a tensor in place; returns detections.
  std::size_t filter_all(std::size_t layer, std::span<float> values);

  /// Tallies one filter_all() pass over `checks` values of which
  /// `detections` were anomalous, for callers that keep per-value
  /// results and re-check only the values that changed.
  void count_pass(std::uint64_t checks, std::uint64_t detections) noexcept {
    checks_ += checks;
    detections_ += detections;
  }

  const LayerBounds& bounds(std::size_t layer) const;
  std::uint64_t detections() const noexcept { return detections_; }
  std::uint64_t checks() const noexcept { return checks_; }
  void reset_counters() noexcept;

  std::string describe() const;

 private:
  /// Integer part of a value under the detector's format (arithmetic
  /// shift of the raw fixed-point encoding by fraction_bits).
  std::int32_t integer_part(double value) const noexcept;

  QFormat format_;
  double margin_;
  std::vector<LayerBounds> bounds_;
  bool finalized_ = false;
  std::uint64_t detections_ = 0;
  std::uint64_t checks_ = 0;
};

}  // namespace ftnav
