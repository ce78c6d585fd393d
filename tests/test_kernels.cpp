// Scalar-vs-SIMD bit-identity tests for the dispatched compute kernels
// (src/nn/kernels/), forward and backward. The SIMD backends claim
// *exact* equality with the scalar chain — not tolerance-based
// closeness — so every comparison here is on the float bit pattern.
// Forward inputs are genuine Q-format values (round-tripped through
// encode/decode) including the saturation edges; backward inputs are
// training-like floats with exact +0/-0 gradients. The geometry sweeps
// deliberately cross both the 4-lane (NEON) and 8-lane (AVX2)
// boundaries to exercise remainder handling, and the edges of AVX2's
// register tiles (4 output positions x 2 channel blocks for conv, 32
// outputs for dense) and its masked channel tails.
// Each SIMD backend runs the same matrix through its own fixture and
// GTEST_SKIPs on hosts that cannot execute it.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "core/injector.h"
#include "fixed/qvector.h"
#include "nn/kernels/kernels.h"
#include "util/rng.h"

namespace ftnav {
namespace {

using kernels::ConvShape;
using kernels::KernelOps;

std::uint32_t bits_of(float v) {
  std::uint32_t out;
  std::memcpy(&out, &v, sizeof(out));
  return out;
}

/// Random values already on the Q-format grid (as every buffer the
/// engine hands a kernel is), with the saturation edges spliced in.
std::vector<float> quantized_randoms(const QFormat& fmt, std::size_t count,
                                     std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> values(count);
  for (float& v : values)
    v = static_cast<float>(
        fmt.decode(fmt.encode(rng.normal(0.0, fmt.max_value() / 2))));
  if (count >= 2) {
    values[0] = static_cast<float>(fmt.max_value());
    values[1] = static_cast<float>(fmt.min_value());
  }
  return values;
}

void expect_bit_identical(const std::vector<float>& scalar,
                          const std::vector<float>& simd,
                          const char* what) {
  ASSERT_EQ(scalar.size(), simd.size());
  for (std::size_t i = 0; i < scalar.size(); ++i)
    ASSERT_EQ(bits_of(scalar[i]), bits_of(simd[i]))
        << what << " element " << i << ": scalar=" << scalar[i]
        << " simd=" << simd[i];
}

// ---- Backend-agnostic bit-identity matrices ------------------------------
// Each helper compares one SIMD backend against the scalar chain; the
// per-backend fixtures below run every matrix through both compiled-in
// backends.

void run_conv_shape_matrix(const KernelOps& simd) {
  const QFormat fmt = QFormat::q_1_4_11();
  const struct { int in_c, out_c, kernel, stride, out_h, out_w; } shapes[] = {
      {1, 1, 1, 1, 1, 1},    // degenerate
      {1, 2, 3, 1, 3, 3},    // out_w < 4: pure remainder for both widths
      {1, 2, 3, 1, 3, 7},    // out_w < 8: remainder for AVX2, 4+3 for NEON
      {2, 3, 3, 1, 4, 8},    // one AVX2 vector; two NEON vectors
      {3, 2, 3, 1, 5, 9},    // full vector(s) + 1 remainder column
      {2, 2, 5, 1, 2, 17},   // several vectors + 1 remainder
      {1, 2, 3, 2, 3, 7},    // strided + remainder
      {2, 2, 3, 2, 4, 9},    // strided + remainder
      {3, 4, 5, 2, 3, 16},   // strided; NEON channel path
      {2, 8, 3, 1, 2, 2},    // tiny feature map: one 8-channel block
      {3, 12, 3, 2, 3, 3},   // strided 8+4 channels, plane 9 = 2 tiles + 1
      {2, 19, 5, 1, 4, 5},   // 16 + masked 3 channels
      {1, 16, 1, 1, 6, 6},   // 1x1 kernel, pure channel vectorization
      // Planes that are not a multiple of the 4-position tile.
      {3, 16, 3, 1, 3, 3},   // 2 tiles (crossing rows) + 1 position
      {2, 16, 3, 2, 1, 3},   // no full tile: 3 single positions
      {4, 8, 3, 1, 2, 1},    // column map, 2 single positions
      // Block pairs plus a lone 8-channel block.
      {3, 24, 3, 1, 3, 5},   // 16 + 8
      {5, 40, 3, 2, 2, 3},   // 16 + 16 + 8
      // Masked channel tails at planes >= 4.
      {2, 3, 3, 1, 2, 3},    // one masked block of 3
      {2, 9, 3, 1, 2, 3},    // 8 + masked 1
      {3, 12, 3, 1, 4, 4},   // 8 + masked 4
      {2, 19, 3, 2, 3, 5},   // 16 + masked 3
      // The fast C3F2 conv layers (see make_c3f2).
      {3, 16, 5, 2, 18, 18},
      {16, 32, 3, 2, 4, 4},
      {32, 32, 3, 1, 2, 2},
      // The paper C3F2 conv layers.
      {3, 96, 7, 4, 25, 25},
      {96, 64, 5, 1, 8, 8},
      {64, 64, 3, 1, 6, 6},
  };
  for (const auto& g : shapes) {
    ConvShape s;
    s.in_c = g.in_c;
    s.out_c = g.out_c;
    s.kernel = g.kernel;
    s.stride = g.stride;
    s.out_h = g.out_h;
    s.out_w = g.out_w;
    s.in_h = (g.out_h - 1) * g.stride + g.kernel;
    s.in_w = (g.out_w - 1) * g.stride + g.kernel;
    const std::size_t wn = static_cast<std::size_t>(g.out_c) * g.in_c *
                           g.kernel * g.kernel;
    const std::size_t xn =
        static_cast<std::size_t>(g.in_c) * s.in_h * s.in_w;
    const std::size_t yn =
        static_cast<std::size_t>(g.out_c) * g.out_h * g.out_w;
    const auto w = quantized_randoms(fmt, wn, 100 + wn);
    const auto b = quantized_randoms(fmt, g.out_c, 200 + wn);
    const auto x = quantized_randoms(fmt, xn, 300 + xn);
    // Transposed copy wt[ic][kh][kw][oc], built exactly as the engine
    // builds it.
    std::vector<float> wt(wn);
    const int taps = g.in_c * g.kernel * g.kernel;
    for (int oc = 0; oc < g.out_c; ++oc)
      for (int t = 0; t < taps; ++t)
        wt[static_cast<std::size_t>(t) * g.out_c + oc] =
            w[static_cast<std::size_t>(oc) * taps + t];
    // y_simd carries 8 guard elements past the output: masked channel
    // tails must not store past out_c.
    std::vector<float> y_scalar(yn, -1.0f), y_simd(yn + 8, -2.0f);
    kernels::scalar_ops().conv2d(w.data(), nullptr, b.data(), x.data(),
                                 y_scalar.data(), s);
    simd.conv2d(w.data(), simd.conv_wants_transposed ? wt.data() : nullptr,
                b.data(), x.data(), y_simd.data(), s);
    SCOPED_TRACE("in_c=" + std::to_string(g.in_c) + " out_c=" +
                 std::to_string(g.out_c) + " out=" + std::to_string(g.out_h) +
                 "x" + std::to_string(g.out_w));
    for (std::size_t i = yn; i < y_simd.size(); ++i)
      ASSERT_EQ(y_simd[i], -2.0f) << "guard element " << i - yn;
    y_simd.resize(yn);
    expect_bit_identical(y_scalar, y_simd, "conv2d");
  }
}

void run_dense_width_matrix(const KernelOps& simd) {
  const QFormat fmt(3, 4);  // coarse grid: saturating sums
  for (const int in_f : {1, 5, 48, 128, 2304}) {
    for (const int out_f : {1, 3, 4, 7, 8, 9, 16, 25, 31, 32, 33, 40, 64, 128,
                            1024}) {
      const std::size_t wn = static_cast<std::size_t>(out_f) * in_f;
      const auto w = quantized_randoms(fmt, wn, 400 + wn);
      const auto b = quantized_randoms(fmt, out_f, 500 + wn);
      const auto x = quantized_randoms(fmt, in_f, 600 + in_f);
      // Transposed copy, built exactly as the engine builds it.
      std::vector<float> wt(wn);
      for (int o = 0; o < out_f; ++o)
        for (int i = 0; i < in_f; ++i)
          wt[static_cast<std::size_t>(i) * out_f + o] =
              w[static_cast<std::size_t>(o) * in_f + i];
      std::vector<float> y_scalar(out_f, -1.0f), y_simd(out_f + 8, -2.0f);
      kernels::scalar_ops().dense(w.data(), nullptr, b.data(), x.data(),
                                  y_scalar.data(), in_f, out_f);
      simd.dense(w.data(),
                 simd.dense_wants_transposed ? wt.data() : nullptr, b.data(),
                 x.data(), y_simd.data(), in_f, out_f);
      SCOPED_TRACE("in_f=" + std::to_string(in_f) +
                   " out_f=" + std::to_string(out_f));
      for (std::size_t i = out_f; i < y_simd.size(); ++i)
        ASSERT_EQ(y_simd[i], -2.0f) << "guard element " << i - out_f;
      y_simd.resize(out_f);
      expect_bit_identical(y_scalar, y_simd, "dense");
    }
  }
}

void run_relu_matrix(const KernelOps& simd) {
  for (const std::size_t n : {1u, 3u, 4u, 7u, 8u, 17u, 64u}) {
    std::vector<float> values = quantized_randoms(QFormat::q_1_4_11(), n, n);
    values[0] = -0.0f;  // scalar path yields +0.0 here; SIMD must too
    std::vector<float> scalar = values, simd_vals = values;
    kernels::scalar_ops().relu(scalar.data(), scalar.size());
    simd.relu(simd_vals.data(), simd_vals.size());
    expect_bit_identical(scalar, simd_vals, "relu");
    for (float v : scalar) EXPECT_GE(v, 0.0f);
    EXPECT_EQ(bits_of(scalar[0]), bits_of(0.0f));  // not -0.0
  }
}

/// Quantize edge values for `fmt`: NaNs, infinities, signed zeros,
/// negatives that round to zero, half-resolution ties on both sides
/// of zero, saturating magnitudes, float denormals, and random values
/// in and just beyond the format's range.
std::vector<float> quantize_probes(const QFormat& fmt, std::uint64_t seed) {
  const float res = static_cast<float>(fmt.resolution());
  const float max = static_cast<float>(fmt.max_value());
  const float min = static_cast<float>(fmt.min_value());
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  std::vector<float> values = {
      nan, -nan, inf, -inf, 0.0f, -0.0f,
      // Round to zero from below: the result must be +0.0.
      -0.2f * res, -0.5f * res, -0.49f * res, 0.5f * res, 0.2f * res,
      // Ties to even away from zero.
      1.5f * res, 2.5f * res, -1.5f * res, -2.5f * res, 7.5f * res,
      -7.5f * res, 1000.5f * res, -1000.5f * res,
      // Saturation.
      max, min, max + res, min - res, max + 0.5f * res, min - 0.5f * res,
      1e30f, -1e30f, std::numeric_limits<float>::max(),
      std::numeric_limits<float>::lowest(),
      // Denormals and the smallest normals.
      std::numeric_limits<float>::denorm_min(),
      -std::numeric_limits<float>::denorm_min(), 1e-40f, -1e-40f,
      std::numeric_limits<float>::min(), -std::numeric_limits<float>::min()};
  Rng rng(seed);
  for (int i = 0; i < 64; ++i)
    values.push_back(static_cast<float>(rng.normal(0.0, 1.5 * max)));
  return values;
}

/// ops.quantize must equal QFormat::quantize on every element, bit for
/// bit, for every paper format in both encodings, at lengths that leave
/// a remainder for 4-, 8- and 16-wide vectors.
void run_quantize_matrix(const KernelOps& ops) {
  const QFormat formats[] = {QFormat::q_1_4_11(), QFormat::q_1_7_8(),
                             QFormat::q_1_10_5(), QFormat::grid_world_8bit()};
  std::uint64_t seed = 900;
  for (const QFormat& base : formats) {
    for (const Encoding encoding :
         {Encoding::kTwosComplement, Encoding::kSignMagnitude}) {
      const QFormat fmt = base.with_encoding(encoding);
      const std::vector<float> probes = quantize_probes(fmt, ++seed);
      for (const std::size_t n :
           {std::size_t{0}, std::size_t{1}, std::size_t{3}, std::size_t{5},
            std::size_t{7}, std::size_t{13}, std::size_t{31}, probes.size()}) {
        // Rotate the probes so every edge value visits several lanes.
        for (std::size_t rot = 0; rot < (n == probes.size() ? 5 : 1);
             ++rot) {
          std::vector<float> input(n);
          for (std::size_t i = 0; i < n; ++i)
            input[i] = probes[(i + rot * 7 + n) % probes.size()];
          std::vector<float> expected = input;
          for (float& v : expected) v = fmt.quantize(v);
          std::vector<float> got = input;
          ops.quantize(got.data(), got.size(), fmt);
          SCOPED_TRACE(fmt.name() + " n=" + std::to_string(n) +
                       " rot=" + std::to_string(rot));
          expect_bit_identical(expected, got, "quantize");
        }
      }
      // Everything that rounds to zero comes out +0.0, never -0.0.
      const float res = static_cast<float>(fmt.resolution());
      std::vector<float> zeros = {-0.0f, -0.2f * res, -0.5f * res, 0.0f,
                                  std::numeric_limits<float>::quiet_NaN()};
      ops.quantize(zeros.data(), zeros.size(), fmt);
      for (const float v : zeros) EXPECT_EQ(bits_of(v), bits_of(0.0f));
    }
  }
}

/// ops.maxpool2d must equal the scalar pool, outputs and argmax
/// indices, on odd planes, windows 2 and 3, and inputs with -inf, NaN,
/// signed-zero ties and whole windows of -inf or NaN (argmax 0).
void run_maxpool_matrix(const KernelOps& ops) {
  const QFormat fmt = QFormat::q_1_4_11();
  const struct { int channels, in_h, in_w, window; } shapes[] = {
      {1, 2, 2, 2},   {1, 5, 7, 2},   {2, 9, 9, 2},   {3, 7, 17, 2},
      {1, 4, 33, 2},  {2, 3, 35, 2},  {16, 18, 18, 2}, {96, 25, 25, 2},
      {1, 3, 3, 3},   {2, 7, 11, 3},  {3, 10, 26, 3}, {2, 9, 50, 3},
      {1, 5, 5, 1},   {2, 4, 19, 1},
  };
  std::uint64_t seed = 1300;
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  for (const auto& g : shapes) {
    const std::size_t in_n =
        static_cast<std::size_t>(g.channels) * g.in_h * g.in_w;
    const std::size_t out_n = static_cast<std::size_t>(g.channels) *
                              (g.in_h / g.window) * (g.in_w / g.window);
    std::vector<float> x = quantized_randoms(fmt, in_n, ++seed);
    Rng rng(++seed);
    for (float& v : x) {
      const std::uint64_t pick = rng.below(16);
      if (pick == 0) v = -inf;
      else if (pick == 1) v = nan;
      else if (pick == 2) v = 0.0f;
      else if (pick == 3) v = -0.0f;
    }
    // The first two windows are all -inf and all NaN: no element
    // beats -inf there.
    const bool edge_windows = g.window > 1 && g.in_w / g.window >= 2;
    for (int kh = 0; edge_windows && kh < g.window; ++kh)
      for (int kw = 0; kw < g.window; ++kw) {
        x[static_cast<std::size_t>(kh) * g.in_w + kw] = -inf;
        x[static_cast<std::size_t>(kh) * g.in_w + g.window + kw] = nan;
      }
    const auto run = [&](const KernelOps& backend, bool with_argmax) {
      std::vector<float> y(out_n, 123.0f);
      std::vector<std::uint32_t> argmax(with_argmax ? out_n : 0, 77);
      backend.maxpool2d(x.data(), y.data(),
                        with_argmax ? argmax.data() : nullptr, g.channels,
                        g.in_h, g.in_w, g.window);
      return std::make_pair(y, argmax);
    };
    SCOPED_TRACE("c=" + std::to_string(g.channels) + " h=" +
                 std::to_string(g.in_h) + " w=" + std::to_string(g.in_w) +
                 " window=" + std::to_string(g.window));
    for (const bool with_argmax : {false, true}) {
      const auto expected = run(kernels::scalar_ops(), with_argmax);
      const auto got = run(ops, with_argmax);
      expect_bit_identical(expected.first, got.first, "maxpool");
      ASSERT_EQ(expected.second, got.second) << "maxpool argmax";
    }
    if (edge_windows) {
      const auto pooled = run(ops, true);
      EXPECT_EQ(bits_of(pooled.first[0]), bits_of(-inf));
      EXPECT_EQ(pooled.second[0], 0u);
      EXPECT_EQ(bits_of(pooled.first[1]), bits_of(-inf));
      EXPECT_EQ(pooled.second[1], 0u);
    }
  }
}

void run_faulted_dense(const KernelOps& simd) {
  // Faulted weights leave the "nice" trained distribution: bit flips
  // produce saturated magnitudes and sign flips. The backends must
  // still agree exactly.
  const QFormat fmt = QFormat::q_1_4_11();
  const int in_f = 19, out_f = 11;
  QVector image(fmt, quantized_randoms(fmt, static_cast<std::size_t>(in_f) *
                                                out_f,
                                       7));
  Rng fault_rng(8);
  FaultMap map = FaultMap::sample(FaultType::kTransientFlip, 0.05,
                                  image.size(), fmt.total_bits(), fault_rng);
  map.apply_once(image.words());
  // Stuck-at-1 on top, compiled exactly like the engine applies it.
  FaultMap stuck = FaultMap::sample(FaultType::kStuckAt1, 0.03, image.size(),
                                    fmt.total_bits(), fault_rng);
  StuckAtMask::compile(stuck).apply(image);

  std::vector<float> w(image.size());
  image.decode_into(w);
  std::vector<float> wt(w.size());
  for (int o = 0; o < out_f; ++o)
    for (int i = 0; i < in_f; ++i)
      wt[static_cast<std::size_t>(i) * out_f + o] =
          w[static_cast<std::size_t>(o) * in_f + i];
  const auto b = quantized_randoms(fmt, out_f, 9);
  const auto x = quantized_randoms(fmt, in_f, 10);
  std::vector<float> y_scalar(out_f), y_simd(out_f);
  kernels::scalar_ops().dense(w.data(), nullptr, b.data(), x.data(),
                              y_scalar.data(), in_f, out_f);
  simd.dense(w.data(), simd.dense_wants_transposed ? wt.data() : nullptr,
             b.data(), x.data(), y_simd.data(), in_f, out_f);
  expect_bit_identical(y_scalar, y_simd, "faulted dense");
}

/// kernels::dense_gather followed by a quantize equals the backend's
/// dense followed by the same quantize, bit for bit, on one-hot,
/// all-zero, few-hot, signed-zero and denormal inputs, for weight images with
/// sign-magnitude -0 words (which decode to +0) in both encodings, and
/// for float -0.0 biases, the one way a zero sum can take either sign.
void run_dense_gather_matrix(const KernelOps& ops) {
  std::uint64_t seed = 1500;
  bool saw_signed_zero_difference = false;
  for (const QFormat& base : {QFormat::grid_world_weights(),
                              QFormat::q_1_4_11()}) {
    for (const Encoding encoding :
         {Encoding::kTwosComplement, Encoding::kSignMagnitude}) {
      const QFormat fmt = base.with_encoding(encoding);
      const Word negative_zero = Word{1} << fmt.sign_bit();
      for (const int in_f : {100, 128, 2304}) {
        for (const int out_f : {1, 4, 9, 48}) {
          const std::size_t wn = static_cast<std::size_t>(out_f) * in_f;
          // Weights and biases as the engine holds them: decoded words,
          // every 5th one the sign-magnitude -0 pattern (or plain 0).
          QVector image(fmt, quantized_randoms(fmt, wn + out_f, ++seed));
          for (std::size_t i = 0; i < image.size(); i += 5)
            image.set_word(i, encoding == Encoding::kSignMagnitude
                                  ? negative_zero
                                  : Word{0});
          std::vector<float> decoded(image.size());
          image.decode_into(decoded);
          const std::vector<float> w(decoded.begin(),
                                     decoded.begin() + wn);
          std::vector<float> bias(decoded.begin() + wn, decoded.end());
          bias[0] = -0.0f;
          std::vector<float> wt(wn);
          kernels::transpose(w.data(), wt.data(), out_f, in_f);

          std::vector<std::vector<float>> inputs;
          for (const int hot : {0, in_f / 2, in_f - 1}) {
            std::vector<float> x(in_f, 0.0f);
            x[hot] = hot == 0 ? -1.0f : 1.0f;
            inputs.push_back(x);
          }
          inputs.emplace_back(in_f, 0.0f);
          inputs.emplace_back(in_f, -0.0f);
          std::vector<float> few_hot(in_f, -0.0f);
          few_hot[1] = 0.5f;
          few_hot[in_f / 3] = -2.0f;
          few_hot[in_f - 2] = 1.0f;
          inputs.push_back(few_hot);
          std::vector<float> signed_one_hot(in_f, -0.0f);
          signed_one_hot[in_f / 4] = 1.0f;
          inputs.push_back(signed_one_hot);
          // The smallest magnitudes are nonzero inputs too.
          std::vector<float> denormals(in_f, 0.0f);
          denormals[in_f / 5] = std::numeric_limits<float>::denorm_min();
          denormals[in_f - 3] = -std::numeric_limits<float>::denorm_min();
          inputs.push_back(denormals);

          for (std::size_t k = 0; k < inputs.size(); ++k) {
            const std::vector<float>& x = inputs[k];
            std::vector<float> y_dense(out_f), y_gather(out_f),
                y_gather_wt(out_f);
            ops.dense(w.data(), ops.dense_wants_transposed ? wt.data()
                                                           : nullptr,
                      bias.data(), x.data(), y_dense.data(), in_f, out_f);
            kernels::dense_gather(w.data(), nullptr, bias.data(), x.data(),
                                  y_gather.data(), in_f, out_f);
            kernels::dense_gather(w.data(), wt.data(), bias.data(),
                                  x.data(), y_gather_wt.data(), in_f, out_f);
            SCOPED_TRACE(fmt.name() + " in_f=" + std::to_string(in_f) +
                         " out_f=" + std::to_string(out_f) +
                         " input " + std::to_string(k));
            for (int o = 0; o < out_f; ++o) {
              // Before the quantize the two agree up to a zero's sign.
              ASSERT_EQ(y_dense[o], y_gather[o]) << "output " << o;
              if (bits_of(y_dense[o]) != bits_of(y_gather[o]))
                saw_signed_zero_difference = true;
            }
            expect_bit_identical(y_gather, y_gather_wt, "gather via wt");
            ops.quantize(y_dense.data(), y_dense.size(), fmt);
            ops.quantize(y_gather.data(), y_gather.size(), fmt);
            expect_bit_identical(y_dense, y_gather, "quantized gather");
          }
        }
      }
    }
  }
  // The -0.0 bias meets a +0 term somewhere: the quantize is what
  // makes the gather exact, and this matrix reaches that case.
  EXPECT_TRUE(saw_signed_zero_difference);
}

// ---- Backward entries ------------------------------------------------------

/// Conv geometry given by its input; out_h/out_w follow.
ConvShape conv_geometry(int in_c, int in_hw, int out_c, int kernel,
                        int stride) {
  ConvShape s;
  s.in_c = in_c;
  s.in_h = s.in_w = in_hw;
  s.out_c = out_c;
  s.out_h = s.out_w = (in_hw - kernel) / stride + 1;
  s.kernel = kernel;
  s.stride = stride;
  return s;
}

/// The three conv layers of the fast and the paper C3F2 presets (see
/// make_c3f2), plus shapes whose channel counts leave SIMD remainders.
std::vector<ConvShape> backward_conv_shapes() {
  return {
      conv_geometry(3, 39, 16, 5, 2),   // fast Conv1
      conv_geometry(16, 9, 32, 3, 2),   // fast Conv2
      conv_geometry(32, 4, 32, 3, 1),   // fast Conv3
      conv_geometry(3, 103, 96, 7, 4),  // paper Conv1
      conv_geometry(96, 12, 64, 5, 1),  // paper Conv2
      conv_geometry(64, 8, 64, 3, 1),   // paper Conv3
      conv_geometry(19, 7, 5, 3, 2),    // 8-channel vectors + 3 remainder
      conv_geometry(9, 5, 3, 1, 1),     // 1x1 kernel, taps below 8
  };
}

std::size_t input_count(const ConvShape& s) {
  return static_cast<std::size_t>(s.in_c) * s.in_h * s.in_w;
}
std::size_t output_count(const ConvShape& s) {
  return static_cast<std::size_t>(s.out_c) * s.out_h * s.out_w;
}
std::size_t weight_count(const ConvShape& s) {
  return static_cast<std::size_t>(s.out_c) * s.in_c * s.kernel * s.kernel;
}

/// Output gradients as training produces them: about half exact zeros
/// (ReLU and max-pool routing), a share of them -0.0.
std::vector<float> sparse_gradients(std::size_t count, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> g(count);
  for (float& v : g) {
    const double u = rng.uniform();
    v = u < 0.35 ? 0.0f
        : u < 0.5 ? -0.0f
                  : static_cast<float>(rng.normal(0.0, 0.05));
  }
  return g;
}

std::vector<float> normals(std::size_t count, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> values(count);
  for (float& v : values) v = static_cast<float>(rng.normal(0.0, 1.0));
  return values;
}

/// Runs both conv backward entries of `ops` on one case, accumulating
/// into the given starting buffers (the entries add, never overwrite).
struct ConvGrads {
  std::vector<float> dw, db, dx;
};
ConvGrads conv_backward(const KernelOps& ops, const ConvShape& s,
                        const std::vector<float>& dy,
                        const std::vector<float>& x,
                        const std::vector<float>& w, ConvGrads start) {
  ops.conv2d_weight_grad(dy.data(), x.data(), start.dw.data(),
                         start.db.data(), s);
  ops.conv2d_input_grad(dy.data(), w.data(), start.dx.data(), s);
  return start;
}

void run_conv_backward_matrix(const KernelOps& simd) {
  std::uint64_t seed = 1000;
  for (const ConvShape& s : backward_conv_shapes()) {
    const auto dy = sparse_gradients(output_count(s), ++seed);
    const auto x = normals(input_count(s), ++seed);
    const auto w = normals(weight_count(s), ++seed);
    const ConvGrads start{normals(weight_count(s), ++seed),
                          normals(static_cast<std::size_t>(s.out_c), ++seed),
                          normals(input_count(s), ++seed)};
    const ConvGrads scalar =
        conv_backward(kernels::scalar_ops(), s, dy, x, w, start);
    const ConvGrads vec = conv_backward(simd, s, dy, x, w, start);
    SCOPED_TRACE("in_c=" + std::to_string(s.in_c) + " in_hw=" +
                 std::to_string(s.in_h) + " out_c=" + std::to_string(s.out_c));
    expect_bit_identical(scalar.dw, vec.dw, "conv weight grad");
    expect_bit_identical(scalar.db, vec.db, "conv bias grad");
    expect_bit_identical(scalar.dx, vec.dx, "conv input grad");
  }
}

void run_conv_backward_zero_gradient_terms(const KernelOps& ops) {
  // An inf input covered only by outputs whose g is +0 or -0, and an
  // inf weight in a channel whose g is all zeros: those terms add
  // nothing, so no NaN appears and untouched elements keep their -0.0.
  const ConvShape s = conv_geometry(16, 9, 32, 3, 2);
  auto dy = sparse_gradients(output_count(s), 7);
  auto x = normals(input_count(s), 8);
  auto w = normals(weight_count(s), 9);
  const int ih = 4, iw = 4;  // input element (ic 5, 4, 4)
  x[(static_cast<std::size_t>(5) * s.in_h + ih) * s.in_w + iw] =
      std::numeric_limits<float>::infinity();
  const std::size_t plane = static_cast<std::size_t>(s.out_h) * s.out_w;
  for (int oc = 0; oc < s.out_c; ++oc)
    for (int oh = 0; oh < s.out_h; ++oh)
      for (int ow = 0; ow < s.out_w; ++ow) {
        const bool covers = ih - oh * s.stride >= 0 &&
                            ih - oh * s.stride < s.kernel &&
                            iw - ow * s.stride >= 0 &&
                            iw - ow * s.stride < s.kernel;
        if (covers || oc == 3)
          dy[oc * plane + static_cast<std::size_t>(oh) * s.out_w + ow] =
              (oh + ow) % 2 == 0 ? 0.0f : -0.0f;
      }
  const std::size_t taps = static_cast<std::size_t>(s.in_c) * 9;
  w[3 * taps + 10] = std::numeric_limits<float>::infinity();
  const ConvGrads start{
      std::vector<float>(weight_count(s), -0.0f),
      std::vector<float>(static_cast<std::size_t>(s.out_c), -0.0f),
      std::vector<float>(input_count(s), -0.0f)};
  const ConvGrads scalar =
      conv_backward(kernels::scalar_ops(), s, dy, x, w, start);
  const ConvGrads got = conv_backward(ops, s, dy, x, w, start);
  expect_bit_identical(scalar.dw, got.dw, "conv weight grad");
  expect_bit_identical(scalar.db, got.db, "conv bias grad");
  expect_bit_identical(scalar.dx, got.dx, "conv input grad");
  for (const auto* grads : {&got.dw, &got.db, &got.dx})
    for (const float v : *grads) ASSERT_TRUE(std::isfinite(v));
  for (std::size_t t = 0; t < taps; ++t)  // channel 3: every g is zero
    ASSERT_EQ(bits_of(got.dw[3 * taps + t]), bits_of(-0.0f)) << "tap " << t;
  EXPECT_EQ(bits_of(got.db[3]), bits_of(-0.0f));
}

void run_dense_backward_matrix(const KernelOps& simd) {
  std::uint64_t seed = 2000;
  for (const int in_f : {1, 5, 8, 48, 128, 2304}) {
    for (const int out_f : {1, 4, 9, 25, 128}) {
      const std::size_t wn = static_cast<std::size_t>(in_f) * out_f;
      auto dy = sparse_gradients(static_cast<std::size_t>(out_f), ++seed);
      auto x = normals(static_cast<std::size_t>(in_f), ++seed);
      auto w = normals(wn, ++seed);
      if (out_f > 1) {  // an inf weight and input under g == 0
        dy[1] = -0.0f;
        w[static_cast<std::size_t>(in_f)] =
            std::numeric_limits<float>::infinity();
      }
      const auto dw0 = normals(wn, ++seed);
      const auto db0 = normals(static_cast<std::size_t>(out_f), ++seed);
      const auto dx0 = normals(static_cast<std::size_t>(in_f), ++seed);
      auto run = [&](const KernelOps& ops) {
        ConvGrads out{dw0, db0, dx0};
        ops.dense_weight_grad(dy.data(), x.data(), out.dw.data(),
                              out.db.data(), in_f, out_f);
        ops.dense_input_grad(dy.data(), w.data(), out.dx.data(), in_f,
                             out_f);
        return out;
      };
      const ConvGrads scalar = run(kernels::scalar_ops());
      const ConvGrads vec = run(simd);
      SCOPED_TRACE("in_f=" + std::to_string(in_f) +
                   " out_f=" + std::to_string(out_f));
      expect_bit_identical(scalar.dw, vec.dw, "dense weight grad");
      expect_bit_identical(scalar.db, vec.db, "dense bias grad");
      expect_bit_identical(scalar.dx, vec.dx, "dense input grad");
      for (const float v : vec.dx) ASSERT_TRUE(std::isfinite(v));
    }
  }
}

// ---- AVX2 ----------------------------------------------------------------

class Avx2BitIdentity : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!kernels::avx2_supported())
      GTEST_SKIP() << "AVX2 backend unavailable on this host";
    simd_ = kernels::avx2_ops();
    ASSERT_NE(simd_, nullptr);
  }
  const KernelOps* simd_ = nullptr;
};

TEST_F(Avx2BitIdentity, ConvAcrossShapesAndRemainderLanes) {
  run_conv_shape_matrix(*simd_);
}

TEST_F(Avx2BitIdentity, DenseAcrossWidthsAndRemainderLanes) {
  run_dense_width_matrix(*simd_);
}

TEST_F(Avx2BitIdentity, ReluIncludingSignedZeroAndRemainder) {
  run_relu_matrix(*simd_);
}

TEST_F(Avx2BitIdentity, QuantizeMatchesQFormatOnEdgeValues) {
  run_quantize_matrix(*simd_);
}

TEST_F(Avx2BitIdentity, MaxPoolAcrossWindowsAndOddPlanes) {
  run_maxpool_matrix(*simd_);
}

TEST_F(Avx2BitIdentity, FaultedWeightImagesStayBitIdentical) {
  run_faulted_dense(*simd_);
}

TEST_F(Avx2BitIdentity, DenseGatherThenQuantizeMatchesDense) {
  run_dense_gather_matrix(*simd_);
}

TEST_F(Avx2BitIdentity, ConvBackwardOnC3F2Shapes) {
  run_conv_backward_matrix(*simd_);
}

TEST_F(Avx2BitIdentity, ConvBackwardSkipsZeroGradientTerms) {
  run_conv_backward_zero_gradient_terms(*simd_);
}

TEST_F(Avx2BitIdentity, DenseBackwardAcrossWidths) {
  run_dense_backward_matrix(*simd_);
}

// ---- NEON ----------------------------------------------------------------

class NeonBitIdentity : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!kernels::neon_supported())
      GTEST_SKIP() << "NEON backend unavailable on this host";
    simd_ = kernels::neon_ops();
    ASSERT_NE(simd_, nullptr);
  }
  const KernelOps* simd_ = nullptr;
};

TEST_F(NeonBitIdentity, ConvAcrossShapesAndRemainderLanes) {
  run_conv_shape_matrix(*simd_);
}

TEST_F(NeonBitIdentity, DenseAcrossWidthsAndRemainderLanes) {
  run_dense_width_matrix(*simd_);
}

TEST_F(NeonBitIdentity, ReluIncludingSignedZeroAndRemainder) {
  run_relu_matrix(*simd_);
}

TEST_F(NeonBitIdentity, QuantizeMatchesQFormatOnEdgeValues) {
  run_quantize_matrix(*simd_);
}

TEST_F(NeonBitIdentity, MaxPoolAcrossWindowsAndOddPlanes) {
  run_maxpool_matrix(*simd_);
}

TEST_F(NeonBitIdentity, FaultedWeightImagesStayBitIdentical) {
  run_faulted_dense(*simd_);
}

TEST_F(NeonBitIdentity, DenseGatherThenQuantizeMatchesDense) {
  run_dense_gather_matrix(*simd_);
}

TEST_F(NeonBitIdentity, ConvBackwardOnC3F2Shapes) {
  run_conv_backward_matrix(*simd_);
}

TEST_F(NeonBitIdentity, ConvBackwardSkipsZeroGradientTerms) {
  run_conv_backward_zero_gradient_terms(*simd_);
}

TEST_F(NeonBitIdentity, DenseBackwardAcrossWidths) {
  run_dense_backward_matrix(*simd_);
}

// ---- Dispatch ------------------------------------------------------------

TEST(Kernels, ResolveBackendNamesAndErrors) {
  EXPECT_STREQ(kernels::resolve_backend("scalar").name, "scalar");
  EXPECT_THROW(kernels::resolve_backend("sve"), std::invalid_argument);
  if (kernels::avx2_supported())
    EXPECT_STREQ(kernels::resolve_backend("avx2").name, "avx2");
  else
    EXPECT_THROW(kernels::resolve_backend("avx2"), std::runtime_error);
  if (kernels::neon_supported())
    EXPECT_STREQ(kernels::resolve_backend("neon").name, "neon");
  else
    EXPECT_THROW(kernels::resolve_backend("neon"), std::runtime_error);
  const KernelOps& resolved = kernels::resolve_backend("auto");
  if (kernels::avx2_supported())
    EXPECT_STREQ(resolved.name, "avx2");
  else if (kernels::neon_supported())
    EXPECT_STREQ(resolved.name, "neon");
  else
    EXPECT_STREQ(resolved.name, "scalar");
}

TEST(Kernels, ScopedBackendOverridesActive) {
  {
    kernels::ScopedKernelBackend pin(kernels::scalar_ops());
    EXPECT_STREQ(kernels::active().name, "scalar");
  }
  if (kernels::avx2_supported()) {
    kernels::ScopedKernelBackend pin(*kernels::avx2_ops());
    EXPECT_STREQ(kernels::active().name, "avx2");
  }
  if (kernels::neon_supported()) {
    kernels::ScopedKernelBackend pin(*kernels::neon_ops());
    EXPECT_STREQ(kernels::active().name, "neon");
  }
}

TEST(Kernels, ScalarConvBackwardSkipsZeroGradientTerms) {
  run_conv_backward_zero_gradient_terms(kernels::scalar_ops());
}

TEST(Kernels, ScalarDenseGatherThenQuantizeMatchesDense) {
  run_dense_gather_matrix(kernels::scalar_ops());
}

TEST(Kernels, TransposeSwapsRowsAndColumns) {
  const std::vector<float> w = {1, 2, 3, 4, 5, 6};  // 2 rows x 3 cols
  std::vector<float> wt(6);
  kernels::transpose(w.data(), wt.data(), 2, 3);
  EXPECT_EQ(wt, (std::vector<float>{1, 4, 2, 5, 3, 6}));
}

TEST(Kernels, ScalarQuantizeMatchesQFormatOnEdgeValues) {
  run_quantize_matrix(kernels::scalar_ops());
}

TEST(Kernels, QuantizeRoundsEveryElement) {
  const QFormat fmt(3, 4);
  std::vector<float> values = {0.3f, -0.3f, 100.0f};
  kernels::active().quantize(values.data(), values.size(), fmt);
  EXPECT_FLOAT_EQ(values[0], 0.3125f);
  EXPECT_FLOAT_EQ(values[1], -0.3125f);
  EXPECT_FLOAT_EQ(values[2], 7.9375f);
}

TEST(Kernels, QuantizeIdempotentOnRepresentable) {
  const QFormat fmt(4, 11);
  std::vector<float> values = {1.5f, -2.25f};
  kernels::active().quantize(values.data(), values.size(), fmt);
  const auto once = values;
  kernels::active().quantize(values.data(), values.size(), fmt);
  EXPECT_EQ(values, once);
}

TEST(Kernels, MaxPoolSelectsFirstOfEqualMaxima) {
  // 2x2 windows over one channel; ties must resolve to the first
  // element in scan order (strict > comparison).
  const std::vector<float> x = {
      1.0f, 1.0f, -2.0f, 0.5f,  //
      0.0f, 1.0f, 0.5f,  0.5f,  //
      -1.f, -1.f, -0.5f, -4.f,  //
      -1.f, -1.f, -8.0f, -0.5f,
  };
  std::vector<float> y(4);
  std::vector<std::uint32_t> argmax(4);
  kernels::scalar_ops().maxpool2d(x.data(), y.data(), argmax.data(), 1, 4,
                                  4, 2);
  EXPECT_EQ(y[0], 1.0f);
  EXPECT_EQ(y[1], 0.5f);
  EXPECT_EQ(y[2], -1.0f);
  EXPECT_EQ(y[3], -0.5f);
  EXPECT_EQ(argmax, (std::vector<std::uint32_t>{0, 3, 8, 10}));
}

}  // namespace
}  // namespace ftnav
