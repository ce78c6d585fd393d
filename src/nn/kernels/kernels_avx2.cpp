// AVX2 kernel backend.
//
// Vectorizes across INDEPENDENT output elements (8 float lanes), so
// each lane executes exactly the scalar backend's accumulation chain
// for its element. Conv and dense both read transposed weight copies
// (contiguous across output channels / output features), broadcasting
// one input value per tap: vmulps + vaddps with no gathers (no FMA:
// this TU is compiled with -ffp-contract=off, and -mavx2 does not
// enable FMA codegen). IEEE-754 single-precision mul/add are identical
// scalar vs vector, so results are bit-identical to the scalar
// backend; conv remainder elements (sizes not divisible by 8) run the
// scalar chain directly, and dense runs its remainder as one masked
// vector.
//
// The conv backward kernels (training) vectorize across elements that
// share one output gradient g: the taps of a weight row, or the input
// channels of one tap. A zero g then skips all 8 lanes, exactly as the
// scalar loop's `continue` does.
//
// This TU is the only one compiled with -mavx2 (x86 builds only; see
// CMakeLists.txt). On other architectures it compiles to a stub that
// reports the backend as unavailable.

#include "nn/kernels/kernels.h"

#if defined(__AVX2__)

#include <immintrin.h>

#include <vector>

namespace ftnav::kernels {

namespace {

void conv2d_avx2(const float* w, const float* wt, const float* bias,
                 const float* x, float* y, const ConvShape& s) {
  if (s.out_c >= 8 && wt != nullptr) {
    // Lane j handles output channel oc+j at a fixed spatial position,
    // through the transposed weights wt[ic][kh][kw][oc] (contiguous
    // across output channels for a fixed tap): broadcast one input
    // value, load 8 neighboring output-channel weights, vmulps +
    // vaddps. No gathers regardless of stride, and full lanes even
    // when the output feature map is tiny (late conv stages) -- the
    // geometry where column vectorization runs mostly scalar.
    const std::size_t plane = static_cast<std::size_t>(s.out_h) * s.out_w;
    for (int oh = 0; oh < s.out_h; ++oh) {
      for (int ow = 0; ow < s.out_w; ++ow) {
        const int ih0 = oh * s.stride;
        const int iw0 = ow * s.stride;
        int oc = 0;
        for (; oc + 8 <= s.out_c; oc += 8) {
          __m256 acc = _mm256_loadu_ps(bias + oc);
          const float* wp = wt + oc;
          for (int ic = 0; ic < s.in_c; ++ic) {
            for (int kh = 0; kh < s.kernel; ++kh) {
              const float* xrow =
                  x + (static_cast<std::size_t>(ic) * s.in_h + (ih0 + kh)) *
                          s.in_w +
                  iw0;
              for (int kw = 0; kw < s.kernel; ++kw) {
                const __m256 wv = _mm256_loadu_ps(wp);
                const __m256 xv = _mm256_broadcast_ss(xrow + kw);
                acc = _mm256_add_ps(acc, _mm256_mul_ps(wv, xv));
                wp += s.out_c;
              }
            }
          }
          alignas(32) float lanes[8];
          _mm256_store_ps(lanes, acc);
          float* ybase = y + static_cast<std::size_t>(oc) * plane +
                         static_cast<std::size_t>(oh) * s.out_w + ow;
          for (int j = 0; j < 8; ++j)
            ybase[static_cast<std::size_t>(j) * plane] = lanes[j];
        }
        // Remainder output channels: the scalar chain verbatim.
        for (; oc < s.out_c; ++oc) {
          float acc = bias[oc];
          for (int ic = 0; ic < s.in_c; ++ic) {
            for (int kh = 0; kh < s.kernel; ++kh) {
              const float* wrow =
                  w + ((static_cast<std::size_t>(oc) * s.in_c + ic) *
                           s.kernel +
                       kh) *
                          s.kernel;
              const float* xrow =
                  x + (static_cast<std::size_t>(ic) * s.in_h + (ih0 + kh)) *
                          s.in_w +
                  iw0;
              for (int kw = 0; kw < s.kernel; ++kw)
                acc += wrow[kw] * xrow[kw];
            }
          }
          y[static_cast<std::size_t>(oc) * plane +
            static_cast<std::size_t>(oh) * s.out_w + ow] = acc;
        }
      }
    }
    return;
  }
  // Narrow-out_c fallback: lane j handles output column ow+j, reading
  // input column (ow+j)*stride + kw: contiguous for stride 1, a gather
  // otherwise.
  const __m256i gather_index = _mm256_setr_epi32(
      0, s.stride, 2 * s.stride, 3 * s.stride, 4 * s.stride, 5 * s.stride,
      6 * s.stride, 7 * s.stride);
  for (int oc = 0; oc < s.out_c; ++oc) {
    for (int oh = 0; oh < s.out_h; ++oh) {
      const int ih0 = oh * s.stride;
      float* yrow = y + (static_cast<std::size_t>(oc) * s.out_h + oh) * s.out_w;
      int ow = 0;
      for (; ow + 8 <= s.out_w; ow += 8) {
        __m256 acc = _mm256_broadcast_ss(bias + oc);
        const int iw0 = ow * s.stride;
        for (int ic = 0; ic < s.in_c; ++ic) {
          for (int kh = 0; kh < s.kernel; ++kh) {
            const float* wrow =
                w + ((static_cast<std::size_t>(oc) * s.in_c + ic) * s.kernel +
                     kh) *
                        s.kernel;
            const float* xrow =
                x + (static_cast<std::size_t>(ic) * s.in_h + (ih0 + kh)) *
                        s.in_w +
                iw0;
            for (int kw = 0; kw < s.kernel; ++kw) {
              const __m256 wv = _mm256_broadcast_ss(wrow + kw);
              const __m256 xv =
                  s.stride == 1
                      ? _mm256_loadu_ps(xrow + kw)
                      : _mm256_i32gather_ps(xrow + kw, gather_index, 4);
              acc = _mm256_add_ps(acc, _mm256_mul_ps(wv, xv));
            }
          }
        }
        _mm256_storeu_ps(yrow + ow, acc);
      }
      // Remainder columns: the scalar chain verbatim.
      for (; ow < s.out_w; ++ow) {
        float acc = bias[oc];
        const int iw0 = ow * s.stride;
        for (int ic = 0; ic < s.in_c; ++ic) {
          for (int kh = 0; kh < s.kernel; ++kh) {
            const float* wrow =
                w + ((static_cast<std::size_t>(oc) * s.in_c + ic) * s.kernel +
                     kh) *
                        s.kernel;
            const float* xrow =
                x + (static_cast<std::size_t>(ic) * s.in_h + (ih0 + kh)) *
                        s.in_w +
                iw0;
            for (int kw = 0; kw < s.kernel; ++kw) acc += wrow[kw] * xrow[kw];
          }
        }
        yrow[ow] = acc;
      }
    }
  }
}

/// Outputs o..o+7 of dense_avx2; with kMasked only the lanes set in
/// `mask` are loaded (the rest read as zero) and stored.
template <bool kMasked>
void dense_block(const float* wt, const float* bias, const float* x, float* y,
                 int in_f, int out_f, int o, __m256i mask) {
  const auto load = [&](const float* p) {
    return kMasked ? _mm256_maskload_ps(p, mask) : _mm256_loadu_ps(p);
  };
  __m256 acc = load(bias + o);
  for (int i = 0; i < in_f; ++i) {
    const __m256 xv = _mm256_broadcast_ss(x + i);
    const __m256 wv = load(wt + static_cast<std::size_t>(i) * out_f + o);
    acc = _mm256_add_ps(acc, _mm256_mul_ps(wv, xv));
  }
  if (kMasked)
    _mm256_maskstore_ps(y + o, mask, acc);
  else
    _mm256_storeu_ps(y + o, acc);
}

void dense_avx2(const float* /*w*/, const float* wt, const float* bias,
                const float* x, float* y, int in_f, int out_f) {
  // Lane j handles output o+j through the transposed weights
  // wt[i][o] (contiguous across outputs for a fixed input). The last
  // out_f % 8 outputs run as one masked vector, so narrow layers (the
  // Grid World MLP's 4 Q-values) are vectorized too.
  int o = 0;
  for (; o + 8 <= out_f; o += 8)
    dense_block<false>(wt, bias, x, y, in_f, out_f, o, __m256i{});
  if (o < out_f) {
    const __m256i mask =
        _mm256_cmpgt_epi32(_mm256_set1_epi32(out_f - o),
                           _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
    dense_block<true>(wt, bias, x, y, in_f, out_f, o, mask);
  }
}

void relu_avx2(float* x, std::size_t n) {
  // max_ps(v, +0.0) matches `v > 0 ? v : 0` exactly: for v <= 0, v
  // NaN, and v = -0.0 the second operand (+0.0) is returned, which is
  // the scalar result in every case.
  const __m256 zero = _mm256_setzero_ps();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8)
    _mm256_storeu_ps(x + i, _mm256_max_ps(_mm256_loadu_ps(x + i), zero));
  for (; i < n; ++i) x[i] = x[i] > 0.0f ? x[i] : 0.0f;
}

/// Per-thread scratch for the backward kernels' staged layouts; grows
/// to the largest layer seen and is reused across calls.
std::vector<float>& scratch(int which) {
  thread_local std::vector<float> buffers[2];
  return buffers[which];
}

void conv2d_weight_grad_avx2(const float* dy, const float* x, float* dw,
                             float* db, const ConvShape& s) {
  // Lanes run across the taps (ic, kh, kw) of one output channel's
  // weight row. Output positions are visited in (oh, ow) order, so every
  // dw element still sums its terms in the scalar order; the input
  // window of a position is copied once into a contiguous patch, on the
  // first channel whose g is nonzero there. A g == 0 skips the whole
  // row, as the scalar `continue` does.
  const std::size_t plane = static_cast<std::size_t>(s.out_h) * s.out_w;
  const int taps = s.in_c * s.kernel * s.kernel;
  std::vector<float>& patch = scratch(0);
  patch.resize(static_cast<std::size_t>(taps));
  for (int oh = 0; oh < s.out_h; ++oh) {
    for (int ow = 0; ow < s.out_w; ++ow) {
      const std::size_t pos = static_cast<std::size_t>(oh) * s.out_w + ow;
      bool patched = false;
      for (int oc = 0; oc < s.out_c; ++oc) {
        const float g = dy[static_cast<std::size_t>(oc) * plane + pos];
        if (g == 0.0f) continue;
        if (!patched) {
          float* q = patch.data();
          for (int ic = 0; ic < s.in_c; ++ic) {
            for (int kh = 0; kh < s.kernel; ++kh, q += s.kernel) {
              const float* xrow =
                  x + (static_cast<std::size_t>(ic) * s.in_h +
                       (oh * s.stride + kh)) *
                          s.in_w +
                  ow * s.stride;
              for (int kw = 0; kw < s.kernel; ++kw) q[kw] = xrow[kw];
            }
          }
          patched = true;
        }
        db[oc] += g;
        float* row = dw + static_cast<std::size_t>(oc) * taps;
        const __m256 gv = _mm256_set1_ps(g);
        int t = 0;
        for (; t + 8 <= taps; t += 8)
          _mm256_storeu_ps(
              row + t,
              _mm256_add_ps(_mm256_loadu_ps(row + t),
                            _mm256_mul_ps(gv, _mm256_loadu_ps(patch.data() +
                                                              t))));
        for (; t < taps; ++t) row[t] += g * patch[static_cast<std::size_t>(t)];
      }
    }
  }
}

void conv2d_input_grad_avx2(const float* dy, const float* w, float* dx,
                            const ConvShape& s) {
  // Lanes run across input channels: for one nonzero g and one tap
  // (kh, kw), dx[ic][ih][iw] += g * w[oc][ic][kh][kw] for 8 neighboring
  // ic at once, in the scalar loop's (oc, oh, ow, kh, kw) order. dx and
  // w are staged channel-innermost (dxt[ih][iw][ic], wt[oc][kh][kw][ic])
  // for the vector channels; the remainder channels update dx directly.
  const int vec_c = s.in_c / 8 * 8;
  if (vec_c == 0) {
    scalar_ops().conv2d_input_grad(dy, w, dx, s);
    return;
  }
  const int kk = s.kernel * s.kernel;
  const std::size_t in_plane = static_cast<std::size_t>(s.in_h) * s.in_w;
  std::vector<float>& dxt = scratch(0);
  std::vector<float>& wt = scratch(1);
  dxt.resize(in_plane * vec_c);
  wt.resize(static_cast<std::size_t>(s.out_c) * kk * vec_c);
  for (std::size_t p = 0; p < in_plane; ++p)
    for (int ic = 0; ic < vec_c; ++ic)
      dxt[p * vec_c + ic] = dx[static_cast<std::size_t>(ic) * in_plane + p];
  for (int oc = 0; oc < s.out_c; ++oc)
    for (int t = 0; t < kk; ++t)
      for (int ic = 0; ic < vec_c; ++ic)
        wt[(static_cast<std::size_t>(oc) * kk + t) * vec_c + ic] =
            w[(static_cast<std::size_t>(oc) * s.in_c + ic) * kk + t];
  for (int oc = 0; oc < s.out_c; ++oc) {
    for (int oh = 0; oh < s.out_h; ++oh) {
      for (int ow = 0; ow < s.out_w; ++ow) {
        const float g =
            dy[(static_cast<std::size_t>(oc) * s.out_h + oh) * s.out_w + ow];
        if (g == 0.0f) continue;
        const __m256 gv = _mm256_set1_ps(g);
        for (int kh = 0; kh < s.kernel; ++kh) {
          for (int kw = 0; kw < s.kernel; ++kw) {
            const std::size_t in_pos =
                static_cast<std::size_t>(oh * s.stride + kh) * s.in_w +
                static_cast<std::size_t>(ow * s.stride + kw);
            float* d = dxt.data() + in_pos * vec_c;
            const float* wp =
                wt.data() +
                (static_cast<std::size_t>(oc) * kk + kh * s.kernel + kw) *
                    vec_c;
            for (int ic = 0; ic < vec_c; ic += 8)
              _mm256_storeu_ps(
                  d + ic, _mm256_add_ps(_mm256_loadu_ps(d + ic),
                                        _mm256_mul_ps(gv, _mm256_loadu_ps(
                                                              wp + ic))));
            for (int ic = vec_c; ic < s.in_c; ++ic)
              dx[static_cast<std::size_t>(ic) * in_plane + in_pos] +=
                  g * w[(static_cast<std::size_t>(oc) * s.in_c + ic) * kk +
                        kh * s.kernel + kw];
          }
        }
      }
    }
  }
  for (int ic = 0; ic < vec_c; ++ic)
    for (std::size_t p = 0; p < in_plane; ++p)
      dx[static_cast<std::size_t>(ic) * in_plane + p] = dxt[p * vec_c + ic];
}

}  // namespace

const KernelOps* avx2_ops() noexcept {
  // The dense backward rows are short, contiguous and already
  // vectorized by the compiler in the scalar TU, so they are shared.
  static const KernelOps ops{"avx2",
                             /*dense_wants_transposed=*/true,
                             /*conv_wants_transposed=*/true,
                             conv2d_avx2,
                             dense_avx2,
                             relu_avx2,
                             conv2d_weight_grad_avx2,
                             conv2d_input_grad_avx2,
                             scalar_ops().dense_weight_grad,
                             scalar_ops().dense_input_grad};
  return &ops;
}

}  // namespace ftnav::kernels

#else  // !defined(__AVX2__)

namespace ftnav::kernels {

const KernelOps* avx2_ops() noexcept { return nullptr; }

}  // namespace ftnav::kernels

#endif
