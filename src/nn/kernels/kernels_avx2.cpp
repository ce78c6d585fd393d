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
// backend.
//
// The forward kernels are register-blocked so one pass over the taps
// keeps several independent chains in flight instead of waiting on
// one add chain per vector. Conv has one loop nest: a tile covers 4
// consecutive flat output positions x 2 eight-channel blocks (1 block
// where out_c leaves only one), loading each tap's weight vectors once
// for all positions and sharing each input broadcast across blocks;
// leftover positions run as 1-position tiles. Dense runs 32-output
// tiles (4 blocks sharing each x broadcast), then single blocks. A
// channel/output count that is not a multiple of 8 ends in one masked
// block (masked weight/bias loads, only valid lanes stored), so there
// is no scalar remainder chain and no column/gather path.
//
// The conv backward kernels (training) vectorize across elements that
// share one output gradient g: the taps of a weight row, or the input
// channels of one tap. A zero g then skips all 8 lanes, exactly as the
// scalar loop's `continue` does.
//
// The buffer quantize replays QFormat::quantize on 4 double lanes, and
// the 2x2 max pool runs 8 output columns per vector; both are
// selections or per-element roundings, so lanes need no chain order.
//
// This TU is the only one compiled with -mavx2 (x86 builds only; see
// CMakeLists.txt). On other architectures it compiles to a stub that
// reports the backend as unavailable.

#include "nn/kernels/kernels.h"

#if defined(__AVX2__)

#include <immintrin.h>

#include <limits>
#include <vector>

namespace ftnav::kernels {

namespace {

/// Selects the first n (1..8) of 8 lanes.
__m256i lane_mask(int n) {
  return _mm256_cmpgt_epi32(_mm256_set1_epi32(n),
                            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
}

/// One conv tile: P consecutive flat output positions from `pos` (a
/// tile may cross an output row: each position keeps its own input
/// base pointer) x B eight-channel blocks from output channel `oc`.
/// Each tap loads its B weight vectors once for all P positions and
/// each input broadcast feeds all B blocks, so P*B independent chains
/// are in flight. With kMaskLast the last block covers the out_c % 8
/// tail: its weight/bias lanes past out_c load as zero (no read past
/// the end) and are never stored.
template <int P, int B, bool kMaskLast>
void conv_tile(const float* wt, const float* bias, const float* x, float* y,
               const ConvShape& s, int pos, int oc, __m256i tail) {
  const auto load = [&](const float* p, int b) {
    return kMaskLast && b == B - 1 ? _mm256_maskload_ps(p, tail)
                                   : _mm256_loadu_ps(p);
  };
  const float* xbase[P];
  for (int p = 0; p < P; ++p) {
    const int oh = (pos + p) / s.out_w;
    const int ow = (pos + p) % s.out_w;
    xbase[p] = x + static_cast<std::size_t>(oh) * s.stride * s.in_w +
               static_cast<std::size_t>(ow) * s.stride;
  }
  __m256 acc[P][B];
  for (int b = 0; b < B; ++b) {
    const __m256 bv = load(bias + oc + 8 * b, b);
    for (int p = 0; p < P; ++p) acc[p][b] = bv;
  }
  const float* wp = wt + oc;
  for (int ic = 0; ic < s.in_c; ++ic) {
    for (int kh = 0; kh < s.kernel; ++kh) {
      const std::size_t row =
          (static_cast<std::size_t>(ic) * s.in_h + kh) * s.in_w;
      for (int kw = 0; kw < s.kernel; ++kw, wp += s.out_c) {
        __m256 wv[B];
        for (int b = 0; b < B; ++b) wv[b] = load(wp + 8 * b, b);
        for (int p = 0; p < P; ++p) {
          const __m256 xv = _mm256_broadcast_ss(xbase[p] + row + kw);
          for (int b = 0; b < B; ++b)
            acc[p][b] = _mm256_add_ps(acc[p][b], _mm256_mul_ps(wv[b], xv));
        }
      }
    }
  }
  alignas(32) float lanes[P][8 * B];
  for (int p = 0; p < P; ++p)
    for (int b = 0; b < B; ++b) _mm256_store_ps(&lanes[p][8 * b], acc[p][b]);
  const std::size_t plane = static_cast<std::size_t>(s.out_h) * s.out_w;
  const int valid = kMaskLast ? s.out_c - oc : 8 * B;
  for (int j = 0; j < valid; ++j) {
    float* yc = y + static_cast<std::size_t>(oc + j) * plane + pos;
    for (int p = 0; p < P; ++p) yc[p] = lanes[p][j];
  }
}

/// Every output position of channel blocks oc..oc+8*B-1: 4-position
/// tiles, then the leftover positions one at a time.
template <int B, bool kMaskLast>
void conv_blocks(const float* wt, const float* bias, const float* x, float* y,
                 const ConvShape& s, int oc, __m256i tail) {
  const int plane = s.out_h * s.out_w;
  int pos = 0;
  for (; pos + 4 <= plane; pos += 4)
    conv_tile<4, B, kMaskLast>(wt, bias, x, y, s, pos, oc, tail);
  for (; pos < plane; ++pos)
    conv_tile<1, B, kMaskLast>(wt, bias, x, y, s, pos, oc, tail);
}

void conv2d_avx2(const float* /*w*/, const float* wt, const float* bias,
                 const float* x, float* y, const ConvShape& s) {
  // Lane j of a block handles output channel oc+j through the
  // transposed weights wt[ic][kh][kw][oc] (contiguous across output
  // channels for a fixed tap): no gathers regardless of stride, and
  // full lanes even on tiny late-stage feature maps. Channels go in
  // pairs of blocks; a lone last block runs with B = 1.
  const __m256i tail = lane_mask(s.out_c % 8 == 0 ? 8 : s.out_c % 8);
  for (int oc = 0; oc < s.out_c; oc += 16) {
    const int left = s.out_c - oc;
    if (left >= 16)
      conv_blocks<2, false>(wt, bias, x, y, s, oc, tail);
    else if (left > 8)
      conv_blocks<2, true>(wt, bias, x, y, s, oc, tail);
    else if (left == 8)
      conv_blocks<1, false>(wt, bias, x, y, s, oc, tail);
    else
      conv_blocks<1, true>(wt, bias, x, y, s, oc, tail);
  }
}

/// Outputs o..o+8*B-1 of dense_avx2 in one pass over in_f: each x
/// broadcast feeds all B blocks. With kMaskLast the last block covers
/// the out_f % 8 tail (masked loads and store).
template <int B, bool kMaskLast>
void dense_tile(const float* wt, const float* bias, const float* x, float* y,
                int in_f, int out_f, int o, __m256i tail) {
  const auto load = [&](const float* p, int b) {
    return kMaskLast && b == B - 1 ? _mm256_maskload_ps(p, tail)
                                   : _mm256_loadu_ps(p);
  };
  __m256 acc[B];
  for (int b = 0; b < B; ++b) acc[b] = load(bias + o + 8 * b, b);
  const float* wp = wt + o;
  for (int i = 0; i < in_f; ++i, wp += out_f) {
    const __m256 xv = _mm256_broadcast_ss(x + i);
    for (int b = 0; b < B; ++b)
      acc[b] = _mm256_add_ps(acc[b], _mm256_mul_ps(load(wp + 8 * b, b), xv));
  }
  for (int b = 0; b < B; ++b) {
    if (kMaskLast && b == B - 1)
      _mm256_maskstore_ps(y + o + 8 * b, tail, acc[b]);
    else
      _mm256_storeu_ps(y + o + 8 * b, acc[b]);
  }
}

void dense_avx2(const float* /*w*/, const float* wt, const float* bias,
                const float* x, float* y, int in_f, int out_f) {
  // Lane j handles output o+j through the transposed weights
  // wt[i][o] (contiguous across outputs for a fixed input): 32-output
  // tiles, then single blocks, then the last out_f % 8 outputs as one
  // masked block, so narrow layers (the Grid World MLP's 4 Q-values)
  // are vectorized too.
  int o = 0;
  for (; o + 32 <= out_f; o += 32)
    dense_tile<4, false>(wt, bias, x, y, in_f, out_f, o, __m256i{});
  for (; o + 8 <= out_f; o += 8)
    dense_tile<1, false>(wt, bias, x, y, in_f, out_f, o, __m256i{});
  if (o < out_f)
    dense_tile<1, true>(wt, bias, x, y, in_f, out_f, o,
                        lane_mask(out_f - o));
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

void quantize_avx2(float* x, std::size_t n, const QFormat& format) {
  // QFormat::quantize on 4 double lanes, operation for operation:
  // widen, scale, round to nearest-even by adding and removing
  // copysign(2^52, scaled), NaN -> +0, clamp, rescale, narrow. The
  // add/sub pair turns every input that rounds to zero (-0.0, -0.2 at
  // scale 1) into +0.0, as the scalar code does; _mm256_round_pd would
  // keep their sign. After the NaN select no lane is NaN and none is
  // -0.0, so min/max clamp exactly like the scalar compares.
  const QFormat::QuantizeConstants k = format.quantize_constants();
  const __m256d scale = _mm256_set1_pd(k.scale);
  const __m256d inv_scale = _mm256_set1_pd(k.inv_scale);
  const __m256d raw_min = _mm256_set1_pd(k.raw_min);
  const __m256d raw_max = _mm256_set1_pd(k.raw_max);
  const __m256d shift = _mm256_set1_pd(4503599627370496.0);  // 2^52
  const __m256d sign = _mm256_set1_pd(-0.0);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d scaled =
        _mm256_mul_pd(_mm256_cvtps_pd(_mm_loadu_ps(x + i)), scale);
    const __m256d offset = _mm256_or_pd(shift, _mm256_and_pd(scaled, sign));
    __m256d rounded = _mm256_sub_pd(_mm256_add_pd(scaled, offset), offset);
    rounded = _mm256_andnot_pd(_mm256_cmp_pd(rounded, rounded, _CMP_UNORD_Q),
                               rounded);
    rounded = _mm256_max_pd(_mm256_min_pd(rounded, raw_max), raw_min);
    _mm_storeu_ps(x + i, _mm256_cvtpd_ps(_mm256_mul_pd(rounded, inv_scale)));
  }
  for (; i < n; ++i) x[i] = format.quantize(x[i]);
}

/// Max pool with window 2 (the C3F2 pool) across 8 neighbouring output
/// columns per vector. Each lane runs the scalar window scan: taps in
/// (kh, kw) order, `v > best` as a compare + blend, and the winning
/// flat index tracked by the same mask when kArgmax. A window row is 16
/// contiguous inputs, deinterleaved into the kw = 0 and kw = 1 taps; a
/// row's last out_w % 8 columns run as one masked vector that reads
/// nothing past its windows.
template <bool kArgmax>
void maxpool2x2_avx2(const float* x, float* y, std::uint32_t* argmax,
                     int channels, int in_h, int in_w) {
  const int out_h = in_h / 2;
  const int out_w = in_w / 2;
  // Lane l's offset inside a window row: 2 * l.
  const __m256i lane_offset = _mm256_setr_epi32(0, 2, 4, 6, 8, 10, 12, 14);
  std::size_t flat = 0;
  for (int c = 0; c < channels; ++c) {
    for (int oh = 0; oh < out_h; ++oh) {
      for (int ow = 0; ow < out_w; ow += 8) {
        const int valid = out_w - ow < 8 ? out_w - ow : 8;
        const __m256i store_mask = lane_mask(valid);
        __m256 best = _mm256_set1_ps(-std::numeric_limits<float>::infinity());
        __m256i best_index = _mm256_setzero_si256();
        for (int kh = 0; kh < 2; ++kh) {
          const std::size_t row =
              (static_cast<std::size_t>(c) * in_h + oh * 2 + kh) * in_w +
              static_cast<std::size_t>(ow) * 2;
          const float* p = x + row;
          const __m256 lo =
              valid >= 4 ? _mm256_loadu_ps(p)
                         : _mm256_maskload_ps(p, lane_mask(2 * valid));
          const __m256 hi =
              valid == 8  ? _mm256_loadu_ps(p + 8)
              : valid > 4 ? _mm256_maskload_ps(p + 8, lane_mask(2 * valid - 8))
                          : _mm256_setzero_ps();
          // Per 128-bit half {lo[0], lo[2], hi[0], hi[2]} (0x88: even
          // taps) or the odd ones (0xdd); the 64-bit permute restores
          // lane order.
          const __m256 taps[2] = {
              _mm256_castpd_ps(_mm256_permute4x64_pd(
                  _mm256_castps_pd(_mm256_shuffle_ps(lo, hi, 0x88)), 0xd8)),
              _mm256_castpd_ps(_mm256_permute4x64_pd(
                  _mm256_castps_pd(_mm256_shuffle_ps(lo, hi, 0xdd)), 0xd8))};
          for (int kw = 0; kw < 2; ++kw) {
            const __m256 greater = _mm256_cmp_ps(taps[kw], best, _CMP_GT_OQ);
            best = _mm256_blendv_ps(best, taps[kw], greater);
            if constexpr (kArgmax) {
              const __m256i index = _mm256_add_epi32(
                  _mm256_set1_epi32(static_cast<int>(row + kw)), lane_offset);
              best_index = _mm256_castps_si256(
                  _mm256_blendv_ps(_mm256_castsi256_ps(best_index),
                                   _mm256_castsi256_ps(index), greater));
            }
          }
        }
        _mm256_maskstore_ps(y + flat, store_mask, best);
        if constexpr (kArgmax)
          _mm256_maskstore_epi32(reinterpret_cast<int*>(argmax + flat),
                                 store_mask, best_index);
        flat += static_cast<std::size_t>(valid);
      }
    }
  }
}

void maxpool2d_avx2(const float* x, float* y, std::uint32_t* argmax,
                    int channels, int in_h, int in_w, int window) {
  // Only window 2 occurs in the paper's networks; other windows take
  // the scalar scan.
  if (window != 2)
    scalar_ops().maxpool2d(x, y, argmax, channels, in_h, in_w, window);
  else if (argmax != nullptr)
    maxpool2x2_avx2<true>(x, y, argmax, channels, in_h, in_w);
  else
    maxpool2x2_avx2<false>(x, y, nullptr, channels, in_h, in_w);
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
                             scalar_ops().dense_input_grad,
                             quantize_avx2,
                             maxpool2d_avx2};
  return &ops;
}

}  // namespace ftnav::kernels

#else  // !defined(__AVX2__)

namespace ftnav::kernels {

const KernelOps* avx2_ops() noexcept { return nullptr; }

}  // namespace ftnav::kernels

#endif
