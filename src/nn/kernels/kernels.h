#pragma once
// Runtime-dispatched compute kernels: the one conv/dense/pool
// implementation behind both the float training layers
// (src/nn/layers.cpp) and the quantized inference engine, plus the
// engine's quantized buffer write.
//
// Every forward output element is one sequential accumulation chain
// (bias, then += w*x in a fixed order); the engine additionally
// quantizes it on the buffer write. The SIMD backends vectorize ACROSS
// independent elements while keeping every element's scalar chain
// intact, so each lane performs exactly the operations the scalar
// backend performs for that element and the results are bit-identical
// for every backend and lane width. The order in which a backend
// visits elements is free: AVX2 runs register tiles of several output
// positions and channel blocks at once, with a masked block for the
// channel tail (see kernels_avx2.cpp), which changes only how many
// chains are in flight. Kernel translation units are compiled with
// -ffp-contract=off so no backend fuses the multiply-add chain into
// FMAs.
//
// The backward entries follow the same contract. Each accumulates into
// caller-owned gradient buffers (+=, never overwrite) with the chain
// order of the scalar loop `for oc, oh, ow: g = dy[oc][oh][ow];
// if (g == 0) continue; ...`:
//   * weight gradient: each dw element sums its g*x terms in (oh, ow)
//     order and each bias element its g terms in the same order;
//   * input gradient: each dx element sums its g*w terms in
//     (oc, oh, ow, kh, kw) order (dense: in o order).
// A term whose g compares equal to zero (+0 or -0) adds nothing: the
// element keeps its exact bits, even when the other factor is inf or
// NaN, because 0 * inf is never formed. The SIMD backends therefore
// vectorize only across elements that share one g (a whole weight row,
// or all input channels of one tap), so a zero g skips every lane at
// once.
//
// The quantize and max-pool entries have no chain to keep: `quantize`
// rounds each element on its own (QFormat::quantize, replayed lane by
// lane in double precision), and `maxpool2d` only selects existing
// values. It compares each window in the scalar (kh, kw) order with a
// strict `>`, so the first of equal maxima (e.g. -0.0 before +0.0)
// wins on every backend.
//
// Entries per backend:
//   entry                avx2                   neon
//   conv2d, dense, relu  vectorized             vectorized
//   quantize             vectorized             scalar
//   maxpool2d            vectorized (window 2)  scalar
//   conv2d_*_grad        vectorized             scalar
//   dense_*_grad         scalar                 scalar
//   dense_gather         shared (not in KernelOps)
// The dense backward rows are short and contiguous, and the compiler
// vectorizes the scalar loops already. NEON points its other entries
// at the scalar ones because no ARM host is available to test a
// vectorized version on, and the scalar code is correct everywhere.
//
// dense_gather is the dense forward for an input that is almost all
// zeros (the quantized engine's one-hot Grid World state): each chain
// is the dense chain with the terms of zero inputs left out. A left-out
// term is w * (+-0) = +-0 for a finite w, and adding +-0 to a sum
// changes nothing but, possibly, the sign of a zero sum. So the gather
// and the dense output differ at most in the sign of a zero, and a
// quantize (which writes every zero as +0) makes them bit-identical.
// That needs finite weights and a quantize after the layer: the
// engine's weights are decoded fixed-point words and every Dense
// output is quantized on its buffer write. The float training layers
// have neither guarantee and never gather. It is one function in the
// -ffp-contract=off scalar TU, shared by every backend, so no compiler
// can fuse its multiply-add.
//
// Backend selection happens once per process from FTNAV_SIMD
// ("scalar" | "avx2" | "neon" | "auto", default auto = the widest
// backend the CPU supports: avx2 on x86, neon on ARM, scalar
// otherwise), so the variable selects the training kernels as well as
// the inference ones. Naming a backend the host cannot execute is a
// diagnosed error, not a silent fallback. Tests pin a backend with
// ScopedKernelBackend to compare backends inside one process.

#include <cstddef>
#include <cstdint>
#include <string>

#include "fixed/qformat.h"

namespace ftnav::kernels {

/// Geometry of one Conv2D call (no padding, square kernel/stride),
/// mirroring ftnav::Conv2D.
struct ConvShape {
  int in_c = 0, in_h = 0, in_w = 0;
  int out_c = 0, out_h = 0, out_w = 0;
  int kernel = 0, stride = 0;
};

/// One kernel backend. All pointers are to dense row-major storage:
///   conv2d: w[oc][ic][kh][kw], wt[ic][kh][kw][oc] (transposed copy,
///           only valid when conv_wants_transposed; pass nullptr
///           otherwise), bias[oc], x/y in CHW;
///   dense:  w[o][i] (row-major), wt[i][o] (transposed copy, only
///           valid when dense_wants_transposed; pass nullptr
///           otherwise), bias[o];
///   relu, quantize: in place;
///   maxpool2d: x in CHW, y the [c][in_h/window][in_w/window] window
///           maxima, argmax (nullable) each output's flat index into x;
///   conv2d_weight_grad: dy in CHW (the output gradient), x the
///           forward input, dw/db laid out like w/bias;
///   conv2d_input_grad: dy, w as above, dx laid out like x;
///   dense_weight_grad / dense_input_grad: the same for dense layers.
/// Output regions must not alias inputs.
struct KernelOps {
  const char* name;
  /// True when `dense` reads the transposed weight copy `wt` (built
  /// by the caller once per weight-image load, amortized over many
  /// inferences).
  bool dense_wants_transposed;
  /// True when `conv2d` reads the transposed weight copy `wt`
  /// (contiguous across output channels for a fixed tap, so SIMD
  /// lanes covering neighboring output channels load one vector per
  /// tap instead of gathering strided input columns). Built by the
  /// caller alongside the dense cache. AVX2 requires it for every
  /// out_c: narrow layers run as one masked channel block.
  bool conv_wants_transposed;
  void (*conv2d)(const float* w, const float* wt, const float* bias,
                 const float* x, float* y, const ConvShape& s);
  void (*dense)(const float* w, const float* wt, const float* bias,
                const float* x, float* y, int in_f, int out_f);
  void (*relu)(float* x, std::size_t n);
  /// dw += dL/dw and db += dL/db for one conv call.
  void (*conv2d_weight_grad)(const float* dy, const float* x, float* dw,
                             float* db, const ConvShape& s);
  /// dx += dL/dx for one conv call.
  void (*conv2d_input_grad)(const float* dy, const float* w, float* dx,
                            const ConvShape& s);
  /// dw += dL/dw and db += dL/db for one dense call.
  void (*dense_weight_grad)(const float* dy, const float* x, float* dw,
                            float* db, int in_f, int out_f);
  /// dx += dL/dx for one dense call.
  void (*dense_input_grad)(const float* dy, const float* w, float* dx,
                           int in_f, int out_f);
  /// x[i] = format.quantize(x[i]): a write into a quantized buffer.
  void (*quantize)(float* x, std::size_t n, const QFormat& format);
  /// Non-overlapping window x window max pool (remainder rows and
  /// columns dropped). Each output is the first maximum of its window
  /// in (kh, kw) order under `v > best` from -inf, so NaNs never win;
  /// argmax[i], when argmax is not null, receives that input's flat
  /// index, or 0 when no element beats -inf.
  void (*maxpool2d)(const float* x, float* y, std::uint32_t* argmax,
                    int channels, int in_h, int in_w, int window);
};

/// The portable backend: the reference chains every other backend
/// matches bit for bit.
const KernelOps& scalar_ops() noexcept;

/// The AVX2 backend, or nullptr when not compiled in (non-x86 build).
/// Calling its entry points on a CPU without AVX2 is undefined; gate
/// on avx2_supported().
const KernelOps* avx2_ops() noexcept;

/// True when the AVX2 backend is compiled in AND this CPU executes it.
bool avx2_supported() noexcept;

/// The NEON backend, or nullptr when not compiled in (non-ARM build).
const KernelOps* neon_ops() noexcept;

/// True when the NEON backend is compiled in (ARM builds; NEON is
/// architectural on AArch64, so compiled-in implies executable).
bool neon_supported() noexcept;

/// Resolves a backend by name ("scalar" | "avx2" | "neon" | "auto").
/// Throws std::invalid_argument for unknown names and
/// std::runtime_error for a known backend this host cannot execute
/// (e.g. FTNAV_SIMD=avx2 on ARM, FTNAV_SIMD=neon on x86).
const KernelOps& resolve_backend(const std::string& choice);

/// The process-wide backend: the ScopedKernelBackend override when one
/// is active, otherwise the FTNAV_SIMD choice resolved once on first
/// use. Engines capture this at construction; layers look it up on
/// every forward/backward call.
const KernelOps& active();

/// Writes the transposed copy conv2d/dense read when *_wants_transposed:
/// w is a [rows][cols] matrix (conv: [oc][ic*kh*kw], dense: [o][i]) and
/// wt receives [cols][rows].
void transpose(const float* w, float* wt, int rows, int cols);

/// Sparse-input dense forward: y[o] = bias[o], then
/// y[o] += w[o][i] * x[i] for every i with x[i] != 0, in ascending i.
/// w is row-major [o][i]; wt, when not null, is its transposed copy
/// [i][o] and the weights are read from it (one contiguous row per
/// nonzero input) instead. Equal to `dense` followed by a quantize,
/// bit for bit, when every weight is finite (see the note at the top).
/// y must not alias x.
void dense_gather(const float* w, const float* wt, const float* bias,
                  const float* x, float* y, int in_f, int out_f);

/// Test-only: pins the active backend for the lifetime of the scope so
/// one process can construct engines on different backends and compare
/// their outputs. Not thread-safe; tests are single-threaded.
class ScopedKernelBackend {
 public:
  explicit ScopedKernelBackend(const KernelOps& ops);
  ~ScopedKernelBackend();
  ScopedKernelBackend(const ScopedKernelBackend&) = delete;
  ScopedKernelBackend& operator=(const ScopedKernelBackend&) = delete;

 private:
  const KernelOps* previous_;
};

}  // namespace ftnav::kernels
