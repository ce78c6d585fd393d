// Scalar kernel backend + runtime dispatch.
//
// These loops are the reference implementation of every conv/dense
// chain, buffer quantize and max pool: the layers (src/nn/layers.cpp)
// and the quantized engine both run them through the dispatch table,
// and each SIMD backend reproduces them bit for bit. dense_gather, the
// engine's sparse-input dense forward, lives here for every backend.
// This TU is compiled with -ffp-contract=off (see CMakeLists.txt) so
// the chains stay mul+add.

#include "nn/kernels/kernels.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <stdexcept>

namespace ftnav::kernels {

namespace {

void conv2d_scalar(const float* w, const float* /*wt*/, const float* bias,
                   const float* x, float* y, const ConvShape& s) {
  for (int oc = 0; oc < s.out_c; ++oc) {
    for (int oh = 0; oh < s.out_h; ++oh) {
      for (int ow = 0; ow < s.out_w; ++ow) {
        float acc = bias[oc];
        const int ih0 = oh * s.stride;
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
        y[(static_cast<std::size_t>(oc) * s.out_h + oh) * s.out_w + ow] = acc;
      }
    }
  }
}

void dense_scalar(const float* w, const float* /*wt*/, const float* bias,
                  const float* x, float* y, int in_f, int out_f) {
  for (int o = 0; o < out_f; ++o) {
    float acc = bias[o];
    const float* row = w + static_cast<std::size_t>(o) * in_f;
    for (int i = 0; i < in_f; ++i) acc += row[i] * x[i];
    y[o] = acc;
  }
}

void relu_scalar(float* x, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) x[i] = x[i] > 0.0f ? x[i] : 0.0f;
}

void conv2d_weight_grad_scalar(const float* dy, const float* x, float* dw,
                               float* db, const ConvShape& s) {
  for (int oc = 0; oc < s.out_c; ++oc) {
    for (int oh = 0; oh < s.out_h; ++oh) {
      for (int ow = 0; ow < s.out_w; ++ow) {
        const float g =
            dy[(static_cast<std::size_t>(oc) * s.out_h + oh) * s.out_w + ow];
        if (g == 0.0f) continue;
        db[oc] += g;
        const int ih0 = oh * s.stride;
        const int iw0 = ow * s.stride;
        for (int ic = 0; ic < s.in_c; ++ic) {
          for (int kh = 0; kh < s.kernel; ++kh) {
            float* dwrow =
                dw + ((static_cast<std::size_t>(oc) * s.in_c + ic) * s.kernel +
                      kh) *
                         s.kernel;
            const float* xrow =
                x + (static_cast<std::size_t>(ic) * s.in_h + (ih0 + kh)) *
                        s.in_w +
                iw0;
            for (int kw = 0; kw < s.kernel; ++kw) dwrow[kw] += g * xrow[kw];
          }
        }
      }
    }
  }
}

void conv2d_input_grad_scalar(const float* dy, const float* w, float* dx,
                              const ConvShape& s) {
  for (int oc = 0; oc < s.out_c; ++oc) {
    for (int oh = 0; oh < s.out_h; ++oh) {
      for (int ow = 0; ow < s.out_w; ++ow) {
        const float g =
            dy[(static_cast<std::size_t>(oc) * s.out_h + oh) * s.out_w + ow];
        if (g == 0.0f) continue;
        const int ih0 = oh * s.stride;
        const int iw0 = ow * s.stride;
        for (int ic = 0; ic < s.in_c; ++ic) {
          for (int kh = 0; kh < s.kernel; ++kh) {
            const float* wrow =
                w + ((static_cast<std::size_t>(oc) * s.in_c + ic) * s.kernel +
                     kh) *
                        s.kernel;
            float* dxrow =
                dx + (static_cast<std::size_t>(ic) * s.in_h + (ih0 + kh)) *
                         s.in_w +
                iw0;
            for (int kw = 0; kw < s.kernel; ++kw) dxrow[kw] += g * wrow[kw];
          }
        }
      }
    }
  }
}

void dense_weight_grad_scalar(const float* dy, const float* x, float* dw,
                              float* db, int in_f, int out_f) {
  for (int o = 0; o < out_f; ++o) {
    const float g = dy[o];
    if (g == 0.0f) continue;
    db[o] += g;
    float* row = dw + static_cast<std::size_t>(o) * in_f;
    for (int i = 0; i < in_f; ++i) row[i] += g * x[i];
  }
}

void dense_input_grad_scalar(const float* dy, const float* w, float* dx,
                             int in_f, int out_f) {
  for (int o = 0; o < out_f; ++o) {
    const float g = dy[o];
    if (g == 0.0f) continue;
    const float* row = w + static_cast<std::size_t>(o) * in_f;
    for (int i = 0; i < in_f; ++i) dx[i] += g * row[i];
  }
}

void quantize_scalar(float* x, std::size_t n, const QFormat& format) {
  for (std::size_t i = 0; i < n; ++i) x[i] = format.quantize(x[i]);
}

void maxpool2d_scalar(const float* x, float* y, std::uint32_t* argmax,
                      int channels, int in_h, int in_w, int window) {
  const int out_h = in_h / window;
  const int out_w = in_w / window;
  std::size_t flat = 0;
  for (int c = 0; c < channels; ++c) {
    for (int oh = 0; oh < out_h; ++oh) {
      for (int ow = 0; ow < out_w; ++ow, ++flat) {
        float best = -std::numeric_limits<float>::infinity();
        std::size_t best_index = 0;
        for (int kh = 0; kh < window; ++kh) {
          const std::size_t row =
              (static_cast<std::size_t>(c) * in_h + oh * window + kh) *
                  in_w +
              static_cast<std::size_t>(ow) * window;
          for (int kw = 0; kw < window; ++kw) {
            const float v = x[row + kw];
            if (v > best) {
              best = v;
              best_index = row + kw;
            }
          }
        }
        y[flat] = best;
        if (argmax != nullptr)
          argmax[flat] = static_cast<std::uint32_t>(best_index);
      }
    }
  }
}

constexpr KernelOps kScalarOps{
    "scalar",
    /*dense_wants_transposed=*/false,
    /*conv_wants_transposed=*/false,
    conv2d_scalar,
    dense_scalar,
    relu_scalar,
    conv2d_weight_grad_scalar,
    conv2d_input_grad_scalar,
    dense_weight_grad_scalar,
    dense_input_grad_scalar,
    quantize_scalar,
    maxpool2d_scalar};

/// active() runs on every layer forward/backward, from every campaign
/// thread, so the pointers it reads get a cache line of their own:
/// sharing one with written data (a worker pool's counters) would make
/// each call a cache miss.
struct alignas(64) Dispatch {
  std::atomic<const KernelOps*> override_ops{nullptr};
  std::atomic<const KernelOps*> env_ops{nullptr};
};
Dispatch g_dispatch;

/// The FTNAV_SIMD choice, resolved once.
const KernelOps& env_backend() {
  static const KernelOps& chosen = []() -> const KernelOps& {
    const char* raw = std::getenv("FTNAV_SIMD");
    try {
      return resolve_backend(raw != nullptr && *raw != '\0' ? raw : "auto");
    } catch (const std::exception& e) {
      // First use may be on a worker thread; a throw here would
      // std::terminate, so diagnose and exit like other bad inputs.
      std::fprintf(stderr, "ftnav: %s\n", e.what());
      std::exit(2);
    }
  }();
  return chosen;
}

}  // namespace

const KernelOps& scalar_ops() noexcept { return kScalarOps; }

bool avx2_supported() noexcept {
  if (avx2_ops() == nullptr) return false;
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

bool neon_supported() noexcept { return neon_ops() != nullptr; }

const KernelOps& resolve_backend(const std::string& choice) {
  if (choice == "scalar") return kScalarOps;
  if (choice == "avx2") {
    if (!avx2_supported())
      throw std::runtime_error(
          "FTNAV_SIMD=avx2: this host does not support AVX2 (use "
          "FTNAV_SIMD=scalar or auto)");
    return *avx2_ops();
  }
  if (choice == "neon") {
    if (!neon_supported())
      throw std::runtime_error(
          "FTNAV_SIMD=neon: this host does not support NEON (use "
          "FTNAV_SIMD=scalar or auto)");
    return *neon_ops();
  }
  if (choice == "auto") {
    if (avx2_supported()) return *avx2_ops();
    if (neon_supported()) return *neon_ops();
    return kScalarOps;
  }
  throw std::invalid_argument("FTNAV_SIMD: unknown backend \"" + choice +
                              "\" (expected scalar | avx2 | neon | auto)");
}

const KernelOps& active() {
  const KernelOps* ops =
      g_dispatch.override_ops.load(std::memory_order_acquire);
  if (ops == nullptr) ops = g_dispatch.env_ops.load(std::memory_order_acquire);
  if (ops == nullptr) {
    ops = &env_backend();
    g_dispatch.env_ops.store(ops, std::memory_order_release);
  }
  return *ops;
}

void transpose(const float* w, float* wt, int rows, int cols) {
  for (int c = 0; c < cols; ++c)
    for (int r = 0; r < rows; ++r)
      wt[static_cast<std::size_t>(c) * rows + r] =
          w[static_cast<std::size_t>(r) * cols + c];
}

void dense_gather(const float* w, const float* wt, const float* bias,
                  const float* x, float* y, int in_f, int out_f) {
  for (int o = 0; o < out_f; ++o) y[o] = bias[o];
  const auto add_input = [&](int i) {
    const float xi = x[i];
    if (xi == 0.0f) return;
    if (wt != nullptr) {
      const float* row = wt + static_cast<std::size_t>(i) * out_f;
      for (int o = 0; o < out_f; ++o) y[o] += row[o] * xi;
    } else {
      const float* column = w + i;
      for (int o = 0; o < out_f; ++o)
        y[o] += column[static_cast<std::size_t>(o) * in_f] * xi;
    }
  };
  // Skip eight inputs at a time while all of them are +-0: one OR of
  // their bit patterns (two per 64-bit word) with the sign bits masked
  // off, instead of a compare and branch per input.
  constexpr std::uint64_t kMagnitudes = 0x7fffffff7fffffffULL;
  int i = 0;
  for (; i + 8 <= in_f; i += 8) {
    std::uint64_t words[4];
    std::memcpy(words, x + i, sizeof(words));
    if (((words[0] | words[1] | words[2] | words[3]) & kMagnitudes) == 0)
      continue;
    for (int k = i; k < i + 8; ++k) add_input(k);
  }
  for (; i < in_f; ++i) add_input(i);
}

ScopedKernelBackend::ScopedKernelBackend(const KernelOps& ops)
    : previous_(g_dispatch.override_ops.exchange(&ops,
                                                 std::memory_order_acq_rel)) {}

ScopedKernelBackend::~ScopedKernelBackend() {
  g_dispatch.override_ops.store(previous_, std::memory_order_release);
}

}  // namespace ftnav::kernels
