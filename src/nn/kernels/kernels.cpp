// Portable half of the kernel engine: dispatch resolution, operand packing,
// and the shared weight-pack cache. The AVX2 compute entry points (gemm,
// pool_plane, activation_apply, logsoftmax) live in kernels_avx2.cpp, which is
// compiled with -mavx2 -mfma only when the toolchain supports it; without
// CNN2FPGA_HAVE_AVX2 those symbols become throwing stubs here and active()
// always resolves to kScalar.
#include "nn/kernels/kernels.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>

namespace cnn2fpga::nn::kernels {

namespace {

Kind resolve_default() {
  const char* env = std::getenv("CNN2FPGA_KERNEL");
  if (env != nullptr && *env != '\0') {
    const std::string want(env);
    if (want == "scalar") return Kind::kScalar;
    if (want == "avx2") {
      if (avx2_available()) return Kind::kAvx2;
      std::fprintf(stderr,
                   "cnn2fpga: CNN2FPGA_KERNEL=avx2 requested but AVX2+FMA is "
                   "unavailable on this host; falling back to scalar kernels\n");
      return Kind::kScalar;
    }
    std::fprintf(stderr, "cnn2fpga: unknown CNN2FPGA_KERNEL=%s (expected scalar|avx2); using auto detection\n",
                 env);
  }
  return avx2_available() ? Kind::kAvx2 : Kind::kScalar;
}

Kind& mutable_active() {
  static Kind kind = resolve_default();
  return kind;
}

}  // namespace

Kind active() { return mutable_active(); }

bool avx2_available() {
#ifdef CNN2FPGA_HAVE_AVX2
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

const char* kind_name(Kind kind) {
  switch (kind) {
    case Kind::kScalar: return "scalar";
    case Kind::kAvx2: return "avx2";
  }
  return "?";
}

ScopedKernelOverride::ScopedKernelOverride(Kind kind) : previous_(mutable_active()) {
  if (kind == Kind::kAvx2 && !avx2_available()) {
    throw std::runtime_error("ScopedKernelOverride: AVX2 engine unavailable on this host");
  }
  mutable_active() = kind;
}

ScopedKernelOverride::~ScopedKernelOverride() { mutable_active() = previous_; }

void pack_a(const float* w, std::size_t m, std::size_t k, PackedA& out) {
  const std::size_t panels = (m + kPanelRows - 1) / kPanelRows;
  out.rows = m;
  out.cols = k;
  out.data.assign(panels * k * kPanelRows, 0.0f);
  float* dst = out.data.data();
  for (std::size_t p = 0; p < panels; ++p) {
    float* panel = dst + p * k * kPanelRows;
    const std::size_t live = std::min(kPanelRows, m - p * kPanelRows);
    for (std::size_t r = 0; r < live; ++r) {
      const float* row = w + (p * kPanelRows + r) * k;
      for (std::size_t kk = 0; kk < k; ++kk) panel[kk * kPanelRows + r] = row[kk];
    }
  }
}

std::size_t packed_b_size(std::size_t n, std::size_t k) {
  return ((n + kPanelCols - 1) / kPanelCols) * k * kPanelCols;
}

void pack_b(const float* const* rows, std::size_t n, std::size_t k, float* bpack) {
  const std::size_t panels = (n + kPanelCols - 1) / kPanelCols;
  for (std::size_t q = 0; q < panels; ++q) {
    float* panel = bpack + q * k * kPanelCols;
    const std::size_t live = std::min(kPanelCols, n - q * kPanelCols);
    for (std::size_t j = 0; j < live; ++j) {
      const float* src = rows[q * kPanelCols + j];
      for (std::size_t kk = 0; kk < k; ++kk) panel[kk * kPanelCols + j] = src[kk];
    }
    for (std::size_t j = live; j < kPanelCols; ++j) {
      for (std::size_t kk = 0; kk < k; ++kk) panel[kk * kPanelCols + j] = 0.0f;
    }
  }
}

void zero_pack_tail(float* bpack, std::size_t n, std::size_t k) {
  const std::size_t panels = (n + kPanelCols - 1) / kPanelCols;
  if (panels == 0) return;
  const std::size_t live = n - (panels - 1) * kPanelCols;
  if (live == kPanelCols) return;
  float* panel = bpack + (panels - 1) * k * kPanelCols;
  for (std::size_t kk = 0; kk < k; ++kk) {
    for (std::size_t j = live; j < kPanelCols; ++j) panel[kk * kPanelCols + j] = 0.0f;
  }
}

void im2col_pack(const float* in, std::size_t c_stride, std::size_t channels,
                 std::size_t ih, std::size_t iw, std::size_t kh, std::size_t kw,
                 std::size_t oh, std::size_t ow, float* bpack, std::size_t col0,
                 std::size_t n_total) {
  // Depth index k = (c*kh + ky)*kw + kx matches the (c, m, n) patch order of
  // Conv2D::infer_into's im2col, so a packed GEMM against pack_a(weights)
  // computes the same dot products as the seed path.
  (void)ih;  // the patch walk needs only the output extent and the row width
  (void)n_total;
  const std::size_t depth_stride = kPanelCols;  // one k step inside a panel
  std::size_t k = 0;
  for (std::size_t c = 0; c < channels; ++c) {
    const float* xc = in + c * c_stride;
    for (std::size_t ky = 0; ky < kh; ++ky) {
      for (std::size_t kx = 0; kx < kw; ++kx, ++k) {
        // Walk the oh*ow output pixels for this fixed depth index; source
        // elements along x are contiguous, destination advances one packed
        // lane at a time (wrapping to the next panel every 16 columns).
        for (std::size_t y = 0; y < oh; ++y) {
          const float* src = xc + (y + ky) * iw + kx;
          std::size_t g = col0 + y * ow;  // global packed column
          std::size_t q = g / kPanelCols;
          std::size_t j = g % kPanelCols;
          const std::size_t total_k = channels * kh * kw;
          float* panel = bpack + q * total_k * kPanelCols + k * depth_stride;
          for (std::size_t x = 0; x < ow; ++x) {
            panel[j] = src[x];
            if (++j == kPanelCols) {
              j = 0;
              panel += total_k * kPanelCols;
            }
          }
        }
      }
    }
  }
}

PackCache::PackCache(std::size_t layer_count) {
  entries_.reserve(layer_count);
  for (std::size_t i = 0; i < layer_count; ++i) entries_.push_back(std::make_unique<Entry>());
}

const PackedA& PackCache::get(std::size_t layer, const float* w, std::size_t m,
                              std::size_t k) {
  if (layer >= entries_.size()) throw std::out_of_range("PackCache::get: layer index");
  Entry& e = *entries_[layer];
  std::call_once(e.once, [&] {
    pack_a(w, m, k, e.pack);
    e.ready = true;
  });
  return e.pack;
}

std::size_t PackCache::built() const {
  std::size_t n = 0;
  for (const auto& e : entries_) {
    if (e->ready) ++n;
  }
  return n;
}

#ifndef CNN2FPGA_HAVE_AVX2
namespace {
[[noreturn]] void no_avx2() {
  throw std::runtime_error("cnn2fpga: AVX2 kernel invoked but engine not compiled in");
}
}  // namespace

void gemm(const PackedA&, const float*, std::size_t, const float*, int, float*, std::size_t) {
  no_avx2();
}
void pool_plane(bool, const float*, std::size_t, std::size_t, std::size_t, std::size_t,
                std::size_t, std::size_t, std::size_t, float*, float*) {
  no_avx2();
}
void activation_apply(ActKind, const float*, float*, std::size_t) { no_avx2(); }
void logsoftmax(const float*, float*, std::size_t) { no_avx2(); }
#endif  // !CNN2FPGA_HAVE_AVX2

}  // namespace cnn2fpga::nn::kernels
