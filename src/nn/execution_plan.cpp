// Fused plan walker: one feed-forward pass for float32, int16 and int8.
//
// `run_plan<Traits>` runs an entire micro-batch through the compiled plan
// with a single im2col + packed GEMM per conv/linear step, so each layer's
// weight panels stream from cache once per *batch* instead of once per image.
// The walk is written once; the activation type and the kernels it calls come
// from a traits object (the schedule), picked by the context's precision:
//
//   FloatTraits         — float32 on the AVX2 engine: packed SIMD GEMM with
//                         every activation fused into its epilogue.
//   QuantTraits<int8_t> — raw fixed-point activations (Q4.4 / Q8.8, see
//   QuantTraits<int16_t>  kernels_int.hpp) on either engine: the GEMM
//                         epilogue renormalizes, saturates and fuses ReLU;
//                         tanh/sigmoid run a lookup-table pass. Inputs are
//                         quantized on load and outputs dequantized, then
//                         the same LogSoftMax row forward_fixed runs, so
//                         served scores are the fixed model's scores (int8
//                         modulo the documented weight clamp).
//
// The inputs are loaded image-major into the ping buffer, and activations
// then alternate between two context-owned ping/pong buffers whose layout is
// tracked per step:
//
//   kImageMajor  — image b's flat activations at [b*elems, (b+1)*elems);
//                  what linear layers pack from and the output tail reads.
//   kInterleaved — channel-major: channel c of image b occupies columns
//                  [b*pixels, (b+1)*pixels) of row c in a (C x B*pixels)
//                  buffer. This is exactly what a batched conv GEMM produces
//                  when image b's im2col patches sit at packed columns
//                  b*pixels..; pooling preserves it via strided plane
//                  pointers, and a following conv consumes it directly with
//                  channel stride B*pixels — no reshuffling between
//                  conv/pool/conv chains.
//
// Numerical contract: every output element is produced by the same
// lane-independent instruction sequence regardless of batch size (float: see
// kernels.hpp; integer products and adds are exact), so run_plan(count=N) is
// bit-identical to N single-image calls — asserted in tests/test_kernels.cpp.
#include <algorithm>
#include <cstring>
#include <type_traits>
#include <utility>
#include <vector>

#include "nn/execution.hpp"

namespace cnn2fpga::nn {

namespace {

namespace ker = kernels;
using Step = ExecutionContext::Step;

enum class Domain { kInterleaved, kImageMajor };

/// The weight matrix a conv/linear step multiplies its packed input by.
struct GemmWeights {
  std::size_t layer;
  const float* w;
  const float* bias;
  std::size_t m;  ///< output rows: conv channels / linear features
  std::size_t k;  ///< depth: conv patch / linear inputs
};

GemmWeights gemm_weights(const Step& step) {
  if (step.kind == Step::Kind::kConv) {
    const auto* conv = static_cast<const Conv2D*>(step.layer);
    return {step.layer_index, conv->weights().data(), conv->bias().data(),
            conv->out_channels(), conv->in_channels() * conv->kernel_h() * conv->kernel_w()};
  }
  const auto* lin = static_cast<const Linear*>(step.layer);
  return {step.layer_index, lin->weights().data(), lin->bias().data(), lin->out_features(),
          lin->in_features()};
}

/// float32 on the AVX2 engine. Raw is the inter-layer activation type, Pack
/// the packed-B element type and Row the pack_b row-pointer type.
struct FloatTraits {
  using Raw = float;
  using Pack = float;
  using Row = const float*;
  static constexpr auto packed_b_size = &ker::packed_b_size;
  static constexpr auto im2col = &ker::im2col_pack;
  static constexpr auto pack_b = &ker::pack_b;
  static constexpr auto finish = &ker::zero_pack_tail;

  ker::PackCache& packs;
  float* pool_row;  ///< pool_plane row-collapse scratch

  static void load(const float* in, std::size_t n, float* out) {
    std::memcpy(out, in, n * sizeof(float));
  }
  const ker::PackedA& weights(const GemmWeights& g) const {
    return packs.get(g.layer, g.w, g.m, g.k);
  }
  static void prepare(ActKind /*act*/) {}
  void gemm(const GemmWeights& g, const float* bpack, std::size_t n, const Activation* act,
            float* c) const {
    ker::gemm(weights(g), bpack, n, g.bias, act != nullptr ? static_cast<int>(act->act()) : -1,
              c, n);
  }
  void pool(bool is_max, const float* in, std::size_t ih, std::size_t iw, std::size_t kh,
            std::size_t kw, std::size_t step, std::size_t oh, std::size_t ow,
            float* out) const {
    ker::pool_plane(is_max, in, ih, iw, kh, kw, step, oh, ow, out, pool_row);
  }
  static void activation(ActKind act, float* data, std::size_t n) {
    ker::activation_apply(act, data, data, n);
  }
  static void output(const float* src, std::size_t n, bool logsoftmax, float* row) {
    if (logsoftmax) {
      ker::logsoftmax(src, row, n);
    } else {
      std::memcpy(row, src, n * sizeof(float));
    }
  }
};

/// The integer kernel entry points (kernels_int.hpp) for one raw width. Pack
/// is u8 for int8 (maddubs wants the unsigned-offset operand), raw s16 for
/// int16.
template <typename Raw>
struct IntKernels;

template <>
struct IntKernels<std::int8_t> {
  using Pack = std::uint8_t;
  static constexpr auto packed_b_size = &ker::packed_b_size_s8;
  static constexpr auto quantize = &ker::quantize_input_s8;
  static constexpr auto im2col = &ker::im2col_pack_s8;
  static constexpr auto pack_b = &ker::pack_b_s8;
  static constexpr auto finish = &ker::finish_pack_s8;
  static constexpr auto int_gemm = &ker::gemm_s8;
  static constexpr auto int_pool = &ker::pool_plane_s8;
  static constexpr auto lut_activation = &ker::activation_lut_s8;
};

template <>
struct IntKernels<std::int16_t> {
  using Pack = std::int16_t;
  static constexpr auto packed_b_size = &ker::packed_b_size_s16;
  static constexpr auto quantize = &ker::quantize_input_s16;
  static constexpr auto im2col = &ker::im2col_pack_s16;
  static constexpr auto pack_b = &ker::pack_b_s16;
  static constexpr auto finish = &ker::finish_pack_s16;
  static constexpr auto int_gemm = &ker::gemm_s16;
  static constexpr auto int_pool = &ker::pool_plane_s16;
  static constexpr auto lut_activation = &ker::activation_lut_s16;
};

/// int8 / int16 fixed point on either engine (the integer kernels are
/// bit-identical across engines, so there is no per-engine tolerance).
template <typename R>
struct QuantTraits : IntKernels<R> {
  using Raw = R;
  using Row = const void*;
  using K = IntKernels<R>;
  static constexpr bool kIs8 = std::is_same_v<R, std::int8_t>;

  ker::Kind kind;
  ker::QuantPackCache& packs;
  const FixedPointFormat& fmt;

  void load(const float* in, std::size_t n, Raw* out) const { K::quantize(in, n, fmt, out); }
  const auto& weights(const GemmWeights& g) const {
    if constexpr (kIs8) {
      return packs.get8(g.layer, g.w, g.bias, g.m, g.k);
    } else {
      return packs.get16(g.layer, g.w, g.bias, g.m, g.k);
    }
  }
  const Raw* lut(ActKind act) const {
    if constexpr (kIs8) {
      return packs.lut8(act);
    } else {
      return packs.lut16(act);
    }
  }
  /// Builds the lookup table a non-ReLU activation needs.
  void prepare(ActKind act) const {
    if (act != ActKind::kReLU) (void)lut(act);
  }
  /// ReLU fuses into the renormalize epilogue; tanh/sigmoid run a LUT pass.
  /// The bias is already folded into the packed weights' accumulator seeds.
  void gemm(const GemmWeights& g, const typename K::Pack* bpack, std::size_t n,
            const Activation* act, Raw* c) const {
    const bool relu = act != nullptr && act->act() == ActKind::kReLU;
    K::int_gemm(kind, weights(g), bpack, n, fmt, relu ? static_cast<int>(ActKind::kReLU) : -1,
                c, n);
    if (act != nullptr && !relu) activation(act->act(), c, g.m * n);
  }
  void pool(bool is_max, const Raw* in, std::size_t ih, std::size_t iw, std::size_t kh,
            std::size_t kw, std::size_t step, std::size_t oh, std::size_t ow, Raw* out) const {
    K::int_pool(is_max, in, ih, iw, kh, kw, step, oh, ow, out, fmt);
  }
  void activation(ActKind act, Raw* data, std::size_t n) const {
    K::lut_activation(act, act == ActKind::kReLU ? nullptr : lut(act), data, data, n);
  }
  /// Dequantize, then (as forward_fixed does) the float LogSoftMax.
  void output(const Raw* src, std::size_t n, bool logsoftmax, float* row) const {
    for (std::size_t i = 0; i < n; ++i) row[i] = fixed_dequantize(src[i], fmt);
    if (logsoftmax) log_softmax_row(row, row, n);
  }
};

/// The context's batch scratch (ExecutionContext::ensure_batch), untyped.
struct Scratch {
  std::uint8_t* bpack;
  std::uint8_t* ping;
  std::uint8_t* pong;
  std::uint8_t* gemm_tmp;
  std::uint8_t* rows;
};

template <typename Traits>
void run_plan(const Traits& t, const std::vector<Step>& steps, const Scratch& scratch,
              const Tensor* const* inputs, std::size_t count, float* const* out_rows) {
  using Raw = typename Traits::Raw;
  auto* bpack = reinterpret_cast<typename Traits::Pack*>(scratch.bpack);
  auto* ping = reinterpret_cast<Raw*>(scratch.ping);
  auto* pong = reinterpret_cast<Raw*>(scratch.pong);
  auto* gemm_tmp = reinterpret_cast<Raw*>(scratch.gemm_tmp);
  auto* rows = reinterpret_cast<typename Traits::Row*>(scratch.rows);

  const std::size_t in_elems = steps.front().in_shape.elements();
  for (std::size_t b = 0; b < count; ++b) t.load(inputs[b]->data(), in_elems, ping + b * in_elems);
  Raw* cur = ping;
  Domain domain = Domain::kImageMajor;

  // The buffer the next producing step should write to.
  const auto free_buf = [&]() { return cur == ping ? pong : ping; };

  // Base pointer and channel stride of image b's activations for plane-wise
  // consumers (conv im2col, pooling), given the current domain.
  const auto image_plane = [&](const Shape& in_shape,
                               std::size_t b) -> std::pair<const Raw*, std::size_t> {
    const std::size_t pixels = in_shape.height() * in_shape.width();
    if (domain == Domain::kInterleaved) return {cur + b * pixels, count * pixels};
    return {cur + b * in_shape.elements(), pixels};
  };

  // Materialize the current activations as kImageMajor (no-op if they are).
  const auto to_image_major = [&](const Shape& shape) {
    if (domain == Domain::kImageMajor) return;
    const std::size_t elems = shape.elements();
    const std::size_t pixels = shape.height() * shape.width();
    Raw* dst = free_buf();
    for (std::size_t c = 0; c < shape.channels(); ++c) {
      const Raw* src_row = cur + c * count * pixels;
      for (std::size_t b = 0; b < count; ++b) {
        std::memcpy(dst + b * elems + c * pixels, src_row + b * pixels, pixels * sizeof(Raw));
      }
    }
    cur = dst;
    domain = Domain::kImageMajor;
  };

  for (const Step& step : steps) {
    if (step.kind == Step::Kind::kLogSoftMax) break;  // always last: the output tail
    const std::size_t ih = step.in_shape.height(), iw = step.in_shape.width();
    const std::size_t oh = step.out_shape.height(), ow = step.out_shape.width();
    switch (step.kind) {
      case Step::Kind::kConv: {
        const auto* conv = static_cast<const Conv2D*>(step.layer);
        const GemmWeights g = gemm_weights(step);
        const std::size_t n = count * oh * ow;
        for (std::size_t b = 0; b < count; ++b) {
          const auto [base, cstride] = image_plane(step.in_shape, b);
          Traits::im2col(base, cstride, conv->in_channels(), ih, iw, conv->kernel_h(),
                         conv->kernel_w(), oh, ow, bpack, b * oh * ow, n);
        }
        Traits::finish(bpack, n, g.k);
        Raw* dst = free_buf();
        t.gemm(g, bpack, n, step.fused, dst);
        cur = dst;
        domain = Domain::kInterleaved;
        break;
      }
      case Step::Kind::kPool: {
        const auto* pool = static_cast<const Pool2D*>(step.layer);
        const std::size_t opix = oh * ow;
        const bool is_max = pool->pool_kind() == PoolKind::kMax;
        Raw* dst = free_buf();
        for (std::size_t b = 0; b < count; ++b) {
          const auto [base, cstride] = image_plane(step.in_shape, b);
          for (std::size_t c = 0; c < step.in_shape.channels(); ++c) {
            t.pool(is_max, base + c * cstride, ih, iw, pool->kernel_h(), pool->kernel_w(),
                   pool->step(), oh, ow, dst + c * count * opix + b * opix);
          }
        }
        cur = dst;
        domain = Domain::kInterleaved;
        break;
      }
      case Step::Kind::kLinear: {
        const GemmWeights g = gemm_weights(step);
        to_image_major(step.in_shape);
        for (std::size_t b = 0; b < count; ++b) rows[b] = cur + b * g.k;
        Traits::pack_b(rows, count, g.k, bpack);
        // GEMM produces C[m][b] (ldc = count); transpose to image-major. The
        // input rows were already copied into the packed panels, so writing
        // over `cur` is safe.
        t.gemm(g, bpack, count, step.fused, gemm_tmp);
        for (std::size_t b = 0; b < count; ++b) {
          Raw* row = cur + b * g.m;
          for (std::size_t j = 0; j < g.m; ++j) row[j] = gemm_tmp[j * count + b];
        }
        break;
      }
      case Step::Kind::kActivation:
        // Elementwise: both domains store the batch's activations
        // contiguously at cur, so one pass covers everything and the domain
        // is preserved.
        t.activation(static_cast<const Activation*>(step.layer)->act(), cur,
                     count * step.in_shape.elements());
        break;
      case Step::Kind::kLogSoftMax:
      case Step::Kind::kGeneric:
        break;  // excluded by Network::runs_plan
    }
  }

  const Step& last = steps.back();
  const std::size_t out_elems = last.out_shape.elements();
  to_image_major(last.out_shape);
  for (std::size_t b = 0; b < count; ++b) {
    t.output(cur + b * out_elems, out_elems, last.kind == Step::Kind::kLogSoftMax, out_rows[b]);
  }
}

}  // namespace

template <typename F>
void ExecutionContext::with_traits(F&& f) {
  switch (precision_) {
    case ServePrecision::kFloat32:
      f(FloatTraits{*packs_, pool_row_.data()});
      return;
    case ServePrecision::kInt8:
      f(QuantTraits<std::int8_t>{{}, kernel_, *qpacks_, qformat_});
      return;
    case ServePrecision::kInt16:
      f(QuantTraits<std::int16_t>{{}, kernel_, *qpacks_, qformat_});
      return;
  }
}

void ExecutionContext::ensure_batch(std::size_t batch) {
  if (batch <= batch_capacity_) return;
  with_traits([&](const auto& t) {
    using Traits = std::decay_t<decltype(t)>;
    std::size_t need_bpack = 0;
    std::size_t need_tmp = 0;
    for (const Step& step : steps_) {
      if (step.kind == Step::Kind::kConv) {
        const std::size_t pixels = step.out_shape.height() * step.out_shape.width();
        need_bpack = std::max(need_bpack,
                              Traits::packed_b_size(batch * pixels, gemm_weights(step).k));
      } else if (step.kind == Step::Kind::kLinear) {
        const GemmWeights g = gemm_weights(step);
        need_bpack = std::max(need_bpack, Traits::packed_b_size(batch, g.k));
        need_tmp = std::max(need_tmp, g.m * batch);
      }
    }
    const std::size_t raw = sizeof(typename Traits::Raw);
    bpack_.resize(need_bpack * sizeof(typename Traits::Pack));
    gemm_tmp_.resize(need_tmp * raw);
    ping_.resize(batch * max_image_elems_ * raw);
    pong_.resize(batch * max_image_elems_ * raw);
    row_ptrs_.resize(batch * sizeof(typename Traits::Row));
  });
  batch_capacity_ = batch;
}

void ExecutionContext::warm_packs() {
  if (precision_ == ServePrecision::kFloat32 && packs_ == nullptr) return;  // scalar float
  with_traits([&](const auto& t) {
    for (const Step& step : steps_) {
      if (step.kind == Step::Kind::kConv || step.kind == Step::Kind::kLinear) {
        (void)t.weights(gemm_weights(step));
      }
      const Activation* act = step.kind == Step::Kind::kActivation
                                  ? static_cast<const Activation*>(step.layer)
                                  : step.fused;
      if (act != nullptr) t.prepare(act->act());
    }
  });
}

void Network::run_plan(const Tensor* const* inputs, std::size_t count, ExecutionContext& ctx,
                       float* const* out_rows) const {
  ctx.ensure_batch(count);
  const Scratch scratch{ctx.bpack_.data(), ctx.ping_.data(), ctx.pong_.data(),
                        ctx.gemm_tmp_.data(), ctx.row_ptrs_.data()};
  ctx.with_traits([&](const auto& t) {
    nn::run_plan(t, ctx.steps_, scratch, inputs, count, out_rows);
  });
}

}  // namespace cnn2fpga::nn
