#include "nn/fixed_inference.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace cnn2fpga::nn {

namespace {

using Raw = std::int32_t;

std::vector<Raw> quantize_tensor(const Tensor& t, const FixedPointFormat& format) {
  std::vector<Raw> out(t.size());
  for (std::size_t i = 0; i < t.size(); ++i) out[i] = fixed_quantize(t[i], format);
  return out;
}

/// Quantize every conv/linear parameter tensor into the context's cache.
/// Rebuilt only when the cache is cold or the format changed.
void build_fixed_cache(const Network& net, const FixedPointFormat& format,
                       ExecutionContext::FixedState& fs) {
  if (fs.valid && fs.format == format) return;
  fs.weights.assign(net.layer_count(), {});
  fs.biases.assign(net.layer_count(), {});
  for (std::size_t l = 0; l < net.layer_count(); ++l) {
    const Layer& layer = net.layer(l);
    if (const auto* conv = dynamic_cast<const Conv2D*>(&layer)) {
      fs.weights[l] = quantize_tensor(conv->weights(), format);
      fs.biases[l] = quantize_tensor(conv->bias(), format);
    } else if (const auto* linear = dynamic_cast<const Linear*>(&layer)) {
      fs.weights[l] = quantize_tensor(linear->weights(), format);
      fs.biases[l] = quantize_tensor(linear->bias(), format);
    }
  }
  fs.format = format;
  fs.valid = true;
}

/// Patch-major im2col into `col` (row q = tap (c, m, n) of every output
/// pixel), then each weight tap swept over the whole output plane into one
/// int64 accumulator per output (`acc`, one plane per output channel). The
/// products and sums are those of the textbook per-output window loop, and
/// integer addition is exact, so the order does not change a single bit of
/// the result. Where the compiler can target AVX2, it also emits an AVX2
/// clone, picked at load time on hosts that have it, whose plane sweep uses
/// packed 32x32->64 multiplies. ThreadSanitizer builds keep only the default
/// clone: the load-time resolver runs before the TSan runtime is initialized
/// and crashes.
#if defined(CNN2FPGA_HAVE_AVX2) && !defined(__SANITIZE_THREAD__)
__attribute__((target_clones("avx2", "default")))
#endif
void run_conv(const Conv2D& conv, const std::vector<Raw>& w, const std::vector<Raw>& b,
              const std::vector<Raw>& x, const Shape& in_shape, const Shape& out_shape,
              const FixedPointFormat& format, std::vector<Raw>& col,
              std::vector<std::int64_t>& acc, std::vector<Raw>& out) {
  const std::size_t C = conv.in_channels(), KH = conv.kernel_h(), KW = conv.kernel_w();
  const std::size_t IH = in_shape.height(), IW = in_shape.width();
  const std::size_t OH = out_shape.height(), OW = out_shape.width();
  const std::size_t plane = OH * OW;
  const std::size_t patch = C * KH * KW;

  col.resize(patch * plane);
  Raw* row = col.data();
  for (std::size_t c = 0; c < C; ++c) {
    for (std::size_t m = 0; m < KH; ++m) {
      for (std::size_t n = 0; n < KW; ++n) {
        for (std::size_t i = 0; i < OH; ++i) {
          const Raw* src = x.data() + (c * IH + (i + m)) * IW + n;
          for (std::size_t j = 0; j < OW; ++j) *row++ = src[j];
        }
      }
    }
  }

  out.resize(out_shape.elements());
  acc.resize(plane);
  for (std::size_t k = 0; k < conv.out_channels(); ++k) {
    // Bias is frac-scaled; products are 2*frac-scaled: align the bias up.
    std::fill(acc.begin(), acc.end(), static_cast<std::int64_t>(b[k]) << format.frac_bits);
    const Raw* wk = w.data() + k * patch;
    for (std::size_t q = 0; q < patch; ++q) {
      const std::int64_t wv = wk[q];
      const Raw* cq = col.data() + q * plane;
      for (std::size_t p = 0; p < plane; ++p) acc[p] += wv * cq[p];
    }
    Raw* oplane = out.data() + k * plane;
    for (std::size_t p = 0; p < plane; ++p) oplane[p] = fixed_renormalize(acc[p], format);
  }
}

void run_pool(const Pool2D& pool, const std::vector<Raw>& x, const Shape& in_shape,
              const Shape& out_shape, const FixedPointFormat& format, std::vector<Raw>& out) {
  const std::size_t C = out_shape.channels(), OH = out_shape.height(), OW = out_shape.width();
  const std::size_t IH = in_shape.height(), IW = in_shape.width();
  const std::size_t KH = pool.kernel_h(), KW = pool.kernel_w(), S = pool.step();

  out.resize(out_shape.elements());
  for (std::size_t c = 0; c < C; ++c) {
    for (std::size_t i = 0; i < OH; ++i) {
      for (std::size_t j = 0; j < OW; ++j) {
        if (pool.pool_kind() == PoolKind::kMax) {
          Raw best = x[(c * IH + i * S) * IW + j * S];
          for (std::size_t m = 0; m < KH; ++m) {
            for (std::size_t n = 0; n < KW; ++n) {
              best = std::max(best, x[(c * IH + (i * S + m)) * IW + (j * S + n)]);
            }
          }
          out[(c * OH + i) * OW + j] = best;
        } else {
          std::int64_t acc = 0;
          for (std::size_t m = 0; m < KH; ++m) {
            for (std::size_t n = 0; n < KW; ++n) {
              acc += x[(c * IH + (i * S + m)) * IW + (j * S + n)];
            }
          }
          // Symmetric round-half-away integer mean; the generated fixed C++
          // emits this exact expression so both sides agree bit-for-bit.
          const std::int64_t window = static_cast<std::int64_t>(KH * KW);
          const std::int64_t mean = acc >= 0 ? (acc + window / 2) / window
                                             : -((-acc + window / 2) / window);
          out[(c * OH + i) * OW + j] = fixed_saturate(mean, format);
        }
      }
    }
  }
}

void run_linear(const Linear& linear, const std::vector<Raw>& w, const std::vector<Raw>& b,
                const std::vector<Raw>& x, const FixedPointFormat& format,
                std::vector<Raw>& out) {
  const std::size_t I = linear.in_features(), J = linear.out_features();

  out.resize(J);
  for (std::size_t j = 0; j < J; ++j) {
    std::int64_t acc = static_cast<std::int64_t>(b[j]) << format.frac_bits;
    for (std::size_t i = 0; i < I; ++i) {
      acc += static_cast<std::int64_t>(w[j * I + i]) * static_cast<std::int64_t>(x[i]);
    }
    out[j] = fixed_renormalize(acc, format);
  }
}

void run_activation(const Activation& act, const std::vector<Raw>& x,
                    const FixedPointFormat& format, std::vector<Raw>& out) {
  out.resize(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (act.act() == ActKind::kReLU) {
      out[i] = x[i] > 0 ? x[i] : 0;  // exact in fixed point
    } else {
      const float y = Activation::apply(act.act(), fixed_dequantize(x[i], format));
      out[i] = fixed_quantize(y, format);
    }
  }
}

/// Float-path activations feeding network layer `l`, read back out of the
/// context after a full float infer() (the pre-LogSoftMax logits for the
/// quantization-error signal). Accounts for fused steps.
const Tensor& reference_before_layer(const ExecutionContext& ctx, const Tensor& input,
                                     std::size_t l) {
  const auto& steps = ctx.steps();
  for (std::size_t s = 0; s < steps.size(); ++s) {
    if (steps[s].layer_index == l) return s == 0 ? input : ctx.arena(s - 1);
  }
  return ctx.output();
}

}  // namespace

FixedForwardResult forward_fixed(const Network& net, const Tensor& input,
                                 const FixedPointFormat& format) {
  ExecutionContext ctx(net);
  return forward_fixed(net, input, format, ctx);
}

FixedForwardResult forward_fixed(const Network& net, const Tensor& input,
                                 const FixedPointFormat& format, ExecutionContext& ctx,
                                 bool track_output_error) {
  format.validate();
  if (&ctx.network() != &net) {
    throw std::invalid_argument("forward_fixed: context was built for a different network");
  }
  if (input.shape() != net.input_shape()) {
    throw std::invalid_argument("forward_fixed: input shape mismatch");
  }

  ExecutionContext::FixedState& fs = ctx.fixed_state();
  build_fixed_cache(net, format, fs);

  std::vector<Raw>* acts = &fs.ping;
  std::vector<Raw>* next = &fs.pong;
  acts->resize(input.size());
  for (std::size_t i = 0; i < input.size(); ++i) (*acts)[i] = fixed_quantize(input[i], format);
  Shape shape = net.input_shape();

  FixedForwardResult result;
  for (std::size_t l = 0; l < net.layer_count(); ++l) {
    const Layer& layer = net.layer(l);
    const Shape& out_shape = net.shape_after(l);
    if (const auto* conv = dynamic_cast<const Conv2D*>(&layer)) {
      run_conv(*conv, fs.weights[l], fs.biases[l], *acts, shape, out_shape, format, fs.col,
               fs.acc, *next);
    } else if (const auto* pool = dynamic_cast<const Pool2D*>(&layer)) {
      run_pool(*pool, *acts, shape, out_shape, format, *next);
    } else if (const auto* linear = dynamic_cast<const Linear*>(&layer)) {
      run_linear(*linear, fs.weights[l], fs.biases[l], *acts, format, *next);
    } else if (const auto* act = dynamic_cast<const Activation*>(&layer)) {
      run_activation(*act, *acts, format, *next);
    } else if (dynamic_cast<const LogSoftMax*>(&layer) != nullptr) {
      // Dequantize and evaluate the output normalizer in float, exactly as
      // the generated fixed design does.
      Tensor logits(Shape{acts->size()});
      for (std::size_t i = 0; i < acts->size(); ++i) {
        logits[i] = fixed_dequantize((*acts)[i], format);
      }
      LogSoftMax lsm;
      result.scores = Tensor(logits.shape());
      lsm.infer_into(logits, result.scores);
      result.predicted = result.scores.argmax();

      if (track_output_error) {
        // Quantization-quality signal: compare pre-softmax logits to the
        // *scalar* float reference (the HLS-exact path). The read-back needs
        // the per-step arenas, which the fused SIMD engine does not
        // materialize — and the quantization error should be measured against
        // the bit-exact oracle regardless of the caller's kernel engine.
        const auto accumulate_error = [&](const ExecutionContext& ref_ctx) {
          const Tensor& ref = reference_before_layer(ref_ctx, input, l);
          for (std::size_t i = 0; i < acts->size(); ++i) {
            result.output_error = std::max(result.output_error, std::fabs(ref[i] - logits[i]));
          }
        };
        if (ctx.kernel() == kernels::Kind::kScalar) {
          (void)net.infer(input, ctx);
          accumulate_error(ctx);
        } else {
          ExecutionContext scalar_ctx(net, kernels::Kind::kScalar, nullptr);
          (void)net.infer(input, scalar_ctx);
          accumulate_error(scalar_ctx);
        }
      }
      return result;
    }
    std::swap(acts, next);
    shape = out_shape;
  }

  // Network without a LogSoftMax tail: return dequantized raw scores.
  result.scores = Tensor(Shape{acts->size()});
  for (std::size_t i = 0; i < acts->size(); ++i) {
    result.scores[i] = fixed_dequantize((*acts)[i], format);
  }
  result.predicted = result.scores.argmax();
  return result;
}

float evaluate_error_fixed(const Network& net, const std::vector<Sample>& samples,
                           const FixedPointFormat& format) {
  if (samples.empty()) return 1.0f;
  ExecutionContext ctx(net);
  std::size_t wrong = 0;
  for (const Sample& sample : samples) {
    const FixedForwardResult out =
        forward_fixed(net, sample.image, format, ctx, /*track_output_error=*/false);
    if (out.predicted != sample.label) ++wrong;
  }
  return static_cast<float>(wrong) / static_cast<float>(samples.size());
}

}  // namespace cnn2fpga::nn
