// Test oracles for fixed-point inference: the textbook loops, one output at a
// time with its own window and accumulator, in the Q(m,n) arithmetic of
// nn/quantize.hpp. nn::forward_fixed runs different loop orders and must
// match them bit for bit.
#pragma once

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "nn/network.hpp"
#include "nn/quantize.hpp"

namespace cnn2fpga::test {

inline std::vector<std::int32_t> quantize_all(const tensor::Tensor& t,
                                              const nn::FixedPointFormat& fmt) {
  std::vector<std::int32_t> out(t.size());
  for (std::size_t i = 0; i < t.size(); ++i) out[i] = nn::fixed_quantize(t[i], fmt);
  return out;
}

inline std::vector<std::int32_t> naive_fixed_conv(const nn::Conv2D& conv,
                                                  const std::vector<std::int32_t>& x,
                                                  const nn::Shape& in,
                                                  const nn::FixedPointFormat& fmt) {
  const std::vector<std::int32_t> w = quantize_all(conv.weights(), fmt);
  const std::vector<std::int32_t> b = quantize_all(conv.bias(), fmt);
  const std::size_t C = conv.in_channels(), KH = conv.kernel_h(), KW = conv.kernel_w();
  const std::size_t IH = in.height(), IW = in.width();
  const std::size_t OH = IH - KH + 1, OW = IW - KW + 1;
  std::vector<std::int32_t> out(conv.out_channels() * OH * OW);
  for (std::size_t k = 0; k < conv.out_channels(); ++k) {
    for (std::size_t i = 0; i < OH; ++i) {
      for (std::size_t j = 0; j < OW; ++j) {
        std::int64_t acc = static_cast<std::int64_t>(b[k]) << fmt.frac_bits;
        for (std::size_t c = 0; c < C; ++c) {
          for (std::size_t m = 0; m < KH; ++m) {
            for (std::size_t n = 0; n < KW; ++n) {
              const std::int64_t wv = w[((k * C + c) * KH + m) * KW + n];
              const std::int64_t xv = x[(c * IH + (i + m)) * IW + (j + n)];
              acc += wv * xv;
            }
          }
        }
        out[(k * OH + i) * OW + j] = nn::fixed_renormalize(acc, fmt);
      }
    }
  }
  return out;
}

/// Max pooling only: the probe networks these oracles check have no mean pool.
inline std::vector<std::int32_t> naive_fixed_max_pool(const nn::Pool2D& pool,
                                                      const std::vector<std::int32_t>& x,
                                                      const nn::Shape& in,
                                                      const nn::Shape& out_shape) {
  if (pool.pool_kind() != nn::PoolKind::kMax) {
    throw std::invalid_argument("naive_fixed_max_pool: mean pooling");
  }
  const std::size_t IH = in.height(), IW = in.width(), S = pool.step();
  const std::size_t OH = out_shape.height(), OW = out_shape.width();
  std::vector<std::int32_t> out(out_shape.elements());
  for (std::size_t c = 0; c < out_shape.channels(); ++c) {
    for (std::size_t i = 0; i < OH; ++i) {
      for (std::size_t j = 0; j < OW; ++j) {
        std::int32_t best = x[(c * IH + i * S) * IW + j * S];
        for (std::size_t m = 0; m < pool.kernel_h(); ++m) {
          for (std::size_t n = 0; n < pool.kernel_w(); ++n) {
            best = std::max(best, x[(c * IH + (i * S + m)) * IW + (j * S + n)]);
          }
        }
        out[(c * OH + i) * OW + j] = best;
      }
    }
  }
  return out;
}

inline std::vector<std::int32_t> naive_fixed_linear(const nn::Linear& linear,
                                                    const std::vector<std::int32_t>& x,
                                                    const nn::FixedPointFormat& fmt) {
  const std::vector<std::int32_t> w = quantize_all(linear.weights(), fmt);
  const std::vector<std::int32_t> b = quantize_all(linear.bias(), fmt);
  std::vector<std::int32_t> out(linear.out_features());
  for (std::size_t j = 0; j < out.size(); ++j) {
    std::int64_t acc = static_cast<std::int64_t>(b[j]) << fmt.frac_bits;
    for (std::size_t i = 0; i < x.size(); ++i) {
      acc += static_cast<std::int64_t>(w[j * x.size() + i]) * x[i];
    }
    out[j] = nn::fixed_renormalize(acc, fmt);
  }
  return out;
}

/// Raw fixed-point values entering the network's trailing LogSoftMax (or its
/// output, without one) for conv / max-pool / linear / activation networks.
inline std::vector<std::int32_t> naive_fixed_logits(const nn::Network& net,
                                                    const tensor::Tensor& image,
                                                    const nn::FixedPointFormat& fmt) {
  std::vector<std::int32_t> x = quantize_all(image, fmt);
  nn::Shape shape = net.input_shape();
  for (std::size_t l = 0; l < net.layer_count(); ++l) {
    const nn::Layer& layer = net.layer(l);
    if (dynamic_cast<const nn::LogSoftMax*>(&layer) != nullptr) break;
    if (const auto* conv = dynamic_cast<const nn::Conv2D*>(&layer)) {
      x = naive_fixed_conv(*conv, x, shape, fmt);
    } else if (const auto* pool = dynamic_cast<const nn::Pool2D*>(&layer)) {
      x = naive_fixed_max_pool(*pool, x, shape, net.shape_after(l));
    } else if (const auto* linear = dynamic_cast<const nn::Linear*>(&layer)) {
      x = naive_fixed_linear(*linear, x, fmt);
    } else if (const auto* act = dynamic_cast<const nn::Activation*>(&layer)) {
      for (std::int32_t& v : x) {
        v = act->act() == nn::ActKind::kReLU
                ? std::max(v, 0)
                : nn::fixed_quantize(
                      nn::Activation::apply(act->act(), nn::fixed_dequantize(v, fmt)), fmt);
      }
    } else {
      throw std::invalid_argument("naive_fixed_logits: unsupported layer " + layer.kind());
    }
    shape = net.shape_after(l);
  }
  return x;
}

}  // namespace cnn2fpga::test
