#include "layers.hpp"

#include <chrono>
#include <stdexcept>

#include "nn/activation.hpp"
#include "nn/conv.hpp"
#include "nn/linear.hpp"
#include "nn/pool.hpp"
#include "stats.hpp"
#include "util/base64.hpp"

namespace perfbench {

using namespace cnn2fpga;
namespace ker = nn::kernels;

namespace {

constexpr double kCheapBudgetS = 0.15;   ///< per direct figure, sub-millisecond calls
constexpr std::size_t kMinSamples = 21;  ///< 10 beyond the median, plus the median
constexpr std::size_t kMaxSamples = 1001;

/// Median timing of `fn` in microseconds (see kMinSamples / kMaxSamples).
template <typename Fn>
double median_us(Fn&& fn, double budget_s, std::size_t* samples_out = nullptr) {
  using Clock = std::chrono::steady_clock;
  std::vector<double> samples;
  const auto begin = Clock::now();
  while (samples.size() < kMinSamples ||
         (samples.size() < kMaxSamples &&
          std::chrono::duration<double>(Clock::now() - begin).count() < budget_s)) {
    const auto t0 = Clock::now();
    fn();
    samples.push_back(std::chrono::duration<double, std::micro>(Clock::now() - t0).count());
  }
  if (samples_out != nullptr) *samples_out = samples.size();
  return *percentile(std::move(samples), 0.5);
}

void add(Metrics& out, std::string name, double value, const char* unit,
         std::size_t samples = 0) {
  out.push_back({std::move(name), value, unit, samples});
}

/// Times one compute step of the plan with direct kernel calls on that
/// step's real input activations. Operation and byte counts come from the
/// shapes: bytes are the step's compulsory traffic (input, weights, bias,
/// output, as float32), not a measurement.
void measure_step(const nn::ExecutionContext::Step& step, const tensor::Tensor& input,
                  const std::string& label, Metrics& out) {
  using Kind = nn::ExecutionContext::Step::Kind;
  const std::string prefix = "nn.kernels." + label + ".";
  std::size_t n = 0;
  double flops = 0.0, bytes = 0.0, busy_us = 0.0;
  if (step.kind == Kind::kConv) {
    const auto* conv = static_cast<const nn::Conv2D*>(step.layer);
    const std::size_t ih = step.in_shape.height(), iw = step.in_shape.width();
    const std::size_t oh = step.out_shape.height(), ow = step.out_shape.width();
    const std::size_t m = conv->out_channels();
    const std::size_t k = conv->in_channels() * conv->kernel_h() * conv->kernel_w();
    const std::size_t cols = oh * ow;
    ker::PackedA wp;
    ker::pack_a(conv->weights().data(), m, k, wp);
    util::aligned_vector<float> bpack(ker::packed_b_size(cols, k));
    std::vector<float> c(m * cols);
    const int act = step.fused != nullptr ? static_cast<int>(step.fused->act()) : -1;
    const double im2col_us = median_us(
        [&] {
          ker::im2col_pack(input.data(), ih * iw, conv->in_channels(), ih, iw,
                           conv->kernel_h(), conv->kernel_w(), oh, ow, bpack.data(), 0, cols);
          ker::zero_pack_tail(bpack.data(), cols, k);
        },
        kCheapBudgetS, &n);
    add(out, prefix + "im2col_us", im2col_us, "us", n);
    const double gemm_us = median_us(
        [&] { ker::gemm(wp, bpack.data(), cols, conv->bias().data(), act, c.data(), cols); },
        kCheapBudgetS, &n);
    add(out, prefix + "gemm_us", gemm_us, "us", n);
    flops = 2.0 * static_cast<double>(m * k * cols);
    bytes = 4.0 * static_cast<double>(step.in_shape.elements() + m * k + m + m * cols);
    busy_us = im2col_us + gemm_us;
  } else if (step.kind == Kind::kPool) {
    const auto* pool = static_cast<const nn::Pool2D*>(step.layer);
    const std::size_t ih = step.in_shape.height(), iw = step.in_shape.width();
    const std::size_t oh = step.out_shape.height(), ow = step.out_shape.width();
    const std::size_t channels = step.in_shape.channels();
    std::vector<float> result(channels * oh * ow);
    std::vector<float> row(iw);
    const bool is_max = pool->pool_kind() == nn::PoolKind::kMax;
    busy_us = median_us(
        [&] {
          for (std::size_t ch = 0; ch < channels; ++ch) {
            ker::pool_plane(is_max, input.data() + ch * ih * iw, ih, iw, pool->kernel_h(),
                            pool->kernel_w(), pool->step(), oh, ow,
                            result.data() + ch * oh * ow, row.data());
          }
        },
        kCheapBudgetS, &n);
    add(out, prefix + "pool_us", busy_us, "us", n);
    flops = static_cast<double>(channels * oh * ow * pool->kernel_h() * pool->kernel_w());
    bytes = 4.0 * static_cast<double>(step.in_shape.elements() + channels * oh * ow);
  } else if (step.kind == Kind::kLinear) {
    const auto* lin = static_cast<const nn::Linear*>(step.layer);
    const std::size_t k = lin->in_features(), m = lin->out_features();
    ker::PackedA wp;
    ker::pack_a(lin->weights().data(), m, k, wp);
    util::aligned_vector<float> bpack(ker::packed_b_size(1, k));
    std::vector<float> c(m);
    const float* row = input.data();
    const int act = step.fused != nullptr ? static_cast<int>(step.fused->act()) : -1;
    // Packing the single input column is part of the step, as in serving.
    busy_us = median_us(
        [&] {
          ker::pack_b(&row, 1, k, bpack.data());
          ker::gemm(wp, bpack.data(), 1, lin->bias().data(), act, c.data(), 1);
        },
        kCheapBudgetS, &n);
    add(out, prefix + "gemm_us", busy_us, "us", n);
    flops = 2.0 * static_cast<double>(m * k);
    bytes = 4.0 * static_cast<double>(k + m * k + m + m);
  } else {
    return;
  }
  add(out, prefix + "flops", flops, "count");
  add(out, prefix + "bytes", bytes, "bytes");
  add(out, prefix + "gflops", flops / (busy_us * 1e3), "GFLOP/s");
}

std::string step_label(nn::ExecutionContext::Step::Kind kind, std::size_t ordinal) {
  using Kind = nn::ExecutionContext::Step::Kind;
  const char* stem = kind == Kind::kConv ? "conv" : kind == Kind::kPool ? "pool" : "fc";
  return stem + std::to_string(ordinal);
}

/// The Test-4 CIFAR plan's compute steps; the kernel metrics are named after
/// these for every workload (a step the workload's network lacks reads 0).
const std::vector<std::string>& kernel_step_names() {
  static const std::vector<std::string> names = {"conv1", "pool1", "conv2",
                                                 "pool2", "fc1",   "fc2"};
  return names;
}

}  // namespace

void measure_runtime_layers(const DirectInputs& in, Metrics& out) {
  const nn::Network& net = *in.net;
  const std::vector<tensor::Tensor>& images = *in.images;
  std::size_t n = 0;
  std::size_t next = 0;

  const double parse_us =
      median_us([&] { (void)json::parse(*in.request_body); }, kCheapBudgetS, &n);
  add(out, "json.parse_request_us", parse_us, "us", n);
  const json::Value body = json::parse(*in.request_body);
  const std::string& encoded = body.at(in.base64_field).as_string();
  const double decode_us = median_us(
      [&] {
        if (!util::base64_decode(encoded)) throw std::runtime_error("base64 decode failed");
      },
      kCheapBudgetS, &n);
  add(out, "util.base64_decode_us", decode_us, "us", n);

  nn::ExecutionContext ctx(net);
  const double infer_us = median_us(
      [&] { (void)net.infer(images[next++ % images.size()], ctx); }, kCheapBudgetS, &n);
  add(out, "nn.infer_us", infer_us, "us", n);
  std::vector<const tensor::Tensor*> batch_in(4);
  std::vector<tensor::Tensor> batch_out(4);
  const double batch_us = median_us(
      [&] {
        for (auto& image : batch_in) image = &images[next++ % images.size()];
        net.infer_batch(batch_in, batch_out, ctx);
      },
      kCheapBudgetS, &n);
  add(out, "nn.infer_batch4_us_per_image", batch_us / 4.0, "us", n);

  // Kernel steps: inputs are the real activations a scalar pass leaves in
  // each step's arena.
  nn::ExecutionContext scalar(net, ker::Kind::kScalar, nullptr);
  (void)net.infer(images.front(), scalar);
  Metrics kernels;
  if (ker::avx2_available()) {
    using Kind = nn::ExecutionContext::Step::Kind;
    std::size_t convs = 0, pools = 0, fcs = 0;
    for (std::size_t s = 0; s < scalar.steps().size(); ++s) {
      const auto& step = scalar.steps()[s];
      const tensor::Tensor& input = s == 0 ? images.front() : scalar.arena(s - 1);
      const std::size_t ordinal = step.kind == Kind::kConv   ? ++convs
                                  : step.kind == Kind::kPool ? ++pools
                                  : step.kind == Kind::kLinear ? ++fcs
                                                               : 0;
      if (ordinal == 0) continue;
      measure_step(step, input, step_label(step.kind, ordinal), kernels);
    }
  }
  // Fixed metric set: steps this network lacks (or a host without AVX2) read 0.
  for (const std::string& label : kernel_step_names()) {
    const bool is_conv = label.rfind("conv", 0) == 0;
    const bool is_pool = label.rfind("pool", 0) == 0;
    std::vector<std::pair<std::string, const char*>> names;
    if (is_conv) names = {{"im2col_us", "us"}, {"gemm_us", "us"}};
    if (is_pool) names = {{"pool_us", "us"}};
    if (!is_conv && !is_pool) names = {{"gemm_us", "us"}};
    names.insert(names.end(), {{"flops", "count"}, {"bytes", "bytes"}, {"gflops", "GFLOP/s"}});
    for (const auto& [suffix, unit] : names) {
      const std::string name = "nn.kernels." + label + "." + suffix;
      Metric metric{name, 0.0, unit, 0};
      for (const Metric& measured : kernels) {
        if (measured.name == name) metric = measured;
      }
      out.push_back(metric);
    }
  }

  // The deploy-time validation of a quantized design: 8 seeded probes
  // through forward_fixed with a reused scalar context, as the registry runs.
  const nn::FixedPointFormat int8 = nn::serve_precision_format(nn::ServePrecision::kInt8);
  nn::ExecutionContext fixed_ctx(net, ker::Kind::kScalar, nullptr);
  std::vector<tensor::Tensor> probes;
  util::Rng rng(0xC0FFEE51u);
  for (int p = 0; p < 8; ++p) {
    probes.emplace_back(net.input_shape());
    probes.back().fill_uniform(rng, -1.0f, 1.0f);
  }
  const double probes_us = median_us(
      [&] {
        for (const tensor::Tensor& probe : probes) {
          (void)nn::forward_fixed(net, probe, int8, fixed_ctx, /*track_output_error=*/true);
        }
      },
      1.0, &n);
  add(out, "nn.forward_fixed_probes_ms", probes_us / 1e3, "ms", n);
}

Metrics measure_codegen_layers(const core::NetworkDescriptor& descriptor,
                               const nn::Network& net,
                               const std::vector<std::uint8_t>& weights) {
  Metrics out;
  std::size_t n = 0;
  std::size_t bytes = 0;
  const double cpp_us = median_us(
      [&] { bytes = core::generate_cpp(descriptor, net).size(); }, 0.5, &n);
  add(out, "core.generate_cpp_ms", cpp_us / 1e3, "ms", n);
  add(out, "core.generate_cpp_bytes", static_cast<double>(bytes), "bytes");
  const double tcl_us =
      median_us([&] { (void)core::generate_tcl_files(descriptor, net); }, 0.2, &n);
  add(out, "core.generate_tcl_ms", tcl_us / 1e3, "ms", n);
  hls::FpgaDevice device = *hls::find_device(descriptor.board);
  const hls::DirectiveSet directives =
      descriptor.optimize ? hls::DirectiveSet::optimized() : hls::DirectiveSet::naive();
  const double estimate_us = median_us(
      [&] {
        (void)hls::estimate(net, directives, device, descriptor.precision,
                            descriptor.streamed_weights);
      },
      0.2, &n);
  add(out, "hls.estimate_ms", estimate_us / 1e3, "ms", n);
  const double key_us =
      median_us([&] { (void)core::Framework::cache_key(descriptor, weights); }, 0.2, &n);
  add(out, "core.cache_key_ms", key_us / 1e3, "ms", n);
  return out;
}

}  // namespace perfbench
