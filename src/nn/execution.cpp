#include "nn/execution.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/strings.hpp"

namespace cnn2fpga::nn {

using cnn2fpga::util::format;

ExecutionContext::ExecutionContext(const Network& net)
    : ExecutionContext(net, kernels::active(), nullptr) {}

ExecutionContext::ExecutionContext(const Network& net, kernels::Kind kind,
                                   std::shared_ptr<kernels::PackCache> packs)
    : ExecutionContext(net, kind, std::move(packs), ServePrecision::kFloat32, nullptr) {}

ExecutionContext::ExecutionContext(const Network& net, kernels::Kind kind,
                                   std::shared_ptr<kernels::PackCache> packs,
                                   ServePrecision precision,
                                   std::shared_ptr<kernels::QuantPackCache> qpacks)
    : net_(&net),
      kernel_(kind),
      packs_(std::move(packs)),
      precision_(precision),
      qpacks_(std::move(qpacks)) {
  if (kernel_ == kernels::Kind::kAvx2 && !kernels::avx2_available()) {
    throw std::runtime_error("ExecutionContext: AVX2 engine requested but unavailable");
  }
  if (precision_ != ServePrecision::kFloat32) {
    qformat_ = serve_precision_format(precision_);
    if (qpacks_ == nullptr) {
      qpacks_ = std::make_shared<kernels::QuantPackCache>(net.layer_count(), precision_);
    } else if (qpacks_->precision() != precision_) {
      throw std::invalid_argument(
          "ExecutionContext: shared QuantPackCache precision mismatch");
    }
  }
  std::size_t max_col = 0;
  std::size_t max_pool_row = 0;
  const std::size_t count = net.layer_count();
  std::size_t l = 0;
  while (l < count) {
    Step step;
    step.layer = &net.layer(l);
    step.layer_index = l;
    step.in_shape = l == 0 ? net.input_shape() : net.shape_after(l - 1);
    step.out_shape = net.shape_after(l);
    if (const auto* conv = dynamic_cast<const Conv2D*>(step.layer)) {
      step.kind = Step::Kind::kConv;
      max_col = std::max(max_col, conv->col_scratch_size(step.in_shape));
    } else if (dynamic_cast<const Linear*>(step.layer) != nullptr) {
      step.kind = Step::Kind::kLinear;
    } else if (dynamic_cast<const Pool2D*>(step.layer) != nullptr) {
      step.kind = Step::Kind::kPool;
      max_pool_row = std::max(max_pool_row, step.in_shape.width());
    } else if (dynamic_cast<const Activation*>(step.layer) != nullptr) {
      step.kind = Step::Kind::kActivation;
    } else if (dynamic_cast<const LogSoftMax*>(step.layer) != nullptr) {
      step.kind = Step::Kind::kLogSoftMax;
    }
    ++l;
    // Fuse a directly following Activation into its producer: the activation
    // is applied elementwise to each finished accumulator, so fusion skips an
    // arena round trip without touching the arithmetic.
    if ((step.kind == Step::Kind::kConv || step.kind == Step::Kind::kLinear) && l < count) {
      if (const auto* act = dynamic_cast<const Activation*>(&net.layer(l))) {
        step.fused = act;
        step.out_shape = net.shape_after(l);
        ++l;
      }
    }
    steps_.push_back(step);
  }
  if (steps_.empty()) {
    arenas_.emplace_back(net.input_shape());
  } else {
    arenas_.reserve(steps_.size());
    for (const Step& step : steps_) arenas_.emplace_back(step.out_shape);
  }
  col_.resize(max_col);

  max_image_elems_ = net.input_shape().elements();
  for (const Step& step : steps_) {
    max_image_elems_ = std::max(max_image_elems_, step.out_shape.elements());
  }
  if (kernel_ == kernels::Kind::kAvx2 && precision_ == ServePrecision::kFloat32) {
    if (packs_ == nullptr) packs_ = std::make_shared<kernels::PackCache>(count);
    pool_row_.resize(max_pool_row);
  }
}

const Tensor& Network::infer(const Tensor& input, ExecutionContext& ctx) const {
  if (&ctx.network() != this) {
    throw std::invalid_argument("Network::infer: context was built for a different network");
  }
  if (input.shape() != input_shape_) {
    throw std::invalid_argument(format("Network::infer: expected input %s, got %s",
                                       input_shape_.to_string().c_str(),
                                       input.shape().to_string().c_str()));
  }
  const std::vector<ExecutionContext::Step>& steps = ctx.steps();
  if (steps.empty()) {
    ctx.arena(0) = input;
    return ctx.arena(0);
  }

  if (runs_plan(ctx)) {
    // A batch of one through the fused walker: identical arithmetic to
    // infer_batch by construction, so serving's batched path and the latency
    // path agree bit-for-bit.
    const Tensor* in_ptr = &input;
    Tensor& out = ctx.arena(steps.size() - 1);
    float* out_row = out.data();
    run_plan(&in_ptr, 1, ctx, &out_row);
    return out;
  }

  const Tensor* current = &input;
  for (std::size_t s = 0; s < steps.size(); ++s) {
    const ExecutionContext::Step& step = steps[s];
    Tensor& out = ctx.arena(s);
    switch (step.kind) {
      case ExecutionContext::Step::Kind::kConv:
        static_cast<const Conv2D*>(step.layer)->infer_into(*current, out, ctx.col_scratch(),
                                                           step.fused);
        break;
      case ExecutionContext::Step::Kind::kLinear:
        static_cast<const Linear*>(step.layer)->infer_into(*current, out, step.fused);
        break;
      default:
        step.layer->infer_into(*current, out);
        break;
    }
    current = &out;
  }
  return *current;
}

bool Network::runs_plan(const ExecutionContext& ctx) {
  // run_plan executes conv/pool/linear/activation steps with at most a final
  // LogSoftMax; other float plans take the scalar step walk.
  const std::vector<ExecutionContext::Step>& steps = ctx.steps();
  bool supported = true;
  for (std::size_t s = 0; s < steps.size(); ++s) {
    const ExecutionContext::Step::Kind kind = steps[s].kind;
    if (kind == ExecutionContext::Step::Kind::kGeneric ||
        (kind == ExecutionContext::Step::Kind::kLogSoftMax && s + 1 != steps.size())) {
      supported = false;
    }
  }
  if (ctx.precision() == ServePrecision::kFloat32) {
    return supported && ctx.kernel() == kernels::Kind::kAvx2;
  }
  if (!supported) {
    throw std::invalid_argument(
        "Network: quantized serving requires a conv/pool/linear/activation plan "
        "with at most a final logsoftmax");
  }
  return true;
}

void Network::infer_batch(std::span<const Tensor* const> inputs, std::span<Tensor> outputs,
                          ExecutionContext& ctx) const {
  if (inputs.size() != outputs.size()) {
    throw std::invalid_argument("Network::infer_batch: inputs/outputs size mismatch");
  }
  if (inputs.empty()) return;
  if (&ctx.network() != this) {
    throw std::invalid_argument("Network::infer_batch: context was built for a different network");
  }
  for (const Tensor* input : inputs) {
    if (input == nullptr || input->shape() != input_shape_) {
      throw std::invalid_argument("Network::infer_batch: bad input shape");
    }
  }
  if (ctx.steps().empty() || !runs_plan(ctx)) {
    for (std::size_t i = 0; i < inputs.size(); ++i) outputs[i] = infer(*inputs[i], ctx);
    return;
  }
  const Shape& out_shape = output_shape();
  std::vector<float*> out_rows(inputs.size());
  for (std::size_t i = 0; i < outputs.size(); ++i) {
    if (outputs[i].shape() != out_shape) outputs[i] = Tensor(out_shape);
    out_rows[i] = outputs[i].data();
  }
  run_plan(inputs.data(), inputs.size(), ctx, out_rows.data());
}

std::vector<Tensor> Network::infer_batch(const std::vector<Tensor>& inputs,
                                         ExecutionContext& ctx) const {
  std::vector<Tensor> outputs(inputs.size());
  std::vector<const Tensor*> ptrs(inputs.size());
  for (std::size_t i = 0; i < inputs.size(); ++i) ptrs[i] = &inputs[i];
  infer_batch(std::span<const Tensor* const>(ptrs), std::span<Tensor>(outputs), ctx);
  return outputs;
}

std::size_t Network::predict(const Tensor& input) const {
  ExecutionContext ctx(*this);
  return infer(input, ctx).argmax();
}

}  // namespace cnn2fpga::nn
