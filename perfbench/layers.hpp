// Direct single-thread calls into the program's layers on a workload's own
// inputs: json, util/base64, nn, nn/kernels, core and hls. The traced run
// reports these beside the span-derived figures, so a change inside one
// module shows up on that module's line even when serving noise hides it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cnn2fpga.hpp"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;  ///< sample count behind the figure (0 = a count)
};
using Metrics = std::vector<Metric>;

struct DirectInputs {
  const cnn2fpga::nn::Network* net = nullptr;  ///< weights loaded
  const std::vector<cnn2fpga::tensor::Tensor>* images = nullptr;
  const std::string* request_body = nullptr;   ///< the workload's typical body
  std::string base64_field;                    ///< its base64 member
};

/// json.parse_request_us, util.base64_decode_us, nn.infer_us,
/// nn.infer_batch4_us_per_image, nn.kernels.*, nn.forward_fixed_probes_ms.
void measure_runtime_layers(const DirectInputs& in, Metrics& out);

/// core.generate_cpp_ms, core.generate_cpp_bytes, core.generate_tcl_ms,
/// hls.estimate_ms, core.cache_key_ms for one network.
Metrics measure_codegen_layers(const cnn2fpga::core::NetworkDescriptor& descriptor,
                               const cnn2fpga::nn::Network& net,
                               const std::vector<std::uint8_t>& weights);

}  // namespace perfbench
