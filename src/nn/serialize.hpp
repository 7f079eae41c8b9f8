// Weight-file (de)serialization.
//
// The framework's input contract (paper Sec. IV) is "the file containing the
// trained weights" exported by the training framework. This module defines
// that format:
//
//   magic   "CNN2FPGAW1\n"            (11 bytes)
//   u32     tensor count              (little-endian)
//   per tensor:
//     u32   name length, name bytes   (e.g. "layer0.weights")
//     u32   rank, u32 dims[rank]
//     f32   data[prod(dims)]          (IEEE-754 little-endian)
//
// The format is self-describing enough that loading validates tensor names
// and shapes against the target network and reports precise mismatches —
// this is what catches "weights trained for a different architecture".
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "nn/network.hpp"

namespace cnn2fpga::nn {

/// Serialize all learnable parameters of the network.
std::vector<std::uint8_t> serialize_weights(const Network& net);
void save_weights(const Network& net, const std::string& path);

/// Load parameters into an already-constructed network of the same
/// architecture. Throws std::runtime_error with a descriptive message on
/// magic/name/shape mismatch or truncation.
void deserialize_weights(Network& net, const std::vector<std::uint8_t>& bytes);
void load_weights(Network& net, const std::string& path);

}  // namespace cnn2fpga::nn
