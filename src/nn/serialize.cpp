#include "nn/serialize.hpp"

#include <cstring>
#include <stdexcept>

#include "util/fileio.hpp"
#include "util/strings.hpp"

namespace cnn2fpga::nn {

using cnn2fpga::util::format;

namespace {

constexpr char kMagic[] = "CNN2FPGAW1\n";
constexpr std::size_t kMagicLen = sizeof(kMagic) - 1;

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  out.push_back(static_cast<std::uint8_t>(v & 0xFF));
  out.push_back(static_cast<std::uint8_t>((v >> 8) & 0xFF));
  out.push_back(static_cast<std::uint8_t>((v >> 16) & 0xFF));
  out.push_back(static_cast<std::uint8_t>((v >> 24) & 0xFF));
}

class Reader {
 public:
  explicit Reader(const std::vector<std::uint8_t>& bytes) : bytes_(bytes) {}

  std::uint32_t u32() {
    need(4);
    std::uint32_t v = 0;
    v |= bytes_[pos_];
    v |= static_cast<std::uint32_t>(bytes_[pos_ + 1]) << 8;
    v |= static_cast<std::uint32_t>(bytes_[pos_ + 2]) << 16;
    v |= static_cast<std::uint32_t>(bytes_[pos_ + 3]) << 24;
    pos_ += 4;
    return v;
  }

  std::string string(std::size_t len) {
    need(len);
    std::string s(reinterpret_cast<const char*>(bytes_.data() + pos_), len);
    pos_ += len;
    return s;
  }

  void floats(float* dst, std::size_t count) {
    need(count * 4);
    std::memcpy(dst, bytes_.data() + pos_, count * 4);
    pos_ += count * 4;
  }

  bool done() const { return pos_ == bytes_.size(); }

 private:
  void need(std::size_t n) const {
    if (pos_ + n > bytes_.size()) {
      throw std::runtime_error(format("weight file truncated: need %zu bytes at offset %zu, "
                                      "file has %zu", n, pos_, bytes_.size()));
    }
  }

  const std::vector<std::uint8_t>& bytes_;
  std::size_t pos_ = 0;
};

}  // namespace

std::vector<std::uint8_t> serialize_weights(const Network& net) {
  std::vector<std::uint8_t> out(kMagic, kMagic + kMagicLen);
  // params() hands out mutable tensor pointers for the trainer; this only
  // reads through them.
  const std::vector<Param> params = const_cast<Network&>(net).params();
  put_u32(out, static_cast<std::uint32_t>(params.size()));
  for (const Param& p : params) {
    put_u32(out, static_cast<std::uint32_t>(p.name.size()));
    out.insert(out.end(), p.name.begin(), p.name.end());
    const tensor::Shape& shape = p.value->shape();
    put_u32(out, static_cast<std::uint32_t>(shape.rank()));
    for (std::size_t d = 0; d < shape.rank(); ++d) {
      put_u32(out, static_cast<std::uint32_t>(shape[d]));
    }
    const std::size_t byte_count = p.value->size() * 4;
    const std::size_t offset = out.size();
    out.resize(offset + byte_count);
    std::memcpy(out.data() + offset, p.value->data(), byte_count);
  }
  return out;
}

void save_weights(const Network& net, const std::string& path) {
  util::write_file_bytes(path, serialize_weights(net));
}

void deserialize_weights(Network& net, const std::vector<std::uint8_t>& bytes) {
  if (bytes.size() < kMagicLen ||
      std::memcmp(bytes.data(), kMagic, kMagicLen) != 0) {
    throw std::runtime_error("weight file: bad magic (not a CNN2FPGAW1 file)");
  }
  std::vector<std::uint8_t> body(bytes.begin() + static_cast<long>(kMagicLen), bytes.end());
  Reader reader(body);

  const std::vector<Param> params = net.params();
  const std::uint32_t count = reader.u32();
  if (count != params.size()) {
    throw std::runtime_error(format("weight file: %u tensors, network expects %zu",
                                    count, params.size()));
  }

  for (const Param& p : params) {
    const std::uint32_t name_len = reader.u32();
    if (name_len > 4096) throw std::runtime_error("weight file: implausible tensor name length");
    const std::string name = reader.string(name_len);
    if (name != p.name) {
      throw std::runtime_error(format("weight file: tensor '%s' where network expects '%s'",
                                      name.c_str(), p.name.c_str()));
    }
    const std::uint32_t rank = reader.u32();
    if (rank > 4) throw std::runtime_error("weight file: rank > 4");
    std::vector<std::size_t> dims(rank);
    for (std::uint32_t d = 0; d < rank; ++d) dims[d] = reader.u32();
    const tensor::Shape shape{std::span<const std::size_t>(dims)};
    if (shape != p.value->shape()) {
      throw std::runtime_error(format("weight file: tensor '%s' has shape %s, network expects %s",
                                      name.c_str(), shape.to_string().c_str(),
                                      p.value->shape().to_string().c_str()));
    }
    reader.floats(p.value->data(), p.value->size());
  }
  if (!reader.done()) throw std::runtime_error("weight file: trailing bytes after last tensor");
}

void load_weights(Network& net, const std::string& path) {
  deserialize_weights(net, util::read_file_bytes(path));
}

}  // namespace cnn2fpga::nn
