#include "util/base64.hpp"

#include <array>

namespace cnn2fpga::util {

namespace {
constexpr char kAlphabet[] = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

/// Sextet value of each byte; kInvalid (bit 7 set, which no sextet has) for
/// bytes outside the alphabet, '=' included.
constexpr std::uint8_t kInvalid = 0xFF;
constexpr std::array<std::uint8_t, 256> kReverse = [] {
  std::array<std::uint8_t, 256> table{};
  table.fill(kInvalid);
  for (int i = 0; i < 64; ++i) {
    table[static_cast<unsigned char>(kAlphabet[i])] = static_cast<std::uint8_t>(i);
  }
  return table;
}();
}  // namespace

std::string base64_encode(const std::vector<std::uint8_t>& bytes) {
  std::string out;
  out.reserve((bytes.size() + 2) / 3 * 4);
  std::size_t i = 0;
  while (i + 3 <= bytes.size()) {
    const std::uint32_t triple = (static_cast<std::uint32_t>(bytes[i]) << 16) |
                                 (static_cast<std::uint32_t>(bytes[i + 1]) << 8) |
                                 bytes[i + 2];
    out.push_back(kAlphabet[(triple >> 18) & 0x3F]);
    out.push_back(kAlphabet[(triple >> 12) & 0x3F]);
    out.push_back(kAlphabet[(triple >> 6) & 0x3F]);
    out.push_back(kAlphabet[triple & 0x3F]);
    i += 3;
  }
  const std::size_t rest = bytes.size() - i;
  if (rest == 1) {
    const std::uint32_t triple = static_cast<std::uint32_t>(bytes[i]) << 16;
    out.push_back(kAlphabet[(triple >> 18) & 0x3F]);
    out.push_back(kAlphabet[(triple >> 12) & 0x3F]);
    out.push_back('=');
    out.push_back('=');
  } else if (rest == 2) {
    const std::uint32_t triple = (static_cast<std::uint32_t>(bytes[i]) << 16) |
                                 (static_cast<std::uint32_t>(bytes[i + 1]) << 8);
    out.push_back(kAlphabet[(triple >> 18) & 0x3F]);
    out.push_back(kAlphabet[(triple >> 12) & 0x3F]);
    out.push_back(kAlphabet[(triple >> 6) & 0x3F]);
    out.push_back('=');
  }
  return out;
}

std::optional<std::vector<std::uint8_t>> base64_decode(std::string_view text) {
  if (text.size() % 4 != 0) return std::nullopt;
  if (text.empty()) return std::vector<std::uint8_t>{};

  // Padding is legal only as the last one or two characters of the last
  // group; every other group must be four alphabet characters.
  const auto* src = reinterpret_cast<const unsigned char*>(text.data());
  const unsigned char* last = src + text.size() - 4;
  const std::size_t padding = last[3] != '=' ? 0 : (last[2] != '=' ? 1 : 2);
  std::vector<std::uint8_t> out(text.size() / 4 * 3 - padding);
  std::uint8_t* dst = out.data();
  for (; src != last; src += 4, dst += 3) {
    const std::uint32_t a = kReverse[src[0]], b = kReverse[src[1]];
    const std::uint32_t c = kReverse[src[2]], d = kReverse[src[3]];
    if (((a | b | c | d) & 0x80) != 0) return std::nullopt;
    const std::uint32_t triple = (a << 18) | (b << 12) | (c << 6) | d;
    dst[0] = static_cast<std::uint8_t>(triple >> 16);
    dst[1] = static_cast<std::uint8_t>(triple >> 8);
    dst[2] = static_cast<std::uint8_t>(triple);
  }

  // The last group: a '=' in the first two positions, or a third-position
  // '=' followed by data, looks up as invalid.
  const std::uint32_t a = kReverse[last[0]], b = kReverse[last[1]];
  const std::uint32_t c = padding == 2 ? 0 : kReverse[last[2]];
  const std::uint32_t d = padding >= 1 ? 0 : kReverse[last[3]];
  if (((a | b | c | d) & 0x80) != 0) return std::nullopt;
  const std::uint32_t triple = (a << 18) | (b << 12) | (c << 6) | d;
  dst[0] = static_cast<std::uint8_t>(triple >> 16);
  if (padding < 2) dst[1] = static_cast<std::uint8_t>(triple >> 8);
  if (padding < 1) dst[2] = static_cast<std::uint8_t>(triple);
  return out;
}

}  // namespace cnn2fpga::util
