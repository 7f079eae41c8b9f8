// Tests for the extension features: base64 transport, roofline analysis
// (the Zhang et al. [9] methodology), and the online-training web API
// (the paper's stated future work).
#include <gtest/gtest.h>

#include <optional>
#include <string_view>

#include "hls/roofline.hpp"
#include "json/json.hpp"
#include "util/base64.hpp"
#include "util/rng.hpp"
#include "web/api.hpp"

using namespace cnn2fpga;
namespace json = cnn2fpga::json;

// ---------------------------------------------------------------- base64

TEST(Base64, KnownVectors) {
  // RFC 4648 test vectors.
  const auto enc = [](const std::string& s) {
    return util::base64_encode(std::vector<std::uint8_t>(s.begin(), s.end()));
  };
  EXPECT_EQ(enc(""), "");
  EXPECT_EQ(enc("f"), "Zg==");
  EXPECT_EQ(enc("fo"), "Zm8=");
  EXPECT_EQ(enc("foo"), "Zm9v");
  EXPECT_EQ(enc("foob"), "Zm9vYg==");
  EXPECT_EQ(enc("fooba"), "Zm9vYmE=");
  EXPECT_EQ(enc("foobar"), "Zm9vYmFy");
}

TEST(Base64, RoundTripsRandomBinary) {
  util::Rng rng(1);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<std::uint8_t> bytes(rng.next_below(200));
    for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.next_below(256));
    const auto decoded = util::base64_decode(util::base64_encode(bytes));
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(*decoded, bytes);
  }
}

TEST(Base64, RejectsMalformedInput) {
  EXPECT_FALSE(util::base64_decode("abc").has_value());       // length % 4
  EXPECT_FALSE(util::base64_decode("ab!d").has_value());      // bad character
  EXPECT_FALSE(util::base64_decode("=abc").has_value());      // leading padding
  EXPECT_FALSE(util::base64_decode("Zg==Zg==").has_value());  // padding mid-stream
  EXPECT_FALSE(util::base64_decode("Z===").has_value());      // 3 pad chars
  EXPECT_TRUE(util::base64_decode("").has_value());
}

namespace {

/// Oracle: the textbook decoder, one character at a time. util::base64_decode
/// decodes whole groups at once and must accept and reject the same inputs.
std::optional<std::vector<std::uint8_t>> charwise_base64_decode(std::string_view text) {
  static const std::string alphabet =
      "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";
  if (text.size() % 4 != 0) return std::nullopt;
  std::vector<std::uint8_t> out;
  for (std::size_t i = 0; i < text.size(); i += 4) {
    int padding = 0;
    std::uint32_t triple = 0;
    for (std::size_t j = 0; j < 4; ++j) {
      const char c = text[i + j];
      if (c == '=') {
        if (i + 4 != text.size() || j < 2) return std::nullopt;
        ++padding;
        triple <<= 6;
        continue;
      }
      if (padding > 0) return std::nullopt;
      const std::size_t value = alphabet.find(c);
      if (c == '\0' || value == std::string::npos) return std::nullopt;
      triple = (triple << 6) | static_cast<std::uint32_t>(value);
    }
    out.push_back(static_cast<std::uint8_t>(triple >> 16));
    if (padding < 2) out.push_back(static_cast<std::uint8_t>(triple >> 8));
    if (padding < 1) out.push_back(static_cast<std::uint8_t>(triple));
  }
  return out;
}

void expect_same_verdict(const std::string& text, const std::string& context) {
  const auto got = util::base64_decode(text);
  const auto want = charwise_base64_decode(text);
  ASSERT_EQ(got.has_value(), want.has_value()) << context;
  if (want) {
    ASSERT_EQ(*got, *want) << context;
  }
}

}  // namespace

TEST(Base64, BadCharacterOrMisplacedPadAtEveryOffsetOfAKibiByteText) {
  util::Rng rng(9);
  std::vector<std::uint8_t> bytes(768);
  for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.next_below(256));
  const std::string text = util::base64_encode(bytes);
  ASSERT_EQ(text.size(), 1024u);
  const char bad[] = {'!', '-', '_', ' ', '\0', '\x80', '\xff', '='};
  for (std::size_t offset = 0; offset < text.size(); ++offset) {
    for (const char c : bad) {
      std::string mutated = text;
      mutated[offset] = c;
      const std::string context =
          "offset " + std::to_string(offset) + " byte " + std::to_string(c & 0xFF);
      expect_same_verdict(mutated, context);
      // Only a '=' in the very last position is a legal (single) pad.
      EXPECT_EQ(util::base64_decode(mutated).has_value(), c == '=' && offset == 1023)
          << context;
    }
  }
}

TEST(Base64, EveryLastGroupAndLengthAgreesWithTheCharwiseDecoder) {
  util::Rng rng(10);
  for (std::size_t n = 0; n <= 64; ++n) {
    std::vector<std::uint8_t> bytes(n);
    for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.next_below(256));
    const std::string text = util::base64_encode(bytes);
    const auto decoded = util::base64_decode(text);
    ASSERT_TRUE(decoded.has_value()) << n;
    EXPECT_EQ(*decoded, bytes) << n;
    expect_same_verdict(text, "length " + std::to_string(n));
  }
  // Every last group over {data, '=', bad}, behind one full group and alone.
  const char symbols[] = {'Q', '=', '!'};
  for (const std::string prefix : {"", "Zm9v"}) {
    for (const char c0 : symbols) {
      for (const char c1 : symbols) {
        for (const char c2 : symbols) {
          for (const char c3 : symbols) {
            expect_same_verdict(prefix + std::string{c0, c1, c2, c3},
                                prefix + std::string{c0, c1, c2, c3});
          }
        }
      }
    }
  }
}

// ---------------------------------------------------------------- roofline

TEST(Roofline, PlatformRoofsAreSane) {
  const auto float_platform =
      hls::RooflinePlatform::for_device(hls::zedboard(), nn::NumericFormat::float32());
  // 220 DSP / 5 per MAC = 44 MAC/cycle -> 8.8 GFLOP/s at 100 MHz.
  EXPECT_DOUBLE_EQ(float_platform.peak_macs_per_cycle, 44.0);
  EXPECT_NEAR(float_platform.computational_roof_gflops(), 8.8, 1e-9);

  const auto fixed_platform = hls::RooflinePlatform::for_device(
      hls::zedboard(), nn::NumericFormat::fixed_point(16, 8));
  EXPECT_GT(fixed_platform.computational_roof_gflops(),
            float_platform.computational_roof_gflops());
}

TEST(Roofline, GeneratedDesignsAreComputeBound) {
  // Weights live on-chip, so CTC is enormous and the designs sit under the
  // computational roof — the regime Zhang et al. engineer their designs into.
  const nn::Network net = nn::make_test4_network();
  const hls::RooflinePoint point =
      hls::roofline_analysis(net, hls::DirectiveSet::optimized(), hls::zedboard());
  EXPECT_TRUE(point.compute_bound);
  EXPECT_GT(point.ctc_ratio, 100.0);
  EXPECT_GT(point.achieved_gflops, 0.0);
  EXPECT_LE(point.roof_fraction, 1.0);
  EXPECT_GT(point.roof_fraction, 0.01);
}

TEST(Roofline, PipeliningMovesTowardTheRoof) {
  const nn::Network net = nn::make_test1_network();
  const hls::RooflinePoint naive =
      hls::roofline_analysis(net, hls::DirectiveSet::naive(), hls::zedboard());
  const hls::RooflinePoint optimized =
      hls::roofline_analysis(net, hls::DirectiveSet::optimized(), hls::zedboard());
  EXPECT_GT(optimized.achieved_gflops, naive.achieved_gflops);
  EXPECT_GT(optimized.roof_fraction, naive.roof_fraction);
}

TEST(Roofline, FlopsMatchMacCount) {
  const nn::Network net = nn::make_test1_network();
  const hls::RooflinePoint point =
      hls::roofline_analysis(net, hls::DirectiveSet::optimized(), hls::zedboard());
  EXPECT_DOUBLE_EQ(point.flops_per_image, 2.0 * static_cast<double>(net.total_macs()));
  // 256 input floats + 11 output words.
  EXPECT_DOUBLE_EQ(point.offchip_bytes_per_image, (256 + 11) * 4.0);
}

// ---------------------------------------------------------------- train API

namespace {
const char* kTrainRequest = R"({
  "name": "online_net",
  "board": "zedboard",
  "optimize": true,
  "input": {"channels": 1, "height": 16, "width": 16},
  "layers": [
    {"type": "conv", "feature_maps_out": 6, "kernel": 5,
     "pool": {"type": "max", "kernel": 2, "step": 2}},
    {"type": "linear", "neurons": 10}
  ],
  "train": {"dataset": "usps", "samples_per_class": 8, "epochs": 4,
            "learning_rate": 0.005, "seed": 3}
})";
}  // namespace

TEST(TrainApi, TrainsAndReturnsWeights) {
  web::HttpRequest request;
  request.body = kTrainRequest;
  const web::HttpResponse response = web::handle_train(request);
  ASSERT_EQ(response.status, 200) << response.body;

  const auto body = json::parse(response.body);
  EXPECT_EQ(body.at("dataset").as_string(), "usps");
  EXPECT_EQ(body.at("epoch_loss").as_array().size(), 4u);
  EXPECT_LT(body.at("train_error").as_double(), 0.5);
  EXPECT_GE(body.at("test_error").as_double(), 0.0);
  const auto weights = util::base64_decode(body.at("weights_base64").as_string());
  ASSERT_TRUE(weights.has_value());
  EXPECT_GT(weights->size(), 1000u);  // 2326 floats + framing
}

TEST(TrainApi, TrainedWeightsFeedBackIntoGenerate) {
  web::HttpRequest train_request;
  train_request.body = kTrainRequest;
  const auto train_body = json::parse(web::handle_train(train_request).body);

  // Build the /api/v1/generate request: descriptor + weights_base64.
  auto generate_doc = json::parse(kTrainRequest);
  generate_doc.as_object().erase("train");
  generate_doc["weights_base64"] = train_body.at("weights_base64");

  web::HttpRequest generate_request;
  generate_request.body = json::Value(generate_doc).dump();
  const web::HttpResponse response = web::handle_generate(generate_request);
  ASSERT_EQ(response.status, 200) << response.body;
  const auto body = json::parse(response.body);
  EXPECT_NE(body.at("cpp_source").as_string().find("w_conv0"), std::string::npos);
}

TEST(TrainApi, RejectsUnknownDataset) {
  auto doc = json::parse(kTrainRequest);
  doc["train"]["dataset"] = json::Value("imagenet");
  web::HttpRequest request;
  request.body = json::Value(doc).dump();
  EXPECT_EQ(web::handle_train(request).status, 400);
}

TEST(TrainApi, RejectsInputShapeMismatch) {
  auto doc = json::parse(kTrainRequest);
  doc["train"]["dataset"] = json::Value("cifar10");  // expects 3x32x32
  web::HttpRequest request;
  request.body = json::Value(doc).dump();
  const auto response = web::handle_train(request);
  EXPECT_EQ(response.status, 400);
  EXPECT_NE(response.body.find("does not match"), std::string::npos);
}

TEST(TrainApi, RejectsAbsurdBudgets) {
  auto doc = json::parse(kTrainRequest);
  doc["train"]["epochs"] = json::Value(10000);
  web::HttpRequest request;
  request.body = json::Value(doc).dump();
  EXPECT_EQ(web::handle_train(request).status, 400);
}

TEST(GenerateApi, RejectsBadWeightPayloads) {
  auto doc = json::parse(kTrainRequest);
  doc.as_object().erase("train");

  doc["weights_base64"] = json::Value("!!!not-base64!!!");
  web::HttpRequest request;
  request.body = json::Value(doc).dump();
  EXPECT_EQ(web::handle_generate(request).status, 400);

  // Valid base64 but not a weight file.
  doc["weights_base64"] =
      json::Value(util::base64_encode({'h', 'e', 'l', 'l', 'o'}));
  request.body = json::Value(doc).dump();
  const auto response = web::handle_generate(request);
  EXPECT_EQ(response.status, 400);
  EXPECT_NE(response.body.find("magic"), std::string::npos);
}

TEST(TrainApi, ServedOverHttp) {
  web::HttpServer server;
  web::install_api(server);
  const int port = server.start(0);
  const auto response =
      web::http_request("127.0.0.1", port, "POST", "/api/v1/train", kTrainRequest);
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->status, 200);
  server.stop();
}
