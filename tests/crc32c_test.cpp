// CRC-32C against the RFC 3720 (iSCSI) known answers, on every kernel the
// dispatcher can pick, plus agreement of the hardware and scalar kernels at
// every length and alignment the interleaved code treats differently.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "hash/crc32c.hpp"

namespace vinelet::hash {
namespace {

std::vector<std::uint8_t> PseudoRandomBytes(std::size_t n) {
  std::vector<std::uint8_t> out(n);
  std::uint64_t x = 0x243F6A8885A308D3ull;
  for (auto& byte : out) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    byte = static_cast<std::uint8_t>(x >> 24);
  }
  return out;
}

class Crc32cBackendTest : public ::testing::TestWithParam<bool> {
 protected:
  void SetUp() override { Crc32c::ForceScalarForTest(GetParam()); }
  void TearDown() override { Crc32c::ForceScalarForTest(false); }
};

TEST_P(Crc32cBackendTest, Rfc3720KnownAnswers) {
  // RFC 3720 §B.4 test vectors, plus the customary "123456789" check value.
  std::vector<std::uint8_t> bytes(32, 0x00);
  EXPECT_EQ(Crc32c::Of(bytes), 0x8A9136AAu);
  bytes.assign(32, 0xFF);
  EXPECT_EQ(Crc32c::Of(bytes), 0x62A8AB43u);
  for (std::uint8_t i = 0; i < 32; ++i) bytes[i] = i;
  EXPECT_EQ(Crc32c::Of(bytes), 0x46DD794Eu);
  for (std::uint8_t i = 0; i < 32; ++i) bytes[i] = 31 - i;
  EXPECT_EQ(Crc32c::Of(bytes), 0x113FDB5Cu);
  const std::string check = "123456789";
  EXPECT_EQ(Crc32c::Of(std::span<const std::uint8_t>(
                reinterpret_cast<const std::uint8_t*>(check.data()),
                check.size())),
            0xE3069283u);
  EXPECT_EQ(Crc32c::Of(std::span<const std::uint8_t>()), 0u);
}

INSTANTIATE_TEST_SUITE_P(Backends, Crc32cBackendTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? std::string("Scalar")
                                             : std::string("Dispatched");
                         });

TEST(Crc32cTest, BackendNameReflectsTheForceScalarSeam) {
  Crc32c::ForceScalarForTest(true);
  EXPECT_STREQ(Crc32c::Backend(), "scalar");
  Crc32c::ForceScalarForTest(false);
  const std::string name = Crc32c::Backend();
  EXPECT_TRUE(name == "sse4.2" || name == "armv8-crc" || name == "scalar")
      << name;
}

TEST(Crc32cTest, HardwareMatchesScalarAtEveryLengthAndAlignment) {
  // Lengths 0..4 KiB at all eight alignments cover the unaligned head, the
  // short (3 × 256 B) interleave and the 8-byte and byte tails; a few longer
  // lengths cover the long (3 × 8 KiB) interleave and its remainders.
  const auto bytes = PseudoRandomBytes((1u << 20) + 64);
  std::vector<std::size_t> lengths;
  for (std::size_t n = 0; n <= 4096; ++n) lengths.push_back(n);
  for (std::size_t n : {24575ul, 24576ul, 24577ul, 25343ul, 25344ul,
                        100003ul, 1ul << 20})
    lengths.push_back(n);
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t n : lengths) {
      const std::span<const std::uint8_t> view(bytes.data() + offset, n);
      Crc32c::ForceScalarForTest(true);
      const std::uint32_t scalar = Crc32c::Of(view);
      Crc32c::ForceScalarForTest(false);
      ASSERT_EQ(Crc32c::Of(view), scalar)
          << "offset=" << offset << " length=" << n;
    }
  }
}

}  // namespace
}  // namespace vinelet::hash
