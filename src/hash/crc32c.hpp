// CRC-32C (Castagnoli), the frame checksum of the wire protocol.
//
// Content ids (SHA-256) guard declared context; every protocol frame,
// whatever it carries, is guarded by a CRC-32C over its header and its
// bulk attachment (core::EncodeFrame / core::DecodeFrame).  A CRC is not a
// cryptographic check: it catches the bit flips and truncations of a
// faulty link or buffer, which is all a frame needs, at well under a cycle
// per byte on the hardware kernels.
#pragma once

#include <cstdint>
#include <span>

namespace vinelet::hash {

class Crc32c {
 public:
  /// CRC-32C of `data`: the iSCSI polynomial with the usual pre- and
  /// post-inversion, so the nine bytes "123456789" give 0xE3069283.
  static std::uint32_t Of(std::span<const std::uint8_t> data) noexcept;

  /// Name of the kernel the next call will use: "sse4.2" (x86-64 `crc32`,
  /// three interleaved streams), "armv8-crc", or "scalar" (slicing-by-8).
  /// Hardware is detected at runtime (CPUID on x86).
  static const char* Backend() noexcept;

  /// Test hook: pin (or unpin) the scalar kernel at runtime so both sides of
  /// the dispatch seam can be exercised in one process.
  static void ForceScalarForTest(bool force) noexcept;
};

}  // namespace vinelet::hash
