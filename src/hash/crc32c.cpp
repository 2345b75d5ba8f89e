// CRC-32C kernels with runtime dispatch.
//
// Three kernels advance the same raw (un-inverted) CRC register, so they are
// interchangeable mid-stream:
//
//  * scalar — slicing-by-8 over 8 KiB of tables; portable, ~1 byte/cycle;
//  * sse4.2 — the x86-64 `crc32` instruction, compiled with a per-function
//    target attribute so the rest of the binary stays baseline-ISA and
//    gated by CPUID (leaf 1 ECX bit 20);
//  * armv8-crc — the AArch64 CRC32C instructions, compiled only when the
//    toolchain baseline already enables __ARM_FEATURE_CRC32 (as the SHA-256
//    crypto path does), so no runtime probe is needed.
//
// The hardware instructions have a latency of three cycles and a throughput
// of one per cycle, so a single dependent stream runs at a third of the
// unit's speed.  Both hardware kernels therefore split long inputs into
// three equal blocks, run one CRC stream per block, and merge the streams
// with a "shift over n zero bytes" operator: the CRC register is linear over
// GF(2), so crc(A ‖ B) = shift(crc(A), |B|) ^ crc_from_zero(B).  The shift
// for a fixed block length is a 4 × 256 table lookup, built once.
#include "hash/crc32c.hpp"

#include <atomic>
#include <cstddef>

#if defined(__x86_64__)
#include <cpuid.h>
#include <nmmintrin.h>
#endif
#if defined(__aarch64__) && defined(__ARM_FEATURE_CRC32)
#include <arm_acle.h>
#endif

namespace vinelet::hash {
namespace {

constexpr std::uint32_t kPoly = 0x82F63B78;  // Castagnoli, bit-reflected

// Interleaved block lengths: long blocks carry bulk data, short ones the
// tail of a bulk payload or a medium-sized header.  Multiples of 8.
constexpr std::size_t kLongBlock = 8192;
constexpr std::size_t kShortBlock = 256;

using ShiftTable = std::uint32_t[4][256];

struct Tables {
  /// slice[k][b]: the register after byte b and then k zero bytes, from 0.
  std::uint32_t slice[8][256];
  /// Zero-run operators for the interleaved kernels.
  ShiftTable shift_long;
  ShiftTable shift_short;
};

/// The register `reg` advanced over `n` zero bytes (one table step each).
std::uint32_t AdvanceOverZeros(const Tables& t, std::uint32_t reg,
                               std::size_t n) {
  for (; n > 0; --n) reg = (reg >> 8) ^ t.slice[0][reg & 0xff];
  return reg;
}

/// Builds the operator for `n` zero bytes from the images of the 32 basis
/// registers: by linearity each table entry is the XOR of the images of its
/// set bits.
void BuildShift(const Tables& t, std::size_t n, ShiftTable& out) {
  std::uint32_t image[32];
  for (int bit = 0; bit < 32; ++bit)
    image[bit] = AdvanceOverZeros(t, 1u << bit, n);
  for (int k = 0; k < 4; ++k) {
    for (std::uint32_t b = 0; b < 256; ++b) {
      std::uint32_t v = 0;
      for (int j = 0; j < 8; ++j)
        if ((b >> j) & 1u) v ^= image[8 * k + j];
      out[k][b] = v;
    }
  }
}

Tables MakeTables() {
  Tables t;
  for (std::uint32_t b = 0; b < 256; ++b) {
    std::uint32_t reg = b;
    for (int i = 0; i < 8; ++i) reg = (reg >> 1) ^ ((reg & 1u) ? kPoly : 0);
    t.slice[0][b] = reg;
  }
  for (int k = 1; k < 8; ++k)
    for (std::uint32_t b = 0; b < 256; ++b)
      t.slice[k][b] =
          (t.slice[k - 1][b] >> 8) ^ t.slice[0][t.slice[k - 1][b] & 0xff];
  BuildShift(t, kLongBlock, t.shift_long);
  BuildShift(t, kShortBlock, t.shift_short);
  return t;
}

const Tables& GetTables() noexcept {
  static const Tables tables = MakeTables();
  return tables;
}

inline std::uint32_t Shift(const ShiftTable& table, std::uint32_t reg) {
  return table[0][reg & 0xff] ^ table[1][(reg >> 8) & 0xff] ^
         table[2][(reg >> 16) & 0xff] ^ table[3][reg >> 24];
}

inline std::uint32_t Load32Le(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

inline std::uint64_t Load64Le(const std::uint8_t* p) {
  return static_cast<std::uint64_t>(Load32Le(p)) |
         (static_cast<std::uint64_t>(Load32Le(p + 4)) << 32);
}

using KernelFn = std::uint32_t (*)(std::uint32_t reg, const std::uint8_t* p,
                                   std::size_t n) noexcept;

std::uint32_t ExtendScalar(std::uint32_t reg, const std::uint8_t* p,
                           std::size_t n) noexcept {
  const Tables& t = GetTables();
  for (; n >= 8; n -= 8, p += 8) {
    const std::uint32_t lo = reg ^ Load32Le(p);
    const std::uint32_t hi = Load32Le(p + 4);
    reg = t.slice[7][lo & 0xff] ^ t.slice[6][(lo >> 8) & 0xff] ^
          t.slice[5][(lo >> 16) & 0xff] ^ t.slice[4][lo >> 24] ^
          t.slice[3][hi & 0xff] ^ t.slice[2][(hi >> 8) & 0xff] ^
          t.slice[1][(hi >> 16) & 0xff] ^ t.slice[0][hi >> 24];
  }
  for (; n > 0; --n) reg = (reg >> 8) ^ t.slice[0][(reg ^ *p++) & 0xff];
  return reg;
}

#if defined(__x86_64__)

/// Consumes every whole run of three `block`-byte blocks from (p, n).
__attribute__((target("sse4.2"))) std::uint32_t Sse42Interleaved(
    std::uint32_t reg, const std::uint8_t*& p, std::size_t& n,
    std::size_t block, const ShiftTable& shift) noexcept {
  for (; n >= 3 * block; n -= 3 * block) {
    std::uint64_t c0 = reg, c1 = 0, c2 = 0;
    const std::uint8_t* const end = p + block;
    for (; p < end; p += 8) {
      c0 = _mm_crc32_u64(c0, Load64Le(p));
      c1 = _mm_crc32_u64(c1, Load64Le(p + block));
      c2 = _mm_crc32_u64(c2, Load64Le(p + 2 * block));
    }
    reg = Shift(shift, static_cast<std::uint32_t>(c0)) ^
          static_cast<std::uint32_t>(c1);
    reg = Shift(shift, reg) ^ static_cast<std::uint32_t>(c2);
    p += 2 * block;
  }
  return reg;
}

__attribute__((target("sse4.2"))) std::uint32_t ExtendSse42(
    std::uint32_t reg, const std::uint8_t* p, std::size_t n) noexcept {
  const Tables& t = GetTables();
  for (; n > 0 && (reinterpret_cast<std::uintptr_t>(p) & 7) != 0; --n)
    reg = _mm_crc32_u8(reg, *p++);
  reg = Sse42Interleaved(reg, p, n, kLongBlock, t.shift_long);
  reg = Sse42Interleaved(reg, p, n, kShortBlock, t.shift_short);
  std::uint64_t wide = reg;
  for (; n >= 8; n -= 8, p += 8) wide = _mm_crc32_u64(wide, Load64Le(p));
  reg = static_cast<std::uint32_t>(wide);
  for (; n > 0; --n) reg = _mm_crc32_u8(reg, *p++);
  return reg;
}

bool CpuHasSse42() noexcept {
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0) return false;
  return (ecx & (1u << 20)) != 0;
}

#endif  // x86-64

#if defined(__aarch64__) && defined(__ARM_FEATURE_CRC32)

std::uint32_t ArmInterleaved(std::uint32_t reg, const std::uint8_t*& p,
                             std::size_t& n, std::size_t block,
                             const ShiftTable& shift) noexcept {
  for (; n >= 3 * block; n -= 3 * block) {
    std::uint32_t c0 = reg, c1 = 0, c2 = 0;
    const std::uint8_t* const end = p + block;
    for (; p < end; p += 8) {
      c0 = __crc32cd(c0, Load64Le(p));
      c1 = __crc32cd(c1, Load64Le(p + block));
      c2 = __crc32cd(c2, Load64Le(p + 2 * block));
    }
    reg = Shift(shift, c0) ^ c1;
    reg = Shift(shift, reg) ^ c2;
    p += 2 * block;
  }
  return reg;
}

std::uint32_t ExtendArmv8(std::uint32_t reg, const std::uint8_t* p,
                          std::size_t n) noexcept {
  const Tables& t = GetTables();
  for (; n > 0 && (reinterpret_cast<std::uintptr_t>(p) & 7) != 0; --n)
    reg = __crc32cb(reg, *p++);
  reg = ArmInterleaved(reg, p, n, kLongBlock, t.shift_long);
  reg = ArmInterleaved(reg, p, n, kShortBlock, t.shift_short);
  for (; n >= 8; n -= 8, p += 8) reg = __crc32cd(reg, Load64Le(p));
  for (; n > 0; --n) reg = __crc32cb(reg, *p++);
  return reg;
}

#endif  // aarch64 + crc

std::atomic<bool> g_force_scalar{false};

struct Dispatch {
  KernelFn fn;
  const char* name;
};

// Detection runs once (magic static).
const Dispatch& Detected() noexcept {
  static const Dispatch d = [] {
#if defined(__x86_64__)
    if (CpuHasSse42()) return Dispatch{&ExtendSse42, "sse4.2"};
#endif
#if defined(__aarch64__) && defined(__ARM_FEATURE_CRC32)
    return Dispatch{&ExtendArmv8, "armv8-crc"};
#endif
    return Dispatch{&ExtendScalar, "scalar"};
  }();
  return d;
}

}  // namespace

std::uint32_t Crc32c::Of(std::span<const std::uint8_t> data) noexcept {
  const KernelFn fn = g_force_scalar.load(std::memory_order_relaxed)
                          ? &ExtendScalar
                          : Detected().fn;
  return ~fn(~0u, data.data(), data.size());
}

const char* Crc32c::Backend() noexcept {
  if (g_force_scalar.load(std::memory_order_relaxed)) return "scalar";
  return Detected().name;
}

void Crc32c::ForceScalarForTest(bool force) noexcept {
  g_force_scalar.store(force, std::memory_order_relaxed);
}

}  // namespace vinelet::hash
