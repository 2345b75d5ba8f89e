// ContentId: the unique identity of a transferable blob.
//
// The paper requires transferable data to be "uniquely identified and
// read-only, otherwise data corruption can silently happen" (§2.2.2).  Two
// kinds of id share this 32-byte shape:
//
//  * content ids (Of) — the SHA-256 of the payload, so two files with the
//    same bytes are the same file everywhere and a receiver can verify what
//    it got.  Declared context (environments, weights, broadcast files)
//    uses these.
//  * assigned ids (Assigned) — named by their producer, for intermediate
//    results that are written once by one worker and never deduplicated.
//    Minting one costs no pass over the bytes; the frame CRC guards them in
//    flight instead.
#pragma once

#include <compare>
#include <cstdint>
#include <functional>
#include <string>

#include "common/bytes.hpp"
#include "hash/sha256.hpp"

namespace vinelet::hash {

class ContentId {
 public:
  ContentId() = default;  // all-zero: "no content"

  static ContentId Of(const Blob& blob) {
    return ContentId(Sha256::Hash(blob.span()));
  }
  static ContentId Of(const ByteBuffer& buffer) {
    return ContentId(Sha256::Hash(buffer.span()));
  }
  static ContentId OfText(std::string_view text) {
    return ContentId(Sha256::Hash(text));
  }

  /// The id of the `sequence`-th blob a producer minted in one incarnation
  /// (a per-process random draw, so a restarted producer never reissues an
  /// id).  Bytes 8..31 hold the three fields little-endian; bytes 0..7 are a
  /// mix of them, so Prefix64() spreads assigned ids over the hash ring as
  /// evenly as digests, and IsAssigned() can recognise the shape.
  static ContentId Assigned(std::uint64_t producer, std::uint64_t incarnation,
                            std::uint64_t sequence) {
    Sha256::Digest digest{};
    const std::uint64_t fields[3] = {producer, incarnation, sequence};
    for (int f = 0; f < 3; ++f)
      for (int i = 0; i < 8; ++i)
        digest[8 + 8 * f + i] = static_cast<std::uint8_t>(fields[f] >> (8 * i));
    const std::uint64_t mix = MixFields(producer, incarnation, sequence);
    for (int i = 0; i < 8; ++i)
      digest[i] = static_cast<std::uint8_t>(mix >> (56 - 8 * i));
    return ContentId(digest);
  }

  /// True for ids made by Assigned().  A SHA-256 digest passes only if its
  /// first 8 bytes happen to equal the mix of the other 24 (odds 2^-64).
  bool IsAssigned() const noexcept {
    return !IsZero() && Prefix64() == MixFields(Field(0), Field(1), Field(2));
  }

  /// The producer field of an assigned id (meaningless for content ids).
  std::uint64_t AssignedProducer() const noexcept { return Field(0); }

  /// Rebuilds an id from a digest received off the wire (already computed
  /// by the sender; receivers re-verify content ids against the payload on
  /// Put).
  static ContentId FromDigest(const Sha256::Digest& digest) {
    return ContentId(digest);
  }

  const Sha256::Digest& digest() const noexcept { return digest_; }

  /// Full 64-char hex form.
  std::string ToHex() const { return Sha256::ToHex(digest_); }

  /// 12-char prefix used in log lines and cache filenames.
  std::string ShortHex() const { return ToHex().substr(0, 12); }

  /// First 8 bytes as an integer, handy for hashing into rings/maps.
  std::uint64_t Prefix64() const noexcept {
    std::uint64_t out = 0;
    for (int i = 0; i < 8; ++i) out = (out << 8) | digest_[i];
    return out;
  }

  bool IsZero() const noexcept {
    for (auto byte : digest_)
      if (byte != 0) return false;
    return true;
  }

  friend auto operator<=>(const ContentId&, const ContentId&) = default;

 private:
  explicit ContentId(const Sha256::Digest& digest) : digest_(digest) {}

  /// SplitMix64's finalizer chained over the three fields.
  static std::uint64_t MixFields(std::uint64_t a, std::uint64_t b,
                                 std::uint64_t c) noexcept {
    const auto fin = [](std::uint64_t z) {
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
      return z ^ (z >> 31);
    };
    return fin(fin(fin(a + 0x9e3779b97f4a7c15ULL) ^ b) ^ c);
  }

  std::uint64_t Field(int f) const noexcept {
    std::uint64_t out = 0;
    for (int i = 7; i >= 0; --i) out = (out << 8) | digest_[8 + 8 * f + i];
    return out;
  }

  Sha256::Digest digest_{};
};

}  // namespace vinelet::hash

template <>
struct std::hash<vinelet::hash::ContentId> {
  std::size_t operator()(const vinelet::hash::ContentId& id) const noexcept {
    return static_cast<std::size_t>(id.Prefix64());
  }
};
