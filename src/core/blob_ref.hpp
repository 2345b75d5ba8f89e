// BlobRef: a reference to a result payload that stayed on the worker that
// produced it, named by a producer-assigned id (hash::ContentId::Assigned).
//
// The pass-by-reference data plane (ProxyStore's proxy pattern, DFlow's
// worker-to-worker DAG edges) lets an invocation return a BlobRef instead of
// inline bytes: the manager records placement in its ReplicaTable and
// resolves the future with the ref, and a downstream consumer fetches the
// payload peer-to-peer from the nearest replica — result bytes never transit
// the manager for DAG edges.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "core/types.hpp"
#include "hash/content_id.hpp"
#include "serde/value.hpp"

namespace vinelet::core {

/// A pass-by-reference result: identity, size, and a replica hint (the
/// worker that produced it — placement truth lives in the manager's
/// ReplicaTable, the hint only seeds it).
struct BlobRef {
  hash::ContentId id;
  std::uint64_t size = 0;
  WorkerId owner = 0;

  /// A default-constructed ref (all-zero id) means "no ref": the message
  /// carried its result inline.
  bool valid() const noexcept { return !id.IsZero(); }

  friend bool operator==(const BlobRef& a, const BlobRef& b) {
    return a.id == b.id && a.size == b.size && a.owner == b.owner;
  }
};

/// Wraps a ref as a serde::Value so it can ride through the Value-typed
/// future/DAG layer: a dict {"$blobref": <32-byte digest>, "$size": int,
/// "$owner": int}.  Consumers that receive the dict unmodified see a
/// placeholder; the runtime splices the fetched payload in before the
/// function runs.
inline serde::Value WrapRef(const BlobRef& ref) {
  return serde::Value::Dict(
      {{"$blobref", serde::Value(Blob(std::vector<std::uint8_t>(
            ref.id.digest().begin(), ref.id.digest().end())))},
       {"$size", serde::Value(static_cast<std::int64_t>(ref.size))},
       {"$owner", serde::Value(static_cast<std::int64_t>(ref.owner))}});
}

/// Recognizes a WrapRef-shaped dict; nullopt for anything else.
inline std::optional<BlobRef> TryUnwrapRef(const serde::Value& value) {
  if (value.type() != serde::Value::Type::kDict) return std::nullopt;
  const serde::Value& digest = value.Get("$blobref");
  if (digest.type() != serde::Value::Type::kBytes) return std::nullopt;
  const Blob& bytes = digest.AsBytes();
  if (bytes.size() != hash::Sha256::kDigestSize) return std::nullopt;
  hash::Sha256::Digest raw;
  std::copy(bytes.span().begin(), bytes.span().end(), raw.begin());
  BlobRef ref;
  ref.id = hash::ContentId::FromDigest(raw);
  auto size = value.GetInt("$size");
  if (!size.ok()) return std::nullopt;
  ref.size = static_cast<std::uint64_t>(*size);
  auto owner = value.GetInt("$owner");
  if (!owner.ok()) return std::nullopt;
  ref.owner = static_cast<WorkerId>(*owner);
  return ref;
}

}  // namespace vinelet::core
