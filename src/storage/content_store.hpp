// ContentStore: a worker's local content-addressed blob cache.
//
// Thread-safe wrapper of CacheIndex that also owns the payloads.  This is
// the "local disk" of a real-runtime worker: environment tarballs, input
// data, and serialized functions land here once and are shared by every
// invocation on the node (data-to-worker binding, paper §2.2.1).
#pragma once

#include <mutex>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/status.hpp"
#include "hash/content_id.hpp"
#include "storage/cache_index.hpp"
#include "telemetry/metrics.hpp"

namespace vinelet::storage {

class ContentStore {
 public:
  explicit ContentStore(std::uint64_t capacity_bytes = 0)
      : index_(capacity_bytes) {}

  /// Stores a blob under its content id (verified: id must equal the hash
  /// of the payload, catching corrupted transfers).  Idempotent for
  /// identical content.
  Status Put(const hash::ContentId& id, Blob blob);

  /// Stores without verification — for blobs whose id is not a content
  /// hash (producer-assigned ref ids) or was just computed by the caller.
  Status PutTrusted(const hash::ContentId& id, Blob blob);

  /// Fetches a blob, refreshing recency.  kNotFound on miss.
  Result<Blob> Get(const hash::ContentId& id);

  bool Contains(const hash::ContentId& id) const;

  Status Pin(const hash::ContentId& id);
  Status Unpin(const hash::ContentId& id);
  Status Remove(const hash::ContentId& id);

  std::uint64_t used_bytes() const;
  std::uint64_t capacity_bytes() const;
  CacheStats stats() const;

  /// One cached entry, for introspection listings.
  struct Entry {
    hash::ContentId id;
    std::uint64_t bytes = 0;
  };

  /// Snapshot of the cache contents (unordered), without touching recency.
  std::vector<Entry> List() const;

  /// Mirrors cache activity into `registry` as `<prefix>.hits`,
  /// `<prefix>.misses`, `<prefix>.evictions`, `<prefix>.inserted_bytes` and
  /// `<prefix>.evicted_bytes`.  Counters from several stores bound with the
  /// same prefix aggregate (e.g. all workers under "worker.cache").
  void BindMetrics(telemetry::MetricsRegistry* registry,
                   const std::string& prefix);

 private:
  Status PutLocked(const hash::ContentId& id, Blob blob);

  mutable std::mutex mu_;
  CacheIndex index_;
  std::unordered_map<hash::ContentId, Blob> payloads_;

  // Optional registry mirror (null until BindMetrics).
  telemetry::Counter* hits_ = nullptr;
  telemetry::Counter* misses_ = nullptr;
  telemetry::Counter* evictions_ = nullptr;
  telemetry::Counter* inserted_bytes_ = nullptr;
  telemetry::Counter* evicted_bytes_ = nullptr;
};

}  // namespace vinelet::storage
