// Consistent hash ring over worker ids.
//
// The manager "sequentially checks a hash ring of connected workers"
// (paper §3.5.2) when placing a library.  The ring gives two properties the
// scheduler relies on: (1) a stable starting worker per function so repeated
// scheduling of the same function clusters its libraries, and (2) minimal
// reshuffling when workers join or leave mid-run.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace vinelet::hash {

class HashRing {
 public:
  /// `vnodes` virtual nodes per member smooth the key distribution.
  explicit HashRing(unsigned vnodes = 32) : vnodes_(vnodes) {}

  /// Adds a member; no-op if already present.
  void Add(std::uint64_t member_id);

  /// Removes a member; no-op if absent.
  void Remove(std::uint64_t member_id);

  bool Contains(std::uint64_t member_id) const;
  std::size_t size() const noexcept { return members_.size(); }
  bool empty() const noexcept { return members_.empty(); }

  /// The member owning `key`, or nullopt when the ring is empty.
  std::optional<std::uint64_t> Owner(std::uint64_t key) const;
  std::optional<std::uint64_t> Owner(const std::string& key) const;

  /// Members in ring order starting at the owner of `key`, deduplicated.
  std::vector<std::uint64_t> WalkFrom(std::uint64_t key) const;

  /// The first member in WalkFrom(key) order for which `fits(member)` holds,
  /// or nullopt.  Placement callers stop at the first fit, so this walks the
  /// ring points lazily instead of building the whole order; a member that
  /// failed once is asked again at its later points (`fits` must be pure).
  template <typename Fits>
  std::optional<std::uint64_t> FindFrom(std::uint64_t key, Fits&& fits) const {
    const auto start = std::lower_bound(ring_.begin(), ring_.end(),
                                        Point{Mix(key, kWalkSeed), 0});
    for (auto it = start; it != ring_.end(); ++it)
      if (fits(it->second)) return it->second;
    for (auto it = ring_.begin(); it != start; ++it)
      if (fits(it->second)) return it->second;
    return std::nullopt;
  }

  /// All member ids, sorted.
  std::vector<std::uint64_t> Members() const;

 private:
  static std::uint64_t Mix(std::uint64_t member_id, unsigned replica);
  static constexpr unsigned kWalkSeed = 0x5EEDu;  // key -> ring point

  unsigned vnodes_;
  using Point = std::pair<std::uint64_t, std::uint64_t>;  // (point, member)
  std::vector<Point> ring_;  // sorted by point, so a walk reads it in order
  std::map<std::uint64_t, unsigned> members_;    // member -> vnode count
};

}  // namespace vinelet::hash
