#include "hash/hash_ring.hpp"

#include <set>

#include "hash/sha256.hpp"

namespace vinelet::hash {

std::uint64_t HashRing::Mix(std::uint64_t member_id, unsigned replica) {
  // SplitMix64-style finalizer over (member, replica); avalanche quality
  // matters for ring balance, tested in hash_ring_test.
  std::uint64_t x = member_id * 0x9E3779B97F4A7C15ull + replica;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

void HashRing::Add(std::uint64_t member_id) {
  if (members_.contains(member_id)) return;
  members_[member_id] = vnodes_;
  for (unsigned r = 0; r < vnodes_; ++r) {
    // First writer wins on (vanishingly unlikely) point collisions; Remove
    // only erases points it owns.
    const std::uint64_t point = Mix(member_id, r);
    auto at = std::lower_bound(ring_.begin(), ring_.end(), Point{point, 0});
    if (at == ring_.end() || at->first != point)
      ring_.insert(at, Point{point, member_id});
  }
}

void HashRing::Remove(std::uint64_t member_id) {
  auto it = members_.find(member_id);
  if (it == members_.end()) return;
  for (unsigned r = 0; r < it->second; ++r) {
    const Point point{Mix(member_id, r), member_id};
    auto at = std::lower_bound(ring_.begin(), ring_.end(), point);
    if (at != ring_.end() && *at == point) ring_.erase(at);  // owned
  }
  members_.erase(it);
}

bool HashRing::Contains(std::uint64_t member_id) const {
  return members_.contains(member_id);
}

std::optional<std::uint64_t> HashRing::Owner(std::uint64_t key) const {
  return FindFrom(key, [](std::uint64_t) { return true; });
}

std::optional<std::uint64_t> HashRing::Owner(const std::string& key) const {
  Sha256::Digest digest = Sha256::Hash(key);
  std::uint64_t prefix = 0;
  for (int i = 0; i < 8; ++i) prefix = (prefix << 8) | digest[i];
  return Owner(prefix);
}

std::vector<std::uint64_t> HashRing::WalkFrom(std::uint64_t key) const {
  std::vector<std::uint64_t> order;
  order.reserve(members_.size());
  std::set<std::uint64_t> seen;
  FindFrom(key, [&](std::uint64_t member) {
    if (seen.insert(member).second) order.push_back(member);
    return order.size() == members_.size();
  });
  return order;
}

std::vector<std::uint64_t> HashRing::Members() const {
  std::vector<std::uint64_t> out;
  out.reserve(members_.size());
  for (const auto& [member, _] : members_) out.push_back(member);
  return out;
}

}  // namespace vinelet::hash
