#include "cluster/ring.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace cuszp2::cluster {

ConsistentHashRing::ConsistentHashRing(u32 vnodesPerShard, u64 seed)
    : vnodes_(vnodesPerShard), seed_(seed) {
  require(vnodesPerShard > 0,
          "ConsistentHashRing: vnodesPerShard must be positive");
}

void ConsistentHashRing::addShard(u32 shard) {
  if (contains(shard)) return;
  points_.reserve(points_.size() + vnodes_);
  for (u32 v = 0; v < vnodes_; ++v) {
    // +1 keeps shard 0 / vnode 0 off the bare seed.
    points_.push_back(
        VNode{keyedStream(seed_, u64{shard} + 1, u64{v} + 1).next(), shard});
  }
  std::sort(points_.begin(), points_.end(),
            [](const VNode& a, const VNode& b) {
              return a.point != b.point ? a.point < b.point
                                        : a.shard < b.shard;
            });
  shards_.insert(std::lower_bound(shards_.begin(), shards_.end(), shard),
                 shard);
}

void ConsistentHashRing::removeShard(u32 shard) {
  points_.erase(std::remove_if(points_.begin(), points_.end(),
                               [&](const VNode& n) {
                                 return n.shard == shard;
                               }),
                points_.end());
  auto it = std::lower_bound(shards_.begin(), shards_.end(), shard);
  if (it != shards_.end() && *it == shard) shards_.erase(it);
}

bool ConsistentHashRing::contains(u32 shard) const {
  return std::binary_search(shards_.begin(), shards_.end(), shard);
}

u64 ConsistentHashRing::hashKey(std::string_view key) const {
  // Byte-at-a-time SplitMix64 absorption: deterministic across
  // platforms, and every byte perturbs the full 64-bit state.
  u64 h = seed_ ^ 0xA0761D6478BD642Full;
  for (char c : key) {
    h = SplitMix64(h ^ static_cast<u8>(c)).next();
  }
  return SplitMix64(h ^ key.size()).next();
}

usize ConsistentHashRing::firstAt(u64 point) const {
  auto it = std::lower_bound(points_.begin(), points_.end(), point,
                             [](const VNode& n, u64 p) {
                               return n.point < p;
                             });
  if (it == points_.end()) it = points_.begin();  // wrap past 2^64 - 1
  return static_cast<usize>(it - points_.begin());
}

u32 ConsistentHashRing::primaryFor(std::string_view key) const {
  require(!points_.empty(), "ConsistentHashRing: ring is empty");
  return points_[firstAt(hashKey(key))].shard;
}

std::vector<u32> ConsistentHashRing::replicasFor(std::string_view key,
                                                 u32 count) const {
  require(!points_.empty(), "ConsistentHashRing: ring is empty");
  std::vector<u32> out;
  const u32 want = std::min<u32>(count, static_cast<u32>(shards_.size()));
  out.reserve(want);
  usize i = firstAt(hashKey(key));
  for (usize step = 0; step < points_.size() && out.size() < want;
       ++step) {
    const u32 shard = points_[(i + step) % points_.size()].shard;
    if (std::find(out.begin(), out.end(), shard) == out.end()) {
      out.push_back(shard);
    }
  }
  return out;
}

}  // namespace cuszp2::cluster
