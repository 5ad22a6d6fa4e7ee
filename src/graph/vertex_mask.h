// Copyright (c) the vblock authors. Licensed under the MIT license.
//
// Compact vertex-set membership mask.
//
// Blocker sets are represented as masks over the graph's vertices: the
// algorithms never materialize G[V\B]; they skip blocked vertices during
// traversal, which matches Definition 2 (blocking zeroes every incoming
// edge of the blocker).

#pragma once

#include <cstdint>
#include <vector>

#include "common/check.h"
#include "common/types.h"

namespace vblock {

/// Bitset keyed by VertexId with O(1) set/test/reset.
class VertexMask {
 public:
  VertexMask() = default;

  /// Mask over `n` vertices, all clear.
  explicit VertexMask(VertexId n) : bits_((n + 63) / 64, 0), size_(n) {}

  /// Number of vertices the mask covers.
  VertexId size() const { return size_; }

  void Set(VertexId v) {
    VBLOCK_DCHECK(v < size_);
    bits_[v >> 6] |= (1ULL << (v & 63));
  }

  void Clear(VertexId v) {
    VBLOCK_DCHECK(v < size_);
    bits_[v >> 6] &= ~(1ULL << (v & 63));
  }

  bool Test(VertexId v) const {
    VBLOCK_DCHECK(v < size_);
    return (bits_[v >> 6] >> (v & 63)) & 1;
  }

  /// Clears all bits.
  void Reset() { std::fill(bits_.begin(), bits_.end(), 0); }

  /// Number of set bits.
  VertexId Count() const {
    VertexId c = 0;
    for (uint64_t word : bits_) c += static_cast<VertexId>(__builtin_popcountll(word));
    return c;
  }

  /// Heap bytes held by the bit words.
  uint64_t MemoryUsageBytes() const {
    return static_cast<uint64_t>(bits_.capacity()) * sizeof(uint64_t);
  }

  /// All set vertex ids, ascending.
  std::vector<VertexId> ToVector() const {
    std::vector<VertexId> out;
    out.reserve(Count());
    for (VertexId v = 0; v < size_; ++v) {
      if (Test(v)) out.push_back(v);
    }
    return out;
  }

  /// Builds a mask with the given vertices set.
  static VertexMask FromVertices(VertexId n,
                                 const std::vector<VertexId>& vertices) {
    VertexMask mask(n);
    for (VertexId v : vertices) mask.Set(v);
    return mask;
  }

 private:
  std::vector<uint64_t> bits_;
  VertexId size_ = 0;
};

}  // namespace vblock
