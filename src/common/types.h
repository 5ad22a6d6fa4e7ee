// Copyright (c) the vblock authors. Licensed under the MIT license.
//
// Fundamental scalar types shared across the library.

#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace vblock {

/// Vertex identifier. 32 bits cover every graph in the paper's evaluation
/// (largest: Youtube, 1.13M vertices) with room to spare.
using VertexId = uint32_t;

/// Edge index into the CSR arrays.
using EdgeId = uint64_t;

/// Sentinel for "no vertex" (e.g. the root's immediate dominator).
inline constexpr VertexId kInvalidVertex = std::numeric_limits<VertexId>::max();

/// Sentinel for "no edge".
inline constexpr EdgeId kInvalidEdge = std::numeric_limits<EdgeId>::max();

/// Heap bytes held by a vector's buffer (capacity, not size) — the unit
/// of every MemoryUsageBytes account.
template <typename T>
uint64_t VectorBytes(const std::vector<T>& v) {
  return static_cast<uint64_t>(v.capacity()) * sizeof(T);
}

}  // namespace vblock
