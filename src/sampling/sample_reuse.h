// Copyright (c) the vblock authors. Licensed under the MIT license.
//
// SampleReuse lives in its own header so the core facade headers
// (core/spread_decrease.h, core/solver.h) can expose the knob without
// pulling the samplers and the full SamplePool machinery into every TU.

#pragma once

#include <cstdint>

namespace vblock {

/// How a SamplePool reacts when a vertex is unblocked. Blocking is the
/// same in both modes: the samples whose region contains the vertex are
/// re-*pruned* — a BFS over the live edges they store, no RNG — which
/// keeps the pool θ independent samples of G[V\B].
enum class SampleReuse : uint8_t {
  /// Paper-faithful randomness: unblocking v draws fresh coins, so each
  /// sample is again an independent draw under the new mask, as the
  /// paper's per-invocation re-sampling has it. On IC pools only the edges
  /// into v are flipped, and only the samples that v joins are extended
  /// from v onward; a triggering-model pool re-draws every sample.
  kResample = 0,
  /// Fixed-pool mode: the θ live-edge worlds are drawn once and kept for
  /// the whole run. Unblocking re-prunes the samples that can re-expand
  /// through the vertex from their built worlds, which couples every
  /// round to the same worlds (CELF-style common random numbers) and is
  /// the fastest mode for GreedyReplace.
  kPrune = 1,
};

}  // namespace vblock
