// Copyright (c) the vblock authors. Licensed under the MIT license.
//
// Batched geometric skip draws with a runtime-dispatched SIMD transform.
//
// The geometric-skip kernels (graph/prob_grouped_view.h) pay one logarithm
// per draw: skip = ⌊log U / log(1-p)⌋. On a scalar jump that logarithm is
// a serial libm call in the innermost loop. For runs the cost model marks
// kBlock, this unit instead draws a whole block of uniforms from one Rng
// stream and runs the log / multiply / floor transform over the block
// 4-wide (AVX2).
//
// Determinism contract:
//  * FillGeometricSkips consumes exactly `count` raw 64-bit outputs of the
//    stream and its results are a pure function of those bits — so every
//    determinism guarantee (per-sample MixSeed streams, thread-count
//    invariance, warm ≡ cold) carries over unchanged.
//  * The scalar fallback and the AVX2 path compute bit-identical results:
//    both evaluate the same custom log algorithm (BatchLog below) as the
//    same sequence of IEEE-754 operations, just 1-wide vs 4-wide. Fused
//    multiply-adds are used only where both paths say so explicitly (a
//    correctly rounded fma is a single deterministic operation, whether it
//    comes from libm, a scalar vfmadd, or _mm256_fmadd_pd); the TU is
//    compiled with -ffp-contract=off so the compiler cannot introduce any
//    *other* contraction on one side only. tests/batched_draw_test.cc pins
//    scalar ≡ AVX2 on shared input bits.
//
// The transform maps raw bits to uniforms as ((x >> 12) | 1) · 2⁻⁵² and
// evaluates BatchLog rather than libm log, so block-filled runs draw the
// same values on every platform and libm version; scalar jumps still call
// libm.

#pragma once

#include <cstdint>

#include "common/rng.h"

namespace vblock {

/// Upper bound on `count` per FillGeometricSkips call — callers loop in
/// blocks of at most this many draws (stack buffers, cache-resident).
inline constexpr uint32_t kMaxDrawBlock = 64;

/// Which transform implementation is active.
enum class DrawIsa : uint8_t {
  kScalar = 0,
  kAvx2 = 1,
};

/// The transform FillGeometricSkips currently dispatches to. Resolved once
/// on first use: AVX2 when compiled in and the CPU supports it (and the
/// VBLOCK_DRAW_ISA=scalar environment override is absent), scalar
/// otherwise.
DrawIsa ActiveDrawIsa();

/// Forces a specific implementation (tests; thread-safe). Returns false —
/// and changes nothing — when the requested ISA is not available in this
/// build/CPU.
bool SetDrawIsa(DrawIsa isa);

/// Fills out[0..count) with independent Geometric(p) skip counts — the
/// number of dead edges before the next live one — where `inv_log1m_p` is
/// the precomputed 1/log1p(-p) (negative) for p in (0,1). Consumes exactly
/// `count` raw 64-bit outputs of `rng`. Values that would overflow saturate
/// at 2^50 — far beyond any run length (<= 2^16) while keeping the
/// branch-free in-vector double -> uint64 conversion exact. count must be
/// <= kMaxDrawBlock.
void FillGeometricSkips(Rng& rng, double inv_log1m_p, uint32_t count,
                        uint64_t* out);

/// The shared log algorithm, evaluated 1-wide: natural log of u in (0, 1).
/// Worst-case relative error ≈ 1.3e-12, at the √½ mantissa boundary where
/// the truncated atanh series peaks (plenty for sampling; see
/// docs/DESIGN.md §10). Exposed for the distribution/accuracy tests.
double BatchLog(double u);

namespace internal {

/// The pure transform stage on pre-drawn bits (tests drive both paths on
/// identical input): out[i] = min(⌊BatchLog(ToUniform(bits[i])) ·
/// inv_log1m_p⌋, 2^50) with ToUniform(x) = ((x >> 12) | 1) · 2⁻⁵².
void TransformGeometricScalar(const uint64_t* bits, double inv_log1m_p,
                              uint32_t count, uint64_t* out);

/// True iff the AVX2 transform exists in this binary and the CPU can run
/// it.
bool Avx2TransformAvailable();

/// AVX2 twin of TransformGeometricScalar; must only be called when
/// Avx2TransformAvailable(). Bit-identical results by construction.
void TransformGeometricAvx2(const uint64_t* bits, double inv_log1m_p,
                            uint32_t count, uint64_t* out);

}  // namespace internal

}  // namespace vblock
