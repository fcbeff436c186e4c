/**
 * @file
 * Panel packing for the blocked GEMM driver.
 *
 * Tile geometry (floats) shared by every microkernel level:
 *
 *   kMr x kNr  register tile   (8 x 48: 24 AVX-512 / 6x 8-wide rows)
 *   kKc        k-slab depth    (A panel stays resident in L2)
 *   kNc        n-slab width    (B pack stays resident in LLC)
 *
 * packAPanels lays an mc x kc block of A out as k-major kMr-wide
 * panels; packBPanels lays a kc x nc block of B out as p-major
 * kNr-wide panels. Both zero-pad partial panels, which keeps the
 * microkernel branch-free; padded lanes only ever feed accumulator
 * entries that are discarded on store.
 */

#ifndef LRD_TENSOR_SIMD_PACK_H
#define LRD_TENSOR_SIMD_PACK_H

#include <cstdint>

namespace lrd::simd {

constexpr int64_t kMr = 8;
constexpr int64_t kNr = 48;
constexpr int64_t kKc = 384;  ///< k-slab depth (A panel stays in L2).
constexpr int64_t kNc = 1920; ///< n-slab width (B pack stays in LLC).
/** Rows per parallel chunk: 4 MR panels keeps ~8 chunks at m = 256. */
constexpr int64_t kRowChunk = 4 * kMr;

/**
 * Pack an mc x kc block of logical A (element (i, p) of an m x k
 * matrix) into k-major kMr panels starting at (i0, p0).
 * @param trans When false A is stored row-major (lda = row stride);
 *              when true the storage is transposed: A(i, p) =
 *              a[p * lda + i] (gemmTransA's view).
 */
void packAPanels(const float *a, int64_t lda, bool trans, int64_t i0,
                 int64_t p0, int64_t mc, int64_t kc, float *dst);

/**
 * Pack a kc x nc block of logical B (element (p, j) of a k x n
 * matrix) into p-major kNr panels starting at (p0, j0).
 * @param trans When false B is stored row-major (ldb = row stride);
 *              when true the storage is transposed: B(p, j) =
 *              b[j * ldb + p] (gemmTransB's view).
 */
void packBPanels(const float *b, int64_t ldb, bool trans, int64_t p0,
                 int64_t j0, int64_t kc, int64_t nc, float *dst);

} // namespace lrd::simd

#endif // LRD_TENSOR_SIMD_PACK_H
