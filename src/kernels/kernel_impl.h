#ifndef SES_KERNELS_KERNEL_IMPL_H_
#define SES_KERNELS_KERNEL_IMPL_H_

/// Internal: shared loop bodies for the per-tier translation units.
///
/// Each tier TU (kernels_scalar.cc, kernels_avx2.cc, kernels_avx512.cc)
/// defines an `Ops` struct of static inline row primitives — Axpy, Add,
/// BiasAct, BinAdd/BinSub/BinMul, Relu, MatMulNarrow, BtTile — built from
/// its intrinsics, then instantiates these templates. The loop structure
/// (iteration order, zero-skips, OpenMP cutover, epilogue placement) is
/// therefore written once and provably identical across tiers; only the
/// per-row arithmetic differs.

#include <algorithm>
#include <cstdint>
#include <vector>

#include "kernels/dispatch.h"

namespace ses::kernels::detail {

/// One table per tier, each defined by its own translation unit.
extern const Dispatch kDispatchScalar;
extern const Dispatch kDispatchAvx2;
extern const Dispatch kDispatchAvx512;

/// Element-wise loops run in fixed chunks so OpenMP can split them while the
/// tier primitive keeps long unit-stride runs.
inline constexpr int64_t kElementwiseChunk = 1 << 15;

template <class Ops>
void VecAddImpl(const float* a, const float* b, float* out, int64_t n) {
  const bool par = ShouldParallelize(static_cast<double>(n));
  const int64_t nb = (n + kElementwiseChunk - 1) / kElementwiseChunk;
#pragma omp parallel for schedule(static) if (par)
  for (int64_t i = 0; i < nb; ++i) {
    const int64_t lo = i * kElementwiseChunk;
    const int64_t len = std::min(kElementwiseChunk, n - lo);
    Ops::BinAdd(a + lo, b + lo, out + lo, len);
  }
}

template <class Ops>
void VecSubImpl(const float* a, const float* b, float* out, int64_t n) {
  const bool par = ShouldParallelize(static_cast<double>(n));
  const int64_t nb = (n + kElementwiseChunk - 1) / kElementwiseChunk;
#pragma omp parallel for schedule(static) if (par)
  for (int64_t i = 0; i < nb; ++i) {
    const int64_t lo = i * kElementwiseChunk;
    const int64_t len = std::min(kElementwiseChunk, n - lo);
    Ops::BinSub(a + lo, b + lo, out + lo, len);
  }
}

template <class Ops>
void VecMulImpl(const float* a, const float* b, float* out, int64_t n) {
  const bool par = ShouldParallelize(static_cast<double>(n));
  const int64_t nb = (n + kElementwiseChunk - 1) / kElementwiseChunk;
#pragma omp parallel for schedule(static) if (par)
  for (int64_t i = 0; i < nb; ++i) {
    const int64_t lo = i * kElementwiseChunk;
    const int64_t len = std::min(kElementwiseChunk, n - lo);
    Ops::BinMul(a + lo, b + lo, out + lo, len);
  }
}

template <class Ops>
void VecReluImpl(const float* a, float* out, int64_t n) {
  const bool par = ShouldParallelize(static_cast<double>(n));
  const int64_t nb = (n + kElementwiseChunk - 1) / kElementwiseChunk;
#pragma omp parallel for schedule(static) if (par)
  for (int64_t i = 0; i < nb; ++i) {
    const int64_t lo = i * kElementwiseChunk;
    const int64_t len = std::min(kElementwiseChunk, n - lo);
    Ops::Relu(a + lo, out + lo, len);
  }
}

/// Rows the narrow matmul path carries at once: four independent FMA chains
/// hide the FMA latency a single row-resident accumulator would stall on.
inline constexpr int64_t kNarrowRowTile = 4;

template <class Ops>
void MatMulImpl(const float* a, const float* b, float* c, int64_t m, int64_t k,
                int64_t n) {
  const bool par = ShouldParallelize(2.0 * static_cast<double>(m) * k * n);
  if constexpr (Ops::kNarrowCols > 0) {
    if (n <= Ops::kNarrowCols) {
      // Output rows fit one vector: they stay in registers across k instead
      // of a masked store and reload per step. Each lane sees the same FMA
      // sequence as the row-axpy loop below, zero-skip included.
      const int64_t tiles = (m + kNarrowRowTile - 1) / kNarrowRowTile;
#pragma omp parallel for schedule(static) if (par)
      for (int64_t t = 0; t < tiles; ++t) {
        const int64_t i = t * kNarrowRowTile;
        if (m - i >= kNarrowRowTile) {
          Ops::template MatMulNarrow<kNarrowRowTile>(a + i * k, b, c + i * n,
                                                     k, n);
        } else {
          for (int64_t r = i; r < m; ++r)
            Ops::template MatMulNarrow<1>(a + r * k, b, c + r * n, k, n);
        }
      }
      return;
    }
  }
#pragma omp parallel for schedule(static) if (par)
  for (int64_t i = 0; i < m; ++i) {
    const float* arow = a + i * k;
    float* crow = c + i * n;
    for (int64_t kk = 0; kk < k; ++kk) {
      const float av = arow[kk];
      if (av == 0.0f) continue;  // exploits sparse inputs (bag-of-words).
      Ops::Axpy(crow, b + kk * n, n, av);
    }
  }
}

/// Output columns one MatMulBt pass accumulates in `double` at a time.
inline constexpr int64_t kBtColTile = 32;

/// C(m x n) = A(m x k) * B(n x k)^T. Packs B^T once so each row of C is a
/// sweep over contiguous B^T rows, vectorized across output columns by the
/// tier's Ops::BtTile. Per element: float products summed in `double` in
/// ascending k, no zero-skip, one rounding to float at the end.
template <class Ops>
void MatMulBtImpl(const float* a, const float* b, float* c, int64_t m,
                  int64_t k, int64_t n) {
  std::vector<float> bt(static_cast<size_t>(k * n));
  for (int64_t j = 0; j < n; ++j)
    for (int64_t kk = 0; kk < k; ++kk) bt[kk * n + j] = b[j * k + kk];
  const bool par = ShouldParallelize(2.0 * static_cast<double>(m) * k * n);
#pragma omp parallel for schedule(static) if (par)
  for (int64_t i = 0; i < m; ++i)
    for (int64_t j0 = 0; j0 < n; j0 += kBtColTile)
      Ops::BtTile(a + i * k, bt.data() + j0, c + i * n + j0, k, n,
                  std::min(kBtColTile, n - j0));
}

/// Portable BtTile: the scalar reference, and the body of the SIMD tiers
/// when their flags are missing.
inline void BtTileScalar(const float* arow, const float* bt, float* crow,
                         int64_t k, int64_t stride, int64_t width) {
  double acc[kBtColTile] = {};
  for (int64_t kk = 0; kk < k; ++kk) {
    const float av = arow[kk];
    const float* brow = bt + kk * stride;
    for (int64_t j = 0; j < width; ++j)
      acc[j] += static_cast<double>(av * brow[j]);
  }
  for (int64_t j = 0; j < width; ++j) crow[j] = static_cast<float>(acc[j]);
}

inline void GatherRowsImpl(const float* a, int64_t cols, const int64_t* index,
                           int64_t n, float* out) {
  for (int64_t i = 0; i < n; ++i)
    std::copy(a + index[i] * cols, a + (index[i] + 1) * cols, out + i * cols);
}

template <class Ops>
void SpmmCsrImpl(int64_t rows, const int64_t* row_ptr, const int64_t* col,
                 const int64_t* perm, const float* w, const float* x,
                 int64_t f, float* out, const float* bias, bool relu) {
  const double nnz = static_cast<double>(row_ptr[rows]);
  const bool par = ShouldParallelize(2.0 * nnz * static_cast<double>(f));
  const bool epilogue = bias != nullptr || relu;
#pragma omp parallel for schedule(dynamic, 64) if (par)
  for (int64_t r = 0; r < rows; ++r) {
    float* dst = out + r * f;
    for (int64_t e = row_ptr[r]; e < row_ptr[r + 1]; ++e) {
      const float v = w[perm != nullptr ? perm[e] : e];
      if (v == 0.0f) continue;
      Ops::Axpy(dst, x + col[e] * f, f, v);
    }
    if (epilogue) Ops::BiasAct(dst, bias, f, relu);
  }
}

template <class Ops>
void SpmmCsrBlockedImpl(int64_t rows, int64_t cols, const int64_t* row_ptr,
                        const int64_t* col, const int64_t* perm,
                        const float* w, const float* x, int64_t f, float* out,
                        const float* bias, bool relu, int64_t block_cols) {
  const double nnz = static_cast<double>(row_ptr[rows]);
  const bool par = ShouldParallelize(2.0 * nnz * static_cast<double>(f));
  const bool epilogue = bias != nullptr || relu;
  constexpr int64_t kRowChunk = 512;
  const int64_t nchunks = (rows + kRowChunk - 1) / kRowChunk;
#pragma omp parallel for schedule(dynamic, 1) if (par)
  for (int64_t ch = 0; ch < nchunks; ++ch) {
    const int64_t r_lo = ch * kRowChunk;
    const int64_t r_hi = std::min(rows, r_lo + kRowChunk);
    // Per-row cursors sweep source blocks: all rows in the chunk consume
    // their entries for source block [b0, b1) before any row moves on, so
    // the gathered x rows stay cache-resident across the whole chunk.
    std::vector<int64_t> cur(static_cast<size_t>(r_hi - r_lo));
    for (int64_t r = r_lo; r < r_hi; ++r)
      cur[static_cast<size_t>(r - r_lo)] = row_ptr[r];
    for (int64_t b0 = 0; b0 < cols; b0 += block_cols) {
      const int64_t b1 = b0 + block_cols;
      for (int64_t r = r_lo; r < r_hi; ++r) {
        int64_t e = cur[static_cast<size_t>(r - r_lo)];
        const int64_t end = row_ptr[r + 1];
        float* dst = out + r * f;
        while (e < end && col[e] < b1) {
          const float v = w[perm != nullptr ? perm[e] : e];
          if (v != 0.0f) Ops::Axpy(dst, x + col[e] * f, f, v);
          ++e;
        }
        cur[static_cast<size_t>(r - r_lo)] = e;
      }
    }
    if (epilogue)
      for (int64_t r = r_lo; r < r_hi; ++r)
        Ops::BiasAct(out + r * f, bias, f, relu);
  }
}

}  // namespace ses::kernels::detail

#endif  // SES_KERNELS_KERNEL_IMPL_H_
