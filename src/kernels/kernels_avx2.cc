/// AVX2 + FMA tier. This TU (alone) is compiled with -mavx2 -mfma; runtime
/// CPUID dispatch guarantees its code only executes on CPUs that support
/// both. FMA changes rounding versus the scalar mul+add reference, so this
/// tier is tolerance-gated, never bitwise, against scalar.

#include "kernels/kernel_impl.h"

#if defined(__AVX2__) && defined(__FMA__)
#include <immintrin.h>
#define SES_KERNELS_AVX2_COMPILED 1
#endif

namespace ses::kernels::detail {
namespace {

#ifdef SES_KERNELS_AVX2_COMPILED

struct OpsAvx2 {
  static inline void Axpy(float* dst, const float* src, int64_t n, float a) {
    const __m256 va = _mm256_set1_ps(a);
    int64_t i = 0;
    for (; i + 8 <= n; i += 8) {
      const __m256 d = _mm256_fmadd_ps(va, _mm256_loadu_ps(src + i),
                                       _mm256_loadu_ps(dst + i));
      _mm256_storeu_ps(dst + i, d);
    }
    for (; i < n; ++i) dst[i] += a * src[i];
  }
  static inline void Add(float* dst, const float* src, int64_t n) {
    int64_t i = 0;
    for (; i + 8 <= n; i += 8)
      _mm256_storeu_ps(dst + i, _mm256_add_ps(_mm256_loadu_ps(dst + i),
                                              _mm256_loadu_ps(src + i)));
    for (; i < n; ++i) dst[i] += src[i];
  }
  static inline void BinAdd(const float* a, const float* b, float* out,
                            int64_t n) {
    int64_t i = 0;
    for (; i + 8 <= n; i += 8)
      _mm256_storeu_ps(out + i, _mm256_add_ps(_mm256_loadu_ps(a + i),
                                              _mm256_loadu_ps(b + i)));
    for (; i < n; ++i) out[i] = a[i] + b[i];
  }
  static inline void BinSub(const float* a, const float* b, float* out,
                            int64_t n) {
    int64_t i = 0;
    for (; i + 8 <= n; i += 8)
      _mm256_storeu_ps(out + i, _mm256_sub_ps(_mm256_loadu_ps(a + i),
                                              _mm256_loadu_ps(b + i)));
    for (; i < n; ++i) out[i] = a[i] - b[i];
  }
  static inline void BinMul(const float* a, const float* b, float* out,
                            int64_t n) {
    int64_t i = 0;
    for (; i + 8 <= n; i += 8)
      _mm256_storeu_ps(out + i, _mm256_mul_ps(_mm256_loadu_ps(a + i),
                                              _mm256_loadu_ps(b + i)));
    for (; i < n; ++i) out[i] = a[i] * b[i];
  }
  static inline void Relu(const float* a, float* out, int64_t n) {
    // max(x, +0) with x in the FIRST operand: NaN and -0 lanes both come out
    // +0, exactly like the scalar `x > 0 ? x : 0` reference.
    const __m256 zero = _mm256_setzero_ps();
    int64_t i = 0;
    for (; i + 8 <= n; i += 8)
      _mm256_storeu_ps(out + i, _mm256_max_ps(_mm256_loadu_ps(a + i), zero));
    for (; i < n; ++i) out[i] = a[i] > 0.0f ? a[i] : 0.0f;
  }
  static inline void BiasAct(float* row, const float* bias, int64_t n,
                             bool relu) {
    const __m256 zero = _mm256_setzero_ps();
    int64_t i = 0;
    for (; i + 8 <= n; i += 8) {
      __m256 v = _mm256_loadu_ps(row + i);
      if (bias != nullptr) v = _mm256_add_ps(v, _mm256_loadu_ps(bias + i));
      if (relu) v = _mm256_max_ps(v, zero);
      _mm256_storeu_ps(row + i, v);
    }
    for (; i < n; ++i) {
      float v = row[i];
      if (bias != nullptr) v += bias[i];
      if (relu) v = v > 0.0f ? v : 0.0f;
      row[i] = v;
    }
  }
  /// Lane mask selecting the first `n` of eight floats (n may be <= 0).
  static inline __m256i LaneMask(int64_t n) {
    return _mm256_cmpgt_epi32(
        _mm256_set1_epi32(static_cast<int>(std::clamp<int64_t>(n, 0, 8))),
        _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
  }
  /// R output rows of n <= 8 columns held in registers across k. Axpy's
  /// tail loop is FMA-contracted like its vector body, so every lane keeps
  /// the one-FMA-per-nonzero-k sequence of the row-axpy path.
  static constexpr int64_t kNarrowCols = 8;
  template <int R>
  static inline void MatMulNarrow(const float* a, const float* b, float* c,
                                  int64_t k, int64_t n) {
    const __m256i m = LaneMask(n);
    __m256 acc[R];
    for (int r = 0; r < R; ++r) acc[r] = _mm256_maskload_ps(c + r * n, m);
    for (int64_t kk = 0; kk < k; ++kk) {
      const __m256 bv = _mm256_maskload_ps(b + kk * n, m);
      for (int r = 0; r < R; ++r) {
        const float av = a[r * k + kk];
        if (av != 0.0f)
          acc[r] = _mm256_fmadd_ps(_mm256_set1_ps(av), bv, acc[r]);
      }
    }
    for (int r = 0; r < R; ++r) _mm256_maskstore_ps(c + r * n, m, acc[r]);
  }
  /// kBtColTile output columns in four groups of eight: float products
  /// widened to four doubles per half and summed in ascending k. A full
  /// tile loads unmasked; only the ragged last tile pays for masked loads.
  static inline void BtTile(const float* arow, const float* bt, float* crow,
                            int64_t k, int64_t stride, int64_t width) {
    if (width == kBtColTile) {
      BtTileOf<true>(arow, bt, crow, k, stride, width);
    } else {
      BtTileOf<false>(arow, bt, crow, k, stride, width);
    }
  }

 private:
  template <bool kFull>
  static inline void BtTileOf(const float* arow, const float* bt, float* crow,
                              int64_t k, int64_t stride, int64_t width) {
    constexpr int kGroups = kBtColTile / 8;
    __m256i m[kGroups];
    for (int g = 0; g < kGroups; ++g) m[g] = LaneMask(width - 8 * g);
    __m256d acc[2 * kGroups];
    for (int g = 0; g < 2 * kGroups; ++g) acc[g] = _mm256_setzero_pd();
    for (int64_t kk = 0; kk < k; ++kk) {
      const __m256 av = _mm256_set1_ps(arow[kk]);
      const float* brow = bt + kk * stride;
      for (int g = 0; g < kGroups; ++g) {
        const __m256 bv = kFull ? _mm256_loadu_ps(brow + 8 * g)
                                : _mm256_maskload_ps(brow + 8 * g, m[g]);
        const __m256 p = _mm256_mul_ps(av, bv);
        acc[2 * g] = _mm256_add_pd(
            acc[2 * g], _mm256_cvtps_pd(_mm256_castps256_ps128(p)));
        acc[2 * g + 1] = _mm256_add_pd(
            acc[2 * g + 1], _mm256_cvtps_pd(_mm256_extractf128_ps(p, 1)));
      }
    }
    for (int g = 0; g < kGroups; ++g)
      _mm256_maskstore_ps(crow + 8 * g, m[g],
                          _mm256_set_m128(_mm256_cvtpd_ps(acc[2 * g + 1]),
                                          _mm256_cvtpd_ps(acc[2 * g])));
  }
};

using Ops = OpsAvx2;
constexpr bool kCompiled = true;

#else  // !SES_KERNELS_AVX2_COMPILED

/// Compiler lacked AVX2/FMA flags: alias scalar arithmetic so the table
/// stays well-formed; TierSupported(kAvx2) reports false via `compiled`.
struct OpsFallback {
  static inline void Axpy(float* dst, const float* src, int64_t n, float a) {
    for (int64_t i = 0; i < n; ++i) dst[i] += a * src[i];
  }
  static inline void Add(float* dst, const float* src, int64_t n) {
    for (int64_t i = 0; i < n; ++i) dst[i] += src[i];
  }
  static inline void BinAdd(const float* a, const float* b, float* out,
                            int64_t n) {
    for (int64_t i = 0; i < n; ++i) out[i] = a[i] + b[i];
  }
  static inline void BinSub(const float* a, const float* b, float* out,
                            int64_t n) {
    for (int64_t i = 0; i < n; ++i) out[i] = a[i] - b[i];
  }
  static inline void BinMul(const float* a, const float* b, float* out,
                            int64_t n) {
    for (int64_t i = 0; i < n; ++i) out[i] = a[i] * b[i];
  }
  static inline void Relu(const float* a, float* out, int64_t n) {
    for (int64_t i = 0; i < n; ++i) out[i] = a[i] > 0.0f ? a[i] : 0.0f;
  }
  static inline void BiasAct(float* row, const float* bias, int64_t n,
                             bool relu) {
    if (bias != nullptr)
      for (int64_t i = 0; i < n; ++i) row[i] += bias[i];
    if (relu)
      for (int64_t i = 0; i < n; ++i) row[i] = row[i] > 0.0f ? row[i] : 0.0f;
  }
  static constexpr int64_t kNarrowCols = 0;
  static inline void BtTile(const float* arow, const float* bt, float* crow,
                            int64_t k, int64_t stride, int64_t width) {
    BtTileScalar(arow, bt, crow, k, stride, width);
  }
};

using Ops = OpsFallback;
constexpr bool kCompiled = false;

#endif  // SES_KERNELS_AVX2_COMPILED

void AddRow(float* dst, const float* src, int64_t n) { Ops::Add(dst, src, n); }
void VecAdd(const float* a, const float* b, float* out, int64_t n) {
  VecAddImpl<Ops>(a, b, out, n);
}
void VecSub(const float* a, const float* b, float* out, int64_t n) {
  VecSubImpl<Ops>(a, b, out, n);
}
void VecMul(const float* a, const float* b, float* out, int64_t n) {
  VecMulImpl<Ops>(a, b, out, n);
}
void VecRelu(const float* a, float* out, int64_t n) {
  VecReluImpl<Ops>(a, out, n);
}
void MatMul(const float* a, const float* b, float* c, int64_t m, int64_t k,
            int64_t n) {
  MatMulImpl<Ops>(a, b, c, m, k, n);
}
void MatMulBt(const float* a, const float* b, float* c, int64_t m, int64_t k,
              int64_t n) {
  MatMulBtImpl<Ops>(a, b, c, m, k, n);
}
void GatherRows(const float* a, int64_t cols, const int64_t* index, int64_t n,
                float* out) {
  GatherRowsImpl(a, cols, index, n, out);
}
void SpmmCsr(int64_t rows, const int64_t* row_ptr, const int64_t* col,
             const int64_t* perm, const float* w, const float* x, int64_t f,
             float* out, const float* bias, bool relu) {
  SpmmCsrImpl<Ops>(rows, row_ptr, col, perm, w, x, f, out, bias, relu);
}
void SpmmCsrBlocked(int64_t rows, int64_t cols, const int64_t* row_ptr,
                    const int64_t* col, const int64_t* perm, const float* w,
                    const float* x, int64_t f, float* out, const float* bias,
                    bool relu, int64_t block_cols) {
  SpmmCsrBlockedImpl<Ops>(rows, cols, row_ptr, col, perm, w, x, f, out, bias,
                          relu, block_cols);
}

}  // namespace

const Dispatch kDispatchAvx2 = {
    SimdTier::kAvx2,
    "avx2",
    kCompiled,
    "dense_avx2",
    "unary_avx2",
    "binary_avx2",
    "rows_avx2",
    &AddRow,
    &VecAdd,
    &VecSub,
    &VecMul,
    &VecRelu,
    &MatMul,
    &MatMulBt,
    &GatherRows,
    &SpmmCsr,
    &SpmmCsrBlocked,
};

}  // namespace ses::kernels::detail
