/// AVX-512 tier. This TU (alone) is compiled with -mavx512f -mfma; runtime
/// CPUID dispatch keeps it off CPUs without AVX-512F. 16-lane FMA bodies
/// with masked tails — no scalar remainder loop, so ragged feature widths
/// (f = 17, 333, ...) stay on the vector unit end to end. Tolerance-gated
/// against scalar like AVX2.

#include "kernels/kernel_impl.h"

#if defined(__AVX512F__) && defined(__FMA__)
#include <immintrin.h>
#define SES_KERNELS_AVX512_COMPILED 1
#endif

namespace ses::kernels::detail {
namespace {

#ifdef SES_KERNELS_AVX512_COMPILED

inline __mmask16 TailMask(int64_t rem) {
  return static_cast<__mmask16>((1u << rem) - 1u);
}

struct OpsAvx512 {
  static inline void Axpy(float* dst, const float* src, int64_t n, float a) {
    const __m512 va = _mm512_set1_ps(a);
    int64_t i = 0;
    for (; i + 16 <= n; i += 16) {
      const __m512 d = _mm512_fmadd_ps(va, _mm512_loadu_ps(src + i),
                                       _mm512_loadu_ps(dst + i));
      _mm512_storeu_ps(dst + i, d);
    }
    if (i < n) {
      const __mmask16 m = TailMask(n - i);
      const __m512 d = _mm512_fmadd_ps(va, _mm512_maskz_loadu_ps(m, src + i),
                                       _mm512_maskz_loadu_ps(m, dst + i));
      _mm512_mask_storeu_ps(dst + i, m, d);
    }
  }
  static inline void Add(float* dst, const float* src, int64_t n) {
    int64_t i = 0;
    for (; i + 16 <= n; i += 16)
      _mm512_storeu_ps(dst + i, _mm512_add_ps(_mm512_loadu_ps(dst + i),
                                              _mm512_loadu_ps(src + i)));
    if (i < n) {
      const __mmask16 m = TailMask(n - i);
      _mm512_mask_storeu_ps(
          dst + i, m,
          _mm512_add_ps(_mm512_maskz_loadu_ps(m, dst + i),
                        _mm512_maskz_loadu_ps(m, src + i)));
    }
  }
  static inline void BinAdd(const float* a, const float* b, float* out,
                            int64_t n) {
    int64_t i = 0;
    for (; i + 16 <= n; i += 16)
      _mm512_storeu_ps(out + i, _mm512_add_ps(_mm512_loadu_ps(a + i),
                                              _mm512_loadu_ps(b + i)));
    if (i < n) {
      const __mmask16 m = TailMask(n - i);
      _mm512_mask_storeu_ps(out + i, m,
                            _mm512_add_ps(_mm512_maskz_loadu_ps(m, a + i),
                                          _mm512_maskz_loadu_ps(m, b + i)));
    }
  }
  static inline void BinSub(const float* a, const float* b, float* out,
                            int64_t n) {
    int64_t i = 0;
    for (; i + 16 <= n; i += 16)
      _mm512_storeu_ps(out + i, _mm512_sub_ps(_mm512_loadu_ps(a + i),
                                              _mm512_loadu_ps(b + i)));
    if (i < n) {
      const __mmask16 m = TailMask(n - i);
      _mm512_mask_storeu_ps(out + i, m,
                            _mm512_sub_ps(_mm512_maskz_loadu_ps(m, a + i),
                                          _mm512_maskz_loadu_ps(m, b + i)));
    }
  }
  static inline void BinMul(const float* a, const float* b, float* out,
                            int64_t n) {
    int64_t i = 0;
    for (; i + 16 <= n; i += 16)
      _mm512_storeu_ps(out + i, _mm512_mul_ps(_mm512_loadu_ps(a + i),
                                              _mm512_loadu_ps(b + i)));
    if (i < n) {
      const __mmask16 m = TailMask(n - i);
      _mm512_mask_storeu_ps(out + i, m,
                            _mm512_mul_ps(_mm512_maskz_loadu_ps(m, a + i),
                                          _mm512_maskz_loadu_ps(m, b + i)));
    }
  }
  static inline void Relu(const float* a, float* out, int64_t n) {
    // max(x, +0) with x first: NaN and -0 lanes come out +0, matching the
    // scalar `x > 0 ? x : 0` reference.
    const __m512 zero = _mm512_setzero_ps();
    int64_t i = 0;
    for (; i + 16 <= n; i += 16)
      _mm512_storeu_ps(out + i, _mm512_max_ps(_mm512_loadu_ps(a + i), zero));
    if (i < n) {
      const __mmask16 m = TailMask(n - i);
      _mm512_mask_storeu_ps(
          out + i, m, _mm512_max_ps(_mm512_maskz_loadu_ps(m, a + i), zero));
    }
  }
  static inline void BiasAct(float* row, const float* bias, int64_t n,
                             bool relu) {
    const __m512 zero = _mm512_setzero_ps();
    int64_t i = 0;
    for (; i + 16 <= n; i += 16) {
      __m512 v = _mm512_loadu_ps(row + i);
      if (bias != nullptr) v = _mm512_add_ps(v, _mm512_loadu_ps(bias + i));
      if (relu) v = _mm512_max_ps(v, zero);
      _mm512_storeu_ps(row + i, v);
    }
    if (i < n) {
      const __mmask16 m = TailMask(n - i);
      __m512 v = _mm512_maskz_loadu_ps(m, row + i);
      if (bias != nullptr)
        v = _mm512_add_ps(v, _mm512_maskz_loadu_ps(m, bias + i));
      if (relu) v = _mm512_max_ps(v, zero);
      _mm512_mask_storeu_ps(row + i, m, v);
    }
  }
  /// R output rows of n <= 16 columns held in registers across k: the same
  /// masked FMA per nonzero k as Axpy, without its store and reload.
  static constexpr int64_t kNarrowCols = 16;
  template <int R>
  static inline void MatMulNarrow(const float* a, const float* b, float* c,
                                  int64_t k, int64_t n) {
    const __mmask16 m = TailMask(n);
    __m512 acc[R];
    for (int r = 0; r < R; ++r) acc[r] = _mm512_maskz_loadu_ps(m, c + r * n);
    for (int64_t kk = 0; kk < k; ++kk) {
      const __m512 bv = _mm512_maskz_loadu_ps(m, b + kk * n);
      for (int r = 0; r < R; ++r) {
        const float av = a[r * k + kk];
        if (av != 0.0f)
          acc[r] = _mm512_fmadd_ps(_mm512_set1_ps(av), bv, acc[r]);
      }
    }
    for (int r = 0; r < R; ++r) _mm512_mask_storeu_ps(c + r * n, m, acc[r]);
  }
  /// kBtColTile output columns in four groups of eight: float products
  /// widened to eight doubles and summed in ascending k. A full tile loads
  /// unmasked; only the ragged last tile pays for masked loads.
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
    __m512d acc[kGroups];
    for (int g = 0; g < kGroups; ++g) acc[g] = _mm512_setzero_pd();
    for (int64_t kk = 0; kk < k; ++kk) {
      const __m256 av = _mm256_set1_ps(arow[kk]);
      const float* brow = bt + kk * stride;
      for (int g = 0; g < kGroups; ++g) {
        const __m256 bv = kFull ? _mm256_loadu_ps(brow + 8 * g)
                                : _mm256_maskload_ps(brow + 8 * g, m[g]);
        acc[g] = _mm512_add_pd(acc[g], _mm512_cvtps_pd(_mm256_mul_ps(av, bv)));
      }
    }
    for (int g = 0; g < kGroups; ++g)
      _mm256_maskstore_ps(crow + 8 * g, m[g], _mm512_cvtpd_ps(acc[g]));
  }
  /// Lane mask selecting the first `n` of eight floats (n may be <= 0).
  static inline __m256i LaneMask(int64_t n) {
    return _mm256_cmpgt_epi32(
        _mm256_set1_epi32(static_cast<int>(std::clamp<int64_t>(n, 0, 8))),
        _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
  }
};

using Ops = OpsAvx512;
constexpr bool kCompiled = true;

#else  // !SES_KERNELS_AVX512_COMPILED

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

#endif  // SES_KERNELS_AVX512_COMPILED

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

const Dispatch kDispatchAvx512 = {
    SimdTier::kAvx512,
    "avx512",
    kCompiled,
    "dense_avx512",
    "unary_avx512",
    "binary_avx512",
    "rows_avx512",
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
