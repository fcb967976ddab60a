// Tests for the runtime-dispatched SIMD kernel layer (src/kernels):
//  - tier dispatch + SES_KERNEL_VARIANT forcing semantics,
//  - SIMD/scalar parity sweeps across every dispatched variant (feature
//    widths 1..333 including ragged SIMD tails, empty rows, duplicate
//    edges, denormals, NaN masking/propagation),
//  - the fused GCN epilogue (aggregate + bias + ReLU) against the unfused
//    chain — bitwise at scalar tier, tolerance-gated at SIMD tiers,
//  - SpMMBiasAct gradients (analytic vs the unfused chain, plus numeric),
//  - the parallel CSR build, its sorted view and the by-source SpMM
//    backward, bitwise against test-local serial references at 1 and 3
//    OpenMP threads,
//  - the register-resident narrow matmul and the double-accumulating
//    MatMulTransposedB, bitwise against test-local references per tier,
//  - EdgeDot, bitwise against the gather/multiply/row-sum composite,
//  - autotuner determinism and per-graph plan memoization.
#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "autograd/grad_check.h"
#include "autograd/ops.h"
#include "autograd/sparse_ops.h"
#include "data/synthetic.h"
#include "kernels/dispatch.h"
#include "kernels/spmm.h"
#include "models/encoders.h"
#include "models/node_classifier.h"
#include "tensor/ops.h"
#include "util/rng.h"

namespace {

using namespace ses;
namespace ag = ses::autograd;
namespace t = ses::tensor;
namespace k = ses::kernels;

/// Feature widths the parity sweeps cover: scalar, sub-lane, one AVX2 lane,
/// one AVX-512 lane, lane+1 (ragged tail), a typical hidden width, and a
/// large non-multiple-of-16 width.
const std::vector<int64_t> kWidths = {1, 3, 8, 16, 17, 64, 333};

std::vector<k::SimdTier> SupportedTiers() {
  std::vector<k::SimdTier> tiers;
  for (int i = 0; i < k::kNumSimdTiers; ++i) {
    const auto tier = static_cast<k::SimdTier>(i);
    if (k::TierSupported(tier)) tiers.push_back(tier);
  }
  return tiers;
}

/// Max |a - b| with NaN-position agreement: a NaN in one buffer requires a
/// NaN at the same position in the other.
double MaxAbsDiff(const float* a, const float* b, int64_t n) {
  double m = 0.0;
  for (int64_t i = 0; i < n; ++i) {
    if (std::isnan(a[i]) || std::isnan(b[i])) {
      if (std::isnan(a[i]) != std::isnan(b[i])) return 1e30;
      continue;
    }
    m = std::max(m, static_cast<double>(std::fabs(a[i] - b[i])));
  }
  return m;
}

bool BitwiseEqual(const float* a, const float* b, int64_t n) {
  return std::memcmp(a, b, static_cast<size_t>(n) * sizeof(float)) == 0;
}

/// Bitwise equality where a NaN must meet a NaN. When two NaNs meet in one
/// add, x86 keeps the first operand's payload, and operand order is the
/// compiler's choice, so NaN payloads are not part of any contract.
bool BitwiseEqualOrBothNaN(const float* a, const float* b, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    if (std::isnan(a[i]) || std::isnan(b[i])) {
      if (std::isnan(a[i]) != std::isnan(b[i])) return false;
    } else if (std::memcmp(a + i, b + i, sizeof(float)) != 0) {
      return false;
    }
  }
  return true;
}

/// Relative tolerance for SIMD-vs-scalar parity: FMA contraction and
/// reassociated adds differ by a few ulps per accumulation step.
double Tolerance(int64_t reduction_len) {
  return 1e-5 * std::max<double>(1.0, std::sqrt(static_cast<double>(
                                     std::max<int64_t>(reduction_len, 1))));
}

/// A messy test graph: duplicate edges, a self loop, zero in-degree nodes
/// (empty CSR rows), one high-degree hub (skew), deterministic RNG.
struct TestGraph {
  std::vector<int64_t> src, dst;
  int64_t nodes = 0;
};

TestGraph MakeMessyGraph(int64_t nodes, int64_t edges, uint64_t seed) {
  TestGraph g;
  g.nodes = nodes;
  util::Rng rng(seed);
  for (int64_t e = 0; e < edges; ++e) {
    // Nodes 0 and 1 never receive edges -> empty rows; node 2 is a hub.
    int64_t d = 2 + static_cast<int64_t>(rng.Uniform() *
                                         static_cast<double>(nodes - 2));
    if (rng.Uniform() < 0.3) d = 2;  // hub: skewed in-degree
    const int64_t s =
        static_cast<int64_t>(rng.Uniform() * static_cast<double>(nodes));
    g.src.push_back(std::min(s, nodes - 1));
    g.dst.push_back(std::min(d, nodes - 1));
  }
  // Duplicate edge + self loop, deliberately.
  g.src.push_back(g.src[0]);
  g.dst.push_back(g.dst[0]);
  g.src.push_back(3 % nodes);
  g.dst.push_back(3 % nodes);
  return g;
}

/// Scalar edge-order reference SpMM with optional epilogue — the ground
/// truth every dispatched variant is compared against.
void ReferenceSpmm(const TestGraph& g, const float* w, const float* x,
                   int64_t f, float* out, const float* bias, bool relu) {
  std::fill(out, out + g.nodes * f, 0.0f);
  for (size_t e = 0; e < g.src.size(); ++e) {
    const float we = w[e];
    if (we == 0.0f) continue;
    const float* srcp = x + g.src[e] * f;
    float* dstp = out + g.dst[e] * f;
    for (int64_t c = 0; c < f; ++c) dstp[c] += we * srcp[c];
  }
  for (int64_t r = 0; r < g.nodes; ++r) {
    float* row = out + r * f;
    for (int64_t c = 0; c < f; ++c) {
      if (bias != nullptr) row[c] += bias[c];
      if (relu) row[c] = row[c] > 0.0f ? row[c] : 0.0f;
    }
  }
}

// ---------------------------------------------------------------------------
// Dispatch basics.

TEST(DispatchTest, ScalarTierAlwaysSupportedAndActiveTierValid) {
  EXPECT_TRUE(k::TierSupported(k::SimdTier::kScalar));
  EXPECT_TRUE(k::DispatchFor(k::SimdTier::kScalar).compiled);
  const k::SimdTier active = k::ActiveTier();
  EXPECT_TRUE(k::TierSupported(active));
  EXPECT_EQ(k::GetDispatch().tier, active);
  // Best tier dominates: active is never above it.
  EXPECT_LE(static_cast<int>(active), static_cast<int>(k::BestSupportedTier()));
}

TEST(DispatchTest, ForcedVariantSelectsTierAndBadValuesFallBack) {
  // Forcing scalar always works.
  ::setenv("SES_KERNEL_VARIANT", "scalar", 1);
  k::ResetActiveTierForTest();
  EXPECT_EQ(k::ActiveTier(), k::SimdTier::kScalar);
  // Unknown value falls back to the best supported tier (logged, not fatal).
  ::setenv("SES_KERNEL_VARIANT", "quantum", 1);
  k::ResetActiveTierForTest();
  EXPECT_EQ(k::ActiveTier(), k::BestSupportedTier());
  // Forcing an unsupported tier falls back likewise.
  if (!k::TierSupported(k::SimdTier::kAvx512)) {
    ::setenv("SES_KERNEL_VARIANT", "avx512", 1);
    k::ResetActiveTierForTest();
    EXPECT_EQ(k::ActiveTier(), k::BestSupportedTier());
  }
  ::unsetenv("SES_KERNEL_VARIANT");
  k::ResetActiveTierForTest();
}

TEST(DispatchTest, VariantLabelsCarryTierSuffix) {
  for (const k::SimdTier tier : SupportedTiers()) {
    const k::Dispatch& d = k::DispatchFor(tier);
    const std::string suffix = k::TierName(tier);
    EXPECT_NE(std::string(d.matmul_variant).find(suffix), std::string::npos);
    EXPECT_NE(std::string(d.unary_variant).find(suffix), std::string::npos);
    EXPECT_NE(
        std::string(k::SpmmVariantName({k::SpmmAlgo::kCsr, tier})).find(suffix),
        std::string::npos);
  }
}

// ---------------------------------------------------------------------------
// Element-wise / matmul parity across tiers.

TEST(KernelParityTest, ElementwiseVariantsMatchScalarAcrossWidths) {
  const k::Dispatch& ref = k::DispatchFor(k::SimdTier::kScalar);
  util::Rng rng(11);
  for (const k::SimdTier tier : SupportedTiers()) {
    const k::Dispatch& d = k::DispatchFor(tier);
    for (const int64_t n : kWidths) {
      t::Tensor a = t::Tensor::Randn(1, n, &rng);
      t::Tensor b = t::Tensor::Randn(1, n, &rng);
      a[0] = -0.0f;                       // signed zero through ReLU
      if (n > 1) a[1] = 1e-39f;           // denormal survives add/mul
      if (n > 2) b[2] = 0.0f;
      std::vector<float> got(n), want(n);
      d.vec_add(a.data(), b.data(), got.data(), n);
      ref.vec_add(a.data(), b.data(), want.data(), n);
      EXPECT_TRUE(BitwiseEqual(got.data(), want.data(), n))
          << k::TierName(tier) << " add width " << n;
      d.vec_sub(a.data(), b.data(), got.data(), n);
      ref.vec_sub(a.data(), b.data(), want.data(), n);
      EXPECT_TRUE(BitwiseEqual(got.data(), want.data(), n))
          << k::TierName(tier) << " sub width " << n;
      d.vec_mul(a.data(), b.data(), got.data(), n);
      ref.vec_mul(a.data(), b.data(), want.data(), n);
      EXPECT_TRUE(BitwiseEqual(got.data(), want.data(), n))
          << k::TierName(tier) << " mul width " << n;
      d.vec_relu(a.data(), got.data(), n);
      ref.vec_relu(a.data(), want.data(), n);
      EXPECT_TRUE(BitwiseEqual(got.data(), want.data(), n))
          << k::TierName(tier) << " relu width " << n;
    }
  }
}

TEST(KernelParityTest, ReluMapsNaNAndNegativeZeroToPositiveZero) {
  const float in[4] = {std::nanf(""), -0.0f, -1.0f, 2.5f};
  for (const k::SimdTier tier : SupportedTiers()) {
    float out[4] = {9, 9, 9, 9};
    k::DispatchFor(tier).vec_relu(in, out, 4);
    EXPECT_EQ(out[0], 0.0f) << k::TierName(tier) << ": NaN must map to 0";
    EXPECT_FALSE(std::signbit(out[0])) << k::TierName(tier);
    EXPECT_EQ(out[1], 0.0f) << k::TierName(tier);
    EXPECT_FALSE(std::signbit(out[1])) << k::TierName(tier) << ": -0 -> +0";
    EXPECT_EQ(out[2], 0.0f) << k::TierName(tier);
    EXPECT_EQ(out[3], 2.5f) << k::TierName(tier);
  }
}

TEST(KernelParityTest, MatMulVariantsMatchScalarWithinTolerance) {
  const k::Dispatch& ref = k::DispatchFor(k::SimdTier::kScalar);
  util::Rng rng(12);
  const int64_t m = 7, kk = 33;
  for (const k::SimdTier tier : SupportedTiers()) {
    const k::Dispatch& d = k::DispatchFor(tier);
    for (const int64_t n : kWidths) {
      t::Tensor a = t::Tensor::Randn(m, kk, &rng);
      t::Tensor b = t::Tensor::Randn(kk, n, &rng);
      a.At(2, 3) = 0.0f;  // exercise the zero-skip
      t::Tensor got = t::Tensor::Zeros(m, n), want = t::Tensor::Zeros(m, n);
      d.matmul(a.data(), b.data(), got.data(), m, kk, n);
      ref.matmul(a.data(), b.data(), want.data(), m, kk, n);
      const double tol = tier == k::SimdTier::kScalar ? 0.0 : Tolerance(kk);
      EXPECT_LE(MaxAbsDiff(got.data(), want.data(), m * n), tol)
          << k::TierName(tier) << " matmul n=" << n;
    }
  }
}

// ---------------------------------------------------------------------------
// SpMM parity: every (algo, tier) variant against the edge-order scalar
// reference, across all widths, with empty rows / duplicates / zero weights.

class SpmmParityTest : public ::testing::Test {
 protected:
  void RunSweep(bool with_epilogue) {
    const TestGraph g = MakeMessyGraph(/*nodes=*/53, /*edges=*/400, 7);
    const int64_t e = static_cast<int64_t>(g.src.size());
    util::Rng rng(21);
    t::Tensor w = t::Tensor::Randn(e, 1, &rng);
    w[0] = 0.0f;  // masked edges
    w[1] = 0.0f;
    w[2] = 1e-39f;  // denormal weight
    const k::SpmmPlan plan(g.src.data(), g.dst.data(), e, g.nodes);
    for (const int64_t f : kWidths) {
      t::Tensor x = t::Tensor::Randn(g.nodes, f, &rng);
      t::Tensor bias;
      const float* bias_ptr = nullptr;
      if (with_epilogue) {
        bias = t::Tensor::Randn(1, f, &rng);
        bias_ptr = bias.data();
      }
      std::vector<float> want(static_cast<size_t>(g.nodes) * f);
      ReferenceSpmm(g, w.data(), x.data(), f, want.data(), bias_ptr,
                    with_epilogue);
      for (const k::SimdTier tier : SupportedTiers()) {
        for (int a = 0; a < k::kNumSpmmAlgos; ++a) {
          const k::SpmmChoice choice{static_cast<k::SpmmAlgo>(a), tier};
          t::Tensor got = t::Tensor::Zeros(g.nodes, f);
          plan.Run(choice, w.data(), x.data(), f, got.data(), bias_ptr,
                   with_epilogue);
          // Scalar CSR (stable, edge-order entries) is bitwise against the
          // reference; everything else (FMA and/or column-sorted
          // reordering) is tolerance-gated.
          const bool bitwise = tier == k::SimdTier::kScalar &&
                               choice.algo != k::SpmmAlgo::kCsrBlocked;
          const double diff =
              MaxAbsDiff(got.data(), want.data(), g.nodes * f);
          if (bitwise) {
            EXPECT_TRUE(BitwiseEqual(got.data(), want.data(), g.nodes * f))
                << k::SpmmVariantName(choice) << " f=" << f
                << " diff=" << diff;
          } else {
            EXPECT_LE(diff, Tolerance(plan.stats().max_degree))
                << k::SpmmVariantName(choice) << " f=" << f;
          }
          // Empty rows stay exactly zero (or epilogue-only).
          for (int64_t c = 0; c < f; ++c) {
            float expect_empty = bias_ptr != nullptr ? bias[c] : 0.0f;
            if (with_epilogue && expect_empty < 0.0f) expect_empty = 0.0f;
            EXPECT_EQ(got.At(0, c), expect_empty)
                << k::SpmmVariantName(choice) << " empty row, f=" << f;
          }
        }
      }
    }
  }
};

TEST_F(SpmmParityTest, AllVariantsMatchReferenceAcrossWidths) {
  RunSweep(/*with_epilogue=*/false);
}

TEST_F(SpmmParityTest, FusedEpilogueMatchesReferenceAcrossWidths) {
  RunSweep(/*with_epilogue=*/true);
}

TEST(SpmmNanTest, ZeroWeightMasksNaNRowInEveryVariant) {
  // Node 4's features are NaN, but every edge sourced at node 4 has weight
  // zero — the zero-skip must keep NaN out of all outputs in all variants.
  TestGraph g;
  g.nodes = 6;
  g.src = {4, 4, 3, 5, 3};
  g.dst = {2, 3, 2, 5, 4};
  const int64_t e = static_cast<int64_t>(g.src.size());
  const int64_t f = 17;
  t::Tensor w = t::Tensor::Ones(e, 1);
  w[0] = 0.0f;
  w[1] = 0.0f;
  util::Rng rng(5);
  t::Tensor x = t::Tensor::Randn(g.nodes, f, &rng);
  for (int64_t c = 0; c < f; ++c) x.At(4, c) = std::nanf("");
  const k::SpmmPlan plan(g.src.data(), g.dst.data(), e, g.nodes);
  for (const k::SimdTier tier : SupportedTiers()) {
    for (int a = 0; a < k::kNumSpmmAlgos; ++a) {
      const k::SpmmChoice choice{static_cast<k::SpmmAlgo>(a), tier};
      t::Tensor out = t::Tensor::Zeros(g.nodes, f);
      plan.Run(choice, w.data(), x.data(), f, out.data(), nullptr, false);
      for (int64_t i = 0; i < out.size(); ++i)
        EXPECT_FALSE(std::isnan(out[i]))
            << k::SpmmVariantName(choice) << " leaked NaN at " << i;
    }
  }
}

TEST(SpmmNanTest, NonzeroWeightPropagatesNaNInEveryVariant) {
  TestGraph g;
  g.nodes = 4;
  g.src = {1, 2};
  g.dst = {0, 3};
  const int64_t f = 8;
  t::Tensor w = t::Tensor::Ones(2, 1);
  t::Tensor x = t::Tensor::Ones(g.nodes, f);
  x.At(1, 3) = std::nanf("");
  const k::SpmmPlan plan(g.src.data(), g.dst.data(), 2, g.nodes);
  for (const k::SimdTier tier : SupportedTiers()) {
    for (int a = 0; a < k::kNumSpmmAlgos; ++a) {
      const k::SpmmChoice choice{static_cast<k::SpmmAlgo>(a), tier};
      t::Tensor out = t::Tensor::Zeros(g.nodes, f);
      plan.Run(choice, w.data(), x.data(), f, out.data(), nullptr, false);
      EXPECT_TRUE(std::isnan(out.At(0, 3))) << k::SpmmVariantName(choice);
      EXPECT_FALSE(std::isnan(out.At(3, 3))) << k::SpmmVariantName(choice);
    }
  }
}

// ---------------------------------------------------------------------------
// Parallel CSR build and by-source backward: thread-count invariance.

/// Runs `body` with an OpenMP team of `threads`, restoring the previous team
/// size afterwards. Builds without OpenMP (the TSan tree) run it serially.
template <typename Body>
void WithThreads(int threads, Body&& body) {
#ifdef _OPENMP
  const int saved = omp_get_max_threads();
  omp_set_num_threads(threads);
  body();
  omp_set_num_threads(saved);
#else
  (void)threads;
  body();
#endif
}

/// The serial walk BuildCsrByDst replaced: count, prefix, then scatter edges
/// in order through per-row cursors.
k::CsrAdj SerialCsrByDst(const std::vector<int64_t>& src,
                         const std::vector<int64_t>& dst, int64_t n) {
  k::CsrAdj csr;
  csr.rows = csr.cols = n;
  csr.row_ptr.assign(static_cast<size_t>(n) + 1, 0);
  for (const int64_t d : dst) ++csr.row_ptr[static_cast<size_t>(d) + 1];
  for (int64_t r = 0; r < n; ++r)
    csr.row_ptr[static_cast<size_t>(r) + 1] +=
        csr.row_ptr[static_cast<size_t>(r)];
  csr.col.resize(src.size());
  csr.perm.resize(src.size());
  std::vector<int64_t> cursor(csr.row_ptr.begin(), csr.row_ptr.end() - 1);
  for (size_t i = 0; i < src.size(); ++i) {
    const int64_t slot = cursor[static_cast<size_t>(dst[i])]++;
    csr.col[static_cast<size_t>(slot)] = src[i];
    csr.perm[static_cast<size_t>(slot)] = static_cast<int64_t>(i);
  }
  // Sorted view: each row's (col, perm) pairs sorted one row at a time.
  csr.sorted_col = csr.col;
  csr.sorted_perm = csr.perm;
  std::vector<std::pair<int64_t, int64_t>> row;
  for (int64_t r = 0; r < n; ++r) {
    const int64_t lo = csr.row_ptr[static_cast<size_t>(r)];
    const int64_t hi = csr.row_ptr[static_cast<size_t>(r) + 1];
    row.clear();
    for (int64_t i = lo; i < hi; ++i)
      row.emplace_back(csr.col[static_cast<size_t>(i)],
                       csr.perm[static_cast<size_t>(i)]);
    std::sort(row.begin(), row.end());
    for (int64_t i = lo; i < hi; ++i) {
      csr.sorted_col[static_cast<size_t>(i)] = row[static_cast<size_t>(i - lo)].first;
      csr.sorted_perm[static_cast<size_t>(i)] = row[static_cast<size_t>(i - lo)].second;
    }
  }
  return csr;
}

void ExpectSameCsr(const k::CsrAdj& got, const k::CsrAdj& want) {
  EXPECT_EQ(got.rows, want.rows);
  EXPECT_EQ(got.cols, want.cols);
  EXPECT_EQ(got.row_ptr, want.row_ptr);
  EXPECT_EQ(got.col, want.col);
  EXPECT_EQ(got.perm, want.perm);
}

/// Above the OpenMP cutover, with a hub, empty rows, and extra duplicate
/// edges and self-loops on top of MakeMessyGraph's.
TestGraph MakeLargeMessyGraph() {
  TestGraph g = MakeMessyGraph(10000, 150000, 71);
  for (int64_t i = 0; i < 500; ++i) {
    g.src.push_back(g.src[static_cast<size_t>(7 * i)]);
    g.dst.push_back(g.dst[static_cast<size_t>(7 * i)]);
    g.src.push_back(100 + i);
    g.dst.push_back(100 + i);
  }
  EXPECT_TRUE(k::ShouldParallelize(static_cast<double>(g.src.size())));
  return g;
}

TEST(CsrBuildTest, ParallelBuildEqualsSerialWalkAtOneAndThreeThreads) {
  const TestGraph g = MakeLargeMessyGraph();
  const int64_t e = static_cast<int64_t>(g.src.size());
  const k::CsrAdj by_dst = SerialCsrByDst(g.src, g.dst, g.nodes);
  const k::CsrAdj by_src = SerialCsrByDst(g.dst, g.src, g.nodes);
  ASSERT_EQ(by_dst.row_ptr[1], 0);  // node 0 never receives an edge
  for (const int threads : {1, 3}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    WithThreads(threads, [&] {
      k::CsrAdj csr = k::BuildCsrByDst(g.src.data(), g.dst.data(), e, g.nodes);
      ExpectSameCsr(csr, by_dst);
      k::SortRowsBySource(&csr);
      EXPECT_EQ(csr.sorted_col, by_dst.sorted_col);
      EXPECT_EQ(csr.sorted_perm, by_dst.sorted_perm);
      const k::SpmmPlan plan(g.src.data(), g.dst.data(), e, g.nodes);
      ExpectSameCsr(plan.SourceCsr(), by_src);
      EXPECT_EQ(&plan.SourceCsr(), &plan.SourceCsr());  // memoized
    });
  }
}

TEST(CsrBuildTest, EmptyEdgeListGivesAllEmptyRows) {
  WithThreads(3, [] {
    const k::CsrAdj csr = k::BuildCsrByDst(nullptr, nullptr, 0, 5);
    EXPECT_EQ(csr.row_ptr, std::vector<int64_t>(6, 0));
    EXPECT_TRUE(csr.col.empty());
    EXPECT_TRUE(csr.perm.empty());
  });
}

/// Edge-order SpMM backward: dw[e] = Σ_c x[src]·g[dst] in double, and
/// dx[src[e]] += w[e]·g[dst[e]] over ascending e, zero weights skipped —
/// both accumulated into zeroed gradients, as the op does.
void ReferenceSpmmGrads(const TestGraph& g, const t::Tensor& w,
                        const t::Tensor& x, const t::Tensor& grad,
                        t::Tensor* dw, t::Tensor* dx) {
  const int64_t f = x.cols();
  *dw = t::Tensor::Zeros(w.rows(), 1);
  *dx = t::Tensor::Zeros(x.rows(), f);
  for (size_t e = 0; e < g.src.size(); ++e) {
    const float* xrow = x.RowPtr(g.src[e]);
    const float* grow = grad.RowPtr(g.dst[e]);
    double acc = 0.0;
    for (int64_t c = 0; c < f; ++c) acc += xrow[c] * grow[c];
    (*dw)[static_cast<int64_t>(e)] += static_cast<float>(acc);
  }
  for (size_t e = 0; e < g.src.size(); ++e) {
    const float we = w[static_cast<int64_t>(e)];
    if (we == 0.0f) continue;
    const float* grow = grad.RowPtr(g.dst[e]);
    float* drow = dx->RowPtr(g.src[e]);
    for (int64_t c = 0; c < f; ++c) drow[c] += we * grow[c];
  }
}

TEST(SpmmBackwardTest, GradsBitwiseEqualEdgeOrderReferenceAtOneAndThreeThreads) {
  const TestGraph g = MakeLargeMessyGraph();
  const int64_t e = static_cast<int64_t>(g.src.size());
  const int64_t f = 17;
  util::Rng rng(73);
  t::Tensor wt = t::Tensor::Randn(e, 1, &rng);
  for (int64_t i = 0; i < e; i += 5) wt[i] = 0.0f;  // skipped edges
  const t::Tensor xt = t::Tensor::Randn(g.nodes, f, &rng);
  t::Tensor upstream = t::Tensor::Randn(g.nodes, f, &rng);
  // A NaN in the upstream gradient of node 2 (the hub): it reaches dx only
  // through the hub's nonzero-weight in-edges, and every dw of those edges.
  upstream.At(2, 5) = std::nanf("");
  const t::Tensor bt = t::Tensor::Randn(1, f, &rng);

  const ag::Variable gv = ag::Variable::Constant(upstream);
  for (const bool fused : {false, true}) {
    for (const int threads : {1, 3}) {
      SCOPED_TRACE(std::string(fused ? "SpMMBiasAct" : "SpMM") +
                   " threads=" + std::to_string(threads));
      WithThreads(threads, [&] {
        // A fresh edge list, so its plan builds the by-source view at this
        // team size.
        auto ep = std::make_shared<ag::EdgeList>();
        ep->src = g.src;
        ep->dst = g.dst;
        ep->num_nodes = g.nodes;
        auto w = ag::Variable::Parameter(wt);
        auto x = ag::Variable::Parameter(xt);
        auto b = ag::Variable::Parameter(bt);
        const ag::Variable out = fused ? ag::SpMMBiasAct(ep, w, x, b, true)
                                       : ag::SpMM(ep, w, x);
        // d(sum(out ⊙ G))/d out = G exactly.
        ag::Backward(ag::SumAll(ag::Mul(out, gv)));
        // The fused ReLU passes G only where the output is positive.
        t::Tensor grad = upstream;
        if (fused)
          for (int64_t i = 0; i < grad.size(); ++i)
            if (!(out.value()[i] > 0.0f)) grad[i] = 0.0f;
        t::Tensor dw, dx;
        ReferenceSpmmGrads(g, wt, xt, grad, &dw, &dx);
        EXPECT_TRUE(BitwiseEqualOrBothNaN(w.grad().data(), dw.data(), e));
        EXPECT_TRUE(BitwiseEqualOrBothNaN(x.grad().data(), dx.data(),
                                          dx.size()));
        int64_t nan_rows = 0;
        for (int64_t r = 0; r < g.nodes; ++r)
          nan_rows += std::isnan(dx.At(r, 5)) ? 1 : 0;
        if (!fused) {
          EXPECT_GT(nan_rows, 0);
        }
        EXPECT_LT(nan_rows, g.nodes);
      });
    }
  }
}

// ---------------------------------------------------------------------------
// Fused op (autograd level): forward equivalence and gradients.

TEST(SpmmBiasActTest, FusedForwardIsBitwiseEqualToUnfusedChainAtScalarTier) {
  ::setenv("SES_KERNEL_VARIANT", "scalar", 1);
  k::ResetActiveTierForTest();
  const TestGraph g = MakeMessyGraph(40, 200, 9);
  auto edges = std::make_shared<ag::EdgeList>();
  edges->src = g.src;
  edges->dst = g.dst;
  edges->num_nodes = g.nodes;
  util::Rng rng(31);
  const int64_t f = 17;
  t::Tensor wt = t::Tensor::Randn(edges->size(), 1, &rng);
  t::Tensor xt = t::Tensor::Randn(g.nodes, f, &rng);
  t::Tensor bt = t::Tensor::Randn(1, f, &rng);
  auto w = ag::Variable::Constant(wt);
  auto x = ag::Variable::Constant(xt);
  auto b = ag::Variable::Constant(bt);
  const ag::EdgeListPtr ep = edges;
  auto fused = ag::SpMMBiasAct(ep, w, x, b, /*relu=*/true);
  auto chain = ag::Relu(ag::AddRowVector(ag::SpMM(ep, w, x), b));
  ASSERT_EQ(fused.value().size(), chain.value().size());
  EXPECT_TRUE(BitwiseEqual(fused.value().data(), chain.value().data(),
                           fused.value().size()));
  // Undefined bias + no relu degrades to plain SpMM.
  auto plain = ag::SpMMBiasAct(ep, w, x, ag::Variable(), /*relu=*/false);
  auto ref = ag::SpMM(ep, w, x);
  EXPECT_TRUE(BitwiseEqual(plain.value().data(), ref.value().data(),
                           ref.value().size()));
  ::unsetenv("SES_KERNEL_VARIANT");
  k::ResetActiveTierForTest();
}

TEST(SpmmBiasActTest, FusedGradientsMatchUnfusedChain) {
  const TestGraph g = MakeMessyGraph(24, 120, 13);
  auto edges = std::make_shared<ag::EdgeList>();
  edges->src = g.src;
  edges->dst = g.dst;
  edges->num_nodes = g.nodes;
  const ag::EdgeListPtr ep = edges;
  util::Rng rng(41);
  const int64_t f = 6;
  t::Tensor wt = t::Tensor::Randn(edges->size(), 1, &rng);
  t::Tensor xt = t::Tensor::Randn(g.nodes, f, &rng);
  t::Tensor bt = t::Tensor::Randn(1, f, &rng);

  auto wf = ag::Variable::Parameter(wt);
  auto xf = ag::Variable::Parameter(xt);
  auto bf = ag::Variable::Parameter(bt);
  ag::Backward(ag::SumAll(ag::SpMMBiasAct(ep, wf, xf, bf, true)));

  auto wu = ag::Variable::Parameter(wt);
  auto xu = ag::Variable::Parameter(xt);
  auto bu = ag::Variable::Parameter(bt);
  ag::Backward(
      ag::SumAll(ag::Relu(ag::AddRowVector(ag::SpMM(ep, wu, xu), bu))));

  EXPECT_LE(MaxAbsDiff(wf.grad().data(), wu.grad().data(), wf.grad().size()),
            1e-5);
  EXPECT_LE(MaxAbsDiff(xf.grad().data(), xu.grad().data(), xf.grad().size()),
            1e-5);
  EXPECT_LE(MaxAbsDiff(bf.grad().data(), bu.grad().data(), bf.grad().size()),
            1e-5);
}

TEST(SpmmBiasActTest, NumericGradientCheck) {
  const TestGraph g = MakeMessyGraph(12, 40, 17);
  auto edges = std::make_shared<ag::EdgeList>();
  edges->src = g.src;
  edges->dst = g.dst;
  edges->num_nodes = g.nodes;
  const ag::EdgeListPtr ep = edges;
  util::Rng rng(43);
  auto w = ag::Variable::Parameter(t::Tensor::Randn(edges->size(), 1, &rng));
  auto x = ag::Variable::Parameter(t::Tensor::Randn(g.nodes, 5, &rng));
  auto b = ag::Variable::Parameter(t::Tensor::Randn(1, 5, &rng));
  // Sigmoid keeps the loss smooth through the ReLU kink region.
  auto result = ag::CheckGradients(
      [&] {
        return ag::MeanAll(ag::Sigmoid(ag::SpMMBiasAct(ep, w, x, b, true)));
      },
      {w, x, b});
  EXPECT_TRUE(result.ok) << "rel err " << result.max_rel_error;
}

// ---------------------------------------------------------------------------
// Autotuner determinism and plan memoization.

TEST(AutotuneTest, HeuristicChoiceIsDeterministicGivenIdenticalStats) {
  const TestGraph g = MakeMessyGraph(64, 500, 3);
  const k::GraphStats stats = k::ComputeGraphStats(
      g.dst.data(), static_cast<int64_t>(g.dst.size()), g.nodes);
  for (const int64_t f : kWidths) {
    const k::SpmmChoice a = k::HeuristicSpmmChoice(stats, f, k::ActiveTier());
    const k::SpmmChoice b = k::HeuristicSpmmChoice(stats, f, k::ActiveTier());
    EXPECT_EQ(static_cast<int>(a.algo), static_cast<int>(b.algo));
    EXPECT_EQ(static_cast<int>(a.tier), static_cast<int>(b.tier));
    EXPECT_EQ(static_cast<int>(a.tier), static_cast<int>(k::ActiveTier()));
  }
}

TEST(AutotuneTest, IdenticalGraphsLandOnTheSameVariant) {
  // Two independently-built plans over identical edge lists — the situation
  // of the taped eval path vs the serving session — must choose the same
  // variant for every width (the bitwise cross-path parity precondition).
  const TestGraph g = MakeMessyGraph(64, 600, 23);
  const int64_t e = static_cast<int64_t>(g.src.size());
  const k::SpmmPlan p1(g.src.data(), g.dst.data(), e, g.nodes);
  const k::SpmmPlan p2(g.src.data(), g.dst.data(), e, g.nodes);
  for (const int64_t f : kWidths) {
    const k::SpmmChoice c1 = p1.Choose(f);
    const k::SpmmChoice c2 = p2.Choose(f);
    EXPECT_STREQ(k::SpmmVariantName(c1), k::SpmmVariantName(c2)) << f;
  }
}

TEST(AutotuneTest, TinyGraphPrefersCsrAndSkewPrefersBlocked) {
  k::GraphStats tiny;
  tiny.nodes = 30;
  tiny.nnz = 60;  // explain-path motif scale
  tiny.avg_degree = 2.0;
  EXPECT_EQ(static_cast<int>(
                k::HeuristicSpmmChoice(tiny, 16, k::SimdTier::kScalar).algo),
            static_cast<int>(k::SpmmAlgo::kCsr));
  k::GraphStats skewed;
  skewed.nodes = 200000;
  skewed.nnz = 2000000;
  skewed.avg_degree = 10.0;
  skewed.degree_cv = 3.0;  // hub-heavy
  EXPECT_EQ(static_cast<int>(
                k::HeuristicSpmmChoice(skewed, 64, k::SimdTier::kScalar).algo),
            static_cast<int>(k::SpmmAlgo::kCsrBlocked));
}

TEST(AutotuneTest, EdgeListPlanMemoizesAndRebuildsOnResize) {
  auto edges = std::make_shared<ag::EdgeList>();
  edges->src = {0, 1, 2};
  edges->dst = {1, 2, 0};
  edges->num_nodes = 3;
  const auto p1 = edges->plan();
  const auto p2 = edges->plan();
  EXPECT_EQ(p1.get(), p2.get()) << "same graph must reuse the memoized plan";
  EXPECT_EQ(p1->stats().nnz, 3);
}

// ---------------------------------------------------------------------------
// Narrow dense matmul: n <= one vector keeps each output row in a register.
// Its lanes must see exactly the row-axpy sequence, which the per-tier
// reference below spells out: one FMA per nonzero A element on SIMD tiers,
// a rounded multiply then add on scalar.

void ReferenceMatMul(k::SimdTier tier, const float* a, const float* b,
                     float* c, int64_t m, int64_t kk, int64_t n) {
  for (int64_t i = 0; i < m; ++i)
    for (int64_t p = 0; p < kk; ++p) {
      const float av = a[i * kk + p];
      if (av == 0.0f) continue;
      for (int64_t j = 0; j < n; ++j) {
        float& cv = c[i * n + j];
        if (tier == k::SimdTier::kScalar) {
          const float prod = av * b[p * n + j];
          cv = cv + prod;
        } else {
          cv = std::fma(av, b[p * n + j], cv);
        }
      }
    }
}

TEST(NarrowMatMulTest, BitwiseEqualToPerTierReference) {
  util::Rng rng(5);
  // 9 rows: two full four-row tiles plus a single-row remainder.
  const int64_t m = 9, kk = 13;
  for (const k::SimdTier tier : SupportedTiers()) {
    const k::Dispatch& d = k::DispatchFor(tier);
    for (int64_t n = 1; n <= 17; ++n) {
      t::Tensor a = t::Tensor::Randn(m, kk, &rng);
      t::Tensor b = t::Tensor::Randn(kk, n, &rng);
      a.At(1, 4) = 0.0f;  // zero-skip: B row 4 holds a NaN row 1 never sees
      a.At(8, 4) = 0.0f;  // ... nor does the remainder row
      b.At(4, n - 1) = std::nanf("");
      // C accumulates: start from nonzero values.
      t::Tensor got = t::Tensor::Randn(m, n, &rng);
      t::Tensor want = got;
      d.matmul(a.data(), b.data(), got.data(), m, kk, n);
      ReferenceMatMul(tier, a.data(), b.data(), want.data(), m, kk, n);
      EXPECT_TRUE(BitwiseEqual(got.data(), want.data(), m * n))
          << k::TierName(tier) << " matmul n=" << n;
      EXPECT_FALSE(std::isnan(got.At(1, n - 1))) << k::TierName(tier);
      EXPECT_TRUE(std::isnan(got.At(0, n - 1))) << k::TierName(tier);
    }
  }
}

// ---------------------------------------------------------------------------
// MatMulTransposedB: float products summed in double in ascending k, no
// zero-skip, bitwise on every tier.

void ReferenceMatMulBt(const float* a, const float* b, float* c, int64_t m,
                       int64_t kk, int64_t n) {
  for (int64_t i = 0; i < m; ++i)
    for (int64_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (int64_t p = 0; p < kk; ++p) {
        const float prod = a[i * kk + p] * b[j * kk + p];
        acc += static_cast<double>(prod);
      }
      c[i * n + j] = static_cast<float>(acc);
    }
}

TEST(MatMulBtTest, BitwiseEqualToDoubleAccumulationReference) {
  util::Rng rng(6);
  const int64_t m = 5;
  for (const k::SimdTier tier : SupportedTiers()) {
    const k::Dispatch& d = k::DispatchFor(tier);
    for (const int64_t kk : {1, 4, 64}) {
      for (const int64_t n : {1, 7, 8, 17, 31, 32, 33, 64, 70}) {
        t::Tensor a = t::Tensor::Randn(m, kk, &rng);
        t::Tensor b = t::Tensor::Randn(n, kk, &rng);
        // Large-magnitude mixes make the double sum differ from a float one.
        for (int64_t p = 0; p < kk; p += 3) a.At(3, p) *= 1e6f;
        a.At(0, 0) = 0.0f;
        b.At(n - 1, 0) = std::numeric_limits<float>::infinity();  // 0 * Inf
        b.At(0, kk - 1) = std::nanf("");
        a.At(4, kk - 1) = -std::numeric_limits<float>::infinity();
        t::Tensor got(m, n), want(m, n);
        got.Fill(7.0f);  // overwritten, not accumulated
        d.matmul_bt(a.data(), b.data(), got.data(), m, kk, n);
        ReferenceMatMulBt(a.data(), b.data(), want.data(), m, kk, n);
        EXPECT_TRUE(BitwiseEqualOrBothNaN(got.data(), want.data(), m * n))
            << k::TierName(tier) << " bt k=" << kk << " n=" << n;
        // No zero-skip: 0 * Inf reaches the sum as NaN.
        EXPECT_TRUE(std::isnan(got.At(0, n - 1))) << k::TierName(tier);
      }
    }
  }
}

TEST(MatMulBtTest, TensorEntryMatchesReferenceAndHandlesEmptyK) {
  util::Rng rng(8);
  const t::Tensor a = t::Tensor::Randn(40, 19, &rng);
  const t::Tensor b = t::Tensor::Randn(45, 19, &rng);
  const t::Tensor got = t::MatMulTransposedB(a, b);
  t::Tensor want(40, 45);
  ReferenceMatMulBt(a.data(), b.data(), want.data(), 40, 19, 45);
  EXPECT_TRUE(BitwiseEqual(got.data(), want.data(), want.size()));
  const t::Tensor empty = t::MatMulTransposedB(t::Tensor(3, 0), t::Tensor(2, 0));
  ASSERT_EQ(empty.rows(), 3);
  ASSERT_EQ(empty.cols(), 2);
  for (int64_t i = 0; i < empty.size(); ++i) EXPECT_EQ(empty[i], 0.0f);
}

// ---------------------------------------------------------------------------
// EdgeDot: the fused pair scorer against the composite it replaces.

ag::EdgeListPtr MakePairs(const std::vector<int64_t>& src,
                          const std::vector<int64_t>& dst, int64_t nodes) {
  auto pairs = std::make_shared<ag::EdgeList>();
  pairs->src = src;
  pairs->dst = dst;
  pairs->num_nodes = nodes;
  return pairs;
}

/// Messy pair list: random pairs, a duplicated pair, self pairs (i, i).
ag::EdgeListPtr MakeMessyPairs(int64_t nodes, int64_t count, uint64_t seed) {
  const TestGraph g = MakeMessyGraph(nodes, count, seed);
  std::vector<int64_t> src = g.src, dst = g.dst;
  src.push_back(src[1]);
  dst.push_back(dst[1]);
  src.push_back(0);
  dst.push_back(0);
  return MakePairs(src, dst, nodes);
}

struct EdgeDotResult {
  t::Tensor value, grad;
};

/// Forward plus backward from `seed` through EdgeDot or the composite
/// SumRows(Mul(GatherRows(h, src), GatherRows(h, dst))). The composite's
/// gathers are separate statements, src first, as the structure-mask head
/// built them: tape order fixes the order of the gradient adds.
EdgeDotResult RunEdgeDot(const ag::EdgeListPtr& pairs, const t::Tensor& h,
                         const t::Tensor& seed, bool fused) {
  ag::Variable hv = ag::Variable::Parameter(h);
  ag::Variable y;
  if (fused) {
    y = ag::EdgeDot(pairs, hv);
  } else {
    ag::Variable hi = ag::GatherRows(hv, pairs->src);
    ag::Variable hj = ag::GatherRows(hv, pairs->dst);
    y = ag::SumRows(ag::Mul(hi, hj));
  }
  ag::Backward(y, seed);
  return {y.value(), hv.mutable_grad()};
}

TEST(EdgeDotTest, BitwiseEqualToCompositeForwardAndGrad) {
  const int64_t nodes = 23;
  const ag::EdgeListPtr pairs = MakeMessyPairs(nodes, 150, 21);
  for (const int64_t f : {1, 17, 64}) {
    for (const bool nan_row : {false, true}) {
      util::Rng rng(static_cast<uint64_t>(100 + f));
      t::Tensor h = t::Tensor::Randn(nodes, f, &rng);
      if (nan_row) h.At(pairs->src[2], 0) = std::nanf("");
      const t::Tensor seed = t::Tensor::Randn(pairs->size(), 1, &rng);
      const EdgeDotResult fused = RunEdgeDot(pairs, h, seed, true);
      const EdgeDotResult chain = RunEdgeDot(pairs, h, seed, false);
      ASSERT_EQ(fused.value.size(), pairs->size());
      EXPECT_TRUE(BitwiseEqual(fused.value.data(), chain.value.data(),
                               fused.value.size()))
          << "forward f=" << f << " nan_row=" << nan_row;
      EXPECT_TRUE(BitwiseEqual(fused.grad.data(), chain.grad.data(),
                               fused.grad.size()))
          << "h.grad f=" << f << " nan_row=" << nan_row;
      if (nan_row) EXPECT_TRUE(std::isnan(fused.value[2]));
    }
  }
}

TEST(EdgeDotTest, EmptyPairListGivesEmptyScoresAndZeroGrad) {
  util::Rng rng(3);
  const t::Tensor h = t::Tensor::Randn(4, 8, &rng);
  const EdgeDotResult r =
      RunEdgeDot(MakePairs({}, {}, 4), h, t::Tensor(0, 1), true);
  EXPECT_EQ(r.value.rows(), 0);
  EXPECT_EQ(r.value.cols(), 1);
  for (int64_t i = 0; i < r.grad.size(); ++i) EXPECT_EQ(r.grad[i], 0.0f);
}

TEST(EdgeDotTest, NumericGradientCheck) {
  util::Rng rng(9);
  const ag::EdgeListPtr pairs = MakeMessyPairs(10, 30, 4);
  auto h = ag::Variable::Parameter(t::Tensor::Randn(10, 6, &rng));
  const auto result = ag::CheckGradients(
      [&] { return ag::MeanAll(ag::Sigmoid(ag::EdgeDot(pairs, h))); }, {h});
  EXPECT_TRUE(result.ok) << "rel err " << result.max_rel_error;
}

TEST(EdgeDotTest, TapeFreeForwardMatchesTapedAndRecordsNoNode) {
  util::Rng rng(10);
  const ag::EdgeListPtr pairs = MakeMessyPairs(16, 80, 5);
  auto h = ag::Variable::Parameter(t::Tensor::Randn(16, 33, &rng));
  const t::Tensor taped = ag::EdgeDot(pairs, h).value();
  ag::InferenceGuard guard;
  const uint64_t before = ag::TapeNodesCreated();
  const ag::Variable free = ag::EdgeDot(pairs, h);
  EXPECT_EQ(ag::TapeNodesCreated(), before);
  EXPECT_FALSE(free.requires_grad());
  EXPECT_TRUE(BitwiseEqual(free.value().data(), taped.data(), taped.size()));
}

// ---------------------------------------------------------------------------
// Backbone-level parity: scalar vs active SIMD tier on the paper's
// synthetic benchmarks, across all four encoders.

TEST(BackboneParityTest, ScalarAndSimdLogitsAgreeOnSyntheticBenchmarks) {
  if (k::BestSupportedTier() == k::SimdTier::kScalar)
    GTEST_SKIP() << "no SIMD tier on this host";
  data::SyntheticOptions opt;
  opt.scale = 0.12;
  for (const char* dataset : {"BAShapes", "Tree-Cycle"}) {
    const data::Dataset ds = data::MakeSyntheticByName(dataset, opt);
    const auto edges = ds.graph.DirectedEdges(/*add_self_loops=*/true);
    const nn::FeatureInput input = models::MakeInput(ds);
    for (const char* backbone : {"GCN", "GAT", "GIN", "SAGE"}) {
      util::Rng rng(77);
      const auto enc = models::MakeEncoder(
          backbone, ds.num_features(), 16, ds.num_classes, &rng);
      util::Rng fwd_rng(1);

      ::setenv("SES_KERNEL_VARIANT", "scalar", 1);
      k::ResetActiveTierForTest();
      const t::Tensor scalar_logits =
          enc->Forward(input, edges, {}, 0.0f, false, &fwd_rng)
              .logits.value();

      ::unsetenv("SES_KERNEL_VARIANT");
      k::ResetActiveTierForTest();
      const t::Tensor simd_logits =
          enc->Forward(input, edges, {}, 0.0f, false, &fwd_rng)
              .logits.value();

      ASSERT_EQ(scalar_logits.size(), simd_logits.size());
      EXPECT_LE(MaxAbsDiff(scalar_logits.data(), simd_logits.data(),
                           scalar_logits.size()),
                1e-3)
          << backbone << " on " << dataset;
    }
  }
  ::unsetenv("SES_KERNEL_VARIANT");
  k::ResetActiveTierForTest();
}

}  // namespace
