#ifndef SES_KERNELS_SPMM_H_
#define SES_KERNELS_SPMM_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "kernels/dispatch.h"

namespace ses::kernels {

/// ---------------------------------------------------------------------------
/// Per-graph SpMM planning.
///
/// Aggregation SpMMs run thousands of times over the same adjacency (per
/// epoch in training, per request in serving), so the per-graph work — a
/// CSR-by-destination view of the edge list, cheap graph statistics, and the
/// variant decision derived from them — is computed once and memoized in an
/// `SpmmPlan` that lives on the owning EdgeList. Two algorithms exist: `csr`
/// (rows in edge order) and `csr_blocked` (source-blocked sweep for skewed
/// graphs). The choice between them is a PURE function of (graph statistics,
/// feature width, active SIMD tier), so every path over the same graph —
/// taped training, taped eval, the InferenceGuard serving fast path — picks
/// the same kernel and stays bitwise reproducible.

/// Structure-only CSR view of an edge list, grouped by destination. Entries
/// keep their original edge order within each row (stable counting sort), so
/// per-row accumulation order equals edge order — the property that makes
/// scalar csr bitwise-equal to a plain edge-order scatter. `perm` maps each
/// entry back to its edge index for weight lookup (weights change every call;
/// the structure does not).
struct CsrAdj {
  int64_t rows = 0;  ///< destination nodes
  int64_t cols = 0;  ///< source nodes
  std::vector<int64_t> row_ptr;  ///< size rows + 1
  std::vector<int64_t> col;      ///< source node per entry (edge order)
  std::vector<int64_t> perm;     ///< entry -> original edge index
  /// Column-ascending reorder of (col, perm) per row, built on demand for
  /// the blocked variant (which sweeps source blocks).
  std::vector<int64_t> sorted_col;
  std::vector<int64_t> sorted_perm;

  int64_t nnz() const { return static_cast<int64_t>(col.size()); }
};

/// Builds the CSR-by-destination view with a stable counting sort: O(E + N),
/// no comparisons, entry order within each row == edge order. Above the
/// OpenMP cutover each thread counts and scatters one contiguous edge chunk;
/// the output is identical for every team size. Swapping the arguments
/// (`BuildCsrByDst(dst, src, ...)`) groups by source instead.
CsrAdj BuildCsrByDst(const int64_t* src, const int64_t* dst, int64_t e,
                     int64_t n);

/// Fills `csr->sorted_col` / `sorted_perm`: each row's (col, perm) entries
/// in ascending column order, ties in ascending edge index. Rows are sorted
/// in parallel above the OpenMP cutover.
void SortRowsBySource(CsrAdj* csr);

/// Cheap statistics the variant heuristic decides from. Degree means
/// in-degree (by destination — the scatter side that determines SpMM
/// locality).
struct GraphStats {
  int64_t nodes = 0;
  int64_t nnz = 0;
  int64_t max_degree = 0;
  double density = 0.0;     ///< nnz / nodes^2
  double avg_degree = 0.0;  ///< nnz / nodes
  double degree_cv = 0.0;   ///< stddev(in-degree) / mean — skew proxy
};

GraphStats ComputeGraphStats(const int64_t* dst, int64_t e, int64_t n);

enum class SpmmAlgo : int {
  kCsr = 0,         ///< CSR-by-dst rows, edge order preserved
  kCsrBlocked = 1,  ///< CSR + source-blocked sweep (skewed-degree graphs)
};
inline constexpr int kNumSpmmAlgos = 2;

struct SpmmChoice {
  SpmmAlgo algo = SpmmAlgo::kCsr;
  SimdTier tier = SimdTier::kScalar;
};

/// Static-storage variant label ("csr_avx512", "csr_blocked_scalar", ...)
/// for KernelScope / metrics / bench entries.
const char* SpmmVariantName(SpmmChoice choice);

/// The decision rule: a pure function of (stats, feature width, tier).
/// Exposed directly for the CI determinism check.
SpmmChoice HeuristicSpmmChoice(const GraphStats& stats, int64_t feat,
                               SimdTier tier);

/// Deterministic source-block width for the blocked variant: sized so the
/// gathered x block (block_cols rows of f floats) fits the L2 budget.
int64_t BlockColsFor(int64_t feat);

/// Memoized per-graph plan: stats eagerly, CSR views on the first Run that
/// needs them, choice per feature width. All accessors are thread-safe;
/// serving threads share one plan.
///
/// The plan RETAINS the src/dst pointers it was built from — it lives inside
/// the owning EdgeList (see SpmmPlanCell), whose index arrays are immutable
/// and outlive it. Callers that copy a plan pointer out must keep the
/// EdgeListPtr alive alongside it.
class SpmmPlan {
 public:
  SpmmPlan(const int64_t* src, const int64_t* dst, int64_t e, int64_t n);

  const GraphStats& stats() const { return stats_; }

  /// The variant decision for feature width `feat`, from the pinned stats
  /// when set and this plan's own otherwise; memoized per width.
  SpmmChoice Choose(int64_t feat) const;

  /// Pins the statistics Choose decides from to `stats` instead of this
  /// plan's own, clearing any memoized decisions. Sharded serving pins every
  /// shard plan to the WHOLE-graph statistics so all shards land in the same
  /// accumulation-order class as the single-session plan (csr vs
  /// csr_blocked) — the property the bitwise shard-parity contract rests on.
  void PinChoiceStats(const GraphStats& stats) const;

  /// Runs the chosen SpMM: out(nodes x f, zero-initialized) accumulates the
  /// weighted aggregation, then the optional fused epilogue (bias/ReLU).
  void Run(SpmmChoice choice, const float* w, const float* x, int64_t f,
           float* out, const float* bias, bool relu) const;

  /// CSR-by-SOURCE view (rows = source nodes, `col` = destination, `perm` =
  /// edge index, entries in ascending edge index per row), built on the
  /// first call and memoized. Only the SpMM backward reads it, so inference
  /// never pays for it.
  const CsrAdj& SourceCsr() const;

 private:
  const CsrAdj& EnsureCsr() const;
  const CsrAdj& EnsureSortedCsr() const;

  const int64_t* src_ = nullptr;
  const int64_t* dst_ = nullptr;
  GraphStats stats_;
  mutable std::mutex mu_;
  mutable CsrAdj csr_;          ///< rows empty until built
  mutable bool csr_built_ = false;
  mutable bool sorted_built_ = false;
  mutable CsrAdj by_src_;        ///< rows empty until built
  mutable bool by_src_built_ = false;
  mutable std::vector<std::pair<int64_t, SpmmChoice>> choice_memo_;
  mutable bool stats_pinned_ = false;
  mutable GraphStats pinned_stats_;  ///< decision stats when pinned
};

/// Holder for the plan an EdgeList memoizes. Copy/move produce an EMPTY cell
/// (plans describe one index array instance); Get() rebuilds if the edge
/// count or node count no longer match.
class SpmmPlanCell {
 public:
  SpmmPlanCell() = default;
  SpmmPlanCell(const SpmmPlanCell&) {}
  SpmmPlanCell(SpmmPlanCell&&) noexcept {}
  SpmmPlanCell& operator=(const SpmmPlanCell&) { return *this; }
  SpmmPlanCell& operator=(SpmmPlanCell&&) noexcept { return *this; }

  std::shared_ptr<const SpmmPlan> Get(const int64_t* src, const int64_t* dst,
                                      int64_t e, int64_t n) const;

 private:
  mutable std::mutex mu_;
  mutable std::shared_ptr<const SpmmPlan> plan_;
};

}  // namespace ses::kernels

#endif  // SES_KERNELS_SPMM_H_
