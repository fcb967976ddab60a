#include "kernels/spmm.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"

namespace ses::kernels {

namespace {

/// L2 budget the blocked variant targets for its gathered-x working set.
/// Fixed (not probed) so the heuristic stays a pure function of its inputs
/// across machines of the same class.
constexpr int64_t kL2BudgetBytes = 1 << 20;

}  // namespace

CsrAdj BuildCsrByDst(const int64_t* src, const int64_t* dst, int64_t e,
                     int64_t n) {
  CsrAdj csr;
  csr.rows = n;
  csr.cols = n;
  csr.row_ptr.assign(static_cast<size_t>(n) + 1, 0);
  for (int64_t i = 0; i < e; ++i) {
    SES_CHECK(dst[i] >= 0 && dst[i] < n);
    ++csr.row_ptr[static_cast<size_t>(dst[i]) + 1];
  }
  for (int64_t r = 0; r < n; ++r)
    csr.row_ptr[static_cast<size_t>(r) + 1] +=
        csr.row_ptr[static_cast<size_t>(r)];
  csr.col.resize(static_cast<size_t>(e));
  csr.perm.resize(static_cast<size_t>(e));
  std::vector<int64_t> cursor(csr.row_ptr.begin(), csr.row_ptr.end() - 1);
  // Walking edges in order with per-row cursors is a STABLE sort: within a
  // row, entries appear in ascending edge index, so per-row accumulation
  // replays the edge-order sequence exactly (the bitwise-parity invariant).
  for (int64_t i = 0; i < e; ++i) {
    const int64_t slot = cursor[static_cast<size_t>(dst[i])]++;
    csr.col[static_cast<size_t>(slot)] = src[i];
    csr.perm[static_cast<size_t>(slot)] = i;
  }
  return csr;
}

GraphStats ComputeGraphStats(const int64_t* dst, int64_t e, int64_t n) {
  GraphStats s;
  s.nodes = n;
  s.nnz = e;
  if (n == 0) return s;
  std::vector<int64_t> deg(static_cast<size_t>(n), 0);
  for (int64_t i = 0; i < e; ++i) ++deg[static_cast<size_t>(dst[i])];
  s.max_degree = *std::max_element(deg.begin(), deg.end());
  s.avg_degree = static_cast<double>(e) / static_cast<double>(n);
  s.density = static_cast<double>(e) /
              (static_cast<double>(n) * static_cast<double>(n));
  double var = 0.0;
  for (int64_t d : deg) {
    const double delta = static_cast<double>(d) - s.avg_degree;
    var += delta * delta;
  }
  var /= static_cast<double>(n);
  s.degree_cv = s.avg_degree > 0.0 ? std::sqrt(var) / s.avg_degree : 0.0;
  return s;
}

const char* SpmmVariantName(SpmmChoice choice) {
  static const char* kNames[kNumSpmmAlgos][kNumSimdTiers] = {
      {"csr_scalar", "csr_avx2", "csr_avx512"},
      {"csr_blocked_scalar", "csr_blocked_avx2", "csr_blocked_avx512"},
  };
  return kNames[static_cast<int>(choice.algo)][static_cast<int>(choice.tier)];
}

SpmmChoice HeuristicSpmmChoice(const GraphStats& stats, int64_t feat,
                               SimdTier tier) {
  SpmmChoice c{SpmmAlgo::kCsr, tier};
  // Skewed in-degree AND a gathered working set past L2: hot rows thrash the
  // cache under plain CSR order, so sweep source blocks instead. The reorder
  // costs bitwise parity, so the bar is deliberately high.
  const double x_bytes =
      4.0 * static_cast<double>(stats.nodes) * static_cast<double>(feat);
  if (stats.degree_cv > 1.5 && stats.avg_degree >= 4.0 &&
      x_bytes > static_cast<double>(kL2BudgetBytes))
    c.algo = SpmmAlgo::kCsrBlocked;
  return c;
}

int64_t BlockColsFor(int64_t feat) {
  // Half the L2 budget for the gathered x rows, the rest for out/CSR stream.
  const int64_t rows_in_budget = (kL2BudgetBytes / 2) / (4 * std::max<int64_t>(feat, 1));
  return std::max<int64_t>(256, rows_in_budget);
}

SpmmPlan::SpmmPlan(const int64_t* src, const int64_t* dst, int64_t e,
                   int64_t n)
    : src_(src), dst_(dst), stats_(ComputeGraphStats(dst, e, n)) {}

const CsrAdj& SpmmPlan::EnsureCsr() const {
  std::lock_guard<std::mutex> lock(mu_);
  if (!csr_built_) {
    csr_ = BuildCsrByDst(src_, dst_, stats_.nnz, stats_.nodes);
    csr_built_ = true;
  }
  return csr_;
}

const CsrAdj& SpmmPlan::EnsureSortedCsr() const {
  EnsureCsr();
  std::lock_guard<std::mutex> lock(mu_);
  if (!sorted_built_) {
    csr_.sorted_col = csr_.col;
    csr_.sorted_perm = csr_.perm;
    std::vector<std::pair<int64_t, int64_t>> row(0);
    for (int64_t r = 0; r < csr_.rows; ++r) {
      const int64_t lo = csr_.row_ptr[static_cast<size_t>(r)];
      const int64_t hi = csr_.row_ptr[static_cast<size_t>(r) + 1];
      row.clear();
      for (int64_t i = lo; i < hi; ++i)
        row.emplace_back(csr_.col[static_cast<size_t>(i)],
                         csr_.perm[static_cast<size_t>(i)]);
      std::sort(row.begin(), row.end());
      for (int64_t i = lo; i < hi; ++i) {
        csr_.sorted_col[static_cast<size_t>(i)] =
            row[static_cast<size_t>(i - lo)].first;
        csr_.sorted_perm[static_cast<size_t>(i)] =
            row[static_cast<size_t>(i - lo)].second;
      }
    }
    sorted_built_ = true;
  }
  return csr_;
}

void SpmmPlan::PinChoiceStats(const GraphStats& stats) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (stats_pinned_ && pinned_stats_.nodes == stats.nodes &&
      pinned_stats_.nnz == stats.nnz &&
      pinned_stats_.max_degree == stats.max_degree &&
      pinned_stats_.avg_degree == stats.avg_degree &&
      pinned_stats_.degree_cv == stats.degree_cv)
    return;  // idempotent re-pin (session artifact rebuild): keep the memo
  stats_pinned_ = true;
  pinned_stats_ = stats;
  choice_memo_.clear();
}

SpmmChoice SpmmPlan::Choose(int64_t feat) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [f, c] : choice_memo_)
    if (f == feat) return c;
  const SpmmChoice choice = HeuristicSpmmChoice(
      stats_pinned_ ? pinned_stats_ : stats_, feat, ActiveTier());
  choice_memo_.emplace_back(feat, choice);
  return choice;
}

void SpmmPlan::Run(SpmmChoice choice, const float* w, const float* x,
                   int64_t f, float* out, const float* bias,
                   bool relu) const {
  const Dispatch& d = DispatchFor(choice.tier);
  switch (choice.algo) {
    case SpmmAlgo::kCsr: {
      const CsrAdj& csr = EnsureCsr();
      d.spmm_csr(csr.rows, csr.row_ptr.data(), csr.col.data(),
                 csr.perm.data(), w, x, f, out, bias, relu);
      break;
    }
    case SpmmAlgo::kCsrBlocked: {
      const CsrAdj& csr = EnsureSortedCsr();
      d.spmm_csr_blocked(csr.rows, csr.cols, csr.row_ptr.data(),
                         csr.sorted_col.data(), csr.sorted_perm.data(), w, x,
                         f, out, bias, relu, BlockColsFor(f));
      break;
    }
  }
}

std::shared_ptr<const SpmmPlan> SpmmPlanCell::Get(const int64_t* src,
                                                  const int64_t* dst,
                                                  int64_t e, int64_t n) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (plan_ == nullptr || plan_->stats().nnz != e ||
      plan_->stats().nodes != n)
    plan_ = std::make_shared<const SpmmPlan>(src, dst, e, n);
  return plan_;
}

}  // namespace ses::kernels
