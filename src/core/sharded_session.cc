#include "core/sharded_session.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"

namespace ses::core {

/// In-degree over the support is Degree(v) + 1 and the variance loop runs in
/// the same node order as ComputeGraphStats, so every field (including the
/// FP-accumulated degree_cv) matches bitwise; WholeGraphStatsMatchComputed in
/// tests/scale_test.cc holds the two equal.
kernels::GraphStats WholeGraphSpmmStats(const graph::Graph& g) {
  kernels::GraphStats s;
  const int64_t n = g.num_nodes();
  s.nodes = n;
  s.nnz = 2 * g.num_edges() + n;
  if (n == 0) return s;
  int64_t max_degree = 0;
  for (int64_t v = 0; v < n; ++v)
    max_degree = std::max(max_degree, g.Degree(v) + 1);
  s.max_degree = max_degree;
  s.avg_degree = static_cast<double>(s.nnz) / static_cast<double>(n);
  s.density = static_cast<double>(s.nnz) /
              (static_cast<double>(n) * static_cast<double>(n));
  double var = 0.0;
  for (int64_t v = 0; v < n; ++v) {
    const double delta =
        static_cast<double>(g.Degree(v) + 1) - s.avg_degree;
    var += delta * delta;
  }
  var /= static_cast<double>(n);
  s.degree_cv = s.avg_degree > 0.0 ? std::sqrt(var) / s.avg_degree : 0.0;
  return s;
}

namespace {

/// Shard slice of the model's per-nonzero feature mask: the mask values of
/// each shard node's feature row, concatenated in shard-node order — exactly
/// the nonzero layout SparseMatrix::GatherRows produces for the shard's
/// features, so mask[i] still weights the same (row, col) nonzero.
tensor::Tensor SliceFeatureMask(const tensor::Tensor& mask,
                                const tensor::SparseMatrix& features,
                                const std::vector<int64_t>& nodes) {
  int64_t nnz = 0;
  for (const int64_t v : nodes)
    nnz += features.row_ptr[static_cast<size_t>(v) + 1] -
           features.row_ptr[static_cast<size_t>(v)];
  tensor::Tensor out(nnz, 1);
  int64_t w = 0;
  for (const int64_t v : nodes)
    for (int64_t e = features.row_ptr[static_cast<size_t>(v)];
         e < features.row_ptr[static_cast<size_t>(v) + 1]; ++e)
      out.data()[w++] = mask[e];
  return out;
}

/// Shard slice of the model's structure mask. The global mask is laid out in
/// DirectedEdges(add_self_loops=true) order — entries 2i / 2i+1 for the two
/// orientations of undirected edge i, then one self-loop per node — and the
/// shard's local support uses the same layout over its local edges, so each
/// local entry copies from the global index of the corresponding global
/// edge (found by binary search in the sorted global edge list).
tensor::Tensor SliceStructureMask(const tensor::Tensor& mask,
                                  const graph::Graph& global,
                                  const graph::Shard& shard) {
  const auto& global_edges = global.edges();
  const int64_t local_e = shard.graph.num_edges();
  const int64_t local_n = shard.graph.num_nodes();
  SES_CHECK(mask.size() ==
            2 * static_cast<int64_t>(global_edges.size()) + global.num_nodes());
  tensor::Tensor out(2 * local_e + local_n, 1);
  const auto& local_edges = shard.graph.edges();
  for (int64_t i = 0; i < local_e; ++i) {
    const auto [lu, lv] = local_edges[static_cast<size_t>(i)];
    // nodes[] is ascending, so lu < lv maps to gu < gv: orientations align.
    const std::pair<int64_t, int64_t> key{
        shard.nodes[static_cast<size_t>(lu)],
        shard.nodes[static_cast<size_t>(lv)]};
    const auto it =
        std::lower_bound(global_edges.begin(), global_edges.end(), key);
    SES_CHECK(it != global_edges.end() && *it == key &&
              "shard edge missing from the global graph");
    const int64_t g = it - global_edges.begin();
    out.data()[2 * i] = mask[2 * g];
    out.data()[2 * i + 1] = mask[2 * g + 1];
  }
  const int64_t self_base = 2 * static_cast<int64_t>(global_edges.size());
  for (int64_t i = 0; i < local_n; ++i)
    out.data()[2 * local_e + i] =
        mask[self_base + shard.nodes[static_cast<size_t>(i)]];
  return out;
}

}  // namespace

ShardedSession::ShardedSession(const SesModel* model, const data::Dataset* ds,
                               ShardedSessionOptions options)
    : model_(model), encoder_(model->encoder()), ds_(ds), options_(options) {
  SES_CHECK(encoder_ != nullptr && "SesModel must be Fit before serving");
  SES_CHECK(ds_ != nullptr);
  Build();
}

ShardedSession::ShardedSession(const models::Encoder* encoder,
                               const data::Dataset* ds,
                               ShardedSessionOptions options)
    : encoder_(encoder), ds_(ds), options_(options) {
  SES_CHECK(encoder_ != nullptr);
  SES_CHECK(ds_ != nullptr);
  Build();
}

void ShardedSession::Build() {
  SES_TRACE_SPAN("core/shard_build");
  partition_ = graph::Partitioner(options_.partition).Run(ds_->graph);
  const kernels::GraphStats whole_stats = WholeGraphSpmmStats(ds_->graph);
  const int64_t num_shards = partition_.num_shards();
  shard_data_.resize(static_cast<size_t>(num_shards));
  for (int64_t s = 0; s < num_shards; ++s) {
    const graph::Shard& shard = partition_.shards[static_cast<size_t>(s)];
    data::Dataset& local = shard_data_[static_cast<size_t>(s)];
    local.name = ds_->name + "/shard" + std::to_string(s);
    local.graph = shard.graph;
    local.num_classes = ds_->num_classes;
    local.labels.reserve(shard.nodes.size());
    for (const int64_t v : shard.nodes)
      local.labels.push_back(ds_->labels[static_cast<size_t>(v)]);
  }
  ExchangeHaloFeatures();
  obs::MetricsRegistry::Get()
      .GetGauge("ses.shard.sessions")
      .Set(static_cast<double>(num_shards));
  sessions_.reserve(static_cast<size_t>(num_shards));
  for (int64_t s = 0; s < num_shards; ++s) {
    const graph::Shard& shard = partition_.shards[static_cast<size_t>(s)];
    SessionOverrides overrides;
    overrides.pin_spmm_stats = options_.pin_spmm_stats;
    overrides.spmm_stats = whole_stats;
    if (model_ != nullptr) {
      if (model_->options().use_feature_mask &&
          model_->feature_mask_nnz().size() > 0)
        overrides.feature_mask_nnz = SliceFeatureMask(
            model_->feature_mask_nnz(), *ds_->features, shard.nodes);
      if (model_->options().use_structure_mask &&
          model_->structure_mask_adj().size() > 0)
        overrides.structure_mask_adj = SliceStructureMask(
            model_->structure_mask_adj(), ds_->graph, shard);
      sessions_.push_back(std::make_unique<InferenceSession>(
          model_, &shard_data_[static_cast<size_t>(s)],
          std::move(overrides)));
    } else {
      sessions_.push_back(std::make_unique<InferenceSession>(
          encoder_, &shard_data_[static_cast<size_t>(s)],
          std::move(overrides)));
    }
  }
}

void ShardedSession::ExchangeHaloFeatures() {
  SES_CHECK(ds_->features != nullptr);
  const auto start = std::chrono::steady_clock::now();
  int64_t halo_rows = 0;
  int64_t exchanged_nnz = 0;
  for (int64_t s = 0; s < partition_.num_shards(); ++s) {
    const graph::Shard& shard = partition_.shards[static_cast<size_t>(s)];
    auto gathered = std::make_shared<tensor::SparseMatrix>(
        ds_->features->GatherRows(shard.nodes));
    halo_rows += static_cast<int64_t>(shard.halo.size());
    for (const int64_t v : shard.halo)
      exchanged_nnz += ds_->features->row_ptr[static_cast<size_t>(v) + 1] -
                       ds_->features->row_ptr[static_cast<size_t>(v)];
    shard_data_[static_cast<size_t>(s)].features = std::move(gathered);
  }
  stats_.halo_rows = halo_rows;
  stats_.exchanged_nnz = exchanged_nnz;
  ++stats_.exchanges;
  auto& reg = obs::MetricsRegistry::Get();
  reg.GetGauge("ses.shard.halo_rows").Set(static_cast<double>(halo_rows));
  reg.GetCounter("ses.shard.exchanges").Add(1);
  reg.GetCounter("ses.shard.exchanged_nnz").Add(exchanged_nnz);
  reg.GetGauge("ses.shard.exchange_us")
      .Set(static_cast<double>(
               std::chrono::duration_cast<std::chrono::nanoseconds>(
                   std::chrono::steady_clock::now() - start)
                   .count()) *
           1e-3);
}

int64_t ShardedSession::ShardOf(int64_t node) const {
  SES_CHECK(node >= 0 &&
            node < static_cast<int64_t>(partition_.shard_of.size()));
  return partition_.shard_of[static_cast<size_t>(node)];
}

int64_t ShardedSession::LocalIdOf(int64_t node) const {
  const graph::Shard& shard =
      partition_.shards[static_cast<size_t>(ShardOf(node))];
  const int64_t local = shard.LocalOf(node);
  SES_CHECK(local >= 0 && "owned node must be in its shard's node list");
  return local;
}

int64_t ShardedSession::PredictNode(int64_t node) {
  return sessions_[static_cast<size_t>(ShardOf(node))]->PredictNode(
      LocalIdOf(node));
}

std::vector<int64_t> ShardedSession::PredictMany(
    const std::vector<int64_t>& nodes) {
  // Group per shard, one batched call each, then scatter back in order.
  const int64_t num_shards = this->num_shards();
  std::vector<std::vector<int64_t>> local(static_cast<size_t>(num_shards));
  std::vector<std::vector<size_t>> position(static_cast<size_t>(num_shards));
  for (size_t i = 0; i < nodes.size(); ++i) {
    const int64_t s = ShardOf(nodes[i]);
    local[static_cast<size_t>(s)].push_back(LocalIdOf(nodes[i]));
    position[static_cast<size_t>(s)].push_back(i);
  }
  std::vector<int64_t> out(nodes.size());
  for (int64_t s = 0; s < num_shards; ++s) {
    if (local[static_cast<size_t>(s)].empty()) continue;
    const std::vector<int64_t> classes =
        sessions_[static_cast<size_t>(s)]->PredictMany(
            local[static_cast<size_t>(s)]);
    for (size_t j = 0; j < classes.size(); ++j)
      out[position[static_cast<size_t>(s)][j]] = classes[j];
  }
  return out;
}

tensor::Tensor ShardedSession::GatherLogits(
    const std::vector<int64_t>& nodes) {
  const int64_t num_shards = this->num_shards();
  std::vector<std::vector<int64_t>> local(static_cast<size_t>(num_shards));
  std::vector<std::vector<size_t>> position(static_cast<size_t>(num_shards));
  for (size_t i = 0; i < nodes.size(); ++i) {
    const int64_t s = ShardOf(nodes[i]);
    local[static_cast<size_t>(s)].push_back(LocalIdOf(nodes[i]));
    position[static_cast<size_t>(s)].push_back(i);
  }
  tensor::Tensor out;
  for (int64_t s = 0; s < num_shards; ++s) {
    if (local[static_cast<size_t>(s)].empty()) continue;
    const tensor::Tensor rows = sessions_[static_cast<size_t>(s)]
                                    ->GatherLogits(local[static_cast<size_t>(s)]);
    if (out.rows() == 0)
      out = tensor::Tensor(static_cast<int64_t>(nodes.size()), rows.cols());
    for (int64_t j = 0; j < rows.rows(); ++j)
      std::copy(rows.RowPtr(j), rows.RowPtr(j) + rows.cols(),
                out.RowPtr(static_cast<int64_t>(
                    position[static_cast<size_t>(s)][static_cast<size_t>(j)])));
  }
  return out;
}

InferenceSession::Explanation ShardedSession::ExplainNode(
    int64_t node, int64_t top_k) const {
  // The structure mask and its k-hop support are GLOBAL model state, so the
  // owner shard's session explains the global id directly — routing is for
  // per-shard request accounting, not id translation.
  return sessions_[static_cast<size_t>(ShardOf(node))]->ExplainNode(node,
                                                                    top_k);
}

void ShardedSession::InvalidateGraph() {
  ExchangeHaloFeatures();
  for (auto& session : sessions_) session->InvalidateGraph();
}

}  // namespace ses::core
