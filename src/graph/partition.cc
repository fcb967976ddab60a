#include "graph/partition.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>

#include "kernels/dispatch.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"

namespace ses::graph {

int64_t Shard::LocalOf(int64_t global) const {
  const auto it = std::lower_bound(nodes.begin(), nodes.end(), global);
  if (it == nodes.end() || *it != global) return -1;
  return it - nodes.begin();
}

double Partition::balance() const {
  if (shards.empty() || shard_of.empty()) return 1.0;
  int64_t max_owned = 0;
  for (const Shard& s : shards)
    max_owned = std::max(max_owned, static_cast<int64_t>(s.owned.size()));
  const double ideal = static_cast<double>(shard_of.size()) /
                       static_cast<double>(shards.size());
  return ideal > 0.0 ? static_cast<double>(max_owned) / ideal : 1.0;
}

double Partition::halo_fraction() const {
  if (shard_of.empty()) return 0.0;
  int64_t halo = 0;
  for (const Shard& s : shards) halo += static_cast<int64_t>(s.halo.size());
  return static_cast<double>(halo) / static_cast<double>(shard_of.size());
}

void Partition::ExportMetrics() const {
  auto& reg = obs::MetricsRegistry::Get();
  reg.GetGauge("ses.partition.shards").Set(static_cast<double>(num_shards()));
  reg.GetGauge("ses.partition.edge_cut_fraction").Set(edge_cut_fraction());
  reg.GetGauge("ses.partition.balance").Set(balance());
  reg.GetGauge("ses.partition.halo_fraction").Set(halo_fraction());
  int64_t max_nodes = 0;
  for (const Shard& s : shards)
    max_nodes = std::max(max_nodes, static_cast<int64_t>(s.nodes.size()));
  reg.GetGauge("ses.partition.max_shard_nodes")
      .Set(static_cast<double>(max_nodes));
}

namespace {

/// Per-thread scratch for BuildShard. `stamp[v] == s` marks v as a member of
/// shard s (shard ids never repeat within one Run, so stamps need no reset);
/// `local_of` is the global→local map, reset through the shard's node list.
struct ShardScratch {
  explicit ShardScratch(int64_t n)
      : stamp(static_cast<size_t>(n), -1), local_of(static_cast<size_t>(n), -1) {}
  std::vector<int32_t> stamp;
  std::vector<int64_t> local_of;
  std::vector<int64_t> frontier, next;
};

/// Grows shard s's `halo_hops`-hop halo around its owned nodes (already
/// filled, ascending) and builds the subgraph induced on owned ∪ halo.
void BuildShard(const Graph& g, int64_t halo_hops, int32_t s,
                ShardScratch* scratch, Shard* shard) {
  SES_TRACE_SPAN("graph/halo_closure");
  std::vector<int32_t>& stamp = scratch->stamp;
  std::vector<int64_t>& local_of = scratch->local_of;
  std::vector<int64_t>& frontier = scratch->frontier;
  std::vector<int64_t>& next = scratch->next;
  shard->nodes = shard->owned;
  frontier = shard->owned;
  for (const int64_t v : frontier) stamp[static_cast<size_t>(v)] = s;
  for (int64_t hop = 0; hop < halo_hops; ++hop) {
    next.clear();
    for (const int64_t v : frontier) {
      for (const int64_t u : g.Neighbors(v)) {
        if (stamp[static_cast<size_t>(u)] == s) continue;
        stamp[static_cast<size_t>(u)] = s;
        next.push_back(u);
        shard->halo.push_back(u);
      }
    }
    std::swap(frontier, next);
  }
  std::sort(shard->halo.begin(), shard->halo.end());
  shard->nodes.insert(shard->nodes.end(), shard->halo.begin(),
                      shard->halo.end());
  std::sort(shard->nodes.begin(), shard->nodes.end());

  for (size_t i = 0; i < shard->nodes.size(); ++i)
    local_of[static_cast<size_t>(shard->nodes[i])] = static_cast<int64_t>(i);
  // Scanning nodes ascending and neighbors ascending emits local edges in
  // lexicographic order (the map is monotone), so the zero-sort Graph
  // constructor applies.
  std::vector<std::pair<int64_t, int64_t>> local_edges;
  for (size_t i = 0; i < shard->nodes.size(); ++i) {
    const int64_t v = shard->nodes[i];
    for (const int64_t u : g.Neighbors(v)) {
      if (u <= v || stamp[static_cast<size_t>(u)] != s) continue;
      local_edges.emplace_back(static_cast<int64_t>(i),
                               local_of[static_cast<size_t>(u)]);
    }
  }
  shard->graph = Graph::FromSortedUniqueEdges(
      static_cast<int64_t>(shard->nodes.size()), std::move(local_edges));
  for (const int64_t v : shard->nodes) local_of[static_cast<size_t>(v)] = -1;
}

}  // namespace

Partitioner::Partitioner(PartitionOptions options) : options_(options) {
  SES_CHECK(options_.num_shards >= 1);
  SES_CHECK(options_.halo_hops >= 0);
  SES_CHECK(options_.balance_slack >= 1.0);
}

Partition Partitioner::Run(const Graph& g) const {
  SES_TRACE_SPAN("graph/partition");
  const int64_t n = g.num_nodes();
  const int64_t num_shards = std::min<int64_t>(options_.num_shards,
                                               std::max<int64_t>(n, 1));
  Partition part;
  part.options = options_;
  part.total_edges = g.num_edges();
  part.shard_of.assign(static_cast<size_t>(n), -1);
  part.shards.resize(static_cast<size_t>(num_shards));

  // --- Greedy assignment over the degree-sorted frontier -------------------
  const int64_t capacity = std::max<int64_t>(
      1, static_cast<int64_t>(std::ceil(options_.balance_slack *
                                        static_cast<double>(n) /
                                        static_cast<double>(num_shards))));
  std::vector<int64_t> order(static_cast<size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](int64_t a, int64_t b) {
    const int64_t da = g.Degree(a), db = g.Degree(b);
    return da != db ? da > db : a < b;
  });
  std::vector<int64_t> load(static_cast<size_t>(num_shards), 0);
  std::vector<int64_t> gain(static_cast<size_t>(num_shards), 0);
  std::vector<int32_t> touched;
  for (const int64_t v : order) {
    touched.clear();
    for (const int64_t u : g.Neighbors(v)) {
      const int32_t s = part.shard_of[static_cast<size_t>(u)];
      if (s < 0) continue;
      if (gain[static_cast<size_t>(s)]++ == 0) touched.push_back(s);
    }
    // Highest neighbor gain wins among shards with room; ties go to the
    // lighter shard, then the lower index — all deterministic.
    int32_t best = -1;
    for (int32_t s = 0; s < num_shards; ++s) {
      if (load[static_cast<size_t>(s)] >= capacity) continue;
      if (best < 0 ||
          gain[static_cast<size_t>(s)] > gain[static_cast<size_t>(best)] ||
          (gain[static_cast<size_t>(s)] == gain[static_cast<size_t>(best)] &&
           load[static_cast<size_t>(s)] < load[static_cast<size_t>(best)]))
        best = s;
    }
    SES_CHECK(best >= 0 && "balance_slack >= 1 guarantees a shard has room");
    part.shard_of[static_cast<size_t>(v)] = best;
    ++load[static_cast<size_t>(best)];
    for (const int32_t s : touched) gain[static_cast<size_t>(s)] = 0;
  }

  // --- Edge ownership and cut statistics -----------------------------------
  // Each undirected edge is owned by exactly one shard: the owner of its
  // smaller endpoint (the invariant the partition tests sum over).
  for (const auto& [u, v] : g.edges()) {
    const int32_t su = part.shard_of[static_cast<size_t>(u)];
    const int32_t sv = part.shard_of[static_cast<size_t>(v)];
    if (su != sv) ++part.cut_edges;
    ++part.shards[static_cast<size_t>(su)].num_owned_edges;
  }

  // --- Halo closure and induced local subgraphs ----------------------------
  for (int64_t v = 0; v < n; ++v)
    part.shards[static_cast<size_t>(part.shard_of[static_cast<size_t>(v)])]
        .owned.push_back(v);
  // Shards only read `g` and `shard_of`, so they are built concurrently,
  // each thread with its own n-sized scratch; a shard's contents do not
  // depend on which thread builds it.
  const bool par = num_shards > 1 && kernels::ShouldParallelize(
                                         2.0 * static_cast<double>(g.num_edges()));
#pragma omp parallel if (par)
  {
    ShardScratch scratch(n);
#pragma omp for schedule(dynamic, 1)
    for (int32_t s = 0; s < num_shards; ++s)
      BuildShard(g, options_.halo_hops, s, &scratch,
                 &part.shards[static_cast<size_t>(s)]);
  }

  part.ExportMetrics();
  return part;
}

}  // namespace ses::graph
