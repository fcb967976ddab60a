#ifndef SES_GRAPH_PARTITION_H_
#define SES_GRAPH_PARTITION_H_

#include <cstdint>
#include <vector>

#include "graph/graph.h"

namespace ses::graph {

/// Knobs for PartitionGraph / Partitioner (DESIGN.md §16).
struct PartitionOptions {
  int64_t num_shards = 4;
  /// Ghost-closure depth: every node within this many hops of an owned node
  /// is replicated into the shard's halo. Sharded serving of an L-layer
  /// encoder needs L + 1 (the extra ring makes the induced subgraph's
  /// degrees — and therefore the GCN normalization — exact on every node an
  /// owned logit reads), hence 3 for the library's two-layer encoders.
  int64_t halo_hops = 3;
  /// Per-shard owned-node capacity as a multiple of the ideal n / shards.
  double balance_slack = 1.05;
};

/// One shard: its owned nodes, the halo (ghost) replicas, and the subgraph
/// induced on their union, relabeled to local ids. `nodes` is ascending, so
/// the global→local map is monotone — local edge order equals global edge
/// order, which is what keeps shard-local forwards bitwise-equal to the
/// whole-graph forward (see ShardedSession).
struct Shard {
  std::vector<int64_t> owned;  ///< global ids, ascending
  std::vector<int64_t> halo;   ///< ghost global ids, ascending, disjoint
  std::vector<int64_t> nodes;  ///< owned ∪ halo, ascending; local id = index
  Graph graph;                 ///< induced subgraph over `nodes`, local ids
  int64_t num_owned_edges = 0;  ///< edges whose smaller endpoint is owned

  /// Local id of a global node, or -1 when not replicated here. O(log n).
  int64_t LocalOf(int64_t global) const;
};

/// A complete edge-cut partition plus its quality statistics.
struct Partition {
  PartitionOptions options;
  std::vector<int32_t> shard_of;  ///< global node -> owning shard
  std::vector<Shard> shards;
  int64_t total_edges = 0;
  int64_t cut_edges = 0;  ///< edges whose endpoints live on different shards

  int64_t num_shards() const { return static_cast<int64_t>(shards.size()); }
  double edge_cut_fraction() const {
    return total_edges == 0
               ? 0.0
               : static_cast<double>(cut_edges) /
                     static_cast<double>(total_edges);
  }
  /// Max owned-node count over the ideal n / shards (1.0 = perfectly even).
  double balance() const;
  /// Ghost replicas as a fraction of total nodes — the replication cost the
  /// halo exchange pays per graph version.
  double halo_fraction() const;

  /// Publishes `ses.partition.*` gauges (shards, edge_cut_fraction, balance,
  /// halo_fraction, max_shard_nodes). Called by Partitioner::Run.
  void ExportMetrics() const;
};

/// Greedy METIS-style edge-cut partitioner. Nodes are visited in
/// degree-descending order (hubs placed first, while every shard still has
/// room) and each is assigned to the shard holding most of its
/// already-assigned neighbors, subject to the balance_slack capacity —
/// linear deterministic gain scoring over the degree-sorted frontier, ties
/// broken toward the lighter then lower-indexed shard. O(N log N + E).
class Partitioner {
 public:
  explicit Partitioner(PartitionOptions options = {});

  /// Partitions `g`, builds every shard's halo closure and induced local
  /// subgraph (shards concurrently above the OpenMP cutover, with results
  /// independent of the thread count), and exports the `ses.partition.*`
  /// quality metrics.
  Partition Run(const Graph& g) const;

 private:
  PartitionOptions options_;
};

}  // namespace ses::graph

#endif  // SES_GRAPH_PARTITION_H_
