#include "graph/graph.h"

#include <algorithm>
#include <cmath>
#include <queue>
#include <set>
#include <stdexcept>
#include <string>

#include "kernels/dispatch.h"
#include "util/logging.h"

namespace ses::graph {

Graph Graph::FromUndirectedEdges(
    int64_t num_nodes, const std::vector<std::pair<int64_t, int64_t>>& edges) {
  Graph g;
  g.num_nodes_ = num_nodes;
  std::set<std::pair<int64_t, int64_t>> unique;
  for (auto [u, v] : edges) {
    // Out-of-range endpoints are a data problem (malformed edge file), not a
    // programming error — reject with a catchable runtime_error.
    if (u < 0 || u >= num_nodes || v < 0 || v >= num_nodes)
      throw std::runtime_error("graph: edge (" + std::to_string(u) + ", " +
                               std::to_string(v) +
                               ") has an endpoint outside [0, " +
                               std::to_string(num_nodes) + ")");
    if (u == v) continue;
    unique.emplace(std::min(u, v), std::max(u, v));
  }
  g.edges_.assign(unique.begin(), unique.end());

  std::vector<int64_t> deg(static_cast<size_t>(num_nodes), 0);
  for (auto [u, v] : g.edges_) {
    ++deg[static_cast<size_t>(u)];
    ++deg[static_cast<size_t>(v)];
  }
  g.adj_ptr_.assign(static_cast<size_t>(num_nodes) + 1, 0);
  for (int64_t i = 0; i < num_nodes; ++i)
    g.adj_ptr_[static_cast<size_t>(i) + 1] =
        g.adj_ptr_[static_cast<size_t>(i)] + deg[static_cast<size_t>(i)];
  g.adj_idx_.resize(static_cast<size_t>(g.adj_ptr_.back()));
  std::vector<int64_t> cursor(g.adj_ptr_.begin(), g.adj_ptr_.end() - 1);
  for (auto [u, v] : g.edges_) {
    g.adj_idx_[static_cast<size_t>(cursor[static_cast<size_t>(u)]++)] = v;
    g.adj_idx_[static_cast<size_t>(cursor[static_cast<size_t>(v)]++)] = u;
  }
  for (int64_t i = 0; i < num_nodes; ++i)
    std::sort(g.adj_idx_.begin() + g.adj_ptr_[static_cast<size_t>(i)],
              g.adj_idx_.begin() + g.adj_ptr_[static_cast<size_t>(i) + 1]);
  return g;
}

Graph Graph::FromUndirectedEdgesBulk(
    int64_t num_nodes, std::vector<std::pair<int64_t, int64_t>>&& edges) {
  size_t kept = 0;
  for (auto [u, v] : edges) {
    if (u < 0 || u >= num_nodes || v < 0 || v >= num_nodes)
      throw std::runtime_error("graph: edge (" + std::to_string(u) + ", " +
                               std::to_string(v) +
                               ") has an endpoint outside [0, " +
                               std::to_string(num_nodes) + ")");
    if (u == v) continue;
    edges[kept++] = {std::min(u, v), std::max(u, v)};
  }
  edges.resize(kept);
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  return FromSortedUniqueEdges(num_nodes, std::move(edges));
}

Graph Graph::FromSortedUniqueEdges(
    int64_t num_nodes, std::vector<std::pair<int64_t, int64_t>>&& edges) {
  Graph g;
  g.num_nodes_ = num_nodes;
  g.edges_ = std::move(edges);

  std::vector<int64_t> deg(static_cast<size_t>(num_nodes), 0);
  std::pair<int64_t, int64_t> prev{-1, -1};
  for (auto [u, v] : g.edges_) {
    SES_CHECK(u >= 0 && u < v && v < num_nodes &&
              "FromSortedUniqueEdges: endpoints must satisfy 0 <= u < v < n");
    SES_CHECK(std::make_pair(u, v) > prev &&
              "FromSortedUniqueEdges: edges must be sorted and unique");
    prev = {u, v};
    ++deg[static_cast<size_t>(u)];
    ++deg[static_cast<size_t>(v)];
  }
  g.adj_ptr_.assign(static_cast<size_t>(num_nodes) + 1, 0);
  for (int64_t i = 0; i < num_nodes; ++i)
    g.adj_ptr_[static_cast<size_t>(i) + 1] =
        g.adj_ptr_[static_cast<size_t>(i)] + deg[static_cast<size_t>(i)];
  g.adj_idx_.resize(static_cast<size_t>(g.adj_ptr_.back()));
  std::vector<int64_t> cursor(g.adj_ptr_.begin(), g.adj_ptr_.end() - 1);
  // One pass in lexicographic edge order leaves every neighbor row sorted
  // without a sort: row w receives its smaller neighbors q while edges
  // (q, w) stream by in ascending q, then its larger neighbors x while
  // (w, x) stream by in ascending x, and every (q, w) precedes every (w, x).
  for (auto [u, v] : g.edges_) {
    g.adj_idx_[static_cast<size_t>(cursor[static_cast<size_t>(u)]++)] = v;
    g.adj_idx_[static_cast<size_t>(cursor[static_cast<size_t>(v)]++)] = u;
  }
  return g;
}

std::span<const int64_t> Graph::Neighbors(int64_t v) const {
  SES_CHECK(v >= 0 && v < num_nodes_);
  return {adj_idx_.data() + adj_ptr_[static_cast<size_t>(v)],
          static_cast<size_t>(adj_ptr_[static_cast<size_t>(v) + 1] -
                              adj_ptr_[static_cast<size_t>(v)])};
}

int64_t Graph::Degree(int64_t v) const {
  return adj_ptr_[static_cast<size_t>(v) + 1] - adj_ptr_[static_cast<size_t>(v)];
}

bool Graph::HasEdge(int64_t u, int64_t v) const {
  auto nbrs = Neighbors(u);
  return std::binary_search(nbrs.begin(), nbrs.end(), v);
}

autograd::EdgeListPtr Graph::DirectedEdges(bool add_self_loops) const {
  auto el = std::make_shared<autograd::EdgeList>();
  el->num_nodes = num_nodes_;
  const int64_t m = num_edges();
  const int64_t directed = 2 * m + (add_self_loops ? num_nodes_ : 0);
  el->src.resize(static_cast<size_t>(directed));
  el->dst.resize(static_cast<size_t>(directed));
  int64_t* src = el->src.data();
  int64_t* dst = el->dst.data();
  // Both orientations of undirected edge i land at 2i and 2i + 1, then one
  // self-loop per node; every slot is a function of its index alone.
#pragma omp parallel for schedule(static) \
    if (kernels::ShouldParallelize(static_cast<double>(directed)))
  for (int64_t i = 0; i < m; ++i) {
    const auto [u, v] = edges_[static_cast<size_t>(i)];
    src[2 * i] = u;
    dst[2 * i] = v;
    src[2 * i + 1] = v;
    dst[2 * i + 1] = u;
  }
  if (add_self_loops) {
    for (int64_t i = 0; i < num_nodes_; ++i) {
      src[2 * m + i] = i;
      dst[2 * m + i] = i;
    }
  }
  return el;
}

std::vector<float> Graph::GcnNormWeights(const autograd::EdgeList& edges) {
  const int64_t e_count = edges.size();
  const int64_t* src = edges.src.data();
  const int64_t* dst = edges.dst.data();
  std::vector<int64_t> deg(static_cast<size_t>(edges.num_nodes), 0);
  for (int64_t e = 0; e < e_count; ++e) ++deg[static_cast<size_t>(dst[e])];
  std::vector<float> weights(static_cast<size_t>(e_count));
#pragma omp parallel for schedule(static) \
    if (kernels::ShouldParallelize(static_cast<double>(e_count)))
  for (int64_t e = 0; e < e_count; ++e) {
    const int64_t du = deg[static_cast<size_t>(src[e])];
    const int64_t dv = deg[static_cast<size_t>(dst[e])];
    weights[static_cast<size_t>(e)] =
        1.0f / std::sqrt(static_cast<float>(std::max<int64_t>(du, 1)) *
                         static_cast<float>(std::max<int64_t>(dv, 1)));
  }
  return weights;
}

float Graph::NeighborhoodJaccard(int64_t u, int64_t v) const {
  auto nu = Neighbors(u);
  auto nv = Neighbors(v);
  if (nu.empty() && nv.empty()) return 0.0f;
  size_t i = 0, j = 0, common = 0;
  while (i < nu.size() && j < nv.size()) {
    if (nu[i] == nv[j]) {
      ++common;
      ++i;
      ++j;
    } else if (nu[i] < nv[j]) {
      ++i;
    } else {
      ++j;
    }
  }
  const size_t uni = nu.size() + nv.size() - common;
  return uni == 0 ? 0.0f : static_cast<float>(common) / static_cast<float>(uni);
}

Graph Graph::WithExtraEdges(
    const std::vector<std::pair<int64_t, int64_t>>& extra) const {
  std::vector<std::pair<int64_t, int64_t>> all = edges_;
  all.insert(all.end(), extra.begin(), extra.end());
  return FromUndirectedEdges(num_nodes_, all);
}

Subgraph ExtractEgoNet(const Graph& g, int64_t center, int64_t hops) {
  Subgraph sub;
  std::vector<int64_t> dist(static_cast<size_t>(g.num_nodes()), -1);
  std::queue<int64_t> frontier;
  frontier.push(center);
  dist[static_cast<size_t>(center)] = 0;
  sub.nodes.push_back(center);
  while (!frontier.empty()) {
    const int64_t u = frontier.front();
    frontier.pop();
    if (dist[static_cast<size_t>(u)] >= hops) continue;
    for (int64_t v : g.Neighbors(u)) {
      if (dist[static_cast<size_t>(v)] < 0) {
        dist[static_cast<size_t>(v)] = dist[static_cast<size_t>(u)] + 1;
        sub.nodes.push_back(v);
        frontier.push(v);
      }
    }
  }
  std::sort(sub.nodes.begin(), sub.nodes.end());
  sub.local_of.assign(static_cast<size_t>(g.num_nodes()), -1);
  for (size_t i = 0; i < sub.nodes.size(); ++i)
    sub.local_of[static_cast<size_t>(sub.nodes[i])] = static_cast<int64_t>(i);
  sub.center_local = sub.local_of[static_cast<size_t>(center)];

  std::vector<std::pair<int64_t, int64_t>> local_edges;
  for (int64_t u : sub.nodes) {
    for (int64_t v : g.Neighbors(u)) {
      if (u < v && sub.local_of[static_cast<size_t>(v)] >= 0)
        local_edges.emplace_back(sub.local_of[static_cast<size_t>(u)],
                                 sub.local_of[static_cast<size_t>(v)]);
    }
  }
  sub.graph = Graph::FromUndirectedEdges(
      static_cast<int64_t>(sub.nodes.size()), local_edges);
  return sub;
}

}  // namespace ses::graph
