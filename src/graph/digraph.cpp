#include "graph/digraph.h"

#include <cassert>
#include <limits>
#include <queue>

namespace cipnet {

int Digraph::add_node() {
  out_.emplace_back();
  in_.emplace_back();
  return node_count() - 1;
}

int Digraph::add_edge(int from, int to, std::int64_t weight) {
  assert(from >= 0 && from < node_count());
  assert(to >= 0 && to < node_count());
  int e = edge_count();
  edges_.push_back(Edge{from, to, weight});
  out_[from].push_back(e);
  in_[to].push_back(e);
  return e;
}

SccResult strongly_connected_components(const Digraph& g) {
  return strongly_connected_components(
      g.node_count(),
      [&](int v) { return g.out_edges(v).size(); },
      [&](int v, std::size_t i) { return g.edge(g.out_edges(v)[i]).to; });
}

bool is_strongly_connected(const Digraph& g) {
  if (g.node_count() == 0) return false;
  return strongly_connected_components(g).component_count == 1;
}

bool has_cycle(const Digraph& g) {
  return !topological_order(g).has_value();
}

std::optional<std::vector<int>> topological_order(const Digraph& g) {
  std::vector<int> indegree(g.node_count(), 0);
  for (int v = 0; v < g.node_count(); ++v) {
    for (int e : g.out_edges(v)) indegree[g.edge(e).to]++;
  }
  std::vector<int> order;
  order.reserve(g.node_count());
  std::vector<int> ready;
  for (int v = 0; v < g.node_count(); ++v) {
    if (indegree[v] == 0) ready.push_back(v);
  }
  while (!ready.empty()) {
    int v = ready.back();
    ready.pop_back();
    order.push_back(v);
    for (int e : g.out_edges(v)) {
      int w = g.edge(e).to;
      if (--indegree[w] == 0) ready.push_back(w);
    }
  }
  if (static_cast<int>(order.size()) != g.node_count()) return std::nullopt;
  return order;
}

bool has_negative_cycle(const Digraph& g) {
  // Bellman-Ford from a virtual super-source (distance 0 everywhere).
  const int n = g.node_count();
  std::vector<std::int64_t> dist(n, 0);
  for (int round = 0; round < n; ++round) {
    bool relaxed = false;
    for (int e = 0; e < g.edge_count(); ++e) {
      const auto& edge = g.edge(e);
      if (dist[edge.from] + edge.weight < dist[edge.to]) {
        dist[edge.to] = dist[edge.from] + edge.weight;
        relaxed = true;
      }
    }
    if (!relaxed) return false;
  }
  return true;  // still relaxing after n rounds
}

std::vector<std::int64_t> shortest_paths_from(const Digraph& g, int source) {
  constexpr std::int64_t kInf = std::numeric_limits<std::int64_t>::max();
  std::vector<std::int64_t> dist(g.node_count(), kInf);
  using Item = std::pair<std::int64_t, int>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> heap;
  dist[source] = 0;
  heap.push({0, source});
  while (!heap.empty()) {
    auto [d, v] = heap.top();
    heap.pop();
    if (d != dist[v]) continue;
    for (int e : g.out_edges(v)) {
      const auto& edge = g.edge(e);
      std::int64_t nd = d + edge.weight;
      if (nd < dist[edge.to]) {
        dist[edge.to] = nd;
        heap.push({nd, edge.to});
      }
    }
  }
  for (auto& d : dist) {
    if (d == kInf) d = -1;
  }
  return dist;
}

std::optional<std::int64_t> min_cycle_weight_through_edge(const Digraph& g,
                                                          int e) {
  const auto& edge = g.edge(e);
  auto dist = shortest_paths_from(g, edge.to);
  if (dist[edge.from] < 0) return std::nullopt;
  return edge.weight + dist[edge.from];
}

std::optional<std::int64_t> min_cycle_weight(const Digraph& g) {
  std::optional<std::int64_t> best;
  for (int e = 0; e < g.edge_count(); ++e) {
    auto w = min_cycle_weight_through_edge(g, e);
    if (w && (!best || *w < *best)) best = w;
  }
  return best;
}

}  // namespace cipnet
