#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

namespace cipnet {

/// A small weighted directed multigraph used by the structural analyses
/// (SCC / liveness / safeness of marked graphs, cycle checks). Nodes are dense
/// indices `0..node_count-1`; edges carry a non-negative integer weight (token
/// counts when modelling marked graphs).
class Digraph {
 public:
  struct Edge {
    int from = 0;
    int to = 0;
    std::int64_t weight = 0;
  };

  Digraph() = default;
  explicit Digraph(int node_count) : out_(node_count), in_(node_count) {}

  // Edge weights may be negative (difference-constraint graphs); the
  // Dijkstra-based queries below require non-negative weights and check it.

  [[nodiscard]] int node_count() const { return static_cast<int>(out_.size()); }
  [[nodiscard]] int edge_count() const { return static_cast<int>(edges_.size()); }

  int add_node();
  /// Returns the edge index.
  int add_edge(int from, int to, std::int64_t weight = 0);

  [[nodiscard]] const Edge& edge(int e) const { return edges_[e]; }
  [[nodiscard]] const std::vector<int>& out_edges(int node) const {
    return out_[node];
  }
  [[nodiscard]] const std::vector<int>& in_edges(int node) const {
    return in_[node];
  }

 private:
  std::vector<Edge> edges_;
  std::vector<std::vector<int>> out_;  // node -> edge indices
  std::vector<std::vector<int>> in_;   // node -> edge indices
};

/// Result of Tarjan's algorithm: `component[v]` is the SCC index of node `v`;
/// components are numbered in reverse topological order (an edge between
/// distinct SCCs goes from a higher to a lower component index).
struct SccResult {
  std::vector<int> component;
  int component_count = 0;
};

[[nodiscard]] SccResult strongly_connected_components(const Digraph& g);

/// Tarjan's algorithm over any adjacency, so a caller with its own edge
/// storage (the reachability graph) need not copy it into a `Digraph`.
/// `out_degree(v)` is the number of out-edges of node `v` and
/// `successor(v, i)` the head of its i-th one. Iterative, so long chains
/// cannot overflow the call stack; the scratch is three ints per node plus
/// the DFS stacks.
template <class OutDegree, class Successor>
[[nodiscard]] SccResult strongly_connected_components(int node_count,
                                                      OutDegree out_degree,
                                                      Successor successor) {
  // index[v] < 0: unvisited. A visited node is on the Tarjan stack until
  // its component is assigned.
  SccResult result{std::vector<int>(node_count, -1), 0};
  std::vector<int>& component = result.component;
  std::vector<int> index(node_count, -1), lowlink(node_count, 0);
  std::vector<int> stack;
  struct Frame {
    int node;
    std::uint32_t edge_pos;
  };
  std::vector<Frame> frames;
  int next_index = 0;
  for (int root = 0; root < node_count; ++root) {
    if (index[root] >= 0) continue;
    frames.push_back({root, 0});
    index[root] = lowlink[root] = next_index++;
    stack.push_back(root);
    while (!frames.empty()) {
      Frame& f = frames.back();
      const int v = f.node;
      if (f.edge_pos < static_cast<std::size_t>(out_degree(v))) {
        const int w = successor(v, f.edge_pos++);
        if (index[w] < 0) {
          index[w] = lowlink[w] = next_index++;
          stack.push_back(w);
          frames.push_back({w, 0});
        } else if (component[w] < 0) {
          lowlink[v] = std::min(lowlink[v], index[w]);
        }
        continue;
      }
      if (lowlink[v] == index[v]) {
        int w = -1;
        while (w != v) {
          w = stack.back();
          stack.pop_back();
          component[w] = result.component_count;
        }
        ++result.component_count;
      }
      frames.pop_back();
      if (!frames.empty()) {
        const int parent = frames.back().node;
        lowlink[parent] = std::min(lowlink[parent], lowlink[v]);
      }
    }
  }
  return result;
}

/// True iff the graph has one SCC containing every node (and at least one
/// node).
[[nodiscard]] bool is_strongly_connected(const Digraph& g);

/// True iff the graph contains a directed cycle (self-loops count).
[[nodiscard]] bool has_cycle(const Digraph& g);

/// Topological order of nodes; empty optional if the graph is cyclic.
[[nodiscard]] std::optional<std::vector<int>> topological_order(
    const Digraph& g);

/// Minimum total weight of a directed cycle passing through edge `e`, i.e.
/// weight(e) + shortest path from e.to back to e.from (Dijkstra; all weights
/// must be >= 0). Empty optional if no such cycle exists.
[[nodiscard]] std::optional<std::int64_t> min_cycle_weight_through_edge(
    const Digraph& g, int e);

/// Minimum total weight of any directed cycle; empty optional if acyclic.
[[nodiscard]] std::optional<std::int64_t> min_cycle_weight(const Digraph& g);

/// Shortest (by weight) path distances from `source` to all nodes; -1 where
/// unreachable. Weights must be >= 0.
[[nodiscard]] std::vector<std::int64_t> shortest_paths_from(const Digraph& g,
                                                            int source);

/// Bellman-Ford negative-cycle detection (weights may be negative). Used to
/// decide feasibility of difference-constraint systems: the system
/// `x_v - x_u <= w(u, v)` is feasible iff the constraint graph has no
/// negative cycle.
[[nodiscard]] bool has_negative_cycle(const Digraph& g);

}  // namespace cipnet
