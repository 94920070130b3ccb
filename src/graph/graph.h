/**
 * @file
 * Immutable CSR (compressed sparse row) graph.
 *
 * This is the adjacency-list representation the CRONO paper describes
 * in Section IV-F: one structure for vertex connections (offsets +
 * neighbor ids) and another for edge weights, all cache-line aligned.
 * Graphs are immutable after construction; kernels never mutate the
 * topology, which lets many threads traverse it without coherence
 * traffic on the structure itself.
 */

#ifndef CRONO_GRAPH_GRAPH_H_
#define CRONO_GRAPH_GRAPH_H_

#include <cstdint>
#include <span>

#include "common/aligned.h"
#include "common/macros.h"

namespace crono::graph {

/** Vertex identifier. Dense, in [0, numVertices). */
using VertexId = std::uint32_t;

/** Edge index into the CSR arrays. */
using EdgeId = std::uint64_t;

/** Non-negative edge weight (Dijkstra requires non-negativity). */
using Weight = std::uint32_t;

/** Path-cost type, wide enough to never overflow a summed path. */
using Dist = std::uint64_t;

/** Sentinel "unreachable" distance. */
inline constexpr Dist kInfDist = ~Dist{0};

/** Sentinel "no vertex". */
inline constexpr VertexId kNoVertex = ~VertexId{0};

/**
 * Immutable weighted graph in CSR form.
 *
 * For undirected graphs every edge appears in both endpoints'
 * adjacency ranges (the builder takes care of mirroring), so kernels
 * can treat every graph as directed adjacency.
 */
class Graph {
  public:
    /**
     * Construct from raw CSR arrays.
     *
     * @param offsets   numVertices + 1 monotone offsets into neighbors
     * @param neighbors target vertex of each edge slot
     * @param weights   weight of each edge slot (same length)
     * @param undirected true if the arrays already contain both
     *                   directions of every logical edge
     */
    Graph(AlignedVector<EdgeId> offsets, AlignedVector<VertexId> neighbors,
          AlignedVector<Weight> weights, bool undirected);

    /** Number of vertices. */
    VertexId numVertices() const { return numVertices_; }

    /** Number of directed edge slots (2x logical edges if undirected). */
    EdgeId numEdges() const { return static_cast<EdgeId>(neighbors_.size()); }

    /** Whether both directions of every edge are present. */
    bool undirected() const { return undirected_; }

    /** Out-degree of @p v. */
    EdgeId
    degree(VertexId v) const
    {
        return offsets_[v + 1] - offsets_[v];
    }

    /** Neighbor ids of @p v. */
    std::span<const VertexId>
    neighbors(VertexId v) const
    {
        return {neighbors_.data() + offsets_[v],
                static_cast<std::size_t>(degree(v))};
    }

    /** Edge weights of @p v, parallel to neighbors(v). */
    std::span<const Weight>
    weights(VertexId v) const
    {
        return {weights_.data() + offsets_[v],
                static_cast<std::size_t>(degree(v))};
    }

    /** First edge slot of @p v (for indexed edge access in kernels). */
    EdgeId firstEdge(VertexId v) const { return offsets_[v]; }

    /** Target vertex of edge slot @p e. */
    VertexId edgeTarget(EdgeId e) const { return neighbors_[e]; }

    /** Weight of edge slot @p e. */
    Weight edgeWeight(EdgeId e) const { return weights_[e]; }

    /** True if an edge v -> u exists (linear scan of v's list). */
    bool hasEdge(VertexId v, VertexId u) const;

    /** Largest out-degree over all vertices (0 for an empty graph). */
    EdgeId maxDegree() const;

    /** Raw arrays, exposed for the simulator's address instrumentation. */
    const AlignedVector<EdgeId>& rawOffsets() const { return offsets_; }
    const AlignedVector<VertexId>& rawNeighbors() const { return neighbors_; }
    const AlignedVector<Weight>& rawWeights() const { return weights_; }

  private:
    AlignedVector<EdgeId> offsets_;
    AlignedVector<VertexId> neighbors_;
    AlignedVector<Weight> weights_;
    VertexId numVertices_;
    bool undirected_;
};

} // namespace crono::graph

#endif // CRONO_GRAPH_GRAPH_H_
