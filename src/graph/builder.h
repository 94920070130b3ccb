/**
 * @file
 * Edge-list accumulator that produces CSR graphs.
 *
 * The builder collects (src, dst, weight) triples, optionally mirrors
 * them for undirected graphs, removes self-loops and duplicate edges
 * according to policy, and emits an immutable Graph.
 */

#ifndef CRONO_GRAPH_BUILDER_H_
#define CRONO_GRAPH_BUILDER_H_

#include <vector>

#include "graph/graph.h"
#include "graph/reorder.h"

namespace crono::graph {

/** One input edge for GraphBuilder. */
struct Edge {
    VertexId src;
    VertexId dst;
    Weight weight;

    friend bool operator==(const Edge&, const Edge&) = default;
};

/**
 * Accumulates edges and finalizes them into a CSR Graph.
 *
 * Typical use:
 * @code
 *   GraphBuilder b(n, true);
 *   b.addEdge(0, 1, 5);
 *   Graph g = std::move(b).build();
 * @endcode
 */
class GraphBuilder {
  public:
    /** Duplicate-edge handling for build(). */
    enum class DedupPolicy {
        keepAll,   ///< keep parallel edges as given
        keepMin,   ///< collapse parallel edges, keeping the min weight
    };

    /**
     * @param num_vertices vertex-id domain [0, num_vertices)
     * @param undirected   mirror every added edge
     */
    explicit GraphBuilder(VertexId num_vertices, bool undirected = true);

    /** Add one edge; ignores self-loops. Ids must be in range. */
    void addEdge(VertexId src, VertexId dst, Weight weight = 1);

    /** Number of edges accepted so far (pre-mirroring). */
    std::size_t pendingEdges() const { return edges_.size(); }

    /**
     * Relabel the finished graph under @p r (see reorder.h). build()
     * discards the permutation — fine for synthetic inputs whose ids
     * carry no meaning; use buildReordered() to keep it.
     */
    GraphBuilder&
    withReordering(Reordering r)
    {
        reordering_ = r;
        return *this;
    }

    /** Finalize into a CSR graph, consuming the builder. */
    Graph build(DedupPolicy policy = DedupPolicy::keepMin) &&;

    /**
     * Finalize like build(), but return the relabeled graph together
     * with the permutation that made it (identity for kNone), so the
     * caller can keep mapping ids and per-vertex results round-trip.
     */
    ReorderedGraph
    buildReordered(DedupPolicy policy = DedupPolicy::keepMin) &&;

  private:
    /** The CSR finalization itself, ignoring the reordering options. */
    Graph buildPlain(DedupPolicy policy) &&;

    std::vector<Edge> edges_;
    VertexId numVertices_;
    bool undirected_;
    Reordering reordering_ = Reordering::kNone;
};

} // namespace crono::graph

#endif // CRONO_GRAPH_BUILDER_H_
