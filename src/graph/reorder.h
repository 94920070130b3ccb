/**
 * @file
 * Cache-aware vertex reordering.
 *
 * CRONO's kernels are dominated by cache-hostile irregular access to
 * per-vertex arrays (paper §IV: L1/L2 miss rates, locality-sensitive
 * NoC behaviour); which vertex *ids* neighbors carry decides which
 * cache lines a traversal touches. This module relabels a graph under
 * one of several standard orderings and hands back a
 * VertexPermutation so callers can keep reasoning in original ids:
 *
 *  - kDegreeSort: descending-degree relabeling. Hot (high-degree)
 *    vertices share the first cache lines of every per-vertex array.
 *  - kHubCluster: hubs (degree > average) packed first in descending
 *    degree order, everyone else keeping their relative order — the
 *    degree-sort locality win without destroying whatever locality
 *    the original ordering had among cold vertices.
 *  - kBfs: BFS visit order from the highest-degree vertex. Neighbors
 *    get nearby ids, so frontier expansion walks nearby lines.
 *  - kRcm: reverse Cuthill-McKee — BFS from a low-degree peripheral
 *    vertex with degree-sorted tie-breaking, reversed; the classic
 *    bandwidth-reducing ordering for road/mesh-like graphs.
 *
 * Every ordering is deterministic (ties broken by original id), so a
 * reordered run is exactly reproducible.
 */

#ifndef CRONO_GRAPH_REORDER_H_
#define CRONO_GRAPH_REORDER_H_

#include <span>

#include "graph/adjacency_matrix.h"
#include "graph/graph.h"

namespace crono::graph {

/** Vertex relabeling strategy. */
enum class Reordering : int {
    kNone = 0,    ///< identity (the generator's ordering)
    kDegreeSort,  ///< descending degree
    kHubCluster,  ///< hubs first, cold vertices keep relative order
    kBfs,         ///< BFS visit order from the max-degree vertex
    kRcm,         ///< reverse Cuthill-McKee (bandwidth reduction)
};

/** Number of orderings (for sweeps). */
inline constexpr int kNumReorderings = 5;

/** Printable name, e.g. "degree". */
const char* reorderingName(Reordering r);

/** All orderings, kNone first (for sweeps). */
std::span<const Reordering> allReorderings();

/**
 * Bijection between an original ("old") and a relabeled ("new")
 * vertex-id space, with the round-trip helpers the kernels' callers
 * need: map the source vertex in, map per-vertex results back out.
 */
class VertexPermutation {
  public:
    VertexPermutation() = default;

    /** Build from the new-id-indexed old-id array (validated). */
    explicit VertexPermutation(AlignedVector<VertexId> new_to_old);

    /** The identity permutation over @p n vertices. */
    static VertexPermutation identity(VertexId n);

    VertexId size() const
    {
        return static_cast<VertexId>(newToOld_.size());
    }

    /** New id of original vertex @p v. */
    VertexId toNew(VertexId v) const { return oldToNew_[v]; }

    /** Original id of relabeled vertex @p v. */
    VertexId toOld(VertexId v) const { return newToOld_[v]; }

    /** True if this permutation maps every id to itself. */
    bool isIdentity() const;

    /** The permutation undoing this one. */
    VertexPermutation inverse() const;

    /**
     * The permutation equivalent to applying this one, then @p then
     * (both old->new compositions chain left to right).
     */
    VertexPermutation composedWith(const VertexPermutation& then) const;

    /**
     * Reindex per-vertex values produced in the relabeled space
     * (distances, levels, ranks, per-vertex counts) back to original
     * ids: out[old] = by_new[toNew(old)].
     */
    template <class T>
    AlignedVector<T>
    valuesToOld(std::span<const T> by_new) const
    {
        AlignedVector<T> out(by_new.size());
        for (std::size_t v = 0; v < by_new.size(); ++v) {
            out[newToOld_[v]] = by_new[v];
        }
        return out;
    }

    /** Reindex per-vertex values into the relabeled space. */
    template <class T>
    AlignedVector<T>
    valuesToNew(std::span<const T> by_old) const
    {
        AlignedVector<T> out(by_old.size());
        for (std::size_t v = 0; v < by_old.size(); ++v) {
            out[oldToNew_[v]] = by_old[v];
        }
        return out;
    }

    /**
     * Remap a vertex-valued per-vertex array (parent trees, component
     * labels) fully back to original ids: both the index and the
     * stored vertex id are mapped, and @p sentinel values (kNoVertex)
     * pass through untouched.
     */
    AlignedVector<VertexId>
    vertexValuesToOld(std::span<const VertexId> by_new,
                      VertexId sentinel = kNoVertex) const;

    const AlignedVector<VertexId>& oldToNew() const { return oldToNew_; }
    const AlignedVector<VertexId>& newToOld() const { return newToOld_; }

  private:
    AlignedVector<VertexId> oldToNew_;
    AlignedVector<VertexId> newToOld_;
};

/**
 * Compute the @p r ordering of @p g without materializing the
 * relabeled graph. Deterministic; kNone yields the identity.
 */
VertexPermutation computeOrdering(const Graph& g, Reordering r);

/**
 * Materialize the relabeled graph: vertex v of the result is original
 * vertex perm.toOld(v), with neighbor ids mapped and each adjacency
 * row re-sorted ascending (the builder's invariant, which triangle
 * counting's binary searches rely on).
 */
Graph permuteGraph(const Graph& g, const VertexPermutation& perm);

/** Relabel a dense matrix: out(a', b') = m(toOld(a'), toOld(b')). */
AdjacencyMatrix permuteMatrix(const AdjacencyMatrix& m,
                              const VertexPermutation& perm);

/** A relabeled graph together with the permutation that made it. */
struct ReorderedGraph {
    Graph graph;
    VertexPermutation perm;
};

/**
 * One-call reordering front end: compute the @p r ordering and
 * relabel. Records the elapsed time on the host telemetry track
 * (Counter::kReorderMs) when a sink is installed.
 *
 * The trailing bool is ignored. It once attached a cache-blocked pull
 * layout; perfbench's prepare() is its only remaining caller, and
 * ROADMAP's "Next benchmark PR" item drops it there and here.
 */
ReorderedGraph reorderGraph(const Graph& g, Reordering r, bool = false);

/**
 * Adjacency bandwidth max_{(u,v) in E} |u - v| — the quantity RCM
 * exists to shrink; 0 for an edgeless graph.
 */
std::uint64_t adjacencyBandwidth(const Graph& g);

} // namespace crono::graph

#endif // CRONO_GRAPH_REORDER_H_
