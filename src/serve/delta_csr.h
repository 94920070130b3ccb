/**
 * @file
 * Epoch snapshots and the ingest merge (DESIGN.md §17.2).
 *
 * Every epoch is one ordinary CSR: the graph::Graph everything else
 * in the tree computes on, in the epoch's internal (post-reordering)
 * id space. Ingest never touches a published graph. It builds the
 * next epoch's CSR as a linear merge of the previous epoch's rows
 * with the sorted internal batch (mergeBatch below) and publishes a
 * new Snapshot over it.
 *
 * A Snapshot is therefore a persistent (in the functional-programming
 * sense) graph version: queries that pinned epoch E keep a shared_ptr
 * and see exactly E's edge multiset forever, while ingest publishes
 * E+1, E+2, ... beside it. Compaction (store.h) re-runs the
 * reordering on the current graph and publishes a snapshot under the
 * composed permutation; pinned older epochs stay valid because
 * nothing is mutated, only superseded.
 */

#ifndef CRONO_SERVE_DELTA_CSR_H_
#define CRONO_SERVE_DELTA_CSR_H_

#include <cstdint>
#include <memory>
#include <span>

#include "graph/builder.h"
#include "graph/graph.h"
#include "graph/reorder.h"

namespace crono::serve {

/**
 * The CSR of @p prev plus the directed edge slots of @p batch, which
 * must be sorted by (src, dst, weight). Rows no batch edge touches
 * are bulk-copied; touched rows are merged. Every row stays sorted by
 * (neighbor, weight) and parallel edges are kept, so the result equals
 * a GraphBuilder keepAll build of the combined multiset.
 */
graph::Graph mergeBatch(const graph::Graph& prev,
                        std::span<const graph::Edge> batch);

/**
 * One immutable graph version. See the file header; all vertex ids in
 * this interface are *internal* (post-reordering) — the permutation
 * maps them to the external ids clients speak.
 */
class Snapshot {
  public:
    /**
     * @param delta_edges directed slots ingested since the last
     *                    compaction
     * @param delta_depth batches ingested since the last compaction
     */
    Snapshot(std::uint64_t epoch, std::shared_ptr<const graph::Graph> graph,
             std::shared_ptr<const graph::VertexPermutation> perm,
             std::uint64_t delta_edges = 0, std::uint32_t delta_depth = 0);

    std::uint64_t epoch() const { return epoch_; }

    graph::VertexId numVertices() const { return graph_->numVertices(); }

    /** Directed edge slots of this version. */
    std::uint64_t numEdges() const { return graph_->numEdges(); }

    /** Directed edge slots ingested since the last compaction. */
    std::uint64_t deltaEdges() const { return deltaEdges_; }

    /** Batches ingested since the last compaction. */
    std::uint32_t deltaDepth() const { return deltaDepth_; }

    /** External-id <-> internal-id mapping of this version. */
    const graph::VertexPermutation& perm() const { return *perm_; }

    graph::VertexId
    toInternal(graph::VertexId external) const
    {
        return perm_->toNew(external);
    }

    graph::VertexId
    toExternal(graph::VertexId internal) const
    {
        return perm_->toOld(internal);
    }

    /** The CSR of this version, built when the epoch was published. */
    const graph::Graph& materialized() const { return *graph_; }

  private:
    std::uint64_t epoch_;
    std::shared_ptr<const graph::Graph> graph_;
    std::shared_ptr<const graph::VertexPermutation> perm_;
    std::uint64_t deltaEdges_;
    std::uint32_t deltaDepth_;
};

} // namespace crono::serve

#endif // CRONO_SERVE_DELTA_CSR_H_
