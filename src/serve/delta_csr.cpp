/**
 * @file
 * The ingest merge and Snapshot construction. The merge preserves
 * the edge multiset exactly (parallel edges and all) and keeps each
 * adjacency row sorted by (neighbor, weight), matching the builder's
 * invariant so any kernel can consume the result.
 */

#include "serve/delta_csr.h"

#include <algorithm>
#include <tuple>

#include "common/macros.h"

namespace crono::serve {

graph::Graph
mergeBatch(const graph::Graph& prev, std::span<const graph::Edge> batch)
{
    const graph::VertexId n = prev.numVertices();
    const std::span<const graph::EdgeId> off(prev.rawOffsets());
    const std::span<const graph::VertexId> nbr(prev.rawNeighbors());
    const std::span<const graph::Weight> wt(prev.rawWeights());

    AlignedVector<graph::EdgeId> offsets(off.size());
    AlignedVector<graph::VertexId> neighbors(nbr.size() + batch.size());
    AlignedVector<graph::Weight> weights(neighbors.size());

    std::size_t next = 0;   // first batch edge not yet placed
    graph::EdgeId from = 0; // first slot of prev not yet placed
    graph::EdgeId to = 0;   // first output slot not yet written
    graph::VertexId v = 0;  // first vertex whose offset is unset
    // Copy prev's slots [from, end) verbatim. subspan bounds-checks
    // under _GLIBCXX_ASSERTIONS, so an off-by-one here traps.
    const auto copyRun = [&](graph::EdgeId end) {
        std::ranges::copy(nbr.subspan(from, end - from),
                          std::span(neighbors).subspan(to).begin());
        std::ranges::copy(wt.subspan(from, end - from),
                          std::span(weights).subspan(to).begin());
        to += end - from;
        from = end;
    };
    while (next < batch.size()) {
        const graph::VertexId src = batch[next].src;
        CRONO_ASSERT(src < n && src >= v, "merge batch not sorted by src");
        for (; v <= src; ++v) {
            offsets[v] = off[v] + next;
        }
        copyRun(off[src]);
        const graph::EdgeId row_end = off[src + 1];
        std::size_t group_end = next;
        while (group_end < batch.size() && batch[group_end].src == src) {
            ++group_end;
        }
        while (from < row_end || next < group_end) {
            const bool take_batch =
                next < group_end &&
                (from == row_end ||
                 std::tie(batch[next].dst, batch[next].weight) <
                     std::tie(nbr[from], wt[from]));
            if (take_batch) {
                neighbors[to] = batch[next].dst;
                weights[to] = batch[next].weight;
                ++next;
            } else {
                neighbors[to] = nbr[from];
                weights[to] = wt[from];
                ++from;
            }
            ++to;
        }
    }
    for (; v <= n; ++v) {
        offsets[v] = off[v] + batch.size();
    }
    copyRun(nbr.size());
    CRONO_ASSERT(to == neighbors.size(), "merge fill mismatch");
    return graph::Graph(std::move(offsets), std::move(neighbors),
                        std::move(weights), prev.undirected());
}

Snapshot::Snapshot(std::uint64_t epoch,
                   std::shared_ptr<const graph::Graph> graph,
                   std::shared_ptr<const graph::VertexPermutation> perm,
                   std::uint64_t delta_edges, std::uint32_t delta_depth)
    : epoch_(epoch), graph_(std::move(graph)), perm_(std::move(perm)),
      deltaEdges_(delta_edges), deltaDepth_(delta_depth)
{
    CRONO_REQUIRE(graph_ != nullptr && perm_ != nullptr,
                  "snapshot needs a graph and a permutation");
    CRONO_REQUIRE(perm_->size() == graph_->numVertices(),
                  "permutation does not cover the graph");
}

} // namespace crono::serve
