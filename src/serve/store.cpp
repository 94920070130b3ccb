/**
 * @file
 * GraphStore: epoch publication, ingest validation/mirroring/merge,
 * and the compaction that re-runs the graph reordering machinery.
 */

#include "serve/store.h"

#include <algorithm>
#include <tuple>
#include <utility>
#include <vector>

#include "common/macros.h"

namespace crono::serve {

GraphStore::GraphStore(graph::Graph external, StoreConfig config)
    : config_(config)
{
    CRONO_REQUIRE(config_.num_shards >= 1,
                  "store needs at least one shard");
    numVertices_ = external.numVertices();
    undirected_ = external.undirected();
    graph::ReorderedGraph rg =
        graph::reorderGraph(external, config_.reordering);
    graph_ = std::make_shared<const graph::Graph>(std::move(rg.graph));
    perm_ = std::make_shared<const graph::VertexPermutation>(
        std::move(rg.perm));
    publish(std::make_shared<const Snapshot>(1, graph_, perm_));
}

std::shared_ptr<const Snapshot>
GraphStore::snapshot() const
{
    std::lock_guard<std::mutex> lock(snapMutex_);
    return current_;
}

void
GraphStore::publish(std::shared_ptr<const Snapshot> snap)
{
    std::lock_guard<std::mutex> lock(snapMutex_);
    current_ = std::move(snap);
}

Status
GraphStore::ingestBatch(std::span<const graph::Edge> edges,
                        std::uint64_t* epoch_out)
{
    std::lock_guard<std::mutex> lock(writeMutex_);

    // Validate the whole batch in external space before touching
    // anything: an ingest is atomic — all of it lands or none does.
    std::uint64_t accepted = 0;
    for (const graph::Edge& e : edges) {
        if (e.src >= numVertices_ || e.dst >= numVertices_) {
            return Status::kBadVertex;
        }
        if (e.src != e.dst) {
            ++accepted;
        }
    }
    if (accepted == 0) {
        return Status::kRejected;
    }

    const std::shared_ptr<const Snapshot> cur = snapshot();

    // Map into the current internal id space, mirroring as the graph
    // does, and sort the slots into the order mergeBatch expects.
    std::vector<graph::Edge> internal;
    internal.reserve(static_cast<std::size_t>(accepted) *
                     (undirected_ ? 2 : 1));
    for (const graph::Edge& e : edges) {
        if (e.src == e.dst) {
            continue;
        }
        const graph::VertexId s = cur->toInternal(e.src);
        const graph::VertexId d = cur->toInternal(e.dst);
        internal.push_back({s, d, e.weight});
        if (undirected_) {
            internal.push_back({d, s, e.weight});
        }
    }
    std::sort(internal.begin(), internal.end(),
              [](const graph::Edge& a, const graph::Edge& b) {
                  return std::tie(a.src, a.dst, a.weight) <
                         std::tie(b.src, b.dst, b.weight);
              });

    graph_ = std::make_shared<const graph::Graph>(
        mergeBatch(*graph_, internal));
    const std::uint64_t epoch = cur->epoch() + 1;
    const std::uint64_t delta_edges = cur->deltaEdges() + internal.size();
    const std::uint32_t delta_depth = cur->deltaDepth() + 1;
    publish(std::make_shared<const Snapshot>(epoch, graph_, perm_,
                                             delta_edges, delta_depth));
    batches_.fetch_add(1, std::memory_order_relaxed);
    edges_.fetch_add(accepted, std::memory_order_relaxed);
    if (epoch_out != nullptr) {
        *epoch_out = epoch;
    }

    if (delta_edges >= config_.compact_delta_edges ||
        delta_depth >= config_.compact_batches) {
        compactLocked();
    }
    return Status::kOk;
}

std::uint64_t
GraphStore::compact()
{
    std::lock_guard<std::mutex> lock(writeMutex_);
    return compactLocked();
}

std::uint64_t
GraphStore::compactLocked()
{
    const std::shared_ptr<const Snapshot> cur = snapshot();
    if (cur->deltaDepth() > 0) {
        // Relabeling moves vertex ids, never edges: the multiset is
        // unchanged, and external -> old internal -> new internal is
        // the composed permutation.
        graph::ReorderedGraph rg =
            graph::reorderGraph(*graph_, config_.reordering);
        graph_ = std::make_shared<const graph::Graph>(std::move(rg.graph));
        perm_ = std::make_shared<const graph::VertexPermutation>(
            perm_->composedWith(rg.perm));
    }
    const std::uint64_t epoch = cur->epoch() + 1;
    publish(std::make_shared<const Snapshot>(epoch, graph_, perm_));
    compactions_.fetch_add(1, std::memory_order_relaxed);
    return epoch;
}

StoreStats
GraphStore::stats() const
{
    StoreStats s;
    s.epoch = snapshot()->epoch();
    s.batches_ingested = batches_.load(std::memory_order_relaxed);
    s.edges_ingested = edges_.load(std::memory_order_relaxed);
    s.compactions = compactions_.load(std::memory_order_relaxed);
    return s;
}

} // namespace crono::serve
