/**
 * @file
 * GraphStore: the single-writer, many-reader owner of one served
 * graph (DESIGN.md §17.2).
 *
 * Concurrency model:
 *  - Readers call snapshot() and get a shared_ptr<const Snapshot>;
 *    everything reachable from it is immutable, so a reader holds its
 *    epoch for as long as it likes with no further coordination.
 *  - Writers (the server's ingest thread, or a test calling
 *    ingestBatch directly) serialize on an internal mutex. An ingest
 *    validates the batch in the external id space, maps it through
 *    the current epoch's permutation, mirrors it if the graph is
 *    undirected, sorts it, merges it into a copy of the current CSR
 *    (mergeBatch) and publishes epoch+1 over the merged graph.
 *  - Compaction runs on the same writer mutex: it re-runs the
 *    configured Reordering on the current graph (graph/reorder.h,
 *    applied to the grown graph) and publishes
 *    it under the current permutation composed with the new one.
 *    Relabeling moves vertex ids, never edges, so the edge multiset
 *    is preserved exactly and compaction is semantically invisible:
 *    epoch E+1 answers every query identically to E. With nothing
 *    ingested since the last compaction it only publishes a fence
 *    epoch over the same graph and permutation.
 *
 * Sharding: internal vertex ids are split into num_shards contiguous
 * ranges. Because the graph is reordered, the ranges are meaningful —
 * under degree/hub orderings shard 0 holds the hot vertices — and the
 * server batches queries per shard so consecutive kernel runs touch
 * neighboring footprints.
 */

#ifndef CRONO_SERVE_STORE_H_
#define CRONO_SERVE_STORE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>

#include "graph/builder.h"
#include "graph/graph.h"
#include "graph/reorder.h"
#include "serve/delta_csr.h"
#include "serve/protocol.h"

namespace crono::serve {

/** Store construction and compaction policy. */
struct StoreConfig {
    /** Contiguous internal-id shards (>= 1). */
    int num_shards = 1;
    /** Ordering applied at build and re-applied on every compaction. */
    graph::Reordering reordering = graph::Reordering::kNone;
    /** Compact once this many directed slots arrived since the last. */
    std::uint64_t compact_delta_edges = 1u << 16;
    /** ... or this many batches, whichever comes first. */
    std::uint32_t compact_batches = 16;
};

/** Monotonic store counters (relaxed snapshots, test/report fodder). */
struct StoreStats {
    std::uint64_t epoch = 0;
    std::uint64_t batches_ingested = 0;
    std::uint64_t edges_ingested = 0; ///< accepted logical input edges
    std::uint64_t compactions = 0;
};

class GraphStore {
  public:
    /**
     * Build the first epoch from an external-space graph. The
     * external ids of @p external are the ids clients use forever,
     * across every reordering and compaction.
     */
    GraphStore(graph::Graph external, StoreConfig config);

    GraphStore(const GraphStore&) = delete;
    GraphStore& operator=(const GraphStore&) = delete;

    /** The current epoch's snapshot (immutable; pin as long as needed). */
    std::shared_ptr<const Snapshot> snapshot() const;

    /**
     * Apply one edge-update batch (external ids). Self loops are
     * dropped; an out-of-range endpoint rejects the whole batch with
     * kBadVertex and publishes nothing; an empty (or all-self-loop)
     * batch is kRejected. On kOk, @p epoch_out (if non-null) receives
     * the new epoch. May trigger an automatic compaction.
     */
    Status ingestBatch(std::span<const graph::Edge> edges,
                       std::uint64_t* epoch_out = nullptr);

    /**
     * Re-run the reordering on the current graph now. Publishes a new
     * epoch even when nothing was ingested since the last compaction
     * (callers use that as an epoch fence); that case reuses the
     * current graph and permutation. @return the new epoch.
     */
    std::uint64_t compact();

    StoreStats stats() const;

    int numShards() const { return config_.num_shards; }

    /** Shard of internal vertex @p v (contiguous ranges). */
    int
    shardOfInternal(graph::VertexId v) const
    {
        return static_cast<int>(
            static_cast<std::uint64_t>(v) *
            static_cast<std::uint64_t>(config_.num_shards) /
            (numVertices_ > 0 ? numVertices_ : 1));
    }

    const StoreConfig& config() const { return config_; }

  private:
    /** Publish @p snap as the current epoch. */
    void publish(std::shared_ptr<const Snapshot> snap);

    /** Compaction body; caller holds writeMutex_. */
    std::uint64_t compactLocked();

    StoreConfig config_;
    graph::VertexId numVertices_ = 0;
    bool undirected_ = true;

    mutable std::mutex snapMutex_;   ///< guards current_ only
    std::shared_ptr<const Snapshot> current_;

    std::mutex writeMutex_;          ///< serializes ingest/compaction

    /// Current graph + permutation (written only under writeMutex_;
    /// shared into every Snapshot built on them).
    std::shared_ptr<const graph::Graph> graph_;
    std::shared_ptr<const graph::VertexPermutation> perm_;

    std::atomic<std::uint64_t> batches_{0};
    std::atomic<std::uint64_t> edges_{0};
    std::atomic<std::uint64_t> compactions_{0};
};

} // namespace crono::serve

#endif // CRONO_SERVE_STORE_H_
