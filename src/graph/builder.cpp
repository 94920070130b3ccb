#include "graph/builder.h"

#include <algorithm>
// crono-lint: allow(raw-include): host-side CSR construction helpers only
#include <thread>
#include <utility>

namespace crono::graph {

namespace {

/**
 * Edge count above which finalization switches from one global
 * std::sort to the counting-sort path with parallel per-vertex
 * segment sorts. Below it the fork/join overhead is not worth it.
 */
constexpr std::size_t kParallelBuildThreshold = std::size_t{1} << 21;

/** Run fn(t) on nthreads host helper threads and join. */
template <class Fn>
void
hostParallelFor(unsigned nthreads, Fn&& fn)
{
    if (nthreads <= 1) {
        fn(0u);
        return;
    }
    // Graph finalization happens before any kernel region opens, so
    // there is no Ctx to route this fork/join through.
    // crono-lint: allow(raw-sync): host-side construction fork/join
    std::vector<std::thread> workers;
    workers.reserve(nthreads);
    for (unsigned t = 0; t < nthreads; ++t) {
        workers.emplace_back([&fn, t] { fn(t); });
    }
    for (auto& w : workers) {
        w.join();
    }
}

/** Helper-thread count for host-side construction. */
unsigned
hostThreads()
{
    // crono-lint: allow(raw-sync): hardware query, not synchronization.
    const unsigned hw = std::thread::hardware_concurrency();
    return std::max(1u, std::min(hw, 16u));
}

/**
 * Counting-sort CSR finalization for multi-million-edge inputs,
 * bit-identical to the global-sort path: a degree histogram and a
 * stable scatter replace the O(E log E) whole-array sort, and the
 * per-vertex segment sorts (the remaining log factor) run on host
 * helper threads over edge-balanced vertex ranges. keepMin then
 * compacts each segment exactly like sort-then-unique would.
 */
Graph
buildCsrLarge(VertexId num_vertices, bool undirected,
              GraphBuilder::DedupPolicy policy, std::vector<Edge>&& all)
{
    AlignedVector<EdgeId> offsets(num_vertices + 1, 0);
    for (const Edge& e : all) {
        ++offsets[e.src + 1];
    }
    for (VertexId v = 0; v < num_vertices; ++v) {
        offsets[v + 1] += offsets[v];
    }

    AlignedVector<VertexId> neighbors(all.size());
    AlignedVector<Weight> weights(all.size());
    {
        AlignedVector<EdgeId> cursor(offsets.begin(), offsets.end() - 1);
        for (const Edge& e : all) {
            const EdgeId slot = cursor[e.src]++;
            neighbors[slot] = e.dst;
            weights[slot] = e.weight;
        }
    }
    all.clear();
    all.shrink_to_fit();

    const unsigned nthreads = hostThreads();
    const EdgeId total = offsets[num_vertices];
    AlignedVector<EdgeId> kept(num_vertices, 0);
    hostParallelFor(nthreads, [&](unsigned t) {
        const EdgeId lo_e = total * t / nthreads;
        const EdgeId hi_e = total * (t + 1) / nthreads;
        // First vertex whose segment starts at or after lo_e; a
        // vertex belongs to the thread owning its segment start, so
        // shared boundaries are claimed exactly once.
        VertexId v = static_cast<VertexId>(
            std::lower_bound(offsets.begin(),
                             offsets.begin() + num_vertices, lo_e) -
            offsets.begin());
        std::vector<std::pair<VertexId, Weight>> seg;
        for (; v < num_vertices && offsets[v] < hi_e; ++v) {
            const EdgeId begin = offsets[v];
            const EdgeId end = offsets[v + 1];
            seg.clear();
            for (EdgeId e = begin; e < end; ++e) {
                seg.emplace_back(neighbors[e], weights[e]);
            }
            std::sort(seg.begin(), seg.end());
            if (policy == GraphBuilder::DedupPolicy::keepMin) {
                // Min-weight copy of each dst comes first after the
                // (dst, weight) sort; keep exactly that copy.
                seg.erase(std::unique(seg.begin(), seg.end(),
                                      [](const auto& a, const auto& b) {
                                          return a.first == b.first;
                                      }),
                          seg.end());
            }
            kept[v] = static_cast<EdgeId>(seg.size());
            for (std::size_t i = 0; i < seg.size(); ++i) {
                neighbors[begin + i] = seg[i].first;
                weights[begin + i] = seg[i].second;
            }
        }
    });

    if (policy == GraphBuilder::DedupPolicy::keepAll) {
        return Graph(std::move(offsets), std::move(neighbors),
                     std::move(weights), undirected);
    }
    AlignedVector<EdgeId> final_offsets(num_vertices + 1, 0);
    for (VertexId v = 0; v < num_vertices; ++v) {
        final_offsets[v + 1] = final_offsets[v] + kept[v];
    }
    AlignedVector<VertexId> final_neighbors(final_offsets[num_vertices]);
    AlignedVector<Weight> final_weights(final_offsets[num_vertices]);
    hostParallelFor(nthreads, [&](unsigned t) {
        const EdgeId lo_e = total * t / nthreads;
        const EdgeId hi_e = total * (t + 1) / nthreads;
        VertexId v = static_cast<VertexId>(
            std::lower_bound(offsets.begin(),
                             offsets.begin() + num_vertices, lo_e) -
            offsets.begin());
        for (; v < num_vertices && offsets[v] < hi_e; ++v) {
            std::copy_n(neighbors.begin() + offsets[v], kept[v],
                        final_neighbors.begin() + final_offsets[v]);
            std::copy_n(weights.begin() + offsets[v], kept[v],
                        final_weights.begin() + final_offsets[v]);
        }
    });
    return Graph(std::move(final_offsets), std::move(final_neighbors),
                 std::move(final_weights), undirected);
}

} // namespace

GraphBuilder::GraphBuilder(VertexId num_vertices, bool undirected)
    : numVertices_(num_vertices), undirected_(undirected)
{
}

void
GraphBuilder::addEdge(VertexId src, VertexId dst, Weight weight)
{
    CRONO_ASSERT(src < numVertices_ && dst < numVertices_,
                 "edge endpoint out of range");
    if (src == dst) {
        return;
    }
    edges_.push_back({src, dst, weight});
}

Graph
GraphBuilder::build(DedupPolicy policy) &&
{
    if (reordering_ != Reordering::kNone) {
        return std::move(*this).buildReordered(policy).graph;
    }
    return std::move(*this).buildPlain(policy);
}

ReorderedGraph
GraphBuilder::buildReordered(DedupPolicy policy) &&
{
    const Reordering r = reordering_;
    Graph plain = std::move(*this).buildPlain(policy);
    return reorderGraph(plain, r);
}

Graph
GraphBuilder::buildPlain(DedupPolicy policy) &&
{
    std::vector<Edge> all = std::move(edges_);
    if (undirected_) {
        const std::size_t n = all.size();
        all.reserve(2 * n);
        for (std::size_t i = 0; i < n; ++i) {
            all.push_back({all[i].dst, all[i].src, all[i].weight});
        }
    }
    if (all.size() >= kParallelBuildThreshold) {
        return buildCsrLarge(numVertices_, undirected_, policy,
                             std::move(all));
    }

    auto key_less = [](const Edge& a, const Edge& b) {
        return std::pair(a.src, a.dst) < std::pair(b.src, b.dst);
    };
    auto weight_then_key = [&](const Edge& a, const Edge& b) {
        if (std::pair(a.src, a.dst) != std::pair(b.src, b.dst)) {
            return key_less(a, b);
        }
        return a.weight < b.weight;
    };
    std::sort(all.begin(), all.end(), weight_then_key);
    if (policy == DedupPolicy::keepMin) {
        // After the sort the min-weight copy of each (src, dst) comes
        // first, so unique() keeps exactly that copy.
        auto same_key = [](const Edge& a, const Edge& b) {
            return a.src == b.src && a.dst == b.dst;
        };
        all.erase(std::unique(all.begin(), all.end(), same_key), all.end());
    }

    AlignedVector<EdgeId> offsets(numVertices_ + 1, 0);
    for (const Edge& e : all) {
        ++offsets[e.src + 1];
    }
    for (VertexId v = 0; v < numVertices_; ++v) {
        offsets[v + 1] += offsets[v];
    }

    AlignedVector<VertexId> neighbors(all.size());
    AlignedVector<Weight> weights(all.size());
    AlignedVector<EdgeId> cursor(offsets.begin(), offsets.end() - 1);
    for (const Edge& e : all) {
        EdgeId slot = cursor[e.src]++;
        neighbors[slot] = e.dst;
        weights[slot] = e.weight;
    }

    return Graph(std::move(offsets), std::move(neighbors),
                 std::move(weights), undirected_);
}

} // namespace crono::graph
