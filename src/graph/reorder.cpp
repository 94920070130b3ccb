#include "graph/reorder.h"

#include <algorithm>
#include <chrono>
#include <numeric>
#include <utility>
#include <vector>

#include "obs/telemetry.h"

namespace crono::graph {

const char*
reorderingName(Reordering r)
{
    switch (r) {
      case Reordering::kNone:
        return "none";
      case Reordering::kDegreeSort:
        return "degree";
      case Reordering::kHubCluster:
        return "hub";
      case Reordering::kBfs:
        return "bfs";
      case Reordering::kRcm:
        return "rcm";
    }
    return "?";
}

std::span<const Reordering>
allReorderings()
{
    static constexpr Reordering kAll[] = {
        Reordering::kNone, Reordering::kDegreeSort,
        Reordering::kHubCluster, Reordering::kBfs, Reordering::kRcm};
    return kAll;
}

VertexPermutation::VertexPermutation(AlignedVector<VertexId> new_to_old)
    : newToOld_(std::move(new_to_old))
{
    const auto n = static_cast<VertexId>(newToOld_.size());
    oldToNew_.assign(n, kNoVertex);
    for (VertexId v = 0; v < n; ++v) {
        const VertexId old = newToOld_[v];
        CRONO_REQUIRE(old < n, "permutation entry out of range");
        CRONO_REQUIRE(oldToNew_[old] == kNoVertex,
                      "permutation entry repeated");
        oldToNew_[old] = v;
    }
}

VertexPermutation
VertexPermutation::identity(VertexId n)
{
    AlignedVector<VertexId> order(n);
    std::iota(order.begin(), order.end(), VertexId{0});
    return VertexPermutation(std::move(order));
}

bool
VertexPermutation::isIdentity() const
{
    for (VertexId v = 0; v < size(); ++v) {
        if (newToOld_[v] != v) {
            return false;
        }
    }
    return true;
}

VertexPermutation
VertexPermutation::inverse() const
{
    return VertexPermutation(oldToNew_);
}

VertexPermutation
VertexPermutation::composedWith(const VertexPermutation& then) const
{
    CRONO_REQUIRE(size() == then.size(),
                  "composing permutations of different sizes");
    AlignedVector<VertexId> new_to_old(size());
    for (VertexId v = 0; v < size(); ++v) {
        // Vertex v of the final space came from `then`'s old space,
        // which is this permutation's new space.
        new_to_old[v] = newToOld_[then.toOld(v)];
    }
    return VertexPermutation(std::move(new_to_old));
}

AlignedVector<VertexId>
VertexPermutation::vertexValuesToOld(std::span<const VertexId> by_new,
                                     VertexId sentinel) const
{
    AlignedVector<VertexId> out(by_new.size());
    for (std::size_t v = 0; v < by_new.size(); ++v) {
        const VertexId value = by_new[v];
        out[newToOld_[v]] =
            value == sentinel ? sentinel : newToOld_[value];
    }
    return out;
}

namespace {

/** Vertices sorted by (descending degree, ascending id). */
std::vector<VertexId>
byDegreeDescending(const Graph& g)
{
    std::vector<VertexId> order(g.numVertices());
    std::iota(order.begin(), order.end(), VertexId{0});
    std::stable_sort(order.begin(), order.end(),
                     [&](VertexId a, VertexId b) {
                         return g.degree(a) > g.degree(b);
                     });
    return order;
}

AlignedVector<VertexId>
degreeSortOrder(const Graph& g)
{
    const std::vector<VertexId> sorted = byDegreeDescending(g);
    return {sorted.begin(), sorted.end()};
}

AlignedVector<VertexId>
hubClusterOrder(const Graph& g)
{
    const VertexId n = g.numVertices();
    const double avg_degree =
        n == 0 ? 0.0
               : static_cast<double>(g.numEdges()) /
                     static_cast<double>(n);
    AlignedVector<VertexId> order;
    order.reserve(n);
    for (const VertexId v : byDegreeDescending(g)) {
        if (static_cast<double>(g.degree(v)) > avg_degree) {
            order.push_back(v);
        }
    }
    // Cold vertices follow in their original relative order.
    for (VertexId v = 0; v < n; ++v) {
        if (static_cast<double>(g.degree(v)) <= avg_degree) {
            order.push_back(v);
        }
    }
    return order;
}

/**
 * Shared BFS relabeling core: visit from per-component seeds chosen
 * by @p seed_rank (an index into a precomputed seed candidate list),
 * appending neighbors of each vertex in @p neighbor_order.
 */
AlignedVector<VertexId>
bfsOrderFromSeeds(const Graph& g,
                  const std::vector<VertexId>& seed_candidates,
                  bool sort_neighbors_by_degree)
{
    const VertexId n = g.numVertices();
    AlignedVector<VertexId> order;
    order.reserve(n);
    std::vector<char> seen(n, 0);
    std::vector<VertexId> queue;
    std::vector<VertexId> scratch;
    queue.reserve(n);
    for (const VertexId seed : seed_candidates) {
        if (seen[seed]) {
            continue;
        }
        seen[seed] = 1;
        queue.clear();
        queue.push_back(seed);
        for (std::size_t head = 0; head < queue.size(); ++head) {
            const VertexId u = queue[head];
            order.push_back(u);
            const auto ns = g.neighbors(u);
            scratch.assign(ns.begin(), ns.end());
            if (sort_neighbors_by_degree) {
                // Cuthill-McKee visits low-degree neighbors first
                // (ties by id for determinism).
                std::stable_sort(scratch.begin(), scratch.end(),
                                 [&](VertexId a, VertexId b) {
                                     return g.degree(a) < g.degree(b);
                                 });
            }
            for (const VertexId w : scratch) {
                if (!seen[w]) {
                    seen[w] = 1;
                    queue.push_back(w);
                }
            }
        }
    }
    return order;
}

AlignedVector<VertexId>
bfsOrder(const Graph& g)
{
    // Seeds in descending-degree order: the hub starts the layout and
    // every component is eventually covered.
    return bfsOrderFromSeeds(g, byDegreeDescending(g),
                             /*sort_neighbors_by_degree=*/false);
}

AlignedVector<VertexId>
rcmOrder(const Graph& g)
{
    // Cuthill-McKee seeds from a pseudo-peripheral (low-degree)
    // vertex of each component, then the whole order is reversed.
    std::vector<VertexId> seeds(g.numVertices());
    std::iota(seeds.begin(), seeds.end(), VertexId{0});
    std::stable_sort(seeds.begin(), seeds.end(),
                     [&](VertexId a, VertexId b) {
                         return g.degree(a) < g.degree(b);
                     });
    AlignedVector<VertexId> order =
        bfsOrderFromSeeds(g, seeds, /*sort_neighbors_by_degree=*/true);
    std::reverse(order.begin(), order.end());
    return order;
}

} // namespace

VertexPermutation
computeOrdering(const Graph& g, Reordering r)
{
    switch (r) {
      case Reordering::kNone:
        return VertexPermutation::identity(g.numVertices());
      case Reordering::kDegreeSort:
        return VertexPermutation(degreeSortOrder(g));
      case Reordering::kHubCluster:
        return VertexPermutation(hubClusterOrder(g));
      case Reordering::kBfs:
        return VertexPermutation(bfsOrder(g));
      case Reordering::kRcm:
        return VertexPermutation(rcmOrder(g));
    }
    CRONO_ASSERT(false, "unknown reordering");
    return VertexPermutation::identity(g.numVertices());
}

Graph
permuteGraph(const Graph& g, const VertexPermutation& perm)
{
    const VertexId n = g.numVertices();
    CRONO_REQUIRE(perm.size() == n, "permutation size mismatch");

    AlignedVector<EdgeId> offsets(n + 1, 0);
    for (VertexId v = 0; v < n; ++v) {
        offsets[v + 1] = offsets[v] + g.degree(perm.toOld(v));
    }

    AlignedVector<VertexId> neighbors(g.numEdges());
    AlignedVector<Weight> weights(g.numEdges());
    std::vector<std::pair<VertexId, Weight>> row;
    for (VertexId v = 0; v < n; ++v) {
        const VertexId old = perm.toOld(v);
        const auto ns = g.neighbors(old);
        const auto ws = g.weights(old);
        row.clear();
        for (std::size_t i = 0; i < ns.size(); ++i) {
            row.emplace_back(perm.toNew(ns[i]), ws[i]);
        }
        std::sort(row.begin(), row.end());
        EdgeId slot = offsets[v];
        for (const auto& [u, w] : row) {
            neighbors[slot] = u;
            weights[slot] = w;
            ++slot;
        }
    }
    return Graph(std::move(offsets), std::move(neighbors),
                 std::move(weights), g.undirected());
}

AdjacencyMatrix
permuteMatrix(const AdjacencyMatrix& m, const VertexPermutation& perm)
{
    const VertexId n = m.numVertices();
    CRONO_REQUIRE(perm.size() == n, "permutation size mismatch");
    AdjacencyMatrix out(n);
    for (VertexId a = 0; a < n; ++a) {
        for (VertexId b = 0; b < n; ++b) {
            out.set(a, b, m.at(perm.toOld(a), perm.toOld(b)));
        }
    }
    return out;
}

ReorderedGraph
reorderGraph(const Graph& g, Reordering r, bool)
{
    const auto start = std::chrono::steady_clock::now();
    VertexPermutation perm = computeOrdering(g, r);
    Graph relabeled = permuteGraph(g, perm);
    const auto elapsed =
        std::chrono::steady_clock::now() - start;
    if (obs::Track* const track =
            obs::trackFor(obs::sink(), obs::TrackKind::kHost, 0)) {
        // Ceil to whole milliseconds: sub-ms reorders of small graphs
        // must still show up (zero-valued counters are filtered from
        // reports).
        const auto us =
            std::chrono::duration_cast<std::chrono::microseconds>(
                elapsed)
                .count();
        obs::counterBump(track, obs::Counter::kReorderMs,
                         static_cast<std::uint64_t>((us + 999) / 1000));
    }
    return ReorderedGraph{std::move(relabeled), std::move(perm)};
}

std::uint64_t
adjacencyBandwidth(const Graph& g)
{
    std::uint64_t bandwidth = 0;
    for (VertexId v = 0; v < g.numVertices(); ++v) {
        for (const VertexId u : g.neighbors(v)) {
            const std::uint64_t spread = v > u ? v - u : u - v;
            bandwidth = std::max(bandwidth, spread);
        }
    }
    return bandwidth;
}

} // namespace crono::graph
