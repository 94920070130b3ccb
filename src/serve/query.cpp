/**
 * @file
 * QueryEngine implementation: snapshot pinning, result caching, and
 * the per-opcode answer assembly.
 */

#include "serve/query.h"

#include <algorithm>
#include <bit>
#include <utility>

#include "common/macros.h"
#include "core/bfs.h"
#include "core/connected_components.h"
#include "core/pagerank.h"
#include "core/sssp.h"

namespace crono::serve {

QueryEngine::QueryEngine(GraphStore& store, rt::NativeExecutor& exec,
                         QueryConfig config)
    : store_(store), exec_(exec), config_(config)
{
    CRONO_REQUIRE(config_.nthreads >= 1, "query engine needs threads");
    CRONO_REQUIRE(config_.cache_capacity >= 1, "cache capacity >= 1");
}

std::shared_ptr<const void>
QueryEngine::cacheGet(std::uint64_t epoch, Kind kind,
                      graph::VertexId source)
{
    std::lock_guard<std::mutex> lock(cacheMutex_);
    for (auto it = cache_.begin(); it != cache_.end(); ++it) {
        if (it->epoch == epoch && it->kind == kind &&
            it->source == source) {
            cache_.splice(cache_.begin(), cache_, it);
            return cache_.front().data;
        }
    }
    return nullptr;
}

void
QueryEngine::cachePut(std::uint64_t epoch, Kind kind,
                      graph::VertexId source,
                      std::shared_ptr<const void> data)
{
    std::lock_guard<std::mutex> lock(cacheMutex_);
    cache_.push_front(CacheEntry{epoch, kind, source, std::move(data)});
    while (cache_.size() > config_.cache_capacity) {
        cache_.pop_back();
    }
}

std::shared_ptr<const AlignedVector<graph::Dist>>
QueryEngine::ssspDists(const Snapshot& snap,
                       graph::VertexId internal_source)
{
    if (auto hit = cacheGet(snap.epoch(), Kind::kSssp, internal_source)) {
        return std::static_pointer_cast<
            const AlignedVector<graph::Dist>>(hit);
    }
    std::lock_guard<std::mutex> lock(kernelMutex_);
    if (auto hit = cacheGet(snap.epoch(), Kind::kSssp, internal_source)) {
        return std::static_pointer_cast<
            const AlignedVector<graph::Dist>>(hit);
    }
    core::SsspResult r = core::sssp(exec_, config_.nthreads,
                                    snap.materialized(), internal_source);
    auto dists = std::make_shared<const AlignedVector<graph::Dist>>(
        std::move(r.dist));
    cachePut(snap.epoch(), Kind::kSssp, internal_source, dists);
    return dists;
}

std::shared_ptr<const AlignedVector<std::uint32_t>>
QueryEngine::bfsLevels(const Snapshot& snap,
                       graph::VertexId internal_source)
{
    if (auto hit = cacheGet(snap.epoch(), Kind::kBfs, internal_source)) {
        return std::static_pointer_cast<
            const AlignedVector<std::uint32_t>>(hit);
    }
    std::lock_guard<std::mutex> lock(kernelMutex_);
    if (auto hit = cacheGet(snap.epoch(), Kind::kBfs, internal_source)) {
        return std::static_pointer_cast<
            const AlignedVector<std::uint32_t>>(hit);
    }
    // Direction-optimizing: adaptive BFS beats flag-scan per source
    // on served graphs (DESIGN.md §17.3 has the per-class table).
    core::BfsResult r = core::bfs(exec_, config_.nthreads,
                                  snap.materialized(), internal_source,
                                  graph::kNoVertex, nullptr,
                                  rt::FrontierMode::kAdaptive);
    auto levels = std::make_shared<const AlignedVector<std::uint32_t>>(
        std::move(r.level));
    cachePut(snap.epoch(), Kind::kBfs, internal_source, levels);
    return levels;
}

std::shared_ptr<const QueryEngine::Components>
QueryEngine::components(const Snapshot& snap)
{
    if (auto hit = cacheGet(snap.epoch(), Kind::kComponents, 0)) {
        return std::static_pointer_cast<const Components>(hit);
    }
    std::lock_guard<std::mutex> lock(kernelMutex_);
    if (auto hit = cacheGet(snap.epoch(), Kind::kComponents, 0)) {
        return std::static_pointer_cast<const Components>(hit);
    }
    // Hook-and-compress beats flag-scan on served graphs (DESIGN.md
    // §17.3); it needs an undirected graph, so a directed store keeps
    // flag-scan.
    const graph::Graph& g = snap.materialized();
    core::ConnectedComponentsResult r = core::connectedComponents(
        exec_, config_.nthreads, g, nullptr,
        g.undirected() ? rt::FrontierMode::kAdaptive
                       : rt::FrontierMode::kFlagScan);
    auto comp = std::make_shared<Components>();
    comp->label = std::move(r.label);
    // Canonicalize to the minimum external id per component so the
    // answer is independent of the reordering of this epoch.
    const graph::VertexId n = snap.numVertices();
    AlignedVector<graph::VertexId> min_ext(n, graph::kNoVertex);
    for (graph::VertexId v = 0; v < n; ++v) {
        const graph::VertexId rep = comp->label[v];
        min_ext[rep] = std::min(min_ext[rep], snap.toExternal(v));
    }
    comp->canon.resize(n);
    for (graph::VertexId v = 0; v < n; ++v) {
        comp->canon[v] = min_ext[comp->label[v]];
    }
    std::shared_ptr<const Components> out = comp;
    cachePut(snap.epoch(), Kind::kComponents, 0, out);
    return out;
}

std::shared_ptr<const AlignedVector<double>>
QueryEngine::ranks(const Snapshot& snap)
{
    if (auto hit = cacheGet(snap.epoch(), Kind::kRank, 0)) {
        return std::static_pointer_cast<
            const AlignedVector<double>>(hit);
    }
    std::lock_guard<std::mutex> lock(kernelMutex_);
    if (auto hit = cacheGet(snap.epoch(), Kind::kRank, 0)) {
        return std::static_pointer_cast<
            const AlignedVector<double>>(hit);
    }
    // Gather mode: deterministic summation order, so a pinned epoch
    // answers rank queries bit-for-bit reproducibly.
    core::PageRankResult r = core::pageRank(
        exec_, config_.nthreads, snap.materialized(),
        config_.pagerank_iterations, config_.damping, nullptr,
        core::PageRankMode::kGather);
    auto ranks = std::make_shared<const AlignedVector<double>>(
        std::move(r.rank));
    cachePut(snap.epoch(), Kind::kRank, 0, ranks);
    return ranks;
}

namespace {

/** Best-first comparator: higher score, then smaller external id. */
bool
betterThan(const std::pair<std::uint64_t, graph::VertexId>& a,
           const std::pair<std::uint64_t, graph::VertexId>& b)
{
    return a.first != b.first ? a.first > b.first : a.second < b.second;
}

} // namespace

std::shared_ptr<const QueryEngine::TopOrder>
QueryEngine::degreeOrder(const Snapshot& snap)
{
    if (auto hit = cacheGet(snap.epoch(), Kind::kDegreeOrder, 0)) {
        return std::static_pointer_cast<const TopOrder>(hit);
    }
    const graph::Graph& g = snap.materialized();
    const graph::VertexId n = g.numVertices();
    auto order = std::make_shared<TopOrder>();
    order->reserve(n);
    for (graph::VertexId v = 0; v < n; ++v) {
        order->emplace_back(g.degree(v), snap.toExternal(v));
    }
    const std::size_t keep =
        std::min<std::size_t>(order->size(), kMaxTopK);
    std::partial_sort(order->begin(),
                      order->begin() + static_cast<std::ptrdiff_t>(keep),
                      order->end(), betterThan);
    order->resize(keep);
    std::shared_ptr<const TopOrder> out = order;
    cachePut(snap.epoch(), Kind::kDegreeOrder, 0, out);
    return out;
}

std::shared_ptr<const QueryEngine::TopOrder>
QueryEngine::rankOrder(const Snapshot& snap)
{
    if (auto hit = cacheGet(snap.epoch(), Kind::kRankOrder, 0)) {
        return std::static_pointer_cast<const TopOrder>(hit);
    }
    const std::shared_ptr<const AlignedVector<double>> rank =
        ranks(snap);
    const graph::VertexId n = snap.numVertices();
    auto order = std::make_shared<TopOrder>();
    order->reserve(n);
    for (graph::VertexId v = 0; v < n; ++v) {
        // IEEE-754 bit pattern: ranks are non-negative, and for
        // non-negative doubles the bit order is the value order, so
        // the u64 comparator sorts by score exactly.
        order->emplace_back(std::bit_cast<std::uint64_t>((*rank)[v]),
                            snap.toExternal(v));
    }
    const std::size_t keep =
        std::min<std::size_t>(order->size(), kMaxTopK);
    std::partial_sort(order->begin(),
                      order->begin() + static_cast<std::ptrdiff_t>(keep),
                      order->end(), betterThan);
    order->resize(keep);
    std::shared_ptr<const TopOrder> out = order;
    cachePut(snap.epoch(), Kind::kRankOrder, 0, out);
    return out;
}

Response
QueryEngine::execute(const Request& req)
{
    switch (req.op) {
      case Op::kIngest: {
        // Kernel mutex held: the merge shares the cores with kernel
        // runs, and compaction (auto or forced) runs reorderGraph,
        // which records on the (kHost, 0) obs track — the same
        // single-writer track the kernels' host spans use.
        std::lock_guard<std::mutex> lock(kernelMutex_);
        std::uint64_t epoch = 0;
        const Status s = store_.ingestBatch(req.edges, &epoch);
        Response r = errorResponse(req.id, s, epoch);
        if (s == Status::kOk) {
            r.values.push_back(req.edges.size());
        } else {
            r.epoch = store_.snapshot()->epoch();
        }
        return r;
      }
      case Op::kCompact: {
        std::lock_guard<std::mutex> lock(kernelMutex_);
        Response r;
        r.id = req.id;
        r.epoch = store_.compact();
        return r;
      }
      case Op::kStats: {
        Response r;
        r.id = req.id;
        r.epoch = store_.snapshot()->epoch();
        r.text = statsFn_ ? statsFn_() : std::string("{}");
        return r;
      }
      default:
        return executeOn(req, store_.snapshot());
    }
}

Response
QueryEngine::executeOn(const Request& req,
                       const std::shared_ptr<const Snapshot>& snap)
{
    if (req.op == Op::kIngest || req.op == Op::kCompact ||
        req.op == Op::kStats) {
        return execute(req); // mutating/global ops ignore the pin
    }

    Response r;
    r.id = req.id;
    r.epoch = snap->epoch();
    const graph::VertexId n = snap->numVertices();

    switch (req.op) {
      case Op::kPing:
        break;
      case Op::kBfsDist: {
        if (req.source >= n || req.target >= n) {
            return errorResponse(req.id, Status::kBadVertex, r.epoch);
        }
        const auto levels = bfsLevels(*snap, snap->toInternal(req.source));
        const std::uint32_t lvl = (*levels)[snap->toInternal(req.target)];
        r.values.push_back(lvl == core::kNoLevel ? kNoValue : lvl);
        break;
      }
      case Op::kSsspDist: {
        if (req.source >= n || req.target >= n) {
            return errorResponse(req.id, Status::kBadVertex, r.epoch);
        }
        const auto dist = ssspDists(*snap, snap->toInternal(req.source));
        const graph::Dist d = (*dist)[snap->toInternal(req.target)];
        r.values.push_back(d == graph::kInfDist ? kNoValue : d);
        break;
      }
      case Op::kSsspBatch: {
        if (req.source >= n) {
            return errorResponse(req.id, Status::kBadVertex, r.epoch);
        }
        for (const graph::VertexId t : req.targets) {
            if (t >= n) {
                return errorResponse(req.id, Status::kBadVertex,
                                     r.epoch);
            }
        }
        const auto dist = ssspDists(*snap, snap->toInternal(req.source));
        r.values.reserve(req.targets.size());
        for (const graph::VertexId t : req.targets) {
            const graph::Dist d = (*dist)[snap->toInternal(t)];
            r.values.push_back(d == graph::kInfDist ? kNoValue : d);
        }
        break;
      }
      case Op::kComponent: {
        if (req.source >= n) {
            return errorResponse(req.id, Status::kBadVertex, r.epoch);
        }
        const auto comp = components(*snap);
        r.values.push_back(comp->canon[snap->toInternal(req.source)]);
        break;
      }
      case Op::kRankScore: {
        if (req.source >= n) {
            return errorResponse(req.id, Status::kBadVertex, r.epoch);
        }
        const auto rank = ranks(*snap);
        r.values.push_back(std::bit_cast<std::uint64_t>(
            (*rank)[snap->toInternal(req.source)]));
        break;
      }
      case Op::kTopDegree: {
        if (req.k == 0) {
            return errorResponse(req.id, Status::kRejected, r.epoch);
        }
        const auto order = degreeOrder(*snap);
        const std::size_t k =
            std::min<std::size_t>(req.k, order->size());
        for (std::size_t i = 0; i < k; ++i) {
            r.values.push_back((*order)[i].first);
            r.vertices.push_back((*order)[i].second);
        }
        break;
      }
      case Op::kTopRank: {
        if (req.k == 0) {
            return errorResponse(req.id, Status::kRejected, r.epoch);
        }
        const auto order = rankOrder(*snap);
        const std::size_t k =
            std::min<std::size_t>(req.k, order->size());
        for (std::size_t i = 0; i < k; ++i) {
            r.values.push_back((*order)[i].first);
            r.vertices.push_back((*order)[i].second);
        }
        break;
      }
      case Op::kIngest:
      case Op::kCompact:
      case Op::kStats:
        break; // handled above
    }
    return r;
}

} // namespace crono::serve
