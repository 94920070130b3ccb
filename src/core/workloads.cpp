#include "core/workloads.h"

#include <cmath>

namespace crono::core {

namespace gen = graph::generators;

const char*
graphKindName(GraphKind kind)
{
    switch (kind) {
      case GraphKind::sparse:
        return "sparse";
      case GraphKind::road:
        return "road";
      case GraphKind::social:
        return "social";
    }
    return "?";
}

graph::Graph
makeGraph(GraphKind kind, graph::VertexId vertices,
          graph::EdgeId edges_per_vertex, std::uint64_t seed)
{
    switch (kind) {
      case GraphKind::sparse:
        return gen::uniformRandom(
            vertices, static_cast<graph::EdgeId>(vertices) *
                          edges_per_vertex,
            /*max_weight=*/64, seed);
      case GraphKind::road: {
        const auto side = static_cast<graph::VertexId>(
            std::lround(std::sqrt(static_cast<double>(vertices))));
        return gen::roadNetwork(std::max<graph::VertexId>(side, 2),
                                std::max<graph::VertexId>(side, 2), seed);
      }
      case GraphKind::social: {
        unsigned scale = 1;
        while ((graph::VertexId{1} << scale) < vertices) {
            ++scale;
        }
        return gen::socialNetwork(
            scale, static_cast<unsigned>(edges_per_vertex), seed);
      }
    }
    CRONO_ASSERT(false, "unknown graph kind");
    return gen::path(2);
}

namespace {

graph::ReorderedGraph
makeReordered(const WorkloadConfig& cfg)
{
    return graph::reorderGraph(
        makeGraph(cfg.kind, cfg.graph_vertices, cfg.edges_per_vertex,
                  cfg.seed),
        cfg.reordering);
}

} // namespace

WorkloadSet::WorkloadSet(const WorkloadConfig& cfg)
    : WorkloadSet(cfg, makeReordered(cfg))
{
}

WorkloadSet::WorkloadSet(const WorkloadConfig& cfg,
                         graph::ReorderedGraph rg)
    : cfg_(cfg), graph_(std::move(rg.graph)), perm_(std::move(rg.perm)),
      matrix_(graph::AdjacencyMatrix(gen::uniformRandom(
          cfg.matrix_vertices,
          static_cast<graph::EdgeId>(cfg.matrix_vertices) * 8,
          /*max_weight=*/64, cfg.seed + 1))),
      cities_(gen::tspCities(cfg.tsp_cities, cfg.seed + 2)),
      mcs_pattern_(gen::labeledGraph(
          cfg.mcs_pattern_vertices,
          static_cast<graph::EdgeId>(cfg.mcs_pattern_vertices) * 2,
          cfg.mcs_labels, cfg.seed + 3)),
      mcs_target_(gen::labeledGraph(
          cfg.mcs_target_vertices,
          static_cast<graph::EdgeId>(cfg.mcs_target_vertices) * 2,
          cfg.mcs_labels, cfg.seed + 4))
{
}

Workload
WorkloadSet::forBenchmark(BenchmarkId) const
{
    Workload w;
    w.graph = &graph_;
    w.matrix = &matrix_;
    w.cities = &cities_;
    w.mcs_pattern = &mcs_pattern_;
    w.mcs_target = &mcs_target_;
    // Kernels run in the relabeled space; the canonical source vertex
    // (original id 0) travels through the permutation with them.
    w.source = perm_.toNew(0);
    w.pr_iterations = cfg_.pr_iterations;
    w.comm_rounds = cfg_.comm_rounds;
    return w;
}

graph::Reordering
recommendedReordering(BenchmarkId id, GraphKind kind)
{
    switch (id) {
      case BenchmarkId::apsp:
      case BenchmarkId::betwCent:
      case BenchmarkId::tsp:
      case BenchmarkId::mcs:
        return graph::Reordering::kNone; // dense-matrix inputs
      default:
        break;
    }
    switch (kind) {
      case GraphKind::road:
        return graph::Reordering::kRcm;
      case GraphKind::social:
        return id == BenchmarkId::pageRank
                   ? graph::Reordering::kDegreeSort
                   : graph::Reordering::kHubCluster;
      case GraphKind::sparse:
        return graph::Reordering::kNone; // no structure to recover
    }
    return graph::Reordering::kNone;
}

} // namespace crono::core
