/**
 * @file
 * Owning workload bundles: Table III's input catalog, scaled.
 *
 * A WorkloadSet owns one CSR graph (for the eight list-based kernels),
 * one adjacency matrix (APSP / BETW_CENT) and one city matrix (TSP),
 * and hands out per-benchmark Workload views. GraphKind selects the
 * paper's input families (synthetic sparse, road network, social
 * network).
 */

#ifndef CRONO_CORE_WORKLOADS_H_
#define CRONO_CORE_WORKLOADS_H_

#include <memory>
#include <string>

#include "core/suite.h"
#include "graph/generators.h"
#include "graph/reorder.h"

namespace crono::core {

/** Input family, mirroring Table III. */
enum class GraphKind {
    sparse, ///< GTgraph-style uniform random
    road,   ///< perturbed lattice (SNAP road-network stand-in)
    social, ///< R-MAT power law (Facebook stand-in)
};

/** Printable name of a GraphKind. */
const char* graphKindName(GraphKind kind);

/** Sizing knobs for a WorkloadSet. */
struct WorkloadConfig {
    GraphKind kind = GraphKind::sparse;
    graph::VertexId graph_vertices = 16384;
    graph::EdgeId edges_per_vertex = 16; ///< sparse/social edge factor
    graph::VertexId matrix_vertices = 96;
    graph::VertexId tsp_cities = 10;
    graph::VertexId mcs_pattern_vertices = 8;
    graph::VertexId mcs_target_vertices = 10;
    std::uint32_t mcs_labels = 3;
    unsigned pr_iterations = 5;
    unsigned comm_rounds = 8;
    std::uint64_t seed = 42;
    /**
     * Vertex relabeling applied to the CSR graph (the dense matrix
     * inputs keep their layout — their traversals are row-major
     * already). forBenchmark() maps `source` into the relabeled space,
     * and permutation() maps per-vertex results back.
     */
    graph::Reordering reordering = graph::Reordering::kNone;
};

/** Owns the inputs for one configuration of the full suite. */
class WorkloadSet {
  public:
    explicit WorkloadSet(const WorkloadConfig& cfg);

    /** Workload view appropriate for benchmark @p id. */
    Workload forBenchmark(BenchmarkId id) const;

    const graph::Graph& graph() const { return graph_; }
    const graph::AdjacencyMatrix& matrix() const { return matrix_; }
    const graph::AdjacencyMatrix& cities() const { return cities_; }
    const graph::LabeledMatrix& mcsPattern() const { return mcs_pattern_; }
    const graph::LabeledMatrix& mcsTarget() const { return mcs_target_; }
    const WorkloadConfig& config() const { return cfg_; }

    /**
     * The relabeling applied to graph() (identity for kNone): new ids
     * are what kernels see, toOld()/valuesToOld() recover original
     * ids from their results.
     */
    const graph::VertexPermutation& permutation() const { return perm_; }

  private:
    WorkloadSet(const WorkloadConfig& cfg, graph::ReorderedGraph rg);

    WorkloadConfig cfg_;
    graph::Graph graph_;
    graph::VertexPermutation perm_;
    graph::AdjacencyMatrix matrix_;
    graph::AdjacencyMatrix cities_;
    graph::LabeledMatrix mcs_pattern_;
    graph::LabeledMatrix mcs_target_;
};

/** Build the CSR graph of @p kind at the requested size. */
graph::Graph makeGraph(GraphKind kind, graph::VertexId vertices,
                       graph::EdgeId edges_per_vertex, std::uint64_t seed);

/**
 * Default ordering for one benchmark on one input family: RCM for the
 * mesh-like road networks, hub-packing (plain degree sort for the
 * gather-friendly PageRank) on power-law social graphs, and identity
 * where relabeling has nothing to exploit (uniform random inputs and
 * the dense-matrix kernels).
 */
graph::Reordering recommendedReordering(BenchmarkId id, GraphKind kind);

} // namespace crono::core

#endif // CRONO_CORE_WORKLOADS_H_
