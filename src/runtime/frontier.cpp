#include "runtime/frontier.h"

#include <algorithm>

#include "runtime/instrumentation.h"

namespace crono::rt {

const char*
frontierModeName(FrontierMode mode)
{
    switch (mode) {
      case FrontierMode::kFlagScan:
        return "flagscan";
      case FrontierMode::kSparse:
        return "sparse";
      case FrontierMode::kAdaptive:
        return "adaptive";
    }
    return "unknown";
}

std::uint64_t
denseFrontThreshold(std::uint64_t num_vertices, std::uint64_t num_edges)
{
    if (num_edges == 0) {
        // No edges: fronts never exceed the seeds and die in one
        // round; a threshold of V keeps every round sparse.
        return num_vertices;
    }
    const std::uint64_t threshold =
        num_vertices * num_vertices /
        (kFrontierDenseSwitchFactor * num_edges);
    return threshold == 0 ? 1 : threshold;
}

FrontierEngine::FrontierEngine(std::uint64_t num_vertices,
                               std::uint64_t num_edges, int nthreads,
                               FrontierMode mode)
    : numVertices_(num_vertices), nthreads_(nthreads), mode_(mode),
      denseThreshold_(denseFrontThreshold(num_vertices, num_edges)),
      useQueues_(mode == FrontierMode::kSparse ||
                 mode == FrontierMode::kAdaptive),
      threads_(static_cast<std::size_t>(nthreads))
{
    CRONO_REQUIRE(nthreads >= 1, "frontier engine needs >= 1 thread");
    flags_[0].assign(num_vertices, 0);
    flags_[1].assign(num_vertices, 0);
}

void
FrontierEngine::hostPush(int owner, Vertex v)
{
    if (!useQueues_) {
        ++front_[0].value;
        return;
    }
    Queue& q = threads_[static_cast<std::size_t>(owner)].queue[0];
    if (q.fill == kFrontierChunkCap || q.used == 0) {
        if (q.used == q.chunks.size()) {
            q.chunks.emplace_back(new Chunk);
        }
        ++q.used;
        q.fill = 0;
    }
    q.chunks[q.used - 1]->items[q.fill] = v;
    ++q.fill;
    // Keep the queue consumable after every seed: seal the tail chunk
    // and publish the chunk count directly (host side, pre-region).
    q.chunks[q.used - 1]->size = q.fill;
    q.ready.value = q.used;
    ++front_[0].value;
}

void
FrontierEngine::seed(Vertex v)
{
    CRONO_REQUIRE(v < numVertices_, "frontier seed out of range");
    if (flags_[0][v] != 0) {
        return;
    }
    flags_[0][v] = 1;
    if (!useQueues_) {
        ++front_[0].value;
        return;
    }
    // Route the seed to its block-partition owner so round 0 starts
    // with the same locality the dense scan would have.
    for (int t = 0; t < nthreads_; ++t) {
        const Range r = blockPartition(numVertices_, t, nthreads_);
        if (v >= r.begin && v < r.end) {
            hostPush(t, v);
            return;
        }
    }
    CRONO_ASSERT(false, "seed vertex not covered by any partition");
}

void
FrontierEngine::seedAll()
{
    for (int t = 0; t < nthreads_; ++t) {
        const Range r = blockPartition(numVertices_, t, nthreads_);
        for (std::uint64_t v = r.begin; v < r.end; ++v) {
            if (flags_[0][v] != 0) {
                continue;
            }
            flags_[0][v] = 1;
            hostPush(t, static_cast<Vertex>(v));
        }
    }
}

void
applyRoundVariability(
    RunInfo& info,
    const std::vector<const std::vector<std::uint64_t>*>& ops_marks)
{
    std::size_t rounds = ~std::size_t{0};
    for (const std::vector<std::uint64_t>* marks : ops_marks) {
        rounds = std::min(rounds, marks->size());
    }
    if (ops_marks.empty() || rounds == 0) {
        return;
    }
    info.round_variability.clear();
    info.round_variability.reserve(rounds);
    std::vector<std::uint64_t> delta(ops_marks.size());
    double sum = 0.0;
    for (std::size_t r = 0; r < rounds; ++r) {
        for (std::size_t t = 0; t < ops_marks.size(); ++t) {
            const std::vector<std::uint64_t>& marks = *ops_marks[t];
            delta[t] = r == 0 ? marks[0] : marks[r] - marks[r - 1];
        }
        info.round_variability.push_back(variability(delta));
        sum += info.round_variability.back();
    }
    info.variability = sum / static_cast<double>(rounds);
}

void
FrontierEngine::applyRoundStats(RunInfo& info) const
{
    std::vector<const std::vector<std::uint64_t>*> marks;
    marks.reserve(threads_.size());
    for (const PerThread& t : threads_) {
        marks.push_back(&t.opsMarks);
    }
    applyRoundVariability(info, marks);
}

} // namespace crono::rt
