#include "obs/telemetry.h"

namespace crono::obs {

const char*
spanCatName(SpanCat cat)
{
    switch (cat) {
      case SpanCat::kKernel:
        return "kernel";
      case SpanCat::kRound:
        return "round";
      case SpanCat::kBarrierWait:
        return "barrier-wait";
      case SpanCat::kSteal:
        return "steal";
      case SpanCat::kSimEpoch:
        return "sim-epoch";
    }
    return "unknown";
}

const char*
counterName(Counter c)
{
    switch (c) {
      case Counter::kRelaxations:
        return "relaxations";
      case Counter::kExpansions:
        return "expansions";
      case Counter::kDeferrals:
        return "deferrals";
      case Counter::kActivations:
        return "activations";
      case Counter::kDenseRounds:
        return "dense_rounds";
      case Counter::kSparseRounds:
        return "sparse_rounds";
      case Counter::kModeSwitches:
        return "mode_switches";
      case Counter::kStealAttempts:
        return "steal_attempts";
      case Counter::kStealChunks:
        return "steal_chunks";
      case Counter::kBarrierWaits:
        return "barrier_waits";
      case Counter::kIterations:
        return "iterations";
      case Counter::kBusyCycles:
        return "busy_cycles";
      case Counter::kStallCycles:
        return "stall_cycles";
      case Counter::kPullRounds:
        return "pull_rounds";
      case Counter::kCaptures:
        return "captures";
      case Counter::kDonations:
        return "donations";
      case Counter::kMoves:
        return "moves";
      case Counter::kTriangles:
        return "triangles";
      case Counter::kBranches:
        return "branches";
      case Counter::kReorderMs:
        return "reorder_ms";
      case Counter::kBucketSteps:
        return "bucket_steps";
      case Counter::kStaleSkips:
        return "stale_skips";
      case Counter::kHeavyRelaxations:
        return "heavy_relaxations";
      case Counter::kLoadMs:
        return "load_ms";
      case Counter::kBidomainSplits:
        return "bidomain_splits";
      case Counter::kServeRequests:
        return "serve_requests";
      case Counter::kServeBatches:
        return "serve_batches";
      case Counter::kServeIngestEdges:
        return "serve_ingest_edges";
      case Counter::kServeCompactions:
        return "serve_compactions";
    }
    return "unknown";
}

const char*
trackKindName(TrackKind kind)
{
    switch (kind) {
      case TrackKind::kHost:
        return "host";
      case TrackKind::kWorker:
        return "worker";
      case TrackKind::kSimThread:
        return "sim-thread";
      case TrackKind::kSimCore:
        return "sim-core";
    }
    return "unknown";
}

Track::Track(std::size_t capacity)
{
    std::size_t cap = 16;
    while (cap < capacity) {
        cap <<= 1;
    }
    ring_.resize(cap);
    mask_ = cap - 1;
}

std::vector<SpanEvent>
Track::spans() const
{
    const std::uint64_t cap = mask_ + 1;
    const std::uint64_t n = count_ < cap ? count_ : cap;
    const std::uint64_t first = count_ < cap ? 0 : count_ - cap;
    std::vector<SpanEvent> out;
    out.reserve(static_cast<std::size_t>(n));
    for (std::uint64_t i = 0; i < n; ++i) {
        out.push_back(
            ring_[static_cast<std::size_t>((first + i) & mask_)]);
    }
    return out;
}

Recorder::Recorder(std::size_t spans_per_track)
    : spansPerTrack_(spans_per_track)
{
}

Track*
Recorder::createTrack(TrackKind kind, int tid)
{
    std::lock_guard<std::mutex> g(createMutex_);
    auto& slot =
        slots_[static_cast<int>(kind)][static_cast<std::size_t>(tid)];
    Track* t = slot.load(std::memory_order_relaxed);
    if (t == nullptr) {
        owned_.push_back(std::make_unique<Track>(spansPerTrack_));
        t = owned_.back().get();
        slot.store(t, std::memory_order_release);
    }
    return t;
}

std::uint64_t
Recorder::totalCounter(Counter c) const
{
    std::uint64_t total = 0;
    forEachTrack([&](TrackKind, int, const Track& t) {
        total += t.counter(c);
    });
    return total;
}

std::uint64_t
Recorder::totalDropped() const
{
    std::uint64_t total = 0;
    forEachTrack([&](TrackKind, int, const Track& t) {
        total += t.dropped();
    });
    return total;
}

#if !defined(CRONO_TELEMETRY_DISABLED)

namespace detail {
std::atomic<Recorder*> g_sink{nullptr};
} // namespace detail

void
setSink(Recorder* recorder)
{
    detail::g_sink.store(recorder, std::memory_order_release);
}

#endif // !CRONO_TELEMETRY_DISABLED

} // namespace crono::obs
