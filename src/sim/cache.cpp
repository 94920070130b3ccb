#include "sim/cache.h"

#include <algorithm>

#include "common/macros.h"

namespace crono::sim {

Cache::Cache(const CacheConfig& cfg, std::uint32_t line_bytes)
    : numSets_(cfg.numSets(line_bytes)), numWays_(cfg.associativity)
{
    CRONO_REQUIRE(numSets_ >= 1, "cache must have >= 1 set");
    CRONO_REQUIRE((numSets_ & (numSets_ - 1)) == 0,
                  "number of sets must be a power of two");
    ways_.resize(std::size_t{numSets_} * numWays_);
}

Cache::Way*
Cache::setOf(LineAddr line)
{
    return &ways_[(line & (numSets_ - 1)) * numWays_];
}

Cache::Way*
Cache::find(LineAddr line)
{
    Way* const set = setOf(line);
    for (std::uint32_t i = 0; i < numWays_; ++i) {
        if (set[i].state != LineState::invalid && set[i].line == line) {
            return &set[i];
        }
    }
    return nullptr;
}

const Cache::Way*
Cache::find(LineAddr line) const
{
    return const_cast<Cache*>(this)->find(line);
}

LineState
Cache::lookup(LineAddr line)
{
    Way* w = find(line);
    if (w == nullptr) {
        return LineState::invalid;
    }
    w->lru = ++useClock_;
    return w->state;
}

LineState
Cache::peek(LineAddr line) const
{
    const Way* w = find(line);
    return w ? w->state : LineState::invalid;
}

Cache::Victim
Cache::insert(LineAddr line, LineState state)
{
    CRONO_ASSERT(state != LineState::invalid, "cannot insert invalid line");
    CRONO_ASSERT(find(line) == nullptr, "double insert of cached line");
    Way* const set = setOf(line);
    // A set's first insert fills its way 0, whose lru then stays
    // nonzero until reset().
    if (set->lru == 0) {
        touchedSets_.push_back(
            static_cast<std::uint32_t>(line & (numSets_ - 1)));
    }

    // Victim: the first invalid way, else the LRU way (first on ties).
    Way* target = nullptr;
    for (std::uint32_t i = 0; i < numWays_; ++i) {
        Way& w = set[i];
        if (w.state == LineState::invalid) {
            target = &w;
            break;
        }
        if (target == nullptr || w.lru < target->lru) {
            target = &w;
        }
    }

    Victim victim;
    if (target->state != LineState::invalid) {
        victim = {true, target->line, target->state};
    }
    target->line = line;
    target->state = state;
    target->lru = ++useClock_;
    return victim;
}

void
Cache::setState(LineAddr line, LineState state)
{
    Way* w = find(line);
    CRONO_ASSERT(w != nullptr, "setState on absent line");
    CRONO_ASSERT(state != LineState::invalid,
                 "use invalidate() to drop a line");
    w->state = state;
}

LineState
Cache::invalidate(LineAddr line)
{
    Way* w = find(line);
    if (w == nullptr) {
        return LineState::invalid;
    }
    const LineState prior = w->state;
    w->state = LineState::invalid;
    return prior;
}

std::size_t
Cache::occupancy() const
{
    std::size_t n = 0;
    for (const Way& w : ways_) {
        if (w.state != LineState::invalid) {
            ++n;
        }
    }
    return n;
}

void
Cache::reset()
{
    for (const std::uint32_t set : touchedSets_) {
        std::fill_n(ways_.begin() + std::size_t{set} * numWays_, numWays_,
                    Way{});
    }
    touchedSets_.clear();
    useClock_ = 0;
}

} // namespace crono::sim
