/**
 * @file
 * Set-associative cache model with true-LRU replacement.
 *
 * Purely structural: tracks which lines are present in which MESI
 * state and decides evictions. Timing, coherence actions and miss
 * classification live in the memory system that owns the caches.
 */

#ifndef CRONO_SIM_CACHE_H_
#define CRONO_SIM_CACHE_H_

#include <cstdint>
#include <vector>

#include "sim/config.h"

namespace crono::sim {

/** MESI state of a cached line. */
enum class LineState : std::uint8_t {
    invalid = 0,
    shared,
    exclusive,
    modified,
};

/** Cache-line-address type: byte address >> log2(line size). */
using LineAddr = std::uint64_t;

/**
 * One cache (an L1 or one NUCA L2 slice).
 *
 * Lookups update LRU; insertions evict the LRU way of the set and
 * report what was evicted so the owner can handle write-backs and
 * inclusive invalidations.
 */
class Cache {
  public:
    /** Result of insert(): the displaced victim, if any. */
    struct Victim {
        bool valid = false;
        LineAddr line = 0;
        LineState state = LineState::invalid;
    };

    Cache(const CacheConfig& cfg, std::uint32_t line_bytes);

    /** Number of sets. */
    std::uint32_t numSets() const { return numSets_; }

    /**
     * Look up @p line; bumps LRU on hit.
     * @return current state, or LineState::invalid on miss.
     */
    LineState lookup(LineAddr line);

    /** Peek at state without touching LRU. */
    LineState peek(LineAddr line) const;

    /**
     * Insert @p line in @p state, evicting the set's LRU way if the
     * set is full. @pre line is not already present.
     */
    Victim insert(LineAddr line, LineState state);

    /** Change the state of a present line. @pre present. */
    void setState(LineAddr line, LineState state);

    /** Drop @p line if present; returns its prior state. */
    LineState invalidate(LineAddr line);

    /** Number of valid lines currently held (O(capacity), for tests). */
    std::size_t occupancy() const;

    /**
     * Return to the freshly constructed state. Clears only the sets
     * insert() has touched since construction or the last reset().
     */
    void reset();

  private:
    struct Way {
        LineAddr line = 0;
        std::uint64_t lru = 0;
        LineState state = LineState::invalid;
    };

    Way* find(LineAddr line);
    const Way* find(LineAddr line) const;
    /** First way of @p line's set; the set's ways follow it. */
    Way* setOf(LineAddr line);

    std::vector<Way> ways_; // [set][way], numSets_ x numWays_
    std::vector<std::uint32_t> touchedSets_; // for reset()
    std::uint64_t useClock_ = 0;
    std::uint32_t numSets_;
    std::uint32_t numWays_;
};

} // namespace crono::sim

#endif // CRONO_SIM_CACHE_H_
