/**
 * @file
 * ACKwise-k sharer tracking (Kurian et al., the directory the paper's
 * Table II configures as "ACKwise4").
 *
 * Up to k sharers are tracked by precise core pointers. When an
 * (k+1)-th sharer joins, the entry switches to overflow mode: only
 * the sharer *count* is maintained, and invalidations must broadcast
 * to every core, collecting acks counted against that total.
 */

#ifndef CRONO_SIM_DIRECTORY_H_
#define CRONO_SIM_DIRECTORY_H_

#include <array>
#include <cstdint>

#include "common/macros.h"

namespace crono::sim {

/** Maximum supported precise pointers per entry. */
inline constexpr int kMaxAckwisePointers = 8;

/** Sharer set of one directory entry under the ACKwise-k scheme. */
class AckwiseSharers {
  public:
    explicit AckwiseSharers(int k) : k_(k)
    {
        CRONO_ASSERT(k >= 1 && k <= kMaxAckwisePointers,
                     "ACKwise pointer count out of range");
        pointers_.fill(-1);
    }

    /** Number of sharers (exact even in overflow mode). */
    int count() const { return count_; }

    /** True once precise identities have been lost. */
    bool overflowed() const { return overflowed_; }

    bool empty() const { return count_ == 0; }

    /**
     * Record @p core as a sharer.
     * @pre core is not already a precise pointer (callers look up
     *      their own L1 first); in overflow mode duplicates cannot be
     *      detected and the caller must not add one.
     */
    void
    add(int core)
    {
        if (!overflowed_) {
            for (int i = 0; i < k_; ++i) {
                if (pointers_[i] < 0) {
                    pointers_[i] = core;
                    ++count_;
                    return;
                }
            }
            // All k pointers in use: degrade to count-only tracking.
            overflowed_ = true;
        }
        ++count_;
    }

    /**
     * Remove @p core if trackable. In overflow mode only the count is
     * decremented; identities stay unknown until the set empties.
     */
    void
    remove(int core)
    {
        CRONO_ASSERT(count_ > 0, "remove from empty sharer set");
        if (!overflowed_) {
            for (int i = 0; i < k_; ++i) {
                if (pointers_[i] == core) {
                    pointers_[i] = -1;
                    --count_;
                    return;
                }
            }
            CRONO_ASSERT(false, "precise sharer not found");
        }
        if (--count_ == 0) {
            clear();
        }
    }

    /** True if @p core is known to share. Only precise when tracked. */
    bool
    contains(int core) const
    {
        if (overflowed_) {
            return count_ > 0; // conservative: anyone may share
        }
        for (int i = 0; i < k_; ++i) {
            if (pointers_[i] == core) {
                return true;
            }
        }
        return false;
    }

    /**
     * Call @p visit(core) for each precise pointer, in slot order
     * (meaningful only when !overflowed()).
     */
    template <typename Visit>
    void
    forEachPointer(Visit&& visit) const
    {
        for (int i = 0; i < k_; ++i) {
            if (pointers_[i] >= 0) {
                visit(pointers_[i]);
            }
        }
    }

    void
    clear()
    {
        pointers_.fill(-1);
        count_ = 0;
        overflowed_ = false;
    }

  private:
    std::array<int, kMaxAckwisePointers> pointers_;
    int k_;
    int count_ = 0;
    bool overflowed_ = false;
};

/** Directory-side view of one line's global coherence state. */
enum class DirState : std::uint8_t {
    uncached = 0,  ///< no L1 holds the line
    shared,        ///< >= 1 L1 in S
    exclusive,     ///< exactly one L1 owner in E or M
};

/** Directory entry stored alongside each L2 line. */
struct DirEntry {
    explicit DirEntry(int k) : sharers(k) {}

    DirState state = DirState::uncached;
    AckwiseSharers sharers;
    int owner = -1;  ///< valid when state == exclusive
};

} // namespace crono::sim

#endif // CRONO_SIM_DIRECTORY_H_
