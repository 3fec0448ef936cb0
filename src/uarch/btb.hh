/**
 * @file
 * Branch target buffer: a set-associative cache of branch targets.
 *
 * The paper's Table I gives the small BPU a 1K-entry (mobile: 512)
 * BTB and the large BPU a 4K-entry (mobile: 2K) BTB. Taken branches
 * whose targets miss in the active BTB cost a fetch bubble.
 */

#ifndef POWERCHOP_UARCH_BTB_HH
#define POWERCHOP_UARCH_BTB_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"

namespace powerchop
{

/** Set-associative branch target buffer with LRU replacement. */
class Btb
{
  public:
    /**
     * @param entries Total entries (power of two).
     * @param assoc   Associativity (divides entries).
     */
    explicit Btb(unsigned entries = 1024, unsigned assoc = 4);

    /**
     * Look up the predicted target for a branch, then install the
     * actual target.
     *
     * @param pc     Branch PC.
     * @param target Actual resolved target.
     * @return true if the BTB held the correct target (hit).
     */
    bool
    predictAndUpdate(Addr pc, Addr target)
    {
        ++lookups_;
        ++tick_;

        const std::size_t set = (pc >> 2) & (numSets_ - 1);
        Entry *base = &table_[set * assoc_];

        // Full match scan first, then victim selection: prefer the
        // first invalid way, else the LRU way.
        Entry *match = nullptr;
        for (unsigned w = 0; w < assoc_; ++w) {
            Entry &e = base[w];
            if (e.valid && e.pc == pc) {
                match = &e;
                break;
            }
        }
        Entry *victim = &base[0];
        if (!match) {
            for (unsigned w = 0; w < assoc_; ++w) {
                Entry &e = base[w];
                if (!e.valid) {
                    victim = &e;
                    break;
                }
                if (e.lruStamp < victim->lruStamp)
                    victim = &e;
            }
        }

        bool hit = false;
        if (match) {
            hit = (match->target == target);
            match->target = target;
            match->lruStamp = tick_;
        } else {
            victim->valid = true;
            victim->pc = pc;
            victim->target = target;
            victim->lruStamp = tick_;
        }

        return hit;
    }

    /** Drop all entries (state loss from power gating). */
    void reset();

    std::uint64_t lookups() const { return lookups_; }
    unsigned numEntries() const { return entries_; }

  private:
    struct Entry
    {
        bool valid = false;
        Addr pc = 0;
        Addr target = 0;
        std::uint64_t lruStamp = 0;
    };

    unsigned entries_;
    unsigned assoc_;
    unsigned numSets_;
    std::vector<Entry> table_;
    std::uint64_t tick_ = 0;
    std::uint64_t lookups_ = 0;
};

} // namespace powerchop

#endif // POWERCHOP_UARCH_BTB_HH
