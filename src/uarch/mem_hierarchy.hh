/**
 * @file
 * The data memory hierarchy: a fixed L1 in front of the way-gateable
 * MLC, backed by main memory (the LLC/memory side is modelled as a
 * flat latency).
 */

#ifndef POWERCHOP_UARCH_MEM_HIERARCHY_HH
#define POWERCHOP_UARCH_MEM_HIERARCHY_HH

#include <cstdint>

#include "common/types.hh"
#include "uarch/cache.hh"

namespace powerchop
{

/** Where a memory access was serviced. */
enum class MemLevel : std::uint8_t
{
    L1,      ///< Hit in the (always-on) L1.
    Mlc,     ///< Hit in the middle-level cache.
    Memory,  ///< Missed everywhere; serviced by memory.
};

/** Result of one memory reference through the hierarchy. */
struct MemAccessResult
{
    MemLevel level = MemLevel::L1;
    /** Dirty line written back from the MLC on this access. */
    bool mlcWriteback = false;
    /** The MLC hit woke a drowsy line (drowsy baseline). */
    bool mlcWokeDrowsy = false;
};

/**
 * Two-level data hierarchy (L1 + MLC) with way gating on the MLC.
 *
 * The L1 is not managed by PowerChop and is always fully powered;
 * it exists so the MLC sees a realistic filtered reference stream
 * (Section III: MLC accesses occur roughly once per 100-200
 * instructions).
 *
 * Criticality profiling reads a *shadow tag array*: a tag-only copy
 * of the MLC at full associativity that is never way-gated, in the
 * style of UCP-like shadow-tag monitors. The CDE's Phase_L2Hit
 * counter therefore measures the hits the full MLC *would* provide,
 * independent of its current gating state — otherwise a way-gated
 * phase measures few hits and stays gated forever (see DESIGN.md).
 */
class MemHierarchy
{
  public:
    /**
     * @param l1  L1 geometry.
     * @param mlc MLC geometry (the unit PowerChop manages).
     */
    MemHierarchy(const CacheParams &l1, const CacheParams &mlc);

    /** Run one reference through L1 then (on miss) the MLC. Defined
     *  inline below so the whole lookup chain folds into the
     *  simulation loop's memory pass. */
    MemAccessResult access(Addr addr, bool write);

    /**
     * Set the active way count of the MLC.
     * @return the number of dirty lines written back.
     */
    std::uint64_t setMlcActiveWays(unsigned ways);

    const SetAssocCache &l1() const { return l1_; }
    const SetAssocCache &mlc() const { return mlc_; }
    SetAssocCache &mlc() { return mlc_; }

    /** Window counters for CDE profiling (MLC side): hits in the
     *  never-gated shadow tag array. @{ */
    std::uint64_t mlcWindowHits() const { return shadowMlc_.windowHits(); }
    void resetWindowStats();
    /** @} */

  private:
    SetAssocCache l1_;
    SetAssocCache mlc_;
    /** Tag-only shadow of the MLC at full ways; profiling only. */
    SetAssocCache shadowMlc_;
};

inline MemAccessResult
MemHierarchy::access(Addr addr, bool write)
{
    MemAccessResult res;

    CacheAccessResult l1r = l1_.access(addr, write);
    if (l1r.hit) {
        res.level = MemLevel::L1;
        return res;
    }

    // L1 victim write-backs also pass through the MLC; modelling them
    // as MLC writes keeps dirty state in the MLC realistic.
    CacheAccessResult l2r = mlc_.access(addr, write || l1r.dirtyEviction);
    // The shadow tag array sees the same filtered stream but is never
    // gated; its hits feed criticality profiling.
    shadowMlc_.access(addr, false);
    res.level = l2r.hit ? MemLevel::Mlc : MemLevel::Memory;
    res.mlcWriteback = l2r.dirtyEviction;
    res.mlcWokeDrowsy = l2r.wokeDrowsy;
    return res;
}

} // namespace powerchop

#endif // POWERCHOP_UARCH_MEM_HIERARCHY_HH
