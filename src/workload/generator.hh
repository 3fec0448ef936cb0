/**
 * @file
 * The workload generator: materializes a WorkloadSpec into a guest
 * Program and produces its dynamic instruction stream.
 *
 * Code layout: each phase gets its own cluster of basic blocks (hot
 * blocks with geometrically decaying execution weights plus a cold
 * tail). Block bodies are sampled from the phase's instruction mix;
 * internal conditional branches get outcome processes from the phase's
 * predictability mix. Block terminators are modelled as indirect
 * region-chaining jumps: always taken, with the target sampled from
 * the hot-weight distribution (occasionally escaping to a cold block).
 * This decouples block hotness (what the HTB sees) from conditional
 * branch predictability (what the BPU criticality score sees), while
 * keeping both derived from one genuine instruction stream.
 */

#ifndef POWERCHOP_WORKLOAD_GENERATOR_HH
#define POWERCHOP_WORKLOAD_GENERATOR_HH

#include <memory>
#include <vector>

#include "common/arena.hh"
#include "common/random.hh"
#include "isa/program.hh"
#include "workload/address_stream.hh"
#include "workload/block_batch.hh"
#include "workload/branch_behavior.hh"
#include "workload/workload.hh"

namespace powerchop
{

/**
 * Generates the dynamic instruction stream of a synthetic workload.
 *
 * Usage: construct from a validated WorkloadSpec, then repeatedly call
 * next() to obtain dynamic instructions. The stream is infinite (the
 * schedule loops); callers bound the run by instruction count.
 */
class WorkloadGenerator
{
  public:
    explicit WorkloadGenerator(const WorkloadSpec &spec);

    ~WorkloadGenerator();
    WorkloadGenerator(const WorkloadGenerator &) = delete;
    WorkloadGenerator &operator=(const WorkloadGenerator &) = delete;

    /** @return the next dynamic instruction. The reference stays valid
     *  until the following call. */
    const DynInst &next();

    /** @return the synthesized guest program. */
    const Program &program() const { return *program_; }

    /** @return the workload spec this generator was built from. */
    const WorkloadSpec &spec() const { return spec_; }

    /** @return the schedule phase index currently executing. */
    unsigned currentPhase() const { return curPhaseIdx_; }

    /** @return total dynamic instructions emitted so far. */
    InsnCount instructionsEmitted() const { return emitted_; }

    /** @return true if the instruction about to be emitted is the
     *  first of a new basic block (a potential translation head). */
    bool atBlockHead() const { return instPos_ == 0; }

    /** @return the id of the block currently executing. */
    BlockId currentBlock() const { return curBlock_; }

    // --- Batch (structure-of-arrays) execution API ----------------------
    //
    // The simulator's hot loop consumes whole blocks through this API
    // instead of pulling DynInsts one at a time. The dynamic stream is
    // bit-identical to next()'s: static structure is pre-decoded, but
    // every RNG draw (addresses, branch outcomes, next-block picks)
    // happens at consumption time in exact program order. The two
    // styles may even be interleaved (block-aligned): next() and the
    // batch calls maintain the same cursor state.

    /**
     * Decode every block into its flat slot stream (block_batch.hh).
     * Idempotent; must be called before the other batch calls. Split
     * out of the constructor so callers can attribute its cost to a
     * separate profiling stage.
     */
    void prepareBatches();

    /** @return the decoded form of a block (prepareBatches first). */
    const DecodedBlock &
    decodedBlock(BlockId id) const
    {
        return decoded_[id];
    }

    /** @return the next memory effective address (one per Load/Store
     *  slot, consumed in program order). */
    Addr batchMemAddr() { return curMem_->next(rng_); }

    /** @return the next outcome of an internal branch slot. */
    bool
    batchBranchOutcome(const DecodedSlot &slot)
    {
        return branchEngine_.nextOutcome(*slot.behavior, *slot.runtime);
    }

    /**
     * Execute the current block's terminator and complete the block:
     * picks the next block, rolls the schedule (collapsing the
     * per-instruction decrements of every instruction executed since
     * the block was entered), and applies any phase change.
     *
     * @return the terminator's taken target (the next block's head).
     */
    Addr batchFinishBlock();

    /**
     * Account for a partial burst: `insns` body instructions consumed
     * (terminator not reached). Used when the instruction budget
     * clamps a burst mid-block.
     */
    void batchConsumePartial(InsnCount insns);

  private:
    /** Per-phase runtime state. */
    struct PhaseState;

    void buildProgram();
    void buildCluster(unsigned phase_idx, Addr base);

    /** Advance the schedule cursor if the current entry is spent. */
    void advanceSchedule();

    /** Pick the next block within the current phase's cluster. */
    BlockId pickNextBlock();

    WorkloadSpec spec_;
    std::unique_ptr<Program> program_;
    Rng rng_;
    BranchOutcomeEngine branchEngine_;

    /** Per-phase state: block lists, weights, address stream, branch
     *  runtime state. */
    std::vector<std::unique_ptr<PhaseState>> phaseStates_;

    /** Arena holding the decoded slot streams (and other same-lifetime
     *  decode tables); freed wholesale with the generator. */
    Arena arena_;

    /** Decoded form of every block, indexed by BlockId; empty until
     *  prepareBatches(). */
    std::vector<DecodedBlock> decoded_;

    /** Head PC of every block, flattened so the hot batch paths skip
     *  the Program::block indirection; filled by prepareBatches(). */
    std::vector<Addr> heads_;

    /** The current phase's address stream (kept in sync with
     *  curPhaseIdx_ so the batch memory path is one indirect call). */
    AddressStream *curMem_ = nullptr;

    // Schedule cursor.
    unsigned schedPos_ = 0;
    InsnCount schedRemaining_ = 0;
    unsigned curPhaseIdx_ = 0;

    // Execution cursor.
    BlockId curBlock_ = invalidBlockId;
    std::size_t instPos_ = 0;
    /** When a cold block finishes it returns to the hot set. */
    DynInst out_;
    InsnCount emitted_ = 0;
};

} // namespace powerchop

#endif // POWERCHOP_WORKLOAD_GENERATOR_HH
