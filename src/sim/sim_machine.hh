/**
 * @file
 * The simulated machine that both driver loops run: simulate()'s
 * burst loop (sim/simulator.cc) and the reference oracle's strictly
 * one-instruction-per-iteration loop (verify/reference_simulator.cc).
 *
 * SimMachine assembles the components for one (machine, workload,
 * options) run, owns the operating mode, applies the pre-run policy,
 * wires the trace and metrics sinks, does the block-head work (trace
 * following, region entry, PowerChop's translation-head credit, the
 * baseline gaters' ticks) and the SIMD-use hook, flushes the run's
 * tail and turns the finished run into a SimResult. The loops own only
 * the instruction stream: the cycle and instruction counts, the
 * per-slot timing, the sampler and cancellation. So mode dispatch, the
 * tail flush and the result/energy arithmetic exist once, and the
 * differential check compares exactly the two loops.
 *
 * Every hook takes the loop's cycle count and returns it advanced by
 * the stalls it charged, in the order the additions always happened
 * (floating-point sums are order-sensitive); the loop keeps `cycles`
 * in a local. Internal to the two simulators.
 */

#ifndef POWERCHOP_SIM_SIM_MACHINE_HH
#define POWERCHOP_SIM_SIM_MACHINE_HH

#include <optional>

#include "core/perf_monitor.hh"
#include "sim/simulator.hh"
#include "telemetry/metrics.hh"

namespace powerchop
{

/** Events a driver loop counts while it executes; collect() folds
 *  them into the result. */
struct LoopCounters
{
    std::uint64_t branchLookups = 0, branchMispredicts = 0;
    std::uint64_t bpuLargeLookups = 0, mlcAccesses = 0;
};

/** One run's machine: components, operating mode and sinks, plus the
 *  hooks both driver loops call (see the file comment). */
class SimMachine
{
  public:
    /** Validates the config before building anything, and refuses a
     *  zero instruction budget. */
    SimMachine(const MachineConfig &config,
               const WorkloadSpec &workload, const SimOptions &opts);

    /** Detaches the metrics probes, including on cancellation. */
    ~SimMachine();

    /** The components and sinks hold each other's addresses. */
    SimMachine(const SimMachine &) = delete;
    SimMachine &operator=(const SimMachine &) = delete;

    /** The pre-run policy: MinPower and StaticPolicy set every unit
     *  before the first instruction. @return the run's start cycle. */
    Cycles start();

    /**
     * Head work for the block the generator is about to execute, at
     * instruction `n`: stay on the current translation's trace while
     * the block sequence follows it, else look the region up (at a
     * translated head PowerChop credits insnsSinceHead to the previous
     * translation); then tick the baseline gaters.
     */
    Cycles
    blockHead(InsnCount n, Cycles cycles)
    {
        const BlockId blk = gen.currentBlock();
        if (curTrace_ && traceIdx_ < curTrace_->blocks.size() &&
            curTrace_->blocks[traceIdx_] == blk) {
            ++traceIdx_;
            interpreting_ = false;
        } else {
            cycles = enterRegion(n, cycles, blk);
        }
        if (useTimeout_) {
            accrue(cycles);
            cycles += timeout_.checkIdle(cycles);
        }
        if (useDrowsy_)
            drowsy_.tick(cycles);
        return cycles;
    }

    /** Throws SimCancelledError once opts.cancelFlag is raised. */
    void
    pollCancel(InsnCount done) const
    {
        if (opts_.cancelFlag &&
            opts_.cancelFlag->load(std::memory_order_relaxed))
            cancelled(done);
    }

    /** Whether the current block runs in the interpreter. */
    bool interpreting() const { return interpreting_; }

    /** A SIMD instruction is about to execute. */
    Cycles
    simdUse(Cycles cycles)
    {
        if (useTimeout_)
            cycles += timeout_.onSimdUse(cycles);
        return cycles;
    }

    /**
     * End of the run after `n` instructions: credit the instructions
     * since the last translated head (else the last HTB window of
     * every run would be lost), close the residency accounts and end
     * the trace.
     */
    Cycles finish(InsnCount n, Cycles cycles);

    /** The result of a finished run. `loopActivity` carries the
     *  loop's extra slots of emulated SIMD ops (`instructions`) and
     *  its per-policy MLC accesses; collect() fills in the rest. Both
     *  by reference: a by-value ActivityRecord costs simulate() its
     *  frame-pointer-free stack frame. */
    SimResult collect(InsnCount n, Cycles cycles,
                      const LoopCounters &loop,
                      const ActivityRecord &loopActivity);

    const MachineConfig &machine;
    WorkloadGenerator gen;
    BtSystem bt;
    BpuComplex bpu;
    MemHierarchy mem;
    Vpu vpu;
    GatingController controller;
    PerfMonitor monitor;

    /** Instructions since the last region entry; the loop adds. */
    InsnCount insnsSinceHead = 0;

  private:
    /** Charge the cycles since the last accrual to the policy in
     *  effect when they elapsed. Transition stalls are charged to the
     *  *new* policy (lastAccrue_ stays at the pre-stall time), so
     *  per-unit residencies sum to the run's total cycles, the
     *  conservation law the invariant auditor checks. */
    void
    accrue(Cycles cycles)
    {
        if (cycles > lastAccrue_) {
            controller.accrue(cycles - lastAccrue_);
            lastAccrue_ = cycles;
        }
    }

    [[noreturn]] void cancelled(InsnCount done) const;

    /** A region-cache lookup for `blk`, off the current trace. */
    Cycles
    enterRegion(InsnCount n, Cycles cycles, BlockId blk)
    {
        curTrace_ = nullptr;
        const RegionEntry entry = bt.enterRegion(blk);
        cycles += entry.extraCycles;
        interpreting_ = entry.mode == ExecMode::Interpreted;
        if (entry.mode == ExecMode::Translated) {
            if (usePowerChop_ && lastTrans_ != invalidTranslationId)
                cycles = creditTranslation(n, cycles);
            lastTrans_ = entry.translation->id;
            curTrace_ = entry.translation;
            traceIdx_ = 1;
        } else {
            lastTrans_ = invalidTranslationId;
        }
        insnsSinceHead = 0;
        return cycles;
    }

    /** PowerChop's credit of insnsSinceHead to lastTrans_, at `n`. */
    Cycles
    creditTranslation(InsnCount n, Cycles cycles)
    {
        accrue(cycles);
        if (opts_.trace)
            opts_.trace->setNow(n, cycles);
        return cycles +
            pchop_.onTranslationHead(lastTrans_, insnsSinceHead, cycles);
    }

    const SimOptions &opts_;
    const bool usePowerChop_;
    const bool useTimeout_;
    const bool useDrowsy_;

    PowerChopUnit pchop_;
    /** Per-run fault source: seeded from the config, private to this
     *  run, so fault sequences are deterministic on any worker count. */
    FaultInjector injector_;
    TimeoutGater timeout_;
    DrowsyMlc drowsy_;
    CorePowerModel powerModel_;

    std::optional<telemetry::WindowMetricsCollector> collector_;

    Cycles lastAccrue_ = 0;
    TranslationId lastTrans_ = invalidTranslationId;
    bool interpreting_ = true;

    /** Multi-block trace execution: while the dynamic block sequence
     *  matches the current translation's trace, execution stays inside
     *  it, with no region-cache lookup and no new translation head
     *  until the trace exits (side exit or completion). */
    const Translation *curTrace_ = nullptr;
    std::size_t traceIdx_ = 0;
};

} // namespace powerchop

#endif // POWERCHOP_SIM_SIM_MACHINE_HH
