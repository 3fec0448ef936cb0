#include "verify/reference_simulator.hh"

#include "sim/sim_machine.hh"

namespace powerchop
{
namespace verify
{

SimResult
referenceSimulate(const MachineConfig &machine,
                  const WorkloadSpec &workload, const SimOptions &opts)
{
    SimMachine m(machine, workload, opts);
    const CoreParams &core = machine.core;
    const double slot = 1.0 / core.issueWidth;

    Cycles cycles = m.start();
    LoopCounters loop;
    ActivityRecord act;

    Addr last_miss_line = ~static_cast<Addr>(0);
    const Addr line_shift = 6;

    // --- The reference loop --------------------------------------------
    // Strictly one instruction per iteration. Head work runs whenever
    // the generator sits at a block head; the execution mode, sampler
    // decision and MLC counter destination are all re-derived from
    // first principles at each instruction instead of being hoisted,
    // counted down or cached.
    const InsnCount max_insns = opts.maxInstructions;
    for (InsnCount n = 0; n < max_insns; ++n) {
        if (m.gen.atBlockHead()) {
            m.pollCancel(n);
            cycles = m.blockHead(n, cycles);
        }

        const DynInst &di = m.gen.next();
        const OpClass op = di.op();
        m.monitor.onCommit(op);
        ++m.insnsSinceHead;

        cycles += m.interpreting() ? core.interpreterCpi : slot;

        switch (op) {
          case OpClass::SimdOp: {
            cycles = m.simdUse(cycles);
            double slots = m.vpu.executeSimd();
            if (slots > 1.0) {
                cycles += (slots - 1.0) * slot;
                act.instructions += slots - 1.0;
            }
            break;
          }
          case OpClass::Load:
          case OpClass::Store: {
            const bool is_store = (op == OpClass::Store);
            MemAccessResult r = m.mem.access(di.effAddr, is_store);
            double scale = is_store ? core.storeStallFraction : 1.0;
            if (r.level == MemLevel::Mlc) {
                cycles += core.mlcHitPenalty * scale;
                if (r.mlcWokeDrowsy)
                    cycles += machine.drowsy.wakePenaltyCycles * scale;
            } else if (r.level == MemLevel::Memory) {
                Addr line = di.effAddr >> line_shift;
                Addr delta = line > last_miss_line
                    ? line - last_miss_line : last_miss_line - line;
                bool streamed = delta <= 2;
                last_miss_line = line;
                cycles += core.memoryPenalty * scale *
                          (streamed ? core.streamMissFactor : 1.0);
            }
            if (r.level != MemLevel::L1) {
                ++loop.mlcAccesses;
                // Re-dispatch on the live policy at every access.
                switch (m.controller.current().mlc) {
                  case MlcPolicy::AllWays:
                    act.mlcAccessesFull += 1;
                    break;
                  case MlcPolicy::HalfWays:
                    act.mlcAccessesHalf += 1;
                    break;
                  case MlcPolicy::QuarterWays:
                    act.mlcAccessesQuarter += 1;
                    break;
                  case MlcPolicy::OneWay:
                    act.mlcAccessesOne += 1;
                    break;
                }
            }
            break;
          }
          case OpClass::Branch: {
            if (di.isTerminator) {
                BpuOutcome o = m.bpu.predictIndirect(di.pc(), di.target);
                if (o.targetMiss)
                    cycles += core.btbMissPenalty;
                break;
            }
            BpuOutcome o = m.bpu.predict(di.pc(), di.taken, di.target);
            ++loop.branchLookups;
            if (m.bpu.largeOn())
                ++loop.bpuLargeLookups;
            if (o.directionMispredict) {
                cycles += core.mispredictPenalty;
                ++loop.branchMispredicts;
            } else if (o.targetMiss) {
                cycles += core.btbMissPenalty;
            }
            break;
          }
          case OpClass::IntAlu:
          case OpClass::FpAlu:
            break;
        }

        if (opts.sampleInterval &&
            (n + 1) % opts.sampleInterval == 0)
            opts.sampler(n + 1, cycles);
    }

    cycles = m.finish(max_insns, cycles);
    return m.collect(max_insns, cycles, loop, act);
}

} // namespace verify
} // namespace powerchop
