#include "sim/simulator.hh"

#include <atomic>
#include <limits>

#include "bt/translation_cache.hh"
#include "common/logging.hh"
#include "common/malloc_tuning.hh"
#include "sim/sim_machine.hh"
#include "telemetry/profiler.hh"
#include "verify/invariant_auditor.hh"
#include "workload/spec_io.hh"

namespace powerchop
{

namespace
{

/** Instructions simulated process-wide (all threads). */
std::atomic<std::uint64_t> instructionTally{0};

} // namespace

InsnCount
simulatedInstructionTally()
{
    return instructionTally.load(std::memory_order_relaxed);
}

SimResult
simulate(const MachineConfig &machine, const WorkloadSpec &workload,
         const SimOptions &opts)
{
    // First call per process: stop the allocator from returning the
    // per-job tables to the kernel between jobs (common/malloc_tuning
    // .hh); purely a host-side tweak, results are unaffected.
    tuneAllocatorForSimulation();

    telemetry::StageProfiler *profiler = opts.profiler;
    if (!profiler && telemetry::StageProfiler::global().enabled())
        profiler = &telemetry::StageProfiler::global();
    telemetry::ScopedStageTimer translate_timer(profiler, "translate");
    SimMachine m(machine, workload, opts);

    // Shared translation metadata: jobs of the same workload in a
    // batch derive the trace metadata once and share it. Purely a
    // build-cost optimization — the translator produces bit-identical
    // translations either way.
    std::shared_ptr<const TranslationMetadataSet> trans_meta;
    if (opts.translationCache) {
        trans_meta = opts.translationCache->acquire(
            workloadContentKey(workload), m.gen.program(),
            machine.bt.translator);
        m.bt.setTranslationMetadata(trans_meta.get());
    }

    const CoreParams &core = machine.core;
    const double slot = 1.0 / core.issueWidth;

    Cycles cycles = m.start();
    // Scalars rather than a LoopCounters, so they can live in
    // registers; collect() gets them packed at the end.
    std::uint64_t branch_lookups = 0, branch_mispredicts = 0;
    std::uint64_t bpu_large_lookups = 0, mlc_accesses = 0;
    ActivityRecord act;

    // Stream detector for the MLP/prefetch model: misses adjacent to
    // the previous miss are largely hidden.
    Addr last_miss_line = ~static_cast<Addr>(0);
    const Addr line_shift = 6;

    // The per-interval sampler as a countdown: one predictable
    // decrement-and-test per instruction, and the std::function is
    // only touched when a sample actually fires. "Disabled" is a
    // countdown that cannot reach zero within any realistic budget.
    const InsnCount sample_interval = opts.sampleInterval;
    InsnCount until_sample = sample_interval
        ? sample_interval
        : std::numeric_limits<InsnCount>::max();

    // Cached destination for the per-policy MLC access counters,
    // refreshed only when the controller's MLC policy epoch moves.
    double *mlc_counter = &act.mlcAccessesFull;
    std::uint64_t mlc_epoch = std::numeric_limits<std::uint64_t>::max();

    translate_timer.stop();

    // Decode every block into its structure-of-arrays slot stream
    // (workload/block_batch.hh), attributed to its own stage.
    {
        telemetry::ScopedStageTimer decode_timer(profiler, "decode");
        m.gen.prepareBatches();
    }

    telemetry::ScopedStageTimer simulate_timer(profiler, "simulate");

    // The loop runs one basic block per iteration: the head work
    // (trace matching, region entry, baseline gater ticks) happens
    // once per block, then the block body executes as a burst over
    // its pre-decoded slot stream with no per-instruction dispatch.
    // The generator is at a block head whenever control reaches the
    // top of this loop.
    const InsnCount max_insns = opts.maxInstructions;

    // In-burst cancellation poll period: block heads poll the flag
    // anyway, this bounds the latency inside giant blocks.
    constexpr InsnCount cancel_check_interval = 64 * 1024;
    InsnCount until_cancel = cancel_check_interval;

    InsnCount n = 0;
    // One more instruction retired: fire the sampler and the in-burst
    // cancellation poll when their countdowns run out.
    auto retire = [&]() {
        ++n;
        if (--until_sample == 0) {
            opts.sampler(n, cycles);
            until_sample = sample_interval;
        }
        if (--until_cancel == 0) {
            until_cancel = cancel_check_interval;
            m.pollCancel(n);
        }
    };

    while (n < max_insns) {
        m.pollCancel(n);
        cycles = m.blockHead(n, cycles);

        // Execution mode is fixed for the whole block.
        const double insn_cycles =
            m.interpreting() ? core.interpreterCpi : slot;

        // The burst executes the pre-decoded slot stream directly
        // (workload/block_batch.hh). Program order is preserved slot
        // by slot — every RNG draw, FP cycle add, cache access and
        // predictor update happens in exactly the order the pull-model
        // generator produced — so results stay bit-identical to
        // referenceSimulate().
        // The burst is the whole block, terminator included, unless the
        // budget ends inside it (which ends the run).
        const DecodedBlock &db =
            m.gen.decodedBlock(m.gen.currentBlock());
        InsnCount burst = db.numInsns;
        if (burst > max_insns - n)
            burst = max_insns - n;
        m.insnsSinceHead += burst;

        InsnCount left = burst;
        std::uint64_t simd_committed = 0;

        const DecodedSlot *s = db.slots;
        const DecodedSlot *const s_end = db.slots + db.numSlots;
        for (; s != s_end && left != 0; ++s) {
            if (s->kind == SlotKind::AluRun) {
                // Fast path: a run of issue-slot-only instructions.
                // The cycle adds stay serial per instruction (FP
                // accumulation order is part of the bit-exact spec);
                // the sampler and cancellation countdowns split the
                // run only when they actually expire inside it.
                InsnCount run = s->count;
                if (run > left)
                    run = left;
                left -= run;
                while (run != 0) {
                    InsnCount chunk = run;
                    if (chunk > until_sample)
                        chunk = until_sample;
                    if (chunk > until_cancel)
                        chunk = until_cancel;
                    for (InsnCount k = 0; k != chunk; ++k)
                        cycles += insn_cycles;
                    n += chunk;
                    run -= chunk;
                    until_sample -= chunk;
                    until_cancel -= chunk;
                    if (until_sample == 0) {
                        opts.sampler(n, cycles);
                        until_sample = sample_interval;
                    }
                    if (until_cancel == 0) {
                        until_cancel = cancel_check_interval;
                        m.pollCancel(n);
                    }
                }
                continue;
            }

            cycles += insn_cycles;

            switch (s->kind) {
              case SlotKind::Simd: {
                cycles = m.simdUse(cycles);
                double slots = m.vpu.executeSimd();
                if (slots > 1.0) {
                    // Scalar emulation: the extra scalar ops occupy
                    // issue slots (and energy) in the rest of the
                    // core.
                    cycles += (slots - 1.0) * slot;
                    act.instructions += slots - 1.0;
                }
                ++simd_committed;
                break;
              }
              case SlotKind::Load:
              case SlotKind::Store: {
                const bool is_store = (s->kind == SlotKind::Store);
                const Addr eff_addr = m.gen.batchMemAddr();
                MemAccessResult r = m.mem.access(eff_addr, is_store);
                double scale = is_store ? core.storeStallFraction : 1.0;
                if (r.level == MemLevel::Mlc) {
                    cycles += core.mlcHitPenalty * scale;
                    if (r.mlcWokeDrowsy)
                        cycles +=
                            machine.drowsy.wakePenaltyCycles * scale;
                } else if (r.level == MemLevel::Memory) {
                    Addr line = eff_addr >> line_shift;
                    Addr delta = line > last_miss_line
                        ? line - last_miss_line : last_miss_line - line;
                    bool streamed = delta <= 2;
                    last_miss_line = line;
                    cycles += core.memoryPenalty * scale *
                              (streamed ? core.streamMissFactor : 1.0);
                }
                if (r.level != MemLevel::L1) {
                    ++mlc_accesses;
                    if (mlc_epoch != m.controller.mlcPolicyEpoch()) {
                        mlc_epoch = m.controller.mlcPolicyEpoch();
                        switch (m.controller.current().mlc) {
                          case MlcPolicy::AllWays:
                            mlc_counter = &act.mlcAccessesFull;
                            break;
                          case MlcPolicy::HalfWays:
                            mlc_counter = &act.mlcAccessesHalf;
                            break;
                          case MlcPolicy::QuarterWays:
                            mlc_counter = &act.mlcAccessesQuarter;
                            break;
                          case MlcPolicy::OneWay:
                            mlc_counter = &act.mlcAccessesOne;
                            break;
                        }
                    }
                    *mlc_counter += 1;
                }
                break;
              }
              case SlotKind::Branch: {
                // Internal conditional branch: outcome from its
                // process, target a short forward skip.
                const bool taken = m.gen.batchBranchOutcome(*s);
                BpuOutcome o = m.bpu.predict(
                    s->pc, taken, s->pc + 2 * guestInsnBytes);
                ++branch_lookups;
                if (m.bpu.largeOn())
                    ++bpu_large_lookups;
                if (o.directionMispredict) {
                    cycles += core.mispredictPenalty;
                    ++branch_mispredicts;
                } else if (o.targetMiss) {
                    cycles += core.btbMissPenalty;
                }
                break;
              }
              case SlotKind::AluRun:
                break;  // handled above
            }
            --left;
            retire();
        }

        if (left != 0) {
            // The terminator — reached exactly when the burst covers
            // the rest of the block. Region-chaining jump: direct-
            // chained in the region cache; only a changed target
            // costs a fetch bubble. batchFinishBlock() draws the
            // next-block pick after the body's address draws, as the
            // pull model does, and rolls the schedule.
            cycles += insn_cycles;
            const Addr target = m.gen.batchFinishBlock();
            BpuOutcome o = m.bpu.predictIndirect(db.termPc, target);
            if (o.targetMiss)
                cycles += core.btbMissPenalty;
            retire();
        } else {
            m.gen.batchConsumePartial(burst);
        }

        // Window counters are only read at block heads, so the whole
        // burst commits in one bulk update.
        m.monitor.onCommitBulk(burst, simd_committed);
    }

    simulate_timer.stop();

    cycles = m.finish(n, cycles);
    SimResult res = m.collect(n, cycles,
                              {branch_lookups, branch_mispredicts,
                               bpu_large_lookups, mlc_accesses},
                              act);

    if (opts.audit) {
        verify::InvariantAuditor auditor;
        verify::AuditReport audit = auditor.audit(res, machine);
        if (opts.trace) {
            for (const auto &v : auditor.auditTrace(*opts.trace).violations)
                audit.violations.push_back(v);
        }
        if (!audit.ok()) {
            throw verify::InvariantViolationError(csprintf(
                "simulate(%s on %s, %s): %s", workload.name.c_str(),
                machine.name.c_str(), simModeName(opts.mode),
                audit.toString().c_str()));
        }
    }

    instructionTally.fetch_add(res.instructions,
                               std::memory_order_relaxed);
    return res;
}

} // namespace powerchop
