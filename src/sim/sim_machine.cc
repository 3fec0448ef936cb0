#include "sim/sim_machine.hh"

#include "common/logging.hh"

namespace powerchop
{

namespace
{

/** The machine's timeout gater settings, with the per-run period
 *  override applied. */
TimeoutParams
timeoutParams(const MachineConfig &machine, const SimOptions &opts)
{
    TimeoutParams p = machine.timeout;
    if (opts.timeoutCycles > 0)
        p.timeoutCycles = opts.timeoutCycles;
    return p;
}

} // namespace

SimMachine::SimMachine(const MachineConfig &config,
                       const WorkloadSpec &workload,
                       const SimOptions &opts)
    : machine(config.validate()), gen(workload),
      bt(gen.program(), machine.bt), bpu(machine.bpu),
      mem(machine.l1, machine.mlc), vpu(machine.vpu),
      controller(vpu, bpu, mem, machine.penalties),
      monitor(bpu, mem), opts_(opts),
      usePowerChop_(opts.mode == SimMode::PowerChop),
      useTimeout_(opts.mode == SimMode::TimeoutVpu),
      useDrowsy_(opts.mode == SimMode::DrowsyMlc),
      pchop_(machine.powerChop, controller, bt.nucleus(), monitor),
      injector_(machine.faults), timeout_(vpu, timeoutParams(machine, opts)),
      drowsy_(mem, machine.drowsy), powerModel_(machine.power)
{
    if (opts.maxInstructions == 0)
        fatal("simulate(%s on %s): zero instruction budget",
              workload.name.c_str(), machine.name.c_str());
    if (injector_.active()) {
        controller.setFaultInjector(&injector_);
        pchop_.setFaultInjector(&injector_);
    }
    if (usePowerChop_) {
        pchop_.setManagedUnits(opts.manageVpu, opts.manageBpu,
                               opts.manageMlc);
        if (opts.windowObserver)
            pchop_.setWindowObserver(opts.windowObserver);
    }

    if (opts.trace) {
        opts.trace->beginRun(workload.name, machine.name,
                             simModeName(opts.mode), machine.telemetry);
        controller.setTrace(opts.trace);
        pchop_.setTrace(opts.trace);
        if (injector_.active())
            injector_.setTrace(opts.trace);
    }
    // The registry's probes reference the collector; the destructor
    // detaches them so the registry never outlives its probed objects.
    if (opts.metrics && usePowerChop_) {
        collector_.emplace(*opts.metrics, &powerModel_,
                           machine.core.frequencyHz, machine.mlc.assoc);
        pchop_.setMetricsCollector(&*collector_);
    }
}

SimMachine::~SimMachine()
{
    if (collector_)
        opts_.metrics->detachProbes();
}

Cycles
SimMachine::start()
{
    if (opts_.mode == SimMode::MinPower)
        return controller.applyPolicy(GatingPolicy::minPower());
    if (opts_.mode == SimMode::StaticPolicy)
        return controller.applyPolicy(opts_.staticPolicy);
    return 0;
}

void
SimMachine::cancelled(InsnCount done) const
{
    throw SimCancelledError(csprintf(
        "simulate(%s on %s): cancelled after %llu of %llu instructions",
        gen.spec().name.c_str(), machine.name.c_str(),
        static_cast<unsigned long long>(done),
        static_cast<unsigned long long>(opts_.maxInstructions)));
}

Cycles
SimMachine::finish(InsnCount n, Cycles cycles)
{
    if (usePowerChop_ && lastTrans_ != invalidTranslationId &&
        insnsSinceHead > 0) {
        cycles = creditTranslation(n, cycles);
        insnsSinceHead = 0;
    }

    accrue(cycles);
    if (useTimeout_)
        timeout_.finish(cycles);
    if (useDrowsy_)
        drowsy_.finish(cycles);

    if (opts_.trace) {
        opts_.trace->setNow(n, cycles);
        opts_.trace->endRun(n, cycles);
    }
    return cycles;
}

SimResult
SimMachine::collect(InsnCount n, Cycles cycles, const LoopCounters &loop,
                    const ActivityRecord &loopActivity)
{
    // All divisions below are guarded: a short run keeps every rate
    // finite, and a default/failed result stays all-zero instead of
    // propagating NaNs into downstream tables.
    auto per = [](double num, double den) {
        return den > 0 ? num / den : 0.0;
    };

    SimResult res;
    res.workload = gen.spec().name;
    res.machine = machine.name;
    res.mode = opts_.mode;
    res.instructions = n;
    res.cycles = cycles;
    res.seconds = per(cycles, machine.core.frequencyHz);

    res.gating = controller.stats();
    if (useTimeout_) {
        res.gating.vpuSwitches = timeout_.switches();
        res.gating.vpuGatedCycles = timeout_.gatedCycles();
    }

    res.vpuGatedFraction = per(res.gating.vpuGatedCycles, cycles);
    res.bpuGatedFraction = per(res.gating.bpuGatedCycles, cycles);
    res.mlcHalfFraction = per(res.gating.mlcHalfCycles, cycles);
    res.mlcQuarterFraction = per(res.gating.mlcQuarterCycles, cycles);
    res.mlcOneWayFraction = per(res.gating.mlcOneWayCycles, cycles);

    const double mcycles = cycles / 1e6;
    res.vpuSwitchesPerMcycle = per(res.gating.vpuSwitches, mcycles);
    res.bpuSwitchesPerMcycle = per(res.gating.bpuSwitches, mcycles);
    res.mlcSwitchesPerMcycle = per(res.gating.mlcSwitches, mcycles);

    res.pvtLookups = pchop_.pvt().lookups();
    res.pvtHits = pchop_.pvt().hits();

    // Resilience observability: what the fault injector actually did
    // and how often the QoS watchdog had to roll back. All zero (and
    // absent from renderings) in a fault-free run.
    res.faults = injector_.stats();
    const QosStats &qos = pchop_.qos().stats();
    res.safeModeActivations = qos.safeModeActivations;
    res.safeModeWindowFraction =
        per(qos.safeModeWindows, qos.windowsObserved);
    res.translationsExecuted = pchop_.translationsSeen();
    res.pvtMissPerTranslation =
        per(pchop_.pvt().misses(), res.translationsExecuted);

    res.l1HitRate = mem.l1().hitRate();
    res.mlcHitRate = mem.mlc().hitRate();
    res.mlcAccesses = loop.mlcAccesses;
    res.mlcAccessesPerKilo =
        per(1000.0 * loop.mlcAccesses, res.instructions);

    res.branchLookups = loop.branchLookups;
    res.branchMispredicts = loop.branchMispredicts;
    res.branchMispredictRate =
        per(loop.branchMispredicts, loop.branchLookups);
    res.branchesPerKilo =
        per(1000.0 * loop.branchLookups, res.instructions);

    res.simdOps = vpu.nativeOps();
    res.simdEmulated = vpu.emulatedOps();

    ActivityRecord act = loopActivity;
    if (useDrowsy_) {
        res.mlcDrowsyFraction = drowsy_.avgDrowsyFraction();
        res.drowsyWakes = mem.mlc().drowsyWakes();
        act.mlcDrowsyFraction = res.mlcDrowsyFraction;
        act.drowsyLeakageFraction =
            machine.drowsy.drowsyLeakageFraction;
    }

    // --- Energy --------------------------------------------------------------
    act.cycles = cycles;
    act.instructions += res.instructions;
    act.vpuOps = static_cast<double>(vpu.nativeOps());
    act.bpuLargeLookups = static_cast<double>(loop.bpuLargeLookups);
    // (TimeoutVpu's VPU residency and switches are already in
    // res.gating; its MLC never leaves full power.)
    act.vpuGatedCycles = res.gating.vpuGatedCycles;
    act.bpuGatedCycles = res.gating.bpuGatedCycles;
    act.mlcFullCycles = useTimeout_ ? cycles : res.gating.mlcFullCycles;
    act.mlcHalfCycles = res.gating.mlcHalfCycles;
    act.mlcQuarterCycles = res.gating.mlcQuarterCycles;
    act.mlcOneWayCycles = res.gating.mlcOneWayCycles;
    act.vpuSwitches = static_cast<double>(res.gating.vpuSwitches);
    act.bpuSwitches = static_cast<double>(res.gating.bpuSwitches);
    act.mlcSwitches = static_cast<double>(res.gating.mlcSwitches);

    res.slotOps = act.instructions;
    res.activity = act;
    res.energy = accumulateEnergy(powerModel_, act, machine.mlc.assoc);
    return res;
}

} // namespace powerchop
