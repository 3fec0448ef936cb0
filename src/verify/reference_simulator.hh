/**
 * @file
 * The reference simulator: a deliberately simple second driver loop
 * for the machine simulate() runs, used as a differential oracle for
 * the optimized loop.
 *
 * What is shared. Both loops drive one SimMachine (sim/sim_machine.hh):
 * the component models (BT, BPU, MLC, VPU, gating controller,
 * PowerChop unit, baseline gaters, power model), the operating mode
 * and its pre-run policy, the block-head work (trace following, region
 * entry, PowerChop's translation-head credit, the gaters' ticks), the
 * SIMD-use hook, the trace and metrics wiring, the tail flush and the
 * result/energy collection. The component models have their own unit
 * tests. The collection arithmetic is guarded by the 40 pinned goldens
 * (tests/goldens) and by the invariant auditor, which recomputes every
 * derived rate, residency sum and the energy breakdown from the raw
 * counters (verify/invariant_auditor.hh).
 *
 * What the oracle isolates. The production loop in sim/simulator.cc
 * earns its speed from three structural tricks: whole-block burst
 * execution over pre-decoded slot streams with the per-instruction
 * head checks hoisted out, a countdown-based sampler (one decrement-
 * and-test per instruction instead of a modulo), and an epoch-cached
 * destination pointer for the per-policy MLC access counters. Each is
 * a place where an optimization bug could silently skew results.
 * referenceSimulate() takes the other side of every one of those
 * trades: it pulls strictly one instruction per iteration from the
 * generator, checks for a block head at every instruction, reads the
 * execution mode per instruction, fires the sampler from an explicit
 * modulo, and re-dispatches the MLC access counter on the controller's
 * live policy at every access. Its per-slot timing (issue slots,
 * memory and branch penalties) is its own code too.
 *
 * The contract is bit-identical results and trace streams: the same
 * (machine, workload, options) must produce a SimResult whose every
 * field matches simulate()'s exactly, including floating-point state,
 * and the same trace events, because both loops apply the same
 * arithmetic in the same order. Any divergence, however small, is a
 * bug in one of the two loops.
 *
 * Instrumentation: opts.profiler and opts.translationCache are ignored
 * (the reference always derives its own translation metadata), and so
 * is opts.audit (the oracle is what audits are checked against).
 * Traces, metrics, window observers, samplers and cancellation
 * behave as in simulate(); cancellation is polled at block heads.
 */

#ifndef POWERCHOP_VERIFY_REFERENCE_SIMULATOR_HH
#define POWERCHOP_VERIFY_REFERENCE_SIMULATOR_HH

#include "sim/simulator.hh"

namespace powerchop
{
namespace verify
{

/**
 * Run one simulation through the reference (unoptimized) loop.
 *
 * @param machine  The design point.
 * @param workload The application model.
 * @param opts     Mode and instrumentation options.
 * @return the measured result, bit-identical to simulate()'s.
 */
SimResult referenceSimulate(const MachineConfig &machine,
                            const WorkloadSpec &workload,
                            const SimOptions &opts);

} // namespace verify
} // namespace powerchop

#endif // POWERCHOP_VERIFY_REFERENCE_SIMULATOR_HH
