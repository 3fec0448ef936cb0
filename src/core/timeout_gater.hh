/**
 * @file
 * Hardware-only idle-timeout power gating, the baseline of the
 * paper's Section V-E comparison.
 *
 * The timeout approach gates a unit off after a fixed number of idle
 * cycles and gates it back on the next time the unit is needed. It
 * works only for units with long idle periods and a clear "needed
 * again" trigger — in practice the VPU. The paper sweeps timeout
 * periods from 100 to 100K cycles and selects 20K cycles as the best
 * period saving power under a 5% worst-case slowdown bound.
 */

#ifndef POWERCHOP_CORE_TIMEOUT_GATER_HH
#define POWERCHOP_CORE_TIMEOUT_GATER_HH

#include <cstdint>

#include "uarch/vpu.hh"

namespace powerchop
{

/** Timeout-gater configuration. */
struct TimeoutParams
{
    /** Idle cycles before the VPU is gated off. */
    double timeoutCycles = 20000.0;

    /** Gate-on/off switch latency (same as PowerChop's VPU). */
    double switchCycles = 30.0;

    /** Register file save/restore per transition. */
    double saveRestoreCycles = 500.0;
};

/**
 * Idle-timeout gater for the VPU.
 *
 * The caller reports time progression and SIMD usage; the gater
 * decides transitions and returns stall cycles to charge.
 */
class TimeoutGater
{
  public:
    explicit TimeoutGater(Vpu &vpu, const TimeoutParams &params = {});

    /**
     * Called when a SIMD instruction is about to execute at time
     * `now` (cycles). If the VPU is off, it must be woken first.
     *
     * @return stall cycles for the wake-up (0 if already on).
     */
    double onSimdUse(double now);

    /**
     * Called periodically (e.g. at block boundaries) to check the
     * idle timeout at time `now`.
     *
     * @return stall cycles for a gate-off transition (0 if none).
     */
    double checkIdle(double now);

    std::uint64_t switches() const { return switches_; }
    double gatedCycles() const { return gatedCycles_; }

    /** Account residency up to the end of the run. */
    void finish(double now);

    const TimeoutParams &params() const { return params_; }

  private:
    Vpu &vpu_;
    TimeoutParams params_;
    double lastUse_ = 0;
    double gatedSince_ = 0;
    double gatedCycles_ = 0;
    std::uint64_t switches_ = 0;
};

} // namespace powerchop

#endif // POWERCHOP_CORE_TIMEOUT_GATER_HH
