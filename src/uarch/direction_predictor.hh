/**
 * @file
 * Abstract conditional-branch direction predictor interface.
 *
 * Predictors combine lookup and training in one call: the timing model
 * presents the actual outcome and receives the direction the predictor
 * would have guessed. Each predictor keeps lifetime and per-window
 * counters; the window counters feed the Criticality Decision Engine's
 * profiling (Section IV-C2 of the paper).
 */

#ifndef POWERCHOP_UARCH_DIRECTION_PREDICTOR_HH
#define POWERCHOP_UARCH_DIRECTION_PREDICTOR_HH

#include <cstdint>

#include "common/types.hh"

namespace powerchop
{

/**
 * Base class for direction predictors.
 *
 * Derived classes implement lookup() and train(); the base supplies
 * the predict-and-train protocol and the accuracy bookkeeping.
 */
class DirectionPredictor
{
  public:
    virtual ~DirectionPredictor() = default;

    /**
     * Predict the branch at pc, then train on the actual outcome.
     *
     * @param pc    Branch program counter.
     * @param taken Actual resolved direction.
     * @return the predicted direction.
     */
    bool
    predictAndTrain(Addr pc, bool taken)
    {
        bool pred = lookup(pc);
        ++lookups_;
        ++windowLookups_;
        if (pred != taken) {
            ++mispredicts_;
            ++windowMispredicts_;
        }
        train(pc, taken);
        return pred;
    }

    /** Drop all predictor state (e.g. after power gating). */
    virtual void reset() = 0;

    /** Lifetime lookup count. */
    std::uint64_t lookups() const { return lookups_; }

    /** Lifetime mispredict count. */
    std::uint64_t mispredicts() const { return mispredicts_; }

    /** Lifetime mispredict rate. */
    double
    mispredictRate() const
    {
        return lookups_ ? static_cast<double>(mispredicts_) / lookups_
                        : 0.0;
    }

    /** Per-window counters used by phase profiling. @{ */
    std::uint64_t windowLookups() const { return windowLookups_; }

    double
    windowMispredictRate() const
    {
        return windowLookups_
            ? static_cast<double>(windowMispredicts_) / windowLookups_
            : 0.0;
    }

    void
    resetWindow()
    {
        windowLookups_ = 0;
        windowMispredicts_ = 0;
    }
    /** @} */

  protected:
    /**
     * Accuracy bookkeeping shared with the concrete predictors'
     * non-virtual fast paths: exactly the counter updates
     * predictAndTrain() performs between lookup() and train().
     */
    void
    noteOutcome(bool pred, bool taken)
    {
        ++lookups_;
        ++windowLookups_;
        if (pred != taken) {
            ++mispredicts_;
            ++windowMispredicts_;
        }
    }

    /** @return the predicted direction for pc. */
    virtual bool lookup(Addr pc) = 0;

    /** Update predictor state with the resolved outcome. */
    virtual void train(Addr pc, bool taken) = 0;

  private:
    std::uint64_t lookups_ = 0;
    std::uint64_t mispredicts_ = 0;
    std::uint64_t windowLookups_ = 0;
    std::uint64_t windowMispredicts_ = 0;
};

} // namespace powerchop

#endif // POWERCHOP_UARCH_DIRECTION_PREDICTOR_HH
