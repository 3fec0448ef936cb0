/**
 * @file
 * Deterministic pseudo-random number generation for workload synthesis.
 *
 * All randomness in the simulator flows through Rng so that every
 * experiment is exactly reproducible from a seed. The generator is
 * xoshiro256** (public domain, Blackman & Vigna), which is fast and has
 * excellent statistical quality for simulation purposes.
 */

#ifndef POWERCHOP_COMMON_RANDOM_HH
#define POWERCHOP_COMMON_RANDOM_HH

#include <array>
#include <cstdint>

namespace powerchop
{

/**
 * Deterministic random number generator (xoshiro256**).
 *
 * Seeding uses splitmix64 so that small or correlated seeds still
 * produce well-distributed state.
 */
class Rng
{
  public:
    /** Construct from a 64-bit seed. The same seed always produces the
     *  same sequence. */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull);

    /** @return the next raw 64-bit value. Inline: every dynamic
     *  memory address and branch outcome draws through here, so the
     *  generator must fold into its callers. */
    std::uint64_t
    next()
    {
        const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
        const std::uint64_t t = state_[1] << 17;

        state_[2] ^= state_[0];
        state_[3] ^= state_[1];
        state_[1] ^= state_[2];
        state_[0] ^= state_[3];
        state_[2] ^= t;
        state_[3] = rotl(state_[3], 45);

        return result;
    }

    /** @return a uniformly distributed double in [0, 1). */
    double
    uniform()
    {
        // 53 random mantissa bits -> double in [0, 1).
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** @return a uniformly distributed integer in [0, bound). bound
     *  must be non-zero. Inline: the address streams' random-access
     *  path draws through here. */
    std::uint64_t
    below(std::uint64_t bound)
    {
        if (bound == 0)
            belowZeroBound();
        // Multiply-shift bounded generation (Lemire); bias is
        // negligible for simulation bounds (< 2^32).
        return static_cast<std::uint64_t>(
            (static_cast<unsigned __int128>(next()) * bound) >> 64);
    }

    /** @return a uniformly distributed integer in [lo, hi]. */
    std::int64_t range(std::int64_t lo, std::int64_t hi);

    /** @return true with probability p (clamped to [0, 1]). */
    bool
    bernoulli(double p)
    {
        if (p <= 0.0)
            return false;
        if (p >= 1.0)
            return true;
        return uniform() < p;
    }

    /**
     * Approximately normal variate via the sum of three uniforms
     * (Irwin-Hall), adequate for jittering workload parameters.
     *
     * @param mean   Distribution mean.
     * @param stddev Distribution standard deviation.
     */
    double normal(double mean, double stddev);

  private:
    /** Out-of-line panic keeps below() small enough to inline. */
    [[noreturn]] static void belowZeroBound();

  public:

    /**
     * Geometric-ish burst length: number of trials until first failure
     * with continue-probability p, capped at max.
     */
    std::uint64_t burstLength(double p, std::uint64_t max);

    /** Re-seed the generator. */
    void seed(std::uint64_t seed);

  private:
    static std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::array<std::uint64_t, 4> state_;
};

/**
 * The capped-doubling backoff every retry loop shares (job retries,
 * client redials, shard restarts): the delay before attempt `attempt`
 * is baseSeconds * 2^(attempt-2), capped at maxSeconds, plus a jitter
 * in [0, jitterFraction * delay) drawn from Rng(seed). Attempt 1 is
 * the first try and waits 0, as does any baseSeconds <= 0. A pure
 * function of its arguments, so schedules reproduce bit for bit;
 * callers decorrelate by mixing their own identity into `seed`.
 */
double backoffSeconds(double baseSeconds, double maxSeconds,
                      unsigned attempt, double jitterFraction = 0,
                      std::uint64_t seed = 0);

} // namespace powerchop

#endif // POWERCHOP_COMMON_RANDOM_HH
