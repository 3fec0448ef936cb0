/**
 * @file
 * Centralized parsing of the POWERCHOP_* environment variables.
 *
 * Every runtime override (instruction budget, worker count, fault
 * rates, output paths) funnels through these helpers so that all of
 * them share the same hardened parsing rules: a sign, trailing junk
 * ("10M"), overflow, or an out-of-range value is rejected with a
 * descriptive warning naming the variable and the reason, and the
 * caller's default is used instead. Ad-hoc getenv()/strtoul() call
 * sites are not allowed outside this file.
 */

#ifndef POWERCHOP_COMMON_ENV_HH
#define POWERCHOP_COMMON_ENV_HH

#include <cstdint>
#include <optional>
#include <string>

namespace powerchop
{

/**
 * Strict number parsing, shared by the environment variables below and
 * the CLI's numeric flags: the whole string must be the number.
 * Integers take no sign and must fit 64 bits; doubles must be finite.
 *
 * @return nullptr on success, else why `raw` was rejected. @{
 */
const char *parseUint64(const char *raw, std::uint64_t &out);
const char *parseDouble(const char *raw, double &out);
/** @} */

/**
 * Read a string-valued environment variable.
 *
 * @param name Variable name (e.g. "POWERCHOP_RUNNER_JSON").
 * @return the value, or nullopt when unset or empty.
 */
std::optional<std::string> envString(const char *name);

/**
 * Read an unsigned integer environment variable.
 *
 * Rejected with a warning naming the variable and the offending
 * value: empty numbers, a leading sign, trailing junk, overflow, and
 * values outside [min, max].
 *
 * @param name Variable name.
 * @param min  Smallest accepted value.
 * @param max  Largest accepted value.
 * @return the parsed value, or nullopt when unset or invalid.
 */
std::optional<std::uint64_t> envUint64(const char *name,
                                       std::uint64_t min,
                                       std::uint64_t max);

/**
 * Read a floating-point environment variable.
 *
 * Same rejection rules as envUint64(); NaN and infinities are also
 * rejected.
 */
std::optional<double> envDouble(const char *name, double min,
                                double max);

} // namespace powerchop

#endif // POWERCHOP_COMMON_ENV_HH
