#include "common/env.hh"

#include <cerrno>
#include <cmath>
#include <cstdlib>

#include "common/logging.hh"

namespace powerchop
{

const char *
parseUint64(const char *raw, std::uint64_t &out)
{
    if (raw[0] == '-' || raw[0] == '+')
        return "a sign is not accepted";

    errno = 0;
    char *end = nullptr;
    const unsigned long long v = std::strtoull(raw, &end, 10);
    if (end == raw)
        return "not a number";
    if (*end != '\0')
        return "trailing junk after the number";
    if (errno == ERANGE)
        return "overflows 64 bits";
    out = v;
    return nullptr;
}

const char *
parseDouble(const char *raw, double &out)
{
    errno = 0;
    char *end = nullptr;
    out = std::strtod(raw, &end);
    if (end == raw)
        return "not a number";
    if (*end != '\0')
        return "trailing junk after the number";
    if (errno == ERANGE)
        return "out of double range";
    if (!std::isfinite(out))
        return "not a finite number";
    return nullptr;
}

std::optional<std::string>
envString(const char *name)
{
    const char *raw = std::getenv(name);
    if (!raw || !*raw)
        return std::nullopt;
    return std::string(raw);
}

std::optional<std::uint64_t>
envUint64(const char *name, std::uint64_t min, std::uint64_t max)
{
    const char *raw = std::getenv(name);
    if (!raw || !*raw)
        return std::nullopt;

    std::uint64_t v = 0;
    if (const char *why = parseUint64(raw, v)) {
        warn("ignoring %s='%s': %s", name, raw, why);
        return std::nullopt;
    }
    if (v < min || v > max) {
        warn("ignoring %s=%llu: outside [%llu, %llu]", name,
             static_cast<unsigned long long>(v),
             static_cast<unsigned long long>(min),
             static_cast<unsigned long long>(max));
        return std::nullopt;
    }
    return v;
}

std::optional<double>
envDouble(const char *name, double min, double max)
{
    const char *raw = std::getenv(name);
    if (!raw || !*raw)
        return std::nullopt;

    double v = 0;
    if (const char *why = parseDouble(raw, v)) {
        warn("ignoring %s='%s': %s", name, raw, why);
        return std::nullopt;
    }
    if (v < min || v > max) {
        warn("ignoring %s=%g: outside [%g, %g]", name, v, min, max);
        return std::nullopt;
    }
    return v;
}

} // namespace powerchop
