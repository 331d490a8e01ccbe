/**
 * @file
 * Error-reporting helpers in the gem5 tradition.
 *
 * panic()  - an internal invariant was violated: a simulator bug. Aborts.
 * fatal()  - the user asked for something impossible (bad configuration,
 *            malformed input). Exits with an error code.
 * warn()   - something questionable happened but simulation can continue.
 */

#ifndef CPS_COMMON_LOGGING_HH
#define CPS_COMMON_LOGGING_HH

#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "types.hh"

namespace cps
{

/** Formats printf-style arguments into a std::string. */
std::string vstrfmt(const char *fmt, std::va_list ap);

/** Formats printf-style arguments into a std::string. */
std::string strfmt(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

[[noreturn]] void panicImpl(const char *file, int line, const char *fmt, ...)
    __attribute__((format(printf, 3, 4)));

[[noreturn]] void fatalImpl(const char *file, int line, const char *fmt, ...)
    __attribute__((format(printf, 3, 4)));

void warnImpl(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** Count of warn() calls so far, exposed so tests can assert on warnings. */
unsigned long warnCount();

/**
 * Warns about a malformed environment knob exactly once per process per
 * variable name, no matter how many constructions re-read it:
 * "ignoring malformed NAME='VALUE' (expected EXPECTED)". Knob parsers
 * are re-run per construction by design (tests flip knobs between
 * constructions), so their diagnostics must be deduplicated here rather
 * than by call-site statics.
 */
void envWarnOnce(const char *name, const char *value,
                 const char *expected);

/**
 * The numeric environment knob @p name as a whole unsigned number in
 * [@p min, @p max], by parseUnsignedOption's rule (decimal digits only).
 * Unset means @p fallback. Anything else — empty, signed, trailing
 * garbage, out of range — warns once (envWarnOnce) and also means
 * @p fallback: a bad knob never aborts a run and never reads as some
 * other number. Read afresh on every call.
 */
u64 envUnsigned(const char *name, u64 fallback, u64 min, u64 max);

/**
 * The on/off environment knob @p name: "1" means on and "0" off. Unset
 * means @p fallback. Anything else — empty, "yes", "2" — warns once
 * (envWarnOnce) and also means @p fallback, so a misspelt switch never
 * silently reads as on. Read afresh on every call.
 */
bool envFlag(const char *name, bool fallback);

/**
 * The value of command-line option @p option as a whole unsigned number
 * in [@p min, @p max]: decimal digits only, or with @p base 0 also
 * strtoull's 0x-hex and 0-octal forms. Anything else — empty, signed,
 * fractional, trailing garbage, out of range — is a usage error that
 * fatal()s naming the option, never a silent 0.
 */
u64 parseUnsignedOption(const char *option, const std::string &value,
                        u64 min, u64 max, int base = 10);

} // namespace cps

// The macros live outside the namespace so call sites read naturally.

#define cps_panic(...) ::cps::panicImpl(__FILE__, __LINE__, __VA_ARGS__)
#define cps_fatal(...) ::cps::fatalImpl(__FILE__, __LINE__, __VA_ARGS__)
#define cps_warn(...) ::cps::warnImpl(__VA_ARGS__)

/**
 * Assert that is kept in release builds; reports via panic(). A printf
 * message (with arguments) is required: cps_assert(x > 0, "bad x: %d", x).
 */
#define cps_assert(cond, ...)                                                \
    do {                                                                     \
        if (!(cond)) {                                                       \
            ::cps::panicImpl(__FILE__, __LINE__, __VA_ARGS__);               \
        }                                                                    \
    } while (0)

#endif // CPS_COMMON_LOGGING_HH
