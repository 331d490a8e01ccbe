#include "logging.hh"

#include <atomic>
#include <cctype>
#include <cerrno>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <set>

namespace cps
{

namespace
{

std::atomic<unsigned long> numWarnings{0};

// Diagnostics from worker threads must not interleave: each message is
// fully formatted first, then written to stderr in a single fputs under
// this mutex.
std::mutex stderrMutex;

void
writeLine(const std::string &line)
{
    std::lock_guard<std::mutex> lock(stderrMutex);
    std::fputs(line.c_str(), stderr);
}

/**
 * Parses @p s as one whole unsigned number. strtoull alone skips leading
 * blanks, negates a minus sign modulo 2^64, and stops quietly at the
 * first non-digit: insist on a digit first and nothing after the number.
 */
bool
parseWholeUnsigned(const char *s, int base, unsigned long long &v)
{
    if (!std::isdigit(static_cast<unsigned char>(s[0])))
        return false;
    char *end = nullptr;
    errno = 0;
    v = std::strtoull(s, &end, base);
    return *end == '\0' && errno != ERANGE;
}

} // namespace

std::string
vstrfmt(const char *fmt, std::va_list ap)
{
    std::va_list ap_copy;
    va_copy(ap_copy, ap);
    int needed = std::vsnprintf(nullptr, 0, fmt, ap_copy);
    va_end(ap_copy);
    if (needed < 0)
        return "<format error>";
    std::string out(static_cast<size_t>(needed), '\0');
    std::vsnprintf(out.data(), out.size() + 1, fmt, ap);
    return out;
}

std::string
strfmt(const char *fmt, ...)
{
    std::va_list ap;
    va_start(ap, fmt);
    std::string out = vstrfmt(fmt, ap);
    va_end(ap);
    return out;
}

void
panicImpl(const char *file, int line, const char *fmt, ...)
{
    std::va_list ap;
    va_start(ap, fmt);
    std::string msg = vstrfmt(fmt, ap);
    va_end(ap);
    writeLine(strfmt("panic: %s (%s:%d)\n", msg.c_str(), file, line));
    std::abort();
}

void
fatalImpl(const char *file, int line, const char *fmt, ...)
{
    std::va_list ap;
    va_start(ap, fmt);
    std::string msg = vstrfmt(fmt, ap);
    va_end(ap);
    writeLine(strfmt("fatal: %s (%s:%d)\n", msg.c_str(), file, line));
    std::exit(1);
}

void
warnImpl(const char *fmt, ...)
{
    numWarnings.fetch_add(1, std::memory_order_relaxed);
    std::va_list ap;
    va_start(ap, fmt);
    std::string msg = vstrfmt(fmt, ap);
    va_end(ap);
    writeLine("warn: " + msg + "\n");
}

unsigned long
warnCount()
{
    return numWarnings.load(std::memory_order_relaxed);
}

void
envWarnOnce(const char *name, const char *value, const char *expected)
{
    static std::mutex mutex;
    static std::set<std::string> warned;
    {
        std::lock_guard<std::mutex> lock(mutex);
        if (!warned.insert(name).second)
            return;
    }
    warnImpl("ignoring malformed %s='%s' (expected %s)", name, value,
             expected);
}

u64
envUnsigned(const char *name, u64 fallback, u64 min, u64 max)
{
    const char *env = std::getenv(name);
    if (!env)
        return fallback;
    unsigned long long v = 0;
    if (parseWholeUnsigned(env, 10, v) && v >= min && v <= max)
        return static_cast<u64>(v);
    envWarnOnce(name, env,
                strfmt("a whole number in [%llu, %llu]",
                       static_cast<unsigned long long>(min),
                       static_cast<unsigned long long>(max))
                    .c_str());
    return fallback;
}

bool
envFlag(const char *name, bool fallback)
{
    const char *env = std::getenv(name);
    if (!env)
        return fallback;
    const std::string value = env;
    if (value == "0" || value == "1")
        return value == "1";
    envWarnOnce(name, env, "0 or 1");
    return fallback;
}

u64
parseUnsignedOption(const char *option, const std::string &value, u64 min,
                    u64 max, int base)
{
    const char *s = value.c_str();
    unsigned long long v = 0;
    if (!parseWholeUnsigned(s, base, v))
        cps_fatal("option '%s' wants a whole unsigned number, got '%s'",
                  option, s);
    if (v < min || v > max)
        cps_fatal("option '%s' must be in [%llu, %llu], got '%s'", option,
                  static_cast<unsigned long long>(min),
                  static_cast<unsigned long long>(max), s);
    return static_cast<u64>(v);
}

} // namespace cps
