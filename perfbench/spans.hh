/**
 * @file
 * In-memory span recorder for the benchmark's traced run.
 *
 * Spans are recorded in benchmark code around each call into a
 * simulator layer: a name, start, end, the span that caused it and the
 * matrix cell (or program) it belongs to. They stay in memory and are
 * written out once, when the benchmark ends. A disabled Tracer records
 * nothing and reads no clock, so the untraced run pays one branch per
 * scope.
 */

#ifndef CPS_PERFBENCH_SPANS_HH
#define CPS_PERFBENCH_SPANS_HH

#include <chrono>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench
{

/** One recorded interval; times are ms since the tracer's epoch. */
struct Span
{
    const char *name = "";
    int parent = -1; ///< index of the causing span; -1 for a root
    int cell = -1;   ///< matrix cell or program id; -1 when none
    unsigned thread = 0;
    double startMs = 0.0;
    double endMs = 0.0;
};

class Tracer
{
  public:
    explicit Tracer(bool enabled);

    bool enabled() const { return enabled_; }

    /** Opens a span; returns its id (-1 when disabled). */
    int open(const char *name, int parent, int cell);

    /** Closes span @p id; returns its duration in ms. */
    double close(int id);

    /** Sum of the durations of every span named @p name, in ms. */
    double totalMs(const std::string &name) const;

    /**
     * Self time per span name, in ms: each span's duration minus the
     * part of it its child spans cover (children on other threads may
     * overlap each other; their union is subtracted once).
     */
    std::map<std::string, double> selfMsByName() const;

    /** Writes every span plus @p manifest_json as one JSON document. */
    bool write(const std::string &path,
               const std::string &manifest_json) const;

  private:
    double nowMs() const;

    bool enabled_;
    std::chrono::steady_clock::time_point epoch_;
    mutable std::mutex mutex_;
    std::vector<Span> spans_; // guarded by mutex_
};

/**
 * RAII span. The innermost open Scope on the calling thread is the
 * default parent; work handed to another thread names its parent
 * explicitly.
 */
class Scope
{
  public:
    Scope(Tracer &tracer, const char *name, int cell = -1);
    Scope(Tracer &tracer, const char *name, int parent, int cell);
    ~Scope();

    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    int id() const { return id_; }

    /** Closes the span early; returns its duration in ms (0 when the
     *  tracer is disabled). */
    double stop();

  private:
    Tracer &tracer_;
    int id_ = -1;
    int savedCurrent_ = -1;
    bool open_ = false;
};

} // namespace perfbench

#endif // CPS_PERFBENCH_SPANS_HH
