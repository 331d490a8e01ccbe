#include "spans.hh"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <utility>

namespace perfbench
{

namespace
{

thread_local int tlCurrent = -1;

unsigned
threadIndex()
{
    static std::atomic<unsigned> next{0};
    thread_local const unsigned index = next.fetch_add(1);
    return index;
}

} // namespace

Tracer::Tracer(bool enabled)
    : enabled_(enabled), epoch_(std::chrono::steady_clock::now())
{}

double
Tracer::nowMs() const
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
}

int
Tracer::open(const char *name, int parent, int cell)
{
    if (!enabled_)
        return -1;
    Span s;
    s.name = name;
    s.parent = parent;
    s.cell = cell;
    s.thread = threadIndex();
    s.startMs = nowMs();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(s);
    return static_cast<int>(spans_.size() - 1);
}

double
Tracer::close(int id)
{
    if (!enabled_ || id < 0)
        return 0.0;
    const double end = nowMs();
    std::lock_guard<std::mutex> lock(mutex_);
    Span &s = spans_[static_cast<size_t>(id)];
    s.endMs = end;
    return s.endMs - s.startMs;
}

double
Tracer::totalMs(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    double total = 0.0;
    for (const Span &s : spans_)
        if (name == s.name)
            total += s.endMs - s.startMs;
    return total;
}

std::map<std::string, double>
Tracer::selfMsByName() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::vector<std::pair<double, double>>> kids(spans_.size());
    for (const Span &s : spans_)
        if (s.parent >= 0)
            kids[static_cast<size_t>(s.parent)].emplace_back(s.startMs,
                                                             s.endMs);
    std::map<std::string, double> self;
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::vector<std::pair<double, double>> &iv = kids[i];
        std::sort(iv.begin(), iv.end());
        double covered = 0.0;
        double lo = 0.0, hi = -1.0;
        for (auto [a, b] : iv) {
            a = std::max(a, s.startMs);
            b = std::min(b, s.endMs);
            if (b <= a)
                continue;
            if (a > hi) {
                covered += std::max(0.0, hi - lo);
                lo = a;
                hi = b;
            } else {
                hi = std::max(hi, b);
            }
        }
        covered += std::max(0.0, hi - lo);
        self[s.name] += (s.endMs - s.startMs) - covered;
    }
    return self;
}

bool
Tracer::write(const std::string &path, const std::string &manifest_json) const
{
    std::map<std::string, double> self = selfMsByName();
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fprintf(f, "{\"manifest\": %s,\n\"self_ms\": {",
                 manifest_json.c_str());
    const char *sep = "";
    for (const auto &[name, ms] : self) {
        std::fprintf(f, "%s\"%s\": %.6f", sep, name.c_str(), ms);
        sep = ", ";
    }
    std::fprintf(f, "},\n\"spans\": [\n");
    std::lock_guard<std::mutex> lock(mutex_);
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::fprintf(f,
                     "%s{\"id\": %zu, \"name\": \"%s\", \"parent\": %d, "
                     "\"cell\": %d, \"thread\": %u, \"start_ms\": %.6f, "
                     "\"end_ms\": %.6f}",
                     i ? ",\n" : "", i, s.name, s.parent, s.cell, s.thread,
                     s.startMs, s.endMs);
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
}

Scope::Scope(Tracer &tracer, const char *name, int cell)
    : Scope(tracer, name, tlCurrent, cell)
{}

Scope::Scope(Tracer &tracer, const char *name, int parent, int cell)
    : tracer_(tracer)
{
    if (!tracer_.enabled())
        return;
    id_ = tracer_.open(name, parent, cell);
    savedCurrent_ = tlCurrent;
    tlCurrent = id_;
    open_ = true;
}

Scope::~Scope() { stop(); }

double
Scope::stop()
{
    if (!open_)
        return 0.0;
    open_ = false;
    tlCurrent = savedCurrent_;
    return tracer_.close(id_);
}

} // namespace perfbench
