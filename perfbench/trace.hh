/**
 * @file
 * In-memory span recorder for the benchmark's traced runs.
 *
 * A span is a named host-time interval around one call into a
 * library layer. The layer is the name's prefix up to the first
 * '.', e.g. "sim.run" belongs to "sim". Spans nest on a thread
 * through a per-thread stack; a span opened on another thread (a
 * sweep worker) names its parent explicitly. Spans stay in memory
 * and are written out once, as Chrome trace JSON, when the run
 * ends. A disabled recorder records nothing.
 */

#ifndef PERFBENCH_TRACE_HH
#define PERFBENCH_TRACE_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench
{

using Clock = std::chrono::steady_clock;

/** Seconds between two steady_clock points. */
inline double
seconds(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

struct Span
{
    std::string name;
    Clock::time_point start;
    Clock::time_point end;
    int parent = -1;
    unsigned thread = 0;
};

class Tracer
{
  public:
    explicit Tracer(bool enabled) : enabled_(enabled) {}

    void setEnabled(bool on) { enabled_ = on; }

    /** Open a span; returns its id (-1 when disabled). The parent is
     *  `parent` when given, else the innermost open span on this
     *  thread. */
    int begin(const std::string &name, int parent = -2);
    void end(int id);

    /** Record an already-finished interval. */
    int add(const std::string &name, Clock::time_point start,
            Clock::time_point end, int parent);

    /** The innermost open span on the calling thread, or -1. */
    static int current();

    /** Per-layer self time in seconds: each span's duration minus
     *  the part of its interval its children cover, summed by
     *  layer. */
    std::map<std::string, double> selfSeconds() const;

    std::size_t size() const;

    /** Chrome trace-event JSON ("X" events, microseconds). */
    std::string chromeJson() const;

  private:
    bool enabled_;
    Clock::time_point origin_ = Clock::now();
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
};

/** RAII span: opens on construction, closes on destruction. */
class Scoped
{
  public:
    Scoped(Tracer &t, const std::string &name, int parent = -2)
        : tracer_(t), id_(t.begin(name, parent))
    {
    }
    ~Scoped() { tracer_.end(id_); }
    Scoped(const Scoped &) = delete;
    Scoped &operator=(const Scoped &) = delete;

    int id() const { return id_; }

  private:
    Tracer &tracer_;
    int id_;
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_HH
