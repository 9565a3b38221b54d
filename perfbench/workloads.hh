/**
 * @file
 * The benchmark's workloads. Each one runs a fixed amount of
 * simulated work on freshly built instances (one repetition) and
 * reports what it measured; perfbench.cc repeats repetitions for the
 * requested wall time and reduces them.
 *
 * Every value in Rep::sim is derived from simulated events only, so
 * it is a pure function of the workload seed: identical across
 * repetitions, hosts and engine thread counts. Host times live in
 * the other fields.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "trace.hh"

namespace perfbench
{

struct Settings
{
    std::uint64_t seed = 1;

    /** Engine threads per simulation instance. */
    unsigned engineThreads = 1;

    /** Sweep worker threads (load_sweep only). */
    unsigned sweepThreads = 1;

    /** Concurrent service instances (fig3_serve_bursty only). */
    unsigned serveTenants = 1;

    /** Shorter simulated runs, for the determinism self-test. */
    bool quick = false;

    /** Directory for files the run writes (checkpoints). */
    std::string outDir;
};

/** What one repetition measured. */
struct Rep
{
    /** Host seconds spent building instances counted as set-up. */
    double setupS = 0.0;

    /** Simulated cycles per host second of each timed run (one per
     *  repetition, or per tenant). */
    std::vector<double> rates;

    /** Host milliseconds per window: a serve window, an engine chunk
     *  or a sweep point. */
    std::vector<double> windowsMs;

    /** mb1024_saturated with probes: chunk times at one engine
     *  thread (windowsMs then holds the multi-thread ones). */
    std::vector<double> windowsMsT1;

    /** Simulated results; must repeat exactly. */
    std::map<std::string, double> sim;

    /** Shard-cycles parked per measured cycle (mb1024_saturated):
     *  simulated, but it depends on the engine thread count. */
    double shardParkedPerCycle = 0.0;

    /** Host-time layer figures (seconds unless named otherwise). */
    std::map<std::string, double> host;

    /** Measured messages, and those that gave up or never
     *  resolved. */
    std::uint64_t messages = 0;
    std::uint64_t lostMessages = 0;

    /** Correctness checks run, and descriptions of failed ones. */
    std::uint64_t checks = 0;
    std::vector<std::string> failures;

    void
    check(bool ok, const std::string &what)
    {
        ++checks;
        if (!ok)
            failures.push_back(what);
    }
};

/**
 * One repetition of each workload. With `probes` set (the traced
 * runs) a workload also takes its layer measurements that perturb
 * timing: mb1024_saturated alternates engine chunks between one
 * thread and Settings::engineThreads, and fig3_serve_bursty steps a
 * twin instance without the JSONL emitter window by window beside
 * the main one and times an extra metrics snapshot per window.
 */
Rep runMb1024Saturated(const Settings &s, bool probes, Tracer &tracer);
Rep runFig3ServeBursty(const Settings &s, bool probes, Tracer &tracer);
Rep runLoadSweep(const Settings &s, bool probes, Tracer &tracer);

/** Rank percentile, the rule Histogram::percentile uses: the
 *  ceil(p/100 * n)-th smallest sample (0 when there are none). */
template <class T>
double
percentile(std::vector<T> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    auto rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(v.size())));
    rank = std::clamp<std::size_t>(rank, 1, v.size());
    return static_cast<double>(v[rank - 1]);
}

/** Probe an idle fig3 network: one 20-word message must take the
 *  paper's 28 cycles. Returns "" or the failure. */
std::string probeFig3(std::uint64_t seed);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
