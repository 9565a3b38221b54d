/**
 * @file
 * The repository benchmark program (see README.md in this directory).
 *
 * Usage:
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--engine-threads N] [--quick] [--out DIR]
 *
 * Repeats the workload's fixed simulated run on freshly built
 * instances until S seconds are used (at least three repetitions),
 * checks every repetition's outputs, and prints:
 *   - a `fingerprint {...}` line (host and build);
 *   - one `metric NAME VALUE UNIT host|sim` line per reported metric;
 *   - one `sim NAME=VALUE` line per simulated result (the
 *     determinism self-test compares these across runs);
 *   - `check FAILED ...` lines for failed correctness checks;
 *   - as the last line, the result object
 *     {"correct", "attempted", "failed", "metrics"}.
 * With --trace 0 the metrics are the end-to-end ones, measured with
 * tracing off; with --trace 1 they are the per-layer ones, from
 * repetitions that record spans around every library call (the first
 * repetition runs untraced to give the tracing overhead). The spans
 * are written as Chrome trace JSON into DIR.
 */

#include <sys/resource.h>
#include <sys/stat.h>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "workloads.hh"

namespace
{

using namespace perfbench;

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    unsigned engineThreads = 0; ///< 0 = the workload's own
    bool quick = false;
    std::string out = ".bench_build/perfbench/out";
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "mb1024_saturated|fig3_serve_bursty|load_sweep "
                 "--seed N --seconds S --trace 0|1 "
                 "[--engine-threads N] [--quick] [--out DIR]\n",
                 why);
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                usage((arg + " needs a value").c_str());
            return argv[++i];
        };
        if (arg == "--workload")
            a.workload = next();
        else if (arg == "--seed")
            a.seed = std::strtoull(next().c_str(), nullptr, 10);
        else if (arg == "--seconds")
            a.seconds = std::strtod(next().c_str(), nullptr);
        else if (arg == "--trace")
            a.trace = next() != "0";
        else if (arg == "--engine-threads")
            a.engineThreads = static_cast<unsigned>(
                std::strtoul(next().c_str(), nullptr, 10));
        else if (arg == "--quick")
            a.quick = true;
        else if (arg == "--out")
            a.out = next();
        else
            usage(("unknown argument " + arg).c_str());
    }
    if (a.workload != "mb1024_saturated" &&
        a.workload != "fig3_serve_bursty" &&
        a.workload != "load_sweep")
        usage("unknown or missing --workload");
    return a;
}

std::string
cpuModel()
{
#if defined(__x86_64__) || defined(__i386__)
    unsigned regs[12] = {};
    if (__get_cpuid(0x80000000u, &regs[0], &regs[1], &regs[2],
                    &regs[3]) &&
        regs[0] >= 0x80000004u) {
        for (unsigned k = 0; k < 3; ++k)
            __get_cpuid(0x80000002u + k, &regs[4 * k],
                        &regs[4 * k + 1], &regs[4 * k + 2],
                        &regs[4 * k + 3]);
        std::string s(reinterpret_cast<const char *>(regs), 48);
        s = s.c_str();
        const auto b = s.find_first_not_of(' ');
        return b == std::string::npos ? "unknown" : s.substr(b);
    }
#endif
    return "unknown";
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

/**
 * The tail percentile reported as window_ms_p99: p99 where a run pools
 * well over a thousand windows (serve), else the highest whole
 * percentile that leaves at least ten windows above it in a 25-second
 * run on the reference host (README.md). Fixed per workload, so every
 * run reads the same percentile whatever its repetition count.
 */
double
tailPercentile(const std::string &workload)
{
    if (workload == "mb1024_saturated")
        return 98.0;
    if (workload == "load_sweep")
        return 97.0;
    return 99.0;
}

double
peakRssMb()
{
    struct rusage ru;
    if (getrusage(RUSAGE_SELF, &ru) != 0)
        return 0.0;
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

struct Metric
{
    const char *name;
    const char *unit;
    const char *kind; ///< "host" or "sim"
};

// Keep in step with BENCHMARK.json and README.md.
const Metric kEndToEnd[] = {
    {"setup_s", "s", "host"},
    {"sim_cycles_per_s", "1/s", "host"},
    {"peak_rss_mb", "MB", "host"},
    {"window_ms_p50", "ms", "host"},
    {"msg_latency_p50_cycles", "cycles", "sim"},
    {"msg_latency_p99_cycles", "cycles", "sim"},
    {"accepted_load", "fraction", "sim"},
};

const Metric kPerLayer[] = {
    {"sim.run_s", "s", "host"},
    {"sim.ticks_skipped_per_cycle", "count", "sim"},
    {"sim.links_fastpathed_per_cycle", "count", "sim"},
    {"sim.shard_parked_per_cycle", "count", "sim"},
    {"sim.thread_scaling", "ratio", "host"},
    {"sim.chunk_ms_p50", "ms", "host"},
    {"sim.chunk_ms_p99", "ms", "host"},
    {"network.build_s", "s", "host"},
    {"router.requests_per_cycle", "count", "sim"},
    {"router.words_forwarded_per_cycle", "count", "sim"},
    {"router.block_rate", "fraction", "sim"},
    {"endpoint.attempts_per_success", "ratio", "sim"},
    {"retry.shed_words", "count", "sim"},
    {"retry.budget_denials", "count", "sim"},
    {"traffic.experiment_s", "s", "host"},
    {"traffic.ledger_records", "count", "sim"},
    {"fault.link_failures", "count", "sim"},
    {"diag.masks", "count", "sim"},
    {"obs.snapshot_ms", "ms", "host"},
    {"serve.emit_ms", "ms", "host"},
    {"serve.emit_bytes_per_window", "bytes", "sim"},
    {"serve.window_growth", "ratio", "host"},
    {"checkpoint.save_s", "s", "host"},
    {"checkpoint.serialize_s", "s", "host"},
    {"checkpoint.durable_write_s", "s", "host"},
    {"checkpoint.restore_s", "s", "host"},
    {"checkpoint.mb", "MB", "sim"},
    {"checkpoint.bytes_per_cycle", "bytes", "sim"},
    {"sweep.wall_s", "s", "host"},
    {"sweep.parallel_efficiency", "fraction", "host"},
    {"sweep.point_s_max", "s", "host"},
    {"report.emit_s", "s", "host"},
    {"report.bytes", "bytes", "sim"},
    {"self.network_s", "s", "host"},
    {"self.sim_s", "s", "host"},
    {"self.traffic_s", "s", "host"},
    {"self.fault_s", "s", "host"},
    {"self.obs_s", "s", "host"},
    {"self.serve_s", "s", "host"},
    {"self.checkpoint_s", "s", "host"},
    {"self.sweep_s", "s", "host"},
    {"self.report_s", "s", "host"},
    {"self.bench_s", "s", "host"},
    {"trace.overhead_frac", "fraction", "host"},
};

std::string
fmt(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

void
mkdirs(const std::string &path)
{
    for (std::size_t i = 1; i <= path.size(); ++i)
        if (i == path.size() || path[i] == '/')
            ::mkdir(path.substr(0, i).c_str(), 0755);
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    const unsigned hw =
        std::max(1u, std::thread::hardware_concurrency());
    const unsigned upTo4 = std::min(4u, hw);

    Settings s;
    s.seed = args.seed;
    s.quick = args.quick;
    s.outDir = args.out;
    // mb1024 runs one sharded engine; serve and the sweep's points
    // each run one serial engine (the sweep parallelises points).
    s.engineThreads = args.workload == "mb1024_saturated" ? upTo4 : 1;
    if (args.engineThreads != 0)
        s.engineThreads = args.engineThreads;
    s.sweepThreads = args.workload == "load_sweep" ? upTo4 : 0;
    s.serveTenants = args.workload == "fig3_serve_bursty" ? upTo4 : 0;
    mkdirs(args.out);

    Rep (*run)(const Settings &, bool, Tracer &) =
        args.workload == "mb1024_saturated" ? runMb1024Saturated
        : args.workload == "fig3_serve_bursty" ? runFig3ServeBursty
                                               : runLoadSweep;

    char fp[512];
    std::snprintf(
        fp, sizeof(fp),
        "{\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, "
        "\"hardware_threads\": %u, \"cpu\": \"%s\", "
        "\"compiler\": \"%s\", \"build_type\": \"%s\", "
        "\"engine_threads\": %u, \"sweep_threads\": %u, "
        "\"serve_tenants\": %u, \"quick\": %d}",
        args.workload.c_str(),
        static_cast<unsigned long long>(args.seed), args.trace ? 1 : 0,
        hw, cpuModel().c_str(), "gcc-compatible " __VERSION__,
        PERFBENCH_BUILD_TYPE, s.engineThreads, s.sweepThreads,
        s.serveTenants, args.quick ? 1 : 0);
    std::printf("fingerprint %s\n", fp);

    std::vector<std::string> failures;
    std::uint64_t checks = 1;
    if (const std::string p = probeFig3(args.seed); !p.empty())
        failures.push_back(p);

    // Repetitions until the time budget is used, at least three. A
    // traced run pairs each traced repetition with an untraced one;
    // their difference is the tracing overhead.
    Tracer tracer(false);
    std::vector<Rep> reps, untraced;
    const auto start = Clock::now();
    while (reps.size() < (args.quick ? 1u : 3u) ||
           (!args.quick && seconds(start, Clock::now()) < args.seconds)) {
        if (args.trace && !args.quick)
            untraced.push_back(run(s, false, tracer));
        tracer.setEnabled(args.trace);
        reps.push_back(run(s, args.trace, tracer));
        tracer.setEnabled(false);
    }

    // Every repetition must reproduce the first one's simulated
    // results exactly (the untraced one too, at its thread count).
    std::vector<const Rep *> all;
    for (const auto &r : reps)
        all.push_back(&r);
    for (const auto &r : untraced)
        all.push_back(&r);
    std::uint64_t messages = 0, lost = 0;
    for (const Rep *r : all) {
        checks += r->checks + 1;
        failures.insert(failures.end(), r->failures.begin(),
                        r->failures.end());
        messages += r->messages;
        lost += r->lostMessages;
        bool same = true;
        for (const auto &[k, v] : r->sim) {
            const auto it = reps[0].sim.find(k);
            if (it != reps[0].sim.end() && it->second != v)
                same = false;
        }
        if (!same)
            failures.push_back(
                "simulated results differ between repetitions");
    }
    const Rep &first = reps[0];

    const auto collect = [&](auto get) {
        std::vector<double> v;
        for (const auto &r : reps)
            v.push_back(get(r));
        return v;
    };
    std::vector<double> windows;
    for (const auto &r : reps)
        windows.insert(windows.end(), r.windowsMs.begin(),
                       r.windowsMs.end());
    const double tailP = tailPercentile(args.workload);

    std::map<std::string, double> values;
    const auto hostMedian = [&](const std::string &key) {
        return median(collect([&](const Rep &r) {
            const auto it = r.host.find(key);
            return it == r.host.end() ? 0.0 : it->second;
        }));
    };
    const double checkpointSaveS =
        hostMedian("checkpoint.serialize_s") +
        hostMedian("checkpoint.durable_write_s");
    if (!args.trace) {
        values["setup_s"] =
            median(collect([](const Rep &r) { return r.setupS; }));
        std::vector<double> rates;
        for (const auto &r : reps)
            rates.insert(rates.end(), r.rates.begin(), r.rates.end());
        values["sim_cycles_per_s"] = median(rates);
        values["peak_rss_mb"] = peakRssMb();
        values["window_ms_p50"] = percentile(windows, 50);
        values["window_ms_p99"] = percentile(windows, tailP);
        for (const char *k : {"msg_latency_p50_cycles",
                              "msg_latency_p99_cycles",
                              "accepted_load"})
            values[k] = first.sim.at(k);
    } else {
        for (const auto &m : kPerLayer) {
            const auto it = first.sim.find(m.name);
            values[m.name] = it != first.sim.end() ? it->second
                                                   : hostMedian(m.name);
        }
        values["sim.shard_parked_per_cycle"] = first.shardParkedPerCycle;
        if (args.workload == "mb1024_saturated") {
            values["sim.chunk_ms_p50"] = percentile(windows, 50);
            values["sim.chunk_ms_p99"] = percentile(windows, tailP);
            std::vector<double> t1;
            for (const auto &r : reps)
                t1.insert(t1.end(), r.windowsMsT1.begin(),
                          r.windowsMsT1.end());
            if (!t1.empty())
                values["sim.thread_scaling"] =
                    median(t1) / median(windows);
        }
        if (args.workload == "fig3_serve_bursty")
            values["checkpoint.save_s"] = checkpointSaveS;
        // Self time per layer and traced repetition.
        const double n = static_cast<double>(reps.size());
        for (const auto &[layer, secs] : tracer.selfSeconds())
            if (values.count("self." + layer + "_s"))
                values["self." + layer + "_s"] = secs / n;
        std::vector<double> plain;
        for (const auto &r : untraced)
            plain.insert(plain.end(), r.windowsMs.begin(),
                         r.windowsMs.end());
        if (!plain.empty())
            values["trace.overhead_frac"] =
                median(windows) / median(plain) - 1.0;
        const std::string path = args.out + "/trace-" + args.workload +
                                 "-" + std::to_string(args.seed) +
                                 ".json";
        std::ofstream(path, std::ios::binary) << tracer.chromeJson();
        std::printf("trace %zu spans written to %s\n", tracer.size(),
                    path.c_str());
    }

    std::printf("repetitions %zu, %zu windows, window tail "
                "percentile p%.2f\n",
                reps.size(), windows.size(), tailP);
    std::printf("rates");
    for (const auto &r : reps)
        for (double v : r.rates)
            std::printf(" %.0f", v);
    std::printf(" cycles/s\n");
    for (const auto &[k, v] : first.sim)
        std::printf("sim %s=%s\n", k.c_str(), fmt(v).c_str());
    std::printf("sim_threads sim.shard_parked_per_cycle=%s\n",
                fmt(first.shardParkedPerCycle).c_str());

    // End-to-end figures printed by name but not gated: the window
    // tail does not reproduce within any allowed bound on a shared
    // host (README.md), and the others exist on one workload only.
    if (!args.trace) {
        std::printf("metric window_ms_p99 %s ms host\n",
                    fmt(values["window_ms_p99"]).c_str());
        if (args.workload == "load_sweep")
            std::printf("metric sweep_s %s s host\n",
                        fmt(hostMedian("sweep.wall_s")).c_str());
        if (args.workload == "fig3_serve_bursty") {
            std::printf("metric checkpoint_save_s %s s host\n",
                        fmt(checkpointSaveS).c_str());
            std::printf("metric checkpoint_restore_s %s s host\n",
                        fmt(hostMedian("checkpoint.restore_s")).c_str());
            std::printf("metric checkpoint_mb %s MB sim\n",
                        fmt(first.sim.at("checkpoint.mb")).c_str());
        }
    }
    const std::uint64_t failed = lost + failures.size();
    const std::uint64_t attempted = messages + checks;
    std::printf("metric failed_frac %s fraction sim\n",
                fmt(static_cast<double>(failed) /
                    static_cast<double>(attempted))
                    .c_str());
    const Metric *list = args.trace ? kPerLayer : kEndToEnd;
    const std::size_t count =
        args.trace ? std::size(kPerLayer) : std::size(kEndToEnd);
    std::string metrics;
    for (std::size_t i = 0; i < count; ++i) {
        const Metric &m = list[i];
        const double v = values[m.name];
        std::printf("metric %s %s %s %s\n", m.name, fmt(v).c_str(),
                    m.unit, m.kind);
        metrics += std::string(i ? ", " : "") + "\"" + m.name +
                   "\": {\"value\": " + fmt(v) + ", \"unit\": \"" +
                   m.unit + "\"}";
    }
    for (const auto &f : failures)
        std::printf("check FAILED %s\n", f.c_str());
    const bool correct = failures.empty() && lost == 0;

    char head[128];
    std::snprintf(head, sizeof(head),
                  "{\"correct\": %s, \"attempted\": %llu, "
                  "\"failed\": %llu, \"metrics\": {",
                  correct ? "true" : "false",
                  static_cast<unsigned long long>(attempted),
                  static_cast<unsigned long long>(failed));
    const std::string result = head + metrics + "}}";
    std::ofstream(args.out + "/result-" + args.workload + "-" +
                      std::to_string(args.seed) + "-trace" +
                      (args.trace ? "1" : "0") + ".json",
                  std::ios::binary)
        << "{\"fingerprint\": " << fp << ", \"result\": " << result
        << "}\n";
    std::printf("%s\n", result.c_str());
    return correct ? 0 : 1;
}
