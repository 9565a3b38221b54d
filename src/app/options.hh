/**
 * @file
 * Command-line options for the metro_sim driver tool.
 *
 * Kept in the library (rather than the tool's main) so option
 * parsing and the experiment runner are unit-testable.
 */

#ifndef METRO_APP_OPTIONS_HH
#define METRO_APP_OPTIONS_HH

#include <optional>
#include <string>
#include <vector>

#include "retry/policy.hh"
#include "traffic/patterns.hh"
#include "traffic/process.hh"

namespace metro
{

/** Supported prebuilt topologies. */
enum class Topology : std::uint8_t
{
    Fig3,      ///< 64-endpoint, 3-stage radix-4 (paper Figure 3)
    Fig1,      ///< 16-endpoint (paper Figure 1)
    Table32Jr, ///< 32-endpoint METROJR application network
    FatTree,   ///< 16-endpoint binary fat tree
};

/** Traffic loop discipline. */
enum class LoadMode : std::uint8_t
{
    Closed,  ///< stall-on-completion + think time
    Open,    ///< injection-process driven (Bernoulli/onoff/MMPP)
    Session, ///< open-loop session arrivals (traffic/session.hh)
};

/** Parsed command line. */
struct Options
{
    Topology topology = Topology::Fig3;
    LoadMode mode = LoadMode::Closed;
    TrafficPattern pattern = TrafficPattern::UniformRandom;

    /** Closed-loop think times to sweep (one run per value). */
    std::vector<unsigned> thinkTimes = {0};

    /** Open-loop injection probabilities to sweep. */
    std::vector<double> injectProbs = {0.01};

    /** Session-mode arrival rates to sweep. */
    std::vector<double> sessionRates = {0.002};

    /** Open-loop injection-process shape (--process,
     *  --burst-on/off/ratio). */
    InjectionProcessConfig process;

    /** Message-size distribution (--size-dist/min/max/alpha). */
    MessageSizeConfig size;

    /** RPC fan-out width (--fanout; 1 = plain messages). */
    unsigned fanout = 1;

    /** Traffic-class mix (--class-mix=f0,f1,...). */
    std::vector<double> classMix;

    /** Session-model knobs (--session-*, --diurnal-*). */
    SessionModelConfig session;

    unsigned messageWords = 20;
    Cycle warmup = 2000;
    Cycle measure = 20000;
    std::uint64_t seed = 1;

    unsigned routerFaults = 0;
    unsigned linkFaults = 0;
    Cycle faultCycle = 0;

    /** Fault schedule / campaign file (see app/faultfile.hh). */
    std::string faultFile;

    /** Attach the online DiagnosisEngine (see src/diag/). */
    bool diagnosis = false;

    NodeId hotNode = 0;
    double hotFraction = 0.25;

    bool csv = false;
    bool stats = false;
    bool help = false;

    /** Load the topology from a spec file instead of a preset. */
    std::string specFile;

    /** Run a sweep described by a sweep-spec file (see
     *  app/sweepfile.hh) instead of the --think/--inject lists. */
    std::string sweepFile;

    /** Worker threads for the sweep runner (0 = hardware). */
    unsigned threads = 1;

    /** True when --threads was given (overrides the sweep file). */
    bool threadsSet = false;

    /** Engine worker threads per simulation instance (sharded
     *  parallel stepping; 0 = hardware). Output stays
     *  byte-identical at every value. */
    unsigned engineThreads = 1;

    /** True when --engine-threads was given (overrides the sweep
     *  file). */
    bool engineThreadsSet = false;

    /** Emit sweep results as JSON instead of CSV/table. */
    bool json = false;

    /** Include wall-clock metadata in JSON output (breaks
     *  byte-identical comparison across thread counts). */
    bool timing = false;

    /** Print the engine's per-phase host-time profile (µs/cycle) to
     *  stderr after the run; never part of CSV, JSON or JSONL. */
    bool profile = false;

    /** Include each point's metrics blob (word-conservation
     *  counters, connection histograms) in the output; implies
     *  --json. Metrics come from simulated events only, so output
     *  stays byte-identical across thread counts. */
    bool metricsJson = false;

    /** When non-empty, re-run the last sweep point with a
     *  ConnectionTracer attached and write a Chrome
     *  (chrome://tracing) trace JSON to this path. */
    std::string traceConnections;

    /** Emit the topology as Graphviz DOT and exit. */
    bool dot = false;

    /** Retry-policy overrides (--retry-policy, --backoff-*,
     *  --retry-budget, --send-queue-limit, --inflight-limit,
     *  --age-*): applied on top of whatever retry config the
     *  selected preset or spec file carries. */
    RetryOverrides retry;

    /** Service mode (see docs/operations.md): run one long-lived
     *  instance in fixed windows, stream per-window metric deltas
     *  as JSON lines, checkpoint/restore, planned maintenance. @{ */
    bool serve = false;

    /** Absolute cycle to stop serving at (0 = until SIGINT). */
    Cycle serveCycles = 0;

    /** Cycles per metrics window. */
    Cycle window = 1024;

    /** One-shot checkpoint: path + boundary cycle. */
    std::string checkpointOut;
    Cycle checkpointAt = 0;

    /** Restore simulation + serve state from this checkpoint. */
    std::string restorePath;

    /** Planned maintenance ops, raw "ROUTER@START+DURATION". */
    std::vector<std::string> maintain;

    /** Periodic durable checkpoints into the retention store
     *  rooted at checkpointOut: every N cycles, keeping the last
     *  K (see serve/store.hh). 0 = one-shot mode only. @{ */
    Cycle checkpointEvery = 0;
    unsigned checkpointKeep = 3;
    /** @} */

    /** Resume from the newest valid checkpoint in the retention
     *  store (supervisor restarts use this; fresh start when the
     *  store is empty). */
    bool restoreAuto = false;

    /** Deterministic crash injection for the torture harness:
     *  abort() / hang exactly when the engine clock reaches this
     *  cycle (0 = off). @{ */
    Cycle crashAtCycle = 0;
    Cycle stallAtCycle = 0;
    /** @} */
    /** @} */

    /** Watchdog supervision (see serve/supervisor.hh): run the
     *  serve loop in a child, restart it from the newest valid
     *  checkpoint on crash or stall. @{ */
    bool supervise = false;
    unsigned restartBudget = 8;
    std::uint64_t stallTimeoutMs = 30000;
    std::uint64_t restartBackoffMs = 100;
    /** @} */

    /** argv[0] and argv[1..], verbatim: --supervise re-execs the
     *  binary with the supervisor-only flags stripped. @{ */
    std::string exePath;
    std::vector<std::string> rawArgs;
    /** @} */
};

/**
 * The canonical configuration string the checkpoint digest is
 * computed over. Includes everything that shapes the simulation
 * (topology, seed, traffic, faults, retry, serve window and
 * maintenance plan) and deliberately EXCLUDES thread counts —
 * restoring into a different --engine-threads is supported and
 * byte-identical.
 */
std::string canonicalConfigString(const Options &opts);

/**
 * Parse a bench-style `--threads=N` (or `--threads N`) flag from a
 * raw argv, ignoring everything else. Returns `fallback` when the
 * flag is absent; exits with an error message on a malformed value.
 * Bench binaries use this so their sweeps scale across cores
 * without each growing a full option parser.
 */
unsigned threadsFromArgv(int argc, const char *const *argv,
                         unsigned fallback = 1);

/**
 * Parse argv. On error returns std::nullopt and fills `error`
 * with a message; `--help` sets Options::help.
 */
std::optional<Options> parseOptions(int argc, const char *const *argv,
                                    std::string &error);

/** The usage text shown for --help and on errors. */
std::string usageText();

/**
 * Build the selected topology, apply faults, run the sweep, and
 * return the rendered report (table or CSV).
 */
std::string runFromOptions(const Options &options);

/**
 * --supervise entry point: build a SupervisorConfig from the parsed
 * options (exePath + rawArgs) and run the watchdog loop. Returns
 * the process exit code. The caller dispatches here INSTEAD of
 * runFromOptions.
 */
int runSupervisedFromOptions(const Options &options);

} // namespace metro

#endif // METRO_APP_OPTIONS_HH
