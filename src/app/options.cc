#include "app/options.hh"

#include "app/specfile.hh"
#include "app/sweepfile.hh"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include <unistd.h>

#include "app/faultfile.hh"
#include "common/logging.hh"
#include "diag/engine.hh"
#include "fault/campaign.hh"
#include "fault/injector.hh"
#include "obs/tracer.hh"
#include "network/fattree.hh"
#include "network/presets.hh"
#include "report/csv.hh"
#include "report/dot.hh"
#include "report/json.hh"
#include "report/stats_dump.hh"
#include "serve/service.hh"
#include "serve/signal.hh"
#include "serve/supervisor.hh"
#include "sweep/sweep.hh"
#include "traffic/drivers.hh"
#include "traffic/experiment.hh"

namespace metro
{

namespace
{

std::vector<std::string>
splitCommas(const std::string &s)
{
    std::vector<std::string> parts;
    std::string cur;
    for (char c : s) {
        if (c == ',') {
            parts.push_back(cur);
            cur.clear();
        } else {
            cur += c;
        }
    }
    parts.push_back(cur);
    return parts;
}

bool
parseUnsigned(const std::string &s, std::uint64_t &out)
{
    if (s.empty())
        return false;
    char *end = nullptr;
    out = std::strtoull(s.c_str(), &end, 10);
    return end != nullptr && *end == '\0';
}

bool
parseDouble(const std::string &s, double &out)
{
    if (s.empty())
        return false;
    char *end = nullptr;
    out = std::strtod(s.c_str(), &end);
    return end != nullptr && *end == '\0';
}

} // namespace

std::string
usageText()
{
    return
        "metro_sim — drive a METRO network simulation\n"
        "\n"
        "usage: metro_sim [options]\n"
        "  --topology=fig3|fig1|table32jr|fattree   (default fig3)\n"
        "  --mode=closed|open|session               (default closed)\n"
        "  --pattern=uniform|hotspot|transpose|bitreversal|"
        "permutation\n"
        "  --think=N[,N...]      closed-loop think-time sweep\n"
        "  --inject=P[,P...]     open-loop injection-probability "
        "sweep\n"
        "  --process=bernoulli|onoff|mmpp\n"
        "                        open-loop injection process "
        "(default bernoulli)\n"
        "  --burst-on=N          mean ON/high-state dwell, cycles "
        "(default 64)\n"
        "  --burst-off=N         mean OFF/low-state dwell, cycles "
        "(default 192)\n"
        "  --burst-ratio=F       MMPP high:low rate ratio (default "
        "8)\n"
        "  --size-dist=fixed|pareto  message-size distribution "
        "(default fixed)\n"
        "  --size-min=N          bounded-Pareto min words (default "
        "4)\n"
        "  --size-max=N          bounded-Pareto max words (default "
        "64)\n"
        "  --size-alpha=F        Pareto shape (default 1.5)\n"
        "  --fanout=K            RPC fan-out: K request-reply legs "
        "per request,\n"
        "                        complete when all reply (default "
        "1)\n"
        "  --class-mix=F[,F...]  traffic-class fractions, sum 1 "
        "(max 4 classes)\n"
        "  --session-rate=R[,R...]  session-mode arrival-rate "
        "sweep\n"
        "  --session-requests=N  requests per session (default 8)\n"
        "  --session-gap=N       mean intra-session gap, cycles "
        "(default 32)\n"
        "  --session-max-active=N  live-session cap per endpoint "
        "(default 4096)\n"
        "  --diurnal-period=N    diurnal load period, cycles (0 = "
        "flat)\n"
        "  --diurnal-amplitude=F diurnal modulation depth in [0,1] "
        "(default 0.5)\n"
        "  --message-words=N     words per message incl. checksum "
        "(default 20)\n"
        "  --warmup=N            warmup cycles (default 2000)\n"
        "  --measure=N           measurement cycles (default 20000)\n"
        "  --seed=N              simulation seed (default 1)\n"
        "  --router-faults=N     dead routers (survivable sample)\n"
        "  --link-faults=N       dead links (survivable sample)\n"
        "  --fault-cycle=N       cycle the faults strike (default "
        "0)\n"
        "  --fault-file=PATH     scheduled faults and/or stochastic\n"
        "                        campaign (see docs/faults.md)\n"
        "  --diagnosis           attach the online fault-diagnosis\n"
        "                        and self-healing engine\n"
        "  --hot-node=N          hotspot node (default 0)\n"
        "  --hot-fraction=F      hotspot probability (default "
        "0.25)\n"
        "  --retry-policy=uniform|exponential|aimd\n"
        "                        endpoint backoff discipline "
        "(default uniform)\n"
        "  --backoff-min=N       backoff window lower bound, "
        "cycles\n"
        "  --backoff-max=N       backoff window upper bound, "
        "cycles\n"
        "  --backoff-cap=N       exponential/aimd window cap, "
        "cycles\n"
        "  --retry-jitter        decorrelated jitter "
        "(exponential)\n"
        "  --retry-budget=F      retry tokens granted per success "
        "(0 = off)\n"
        "  --retry-budget-cap=F  retry token-bucket capacity\n"
        "  --send-queue-limit=N  shed sends beyond this queue depth "
        "(0 = off)\n"
        "  --inflight-limit=N    network-wide active-message gate "
        "(0 = off)\n"
        "  --age-clamp=N         clamp backoff for messages older "
        "than N cycles\n"
        "  --age-starve=N        budget bypass + starvation count "
        "past N cycles\n"
        "  --csv                 emit CSV instead of a table\n"
        "  --stats               append router/endpoint statistics\n"
        "  --spec-file=PATH      load a custom multibutterfly spec\n"
        "  --sweep-file=PATH     run the sweep described by a sweep "
        "spec\n"
        "  --threads=N           sweep worker threads (0 = one per "
        "core)\n"
        "  --engine-threads=N    engine worker threads per instance "
        "(0 = one\n"
        "                        per core); output is byte-identical "
        "at every N\n"
        "  --json                emit sweep results as JSON\n"
        "  --timing              include wall-clock metadata in "
        "JSON\n"
        "  --profile             print per-phase engine host time "
        "(us/cycle)\n"
        "                        to stderr after the run\n"
        "  --metrics-json        include per-point metrics blobs "
        "(implies --json)\n"
        "  --trace-connections=PATH  write a chrome://tracing JSON\n"
        "                        of the last point's connections\n"
        "  --dot                 print the topology as Graphviz DOT\n"
        "  --serve               service mode: run one instance in\n"
        "                        windows, stream JSONL metric deltas\n"
        "  --serve-cycles=N      absolute cycle to stop serving at\n"
        "                        (0 = run until SIGINT/SIGTERM)\n"
        "  --window=N            cycles per metrics window (default "
        "1024)\n"
        "  --checkpoint-out=PATH write a checkpoint here (at\n"
        "                        --checkpoint-at, and on SIGINT)\n"
        "  --checkpoint-at=N     boundary cycle for the one-shot "
        "checkpoint\n"
        "  --restore=PATH        resume from a checkpoint (same "
        "config\n"
        "                        required; --engine-threads may "
        "differ)\n"
        "  --maintain=R@S+D      drain router R at cycle S, keep it\n"
        "                        disabled D cycles (repeatable)\n"
        "  --checkpoint-every=N  durable checkpoint every N cycles "
        "into the\n"
        "                        retention store rooted at "
        "--checkpoint-out\n"
        "  --checkpoint-keep=N   checkpoints retained in the store "
        "(default 3)\n"
        "  --restore-auto        resume from the newest valid "
        "checkpoint in\n"
        "                        the store (fresh start if empty)\n"
        "  --supervise           run serve in a watched child; "
        "restart it\n"
        "                        from the store on crash or stall\n"
        "  --restart-budget=N    restarts before giving up (default "
        "8)\n"
        "  --stall-timeout-ms=N  no-progress deadline before SIGKILL "
        "(default\n"
        "                        30000)\n"
        "  --restart-backoff-ms=N  crash-loop backoff base (default "
        "100)\n"
        "  --crash-at-cycle=N    torture harness: abort() at engine "
        "cycle N\n"
        "  --stall-at-cycle=N    torture harness: hang at engine "
        "cycle N\n"
        "  --help                this text\n";
}

std::optional<Options>
parseOptions(int argc, const char *const *argv, std::string &error)
{
    Options opts;
    // --supervise re-execs the binary with the same arguments, so
    // keep the raw command line around verbatim.
    if (argc > 0)
        opts.exePath = argv[0];
    for (int k = 1; k < argc; ++k)
        opts.rawArgs.push_back(argv[k]);
    for (int k = 1; k < argc; ++k) {
        const std::string arg = argv[k];
        const auto eq = arg.find('=');
        const std::string key =
            eq == std::string::npos ? arg : arg.substr(0, eq);
        const std::string value =
            eq == std::string::npos ? "" : arg.substr(eq + 1);

        auto want_value = [&]() {
            if (value.empty()) {
                error = key + " requires a value";
                return false;
            }
            return true;
        };

        if (key == "--help") {
            opts.help = true;
            return opts;
        } else if (key == "--csv") {
            opts.csv = true;
        } else if (key == "--stats") {
            opts.stats = true;
        } else if (key == "--dot") {
            opts.dot = true;
        } else if (key == "--spec-file") {
            if (!want_value())
                return std::nullopt;
            opts.specFile = value;
        } else if (key == "--sweep-file") {
            if (!want_value())
                return std::nullopt;
            opts.sweepFile = value;
        } else if (key == "--json") {
            opts.json = true;
        } else if (key == "--timing") {
            opts.timing = true;
        } else if (key == "--profile") {
            opts.profile = true;
        } else if (key == "--metrics-json") {
            opts.metricsJson = true;
            opts.json = true;
        } else if (key == "--trace-connections") {
            if (!want_value())
                return std::nullopt;
            opts.traceConnections = value;
        } else if (key == "--threads") {
            std::uint64_t v;
            if (!want_value() || !parseUnsigned(value, v)) {
                error = "bad --threads";
                return std::nullopt;
            }
            opts.threads = static_cast<unsigned>(v);
            opts.threadsSet = true;
        } else if (key == "--engine-threads") {
            std::uint64_t v;
            if (!want_value() || !parseUnsigned(value, v)) {
                error = "bad --engine-threads";
                return std::nullopt;
            }
            opts.engineThreads = static_cast<unsigned>(v);
            opts.engineThreadsSet = true;
        } else if (key == "--topology") {
            if (!want_value())
                return std::nullopt;
            if (value == "fig3")
                opts.topology = Topology::Fig3;
            else if (value == "fig1")
                opts.topology = Topology::Fig1;
            else if (value == "table32jr")
                opts.topology = Topology::Table32Jr;
            else if (value == "fattree")
                opts.topology = Topology::FatTree;
            else {
                error = "unknown topology: " + value;
                return std::nullopt;
            }
        } else if (key == "--mode") {
            if (!want_value())
                return std::nullopt;
            if (value == "closed")
                opts.mode = LoadMode::Closed;
            else if (value == "open")
                opts.mode = LoadMode::Open;
            else if (value == "session")
                opts.mode = LoadMode::Session;
            else {
                error = "unknown mode: " + value;
                return std::nullopt;
            }
        } else if (key == "--pattern") {
            if (!want_value())
                return std::nullopt;
            if (value == "uniform")
                opts.pattern = TrafficPattern::UniformRandom;
            else if (value == "hotspot")
                opts.pattern = TrafficPattern::Hotspot;
            else if (value == "transpose")
                opts.pattern = TrafficPattern::Transpose;
            else if (value == "bitreversal")
                opts.pattern = TrafficPattern::BitReversal;
            else if (value == "permutation")
                opts.pattern = TrafficPattern::Permutation;
            else {
                error = "unknown pattern: " + value;
                return std::nullopt;
            }
        } else if (key == "--think") {
            if (!want_value())
                return std::nullopt;
            opts.thinkTimes.clear();
            for (const auto &part : splitCommas(value)) {
                std::uint64_t v;
                if (!parseUnsigned(part, v)) {
                    error = "bad --think value: " + part;
                    return std::nullopt;
                }
                opts.thinkTimes.push_back(
                    static_cast<unsigned>(v));
            }
        } else if (key == "--inject") {
            if (!want_value())
                return std::nullopt;
            opts.injectProbs.clear();
            for (const auto &part : splitCommas(value)) {
                double v;
                if (!parseDouble(part, v) || v < 0.0 || v > 1.0) {
                    error = "bad --inject value: " + part;
                    return std::nullopt;
                }
                opts.injectProbs.push_back(v);
            }
        } else if (key == "--process") {
            if (!want_value() ||
                !parseInjectionKind(value, opts.process.kind)) {
                error = "bad --process: expected bernoulli, onoff, "
                        "or mmpp";
                return std::nullopt;
            }
        } else if (key == "--burst-on") {
            double v;
            if (!want_value() || !parseDouble(value, v) || v < 1.0) {
                error = "bad --burst-on";
                return std::nullopt;
            }
            opts.process.burstOn = v;
        } else if (key == "--burst-off") {
            double v;
            if (!want_value() || !parseDouble(value, v) || v < 1.0) {
                error = "bad --burst-off";
                return std::nullopt;
            }
            opts.process.burstOff = v;
        } else if (key == "--burst-ratio") {
            double v;
            if (!want_value() || !parseDouble(value, v) || v < 1.0) {
                error = "bad --burst-ratio";
                return std::nullopt;
            }
            opts.process.burstRatio = v;
        } else if (key == "--size-dist") {
            if (!want_value() ||
                !parseSizeDist(value, opts.size.dist)) {
                error = "bad --size-dist: expected fixed or pareto";
                return std::nullopt;
            }
        } else if (key == "--size-min") {
            std::uint64_t v;
            if (!want_value() || !parseUnsigned(value, v) || v == 0) {
                error = "bad --size-min";
                return std::nullopt;
            }
            opts.size.minWords = static_cast<unsigned>(v);
        } else if (key == "--size-max") {
            std::uint64_t v;
            if (!want_value() || !parseUnsigned(value, v) || v == 0) {
                error = "bad --size-max";
                return std::nullopt;
            }
            opts.size.maxWords = static_cast<unsigned>(v);
        } else if (key == "--size-alpha") {
            double v;
            if (!want_value() || !parseDouble(value, v) || v <= 0.0) {
                error = "bad --size-alpha";
                return std::nullopt;
            }
            opts.size.alpha = v;
        } else if (key == "--fanout") {
            std::uint64_t v;
            if (!want_value() || !parseUnsigned(value, v) || v == 0) {
                error = "bad --fanout";
                return std::nullopt;
            }
            opts.fanout = static_cast<unsigned>(v);
        } else if (key == "--class-mix") {
            if (!want_value())
                return std::nullopt;
            opts.classMix.clear();
            for (const auto &part : splitCommas(value)) {
                double v;
                if (!parseDouble(part, v)) {
                    error = "bad --class-mix value: " + part;
                    return std::nullopt;
                }
                opts.classMix.push_back(v);
            }
        } else if (key == "--session-rate") {
            if (!want_value())
                return std::nullopt;
            opts.sessionRates.clear();
            for (const auto &part : splitCommas(value)) {
                double v;
                if (!parseDouble(part, v) || v < 0.0 || v > 1.0) {
                    error = "bad --session-rate value: " + part;
                    return std::nullopt;
                }
                opts.sessionRates.push_back(v);
            }
        } else if (key == "--session-requests") {
            std::uint64_t v;
            if (!want_value() || !parseUnsigned(value, v) || v == 0) {
                error = "bad --session-requests";
                return std::nullopt;
            }
            opts.session.requests = static_cast<unsigned>(v);
        } else if (key == "--session-gap") {
            std::uint64_t v;
            if (!want_value() || !parseUnsigned(value, v)) {
                error = "bad --session-gap";
                return std::nullopt;
            }
            opts.session.gap = static_cast<unsigned>(v);
        } else if (key == "--session-max-active") {
            std::uint64_t v;
            if (!want_value() || !parseUnsigned(value, v) || v == 0) {
                error = "bad --session-max-active";
                return std::nullopt;
            }
            opts.session.maxActive = static_cast<unsigned>(v);
        } else if (key == "--diurnal-period") {
            std::uint64_t v;
            if (!want_value() || !parseUnsigned(value, v)) {
                error = "bad --diurnal-period";
                return std::nullopt;
            }
            opts.session.diurnalPeriod = v;
        } else if (key == "--diurnal-amplitude") {
            double v;
            if (!want_value() || !parseDouble(value, v) || v < 0.0 ||
                v > 1.0) {
                error = "bad --diurnal-amplitude";
                return std::nullopt;
            }
            opts.session.diurnalAmplitude = v;
        } else if (key == "--message-words") {
            std::uint64_t v;
            if (!want_value() || !parseUnsigned(value, v) || v == 0) {
                error = "bad --message-words";
                return std::nullopt;
            }
            opts.messageWords = static_cast<unsigned>(v);
        } else if (key == "--warmup") {
            std::uint64_t v;
            if (!want_value() || !parseUnsigned(value, v)) {
                error = "bad --warmup";
                return std::nullopt;
            }
            opts.warmup = v;
        } else if (key == "--measure") {
            std::uint64_t v;
            if (!want_value() || !parseUnsigned(value, v) || v == 0) {
                error = "bad --measure";
                return std::nullopt;
            }
            opts.measure = v;
        } else if (key == "--seed") {
            std::uint64_t v;
            if (!want_value() || !parseUnsigned(value, v)) {
                error = "bad --seed";
                return std::nullopt;
            }
            opts.seed = v;
        } else if (key == "--router-faults") {
            std::uint64_t v;
            if (!want_value() || !parseUnsigned(value, v)) {
                error = "bad --router-faults";
                return std::nullopt;
            }
            opts.routerFaults = static_cast<unsigned>(v);
        } else if (key == "--link-faults") {
            std::uint64_t v;
            if (!want_value() || !parseUnsigned(value, v)) {
                error = "bad --link-faults";
                return std::nullopt;
            }
            opts.linkFaults = static_cast<unsigned>(v);
        } else if (key == "--fault-cycle") {
            std::uint64_t v;
            if (!want_value() || !parseUnsigned(value, v)) {
                error = "bad --fault-cycle";
                return std::nullopt;
            }
            opts.faultCycle = v;
        } else if (key == "--fault-file") {
            if (!want_value())
                return std::nullopt;
            opts.faultFile = value;
        } else if (key == "--diagnosis") {
            opts.diagnosis = true;
        } else if (key == "--hot-node") {
            std::uint64_t v;
            if (!want_value() || !parseUnsigned(value, v)) {
                error = "bad --hot-node";
                return std::nullopt;
            }
            opts.hotNode = static_cast<NodeId>(v);
        } else if (key == "--hot-fraction") {
            double v;
            if (!want_value() || !parseDouble(value, v) || v < 0.0 ||
                v > 1.0) {
                error = "bad --hot-fraction";
                return std::nullopt;
            }
            opts.hotFraction = v;
        } else if (key == "--retry-policy") {
            BackoffPolicyKind kind;
            if (!want_value() ||
                !parseBackoffPolicyKind(value, kind)) {
                error = "bad --retry-policy: expected uniform, "
                        "exponential, or aimd";
                return std::nullopt;
            }
            opts.retry.kind = kind;
        } else if (key == "--backoff-min") {
            std::uint64_t v;
            if (!want_value() || !parseUnsigned(value, v)) {
                error = "bad --backoff-min";
                return std::nullopt;
            }
            opts.retry.backoffMin = static_cast<unsigned>(v);
        } else if (key == "--backoff-max") {
            std::uint64_t v;
            if (!want_value() || !parseUnsigned(value, v)) {
                error = "bad --backoff-max";
                return std::nullopt;
            }
            opts.retry.backoffMax = static_cast<unsigned>(v);
        } else if (key == "--backoff-cap") {
            std::uint64_t v;
            if (!want_value() || !parseUnsigned(value, v) || v == 0) {
                error = "bad --backoff-cap";
                return std::nullopt;
            }
            opts.retry.backoffCap = static_cast<unsigned>(v);
        } else if (key == "--retry-jitter") {
            opts.retry.decorrelatedJitter = true;
        } else if (key == "--retry-budget") {
            double v;
            if (!want_value() || !parseDouble(value, v) || v < 0.0) {
                error = "bad --retry-budget";
                return std::nullopt;
            }
            opts.retry.retryBudget = v;
        } else if (key == "--retry-budget-cap") {
            double v;
            if (!want_value() || !parseDouble(value, v) || v < 1.0) {
                error = "bad --retry-budget-cap";
                return std::nullopt;
            }
            opts.retry.retryBudgetCap = v;
        } else if (key == "--send-queue-limit") {
            std::uint64_t v;
            if (!want_value() || !parseUnsigned(value, v)) {
                error = "bad --send-queue-limit";
                return std::nullopt;
            }
            opts.retry.sendQueueLimit = static_cast<unsigned>(v);
        } else if (key == "--inflight-limit") {
            std::uint64_t v;
            if (!want_value() || !parseUnsigned(value, v)) {
                error = "bad --inflight-limit";
                return std::nullopt;
            }
            opts.retry.inflightLimit = static_cast<unsigned>(v);
        } else if (key == "--age-clamp") {
            std::uint64_t v;
            if (!want_value() || !parseUnsigned(value, v)) {
                error = "bad --age-clamp";
                return std::nullopt;
            }
            opts.retry.ageClamp = v;
        } else if (key == "--age-starve") {
            std::uint64_t v;
            if (!want_value() || !parseUnsigned(value, v)) {
                error = "bad --age-starve";
                return std::nullopt;
            }
            opts.retry.ageStarve = v;
        } else if (key == "--serve") {
            opts.serve = true;
        } else if (key == "--serve-cycles") {
            std::uint64_t v;
            if (!want_value() || !parseUnsigned(value, v)) {
                error = "bad --serve-cycles";
                return std::nullopt;
            }
            opts.serveCycles = v;
        } else if (key == "--window") {
            std::uint64_t v;
            if (!want_value() || !parseUnsigned(value, v) || v == 0) {
                error = "bad --window";
                return std::nullopt;
            }
            opts.window = v;
        } else if (key == "--checkpoint-out") {
            if (!want_value())
                return std::nullopt;
            opts.checkpointOut = value;
        } else if (key == "--checkpoint-at") {
            std::uint64_t v;
            if (!want_value() || !parseUnsigned(value, v) || v == 0) {
                error = "bad --checkpoint-at";
                return std::nullopt;
            }
            opts.checkpointAt = v;
        } else if (key == "--restore") {
            if (!want_value())
                return std::nullopt;
            opts.restorePath = value;
        } else if (key == "--restore-auto") {
            opts.restoreAuto = true;
        } else if (key == "--checkpoint-every") {
            std::uint64_t v;
            if (!want_value() || !parseUnsigned(value, v) || v == 0) {
                error = "bad --checkpoint-every";
                return std::nullopt;
            }
            opts.checkpointEvery = v;
        } else if (key == "--checkpoint-keep") {
            std::uint64_t v;
            if (!want_value() || !parseUnsigned(value, v) || v == 0) {
                error = "bad --checkpoint-keep";
                return std::nullopt;
            }
            opts.checkpointKeep = static_cast<unsigned>(v);
        } else if (key == "--supervise") {
            opts.supervise = true;
        } else if (key == "--restart-budget") {
            std::uint64_t v;
            if (!want_value() || !parseUnsigned(value, v)) {
                error = "bad --restart-budget";
                return std::nullopt;
            }
            opts.restartBudget = static_cast<unsigned>(v);
        } else if (key == "--stall-timeout-ms") {
            std::uint64_t v;
            if (!want_value() || !parseUnsigned(value, v) || v == 0) {
                error = "bad --stall-timeout-ms";
                return std::nullopt;
            }
            opts.stallTimeoutMs = v;
        } else if (key == "--restart-backoff-ms") {
            std::uint64_t v;
            if (!want_value() || !parseUnsigned(value, v)) {
                error = "bad --restart-backoff-ms";
                return std::nullopt;
            }
            opts.restartBackoffMs = v;
        } else if (key == "--crash-at-cycle") {
            std::uint64_t v;
            if (!want_value() || !parseUnsigned(value, v) || v == 0) {
                error = "bad --crash-at-cycle";
                return std::nullopt;
            }
            opts.crashAtCycle = v;
        } else if (key == "--stall-at-cycle") {
            std::uint64_t v;
            if (!want_value() || !parseUnsigned(value, v) || v == 0) {
                error = "bad --stall-at-cycle";
                return std::nullopt;
            }
            opts.stallAtCycle = v;
        } else if (key == "--maintain") {
            MaintenanceOp op;
            if (!want_value() || !parseMaintenanceOp(value, op)) {
                error = "bad --maintain: expected "
                        "ROUTER@START+DURATION";
                return std::nullopt;
            }
            opts.maintain.push_back(value);
        } else {
            error = "unknown option: " + key;
            return std::nullopt;
        }
    }
    if (opts.retry.any()) {
        // Reject inconsistent retry flags here, with a parser-grade
        // message, rather than letting the NI constructor assert
        // mid-build (e.g. --backoff-min=9 --backoff-max=2 would
        // otherwise wrap the window span).
        RetryPolicyConfig merged;
        opts.retry.apply(merged);
        const std::string verr = validateRetryPolicy(merged);
        if (!verr.empty()) {
            error = verr;
            return std::nullopt;
        }
    }
    {
        // Workload-knob cross-checks (the same validator the sweep
        // file uses): catch hotNode outside the preset topology,
        // bogus class mixes, impossible fan-outs. A spec file's
        // endpoint count is unknown until build time; 0 skips the
        // size-dependent checks.
        unsigned n = 0;
        if (opts.specFile.empty()) {
            switch (opts.topology) {
              case Topology::Fig3: n = 64; break;
              case Topology::Fig1: n = 16; break;
              case Topology::Table32Jr: n = 32; break;
              case Topology::FatTree: n = 16; break;
            }
        }
        ExperimentConfig cfg;
        cfg.messageWords = opts.messageWords;
        cfg.pattern = opts.pattern;
        cfg.hotNode = opts.hotNode;
        cfg.hotFraction = opts.hotFraction;
        cfg.process = opts.process;
        cfg.size = opts.size;
        cfg.fanout = opts.fanout;
        cfg.classMix = opts.classMix;
        cfg.session = opts.session;
        for (double p : opts.injectProbs) {
            cfg.injectProb = p;
            const std::string werr = validateExperimentConfig(cfg, n);
            if (!werr.empty()) {
                error = werr;
                return std::nullopt;
            }
        }
        for (double r : opts.sessionRates) {
            cfg.session.rate = r;
            const std::string werr = validateExperimentConfig(cfg, n);
            if (!werr.empty()) {
                error = werr;
                return std::nullopt;
            }
        }
    }
    if (opts.serve && opts.mode == LoadMode::Session) {
        error = "--serve does not support --mode=session yet "
                "(session drivers are not checkpointable)";
        return std::nullopt;
    }
    if (opts.checkpointEvery != 0 && opts.checkpointOut.empty()) {
        error = "--checkpoint-every requires --checkpoint-out "
                "(the store's base path)";
        return std::nullopt;
    }
    if (opts.restoreAuto && opts.checkpointEvery == 0) {
        error = "--restore-auto requires --checkpoint-every "
                "(the retention store)";
        return std::nullopt;
    }
    if (opts.restoreAuto && !opts.restorePath.empty()) {
        error = "--restore-auto and --restore are mutually "
                "exclusive";
        return std::nullopt;
    }
    if (opts.supervise) {
        if (!opts.serve) {
            error = "--supervise requires --serve";
            return std::nullopt;
        }
        if (opts.checkpointEvery == 0) {
            error = "--supervise requires --checkpoint-every (crash "
                    "recovery needs a checkpoint store)";
            return std::nullopt;
        }
    }
    if ((opts.crashAtCycle != 0 || opts.stallAtCycle != 0) &&
        !opts.serve) {
        error = "--crash-at-cycle/--stall-at-cycle require --serve";
        return std::nullopt;
    }
    return opts;
}

namespace
{

struct BuiltNetwork
{
    std::unique_ptr<Network> net;
    // Only multibutterflies support survivable-fault sampling.
    std::optional<MultibutterflySpec> mbSpec;
};

BuiltNetwork
buildTopology(const Options &opts)
{
    BuiltNetwork built;
    if (!opts.specFile.empty()) {
        std::string error;
        auto spec = loadSpecFile(opts.specFile, error);
        if (!spec.has_value())
            METRO_FATAL("--spec-file: %s", error.c_str());
        spec->seed = opts.seed;
        opts.retry.apply(spec->niConfig.retry);
        built.net = buildMultibutterfly(*spec);
        built.mbSpec = *spec;
        return built;
    }
    switch (opts.topology) {
      case Topology::Fig3: {
        auto spec = fig3Spec(opts.seed);
        opts.retry.apply(spec.niConfig.retry);
        built.net = buildMultibutterfly(spec);
        built.mbSpec = spec;
        break;
      }
      case Topology::Fig1: {
        auto spec = fig1Spec(opts.seed);
        opts.retry.apply(spec.niConfig.retry);
        built.net = buildMultibutterfly(spec);
        built.mbSpec = spec;
        break;
      }
      case Topology::Table32Jr: {
        auto spec = table32Spec(RouterParams::metroJr(), opts.seed);
        opts.retry.apply(spec.niConfig.retry);
        built.net = buildMultibutterfly(spec);
        built.mbSpec = spec;
        break;
      }
      case Topology::FatTree: {
        FatTreeSpec spec;
        spec.levels = 4;
        spec.seed = opts.seed;
        opts.retry.apply(spec.niConfig.retry);
        built.net = buildFatTree(spec);
        break;
      }
    }
    return built;
}

} // namespace

unsigned
threadsFromArgv(int argc, const char *const *argv, unsigned fallback)
{
    for (int k = 1; k < argc; ++k) {
        const std::string arg = argv[k];
        std::string value;
        if (arg.rfind("--threads=", 0) == 0)
            value = arg.substr(10);
        else if (arg == "--threads" && k + 1 < argc)
            value = argv[k + 1];
        else
            continue;
        std::uint64_t v;
        if (!parseUnsigned(value, v))
            METRO_FATAL("bad --threads value: %s", value.c_str());
        return static_cast<unsigned>(v);
    }
    return fallback;
}

std::string
canonicalConfigString(const Options &opts)
{
    std::ostringstream s;
    s << "topology=" << static_cast<int>(opts.topology) << '\n'
      << "spec=" << opts.specFile << '\n'
      << "mode=" << static_cast<int>(opts.mode) << '\n'
      << "pattern=" << static_cast<int>(opts.pattern) << '\n'
      << "messageWords=" << opts.messageWords << '\n'
      << "seed=" << opts.seed << '\n'
      << "routerFaults=" << opts.routerFaults << '\n'
      << "linkFaults=" << opts.linkFaults << '\n'
      << "faultCycle=" << opts.faultCycle << '\n'
      << "faultFile=" << opts.faultFile << '\n'
      << "diagnosis=" << (opts.diagnosis ? 1 : 0) << '\n'
      << "hotNode=" << opts.hotNode << '\n'
      << "hotFraction=" << opts.hotFraction << '\n';
    if (opts.mode == LoadMode::Closed)
        s << "think=" << opts.thinkTimes[0] << '\n';
    else if (opts.mode == LoadMode::Open)
        s << "inject=" << opts.injectProbs[0] << '\n';
    else
        s << "sessionRate=" << opts.sessionRates[0] << '\n';
    s << "process=" << static_cast<int>(opts.process.kind) << '\n'
      << "burstOn=" << opts.process.burstOn << '\n'
      << "burstOff=" << opts.process.burstOff << '\n'
      << "burstRatio=" << opts.process.burstRatio << '\n'
      << "sizeDist=" << static_cast<int>(opts.size.dist) << '\n'
      << "sizeMin=" << opts.size.minWords << '\n'
      << "sizeMax=" << opts.size.maxWords << '\n'
      << "sizeAlpha=" << opts.size.alpha << '\n'
      << "fanout=" << opts.fanout << '\n';
    s << "classMix=";
    for (std::size_t k = 0; k < opts.classMix.size(); ++k)
        s << (k ? "," : "") << opts.classMix[k];
    s << '\n'
      << "sessionRequests=" << opts.session.requests << '\n'
      << "sessionGap=" << opts.session.gap << '\n'
      << "sessionMaxActive=" << opts.session.maxActive << '\n'
      << "diurnalPeriod=" << opts.session.diurnalPeriod << '\n'
      << "diurnalAmplitude=" << opts.session.diurnalAmplitude
      << '\n';

    const auto opt = [&s](const char *name, const auto &field) {
        s << name << '=';
        if (field.has_value())
            s << *field;
        else
            s << '~';
        s << '\n';
    };
    const RetryOverrides &r = opts.retry;
    s << "retry.kind=";
    if (r.kind.has_value())
        s << static_cast<int>(*r.kind);
    else
        s << '~';
    s << '\n';
    opt("retry.backoffMin", r.backoffMin);
    opt("retry.backoffMax", r.backoffMax);
    opt("retry.backoffCap", r.backoffCap);
    opt("retry.decorrelatedJitter", r.decorrelatedJitter);
    opt("retry.aimdDecrease", r.aimdDecrease);
    opt("retry.retryBudget", r.retryBudget);
    opt("retry.retryBudgetCap", r.retryBudgetCap);
    opt("retry.sendQueueLimit", r.sendQueueLimit);
    opt("retry.inflightLimit", r.inflightLimit);
    opt("retry.ageClamp", r.ageClamp);
    opt("retry.ageStarve", r.ageStarve);

    s << "window=" << opts.window << '\n';
    for (const auto &m : opts.maintain)
        s << "maintain=" << m << '\n';
    return s.str();
}

namespace
{

/** Typed views of a SweepInstance's extras, for checkpointing. */
struct InstanceExtras
{
    FaultInjector *injector = nullptr;
    FaultCampaign *campaign = nullptr;
    DiagnosisEngine *diagnosis = nullptr;
};

/**
 * One CLI sweep point's build recipe: topology plus faults. All
 * stochastic extras (survivable-fault sampling, the campaign) seed
 * from the point's derived seed, so fault arrivals are invariant
 * under --threads.
 */
SweepInstance
buildInstance(const Options &opts,
              const std::optional<FaultFile> &faults,
              std::uint64_t derived_seed,
              InstanceExtras *extras_out = nullptr)
{
    SweepInstance instance;
    auto built = buildTopology(opts);
    instance.network = std::move(built.net);

    std::vector<FaultEvent> events;
    if (opts.routerFaults + opts.linkFaults > 0)
        events = sampleSurvivableFaults(
            *instance.network, opts.routerFaults, opts.linkFaults,
            opts.faultCycle, derived_seed ^ 0xFA11);
    if (faults.has_value())
        for (const auto &e : faults->events)
            events.push_back(e);
    if (!events.empty()) {
        auto injector =
            std::make_unique<FaultInjector>(instance.network.get());
        injector->schedule(events);
        instance.network->engine().addComponent(injector.get());
        if (extras_out != nullptr)
            extras_out->injector = injector.get();
        instance.extras.push_back(std::move(injector));
    }

    if (faults.has_value() && faults->hasCampaign()) {
        auto campaign = std::make_unique<FaultCampaign>(
            instance.network.get(), faults->campaign,
            derived_seed ^ 0xCA3);
        instance.network->engine().addComponent(campaign.get());
        if (extras_out != nullptr)
            extras_out->campaign = campaign.get();
        instance.extras.push_back(std::move(campaign));
    }

    // The engine must tick last so it sees every diary entry the
    // endpoints recorded this cycle.
    if (opts.diagnosis) {
        auto diag = std::make_unique<DiagnosisEngine>(
            instance.network.get());
        instance.network->engine().addComponent(diag.get());
        if (extras_out != nullptr)
            extras_out->diagnosis = diag.get();
        instance.extras.push_back(std::move(diag));
    }
    return instance;
}

/** The --think/--inject lists as sweep points. */
std::vector<SweepPoint>
pointsFromOptions(const Options &opts)
{
    std::optional<FaultFile> faults;
    if (!opts.faultFile.empty()) {
        std::string error;
        faults = loadFaultFile(opts.faultFile, error);
        if (!faults.has_value())
            METRO_FATAL("--fault-file: %s", error.c_str());
    }

    std::vector<SweepPoint> points;
    const std::size_t n = opts.mode == LoadMode::Closed
                              ? opts.thinkTimes.size()
                          : opts.mode == LoadMode::Open
                              ? opts.injectProbs.size()
                              : opts.sessionRates.size();
    for (std::size_t k = 0; k < n; ++k) {
        SweepPoint point;
        point.config.messageWords = opts.messageWords;
        point.config.warmup = opts.warmup;
        point.config.measure = opts.measure;
        point.config.pattern = opts.pattern;
        point.config.hotNode = opts.hotNode;
        point.config.hotFraction = opts.hotFraction;
        point.config.seed = opts.seed;
        point.config.process = opts.process;
        point.config.size = opts.size;
        point.config.fanout = opts.fanout;
        point.config.classMix = opts.classMix;
        point.config.session = opts.session;
        char buf[32];
        if (opts.mode == LoadMode::Closed) {
            point.mode = SweepMode::Closed;
            point.config.thinkTime = opts.thinkTimes[k];
            point.label =
                "think=" + std::to_string(opts.thinkTimes[k]);
        } else if (opts.mode == LoadMode::Open) {
            point.mode = SweepMode::Open;
            point.config.injectProb = opts.injectProbs[k];
            std::snprintf(buf, sizeof(buf), "inject=%g",
                          opts.injectProbs[k]);
            point.label = buf;
        } else {
            point.mode = SweepMode::Session;
            point.config.session.rate = opts.sessionRates[k];
            std::snprintf(buf, sizeof(buf), "session=%g",
                          opts.sessionRates[k]);
            point.label = buf;
        }
        point.build = [opts, faults](std::uint64_t derived_seed) {
            return buildInstance(opts, faults, derived_seed);
        };
        points.push_back(std::move(point));
    }
    return points;
}

/**
 * Re-run the last sweep point on this thread with a
 * ConnectionTracer attached (same derived seed, so the run is
 * bit-identical to the sweep's) and write the Chrome trace JSON.
 */
void
writeConnectionTrace(const std::vector<SweepPoint> &points,
                     const std::string &path)
{
    if (points.empty())
        METRO_FATAL("--trace-connections: no sweep points to trace");
    const auto &last = points.back();
    ExperimentConfig cfg = last.config;
    cfg.seed = sweepDeriveSeed(cfg.seed, points.size() - 1,
                               last.replicate);
    SweepInstance instance = last.build(cfg.seed);
    ConnectionTracer tracer;
    attachTracer(*instance.network, tracer);
    if (last.mode == SweepMode::Closed)
        runClosedLoop(*instance.network, cfg);
    else if (last.mode == SweepMode::Open)
        runOpenLoop(*instance.network, cfg);
    else
        runSessionLoop(*instance.network, cfg);
    instance.network->engine().removeComponent(&tracer);
    std::ofstream out(path, std::ios::binary);
    if (!out)
        METRO_FATAL("--trace-connections: cannot open %s",
                    path.c_str());
    out << tracer.chromeTraceJson();
}

/** The --profile report: host µs per simulated cycle per engine
 *  phase, 1a's parallel efficiency, and tick time per component
 *  class, summed over every instance that ran. */
std::string
engineProfileText(const EngineProfile &p)
{
    std::ostringstream out;
    const double cycles =
        p.cycles == 0 ? 1.0 : static_cast<double>(p.cycles);
    std::uint64_t total = 0;
    for (const std::uint64_t ns : p.ns)
        total += ns;
    char line[96];
    std::snprintf(line, sizeof(line),
                  "engine profile: %llu cycles, %.3f us/cycle\n",
                  static_cast<unsigned long long>(p.cycles),
                  static_cast<double>(total) / 1e3 / cycles);
    out << line;
    for (unsigned k = 0; k < EngineProfile::kPhases; ++k) {
        if (p.ns[k] == 0)
            continue;
        std::snprintf(line, sizeof(line),
                      "  %-20s %10.3f us/cycle %6.1f%%\n",
                      EngineProfile::kNames[k],
                      static_cast<double>(p.ns[k]) / 1e3 / cycles,
                      total == 0 ? 0.0
                                 : 100.0 *
                                       static_cast<double>(p.ns[k]) /
                                       static_cast<double>(total));
        out << line;
    }
    if (p.parallelCapacityNs != 0) {
        std::snprintf(line, sizeof(line),
                      "  1a parallel efficiency %.3f (shard ticks "
                      "%.3f us/cycle)\n",
                      p.parallelEfficiency(),
                      static_cast<double>(p.shardNs) / 1e3 / cycles);
        out << line;
    }
    out << "  tick time by class (summed over threads):\n";
    for (unsigned k = 0; k < kTickClasses; ++k) {
        std::snprintf(line, sizeof(line), "    %-18s %10.3f us/cycle\n",
                      EngineProfile::kClassNames[k],
                      static_cast<double>(p.classNs[k]) / 1e3 / cycles);
        out << line;
    }
    return out.str();
}

void
printSweepProfile(const SweepResult &sweep)
{
    EngineProfile sum;
    for (const SweepPointResult &p : sweep.points)
        sum.add(p.profile);
    std::fputs(engineProfileText(sum).c_str(), stderr);
}

/**
 * Service mode: one long-lived instance, every endpoint driven,
 * windowed metric deltas streamed to stdout as JSON lines. See
 * docs/operations.md.
 */
std::string
runServe(const Options &opts)
{
    std::optional<FaultFile> faults;
    if (!opts.faultFile.empty()) {
        std::string error;
        faults = loadFaultFile(opts.faultFile, error);
        if (!faults.has_value())
            METRO_FATAL("--fault-file: %s", error.c_str());
    }

    InstanceExtras extras;
    SweepInstance instance =
        buildInstance(opts, faults, opts.seed, &extras);
    Network &net = *instance.network;
    Engine &engine = net.engine();

    const auto n = static_cast<unsigned>(net.numEndpoints());
    DestinationGenerator dests(opts.pattern, n, opts.seed ^ 0x77,
                               opts.hotNode, opts.hotFraction);
    DriverConfig dcfg;
    dcfg.messageWords = opts.messageWords;
    dcfg.process = opts.process;
    dcfg.size = opts.size;
    dcfg.fanout = opts.fanout;
    dcfg.classMix = opts.classMix;
    // stopAt stays kNever: serve runs until stopped, not drained.

    // Same per-endpoint seed derivation as the experiment runner so
    // serve traffic matches a sweep point with the same options.
    std::vector<std::unique_ptr<ClosedLoopDriver>> closed;
    std::vector<std::unique_ptr<OpenLoopDriver>> open;
    for (unsigned e = 0; e < n; ++e) {
        if (opts.mode == LoadMode::Closed) {
            closed.push_back(std::make_unique<ClosedLoopDriver>(
                &net.endpoint(e), &dests, dcfg, opts.thinkTimes[0],
                opts.seed ^ (0x5151ULL * (e + 1))));
            engine.addComponent(closed.back().get());
        } else {
            open.push_back(std::make_unique<OpenLoopDriver>(
                &net.endpoint(e), &dests, dcfg, opts.injectProbs[0],
                opts.seed ^ (0x7272ULL * (e + 1))));
            engine.addComponent(open.back().get());
        }
    }

    if (opts.engineThreads != 1)
        engine.setThreads(opts.engineThreads);
    EngineProfile profile;
    if (opts.profile)
        engine.setProfile(&profile);

    ServeConfig scfg;
    scfg.window = opts.window;
    scfg.runCycles = opts.serveCycles;
    scfg.configDigest = checkpointDigest(canonicalConfigString(opts));
    scfg.checkpointOut = opts.checkpointOut;
    scfg.checkpointAt = opts.checkpointAt;
    scfg.checkpointEvery = opts.checkpointEvery;
    scfg.checkpointKeep = opts.checkpointKeep;
    scfg.crashAtCycle = opts.crashAtCycle;
    scfg.stallAtCycle = opts.stallAtCycle;
    for (const auto &text : opts.maintain) {
        MaintenanceOp op;
        if (!parseMaintenanceOp(text, op))
            METRO_FATAL("bad --maintain value: %s", text.c_str());
        scfg.maintenance.push_back(op);
    }

    CheckpointParticipants parts;
    parts.net = &net;
    for (auto &d : closed)
        parts.closedDrivers.push_back(d.get());
    for (auto &d : open)
        parts.openDrivers.push_back(d.get());
    parts.injector = extras.injector;
    parts.campaign = extras.campaign;
    parts.diagnosis = extras.diagnosis;

    ServiceRunner runner(scfg, parts);
    runner.setEmitter([](const std::string &line) {
        std::fwrite(line.data(), 1, line.size(), stdout);
        std::fputc('\n', stdout);
        std::fflush(stdout);
    });

    if (!opts.restorePath.empty()) {
        const std::string err =
            runner.restoreFromFile(opts.restorePath);
        if (!err.empty())
            METRO_FATAL("--restore: %s", err.c_str());
    } else if (opts.restoreAuto) {
        bool restored = false;
        const std::string err = runner.restoreFromStore(restored);
        if (!err.empty())
            METRO_FATAL("--restore-auto: %s", err.c_str());
        // An empty (or fully-corrupt) store is a fresh start, not
        // an error: the first supervised child has no history.
    }

    // Supervised children report window-boundary progress into the
    // watchdog's heartbeat pipe.
    if (const char *hb = std::getenv("METRO_HEARTBEAT_FD")) {
        const int fd = std::atoi(hb);
        if (fd > 0) {
            runner.setHeartbeat([fd](Cycle now) {
                char buf[32];
                const int n = std::snprintf(
                    buf, sizeof(buf), "%llu\n",
                    static_cast<unsigned long long>(now));
                if (::write(fd, buf, static_cast<size_t>(n)) < 0) {
                    // Supervisor gone; nothing useful to do.
                }
            });
        }
    }

    const std::string violation =
        runner.run([] { return requestedStop(); });
    if (!violation.empty())
        METRO_FATAL("serve: %s", violation.c_str());
    if (opts.profile) {
        engine.setProfile(nullptr);
        std::fputs(engineProfileText(profile).c_str(), stderr);
    }

    // Interrupted (SIGINT/SIGTERM): persist a final checkpoint so
    // the operator can resume. A clean --serve-cycles completion
    // must NOT overwrite the one-shot mid-run checkpoint. In store
    // mode the final checkpoint goes into the retention store like
    // every periodic one.
    if (requestedStop() && !opts.checkpointOut.empty()) {
        const std::string err =
            opts.checkpointEvery != 0
                ? runner.checkpointToStore()
                : runner.checkpointToFile(opts.checkpointOut);
        if (!err.empty())
            METRO_FATAL("--checkpoint-out: %s", err.c_str());
    }

    if (opts.metricsJson)
        return metricsJson(net.metricsSnapshot()) + "\n";
    return "";
}

} // namespace

int
runSupervisedFromOptions(const Options &opts)
{
    SupervisorConfig cfg;
    cfg.exe = opts.exePath;
    cfg.args = opts.rawArgs;
    cfg.restartBudget = opts.restartBudget;
    cfg.stallTimeoutMs = opts.stallTimeoutMs;
    cfg.backoffBaseMs = opts.restartBackoffMs;
    return runSupervisor(cfg);
}

std::string
runFromOptions(const Options &opts)
{
    std::ostringstream out;

    if (opts.dot) {
        auto built = buildTopology(opts);
        return networkToDot(*built.net,
                            opts.specFile.empty() ? "metro"
                                                  : opts.specFile);
    }

    if (opts.serve)
        return runServe(opts);

    // Sweep-file mode: the file defines the points; CLI --threads
    // overrides the file's thread count.
    if (!opts.sweepFile.empty()) {
        std::string error;
        auto sweep_file = loadSweepFile(opts.sweepFile, error);
        if (!sweep_file.has_value())
            METRO_FATAL("--sweep-file: %s", error.c_str());
        SweepOptions sopts;
        sopts.threads =
            opts.threadsSet ? opts.threads : sweep_file->threads;
        sopts.engineThreads = opts.engineThreadsSet
                                  ? opts.engineThreads
                                  : sweep_file->engineThreads;
        sopts.stopRequested = [] { return requestedStop(); };
        sopts.profile = opts.profile;
        const auto sweep = runSweep(sweep_file->points, sopts);
        if (opts.profile)
            printSweepProfile(sweep);
        if (!opts.traceConnections.empty())
            writeConnectionTrace(sweep_file->points,
                                 opts.traceConnections);
        return opts.json ? sweepJson(sweep, opts.timing,
                                     opts.metricsJson)
                         : sweepCsv(sweep);
    }

    const auto points = pointsFromOptions(opts);
    SweepOptions sopts;
    sopts.threads = opts.threads;
    sopts.engineThreads = opts.engineThreads;
    sopts.stopRequested = [] { return requestedStop(); };
    sopts.profile = opts.profile;
    const auto sweep = runSweep(points, sopts);
    if (opts.profile)
        printSweepProfile(sweep);

    if (!opts.traceConnections.empty())
        writeConnectionTrace(points, opts.traceConnections);

    if (opts.json)
        return sweepJson(sweep, opts.timing, opts.metricsJson);

    CsvWriter csv;
    if (opts.csv)
        csv.row(experimentCsvHeader());
    else
        out << "metro_sim: "
            << (opts.mode == LoadMode::Closed ? "closed" : "open")
            << "-loop " << trafficPatternName(opts.pattern)
            << " traffic\n"
            << "  label       load   latency    median       p95  "
               "attempts   blockRate\n";

    for (const auto &p : sweep.points) {
        if (p.skipped)
            continue;
        const ExperimentResult &result = p.result;
        if (opts.csv) {
            csv.row(experimentCsvRow(p.label, result));
        } else {
            char line[160];
            std::snprintf(line, sizeof(line),
                          "  %-10s %6.4f %9.2f %9llu %9llu %9.3f "
                          "%11.4f\n",
                          p.label.c_str(), result.achievedLoad,
                          result.latency.mean(),
                          static_cast<unsigned long long>(
                              result.latency.median()),
                          static_cast<unsigned long long>(
                              result.latency.percentile(95)),
                          result.attempts.mean(),
                          result.blockRate());
            out << line;
        }
    }

    // The stats report reads entity counters off a live network, so
    // re-run the last point on this thread (same derived seed — the
    // runs are bit-identical) and dump its statistics.
    if (opts.stats && !opts.csv && !points.empty()) {
        const auto &last = points.back();
        ExperimentConfig cfg = last.config;
        cfg.seed = sweepDeriveSeed(cfg.seed, points.size() - 1,
                                   last.replicate);
        SweepInstance instance = last.build(cfg.seed);
        if (last.mode == SweepMode::Closed)
            runClosedLoop(*instance.network, cfg);
        else
            runOpenLoop(*instance.network, cfg);
        out << "\n" << networkHealthSummary(*instance.network)
            << "\n" << stageStatsReport(*instance.network) << "\n"
            << endpointStatsReport(*instance.network);
    }

    return opts.csv ? csv.str() : out.str();
}

} // namespace metro
