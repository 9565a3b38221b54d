#include "workloads.hh"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <mutex>
#include <thread>

#include "diag/engine.hh"
#include "fault/campaign.hh"
#include "network/fattree.hh"
#include "network/presets.hh"
#include "report/csv.hh"
#include "report/json.hh"
#include "serve/checkpoint.hh"
#include "serve/service.hh"
#include "sweep/sweep.hh"
#include "traffic/drivers.hh"
#include "traffic/experiment.hh"

namespace perfbench
{

using namespace metro;

namespace
{

double
ratio(double num, double den)
{
    return den != 0.0 ? num / den : 0.0;
}

/** FNV-1a over a string, folded to 52 bits so a double holds it
 *  exactly. */
double
fingerprint52(const std::string &s)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    return static_cast<double>(h & ((1ULL << 52) - 1));
}

/** Messages submitted in [from, to): latencies of the successful
 *  ones, and the count that gave up or have not resolved. */
struct LedgerScan
{
    std::vector<std::uint64_t> latencies;
    std::uint64_t measured = 0;
    std::uint64_t lost = 0;
};

LedgerScan
scanLedger(const Network &net, Cycle from, Cycle to)
{
    LedgerScan out;
    for (const auto &[id, rec] : net.tracker().all()) {
        if (rec.submitCycle < from || rec.submitCycle >= to)
            continue;
        ++out.measured;
        if (rec.succeeded)
            out.latencies.push_back(rec.latency());
        else
            ++out.lost;
    }
    return out;
}

/** Ids of measured messages that have not resolved yet. */
std::vector<std::uint64_t>
pendingIds(const Network &net, Cycle from, Cycle to)
{
    std::vector<std::uint64_t> ids;
    for (const auto &[id, rec] : net.tracker().all())
        if (rec.submitCycle >= from && rec.submitCycle < to &&
            !rec.succeeded && !rec.gaveUp)
            ids.push_back(id);
    return ids;
}

/** Run `net` in 64-cycle steps until every listed message resolved
 *  or `max_cycles` passed. Returns the cycles run. */
Cycle
drain(Network &net, std::vector<std::uint64_t> ids, Cycle max_cycles)
{
    const Cycle start = net.engine().now();
    while (!ids.empty() && net.engine().now() - start < max_cycles) {
        net.engine().run(64);
        std::erase_if(ids, [&](std::uint64_t id) {
            const auto &r = net.tracker().record(id);
            return r.succeeded || r.gaveUp;
        });
    }
    return net.engine().now() - start;
}

/**
 * Per-cycle work and outcome counters between two cumulative
 * snapshots taken `cycles` apart. These are the layer counters a
 * host-only change must leave unchanged.
 */
void
counterRates(const MetricsRegistry &a, const MetricsRegistry &b,
             double cycles, std::map<std::string, double> &sim)
{
    const auto d = [&](const char *name) {
        return static_cast<double>(b.get(name) - a.get(name));
    };
    sim["sim.ticks_skipped_per_cycle"] =
        ratio(d("engine.ticks_skipped"), cycles);
    sim["sim.links_fastpathed_per_cycle"] =
        ratio(d("engine.links_fastpathed"), cycles);
    sim["router.requests_per_cycle"] =
        ratio(d("router.total.requests"), cycles);
    sim["router.words_forwarded_per_cycle"] =
        ratio(d("router.total.wordsForwarded"), cycles);
    sim["router.block_rate"] =
        ratio(d("router.total.blocks"), d("router.total.requests"));
    sim["endpoint.attempts_per_success"] =
        ratio(d("ni.total.attempts"), d("ni.total.successes"));
    sim["retry.shed_words"] = d("words.shed.admission");
    sim["retry.budget_denials"] = d("ni.total.budgetDenials");
    sim["fault.link_failures"] = d("campaign.link_failures");
    sim["diag.masks"] = d("diag.masks");
}

void
checkConservation(Rep &rep, Network &net, const std::string &where)
{
    const std::string v =
        metro::conservationViolation(net, net.metricsSnapshot());
    rep.check(v.empty(), where + ": " + v);
}

} // namespace

std::string
probeFig3(std::uint64_t seed)
{
    auto net = buildMultibutterfly(fig3Spec(seed));
    const auto id =
        net->endpoint(0).send(63, std::vector<Word>(19, 0x1));
    net->engine().runUntil(
        [&] { return net->tracker().record(id).succeeded; }, 5000);
    const auto &rec = net->tracker().record(id);
    if (!rec.succeeded)
        return "fig3 probe message did not complete";
    if (rec.latency() != 28)
        return "fig3 probe took " + std::to_string(rec.latency()) +
               " cycles, the paper gives 28";
    return "";
}

// ---------------------------------------------------------------
// mb1024_saturated: one sharded engine at full load.
// ---------------------------------------------------------------

Rep
runMb1024Saturated(const Settings &s, bool probes, Tracer &tr)
{
    Rep rep;
    Scoped root(tr, "bench.rep");
    // Chunks are the unit the engine is timed in; warmup and
    // measure are whole numbers of chunks.
    const Cycle chunk = 32;
    const Cycle warmup = s.quick ? 64 : 256;
    const Cycle measure = s.quick ? 192 : 1536;
    const MultibutterflySpec spec = mb1024Spec(s.seed);

    auto t0 = Clock::now();
    std::unique_ptr<Network> net;
    {
        Scoped sp(tr, "network.build");
        net = buildMultibutterfly(spec);
    }
    const double buildS = seconds(t0, Clock::now());
    rep.host["network.build_s"] = buildS;
    Engine &eng = net->engine();
    const auto n = static_cast<NodeId>(net->numEndpoints());

    {
        // The Table 4 law on the idle network (bench/scalability):
        // hs + 20 - 1 + 2 + 2 * stages cycles.
        Scoped sp(tr, "bench.check");
        const auto id =
            net->endpoint(0).send(n - 1, std::vector<Word>(19, 0x1));
        eng.runUntil(
            [&] { return net->tracker().record(id).succeeded; }, 5000);
        const auto &rec = net->tracker().record(id);
        const Cycle expected = spec.headerSymbols() + 20 - 1 + 2 +
                               2 * spec.stages.size();
        rep.check(rec.succeeded && rec.latency() == expected,
                  "mb1024 probe does not match the Table 4 law");
    }

    const Cycle start = eng.now();
    const Cycle from = start + warmup;
    const Cycle to = from + measure;
    t0 = Clock::now();
    DestinationGenerator dests(TrafficPattern::UniformRandom, n,
                               s.seed ^ 0x3);
    std::vector<std::unique_ptr<ClosedLoopDriver>> drivers;
    {
        Scoped sp(tr, "traffic.attach");
        DriverConfig dcfg;
        dcfg.messageWords = 20;
        dcfg.measureFrom = from;
        dcfg.measureTo = to;
        dcfg.stopAt = to;
        for (NodeId e = 0; e < n; ++e) {
            drivers.push_back(std::make_unique<ClosedLoopDriver>(
                &net->endpoint(e), &dests, dcfg, /*think=*/0,
                s.seed ^ (0x5151ULL * (e + 1))));
            eng.addComponent(drivers.back().get());
        }
    }
    {
        Scoped sp(tr, "sim.set_threads");
        eng.setThreads(s.engineThreads);
    }
    rep.setupS = buildS + seconds(t0, Clock::now());

    MetricsRegistry snapA;
    std::uint64_t parkedA = 0;
    double simRunS = 0.0, runS = 0.0;
    Cycle cycles = 0;
    // With probes the thread count alternates in blocks of four
    // chunks; the first chunk after a switch carries the switch
    // (plan rebuild, caches moving between cores) and is not timed.
    const unsigned block = 4;
    for (unsigned k = 0; eng.now() < to; ++k) {
        const bool serial = probes && (k / block) % 2 == 0;
        eng.setThreads(serial ? 1 : s.engineThreads);
        const auto c0 = Clock::now();
        {
            Scoped sp(tr, "sim.run");
            eng.run(chunk);
        }
        const double secs = seconds(c0, Clock::now());
        simRunS += secs;
        // Warmup chunks are run but not timed.
        if (eng.now() > from) {
            runS += secs;
            cycles += chunk;
            if (!probes)
                rep.windowsMs.push_back(secs * 1e3);
            else if (k % block != 0)
                (serial ? rep.windowsMsT1 : rep.windowsMs)
                    .push_back(secs * 1e3);
        }
        if (eng.now() == from) {
            Scoped sp(tr, "obs.snapshot");
            snapA = net->metricsSnapshot();
            parkedA = eng.shardCyclesParked();
        }
    }
    MetricsRegistry snapB;
    {
        Scoped sp(tr, "obs.snapshot");
        snapB = net->metricsSnapshot();
    }
    const double parked =
        static_cast<double>(eng.shardCyclesParked() - parkedA);

    Cycle drained;
    {
        Scoped sp(tr, "sim.run");
        const auto c0 = Clock::now();
        drained = drain(*net, pendingIds(*net, from, to), 20000);
        simRunS += seconds(c0, Clock::now());
    }
    rep.host["sim.run_s"] = simRunS;
    rep.rates.push_back(static_cast<double>(cycles) / runS);

    LedgerScan scan;
    {
        Scoped sp(tr, "traffic.ledger_scan");
        scan = scanLedger(*net, from, to);
    }
    {
        Scoped sp(tr, "bench.check");
        checkConservation(rep, *net, "mb1024 end of run");
    }
    rep.messages = scan.measured;
    rep.lostMessages = scan.lost;
    rep.check(scan.measured > 0, "mb1024 measured no messages");

    auto &sim = rep.sim;
    const double mc = static_cast<double>(measure);
    sim["msg_latency_p50_cycles"] = percentile(scan.latencies, 50);
    sim["msg_latency_p99_cycles"] = percentile(scan.latencies, 99);
    sim["accepted_load"] =
        ratio(static_cast<double>(snapB.get("words.delivered") -
                                  snapA.get("words.delivered")),
              mc * n);
    sim["messages_measured"] = static_cast<double>(scan.measured);
    sim["drain_cycles"] = static_cast<double>(drained);
    sim["traffic.ledger_records"] =
        static_cast<double>(net->tracker().size());
    counterRates(snapA, snapB, mc, sim);
    rep.shardParkedPerCycle = ratio(parked, mc);
    return rep;
}

// ---------------------------------------------------------------
// fig3_serve_bursty: service mode, checkpoint, restore.
// ---------------------------------------------------------------

namespace
{

/** One fig3 service instance: bursty open-loop traffic under a
 *  light link-fault campaign with diagnosis attached. */
struct ServeInstance
{
    std::unique_ptr<Network> net;
    std::unique_ptr<FaultCampaign> campaign;
    std::unique_ptr<DiagnosisEngine> diagnosis;
    std::unique_ptr<DestinationGenerator> dests;
    std::vector<std::unique_ptr<OpenLoopDriver>> drivers;

    CheckpointParticipants
    parts() const
    {
        CheckpointParticipants p;
        p.net = net.get();
        for (const auto &d : drivers)
            p.openDrivers.push_back(d.get());
        p.campaign = campaign.get();
        p.diagnosis = diagnosis.get();
        return p;
    }
};

/** Traffic stops and the campaign ends at `stop`, so the windows
 *  after it drain the network. */
ServeInstance
buildServeInstance(const Settings &s, Cycle warmup, Cycle stop,
                   Tracer &tr)
{
    ServeInstance in;
    {
        Scoped sp(tr, "network.build");
        in.net = buildMultibutterfly(fig3Spec(s.seed));
    }
    Scoped sp(tr, "fault.attach");
    Engine &eng = in.net->engine();
    CampaignConfig cc;
    cc.linkFailRate = 2e-4;
    cc.linkHealRate = 4e-4;
    cc.stop = stop;
    in.campaign = std::make_unique<FaultCampaign>(in.net.get(), cc,
                                                  s.seed ^ 0xCA3);
    eng.addComponent(in.campaign.get());
    // Diagnosis ticks after the campaign so it sees every diary
    // entry of the cycle (the CLI's order).
    in.diagnosis = std::make_unique<DiagnosisEngine>(in.net.get());
    eng.addComponent(in.diagnosis.get());

    const auto n = static_cast<unsigned>(in.net->numEndpoints());
    in.dests = std::make_unique<DestinationGenerator>(
        TrafficPattern::UniformRandom, n, s.seed ^ 0x77);
    DriverConfig dcfg;
    dcfg.messageWords = 20;
    dcfg.measureFrom = warmup;
    dcfg.measureTo = stop;
    dcfg.stopAt = stop;
    dcfg.process.kind = InjectionKind::Mmpp;
    dcfg.size.dist = SizeDist::Pareto;
    dcfg.classMix = {0.4, 0.3, 0.2, 0.1};
    for (unsigned e = 0; e < n; ++e) {
        in.drivers.push_back(std::make_unique<OpenLoopDriver>(
            &in.net->endpoint(e), in.dests.get(), dcfg,
            /*inject=*/0.01, s.seed ^ (0x7272ULL * (e + 1))));
        eng.addComponent(in.drivers.back().get());
    }
    eng.setThreads(s.engineThreads);
    return in;
}

double
mean(const std::vector<double> &v, std::size_t from, std::size_t to)
{
    double sum = 0.0;
    for (std::size_t i = from; i < to; ++i)
        sum += v[i];
    return to > from ? sum / static_cast<double>(to - from) : 0.0;
}

const Cycle kWindow = 1024;
const Cycle kWarmup = 2 * kWindow;

Cycle
serveStop(const Settings &s)
{
    return (s.quick ? 12 : 48) * kWindow;
}

/** One tenant's whole run on its prebuilt instance `a`: serve,
 *  final checkpoint, restore into a fresh instance, drain both. */
Rep
serveTenant(const Settings &s, bool probes, Tracer &tr,
            ServeInstance a, unsigned tenant, int parent)
{
    Rep rep;
    Scoped root(tr, "bench.tenant", parent);
    const Cycle window = kWindow;
    const Cycle warmup = kWarmup;
    const Cycle stop = serveStop(s);
    const Cycle drainWindows = 8;
    const std::uint64_t digest = checkpointDigest(
        "perfbench fig3_serve_bursty seed=" + std::to_string(s.seed));

    auto t0 = Clock::now();
    Network &net = *a.net;
    Engine &eng = net.engine();

    ServeConfig scfg;
    scfg.window = window;
    scfg.configDigest = digest;
    ServiceRunner runner(scfg, a.parts());

    std::uint64_t emittedBytes = 0;
    std::string stream;
    runner.setEmitter([&](const std::string &line) {
        Scoped sp(tr, "serve.emit");
        stream += line;
        stream += '\n';
        emittedBytes += line.size() + 1;
    });
    std::vector<Clock::time_point> beats;
    MetricsRegistry snapA;
    runner.setHeartbeat([&](Cycle now) {
        beats.push_back(Clock::now());
        if (now == warmup)
            snapA = runner.boundarySnapshot();
    });
    const auto stopAt = [&](Cycle c) {
        return [&eng, c] { return eng.now() >= c; };
    };

    std::string err;
    t0 = Clock::now();
    if (!probes) {
        Scoped sp(tr, "serve.run");
        err = runner.run(stopAt(stop));
        rep.check(err.empty(), "serve: " + err);
        for (std::size_t i = 0; i < beats.size(); ++i)
            rep.windowsMs.push_back(
                seconds(i == 0 ? t0 : beats[i - 1], beats[i]) * 1e3);
    } else {
        // The library formats a window's JSON line only when an
        // emitter is set, so the emit path's cost is the paired
        // difference with a twin that has none. The order within a
        // pair alternates so neither side always runs warm.
        ServeInstance twin = buildServeInstance(s, warmup, stop, tr);
        ServiceRunner bare(scfg, twin.parts());
        Engine &twinEng = twin.net->engine();
        std::vector<double> emitMs, snapshotMs;
        for (Cycle c = window; c <= stop; c += window) {
            double ms[2];
            for (int k = 0; k < 2; ++k) {
                const bool main = (k == 0) == (c / window % 2 == 0);
                const auto w0 = Clock::now();
                {
                    Scoped sp(tr, "serve.run");
                    err = main ? runner.run(stopAt(c))
                               : bare.run([&twinEng, c] {
                                     return twinEng.now() >= c;
                                 });
                }
                ms[main ? 0 : 1] = seconds(w0, Clock::now()) * 1e3;
                rep.check(err.empty(), "serve: " + err);
            }
            rep.windowsMs.push_back(ms[0]);
            emitMs.push_back(ms[0] - ms[1]);
            const auto w0 = Clock::now();
            {
                Scoped sp(tr, "obs.snapshot");
                const MetricsRegistry snap = net.metricsSnapshot();
            }
            snapshotMs.push_back(seconds(w0, Clock::now()) * 1e3);
        }
        std::sort(emitMs.begin(), emitMs.end());
        std::sort(snapshotMs.begin(), snapshotMs.end());
        rep.host["serve.emit_ms"] = emitMs[emitMs.size() / 2];
        rep.host["obs.snapshot_ms"] = snapshotMs[snapshotMs.size() / 2];
    }
    rep.rates.push_back(static_cast<double>(stop) /
                        seconds(t0, Clock::now()));
    const std::uint64_t servedWindows = runner.windowsEmitted();
    const MetricsRegistry snapB = runner.boundarySnapshot();
    const std::size_t tenth = std::max<std::size_t>(
        1, rep.windowsMs.size() / 10);
    rep.host["serve.window_growth"] = ratio(
        mean(rep.windowsMs, rep.windowsMs.size() - tenth,
             rep.windowsMs.size()),
        mean(rep.windowsMs, 0, tenth));
    const auto ledgerAtStop =
        static_cast<double>(net.tracker().size());

    // The final checkpoint: serialize, write durably, restore into
    // a freshly built instance.
    std::vector<std::uint8_t> bytes;
    t0 = Clock::now();
    {
        Scoped sp(tr, "checkpoint.serialize");
        bytes = saveCheckpointBytes(digest, a.parts());
    }
    const auto c1 = Clock::now();
    const std::string path = s.outDir + "/serve-" +
                             std::to_string(::getpid()) + "-" +
                             std::to_string(tenant) + ".ckpt";
    {
        Scoped sp(tr, "checkpoint.durable_write");
        err = writeCheckpointBytesDurably(path, bytes);
    }
    const auto c2 = Clock::now();
    rep.check(err.empty(), "checkpoint write: " + err);
    std::remove(path.c_str());
    rep.host["checkpoint.serialize_s"] = seconds(t0, c1);
    rep.host["checkpoint.durable_write_s"] = seconds(c1, c2);

    const auto b0 = Clock::now();
    ServeInstance b = buildServeInstance(s, warmup, stop, tr);
    rep.host["network.build_s"] = seconds(b0, Clock::now());
    ServiceRunner restored(scfg, b.parts());
    t0 = Clock::now();
    {
        Scoped sp(tr, "checkpoint.restore");
        err = restored.restoreFromBytes(bytes.data(), bytes.size());
    }
    rep.host["checkpoint.restore_s"] = seconds(t0, Clock::now());
    rep.check(err.empty(), "checkpoint restore: " + err);

    // Both instances serve the drain windows; the restored one must
    // continue the stream byte for byte.
    const Cycle end = stop + drainWindows * window;
    std::string tailA, tailB;
    runner.setEmitter([&](const std::string &l) { tailA += l + "\n"; });
    restored.setEmitter(
        [&](const std::string &l) { tailB += l + "\n"; });
    runner.setHeartbeat({});
    {
        Scoped sp(tr, "serve.run");
        err = runner.run([&] { return eng.now() >= end; });
        rep.check(err.empty(), "serve drain: " + err);
        err = restored.run(
            [&] { return b.net->engine().now() >= end; });
        rep.check(err.empty(), "restored serve: " + err);
    }

    LedgerScan scan;
    {
        Scoped sp(tr, "traffic.ledger_scan");
        scan = scanLedger(net, warmup, stop);
    }
    {
        Scoped sp(tr, "bench.check");
        rep.check(!tailA.empty() && tailA == tailB,
                  "restored instance diverged from the "
                  "uninterrupted JSONL stream");
        checkConservation(rep, net, "serve end of run");
        checkConservation(rep, *b.net, "restored serve end of run");
    }
    rep.messages = scan.measured;
    rep.lostMessages = scan.lost;
    rep.check(scan.measured > 0, "serve measured no messages");

    auto &sim = rep.sim;
    const double mc = static_cast<double>(stop - warmup);
    sim["msg_latency_p50_cycles"] = percentile(scan.latencies, 50);
    sim["msg_latency_p99_cycles"] = percentile(scan.latencies, 99);
    sim["accepted_load"] =
        ratio(static_cast<double>(snapB.get("words.delivered") -
                                  snapA.get("words.delivered")),
              mc * static_cast<double>(net.numEndpoints()));
    sim["messages_measured"] = static_cast<double>(scan.measured);
    sim["checkpoint.mb"] = static_cast<double>(bytes.size()) / 1e6;
    sim["checkpoint.bytes_per_cycle"] =
        static_cast<double>(bytes.size()) / static_cast<double>(stop);
    sim["traffic.ledger_records"] = ledgerAtStop;
    sim["serve.windows"] = static_cast<double>(servedWindows);
    sim["serve.drain_stream"] = fingerprint52(tailA);
    sim["serve.emit_bytes_per_window"] =
        ratio(static_cast<double>(emittedBytes),
              static_cast<double>(servedWindows));
    sim["serve.stream"] = fingerprint52(stream);
    counterRates(snapA, snapB, mc, sim);
    // Campaign and diagnosis act over the whole run, warmup too.
    sim["fault.link_failures"] =
        static_cast<double>(snapB.get("campaign.link_failures"));
    sim["diag.masks"] = static_cast<double>(snapB.get("diag.masks"));
    return rep;
}

} // namespace

Rep
runFig3ServeBursty(const Settings &s, bool probes, Tracer &tr)
{
    Rep rep;
    Scoped root(tr, "bench.rep");
    std::vector<ServeInstance> built;
    std::vector<double> builds;
    for (unsigned t = 0; t < s.serveTenants; ++t) {
        const auto t0 = Clock::now();
        built.push_back(
            buildServeInstance(s, kWarmup, serveStop(s), tr));
        builds.push_back(seconds(t0, Clock::now()));
        rep.setupS += builds.back();
    }
    // Disarm the checkpoint write-fault hook before any tenant thread
    // starts. The benchmark injects no faults, an inherited
    // METRO_CRASH_AT_WRITE_BYTE must not abort it, and the hook's
    // lazy arming from the environment writes process-wide state
    // that concurrent writers would race on.
    setCheckpointWriteFault(-1, false);
    std::vector<Rep> tenants(s.serveTenants);
    {
        std::vector<std::thread> threads;
        for (unsigned t = 0; t < s.serveTenants; ++t)
            threads.emplace_back([&, t] {
                tenants[t] = serveTenant(s, probes, tr,
                                         std::move(built[t]), t,
                                         root.id());
            });
        for (auto &th : threads)
            th.join();
    }

    // Tenants run the same seed, so their simulated results must
    // agree exactly; host figures are pooled.
    std::map<std::string, std::vector<double>> host;
    for (unsigned t = 0; t < s.serveTenants; ++t) {
        Rep &r = tenants[t];
        if (t == 0)
            rep.sim = r.sim;
        rep.check(r.sim == rep.sim,
                  "concurrent tenants disagree on simulated results");
        rep.windowsMs.insert(rep.windowsMs.end(),
                             r.windowsMs.begin(), r.windowsMs.end());
        rep.rates.insert(rep.rates.end(), r.rates.begin(),
                         r.rates.end());
        r.host["network.build_s"] += builds[t];
        for (const auto &[k, v] : r.host)
            host[k].push_back(v);
        rep.messages += r.messages;
        rep.lostMessages += r.lostMessages;
        rep.checks += r.checks;
        rep.failures.insert(rep.failures.end(), r.failures.begin(),
                            r.failures.end());
    }
    for (auto &[k, v] : host) {
        std::sort(v.begin(), v.end());
        rep.host[k] = v[v.size() / 2];
    }
    return rep;
}

// ---------------------------------------------------------------
// load_sweep: the Figure 3 load-latency curve through runSweep.
// ---------------------------------------------------------------

Rep
runLoadSweep(const Settings &s, bool, Tracer &tr)
{
    Rep rep;
    Scoped root(tr, "bench.rep");
    const std::vector<unsigned> thinks =
        s.quick ? std::vector<unsigned>{0, 400, 2000}
                : std::vector<unsigned>{0,   25,  50,   100, 200,
                                        400, 800, 1400, 2000};
    const unsigned replicates = s.quick ? 1 : 2;

    std::mutex mu;
    double buildS = 0.0;
    double experimentS = 0.0;
    std::uint64_t pointCycles = 0;
    std::uint64_t ledgerRecords = 0;
    std::vector<std::string> failures;
    int sweepSpan = -1;
    thread_local Clock::time_point builtAt;

    std::vector<SweepPoint> points;
    for (const char *topo : {"fig3", "fattree"}) {
        const bool fat = std::string(topo) == "fattree";
        for (unsigned think : thinks) {
            for (unsigned r = 0; r < replicates; ++r) {
                SweepPoint p;
                p.label = std::string(topo) +
                          " think=" + std::to_string(think);
                p.replicate = r;
                p.mode = SweepMode::Closed;
                p.config.messageWords = 20;
                p.config.thinkTime = think;
                if (s.quick) {
                    p.config.warmup = 500;
                    p.config.measure = 3000;
                }
                p.config.seed = s.seed;
                p.build = [&, fat](std::uint64_t) {
                    const auto c0 = Clock::now();
                    SweepInstance in;
                    {
                        Scoped sp(tr, "network.build", sweepSpan);
                        if (fat) {
                            FatTreeSpec spec;
                            spec.levels = 4; // the CLI preset
                            spec.seed = s.seed;
                            in.network = buildFatTree(spec);
                        } else {
                            in.network =
                                buildMultibutterfly(fig3Spec(s.seed));
                        }
                    }
                    builtAt = Clock::now();
                    std::lock_guard<std::mutex> lock(mu);
                    buildS += seconds(c0, builtAt);
                    return in;
                };
                p.inspect = [&](Network &net, const ExperimentResult &) {
                    const auto c0 = Clock::now();
                    tr.add("traffic.experiment", builtAt, c0,
                           sweepSpan);
                    Scoped sp(tr, "bench.check", sweepSpan);
                    const std::string v = metro::conservationViolation(
                        net, net.metricsSnapshot());
                    std::lock_guard<std::mutex> lock(mu);
                    experimentS += seconds(builtAt, c0);
                    pointCycles += net.engine().now();
                    ledgerRecords += net.tracker().size();
                    if (!v.empty())
                        failures.push_back("sweep point: " + v);
                };
                points.push_back(std::move(p));
            }
        }
    }

    SweepOptions opts;
    opts.threads = s.sweepThreads;
    opts.engineThreads = s.engineThreads;
    SweepResult res;
    {
        Scoped sp(tr, "sweep.run");
        sweepSpan = sp.id();
        res = runSweep(points, opts);
    }
    std::string json, csv;
    auto t0 = Clock::now();
    {
        Scoped sp(tr, "report.emit");
        json = sweepJson(res, /*include_timing=*/false,
                         /*include_metrics=*/true);
        csv = sweepCsv(res);
    }
    rep.host["report.emit_s"] = seconds(t0, Clock::now());

    rep.setupS = buildS;
    rep.rates.push_back(static_cast<double>(pointCycles) /
                        res.wallSeconds);
    rep.checks += points.size();
    for (const auto &f : failures)
        rep.check(false, f);

    std::vector<std::uint64_t> latencies;
    double pointSum = 0.0, pointMax = 0.0, peakLoad = 0.0;
    MetricsRegistry total;
    for (const auto &pr : res.points) {
        rep.check(!pr.skipped, "sweep point skipped: " + pr.label);
        const auto &r = pr.result;
        const auto &smp = r.latency.samples();
        latencies.insert(latencies.end(), smp.begin(), smp.end());
        rep.messages += r.measuredMessages;
        rep.lostMessages += r.gaveUpMessages + r.unresolvedMessages;
        peakLoad = std::max(peakLoad, r.achievedLoad);
        pointSum += pr.wallSeconds;
        pointMax = std::max(pointMax, pr.wallSeconds);
        rep.windowsMs.push_back(pr.wallSeconds * 1e3);
        // Per-run deltas of the full snapshot, router and endpoint
        // totals and engine counters included.
        total.merge(r.metrics);
    }
    rep.host["network.build_s"] = buildS;
    rep.host["traffic.experiment_s"] = experimentS;
    rep.host["sweep.wall_s"] = res.wallSeconds;
    rep.host["sweep.point_s_max"] = pointMax;
    rep.host["sweep.parallel_efficiency"] =
        ratio(pointSum, res.threadsUsed * res.wallSeconds);

    auto &sim = rep.sim;
    sim["msg_latency_p50_cycles"] = percentile(latencies, 50);
    sim["msg_latency_p99_cycles"] = percentile(latencies, 99);
    sim["accepted_load"] = peakLoad;
    sim["messages_measured"] = static_cast<double>(rep.messages);
    sim["sweep.points"] = static_cast<double>(res.points.size());
    sim["sweep.cycles"] = static_cast<double>(pointCycles);
    sim["traffic.ledger_records"] = static_cast<double>(ledgerRecords);
    sim["report.bytes"] = static_cast<double>(json.size() + csv.size());
    sim["report.json"] = fingerprint52(json);
    sim["report.csv"] = fingerprint52(csv);
    counterRates(MetricsRegistry(), total,
                 static_cast<double>(pointCycles), sim);
    return rep;
}

} // namespace perfbench
