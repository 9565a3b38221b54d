/**
 * @file
 * Sharded parallel engine tests.
 *
 * The engine's parallel mode (Engine::setThreads, sim/engine.hh)
 * promises *byte identity*: no observable — wire trace, message
 * ledger, metrics — may depend on the thread count. The property
 * tests here run seeded fault-campaign scenarios at threads
 * {1, 2, 4, 8} and compare everything byte for byte; the structural
 * tests pin down the plan itself (several shards per thread that
 * never straddle a stage, no empty shards on tiny networks, parked
 * idle shards, plan rebuilds across mid-campaign component removal)
 * through the engine's shard-introspection API.
 *
 * The whole suite doubles as the METRO_TSAN target (ci/tsan-engine.sh):
 * the saturated soak keeps every worker busy on shared lanes long
 * enough for the race detector to see any unsynchronized access.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "fault/injector.hh"
#include "network/fattree.hh"
#include "network/multibutterfly.hh"
#include "network/presets.hh"
#include "report/csv.hh"
#include "report/json.hh"
#include "sweep/sweep.hh"
#include "trace/probe.hh"
#include "traffic/experiment.hh"

namespace metro
{
namespace
{

/** Everything observable about one scenario run, serialized. */
struct Outcome
{
    std::string trace;   ///< formatted wire-trace bytes
    std::string ledger;  ///< per-message tracker state
    std::string metrics; ///< full metrics snapshot delta (JSON)
};

std::string
ledgerDump(const Network &net)
{
    std::ostringstream ledger;
    for (const auto &[id, rec] : net.tracker().all()) {
        ledger << id << " src" << rec.src << " dst" << rec.dest
               << " sub" << rec.submitCycle << " inj"
               << rec.injectCycle << " del" << rec.deliverCycle
               << " ack" << rec.ackCycle << " cmp"
               << rec.completeCycle << " att" << rec.attempts
               << " ok" << rec.succeeded << " gu" << rec.gaveUp
               << "\n";
    }
    return ledger.str();
}

std::string
traceDump(const LinkProbe &probe, Network &net)
{
    EXPECT_EQ(probe.dropped(), 0u) << "probe capacity too small for "
                                      "a byte-exact comparison";
    std::ostringstream trace;
    for (const auto &e : probe.events())
        trace << formatTraceEvent(e, &net.link(e.link)) << "\n";
    return trace.str();
}

/**
 * The headline scenario: fig1 network, closed-loop request-reply
 * traffic on half the endpoints, and a mid-run fault campaign that
 * hits every mutator the shard planner must survive — link
 * deaths/heals, a corrupt spell (which pins the link's wake targets
 * to the serial section, mid-plan), router death/heal, and scan
 * port-disables. Identical to the quiescence-equivalence scenario
 * so the two harnesses cross-check each other.
 */
Outcome
runCampaignScenario(unsigned threads, std::uint64_t seed)
{
    auto spec = fig1Spec(seed);
    spec.niConfig.maxAttempts = 60;
    auto net = buildMultibutterfly(spec);
    net->engine().setThreads(threads);

    LinkProbe probe(1u << 20);
    for (LinkId l = 0; l < net->numLinks(); ++l)
        probe.watch(&net->link(l));
    net->engine().addComponent(&probe);

    FaultInjector injector(net.get());
    const auto link = [&](std::uint64_t k) {
        return static_cast<std::uint32_t>(k % net->numLinks());
    };
    const auto router = [&](std::uint64_t k) {
        return static_cast<std::uint32_t>(k % net->numRouters());
    };
    injector.schedule({
        {300, FaultKind::LinkDead, link(seed), kInvalidPort},
        {340, FaultKind::LinkCorrupt, link(seed + 7), kInvalidPort},
        {520, FaultKind::RouterDead, router(seed + 3), kInvalidPort},
        {700, FaultKind::LinkHeal, link(seed), kInvalidPort},
        {760, FaultKind::LinkHeal, link(seed + 7), kInvalidPort},
        {900, FaultKind::RouterHeal, router(seed + 3), kInvalidPort},
        {1100, FaultKind::ForwardPortOff, router(seed + 5), 0},
        {1160, FaultKind::BackwardPortOff, router(seed + 11), 0},
        {1400, FaultKind::LinkDead, link(seed + 13), kInvalidPort},
        {1900, FaultKind::LinkHeal, link(seed + 13), kInvalidPort},
    });
    net->engine().addComponent(&injector);

    const MetricsRegistry base = net->metricsSnapshot();

    ExperimentConfig cfg;
    cfg.messageWords = 8;
    cfg.warmup = 100;
    cfg.measure = 2500;
    cfg.thinkTime = 300;
    cfg.activeFraction = 0.5;
    cfg.requestReply = true;
    cfg.seed = seed;
    runClosedLoop(*net, cfg);

    // Idle coda: the network goes quiescent, every shard parks, and
    // the bulk skip accounting must equal the serial run's exactly
    // (engine.ticks_skipped is part of the compared snapshot).
    net->engine().run(3000);

    Outcome out;
    out.trace = traceDump(probe, *net);
    out.ledger = ledgerDump(*net);
    out.metrics =
        metricsJson(net->metricsSnapshot().deltaSince(base));
    return out;
}

TEST(Shard, FaultCampaignByteIdenticalAcrossThreadCounts)
{
    for (std::uint64_t seed : {0x5AADULL, 0xF00DULL}) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        const Outcome serial = runCampaignScenario(1, seed);
        for (unsigned threads : {2u, 4u, 8u}) {
            SCOPED_TRACE("threads " + std::to_string(threads));
            const Outcome parallel =
                runCampaignScenario(threads, seed);
            EXPECT_EQ(serial.trace, parallel.trace);
            EXPECT_EQ(serial.ledger, parallel.ledger);
            EXPECT_EQ(serial.metrics, parallel.metrics);
        }
    }
}

/** The shard cut points Network::finalize hints: the first router
 *  of every stage plus the first endpoint. */
std::set<const Component *>
stageBoundaries(Network &net)
{
    std::set<const Component *> hints;
    for (unsigned s = 0; s < net.numStages(); ++s)
        hints.insert(&net.router(net.routersInStage(s).front()));
    hints.insert(&net.endpoint(0));
    return hints;
}

/**
 * The plan contract: the shards cover every parallel-safe component
 * (and, in a plain build, every router and endpoint) with no empty
 * shard; there are more shards than threads but at most
 * Engine::kShardsPerThread per thread; every stage boundary starts a
 * new shard, so no shard straddles a stage or the endpoint block;
 * and halving keeps the largest shard within 2x the mean.
 */
void
expectStageAlignedPlan(Network &net, unsigned threads)
{
    Engine &engine = net.engine();
    engine.setThreads(threads);
    const auto hints = stageBoundaries(net);
    const std::size_t shards = engine.shardCount();
    ASSERT_GE(shards, 2u);
    EXPECT_LE(shards, std::size_t{Engine::kShardsPerThread} * threads);

    std::size_t parallel_members = 0;
    int prev = -1;
    for (std::size_t i = 0; i < engine.scheduledCount(); ++i) {
        Component *c = engine.scheduledComponent(i);
        const int shard = engine.shardOf(c);
        if (shard < 0)
            continue; // serial section: drivers, probes, monitors
        ++parallel_members;
        if (prev >= 0 && hints.count(c) != 0) {
            EXPECT_NE(shard, prev)
                << "stage boundary inside a shard at registration "
                   "index "
                << i << " (" << c->name() << ")";
        }
        prev = shard;
    }
    if (parallel_members > threads) {
        EXPECT_GT(shards, threads);
    }

    std::size_t sharded = 0;
    std::size_t largest = 0;
    for (std::size_t k = 0; k < shards; ++k) {
        EXPECT_GT(engine.shardMembers(k), 0u);
        sharded += engine.shardMembers(k);
        largest = std::max(largest, engine.shardMembers(k));
    }
    EXPECT_EQ(sharded, parallel_members);
    EXPECT_LE(largest * shards, 2 * sharded)
        << "largest shard " << largest << " exceeds 2x the mean of "
        << sharded << " members over " << shards << " shards";

    // A plain build has no observers/handlers: every router and
    // endpoint must have made it into the parallel section.
    for (RouterId r = 0; r < net.numRouters(); ++r)
        EXPECT_GE(engine.shardOf(&net.router(r)), 0);
    for (NodeId e = 0; e < net.numEndpoints(); ++e)
        EXPECT_GE(engine.shardOf(&net.endpoint(e)), 0);
}

TEST(Shard, StageAlignedPartitionMultibutterfly)
{
    auto net = buildMultibutterfly(fig3Spec(1));
    expectStageAlignedPlan(*net, 4);
}

TEST(Shard, StageAlignedPartitionFatTree)
{
    FatTreeSpec spec;
    spec.levels = 4;
    spec.seed = 1;
    auto net = buildFatTree(spec);
    expectStageAlignedPlan(*net, 4);
}

TEST(Shard, Mb1024PresetBuildsAndPartitions)
{
    auto spec = mb1024Spec(1);
    EXPECT_EQ(spec.numEndpoints, 1024u);
    EXPECT_EQ(spec.stages.size(), 5u);
    auto net = buildMultibutterfly(spec);
    EXPECT_EQ(net->numEndpoints(), 1024u);
    expectStageAlignedPlan(*net, 4);
    net->engine().run(50); // idle settle under the parallel plan
}

/** A short closed-loop run on `spec` at `threads`: its ledger and
 *  metrics. */
Outcome
runClosedLoopScenario(const MultibutterflySpec &spec, unsigned threads)
{
    auto net = buildMultibutterfly(spec);
    net->engine().setThreads(threads);
    const MetricsRegistry base = net->metricsSnapshot();
    ExperimentConfig cfg;
    cfg.messageWords = 8;
    cfg.warmup = 100;
    cfg.measure = 800;
    cfg.thinkTime = 20;
    cfg.requestReply = true;
    cfg.seed = 21;
    runClosedLoop(*net, cfg);
    Outcome out;
    out.ledger = ledgerDump(*net);
    out.metrics =
        metricsJson(net->metricsSnapshot().deltaSince(base));
    return out;
}

TEST(Shard, TinyNetworkManyThreadsHasNoEmptyShards)
{
    // More shard slots than a small network has members: the plan
    // must stop at one member per shard, never emit an empty shard,
    // and stay byte-identical to the serial engine.
    for (const auto &[name, spec, threads] :
         {std::tuple{"fig3", fig3Spec(6), 8u},
          std::tuple{"fig1", fig1Spec(6), 16u}}) {
        SCOPED_TRACE(name);
        {
            auto net = buildMultibutterfly(spec);
            Engine &engine = net->engine();
            engine.setThreads(threads);
            std::size_t parallel_members = 0;
            for (std::size_t i = 0; i < engine.scheduledCount(); ++i)
                parallel_members +=
                    engine.shardOf(engine.scheduledComponent(i)) >= 0;
            EXPECT_GT(engine.shardCount(), threads);
            EXPECT_LE(engine.shardCount(), parallel_members);
            for (std::size_t k = 0; k < engine.shardCount(); ++k)
                EXPECT_GT(engine.shardMembers(k), 0u);
        }
        const Outcome serial = runClosedLoopScenario(spec, 1);
        const Outcome parallel = runClosedLoopScenario(spec, threads);
        EXPECT_FALSE(serial.ledger.empty());
        EXPECT_EQ(serial.ledger, parallel.ledger);
        EXPECT_EQ(serial.metrics, parallel.metrics);
    }
}

TEST(Shard, EmptyShardsParkWithoutDispatch)
{
    auto net = buildMultibutterfly(fig3Spec(2));
    net->engine().setThreads(4);
    net->engine().run(400); // idle: everything sleeps, shards park
    const std::uint64_t parked = net->engine().shardCyclesParked();
    EXPECT_GT(parked, 0u);
    for (std::size_t k = 0; k < net->engine().shardCount(); ++k)
        EXPECT_TRUE(net->engine().shardParked(k));

    // A send into the parked fabric must wake the path end to end
    // (deferred activations cross shard boundaries at the barrier).
    const auto id = net->endpoint(3).send(60, {0x12, 0x34});
    const bool ok = net->engine().runUntil(
        [&] { return net->tracker().record(id).succeeded; }, 3000);
    EXPECT_TRUE(ok) << "message never delivered through a parked "
                       "fabric — a missed cross-shard wake";
}

void
expectConserved(const ExperimentResult &r)
{
    const auto injected = r.metrics.get("words.injected");
    const auto delivered = r.metrics.get("words.delivered");
    const auto block = r.metrics.get("words.discarded.block");
    const auto router = r.metrics.get("words.discarded.router");
    const auto endpoint = r.metrics.get("words.discarded.endpoint");
    const auto inflight = r.metrics.get("words.inflight_at_drain");
    EXPECT_GT(injected, 0u);
    EXPECT_GT(delivered, 0u);
    EXPECT_EQ(injected,
              delivered + block + router + endpoint + inflight)
        << "injected=" << injected << " delivered=" << delivered
        << " block=" << block << " router=" << router
        << " endpoint=" << endpoint << " inflight=" << inflight;
}

TEST(Shard, BoundaryExchangeConservesWordsClosedLoop)
{
    // Every word of every message crosses at least one shard
    // boundary (shard cuts sit between stages, traffic spans all
    // stages), so exact conservation here means boundary lanes
    // deliver each staged word exactly once.
    auto net = buildMultibutterfly(fig3Spec(3));
    net->engine().setThreads(4);
    ExperimentConfig cfg;
    cfg.messageWords = 12;
    cfg.warmup = 100;
    cfg.measure = 1200;
    cfg.drainMax = 20000;
    cfg.thinkTime = 5;
    cfg.requestReply = true;
    cfg.seed = 9;
    expectConserved(runClosedLoop(*net, cfg));
}

TEST(Shard, SaturatedSoakConservesUnderAllThreadCounts)
{
    // Open-loop overload: every injector fires nearly every cycle,
    // so all shards stay live and boundary lanes carry contention
    // continuously. Primary target of ci/tsan-engine.sh.
    for (unsigned threads : {2u, 4u, 8u}) {
        SCOPED_TRACE("threads " + std::to_string(threads));
        auto net = buildMultibutterfly(fig3Spec(4));
        net->engine().setThreads(threads);
        ExperimentConfig cfg;
        cfg.messageWords = 8;
        cfg.warmup = 100;
        cfg.measure = 1500;
        cfg.drainMax = 30000;
        cfg.injectProb = 0.5;
        cfg.seed = 11;
        expectConserved(runOpenLoop(*net, cfg));
    }
}

/**
 * Mid-campaign structural surgery: traffic, then a router is
 * *removed from the engine* (not merely marked dead — its shard
 * slice must be rebuilt around the hole), traffic keeps flowing,
 * the router is re-registered, and the network drains. The whole
 * sequence must stay byte-identical to the serial engine.
 */
Outcome
runRemovalScenario(unsigned threads, std::uint64_t seed)
{
    auto spec = fig1Spec(seed);
    spec.niConfig.maxAttempts = 60;
    auto net = buildMultibutterfly(spec);
    net->engine().setThreads(threads);

    LinkProbe probe(1u << 20);
    for (LinkId l = 0; l < net->numLinks(); ++l)
        probe.watch(&net->link(l));
    net->engine().addComponent(&probe);

    const MetricsRegistry base = net->metricsSnapshot();

    const auto burst = [&](std::uint64_t salt) {
        const auto n = static_cast<NodeId>(net->numEndpoints());
        for (NodeId s = 0; s < n; s += 3) {
            NodeId d = static_cast<NodeId>((s * 7 + salt + 5) % n);
            if (d == s)
                d = static_cast<NodeId>((d + 1) % n);
            net->endpoint(s).send(d, {0x3, 0xA, 0x5}, true);
        }
    };

    burst(1);
    net->engine().run(150);

    Component *victim = &net->router(2);
    net->engine().removeComponents({&victim, 1});
    if (threads > 1) {
        EXPECT_EQ(net->engine().shardOf(victim), -1);
    }

    burst(2);
    net->engine().run(400);

    net->engine().addComponent(victim);
    if (threads > 1) {
        EXPECT_GE(net->engine().shardOf(victim), 0);
    }

    burst(3);
    net->engine().run(4000); // drain + idle coda

    Outcome out;
    out.trace = traceDump(probe, *net);
    out.ledger = ledgerDump(*net);
    out.metrics =
        metricsJson(net->metricsSnapshot().deltaSince(base));
    return out;
}

TEST(Shard, RemoveRouterMidCampaignStaysByteIdentical)
{
    const std::uint64_t seed = 0xDEADULL;
    const Outcome serial = runRemovalScenario(1, seed);
    for (unsigned threads : {2u, 4u}) {
        SCOPED_TRACE("threads " + std::to_string(threads));
        const Outcome parallel = runRemovalScenario(threads, seed);
        EXPECT_EQ(serial.trace, parallel.trace);
        EXPECT_EQ(serial.ledger, parallel.ledger);
        EXPECT_EQ(serial.metrics, parallel.metrics);
    }
}

TEST(Shard, SweepReportsInvariantUnderEngineThreads)
{
    const auto makePoints = [] {
        std::vector<SweepPoint> points;
        for (unsigned think : {40u, 10u}) {
            SweepPoint point;
            point.label = "think=" + std::to_string(think);
            point.config.messageWords = 8;
            point.config.warmup = 200;
            point.config.measure = 800;
            point.config.thinkTime = think;
            point.config.seed = 77;
            point.build = [](std::uint64_t) {
                SweepInstance instance;
                instance.network =
                    buildMultibutterfly(fig1Spec(/*seed=*/5));
                return instance;
            };
            points.push_back(std::move(point));
        }
        return points;
    };

    SweepOptions serial;
    serial.threads = 1;
    serial.engineThreads = 1;
    const auto s1 = runSweep(makePoints(), serial);

    SweepOptions parallel;
    parallel.threads = 2;
    parallel.engineThreads = 4;
    const auto s4 = runSweep(makePoints(), parallel);

    EXPECT_EQ(sweepCsv(s1), sweepCsv(s4));
    const auto m1 = sweepJson(s1, /*include_timing=*/false,
                              /*include_metrics=*/true);
    const auto m4 = sweepJson(s4, /*include_timing=*/false,
                              /*include_metrics=*/true);
    EXPECT_EQ(m1, m4);
    EXPECT_NE(m1.find("\"words.injected\""), std::string::npos);
}

} // namespace
} // namespace metro
