/**
 * @file
 * E11 — google-benchmark microbenchmarks of the simulator
 * engineering itself: crossbar allocation, single-router ticks,
 * whole-network cycles, and end-to-end message delivery rate on
 * the Figure 3 network.
 */

#include <benchmark/benchmark.h>

#include <memory>

#include "network/presets.hh"
#include "router/allocator.hh"
#include "traffic/drivers.hh"

namespace
{

using namespace metro;

void
BM_AllocateCrossbar(benchmark::State &state)
{
    const auto n_req = static_cast<unsigned>(state.range(0));
    std::vector<AllocRequest> requests;
    for (unsigned k = 0; k < n_req; ++k)
        requests.push_back({k, k % 4});
    const std::vector<bool> avail(8, true);
    std::uint64_t word = 0x123456789abcdefULL;
    std::vector<AllocGrant> grants;
    for (auto _ : state) {
        allocateCrossbar(requests, avail, 2, word++, true, grants);
        benchmark::DoNotOptimize(grants.data());
    }
}
BENCHMARK(BM_AllocateCrossbar)->Arg(1)->Arg(4)->Arg(8);

void
BM_IdleNetworkCycle(benchmark::State &state)
{
    auto net = buildMultibutterfly(fig3Spec(1));
    for (auto _ : state)
        net->engine().step();
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(net->numRouters()));
}
BENCHMARK(BM_IdleNetworkCycle);

void
BM_SaturatedNetworkCycle(benchmark::State &state)
{
    auto net = buildMultibutterfly(fig3Spec(2));
    DestinationGenerator dests(TrafficPattern::UniformRandom, 64, 3);
    DriverConfig dcfg;
    dcfg.messageWords = 20;
    std::vector<std::unique_ptr<ClosedLoopDriver>> drivers;
    for (NodeId e = 0; e < 64; ++e) {
        drivers.push_back(std::make_unique<ClosedLoopDriver>(
            &net->endpoint(e), &dests, dcfg, 0, 100 + e));
        net->engine().addComponent(drivers.back().get());
    }
    net->engine().run(2000); // reach steady state
    for (auto _ : state)
        net->engine().step();
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(net->numRouters()));
}
BENCHMARK(BM_SaturatedNetworkCycle);

void
BM_EndToEndMessage(benchmark::State &state)
{
    auto net = buildMultibutterfly(fig3Spec(3));
    NodeId dest = 1;
    for (auto _ : state) {
        const auto id = net->endpoint(0).send(
            dest, std::vector<Word>(19, 0x42));
        net->engine().runUntil(
            [&] { return net->tracker().record(id).succeeded; },
            10000);
        dest = dest % 63 + 1;
    }
    state.SetLabel("28-cycle unloaded delivery incl. ack");
}
BENCHMARK(BM_EndToEndMessage);

void
BM_BuildFig3Network(benchmark::State &state)
{
    std::uint64_t seed = 1;
    for (auto _ : state) {
        auto net = buildMultibutterfly(fig3Spec(seed++));
        benchmark::DoNotOptimize(net);
    }
}
BENCHMARK(BM_BuildFig3Network);

} // namespace

BENCHMARK_MAIN();
