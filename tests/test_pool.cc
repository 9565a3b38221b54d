/**
 * @file
 * TickPool lifecycle tests (sim/pool.hh).
 *
 * The pool's steady-state batch hand-off is exercised constantly by
 * the sharded-engine suites; what those never cover is the pool's
 * *lifecycle*: tearing it down while every worker is parked on the
 * epoch condition variable, and resizing it between campaigns — the
 * paths a long-lived serve process takes when the operator changes
 * --engine-threads between runs or shuts the process down. Both
 * must neither hang nor lose tasks.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "network/presets.hh"
#include "network/multibutterfly.hh"
#include "sim/pool.hh"
#include "traffic/experiment.hh"

namespace metro
{
namespace
{

/** Count every (ctx, index) invocation. */
struct Counter
{
    std::atomic<unsigned> calls{0};
};

void
bump(void *ctx, unsigned)
{
    static_cast<Counter *>(ctx)->calls.fetch_add(
        1, std::memory_order_relaxed);
}

TEST(Pool, DestructionWhileWorkersParked)
{
    // Workers park on the epoch CV immediately after construction;
    // destroying the pool right away (and after an idle dwell long
    // enough for every worker to reach the wait) must join them all
    // without a hang. Run it repeatedly to shake scheduling.
    for (int round = 0; round < 20; ++round) {
        TickPool pool;
        pool.resize(4);
        EXPECT_EQ(pool.workers(), 4u);
        if (round % 2 == 1)
            std::this_thread::sleep_for(
                std::chrono::milliseconds(1));
        // ~TickPool runs here with all workers parked.
    }
}

TEST(Pool, DestructionAfterBatchesWithStragglers)
{
    // Tiny batches finish before slower workers even wake; those
    // stragglers oversleep whole epochs and must still see the stop
    // flag when the pool dies.
    for (int round = 0; round < 20; ++round) {
        Counter c;
        TickPool pool;
        pool.resize(8);
        for (unsigned k = 0; k < 16; ++k)
            pool.run(2, &bump, &c);
        EXPECT_EQ(c.calls.load(), 32u);
    }
}

TEST(Pool, ResizeBetweenBatches)
{
    Counter c;
    TickPool pool;
    // Grow, shrink, tear down to zero, and regrow; every batch must
    // run exactly once per index at every size, including the
    // inline (no-worker) configuration.
    const unsigned sizes[] = {0, 2, 7, 1, 0, 4, 3, 0, 8};
    unsigned expected = 0;
    for (unsigned s : sizes) {
        pool.resize(s);
        EXPECT_EQ(pool.workers(), s);
        pool.run(37, &bump, &c);
        expected += 37;
        EXPECT_EQ(c.calls.load(), expected);
    }
}

/** Per-index invocation counts of the current batch. */
struct Tally
{
    std::atomic<unsigned> calls[8] = {};
};

void
tally(void *ctx, unsigned i)
{
    static_cast<Tally *>(ctx)->calls[i].fetch_add(
        1, std::memory_order_relaxed);
}

TEST(Pool, GrowingBatchesNeverRerunAStragglersIndex)
{
    // The engine alternates batches of different sizes (live shards,
    // then phase-2 chunks). A worker whose last draw hit an exhausted
    // cursor just as a larger batch was published must not run the
    // new batch's task of that index too: a shard ticked twice pushes
    // its lanes twice. Oversubscribe the workers so preemption lands
    // in that window, and check every index ran exactly once.
    TickPool pool;
    pool.resize(7);
    const unsigned sizes[] = {2, 8, 1, 6, 3, 8, 1, 5};
    Tally t;
    for (unsigned batch = 0; batch < 40000; ++batch) {
        const unsigned n = sizes[batch % 8];
        pool.run(n, &tally, &t);
        for (unsigned i = 0; i < 8; ++i) {
            ASSERT_EQ(t.calls[i].exchange(0), i < n ? 1u : 0u)
                << "batch " << batch << " index " << i;
        }
    }
}

TEST(Pool, ResizeToSameSizeKeepsWorkers)
{
    Counter c;
    TickPool pool;
    pool.resize(3);
    pool.run(10, &bump, &c);
    pool.resize(3); // no-op: must not tear down or hang
    EXPECT_EQ(pool.workers(), 3u);
    pool.run(10, &bump, &c);
    EXPECT_EQ(c.calls.load(), 20u);
}

TEST(Pool, EngineThreadReconfigurationBetweenCampaigns)
{
    // The serve-process shape: one network, several campaigns, the
    // operator changing --engine-threads between them. Results must
    // stay byte-identical across the reconfigurations (the engine's
    // determinism contract) and nothing may hang at teardown.
    auto runAt = [](const std::vector<unsigned> &threads) {
        auto net = buildMultibutterfly(fig1Spec(7));
        std::string out;
        for (unsigned t : threads) {
            net->engine().setThreads(t);
            ExperimentConfig cfg;
            cfg.messageWords = 8;
            cfg.warmup = 50;
            cfg.measure = 400;
            cfg.thinkTime = 100;
            cfg.seed = 7;
            const auto r = runClosedLoop(*net, cfg);
            out += std::to_string(r.latency.count()) + ":" +
                   std::to_string(static_cast<std::uint64_t>(
                       r.latency.mean() * 1000)) +
                   ";";
        }
        return out;
    };
    const std::string serial = runAt({1, 1, 1});
    EXPECT_EQ(serial, runAt({1, 4, 2}));
    EXPECT_EQ(serial, runAt({8, 1, 4}));
}

} // namespace
} // namespace metro
