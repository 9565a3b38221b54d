/**
 * @file
 * Unit tests for the simulation kernel: pipe latency semantics,
 * link lanes, fault transforms, engine tick/advance ordering.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/random.hh"
#include "network/multibutterfly.hh"
#include "network/presets.hh"
#include "serve/checkpoint.hh"
#include "sim/arena.hh"
#include "sim/engine.hh"
#include "sim/link.hh"
#include "sim/pipe.hh"
#include "sim/symbol.hh"

namespace metro
{
namespace
{

TEST(Pipe, LatencyOneDeliversNextCycle)
{
    Pipe p(1);
    EXPECT_FALSE(p.head().occupied());
    p.push(Symbol::data(0x42));
    p.advance();
    EXPECT_EQ(p.head().kind, SymbolKind::Data);
    EXPECT_EQ(p.head().value, 0x42u);
    p.advance();
    EXPECT_FALSE(p.head().occupied());
}

TEST(Pipe, LatencyThreeDeliversAfterThree)
{
    Pipe p(3);
    p.push(Symbol::data(1));
    for (int c = 0; c < 2; ++c) {
        p.advance();
        EXPECT_FALSE(p.head().occupied()) << "cycle " << c;
        p.push(Symbol::data(static_cast<Word>(10 + c)));
    }
    p.advance();
    EXPECT_EQ(p.head().value, 1u);
    p.advance();
    EXPECT_EQ(p.head().value, 10u);
    p.advance();
    EXPECT_EQ(p.head().value, 11u);
}

TEST(Pipe, UnpushedCyclesAreEmpty)
{
    Pipe p(2);
    p.push(Symbol::data(7));
    p.advance(); // gap cycle: no push
    p.advance();
    EXPECT_EQ(p.head().value, 7u);
    p.advance();
    EXPECT_FALSE(p.head().occupied());
}

TEST(Pipe, FlushClearsInFlight)
{
    Pipe p(2);
    p.push(Symbol::data(9));
    p.advance();
    p.flush();
    p.advance();
    EXPECT_FALSE(p.head().occupied());
}

TEST(PipeDeathTest, DoublePushPanics)
{
    Pipe p(1);
    p.push(Symbol::data(1));
    EXPECT_DEATH(p.push(Symbol::data(2)), "double push");
}

TEST(Link, LanesAreIndependent)
{
    Link link(0, 1, 2);
    link.pushDown(Symbol::data(0xaa));
    link.pushUp(Symbol::data(0xbb));
    link.advance();
    EXPECT_EQ(link.headDown().value, 0xaau);
    EXPECT_FALSE(link.headUp().occupied()); // up latency is 2
    link.advance();
    EXPECT_EQ(link.headUp().value, 0xbbu);
}

TEST(Link, DeadLinkDeliversNothing)
{
    Link link(0, 1, 1);
    link.pushDown(Symbol::data(1));
    link.setFault(LinkFault::Dead);
    link.advance();
    EXPECT_FALSE(link.headDown().occupied());
    link.pushDown(Symbol::data(2));
    link.advance();
    EXPECT_FALSE(link.headDown().occupied());
}

TEST(Link, HealedLinkDeliversAgain)
{
    Link link(0, 1, 1);
    link.setFault(LinkFault::Dead);
    link.setFault(LinkFault::None);
    link.pushDown(Symbol::data(3));
    link.advance();
    EXPECT_EQ(link.headDown().value, 3u);
}

TEST(Link, CorruptFlipsDataBits)
{
    Link link(0, 1, 1, /*fault_seed=*/5);
    link.setFault(LinkFault::Corrupt);
    int changed = 0;
    for (int i = 0; i < 32; ++i) {
        link.pushDown(Symbol::data(0x00));
        link.advance();
        if (link.headDown().value != 0)
            ++changed;
    }
    EXPECT_EQ(changed, 32); // every data word gets one bit flipped
}

TEST(Link, CorruptLeavesControlTokensAlone)
{
    Link link(0, 1, 1);
    link.setFault(LinkFault::Corrupt);
    link.pushDown(Symbol::control(SymbolKind::Turn));
    link.advance();
    EXPECT_EQ(link.headDown().kind, SymbolKind::Turn);
}

/** A component that copies its input link to its output link. */
class Repeater : public Component
{
  public:
    Repeater(Link *in, Link *out)
        : Component("repeater"), in_(in), out_(out)
    {}

    void
    tick(Cycle) override
    {
        const Symbol s = in_->headDown();
        if (s.occupied())
            out_->pushDown(s);
    }

  private:
    Link *in_;
    Link *out_;
};

TEST(Engine, TickThenAdvanceOrdering)
{
    Engine engine;
    Link a(0, 1, 1), b(1, 1, 1);
    Repeater r(&a, &b);
    engine.addLink(&a);
    engine.addLink(&b);
    engine.addComponent(&r);

    a.pushDown(Symbol::data(0x5));
    engine.step(); // symbol reaches repeater input
    engine.step(); // repeater forwards
    EXPECT_EQ(b.headDown().value, 0x5u);
    EXPECT_EQ(engine.now(), 2u);
}

TEST(Engine, HopLatencyIsTickOrderIndependent)
{
    // Regression: a component ticking after the writer in the same
    // cycle must NOT observe the just-pushed symbol. Two repeater
    // chains, one registered in forward order and one in reverse,
    // must deliver with identical latency.
    for (bool reverse : {false, true}) {
        Engine engine;
        Link a(0, 1, 1), b(1, 1, 1), c(2, 1, 1);
        Repeater r1(&a, &b), r2(&b, &c);
        engine.addLink(&a);
        engine.addLink(&b);
        engine.addLink(&c);
        if (reverse) {
            engine.addComponent(&r2);
            engine.addComponent(&r1);
        } else {
            engine.addComponent(&r1);
            engine.addComponent(&r2);
        }
        a.pushDown(Symbol::data(0x7)); // visible to r1 at tick 1
        engine.step();                 // tick 0
        engine.step();                 // tick 1: r1 forwards
        EXPECT_FALSE(c.headDown().occupied()) << "order " << reverse;
        engine.step();                 // tick 2: r2 forwards
        EXPECT_EQ(c.headDown().value, 0x7u) << "order " << reverse;
    }
}

TEST(Engine, ProfileCountsOnlyAttachedCyclesAndRunPhases)
{
    for (unsigned threads : {1u, 2u}) {
        Engine engine;
        engine.setThreads(threads);
        Link a(0, 1, 1), b(1, 1, 1);
        Repeater r(&a, &b);
        engine.addLink(&a);
        engine.addLink(&b);
        engine.addComponent(&r);
        engine.run(5);
        EngineProfile profile;
        engine.setProfile(&profile);
        engine.run(40);
        engine.setProfile(nullptr);
        engine.run(5);
        EXPECT_EQ(profile.cycles, 40u);
        // The serial engine has no 1a-1c; the sharded one no single
        // tick pass.
        if (threads == 1) {
            EXPECT_EQ(profile.ns[EngineProfile::ParallelTick], 0u);
            EXPECT_EQ(profile.ns[EngineProfile::BarrierFold], 0u);
            EXPECT_EQ(profile.ns[EngineProfile::SerialSection], 0u);
        } else {
            EXPECT_EQ(profile.ns[EngineProfile::SerialTick], 0u);
        }
        // The repeater is no router, NI or driver.
        const auto other = static_cast<unsigned>(TickClass::Other);
        for (unsigned k = 0; k < kTickClasses; ++k) {
            if (k != other)
                EXPECT_EQ(profile.classNs[k], 0u);
        }
        EXPECT_LE(profile.classNs[other],
                  profile.ns[EngineProfile::SerialTick] +
                      profile.ns[EngineProfile::SerialSection]);
    }

    // A network under traffic on two threads: routers and NIs tick
    // in shards, so 1a's efficiency is defined, and no class sum
    // exceeds the phase time it came from.
    auto net = buildMultibutterfly(fig1Spec(3));
    Engine &engine = net->engine();
    engine.setThreads(2);
    for (NodeId s = 0; s < net->numEndpoints(); ++s)
        net->endpoint(s).send(
            static_cast<NodeId>((s + 5) % net->numEndpoints()),
            {0x3, 0xA, 0x5}, true);
    EngineProfile profile;
    engine.setProfile(&profile);
    engine.run(200);
    engine.setProfile(nullptr);
    EXPECT_GT(profile.classNs[static_cast<unsigned>(TickClass::Router)],
              0u);
    EXPECT_GT(
        profile.classNs[static_cast<unsigned>(TickClass::Endpoint)], 0u);
    EXPECT_GT(profile.parallelEfficiency(), 0.0);
    EXPECT_LE(profile.parallelEfficiency(), 1.0);
    EXPECT_LE(profile.shardNs, profile.parallelCapacityNs);
    std::uint64_t class_sum = 0;
    for (const std::uint64_t ns : profile.classNs)
        class_sum += ns;
    EXPECT_LE(class_sum, profile.shardNs +
                             profile.ns[EngineProfile::SerialSection]);
}

TEST(Engine, RunUntilStopsEarly)
{
    Engine engine;
    int ticks = 0;
    class Counter : public Component
    {
      public:
        explicit Counter(int *n) : Component("ctr"), n_(n) {}
        void tick(Cycle) override { ++*n_; }

      private:
        int *n_;
    };
    Counter c(&ticks);
    engine.addComponent(&c);
    const bool done =
        engine.runUntil([&ticks] { return ticks >= 5; }, 100);
    EXPECT_TRUE(done);
    EXPECT_EQ(ticks, 5);
}

TEST(Engine, RunUntilTimesOut)
{
    Engine engine;
    const bool done = engine.runUntil([] { return false; }, 10);
    EXPECT_FALSE(done);
    EXPECT_EQ(engine.now(), 10u);
}

/** The live-lane set holds exactly the lanes that are neither
 *  paused nor frozen, and no bit past the last lane. */
void
expectLiveSetExact(const LaneArena &arena)
{
    for (LaneId lane = 0; lane < arena.lanes(); ++lane) {
        ASSERT_EQ(arena.live(lane),
                  !arena.paused(lane) && !arena.frozen(lane))
            << "lane " << lane;
    }
    const auto words = arena.liveWords();
    ASSERT_EQ(words.size(), (arena.lanes() + 63) / 64);
    if (arena.lanes() % 64 != 0) {
        EXPECT_EQ(words.back() >> (arena.lanes() % 64), 0u);
    }
}

TEST(LaneArena, LiveSetTracksPauseAndFreezeUnderRandomOps)
{
    LaneArena arena;
    std::uint64_t discards = 0;
    arena.setWireDiscardCounter(&discards);
    Xoshiro256 rng(0x11fe);
    // The model: what pause/freeze calls were made, independent of
    // the arena's own flag bytes.
    std::vector<bool> paused, frozen;
    const auto grow = [&] {
        arena.allocate(1 + static_cast<unsigned>(rng.below(4)));
        paused.push_back(false);
        frozen.push_back(false);
    };
    for (int k = 0; k < 70; ++k)
        grow();
    for (int step = 0; step < 4000; ++step) {
        const auto lane = static_cast<LaneId>(rng.below(arena.lanes()));
        switch (rng.below(7)) {
          case 0:
            grow();
            break;
          case 1:
            paused[lane] = rng.bit();
            arena.setPaused(lane, paused[lane]);
            break;
          case 2:
            frozen[lane] = rng.bit();
            arena.setFrozen(lane, frozen[lane]);
            break;
          case 3:
            arena.setCensus(lane,
                            static_cast<LaneCensus>(rng.below(4)));
            break;
          case 4:
            arena.flush(lane);
            break;
          default: {
            // One cycle: a few pushes, then the batched advance.
            // Only live lanes take pushes (a push into a sleeping
            // link's lane wakes the link first).
            std::vector<bool> pushed(arena.lanes(), false);
            for (int p = 0; p < 8; ++p) {
                const auto l =
                    static_cast<LaneId>(rng.below(arena.lanes()));
                if (!pushed[l] && arena.live(l)) {
                    pushed[l] = true;
                    arena.push(l, Symbol::data(rng.below(256), l));
                }
            }
            std::vector<LaneId> drained;
            arena.advanceAll(&drained);
            break;
          }
        }
        for (LaneId l = 0; l < arena.lanes(); ++l) {
            ASSERT_EQ(arena.live(l), !paused[l] && !frozen[l])
                << "lane " << l << " at step " << step;
        }
        expectLiveSetExact(arena);
    }
    EXPECT_GT(arena.lanes(), 128u) << "grew past two live-set words";
}

TEST(LaneArena, LiveSetSurvivesCheckpointRestore)
{
    // A network with lanes in every state — sleeping links, a dead
    // link with its census armed, a flushed link, an unregistered
    // (frozen) link, and live traffic — round-trips through a
    // checkpoint. The live-lane set is derived state, not
    // serialized: the restore must rebuild it from the flag bytes.
    constexpr std::uint64_t kDigest = 0x11fe;
    const auto spec = fig1Spec(9);
    auto net = buildMultibutterfly(spec);
    net->engine().run(50); // idle: every link sleeps
    net->endpoint(1).send(14, {0x1, 0x2, 0x3, 0x4});
    net->engine().run(4);
    net->link(3).setFault(LinkFault::Dead);
    net->link(7).flush();
    Link *gone = &net->link(5);
    net->engine().removeLinks({&gone, 1});
    net->engine().run(3);
    expectLiveSetExact(net->arena());

    std::size_t live = 0, sleeping = 0;
    for (LaneId lane = 0; lane < net->arena().lanes(); ++lane) {
        live += net->arena().live(lane) ? 1 : 0;
        sleeping += net->arena().paused(lane) ? 1 : 0;
    }
    ASSERT_GT(live, 0u);
    ASSERT_GT(sleeping, 0u);

    CheckpointParticipants parts;
    parts.net = net.get();
    const auto bytes = saveCheckpointBytes(kDigest, parts);

    // A fresh instance starts with every lane live.
    auto fresh = buildMultibutterfly(spec);
    Link *freshGone = &fresh->link(5);
    fresh->engine().removeLinks({&freshGone, 1});
    CheckpointParticipants freshParts;
    freshParts.net = fresh.get();
    ASSERT_EQ(restoreCheckpointBytes(bytes.data(), bytes.size(),
                                     kDigest, freshParts),
              "");
    expectLiveSetExact(fresh->arena());
    for (LaneId lane = 0; lane < net->arena().lanes(); ++lane)
        EXPECT_EQ(fresh->arena().live(lane), net->arena().live(lane))
            << "lane " << lane;
}

/** Everything observable about one arena, lane by lane. */
void
expectSameLanes(const LaneArena &a, const LaneArena &b)
{
    ASSERT_EQ(a.lanes(), b.lanes());
    for (LaneId lane = 0; lane < a.lanes(); ++lane) {
        const Symbol x = a.head(lane), y = b.head(lane);
        ASSERT_EQ(x.kind, y.kind) << "lane " << lane;
        ASSERT_EQ(x.value, y.value) << "lane " << lane;
        ASSERT_EQ(x.msgId, y.msgId) << "lane " << lane;
        ASSERT_EQ(a.occupied(lane), b.occupied(lane)) << "lane " << lane;
        ASSERT_EQ(a.countKind(lane, SymbolKind::Data),
                  b.countKind(lane, SymbolKind::Data))
            << "lane " << lane;
    }
}

TEST(LaneArena, AdvanceRangeSplitsMatchAdvanceAll)
{
    // Two identical arenas driven through identical cycles: one
    // advances in a single pass, the other in arbitrary, mostly
    // non-64-aligned chunks whose drained reports and census charges
    // are concatenated in chunk order, as the sharded engine folds
    // them. Slots, drained lists and wire discards must agree.
    Xoshiro256 rng(0xad5a);
    LaneArena whole, split;
    for (int k = 0; k < 300; ++k) {
        const auto lat = 1 + static_cast<unsigned>(rng.below(5));
        whole.allocate(lat);
        split.allocate(lat);
    }
    std::uint64_t wholeDiscards = 0, splitDiscards = 0;
    whole.setWireDiscardCounter(&wholeDiscards);
    const auto lanes = static_cast<LaneId>(whole.lanes());
    for (int cycle = 0; cycle < 600; ++cycle) {
        // Identical mutations on both: pushes into live lanes,
        // pause/freeze flips, fault-census arming.
        std::vector<bool> pushed(lanes, false);
        for (int p = 0; p < 40; ++p) {
            const auto l = static_cast<LaneId>(rng.below(lanes));
            if (pushed[l] || !whole.live(l))
                continue;
            pushed[l] = true;
            const Symbol s = rng.below(4) == 0
                                 ? Symbol{}
                                 : Symbol::data(rng.below(1 << 16), l);
            whole.push(l, s);
            split.push(l, s);
        }
        for (int f = 0; f < 6; ++f) {
            const auto l = static_cast<LaneId>(rng.below(lanes));
            switch (rng.below(3)) {
              case 0: {
                const bool on = rng.below(3) != 0;
                whole.setPaused(l, on);
                split.setPaused(l, on);
                break;
              }
              case 1: {
                const bool on = rng.below(4) == 0;
                whole.setFrozen(l, on);
                split.setFrozen(l, on);
                break;
              }
              default: {
                const auto c = static_cast<LaneCensus>(rng.below(4));
                whole.setCensus(l, c);
                split.setCensus(l, c);
                break;
              }
            }
        }

        std::vector<LaneId> wholeDrained;
        whole.advanceAll(&wholeDrained);

        std::vector<LaneId> cuts = {0, lanes};
        for (int c = 1 + static_cast<int>(rng.below(6)); c > 0; --c)
            cuts.push_back(static_cast<LaneId>(rng.below(lanes + 1)));
        std::sort(cuts.begin(), cuts.end());
        std::vector<LaneId> splitDrained;
        for (std::size_t k = 0; k + 1 < cuts.size(); ++k) {
            std::vector<LaneId> chunk;
            std::uint64_t charges = 0;
            split.advanceRange(cuts[k], cuts[k + 1], &chunk, &charges);
            splitDrained.insert(splitDrained.end(), chunk.begin(),
                                chunk.end());
            splitDiscards += charges;
        }

        ASSERT_EQ(wholeDrained, splitDrained) << "cycle " << cycle;
        ASSERT_EQ(wholeDiscards, splitDiscards) << "cycle " << cycle;
        expectSameLanes(whole, split);
    }
    EXPECT_GT(wholeDiscards, 0u) << "census charges never exercised";
}

TEST(StatusWord, EncodeDecodeRoundTrip)
{
    StatusWord s;
    s.router = 12345;
    s.stage = 3;
    s.blocked = true;
    s.checksum = 0xbeef;
    const auto d = StatusWord::decode(s.encode());
    EXPECT_EQ(d.router, 12345u);
    EXPECT_EQ(d.stage, 3u);
    EXPECT_TRUE(d.blocked);
    EXPECT_EQ(d.checksum, 0xbeef);
}

TEST(AckWord, EncodeDecodeRoundTrip)
{
    AckWord a;
    a.ok = true;
    a.sequence = 0xdeadbeef;
    const auto d = AckWord::decode(a.encode());
    EXPECT_TRUE(d.ok);
    EXPECT_EQ(d.sequence, 0xdeadbeefu);

    AckWord n;
    n.ok = false;
    n.sequence = 7;
    const auto dn = AckWord::decode(n.encode());
    EXPECT_FALSE(dn.ok);
    EXPECT_EQ(dn.sequence, 7u);
}

TEST(Symbol, KindNamesAreDistinct)
{
    EXPECT_STREQ(symbolKindName(SymbolKind::Empty), "Empty");
    EXPECT_STREQ(symbolKindName(SymbolKind::Turn), "Turn");
    EXPECT_STREQ(symbolKindName(SymbolKind::BcbDrop), "BcbDrop");
}

} // namespace
} // namespace metro
