/**
 * @file
 * Unit tests for the simulation kernel: pipe latency semantics,
 * link lanes, fault transforms, engine tick/advance ordering.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "common/random.hh"
#include "network/multibutterfly.hh"
#include "network/presets.hh"
#include "serve/checkpoint.hh"
#include "sim/arena.hh"
#include "sim/engine.hh"
#include "sim/link.hh"
#include "sim/pipe.hh"
#include "sim/pool.hh"
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
            if (k != other) {
                EXPECT_EQ(profile.classNs[k], 0u);
            }
        }
        EXPECT_LE(profile.classNs[other],
                  profile.ns[EngineProfile::SerialTick] +
                      profile.ns[EngineProfile::SerialSection]);
        // Every cycle ends with the drain fold and the finish pass.
        EXPECT_GT(profile.ns[EngineProfile::DrainFold], 0u);
        EXPECT_GT(profile.ns[EngineProfile::Finish], 0u);
    }
    EXPECT_STREQ(EngineProfile::kNames[EngineProfile::DrainFold],
                 "2 drain fold");

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

/**
 * Test-only reference model: the rotating-ring lane arena the
 * clock-indexed LaneArena replaced. Each lane is a ring of exactly L
 * slots with a head cursor; a push is staged and committed by an
 * explicit per-lane advance, which also steps the fault census and
 * reports drained lanes — the semantics the clock ring must
 * reproduce without any per-lane work per cycle.
 */
class RotatingRingModel
{
  public:
    void
    allocate(unsigned latency)
    {
        base_.push_back(static_cast<std::uint32_t>(slots_.size()));
        slots_.resize(slots_.size() + latency);
        end_.push_back(static_cast<std::uint32_t>(slots_.size()));
        head_.push_back(base_.back());
        occupied_.push_back(0);
        pending_.emplace_back();
        pushed_.push_back(false);
        paused_.push_back(false);
        frozen_.push_back(false);
        census_.push_back(LaneCensus::None);
    }

    std::size_t lanes() const { return base_.size(); }
    Symbol head(LaneId l) const { return slots_[head_[l]]; }
    unsigned occupied(LaneId l) const { return occupied_[l]; }
    bool pushed(LaneId l) const { return pushed_[l]; }
    bool paused(LaneId l) const { return paused_[l]; }
    bool frozen(LaneId l) const { return frozen_[l]; }
    bool live(LaneId l) const { return !paused_[l] && !frozen_[l]; }
    LaneCensus census(LaneId l) const { return census_[l]; }

    void
    push(LaneId l, const Symbol &s)
    {
        ASSERT_FALSE(pushed_[l]);
        pending_[l] = s;
        pushed_[l] = true;
        if (s.kind != SymbolKind::Empty)
            ++occupied_[l];
    }

    unsigned
    countKind(LaneId l, SymbolKind kind) const
    {
        unsigned n = 0;
        for (std::uint32_t i = base_[l]; i < end_[l]; ++i)
            n += slots_[i].kind == kind ? 1 : 0;
        return n + (pushed_[l] && pending_[l].kind == kind ? 1 : 0);
    }

    void
    flush(LaneId l)
    {
        for (std::uint32_t i = base_[l]; i < end_[l]; ++i)
            slots_[i] = Symbol{};
        pushed_[l] = false;
        occupied_[l] = 0;
    }

    void setPaused(LaneId l, bool on) { paused_[l] = on; }
    void setFrozen(LaneId l, bool on) { frozen_[l] = on; }
    void setCensus(LaneId l, LaneCensus c) { census_[l] = c; }

    std::size_t
    sleepingLanes() const
    {
        std::size_t n = 0;
        for (LaneId l = 0; l < lanes(); ++l)
            n += paused_[l] && !frozen_[l] ? 1 : 0;
        return n;
    }

    /** One cycle's end: every live lane takes its census step and
     *  rotates; drained-lane reports in ascending lane order. */
    void
    advanceAll(std::vector<LaneId> &drained, std::uint64_t &discards)
    {
        for (LaneId l = 0; l < lanes(); ++l) {
            if (!live(l))
                continue;
            const bool armed = census_[l] != LaneCensus::None;
            switch (census_[l]) {
              case LaneCensus::None:
                break;
              case LaneCensus::DeadPending:
                census_[l] = LaneCensus::DeadCharge;
                break;
              case LaneCensus::DeadCharge:
                discards += head(l).kind == SymbolKind::Data ? 1 : 0;
                break;
              case LaneCensus::HealCharge:
                discards += head(l).kind == SymbolKind::Data ? 1 : 0;
                census_[l] = LaneCensus::None;
                break;
            }
            if (occupied_[l] == 0) {
                if (pushed_[l] || armed)
                    drained.push_back(l);
                pushed_[l] = false;
                continue;
            }
            Symbol &slot = slots_[head_[l]];
            if (slot.kind != SymbolKind::Empty)
                --occupied_[l];
            slot = pushed_[l] ? pending_[l] : Symbol{};
            pushed_[l] = false;
            head_[l] = head_[l] + 1 == end_[l] ? base_[l] : head_[l] + 1;
            if (occupied_[l] == 0)
                drained.push_back(l);
        }
    }

  private:
    std::vector<Symbol> slots_;
    std::vector<std::uint32_t> base_, end_, head_, occupied_;
    std::vector<Symbol> pending_;
    std::vector<bool> pushed_, paused_, frozen_;
    std::vector<LaneCensus> census_;
};

/** Everything observable about one lane, arena against model. */
void
expectLaneMatchesModel(const LaneArena &a, const RotatingRingModel &m,
                       LaneId l)
{
    const Symbol x = a.head(l), y = m.head(l);
    ASSERT_EQ(x.kind, y.kind) << "lane " << l;
    ASSERT_EQ(x.value, y.value) << "lane " << l;
    ASSERT_EQ(x.msgId, y.msgId) << "lane " << l;
    ASSERT_EQ(a.headKind(l), y.kind) << "lane " << l;
    ASSERT_EQ(a.occupied(l), m.occupied(l)) << "lane " << l;
    ASSERT_EQ(a.drained(l), m.occupied(l) == 0) << "lane " << l;
    for (const SymbolKind k :
         {SymbolKind::Empty, SymbolKind::Data, SymbolKind::Turn}) {
        ASSERT_EQ(a.countKind(l, k), m.countKind(l, k))
            << "lane " << l << " kind " << symbolKindName(k);
    }
    ASSERT_EQ(a.paused(l), m.paused(l)) << "lane " << l;
    ASSERT_EQ(a.frozen(l), m.frozen(l)) << "lane " << l;
    ASSERT_EQ(a.live(l), m.live(l)) << "lane " << l;
}

void
expectArenaMatchesModel(const LaneArena &a, const RotatingRingModel &m)
{
    ASSERT_EQ(a.lanes(), m.lanes());
    for (LaneId l = 0; l < a.lanes(); ++l) {
        expectLaneMatchesModel(a, m, l);
        if (::testing::Test::HasFatalFailure())
            return;
    }
    ASSERT_EQ(a.sleepingLanes(), m.sleepingLanes());
}

std::vector<LaneId>
sortedUnique(std::vector<LaneId> v)
{
    std::sort(v.begin(), v.end());
    EXPECT_EQ(std::adjacent_find(v.begin(), v.end()), v.end())
        << "a lane was reported twice";
    return v;
}

TEST(LaneArena, ClockRingMatchesRotatingRingReference)
{
    for (const std::uint64_t seed : {0xc10c1ULL, 0xc10c2ULL, 0xc10c3ULL,
                                     0xc10c4ULL, 0xc10c5ULL}) {
        SCOPED_TRACE(seed);
        Xoshiro256 rng(seed);
        std::vector<unsigned> lat;
        for (int k = 0; k < 24; ++k)
            lat.push_back(1 + static_cast<unsigned>(rng.below(4)));
        const auto build = [&lat](LaneArena &a) {
            for (const unsigned l : lat)
                a.allocate(l);
        };
        auto arena = std::make_unique<LaneArena>();
        build(*arena);
        RotatingRingModel model;
        for (const unsigned l : lat)
            model.allocate(l);
        std::uint64_t discards = 0, modelDiscards = 0;
        arena->setWireDiscardCounter(&discards);
        const auto lanes = static_cast<LaneId>(lat.size());
        std::vector<bool> dead(lanes, false);
        std::size_t reports = 0, restores = 0, frozenReads = 0;

        // Link::setFault's lane effects: arm the census edge and
        // wake the lane.
        const auto faultEdge = [&](LaneId l) {
            if (dead[l] && rng.bit()) {
                dead[l] = false;
                arena->setCensus(l, LaneCensus::HealCharge);
                model.setCensus(l, LaneCensus::HealCharge);
            } else if (!dead[l]) {
                dead[l] = true;
                arena->setCensus(l, LaneCensus::DeadPending);
                model.setCensus(l, LaneCensus::DeadPending);
            }
            arena->setPaused(l, false);
            model.setPaused(l, false);
        };
        // Mutations legal at any point of a cycle.
        const auto anyTimeOp = [&](LaneId l) {
            switch (rng.below(4)) {
              case 0: {
                const bool on = rng.below(3) == 0;
                arena->setFrozen(l, on);
                model.setFrozen(l, on);
                break;
              }
              case 1:
                arena->flush(l);
                model.flush(l);
                break;
              case 2:
                faultEdge(l);
                break;
              default:
                arena->setPaused(l, false);
                model.setPaused(l, false);
                break;
            }
        };

        for (int op = 0; op < 3000; ++op) {
            const auto l = static_cast<LaneId>(rng.below(lanes));
            switch (rng.below(8)) {
              case 0:
                anyTimeOp(l);
                break;
              case 1:
                // Link::deactivate: a registered (unfrozen) link,
                // between cycles, once drained with no fault edge
                // pending.
                if (!model.frozen(l) && !model.pushed(l) &&
                    model.occupied(l) == 0 &&
                    !arena->censusEdgePending(l)) {
                    arena->setPaused(l, true);
                    model.setPaused(l, true);
                }
                break;
              case 2: {
                // Checkpoint between cycles into a fresh arena.
                const auto bytes = saveLaneArenaBytes(*arena);
                auto fresh = std::make_unique<LaneArena>();
                build(*fresh);
                for (int k = static_cast<int>(rng.below(5)); k > 0; --k)
                    fresh->tick(); // a different clock must not matter
                ASSERT_EQ(restoreLaneArenaBytes(bytes, *fresh), "");
                fresh->setWireDiscardCounter(&discards);
                EXPECT_EQ(saveLaneArenaBytes(*fresh), bytes);
                arena = std::move(fresh);
                ++restores;
                break;
              }
              default: {
                // One cycle: pushes (a push wakes a sleeping lane, as
                // Link::pushDown does) interleaved with mid-cycle
                // mutations and reads, then the fold.
                for (int p = static_cast<int>(rng.below(12)); p > 0; --p) {
                    const auto t = static_cast<LaneId>(rng.below(lanes));
                    if (rng.below(6) == 0) {
                        anyTimeOp(t);
                    } else if (!model.pushed(t)) {
                        arena->setPaused(t, false);
                        model.setPaused(t, false);
                        Symbol s;
                        switch (rng.below(4)) {
                          case 0:
                            break; // Empty
                          case 1:
                            s = Symbol::control(SymbolKind::Turn, op);
                            break;
                          default:
                            s = Symbol::data(rng.below(1 << 16), op);
                            break;
                        }
                        arena->push(t, s);
                        model.push(t, s);
                        ASSERT_FALSE(HasFatalFailure());
                    }
                    expectLaneMatchesModel(*arena, model, t);
                    ASSERT_FALSE(HasFatalFailure());
                }
                std::vector<LaneId> got, want;
                model.advanceAll(want, modelDiscards);
                arena->tick();
                arena->collectDrained(&got);
                ASSERT_EQ(sortedUnique(got), want) << "op " << op;
                reports += want.size();
                break;
              }
            }
            ASSERT_EQ(discards, modelDiscards) << "op " << op;
            expectArenaMatchesModel(*arena, model);
            ASSERT_FALSE(HasFatalFailure()) << "op " << op;
            for (LaneId k = 0; k < lanes; ++k)
                frozenReads += model.frozen(k) && model.occupied(k) != 0;
        }
        EXPECT_GT(reports, 500u);
        EXPECT_GT(restores, 100u);
        EXPECT_GT(modelDiscards, 0u) << "census charges never exercised";
        EXPECT_GT(frozenReads, 0u) << "no frozen lane held symbols";
    }
}

/** live() and the sleeping-lane tally agree with the lanes' pause and
 *  freeze flags. */
void
expectSleepingTallyExact(const LaneArena &arena)
{
    std::size_t sleeping = 0;
    for (LaneId lane = 0; lane < arena.lanes(); ++lane) {
        ASSERT_EQ(arena.live(lane),
                  !arena.paused(lane) && !arena.frozen(lane))
            << "lane " << lane;
        sleeping += arena.paused(lane) && !arena.frozen(lane) ? 1 : 0;
    }
    ASSERT_EQ(arena.sleepingLanes(), sleeping);
}

TEST(LaneArena, LiveSetTracksPauseAndFreezeUnderRandomOps)
{
    // The sleeping-lane tally (what links-fastpathed accounting
    // charges) and live() must track every pause/freeze call exactly,
    // and the drain fold must never report a paused or frozen lane.
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
    std::size_t reported = 0;
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
            // One cycle: a few pushes, then the tick and the fold.
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
            arena.tick();
            arena.collectDrained(&drained);
            for (const LaneId l : drained) {
                ASSERT_TRUE(!paused[l] && !frozen[l])
                    << "fold reported sleeping/frozen lane " << l;
            }
            reported += drained.size();
            break;
          }
        }
        std::size_t sleeping = 0;
        for (LaneId l = 0; l < arena.lanes(); ++l) {
            ASSERT_EQ(arena.live(l), !paused[l] && !frozen[l])
                << "lane " << l << " at step " << step;
            ASSERT_EQ(arena.paused(l), paused[l]) << "lane " << l;
            ASSERT_EQ(arena.frozen(l), frozen[l]) << "lane " << l;
            sleeping += paused[l] && !frozen[l] ? 1 : 0;
        }
        ASSERT_EQ(arena.sleepingLanes(), sleeping) << "step " << step;
        expectSleepingTallyExact(arena);
    }
    EXPECT_GT(arena.lanes(), 128u);
    EXPECT_GT(reported, 100u);
}

TEST(LaneArena, LiveSetSurvivesCheckpointRestore)
{
    // A network with lanes in every state — sleeping links, a dead
    // link with its census armed, a flushed link, an unregistered
    // (frozen) link, and live traffic — round-trips through a
    // checkpoint. The sleeping-lane tally, the census list and the
    // pending drain reports are derived state, not serialized: the
    // restore must rebuild them, so that the restored network puts
    // exactly the same links to sleep on exactly the same cycles.
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
    expectSleepingTallyExact(net->arena());

    std::size_t live = 0, sleeping = 0, holding = 0;
    for (LaneId lane = 0; lane < net->arena().lanes(); ++lane) {
        live += net->arena().live(lane) ? 1 : 0;
        sleeping += net->arena().paused(lane) ? 1 : 0;
        holding += net->arena().drained(lane) ? 0 : 1;
    }
    ASSERT_GT(live, 0u);
    ASSERT_GT(sleeping, 0u);
    ASSERT_GT(holding, 0u) << "no lane has a drain event pending";

    CheckpointParticipants parts;
    parts.net = net.get();
    const auto bytes = saveCheckpointBytes(kDigest, parts);

    // A fresh instance starts with every lane live and drained.
    auto fresh = buildMultibutterfly(spec);
    Link *freshGone = &fresh->link(5);
    fresh->engine().removeLinks({&freshGone, 1});
    CheckpointParticipants freshParts;
    freshParts.net = fresh.get();
    ASSERT_EQ(restoreCheckpointBytes(bytes.data(), bytes.size(),
                                     kDigest, freshParts),
              "");
    for (int cycle = 0; cycle <= 60; ++cycle) {
        expectSleepingTallyExact(fresh->arena());
        expectSameLanes(fresh->arena(), net->arena());
        for (LaneId lane = 0; lane < net->arena().lanes(); ++lane) {
            ASSERT_EQ(fresh->arena().live(lane), net->arena().live(lane))
                << "lane " << lane << " cycle " << cycle;
            ASSERT_EQ(fresh->arena().drained(lane),
                      net->arena().drained(lane))
                << "lane " << lane << " cycle " << cycle;
        }
        for (LinkId l = 0; l < net->numLinks(); ++l) {
            ASSERT_EQ(fresh->link(l).active(), net->link(l).active())
                << "link " << l << " cycle " << cycle;
        }
        ASSERT_EQ(fresh->engine().linksFastpathed(),
                  net->engine().linksFastpathed())
            << "cycle " << cycle;
        net->engine().step();
        fresh->engine().step();
    }
    for (LaneId lane = 0; lane < net->arena().lanes(); ++lane)
        holding -= net->arena().drained(lane) ? 0 : 1;
    EXPECT_GT(holding, 0u) << "nothing drained after the restore";
}

/** One shard's pushes for the split arena below. */
struct ShardPushes
{
    LaneArena *arena;
    const std::vector<std::pair<LaneId, Symbol>> *pushes;
    const std::vector<std::size_t> *cuts;
};

void
pushShard(void *ctx, unsigned k)
{
    const auto &job = *static_cast<const ShardPushes *>(ctx);
    detail::tlsLaneWriter = 1 + k;
    for (std::size_t i = (*job.cuts)[k]; i < (*job.cuts)[k + 1]; ++i)
        job.arena->push((*job.pushes)[i].first, (*job.pushes)[i].second);
    detail::tlsLaneWriter = 0;
}

TEST(LaneArena, AdvanceRangeSplitsMatchAdvanceAll)
{
    // Two identical arenas driven through identical cycles: one takes
    // every push from the serial writer, the other from up to eight
    // shard writers running on a pool of real threads, each pushing
    // its own contiguous run of lanes into its own drain wheel, with
    // a different split every cycle (as the sharded engine's shards
    // push at any thread count). The drained sets, census charges and
    // every lane must agree.
    Xoshiro256 rng(0xad5a);
    LaneArena whole, split;
    for (int k = 0; k < 300; ++k) {
        const auto lat = 1 + static_cast<unsigned>(rng.below(5));
        whole.allocate(lat);
        split.allocate(lat);
    }
    constexpr unsigned kMaxShards = 8;
    split.setWriters(kMaxShards + 1);
    TickPool pool;
    pool.resize(3);
    std::uint64_t wholeDiscards = 0, splitDiscards = 0;
    whole.setWireDiscardCounter(&wholeDiscards);
    split.setWireDiscardCounter(&splitDiscards);
    const auto lanes = static_cast<LaneId>(whole.lanes());
    std::size_t reported = 0;
    for (int cycle = 0; cycle < 600; ++cycle) {
        // Identical pushes into live lanes, in lane order.
        std::vector<bool> pushed(lanes, false);
        std::vector<std::pair<LaneId, Symbol>> pushes;
        for (int p = 0; p < 40; ++p) {
            const auto l = static_cast<LaneId>(rng.below(lanes));
            if (pushed[l] || !whole.live(l))
                continue;
            pushed[l] = true;
            pushes.emplace_back(
                l, rng.below(4) == 0
                       ? Symbol{}
                       : Symbol::data(rng.below(1 << 16), l));
        }
        std::sort(pushes.begin(), pushes.end(),
                  [](const auto &a, const auto &b) {
                      return a.first < b.first;
                  });
        for (const auto &[l, s] : pushes)
            whole.push(l, s);
        std::vector<std::size_t> cuts = {0, pushes.size()};
        for (auto c = rng.below(kMaxShards); c > 0; --c)
            cuts.push_back(rng.below(pushes.size() + 1));
        std::sort(cuts.begin(), cuts.end());
        ShardPushes job{&split, &pushes, &cuts};
        pool.run(static_cast<unsigned>(cuts.size() - 1), &pushShard,
                 &job);

        // Identical mid-cycle mutations: pause/freeze flips,
        // fault-census arming.
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

        std::vector<LaneId> wholeDrained, splitDrained;
        whole.tick();
        whole.collectDrained(&wholeDrained);
        split.tick();
        split.collectDrained(&splitDrained);
        ASSERT_EQ(sortedUnique(wholeDrained), sortedUnique(splitDrained))
            << "cycle " << cycle;
        ASSERT_EQ(wholeDiscards, splitDiscards) << "cycle " << cycle;
        expectSameLanes(whole, split);
        reported += wholeDrained.size();
    }
    EXPECT_GT(wholeDiscards, 0u) << "census charges never exercised";
    EXPECT_GT(reported, 1000u);
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
