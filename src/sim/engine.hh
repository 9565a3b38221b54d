/**
 * @file
 * The synchronous simulation engine.
 *
 * METRO networks are globally clocked ("all the routing components
 * in a network run synchronously from a central clock" — Section 3),
 * so the engine is a plain cycle loop:
 *
 *   phase 1: tick every component (order-independent — components
 *            read lane heads and push lane tails only, and a push
 *            lands in a register no same-cycle read looks at);
 *   phase 2: the drain fold. Lanes are clock-indexed delay lines
 *            (see arena.hh): one clock tick per arena moves every
 *            symbol along. Each arena then reports the lanes whose
 *            link may have changed sleep eligibility (filed by the
 *            pushes themselves), and only those links are evaluated.
 *
 * Dispatch is type-segregated: components registered consecutively
 * with the same concrete class (routers, then endpoints, then
 * drivers — the order builders and experiments naturally produce)
 * form contiguous runs, and phase 1 makes one indirect call per
 * run; inside a run the per-component tick is non-virtual (see
 * Component::batchTickOf). The runs partition the registration
 * list in order, so the global tick order is exactly the
 * registration order, same as a flat virtual loop.
 *
 * Quiescence scheduling (on by default; see docs/simulator.md): the
 * common case at Figure 3's low-to-moderate loads is a router with
 * no connection reading only Empty lane heads, and a link whose
 * both lanes are drained. Ticking the former and advancing the
 * latter are no-ops, so the engine skips them — components that
 * report canSleep() stop being ticked until something wake()s them
 * (a push into an attached link, a peer handing them work, or a
 * reconfiguration/fault mutator), and drained links go to sleep
 * until the next push. The one invariant everything here leans on:
 * *an inactive link reads Empty at both ends until something pushes
 * into it or faults it* — it deactivates only once no non-Empty
 * symbol is left in either lane's window (this cycle's push
 * included), every push or fault reactivates it first, and a lane
 * slot nobody wrote reads Empty by its stale stamp. So the drain
 * fold never reports its lanes, and routers and network interfaces
 * skip an Idle port on an inactive link before peeking the arena at
 * all — non-Idle ports are still processed, so idle and receive
 * timeouts fire on schedule. Skipping is *exact*, not approximate: the
 * golden wire-trace and both word-conservation identities are
 * byte-/bit-identical with the scheduler on and off (regression:
 * tests/test_quiesce.cc).
 *
 * Sleep evaluation is candidate-driven: the end-of-cycle pass
 * examines only (a) components ticked this cycle whose attached
 * links are all inactive (collected by the batch tick loops via
 * noteTicked) and (b) components whose last active link went to
 * sleep in this cycle's drain fold. Nothing else can newly satisfy
 * canSleep(): its own state did not change, and any active attached
 * link vetoes every canSleep() implementation.
 *
 * Sharded parallel execution (setThreads(n), n > 1; see
 * docs/simulator.md for the full protocol): phase 1 is split into a
 * parallel section and a serial section. Components whose tick
 * honours the parallel contract (Component::parallelTickSafe —
 * routers and network interfaces without observers, handlers or
 * shared random sources) are partitioned into up to
 * kShardsPerThread × n *shards* — contiguous sub-ranges of the
 * registration order, cut at the topology's stage boundaries when
 * the network provides hints (setShardHints) and split further
 * inside stages — and ticked concurrently on a persistent worker
 * pool, whose threads each pull the next unclaimed shard, so
 * several small shards per thread even out stages of unequal cost.
 * Everything else (drivers, probes, injectors, cascade groups, and
 * the dynamically *pinned* ends of corrupt links, which share the
 * link's corruption PRNG) ticks in the serial section, in
 * registration order. Phase 1's contract — read lane heads, push
 * lane tails, never observe a same-cycle write — makes any tick
 * order (including a concurrent one) equivalent. Cross-thread side
 * effects go through deferred channels folded at the barrier in
 * shard order: link activations with their wakes (a mid-cycle wake
 * resumes at now+1 either way), the skipped-tick / sleep-candidate
 * tallies, per-component metric scratch (Component::
 * setConcurrentMetrics, folded by syncStats()), and each shard's own
 * drain wheel (detail::tlsLaneWriter), read by the serial drain
 * fold — so a sharded cycle makes one pool dispatch, and every
 * counter and metric is thread-count invariant (the fold reports
 * the same lanes whatever the split; the sleep verdicts do not
 * depend on their order). A shard whose members all sleep *parks*:
 * the cycle is accounted in bulk, no worker dispatched.
 * setThreads(1) (the default) runs the untouched serial loop.
 *
 * An opt-in host-side profile (setProfile) splits wall time across
 * the phases above. It is timing metadata only: it never feeds a
 * simulated result or a metric snapshot, and when it is off a cycle
 * pays one predictable branch for it.
 */

#ifndef METRO_SIM_ENGINE_HH
#define METRO_SIM_ENGINE_HH

#include <algorithm>
#include <array>
#include <chrono>
#include <functional>
#include <memory>
#include <span>
#include <thread>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/types.hh"
#include "sim/component.hh"
#include "sim/link.hh"
#include "sim/pool.hh"

namespace metro
{

/**
 * Host wall time per engine phase, accumulated over the cycles an
 * Engine stepped while this profile was attached (Engine::setProfile).
 * Phases a cycle does not run (the serial engine has no 1a–1c, the
 * sharded one no single tick pass) stay 0.
 */
struct EngineProfile
{
    enum Phase : unsigned
    {
        SerialTick,    ///< phase 1 of the serial engine
        ParallelTick,  ///< 1a: shards tick on the pool
        BarrierFold,   ///< 1b: per-shard effects fold in shard order
        SerialSection, ///< 1c: non-parallel-safe components
        DrainFold,     ///< 2: arena ticks + drain-wheel walk + link
                       ///< sleep verdicts
        Finish,        ///< pending link verdicts + sleep pass
        kPhases
    };

    static constexpr std::array<const char *, kPhases> kNames = {
        "serial tick", "1a parallel tick", "1b barrier fold",
        "1c serial section", "2 drain fold", "finish/sleep pass"};

    /** Names of the TickClass buckets, in enum order. */
    static constexpr std::array<const char *, kTickClasses>
        kClassNames = {"router", "NI", "driver", "other"};

    std::array<std::uint64_t, kPhases> ns{};
    /** Tick time per TickClass. Shard time is summed over the
     *  threads that ran it, so under the sharded engine this may
     *  exceed the wall time of the phases it came from. */
    std::array<std::uint64_t, kTickClasses> classNs{};
    /** 1a only: tick time summed over every shard, and threads ×
     *  the phase's wall time (see parallelEfficiency). */
    std::uint64_t shardNs = 0;
    std::uint64_t parallelCapacityNs = 0;
    std::uint64_t cycles = 0;

    /** Share of 1a's thread time spent ticking shards, in [0, 1];
     *  0 when no sharded cycle ran. */
    double
    parallelEfficiency() const
    {
        return parallelCapacityNs == 0
                   ? 0.0
                   : static_cast<double>(shardNs) /
                         static_cast<double>(parallelCapacityNs);
    }

    void
    add(const EngineProfile &o)
    {
        for (unsigned k = 0; k < kPhases; ++k)
            ns[k] += o.ns[k];
        for (unsigned k = 0; k < kTickClasses; ++k)
            classNs[k] += o.classNs[k];
        shardNs += o.shardNs;
        parallelCapacityNs += o.parallelCapacityNs;
        cycles += o.cycles;
    }
};

/**
 * Owns the clock and the tick/advance loop. Links and components
 * are owned by the network object(s); the engine holds non-owning
 * pointers and guarantees ticking order semantics.
 */
class Engine : public Scheduler
{
  public:
    /** Register a component to be ticked each cycle. */
    void
    addComponent(Component *component)
    {
        component->sched_ = this;
        component->schedAsleep_ = false;
        component->wakeAt_ = 0;
        component->shard_ = Component::kNoShard;
        if (threads_ > 1)
            component->setConcurrentMetrics(true);
        components_.push_back(component);
        appendRun(runs_, runOf(component, components_.size() - 1));
        planDirty_ = true;
    }

    /**
     * Register a link to be stepped each cycle. The engine groups
     * links by the LaneArena their lanes live in (one shared arena
     * per network; a private one per standalone link) and ticks each
     * arena once per cycle, so it records here which link owns which
     * lane for the link-level sleep evaluation.
     */
    void
    addLink(Link *link)
    {
        links_.push_back(link);
        link->setPlanDirtyFlag(&planDirty_);
        ArenaGroup &g = groupFor(link->laneArena());
        if (g.laneOwner.size() < g.arena->lanes())
            g.laneOwner.resize(g.arena->lanes(), nullptr);
        for (const LaneId lane : {link->downLane(), link->upLane()})
            g.laneOwner[lane] = link;
        link->setFrozen(false);
        // The drain fold only reports lanes whose state changed, so
        // evaluate this link's first sleep verdict
        // explicitly at the end of the current/next cycle (it may
        // arrive already drained and eligible to sleep right away).
        pendingLinkEval_.push_back(link);
        planDirty_ = true;
    }

    /**
     * Unregister a component (e.g. a temporary traffic driver whose
     * lifetime is shorter than the network's).
     */
    void
    removeComponent(Component *component)
    {
        removeComponents({&component, 1});
    }

    /**
     * Unregister a batch of components in one pass. Removing n
     * drivers one by one is O(active·n) (each removal rescans the
     * component list); experiment teardown hands the whole batch
     * over instead.
     *
     * A victim that is asleep first accounts its skipped tail
     * (syncSkipped up to the cycle it would next have been ticked
     * in), so e.g. occupancy histograms match an eagerly-ticked
     * instance removed at the same moment; its wake state is reset
     * so re-registration with any engine starts clean. Under the
     * sharded engine a victim also folds back its metric scratch
     * and leaves concurrent-metrics mode, and the shard plan is
     * rebuilt before the next parallel cycle (stale shards are
     * never ticked — removal mid-campaign is safe).
     */
    void
    removeComponents(std::span<Component *const> victims)
    {
        if (victims.empty())
            return;
        const std::unordered_set<Component *> gone(victims.begin(),
                                                   victims.end());
        const Cycle upto = stepping_ ? now_ + 1 : now_;
        std::erase_if(components_, [&](Component *c) {
            if (gone.count(c) == 0)
                return false;
            if (c->schedAsleep_ && upto > c->sleptFrom_)
                c->syncSkipped(c->sleptFrom_, upto);
            if (threads_ > 1)
                c->setConcurrentMetrics(false);
            c->sched_ = nullptr;
            c->schedAsleep_ = false;
            c->wakeAt_ = 0;
            c->sleptFrom_ = 0;
            c->shard_ = Component::kNoShard;
            return true;
        });
        rebuildRuns();
        planDirty_ = true;
    }

    /** Unregister a link (see removeLinks). */
    void
    removeLink(Link *link)
    {
        removeLinks({&link, 1});
    }

    /**
     * Unregister a batch of links in one pass, mirroring
     * removeComponents — without it, tearing a network down while
     * the engine persists leaves dangling Link* behind. The links
     * themselves are untouched (still owned by their network);
     * their wake attachments keep maintaining the end components'
     * active-link counts, so those components' sleep evaluation
     * stays exact.
     */
    void
    removeLinks(std::span<Link *const> victims)
    {
        if (victims.empty())
            return;
        const std::unordered_set<Link *> gone(victims.begin(),
                                              victims.end());
        std::erase_if(links_, [&gone](Link *l) {
            return gone.count(l) != 0;
        });
        // Freeze the victims' lanes: a removed link's symbols stay
        // in flight as they are (the lanes keep the cycle they froze
        // at), the drain fold skips them, and frozen lanes do not
        // count as fast-pathed.
        std::erase_if(pendingLinkEval_, [&gone](Link *l) {
            return gone.count(l) != 0;
        });
        for (Link *l : victims) {
            l->setPlanDirtyFlag(nullptr);
            ArenaGroup *g = findGroup(l->laneArena());
            if (g == nullptr)
                continue;
            l->setFrozen(true);
            for (const LaneId lane : {l->downLane(), l->upLane()}) {
                if (lane < g->laneOwner.size())
                    g->laneOwner[lane] = nullptr;
            }
        }
        planDirty_ = true;
    }

    /** The cycle about to be executed (0 before any run). */
    Cycle now() const { return now_; }

    /**
     * Enable/disable quiescence scheduling (default on). Disabling
     * wakes every sleeper and reactivates every link, restoring the
     * original eager loop exactly.
     */
    void
    setQuiescence(bool on)
    {
        quiesce_ = on;
        if (!on) {
            for (auto *c : components_)
                wakeComponent(c);
            for (auto *l : links_)
                l->activate();
        } else {
            // Re-entering lazy mode: idle links sit on untouched
            // drained lanes the drain fold will never report, so
            // seed one explicit evaluation of every registered link.
            pendingLinkEval_.assign(links_.begin(), links_.end());
        }
    }

    /** Quiescence scheduling state. */
    bool quiescence() const { return quiesce_; }

    /**
     * Set the phase-1 worker count (1 = the serial loop,
     * the default; 0 = one per hardware thread). Simulation output
     * is byte-identical at every thread count — threading trades
     * wall clock only, never results (regression:
     * tests/test_shard.cc).
     */
    void
    setThreads(unsigned n)
    {
        if (n == 0) {
            n = std::thread::hardware_concurrency();
            if (n == 0)
                n = 1;
        }
        if (n == threads_)
            return;
        const bool wasParallel = threads_ > 1;
        threads_ = n;
        const bool nowParallel = threads_ > 1;
        planDirty_ = true;
        if (wasParallel != nowParallel) {
            // Entering parallel execution redirects shared metric
            // slots to per-component scratch; leaving it folds the
            // scratch back and restores direct writes.
            for (Component *c : components_)
                c->setConcurrentMetrics(nowParallel);
        }
        pool_.resize(nowParallel ? threads_ - 1 : 0);
    }

    /** Current worker count (1 = serial). */
    unsigned threads() const { return threads_; }

    /**
     * Preferred shard cut points, in registration order — the
     * first component of each topology stage (and of the endpoint
     * block), provided by Network::finalize. Every hint starts a
     * new shard whenever the hints alone give no more groups than
     * the planner's shard target (kShardsPerThread × threads), and
     * the planner splits only inside hint groups, so no shard
     * straddles a stage.
     */
    void
    setShardHints(std::vector<Component *> hints)
    {
        shardHints_ = std::move(hints);
        planDirty_ = true;
    }

    /** Attach (or with nullptr, detach) a per-phase host-time
     *  profile; cycles stepped while attached accumulate into it. */
    void setProfile(EngineProfile *profile) { profile_ = profile; }

    /** Component ticks elided by the scheduler (monotone). */
    std::uint64_t ticksSkipped() const { return ticksSkipped_; }

    /** Link-cycles spent asleep (monotone; two lanes per link). */
    std::uint64_t linksFastpathed() const { return linksFastpathed_; }

    /**
     * Shard-plan introspection (tests, diagnostics). Valid with
     * threads() > 1; rebuilds a stale plan on entry. @{
     */

    /** Shards the planner aims for per thread: the pool hands
     *  shards to whichever thread is free, so cutting finer than
     *  one per thread lets unequal stage costs even out. */
    static constexpr unsigned kShardsPerThread = 4;

    /** Shards in the current plan (0 when serial). */
    std::size_t
    shardCount()
    {
        if (threads_ <= 1)
            return 0;
        if (planDirty_)
            rebuildPlan();
        return shards_.size();
    }

    /** Components in shard k. */
    std::size_t
    shardMembers(std::size_t k)
    {
        return shards_.at(k).members;
    }

    /** Registration-order sub-ranges [begin, begin+count) that make
     *  up shard k. */
    std::vector<std::pair<std::size_t, std::size_t>>
    shardSlices(std::size_t k)
    {
        std::vector<std::pair<std::size_t, std::size_t>> out;
        for (const TickRun &sl : shards_.at(k).slices)
            out.emplace_back(sl.begin, sl.count);
        return out;
    }

    /** Every member of shard k is asleep: the next cycle parks the
     *  shard (bulk-accounted, no worker dispatched). */
    bool
    shardParked(std::size_t k)
    {
        return shards_.at(k).awake == 0;
    }

    /** Shard this component ticks in (-1: serial section). */
    int
    shardOf(const Component *c)
    {
        if (threads_ > 1 && planDirty_)
            rebuildPlan();
        return c->shard_ == Component::kNoShard
                   ? -1
                   : static_cast<int>(c->shard_);
    }

    /** Cumulative shard-cycles parked (monotone; scheduling
     *  telemetry, deliberately not part of metric snapshots — it
     *  depends on the thread count, which results must not). */
    std::uint64_t shardCyclesParked() const
    {
        return shardCyclesParked_;
    }

    /** Registration list access (tests map entities to indices). */
    std::size_t scheduledCount() const { return components_.size(); }
    Component *scheduledComponent(std::size_t i) const
    {
        return components_[i];
    }
    /** @} */

    /**
     * Resume ticking a sleeping component (Scheduler interface;
     * Component::wake and Link::activate route here). The component
     * first accounts for its skipped interval via syncSkipped —
     * with wakes that land mid-cycle the current cycle counts as
     * skipped too (an eager instance would have ticked it before
     * the waker ran, quiescent, to the same effect), so it resumes
     * at now+1; wakes between cycles resume at now. This is what
     * makes the sharded engine's deferred wake application exact:
     * delivering a phase-1 wake at the phase barrier instead of
     * mid-phase lands in the same cycle with the same arguments.
     */
    void
    wakeComponent(Component *component) override
    {
        if (!component->schedAsleep_)
            return;
        component->schedAsleep_ = false;
        if (component->shard_ != Component::kNoShard &&
            component->shard_ < shards_.size())
            ++shards_[component->shard_].awake;
        const Cycle resume = stepping_ ? now_ + 1 : now_;
        component->wakeAt_ = resume;
        component->syncSkipped(component->sleptFrom_, resume);
    }

    /** A component's parallel-safety inputs changed: rebuild the
     *  shard plan before the next parallel cycle. */
    void invalidateShardPlan() override { planDirty_ = true; }

    /**
     * Bring every sleeper's skipped-cycle accounting (per-tick
     * metrics samples) up to date *without* waking anyone — called
     * before metric snapshots so skipping stays invisible to the
     * observability layer. Under the sharded engine this also folds
     * every component's metric scratch back into the shared slots,
     * in registration order (counter adds and histogram merges
     * commute, so the folded values are thread-count invariant).
     */
    void
    syncStats()
    {
        for (auto *c : components_) {
            if (c->schedAsleep_ && now_ > c->sleptFrom_) {
                c->syncSkipped(c->sleptFrom_, now_);
                c->sleptFrom_ = now_;
            }
        }
        if (threads_ > 1) {
            for (auto *c : components_)
                c->flushConcurrentMetrics();
        }
    }

    /** Execute exactly one cycle. */
    void
    step()
    {
        if (profile_ == nullptr) [[likely]] {
            if (threads_ > 1)
                stepParallel<false>();
            else
                stepSerial<false>();
        } else {
            if (threads_ > 1)
                stepParallel<true>();
            else
                stepSerial<true>();
            ++profile_->cycles;
        }
    }

    /** Execute `cycles` cycles. */
    void
    run(Cycle cycles)
    {
        for (Cycle i = 0; i < cycles; ++i)
            step();
    }

    /**
     * Run until `done` returns true (checked between cycles) or
     * `max_cycles` elapse. @return true when `done` fired.
     */
    bool
    runUntil(const std::function<bool()> &done, Cycle max_cycles)
    {
        for (Cycle i = 0; i < max_cycles; ++i) {
            if (done())
                return true;
            step();
        }
        return done();
    }

  private:
    friend class CheckpointIO;

    /** A registration-order-contiguous run of components sharing
     *  one batch tick function (one concrete class, or a stretch
     *  of generic-dispatch components). */
    struct TickRun
    {
        Component::BatchTickFn fn;
        TickClass cls;
        std::size_t begin;
        std::size_t count;
    };

    /** The one-component run of registration index i. */
    static TickRun
    runOf(const Component *c, std::size_t i)
    {
        return {c->batchTickFn(), c->tickClass(), i, 1};
    }

    /** Append `r` to `runs`, extending the last run when `r`
     *  continues it with the same batch function and class. */
    static void
    appendRun(std::vector<TickRun> &runs, const TickRun &r)
    {
        if (!runs.empty()) {
            TickRun &last = runs.back();
            if (last.fn == r.fn && last.cls == r.cls &&
                last.begin + last.count == r.begin) {
                last.count += r.count;
                return;
            }
        }
        runs.push_back(r);
    }

    /**
     * One parallel shard: the registration-order slices it ticks,
     * plus its per-cycle effect buffers. The buffers are written
     * only by the worker running the shard during phase 1 and read
     * only at the barrier, in shard order — the fixed-order
     * reduction that keeps counters and candidate processing
     * deterministic. alignas keeps neighbouring shards' hot
     * counters off one cache line.
     */
    struct alignas(64) Shard
    {
        std::vector<TickRun> slices;
        std::size_t members = 0;
        /** Members currently awake; 0 parks the shard. Maintained
         *  serially (wakes and sleep transitions never run inside
         *  the parallel phase). */
        std::size_t awake = 0;
        /** Per-cycle effects (worker-private until the barrier). @{ */
        std::uint64_t skipped = 0;
        std::vector<Component *> candidates;
        std::vector<Link *> activations;
        /** Profiled cycles only: tick time per class. */
        std::array<std::uint64_t, kTickClasses> classNs{};
        /** @} */
    };

    using ProfileClock = std::chrono::steady_clock;

    static std::uint64_t
    nsBetween(ProfileClock::time_point from, ProfileClock::time_point to)
    {
        return static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(to -
                                                                 from)
                .count());
    }

    /** Profiled cycles only: charge the time since `t` to `phase`,
     *  restart the lap, and return the charge. */
    template <bool kProfile>
    std::uint64_t
    lap([[maybe_unused]] EngineProfile::Phase phase,
        [[maybe_unused]] ProfileClock::time_point &t)
    {
        if constexpr (kProfile) {
            const auto now = ProfileClock::now();
            const std::uint64_t d = nsBetween(t, now);
            profile_->ns[phase] += d;
            t = now;
            return d;
        }
        return 0;
    }

    /** Tick `runs` in order; profiled cycles also charge each run's
     *  time to its class in `*classNs`. */
    template <bool kProfile>
    void
    tickRuns(const std::vector<TickRun> &runs, TickContext &ctx,
             [[maybe_unused]] std::array<std::uint64_t, kTickClasses>
                 *classNs)
    {
        Component *const *base = components_.data();
        for (const TickRun &run : runs) {
            if constexpr (kProfile) {
                const auto t0 = ProfileClock::now();
                run.fn(base + run.begin, run.count, ctx);
                (*classNs)[static_cast<unsigned>(run.cls)] +=
                    nsBetween(t0, ProfileClock::now());
            } else {
                run.fn(base + run.begin, run.count, ctx);
            }
        }
    }

    /** The serial engine's cycle (threads() == 1): the exact
     *  pre-sharding loop. */
    template <bool kProfile>
    void
    stepSerial()
    {
        ProfileClock::time_point t;
        if constexpr (kProfile)
            t = ProfileClock::now();
        stepping_ = true;
        TickContext ctx;
        ctx.cycle = now_;
        if (quiesce_) {
            sleepCandidates_.clear();
            ctx.sleepCandidates = &sleepCandidates_;
        }
        tickRuns<kProfile>(runs_, ctx,
                           kProfile ? &profile_->classNs : nullptr);
        ticksSkipped_ += ctx.skipped;
        lap<kProfile>(EngineProfile::SerialTick, t);

        drainFold();
        lap<kProfile>(EngineProfile::DrainFold, t);
        finishCycle();
        lap<kProfile>(EngineProfile::Finish, t);
    }

    /**
     * The sharded cycle (threads() > 1). Structure (see the file
     * comment for why each hand-off preserves byte identity):
     *
     *   1a. parallel shards tick on the pool (parked shards are
     *       bulk-accounted instead);
     *   1b. barrier: per-shard effects fold in shard order —
     *       skipped tallies, deferred link activations (wakes),
     *       sleep candidates;
     *   1c. serial section: non-parallel-safe components tick in
     *       registration order, activations inline;
     *    2. the drain fold (serial, as in stepSerial), reading every
     *       shard's drain wheel.
     */
    template <bool kProfile>
    void
    stepParallel()
    {
        if (planDirty_)
            rebuildPlan();
        ProfileClock::time_point t;
        if constexpr (kProfile)
            t = ProfileClock::now();
        stepping_ = true;
        if (quiesce_)
            sleepCandidates_.clear();

        // 1a. Parallel shards.
        liveShards_.clear();
        for (Shard &s : shards_) {
            if (s.awake == 0) {
                // Parked: every member sleeps, so the tick pass
                // would only count skips — account them in bulk.
                ticksSkipped_ += s.members;
                ++shardCyclesParked_;
                continue;
            }
            s.skipped = 0;
            s.candidates.clear();
            s.activations.clear();
            if constexpr (kProfile)
                s.classNs = {};
            liveShards_.push_back(&s);
        }
        if (liveShards_.size() == 1)
            runShard<kProfile>(*liveShards_.front());
        else if (!liveShards_.empty())
            pool_.run(static_cast<unsigned>(liveShards_.size()),
                      &shardTask<kProfile>, this);
        if constexpr (kProfile) {
            profile_->parallelCapacityNs +=
                threads_ * lap<kProfile>(EngineProfile::ParallelTick, t);
        }

        // 1b. Barrier: fold per-shard effects in shard order.
        for (Shard *s : liveShards_) {
            if constexpr (kProfile) {
                for (unsigned k = 0; k < kTickClasses; ++k) {
                    profile_->classNs[k] += s->classNs[k];
                    profile_->shardNs += s->classNs[k];
                }
            }
            ticksSkipped_ += s->skipped;
            for (Link *l : s->activations)
                l->activate();
            if (quiesce_)
                sleepCandidates_.insert(sleepCandidates_.end(),
                                        s->candidates.begin(),
                                        s->candidates.end());
        }
        lap<kProfile>(EngineProfile::BarrierFold, t);

        // 1c. Serial section, registration order.
        {
            TickContext ctx;
            ctx.cycle = now_;
            if (quiesce_)
                ctx.sleepCandidates = &sleepCandidates_;
            tickRuns<kProfile>(serialRuns_, ctx,
                               kProfile ? &profile_->classNs : nullptr);
            ticksSkipped_ += ctx.skipped;
        }
        lap<kProfile>(EngineProfile::SerialSection, t);

        // 2. Drain fold.
        drainFold();
        lap<kProfile>(EngineProfile::DrainFold, t);
        finishCycle();
        lap<kProfile>(EngineProfile::Finish, t);
    }

    /**
     * Phase 2, both engines: tick each arena, then evaluate the links
     * of the lanes it reports (LaneArena::collectDrained); sleeping
     * links are accounted here. Links go before components, whose
     * canSleep() needs their links asleep: a deactivation that drops
     * an end's last active link makes that end a sleep candidate.
     */
    void
    drainFold()
    {
        for (ArenaGroup &g : arenaGroups_) {
            linksFastpathed_ += g.arena->sleepingLanes() / 2;
            g.arena->tick();
            drained_.clear();
            g.arena->collectDrained(quiesce_ ? &drained_ : nullptr);
            // The reported lanes' links are scattered through memory:
            // request them all before evaluating any, so the cache
            // misses overlap instead of queueing one by one.
            for (const LaneId lane : drained_)
                __builtin_prefetch(g.laneOwner[lane]);
            for (const LaneId lane : drained_)
                evalDrainedLane(g, lane);
        }
    }

    /** Shared cycle tail: pending link evaluations, the candidate
     *  sleep pass (with shard awake accounting), clock advance. */
    void
    finishCycle()
    {
        if (quiesce_) {
            // Freshly registered links get one explicit verdict
            // (their lanes may never surface from the drain fold).
            if (!pendingLinkEval_.empty()) {
                for (Link *l : pendingLinkEval_) {
                    if (l->active() && l->canSleepNow()) {
                        l->deactivate();
                        noteQuietEnd(l->wakeA());
                        noteQuietEnd(l->wakeB());
                    }
                }
                pendingLinkEval_.clear();
            }
        } else {
            pendingLinkEval_.clear();
        }
        stepping_ = false;
        if (quiesce_) {
            for (auto *c : sleepCandidates_) {
                if (!c->schedAsleep_ && c->schedActiveLinks_ == 0 &&
                    c->canSleep()) {
                    c->schedAsleep_ = true;
                    c->sleptFrom_ = now_ + 1;
                    if (c->shard_ != Component::kNoShard &&
                        c->shard_ < shards_.size())
                        --shards_[c->shard_].awake;
                }
            }
        }
        ++now_;
    }

    /** Run one shard's slices (worker or caller thread). Effects
     *  that must not race — activations/wakes — are recorded in the
     *  shard's buffers via the thread-local deferral hook, drain
     *  events in the shard's own drain wheel, and profiled time in
     *  the shard. */
    template <bool kProfile>
    void
    runShard(Shard &s)
    {
        TickContext ctx;
        ctx.cycle = now_;
        if (quiesce_)
            ctx.sleepCandidates = &s.candidates;
        detail::tlsDeferredActivations = &s.activations;
        const auto writer =
            1 + static_cast<unsigned>(&s - shards_.data());
        detail::tlsLaneWriter = writer;
        tickRuns<kProfile>(s.slices, ctx, &s.classNs);
        detail::tlsLaneWriter = 0;
        if (quiesce_) {
            for (ArenaGroup &g : arenaGroups_)
                g.arena->prefilter(writer);
        }
        detail::tlsDeferredActivations = nullptr;
        s.skipped = ctx.skipped;
    }

    template <bool kProfile>
    static void
    shardTask(void *ctx, unsigned k)
    {
        auto *e = static_cast<Engine *>(ctx);
        e->runShard<kProfile>(*e->liveShards_[k]);
    }

    void
    rebuildRuns()
    {
        runs_.clear();
        for (std::size_t i = 0; i < components_.size(); ++i)
            appendRun(runs_, runOf(components_[i], i));
    }

    /**
     * Rebuild the shard plan from the current component list, hint
     * list, thread count and link faults. Deterministic: the plan
     * is a pure function of those inputs, so any two runs that
     * reach a cycle with the same simulation state shard it the
     * same way. Steps:
     *
     *   1. pin the end components of corrupt links (their reads
     *      draw from the link's shared corruption PRNG, so they
     *      must stay in the serial section to keep draw order);
     *   2. walk the registration list once, sending non-parallel
     *      components to the serial runs and slicing the parallel
     *      ones into hint-aligned groups;
     *   3. while there are fewer groups than the shard target
     *      (kShardsPerThread × threads), halve the largest. A halved
     *      group stays inside its stage, and routers of one stage
     *      (like network interfaces) share no links, so this adds
     *      no cross-shard lanes. The pool hands each shard to
     *      whichever thread is free, so the small shards even out
     *      unequal stage costs (an 8×8 router ticks about twice as
     *      long as a 4×4 one) without a cost model;
     *   4. one shard per group when they fit, else pack consecutive
     *      groups into ≤ target balanced shards (cuts stay on
     *      group, i.e. hint, boundaries);
     *   5. assign shard ids and awake counts, and give every arena
     *      one drain wheel per shard.
     */
    void
    rebuildPlan()
    {
        planDirty_ = false;

        pinned_.clear();
        for (Link *l : links_) {
            if (l->fault() == LinkFault::Corrupt) {
                if (l->wakeA() != nullptr)
                    pinned_.insert(l->wakeA());
                if (l->wakeB() != nullptr)
                    pinned_.insert(l->wakeB());
            }
        }
        const std::unordered_set<const Component *> hints(
            shardHints_.begin(), shardHints_.end());

        struct PlanGroup
        {
            std::vector<TickRun> slices;
            std::size_t members = 0;
        };
        std::vector<PlanGroup> groups;
        serialRuns_.clear();
        std::size_t total = 0;
        for (std::size_t i = 0; i < components_.size(); ++i) {
            Component *c = components_[i];
            if (!c->parallelTickSafe() || pinned_.count(c) != 0) {
                c->shard_ = Component::kNoShard;
                appendRun(serialRuns_, runOf(c, i));
                continue;
            }
            if (groups.empty() || hints.count(c) != 0)
                groups.emplace_back();
            PlanGroup &gp = groups.back();
            appendRun(gp.slices, runOf(c, i));
            ++gp.members;
            ++total;
        }

        const std::size_t target =
            std::size_t{kShardsPerThread} * threads_;
        while (groups.size() < target) {
            std::size_t big = 0;
            for (std::size_t i = 1; i < groups.size(); ++i) {
                if (groups[i].members > groups[big].members)
                    big = i;
            }
            if (groups.empty() || groups[big].members < 2)
                break;
            PlanGroup &gp = groups[big];
            const std::size_t keep = gp.members / 2;
            PlanGroup tail;
            std::vector<TickRun> kept;
            std::size_t acc = 0;
            for (const TickRun &sl : gp.slices) {
                if (acc >= keep) {
                    tail.slices.push_back(sl);
                    tail.members += sl.count;
                } else if (acc + sl.count <= keep) {
                    kept.push_back(sl);
                    acc += sl.count;
                } else {
                    const std::size_t first = keep - acc;
                    kept.push_back({sl.fn, sl.cls, sl.begin, first});
                    acc = keep;
                    tail.slices.push_back({sl.fn, sl.cls,
                                           sl.begin + first,
                                           sl.count - first});
                    tail.members += sl.count - first;
                }
            }
            gp.slices = std::move(kept);
            gp.members = keep;
            groups.insert(groups.begin() +
                              static_cast<std::ptrdiff_t>(big) + 1,
                          std::move(tail));
        }

        shards_.clear();
        if (groups.size() <= target) {
            for (PlanGroup &gp : groups) {
                if (gp.members == 0)
                    continue;
                shards_.emplace_back();
                shards_.back().slices = std::move(gp.slices);
                shards_.back().members = gp.members;
            }
        } else {
            std::size_t cum = 0;
            for (PlanGroup &gp : groups) {
                if (gp.members == 0)
                    continue;
                if (shards_.empty() ||
                    (shards_.size() < target &&
                     cum * target >= total * shards_.size()))
                    shards_.emplace_back();
                Shard &s = shards_.back();
                for (const TickRun &sl : gp.slices)
                    appendRun(s.slices, sl);
                s.members += gp.members;
                cum += gp.members;
            }
        }

        for (std::size_t k = 0; k < shards_.size(); ++k) {
            Shard &s = shards_[k];
            s.awake = 0;
            for (const TickRun &sl : s.slices) {
                for (std::size_t i = sl.begin;
                     i < sl.begin + sl.count; ++i) {
                    components_[i]->shard_ =
                        static_cast<std::uint32_t>(k);
                    if (!components_[i]->schedAsleep_)
                        ++s.awake;
                }
            }
        }
        for (ArenaGroup &g : arenaGroups_)
            g.arena->setWriters(static_cast<unsigned>(shards_.size()) + 1);
    }

    /** One arena's links, for the drain fold: which registered link
     *  owns each lane (null for frozen/unregistered lanes). */
    struct ArenaGroup
    {
        LaneArena *arena;
        std::vector<Link *> laneOwner;
    };

    /** Sleep-evaluate the link of one lane the drain fold
     *  reported. */
    void
    evalDrainedLane(ArenaGroup &g, LaneId lane)
    {
        Link *l = g.laneOwner[lane];
        if (l != nullptr && l->active() && l->canSleepNow()) {
            l->deactivate();
            noteQuietEnd(l->wakeA());
            noteQuietEnd(l->wakeB());
        }
    }

    /** A link just deactivated: its end component is a sleep
     *  candidate once no other attached link is active. */
    void
    noteQuietEnd(Component *c)
    {
        if (c != nullptr && c->sleepable_ &&
            c->schedActiveLinks_ == 0)
            sleepCandidates_.push_back(c);
    }

    ArenaGroup &
    groupFor(LaneArena *arena)
    {
        for (ArenaGroup &g : arenaGroups_) {
            if (g.arena == arena)
                return g;
        }
        arenaGroups_.push_back({arena, {}});
        return arenaGroups_.back();
    }

    ArenaGroup *
    findGroup(LaneArena *arena)
    {
        for (ArenaGroup &g : arenaGroups_) {
            if (g.arena == arena)
                return &g;
        }
        return nullptr;
    }

    std::vector<Component *> components_;
    std::vector<TickRun> runs_;
    std::vector<Link *> links_;
    std::vector<ArenaGroup> arenaGroups_;
    std::vector<LaneId> drained_;
    /** Links awaiting their first sleep evaluation (see addLink). */
    std::vector<Link *> pendingLinkEval_;
    std::vector<Component *> sleepCandidates_;
    Cycle now_ = 0;
    bool quiesce_ = true;
    bool stepping_ = false;
    std::uint64_t ticksSkipped_ = 0;
    std::uint64_t linksFastpathed_ = 0;
    EngineProfile *profile_ = nullptr;

    /** Sharded execution state. @{ */
    unsigned threads_ = 1;
    bool planDirty_ = true;
    std::vector<Component *> shardHints_;
    std::vector<Shard> shards_;
    std::vector<TickRun> serialRuns_;
    std::vector<Shard *> liveShards_;
    std::unordered_set<Component *> pinned_;
    TickPool pool_;
    std::uint64_t shardCyclesParked_ = 0;
    /** @} */
};

} // namespace metro

#endif // METRO_SIM_ENGINE_HH
