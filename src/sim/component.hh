/**
 * @file
 * Base class for clocked simulation components, plus the scheduler
 * interface the quiescence-aware engine implements and the batched
 * tick protocol the engine's type-segregated loops use.
 */

#ifndef METRO_SIM_COMPONENT_HH
#define METRO_SIM_COMPONENT_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"

namespace metro
{

class Component;

/**
 * The wakeup side of the engine's activity protocol (implemented by
 * Engine; see engine.hh). Split out so components and links can
 * request wakeups without a header cycle.
 */
class Scheduler
{
  public:
    /** Resume ticking a sleeping component. Idempotent: waking an
     *  awake component is a no-op. */
    virtual void wakeComponent(Component *component) = 0;

    /**
     * A component's parallel-safety inputs changed (an observer or
     * handler was attached, a random source was shared, a link
     * fault landed): the engine's shard plan, if any, is stale and
     * must be rebuilt before the next parallel cycle. No-op for
     * schedulers without one.
     */
    virtual void invalidateShardPlan() {}

  protected:
    ~Scheduler() = default;
};

/**
 * Per-cycle state threaded through the engine's batched tick loops
 * (see Component::BatchTickFn). Carries the cycle, accumulates the
 * scheduler's skipped-tick count, and — when quiescence scheduling
 * is on — collects the components whose end-of-cycle sleep
 * evaluation is worth running (candidate-driven sleep eval: only
 * components ticked this cycle with every attached link drained,
 * plus those whose last active link drains in the advance phase,
 * are examined; see engine.hh).
 */
struct TickContext
{
    Cycle cycle = 0;
    std::uint64_t skipped = 0;
    /** Null when quiescence scheduling is off. */
    std::vector<Component *> *sleepCandidates = nullptr;
};

/**
 * What kind of component a tick belongs to, for the engine's
 * host-time profile only (EngineProfile::classNs): it never changes
 * what or when anything ticks.
 */
enum class TickClass : std::uint8_t
{
    Router,
    Endpoint,
    Driver,
    Other
};

inline constexpr unsigned kTickClasses = 4;

/**
 * Anything ticked by the engine: routers, endpoints, fault
 * injectors, monitors.
 *
 * The timing contract (see Pipe) lets components be ticked in any
 * order: a component may only read lane heads and push onto lane
 * tails, never observe another component's same-cycle writes.
 *
 * Quiescence protocol (see docs/simulator.md): a component may
 * override canSleep() to report that its next tick would be a
 * no-op; the engine then stops ticking it until something calls
 * wake() — a link one of its lanes attaches to (on any push), a
 * peer handing it work (e.g. a driver calling
 * NetworkInterface::send), or a reconfiguration/fault mutator.
 * Wakes are conservative: extra wakes are always safe, a *missed*
 * wake is a simulation bug. canSleep() must therefore be
 * state-complete — true only when every per-tick effect (including
 * metrics sampling, handled by syncSkipped) is provably absent
 * until an explicit wake.
 */
class Component
{
  public:
    explicit Component(std::string name) : name_(std::move(name)) {}
    virtual ~Component() = default;

    Component(const Component &) = delete;
    Component &operator=(const Component &) = delete;

    /** Advance one clock cycle. */
    virtual void tick(Cycle cycle) = 0;

    /**
     * Batched tick entry point. The engine groups
     * registration-order-contiguous runs of components that report
     * the same function here and makes one call per run, so a
     * homogeneous run (64 routers, 64 endpoints, 64 drivers) pays
     * one indirect call total and the per-component dispatch inside
     * the run is non-virtual (see batchTickOf). The default is a
     * shared virtual-dispatch loop, correct for any component.
     *
     * Contract for implementations: per component, honour the
     * scheduler skip (shouldTick), call the concrete tick, then
     * offer the component as a sleep candidate (noteTicked) —
     * exactly what batchTickOf<T> does.
     */
    using BatchTickFn = void (*)(Component *const *items,
                                 std::size_t n, TickContext &ctx);

    /** The batched tick loop for this component's concrete class.
     *  Override to `return &batchTickOf<ConcreteClass>;`. */
    virtual BatchTickFn
    batchTickFn() const
    {
        return &genericBatchTick;
    }

    /** Profile bucket of this component's ticks (see TickClass). */
    virtual TickClass tickClass() const { return TickClass::Other; }

    /**
     * True when tick() touches only this component's own state and
     * the heads/tails of its attached lanes — the contract that lets
     * the sharded engine run it concurrently with other
     * parallel-safe components (see engine.hh). Must be false
     * whenever the tick can call out into shared mutable state: an
     * observer, a handler, a shared random source, a network-wide
     * gate or diary. The engine re-reads this on every shard-plan
     * rebuild, so the verdict may change at runtime (report the
     * change via notePlanChange()). Default: not safe — only
     * classes audited for the contract opt in.
     */
    virtual bool parallelTickSafe() const { return false; }

    /**
     * Concurrent-metrics mode (sharded engine only). On: the
     * component must redirect every metric slot it shares with
     * other components (registry counters/histograms several
     * components resolve to the same node) into private scratch,
     * so parallel phase-1 ticks never write a shared location.
     * Off: restore direct writes, flushing any scratch first.
     * Per-component-exclusive slots are unaffected. Default: no
     * shared slots, nothing to do.
     */
    virtual void setConcurrentMetrics(bool on) { (void)on; }

    /**
     * Fold this component's metric scratch into the shared slots
     * (fixed engine-driven order; counter adds and histogram merges
     * commute, so the folded totals are thread-count invariant).
     * Called by Engine::syncStats() before every snapshot and on
     * mode changes/removal. Must leave the scratch empty.
     */
    virtual void flushConcurrentMetrics() {}

    /** Diagnostic name. */
    const std::string &name() const { return name_; }

  protected:
    /** Ask the scheduler to resume ticking this component. Safe
     *  (and a no-op) when no engine registered it. */
    void
    wake()
    {
        if (sched_ != nullptr)
            sched_->wakeComponent(this);
    }

    /** Tell the scheduler this component's parallelTickSafe()
     *  verdict may have changed (call from every setter that
     *  attaches/detaches shared state). */
    void
    notePlanChange()
    {
        if (sched_ != nullptr)
            sched_->invalidateShardPlan();
    }

    /**
     * True when the next tick would be a no-op given that every
     * attached link stays drained — the engine may skip this
     * component until wake(). Must not rely on "I was just ticked":
     * the engine re-evaluates it after wakes that precede the next
     * tick (see MetroRouter::canSleep's off-port-drive check).
     */
    virtual bool canSleep() const { return false; }

    /**
     * Classes that override canSleep() must call this in their
     * constructor: only marked components enter the engine's
     * candidate-driven sleep evaluation (everything else is known
     * to never sleep and is never examined).
     */
    void markSleepable() { sleepable_ = true; }

    /**
     * Account for the skipped cycles [from, upto) on wakeup, before
     * the component is ticked again — e.g. the per-tick metrics
     * samples an eagerly-ticked quiescent instance would have
     * emitted (MetroRouter's zero occupancy samples), or "last
     * cycle seen" timestamps (NetworkInterface::lastCycle_).
     * Called with the state that held *during* the sleep: mutators
     * wake before mutating.
     */
    virtual void
    syncSkipped(Cycle from, Cycle upto)
    {
        (void)from;
        (void)upto;
    }

    /** Scheduler gate used by batch tick loops: false while the
     *  component sleeps or a mid-cycle wake already accounted this
     *  cycle as skipped (wakeAt_). */
    static bool
    shouldTick(const Component *c, const TickContext &ctx)
    {
        return !c->schedAsleep_ && ctx.cycle >= c->wakeAt_;
    }

    /**
     * Offer a just-ticked component to the end-of-cycle sleep
     * evaluation. Only sleepable components whose attached links
     * are all inactive are worth a canSleep() call — an active link
     * vetoes sleep in every canSleep() implementation (each
     * registers itself as wake target of exactly the links it
     * checks, so schedActiveLinks_ is that veto, counted). Missing
     * a candidate is always observationally identical (canSleep()
     * true means the next tick produces exactly the samples
     * syncSkipped would); it can only delay the skipping.
     */
    static void
    noteTicked(Component *c, TickContext &ctx)
    {
        if (ctx.sleepCandidates != nullptr && c->sleepable_ &&
            c->schedActiveLinks_ == 0)
            ctx.sleepCandidates->push_back(c);
    }

    /**
     * The batched tick loop for a concrete component class: one
     * function call per *run*, and the per-component call is
     * qualified (devirtualized, inlinable).
     */
    template <typename T>
    static void
    batchTickOf(Component *const *items, std::size_t n,
                TickContext &ctx)
    {
        for (std::size_t i = 0; i < n; ++i) {
            auto *c = static_cast<T *>(items[i]);
            if (!shouldTick(c, ctx)) {
                ++ctx.skipped;
                continue;
            }
            c->T::tick(ctx.cycle);
            noteTicked(c, ctx);
        }
    }

  private:
    friend class Engine;
    friend class Link;
    friend class CheckpointIO;

    /** Fallback batch loop: virtual dispatch per component. */
    static void
    genericBatchTick(Component *const *items, std::size_t n,
                     TickContext &ctx)
    {
        for (std::size_t i = 0; i < n; ++i) {
            Component *c = items[i];
            if (!shouldTick(c, ctx)) {
                ++ctx.skipped;
                continue;
            }
            c->tick(ctx.cycle);
            noteTicked(c, ctx);
        }
    }

    std::string name_;
    /** Engine this component is registered with (wake target). */
    Scheduler *sched_ = nullptr;
    /** Overrides canSleep() (see markSleepable). */
    bool sleepable_ = false;
    /** Scheduler state (owned by the engine). @{ */
    bool schedAsleep_ = false;
    Cycle wakeAt_ = 0;
    Cycle sleptFrom_ = 0;
    /** @} */
    /** Attached links currently active (maintained by Link on
     *  activate/deactivate/attach): the counted form of the
     *  link-activity veto every canSleep() starts with. */
    std::uint32_t schedActiveLinks_ = 0;
    /** Shard index in the engine's current parallel plan (engine
     *  owned; kNoShard for serially-ticked components). */
    static constexpr std::uint32_t kNoShard = 0xffffffffu;
    std::uint32_t shard_ = kNoShard;
};

} // namespace metro

#endif // METRO_SIM_COMPONENT_HH
