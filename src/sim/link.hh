/**
 * @file
 * A bidirectional point-to-point link between two ports.
 *
 * METRO connections are half-duplex bidirectional: payload flows in
 * one direction at a time, but control signalling (the backward
 * control bit used for fast path reclamation, and the reversed data
 * stream after a TURN) travels against the current payload
 * direction. The simulator therefore gives each link two
 * unidirectional lanes:
 *
 *   down: from the A (upstream / source-side) end to the B
 *         (downstream / destination-side) end — the initial
 *         direction of a route;
 *   up:   from B back to A.
 *
 * Lane latency folds together the driving component's internal
 * pipeline depth (dp for a router, one output register for an
 * endpoint) and the wire's pipeline registers (the paper's variable
 * turn delay, vtd). A lane of latency L delivers a symbol pushed in
 * cycle t to the reader in cycle t + L.
 *
 * Lane storage lives in a LaneArena (see arena.hh): a clock-indexed
 * delay line per lane, so lanes need no per-cycle pass of their own.
 * Networks hand every link the shared network-wide arena, which the
 * engine ticks once per cycle; a standalone link (unit tests) owns a
 * private arena and behaves identically.
 *
 * Links also host fault state (dead / corrupting lanes) for the
 * fault-tolerance experiments.
 */

#ifndef METRO_SIM_LINK_HH
#define METRO_SIM_LINK_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/random.hh"
#include "common/types.hh"
#include "sim/arena.hh"
#include "sim/component.hh"

namespace metro
{

/** What kind of component a link end attaches to. */
enum class AttachKind : std::uint8_t
{
    None,
    Endpoint,
    RouterForward,  ///< a router's forward port
    RouterBackward, ///< a router's backward port
};

/** Identification of one end of a link (for builders/diagnostics). */
struct LinkEnd
{
    AttachKind kind = AttachKind::None;
    std::uint32_t id = 0;      ///< NodeId or RouterId
    PortIndex port = kInvalidPort;
    std::uint32_t subPort = 0; ///< endpoint port index
};

/** Fault modes a link lane can be placed in. */
enum class LinkFault : std::uint8_t
{
    None,     ///< healthy
    Dead,     ///< delivers nothing (broken wire)
    Corrupt,  ///< randomly flips payload bits of delivered words
};

class Link;

namespace detail
{
/**
 * Sharded-engine activation deferral (see engine.hh). During a
 * parallel phase-1 the waking side of Link::activate() — sleeping-
 * lane counters, the far end's active-link count, the scheduler
 * wake — must not run concurrently, so pushes into inactive links
 * record the link here (each worker points this at its shard's
 * private list) and the engine applies the activations in fixed
 * shard order at the phase barrier. Null (the default) means
 * activate inline — the serial engine's exact behaviour.
 */
inline thread_local std::vector<Link *> *tlsDeferredActivations =
    nullptr;
} // namespace detail

/**
 * A bidirectional link: two arena lanes plus attachment metadata
 * and fault state.
 */
class Link
{
  public:
    /**
     * @param id        network-unique identifier
     * @param down_lat  A→B lane latency (driver dp + wire vtd), ≥ 1
     * @param up_lat    B→A lane latency, ≥ 1
     * @param fault_seed seed for the corruption PRNG
     * @param arena     lane storage to allocate from (the owning
     *                  network's); nullptr gives the link a private
     *                  arena (standalone/unit-test use)
     */
    Link(LinkId id, unsigned down_lat, unsigned up_lat,
         std::uint64_t fault_seed = 1, LaneArena *arena = nullptr)
        : id_(id), faultRng_(fault_seed)
    {
        if (arena == nullptr) {
            ownArena_ = std::make_unique<LaneArena>();
            arena = ownArena_.get();
        }
        arena_ = arena;
        down_ = arena_->ref(arena_->allocate(down_lat));
        up_ = arena_->ref(arena_->allocate(up_lat));
    }

    /** Network-unique identifier. */
    LinkId id() const { return id_; }

    /** Attachment of the A (upstream) end. */
    LinkEnd &endA() { return endA_; }
    const LinkEnd &endA() const { return endA_; }

    /** Attachment of the B (downstream) end. */
    LinkEnd &endB() { return endB_; }
    const LinkEnd &endB() const { return endB_; }

    /** Push a symbol toward B (used by the A-side component). */
    void
    pushDown(const Symbol &s)
    {
        arena_->push(down_, s);
        if (!active_)
            activateFromPush();
    }

    /** Push a symbol toward A (used by the B-side component). */
    void
    pushUp(const Symbol &s)
    {
        arena_->push(up_, s);
        if (!active_)
            activateFromPush();
    }

    /** Read the symbol arriving at the B end this cycle. */
    Symbol
    headDown()
    {
        return applyFault(arena_->head(down_));
    }

    /** Read the symbol arriving at the A end this cycle. */
    Symbol
    headUp()
    {
        return applyFault(arena_->head(up_));
    }

    /**
     * Passive observation of the B-end arrival: like headDown() but
     * never draws from the corruption PRNG, so probes and censuses
     * cannot perturb a faulty simulation. Dead links read Empty (a
     * severed wire delivers nothing); on Corrupt links the kind is
     * exact but the value is the pre-corruption payload.
     */
    Symbol
    peekDown() const
    {
        return fault_ == LinkFault::Dead ? Symbol{}
                                         : arena_->head(down_);
    }

    /** Passive observation of the A-end arrival (see peekDown()). */
    Symbol
    peekUp() const
    {
        return fault_ == LinkFault::Dead ? Symbol{}
                                         : arena_->head(up_);
    }

    /**
     * Kind-only observations for hot per-cycle polls (censuses,
     * idle-port checks): corruption never changes a symbol's kind
     * and Empty never draws from the PRNG, so the kind is exact and
     * draw-free without materializing the symbol. @{
     */
    SymbolKind
    peekKindDown() const
    {
        return fault_ == LinkFault::Dead ? SymbolKind::Empty
                                         : arena_->headKind(down_);
    }

    SymbolKind
    peekKindUp() const
    {
        return fault_ == LinkFault::Dead ? SymbolKind::Empty
                                         : arena_->headKind(up_);
    }

    /** Non-Empty symbols in flight per lane, this cycle's push
     *  included (0 means the reader will see Empty). */
    unsigned downOccupied() const { return arena_->occupied(down_.id); }
    unsigned upOccupied() const { return arena_->occupied(up_.id); }
    /** @} */

    /** Symbols of one kind currently in flight across both lanes. */
    unsigned
    inFlight(SymbolKind kind) const
    {
        return arena_->countKind(down_.id, kind) +
               arena_->countKind(up_.id, kind);
    }

    /** Engine only: freeze or unfreeze both lanes (unregistered). */
    void
    setFrozen(bool on)
    {
        arena_->setFrozen(down_.id, on);
        arena_->setFrozen(up_.id, on);
        down_ = arena_->ref(down_.id);
        up_ = arena_->ref(up_.id);
    }

    /** Hand-drive a link on its private arena (unit tests): one
     *  clock tick, then the census step the engine's fold takes. */
    void
    advance()
    {
        arena_->tick();
        arena_->censusStep(down_.id);
        arena_->censusStep(up_.id);
    }

    /** A→B lane latency in cycles. */
    unsigned downLatency() const { return arena_->latency(down_.id); }

    /** B→A lane latency in cycles. */
    unsigned upLatency() const { return arena_->latency(up_.id); }

    /** Clear both lanes' in-flight symbols (fault injection). */
    void
    flush()
    {
        arena_->flush(down_.id);
        arena_->flush(up_.id);
    }

    /** Current fault mode. */
    LinkFault fault() const { return fault_; }

    /**
     * Set the fault mode. A Dead link delivers nothing: readers
     * and peeks see Empty, and the in-flight symbols drain off the
     * pipe exits unread over the next few cycles (charged to the
     * wire-discard counter by the census step after each tick).
     */
    void
    setFault(LinkFault fault)
    {
        // A severed wire delivers nothing — neither the words in
        // flight at death nor anything streamed into it afterwards.
        // Each Data word is charged exactly once, as it falls off
        // the pipe exit unread, keeping the conservation identity
        // exact; the per-lane census state machine (LaneCensus)
        // carries the two one-cycle corrections that keep the
        // charge aligned with what readers saw in phase 1.
        const bool was_dead = fault_ == LinkFault::Dead;
        fault_ = fault;
        const bool now_dead = fault == LinkFault::Dead;
        if (now_dead && !was_dead) {
            arena_->setCensus(down_.id, LaneCensus::DeadPending);
            arena_->setCensus(up_.id, LaneCensus::DeadPending);
        } else if (!now_dead && was_dead) {
            arena_->setCensus(down_.id, LaneCensus::HealCharge);
            arena_->setCensus(up_.id, LaneCensus::HealCharge);
        }
        // A fault lands on a fast-pathed link: reactivate it so the
        // death census runs (and both end components observe the
        // new behaviour from their next tick on).
        activate();
        // Corrupt ends must tick serially (they share the link's
        // corruption PRNG); tell the engine its shard plan is stale.
        if (planDirty_ != nullptr)
            *planDirty_ = true;
    }

    /** Where to charge Data words destroyed by a link death
     *  ("words.discarded.wire"; wired by Network::finalize). */
    void
    setWireDiscardCounter(std::uint64_t *counter)
    {
        arena_->setWireDiscardCounter(counter);
    }

    /**
     * Activity protocol (see docs/simulator.md). A link starts
     * active; the engine puts it to sleep once both lanes drain,
     * and any push — or a setFault — reactivates it,
     * waking the components attached to its two ends so they see
     * the arriving symbols. Builders register the end components
     * via setWakeA/setWakeB; a link with no wake targets (unit
     * tests drive Pipes/Links by hand) just tracks the flag.
     * Activity transitions also maintain each wake target's
     * active-link count (Component::schedActiveLinks_), the cheap
     * veto the engine's candidate-driven sleep evaluation filters
     * on. @{
     */
    bool active() const { return active_; }

    /** Both lanes drained and no fault edge pending: the link reads
     *  Empty at both ends until the next push. */
    bool
    canSleepNow() const
    {
        return arena_->drained(down_.id) && arena_->drained(up_.id) &&
               !arena_->censusEdgePending(down_.id) &&
               !arena_->censusEdgePending(up_.id);
    }

    /** Engine only: put this link to sleep until reactivation.
     *  Pauses both arena lanes so the drain fold skips them. */
    void
    deactivate()
    {
        if (!active_)
            return;
        active_ = false;
        syncActivityBits();
        arena_->setPaused(down_.id, true);
        arena_->setPaused(up_.id, true);
        if (wakeA_ != nullptr)
            --wakeA_->schedActiveLinks_;
        if (wakeB_ != nullptr)
            --wakeB_->schedActiveLinks_;
    }

    /** Mark active and wake both end components. Idempotent on the
     *  flag but always delivers the wakes (wakes are cheap no-ops
     *  on awake components, and a missed wake is a bug). */
    void
    activate()
    {
        if (!active_) {
            active_ = true;
            syncActivityBits();
            arena_->setPaused(down_.id, false);
            arena_->setPaused(up_.id, false);
            if (wakeA_ != nullptr)
                ++wakeA_->schedActiveLinks_;
            if (wakeB_ != nullptr)
                ++wakeB_->schedActiveLinks_;
        }
        if (wakeA_ != nullptr)
            wakeA_->wake();
        if (wakeB_ != nullptr)
            wakeB_->wake();
    }

    /** Component to wake when this link goes active (A end: the
     *  pushDown-er / headUp reader). */
    void
    setWakeA(Component *c)
    {
        if (active_) {
            if (wakeA_ != nullptr)
                --wakeA_->schedActiveLinks_;
            if (c != nullptr)
                ++c->schedActiveLinks_;
        }
        wakeA_ = c;
    }

    /** Component to wake when this link goes active (B end: the
     *  headDown reader / pushUp-er). */
    void
    setWakeB(Component *c)
    {
        if (active_) {
            if (wakeB_ != nullptr)
                --wakeB_->schedActiveLinks_;
            if (c != nullptr)
                ++c->schedActiveLinks_;
        }
        wakeB_ = c;
    }

    /**
     * Port-activity mask bits: the end component's mask word and
     * the bit standing for this link in it (a router keeps one
     * word per port side, see MetroRouter). The bit mirrors
     * active(): set here if the link is active, then set by
     * activate() and cleared by deactivate(). @{
     */
    void
    setActivityBitA(std::uint64_t *mask, std::uint64_t bit)
    {
        activityA_ = {mask, bit};
        activityA_.sync(active_);
    }

    void
    setActivityBitB(std::uint64_t *mask, std::uint64_t bit)
    {
        activityB_ = {mask, bit};
        activityB_.sync(active_);
    }
    /** @} */

    /** Registered wake targets (engine: candidate collection when a
     *  link deactivates mid-advance). @{ */
    Component *wakeA() const { return wakeA_; }
    Component *wakeB() const { return wakeB_; }
    /** @} */
    /** @} */

    /** Arena coordinates (engine: lane ownership for the drain
     *  fold). @{ */
    LaneArena *laneArena() const { return arena_; }
    LaneId downLane() const { return down_.id; }
    LaneId upLane() const { return up_.id; }
    /** @} */

    /** Engine only: where setFault reports that the shard plan went
     *  stale (null for links outside a sharded engine). */
    void setPlanDirtyFlag(bool *flag) { planDirty_ = flag; }

  private:
    friend class CheckpointIO;

    /** One end's registration in a port-activity mask. */
    struct ActivityBit
    {
        std::uint64_t *mask = nullptr;
        std::uint64_t bit = 0;

        void
        sync(bool on) const
        {
            if (mask != nullptr)
                *mask = on ? *mask | bit : *mask & ~bit;
        }
    };

    /** Make both ends' mask bits agree with active_ (activate,
     *  deactivate, and checkpoint restore's direct flag write). */
    void
    syncActivityBits() const
    {
        activityA_.sync(active_);
        activityB_.sync(active_);
    }

    /**
     * Activation on the push path: inline in serial execution,
     * recorded for the barrier when a worker registered a deferral
     * list. Deferral is byte-equivalent to the inline wake: a
     * mid-cycle wake resumes the sleeper at now+1 and counts the
     * current cycle as skipped whether it is delivered during
     * phase 1 or at the phase barrier (see Engine::wakeComponent),
     * and the unpause/active-link bookkeeping is only read after
     * the barrier. Both ends may record the same link (dup): the
     * flag transition is idempotent and wakes are no-ops on awake
     * components, exactly as with two same-cycle pushes serially.
     */
    void
    activateFromPush()
    {
        if (detail::tlsDeferredActivations != nullptr)
            detail::tlsDeferredActivations->push_back(this);
        else
            activate();
    }
    Symbol
    applyFault(Symbol s)
    {
        switch (fault_) {
          case LinkFault::None:
            return s;
          case LinkFault::Dead:
            return Symbol{};
          case LinkFault::Corrupt:
            // Flip a random low bit of the payload of value-bearing
            // words; control tokens pass (their encodings are
            // heavily redundant in hardware). Corrupting payload is
            // what the end-to-end checksum must catch. Test patterns
            // are value-bearing too — a scan probe across a corrupt
            // wire must observe a damaged pattern, or diagnosis
            // could never confirm the fault.
            if (s.kind == SymbolKind::Data ||
                s.kind == SymbolKind::Checksum ||
                s.kind == SymbolKind::Header ||
                s.kind == SymbolKind::Test) {
                s.value ^= 1ULL << faultRng_.below(8);
            }
            return s;
        }
        return s;
    }

    LinkId id_;
    LinkEnd endA_;
    LinkEnd endB_;
    /** Lane storage: the owning network's arena, or ownArena_. */
    LaneArena *arena_ = nullptr;
    std::unique_ptr<LaneArena> ownArena_;
    /** Lane handles (see LaneArena::LaneRef; re-fetched whenever
     *  the lanes freeze or unfreeze). */
    LaneArena::LaneRef down_{};
    LaneArena::LaneRef up_{};
    LinkFault fault_ = LinkFault::None;
    Xoshiro256 faultRng_;
    /** Activity flag (see activate()); starts active, the engine's
     *  first sleep evaluation fast-paths drained links. Mirrored
     *  into the arena's per-lane pause bits for the drain fold and
     *  into
     *  the end components' port-activity masks (activityA_/B_). */
    bool active_ = true;
    Component *wakeA_ = nullptr;
    Component *wakeB_ = nullptr;
    ActivityBit activityA_;
    ActivityBit activityB_;
    bool *planDirty_ = nullptr;
};

} // namespace metro

#endif // METRO_SIM_LINK_HH
