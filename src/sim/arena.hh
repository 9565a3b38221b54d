/**
 * @file
 * The flat lane arena: contiguous storage for every pipeline lane
 * of a network.
 *
 * The original simulator gave each Link two Pipe objects, each
 * owning its own heap-allocated ring of Symbol slots. A 64-router
 * network scatters ~900 tiny rings across the heap, so the engine's
 * per-cycle advance pass — the single hottest loop in the simulator
 * — chased a pointer per lane and touched a fresh cache line per
 * object.
 *
 * LaneArena replaces that with one flat Symbol array holding every
 * lane's register chain back to back (in lane-allocation order,
 * which builders make link-creation order), plus structure-of-array
 * control state (head cursor, bounds, staged push, occupancy) in
 * parallel vectors. A lane is identified by a dense LaneId; all
 * operations index the arena directly, so the engine's advance pass
 * streams through two contiguous arrays instead of rotating
 * per-object rings.
 *
 * Timing semantics are identical to the old per-object Pipe (see
 * pipe.hh): a symbol pushed during cycle t into a lane of latency L
 * is readable at head() during cycle t + L, pushes are staged and
 * only committed by advance(), and at most one push per lane per
 * cycle is legal.
 *
 * advanceAll() is the engine's phase-2 batch. It visits only the
 * *live* lanes: a word-packed live-lane set holds one bit per lane,
 * set iff the lane is neither paused (its link is asleep) nor frozen
 * (its link was unregistered), and the pass walks the set bits with
 * a count-trailing-zeros loop over 64-bit words. At low load most
 * links sleep, so the pass costs O(live lanes), not O(lanes).
 * setPaused/setFrozen keep the set exact, and a checkpoint restore
 * rebuilds it from the flag bytes (it is derived state, never
 * serialized). Drained live lanes are fast-pathed: rotating a ring
 * of Empties is rotationally symmetric, hence unobservable, so only
 * the staged-push flag needs clearing. The rare fault-census
 * bookkeeping a dying or healing link needs (see Link::setFault)
 * lives in a per-lane 2-bit state machine so the batch loop touches
 * one flag byte per lane in the common case.
 */

#ifndef METRO_SIM_ARENA_HH
#define METRO_SIM_ARENA_HH

#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "common/logging.hh"
#include "sim/symbol.hh"

namespace metro
{

/** Dense identifier of one lane inside a LaneArena. */
using LaneId = std::uint32_t;

/**
 * Per-lane fault-census state (see Link::setFault). A dead lane
 * destroys the Data words that fall off its exit unread; the charge
 * is made during advance so it aligns with what readers observed in
 * the same cycle's phase 1.
 */
enum class LaneCensus : std::uint8_t
{
    None = 0,        ///< healthy lane, no bookkeeping
    DeadPending = 1, ///< died this cycle: head was read pre-fault,
                     ///< skip one charge, then DeadCharge
    DeadCharge = 2,  ///< dead: charge each Data head as it exits
    HealCharge = 3,  ///< healed this cycle: head still read Empty,
                     ///< charge it once more, then None
};

/**
 * Flat storage and per-lane control state for a set of fixed-latency
 * symbol lanes. Networks own one arena for all their links
 * (Network::arena()); standalone Pipes/Links own a private one.
 */
class LaneArena
{
  public:
    /** Create a lane of the given latency (≥ 1). @return its id. */
    LaneId
    allocate(unsigned latency)
    {
        METRO_ASSERT(latency >= 1, "lane latency must be >= 1");
        const auto id = static_cast<LaneId>(base_.size());
        const auto base = static_cast<std::uint32_t>(slots_.size());
        slots_.resize(slots_.size() + latency);
        base_.push_back(base);
        end_.push_back(base + latency);
        head_.push_back(base);
        occupied_.push_back(0);
        pending_.emplace_back();
        pushed_.push_back(0);
        flags_.push_back(0);
        if (id % 64 == 0)
            live_.push_back(0);
        syncLive(id);
        return id;
    }

    /** Number of lanes allocated. */
    std::size_t lanes() const { return base_.size(); }

    /** Total Symbol slots in the flat arena. */
    std::size_t slotCount() const { return slots_.size(); }

    /** Lane latency in cycles. */
    unsigned
    latency(LaneId lane) const
    {
        return end_[lane] - base_[lane];
    }

    /** The symbol pushed latency(lane) cycles ago (by value: the
     *  head slot may legally be overwritten in the same cycle). */
    Symbol head(LaneId lane) const { return slots_[head_[lane]]; }

    /** Just the head's kind — readers poll their lanes every cycle
     *  and mostly see Empty; this skips materializing the symbol. */
    SymbolKind
    headKind(LaneId lane) const
    {
        return slots_[head_[lane]].kind;
    }

    /**
     * Stage this cycle's input. At most one push per lane per
     * cycle; the staged value is committed by advance(), so
     * same-cycle readers never observe it.
     */
    void
    push(LaneId lane, const Symbol &s)
    {
        METRO_ASSERT(!pushed_[lane],
                     "double push into lane in one cycle");
        pending_[lane] = s;
        pushed_[lane] = 1;
        if (s.kind != SymbolKind::Empty)
            ++occupied_[lane];
    }

    /** Rotate one lane: commit the staged push into the slot just
     *  consumed as head, then step the head cursor. */
    void
    advance(LaneId lane)
    {
        Symbol &slot = slots_[head_[lane]];
        if (slot.kind != SymbolKind::Empty)
            --occupied_[lane];
        slot = pushed_[lane] ? pending_[lane] : Symbol{};
        pushed_[lane] = 0;
        const std::uint32_t next = head_[lane] + 1;
        head_[lane] = next == end_[lane] ? base_[lane] : next;
    }

    /** Non-Empty symbols in flight, including a staged push. While
     *  0, advance() is unobservable (what lets the engine fast-path
     *  drained lanes). */
    unsigned occupied(LaneId lane) const { return occupied_[lane]; }

    /**
     * The engine's phase 2: rotate every live lane (see the live-lane
     * set in the file comment). Paused (sleeping link) and frozen
     * (unregistered link) lanes are not visited at all; drained lanes
     * skip the rotation itself. When `drained` is non-null, lanes
     * whose sleep eligibility may have CHANGED this cycle are
     * appended in ascending lane order — lanes that just ran out of
     * symbols, plus drained lanes that saw a push or a census step.
     * A lane that was empty at the start of the cycle and stayed
     * untouched is not re-reported: its link's verdict cannot differ
     * from last cycle's (the engine separately evaluates freshly
     * registered links, the only way an untouched lane gains a live
     * link).
     */
    void
    advanceAll(std::vector<LaneId> *drained)
    {
        advanceRange(0, static_cast<LaneId>(base_.size()), drained,
                     wireDiscards_);
    }

    /**
     * advanceAll over the live lanes of the sub-range [begin, end)
     * only, with the wire-discard charges routed into `discards`
     * instead of the arena-wide counter. This is the sharded
     * engine's phase-2 unit: disjoint ranges touch disjoint per-lane
     * state and only read the live-lane set, so chunks advance
     * concurrently, each accumulating its census charges privately
     * for a fixed-order fold at the barrier. Any split of [0, lanes)
     * — 64-aligned or not — gives the same result as one advanceAll.
     */
    void
    advanceRange(LaneId begin, LaneId end,
                 std::vector<LaneId> *drained,
                 std::uint64_t *discards)
    {
        if (begin >= end)
            return;
        const std::size_t first = begin / 64;
        const std::size_t last = (end - 1) / 64;
        for (std::size_t w = first; w <= last; ++w) {
            std::uint64_t bits = live_[w];
            if (w == first)
                bits &= ~0ULL << (begin % 64);
            if (w == last)
                bits &= ~0ULL >> (63 - (end - 1) % 64);
            while (bits != 0) {
                const auto lane = static_cast<LaneId>(
                    w * 64 + static_cast<unsigned>(
                                 std::countr_zero(bits)));
                bits &= bits - 1;
                advanceLive(lane, drained, discards);
            }
        }
    }

    /** The live-lane set, one bit per lane in 64-bit words (bit
     *  lane % 64 of word lane / 64; bits past lanes() are clear).
     *  Read-only to the engine, which cuts phase-2 chunks by live
     *  count. */
    std::span<const std::uint64_t> liveWords() const { return live_; }

    /** Whether a lane is in the live-lane set. */
    bool
    live(LaneId lane) const
    {
        return (live_[lane / 64] >> (lane % 64)) & 1;
    }

    /**
     * Scheduling flags (engine/link only). Paused marks a sleeping
     * link's lane (both lanes drained; skipping is unobservable
     * until the next push); frozen marks a lane whose link was
     * unregistered from the engine (advance stops outright and the
     * lane does not count as fast-pathed). @{
     */
    void
    setPaused(LaneId lane, bool on)
    {
        std::uint8_t &f = flags_[lane];
        if (static_cast<bool>(f & kLanePaused) == on)
            return;
        if (on) {
            f |= kLanePaused;
            if (!(f & kLaneFrozen))
                ++sleepingLanes_;
        } else {
            f &= static_cast<std::uint8_t>(~kLanePaused);
            if (!(f & kLaneFrozen))
                --sleepingLanes_;
        }
        syncLive(lane);
    }

    void
    setFrozen(LaneId lane, bool on)
    {
        std::uint8_t &f = flags_[lane];
        if (static_cast<bool>(f & kLaneFrozen) == on)
            return;
        if (on) {
            f |= kLaneFrozen;
            if (f & kLanePaused)
                --sleepingLanes_;
        } else {
            f &= static_cast<std::uint8_t>(~kLaneFrozen);
            if (f & kLanePaused)
                ++sleepingLanes_;
        }
        syncLive(lane);
    }

    bool
    paused(LaneId lane) const
    {
        return (flags_[lane] & kLanePaused) != 0;
    }

    bool
    frozen(LaneId lane) const
    {
        return (flags_[lane] & kLaneFrozen) != 0;
    }

    /** Lanes currently paused and not frozen: what the engine's
     *  links-fastpathed accounting charges each cycle (two lanes
     *  per link). */
    std::size_t sleepingLanes() const { return sleepingLanes_; }
    /** @} */

    /**
     * Fault-census state machine (see LaneCensus; Link::setFault
     * arms it, the advance pass steps it). @{
     */
    void
    setCensus(LaneId lane, LaneCensus census)
    {
        flags_[lane] = static_cast<std::uint8_t>(
            (flags_[lane] & ~kCensusMask) |
            (static_cast<std::uint8_t>(census) << kCensusShift));
    }

    /** A one-cycle fault edge (fresh death or heal) is pending:
     *  the lane cannot sleep until the next advance resolves it. */
    bool
    censusEdgePending(LaneId lane) const
    {
        const auto c = census(lane);
        return c == LaneCensus::DeadPending ||
               c == LaneCensus::HealCharge;
    }

    /** Step the census: charge the exiting Data head where due and
     *  resolve one-cycle edges. Called by advanceAll and by
     *  Link::advance (hand-driven links). */
    void
    censusStep(LaneId lane)
    {
        censusStepTo(lane, wireDiscards_);
    }

    /** Where to charge Data words destroyed by a link death
     *  ("words.discarded.wire"; wired by Network::finalize). */
    void
    setWireDiscardCounter(std::uint64_t *counter)
    {
        wireDiscards_ = counter;
    }

    /** The arena-wide wire-discard counter (the sharded engine
     *  folds per-chunk census charges into it at the barrier). */
    std::uint64_t *wireDiscardCounter() const { return wireDiscards_; }
    /** @} */

    /** Count in-flight symbols of one kind, including a staged
     *  push (passive introspection for drain-time censuses). */
    unsigned
    countKind(LaneId lane, SymbolKind kind) const
    {
        unsigned n = 0;
        for (std::uint32_t i = base_[lane]; i < end_[lane]; ++i) {
            if (slots_[i].kind == kind)
                ++n;
        }
        if (pushed_[lane] && pending_[lane].kind == kind)
            ++n;
        return n;
    }

    /** Clear one lane's in-flight symbols (fault injection). */
    void
    flush(LaneId lane)
    {
        for (std::uint32_t i = base_[lane]; i < end_[lane]; ++i)
            slots_[i] = Symbol{};
        pushed_[lane] = 0;
        occupied_[lane] = 0;
    }

  private:
    friend class CheckpointIO;

    /** Flag-byte layout: scheduling bits plus the 2-bit census. @{ */
    static constexpr std::uint8_t kLanePaused = 1u << 0;
    static constexpr std::uint8_t kLaneFrozen = 1u << 1;
    static constexpr std::uint8_t kCensusShift = 2;
    static constexpr std::uint8_t kCensusMask = 3u << kCensusShift;
    /** @} */

    /** Rotate one live lane (the body of the phase-2 pass). */
    void
    advanceLive(LaneId lane, std::vector<LaneId> *drained,
                std::uint64_t *discards)
    {
        const std::uint8_t f = flags_[lane];
        if (f & kCensusMask)
            censusStepTo(lane, discards);
        if (occupied_[lane] == 0) {
            // Every slot is Empty and any staged push is Empty too
            // (a non-Empty push would have raised the occupancy), so
            // committing and rotating would be unobservable: just
            // drop the staged Empty so the lane accepts the next
            // cycle's push.
            if (drained != nullptr &&
                (pushed_[lane] || (f & kCensusMask)))
                drained->push_back(lane);
            pushed_[lane] = 0;
            return;
        }
        Symbol &slot = slots_[head_[lane]];
        std::uint32_t occ = occupied_[lane];
        if (slot.kind != SymbolKind::Empty)
            --occ;
        slot = pushed_[lane] ? pending_[lane] : Symbol{};
        pushed_[lane] = 0;
        occupied_[lane] = occ;
        const std::uint32_t next = head_[lane] + 1;
        head_[lane] = next == end_[lane] ? base_[lane] : next;
        if (occ == 0 && drained != nullptr)
            drained->push_back(lane);
    }

    /** Mirror one lane's pause/freeze bits into the live-lane set. */
    void
    syncLive(LaneId lane)
    {
        const std::uint64_t bit = 1ULL << (lane % 64);
        if (flags_[lane] & (kLanePaused | kLaneFrozen))
            live_[lane / 64] &= ~bit;
        else
            live_[lane / 64] |= bit;
    }

    /** Recompute the state derived from the flag bytes — the
     *  sleeping-lane tally and the live-lane set (checkpoint
     *  restore). */
    void
    rederiveFromFlags()
    {
        sleepingLanes_ = 0;
        for (LaneId lane = 0; lane < flags_.size(); ++lane) {
            if ((flags_[lane] & (kLanePaused | kLaneFrozen)) ==
                kLanePaused)
                ++sleepingLanes_;
            syncLive(lane);
        }
    }

    LaneCensus
    census(LaneId lane) const
    {
        return static_cast<LaneCensus>(
            (flags_[lane] & kCensusMask) >> kCensusShift);
    }

    void
    censusStepTo(LaneId lane, std::uint64_t *discards)
    {
        switch (census(lane)) {
          case LaneCensus::None:
            break;
          case LaneCensus::DeadPending:
            // Death cycle: the head was consumed (and accounted) by
            // its reader before the fault landed; skip one charge.
            setCensus(lane, LaneCensus::DeadCharge);
            break;
          case LaneCensus::DeadCharge:
            chargeHead(lane, discards);
            break;
          case LaneCensus::HealCharge:
            // Heal cycle: the head still read Empty in phase 1;
            // charge it once more, then the lane is healthy.
            chargeHead(lane, discards);
            setCensus(lane, LaneCensus::None);
            break;
        }
    }

    void
    chargeHead(LaneId lane, std::uint64_t *discards)
    {
        if (discards != nullptr &&
            slots_[head_[lane]].kind == SymbolKind::Data)
            ++*discards;
    }

    /** The flat word arena: every lane's slots, back to back. */
    std::vector<Symbol> slots_;

    /** Per-lane control state, structure-of-arrays. @{ */
    std::vector<std::uint32_t> base_; ///< first slot offset
    std::vector<std::uint32_t> end_;  ///< one past the last slot
    std::vector<std::uint32_t> head_; ///< absolute head cursor
    std::vector<std::uint32_t> occupied_;
    std::vector<Symbol> pending_;     ///< staged push per lane
    std::vector<std::uint8_t> pushed_;
    std::vector<std::uint8_t> flags_; ///< pause/freeze + census
    /** @} */

    /** The live-lane set (derived from flags_; see liveWords). */
    std::vector<std::uint64_t> live_;

    std::size_t sleepingLanes_ = 0;
    std::uint64_t *wireDiscards_ = nullptr;
};

} // namespace metro

#endif // METRO_SIM_ARENA_HH
