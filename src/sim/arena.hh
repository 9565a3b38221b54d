/**
 * @file
 * The lane arena: every pipeline lane of a network as a delay line
 * indexed by the clock.
 *
 * In METRO every wire is a whole number of pipeline registers (dp +
 * vtd, paper Section 5.1). A lane of latency L is a power-of-two ring
 * of R ≥ L + 1 registers: a push at cycle t writes register t mod R,
 * stamped t; a read at cycle t sees register (t − L) mod R if it is
 * stamped t − L, else Empty. The two registers always differ, so no
 * read sees a same-cycle push whatever the tick order, a second push
 * in one cycle finds its register stamped, and a register nobody
 * wrote reads Empty without being cleared: the arena's only per-cycle
 * work is tick(), one clock increment. A Link reads and pushes
 * through a LaneRef carrying its lane's ring, touching nothing per
 * lane but the register (and, for a push, the lane's drain cycle).
 *
 * Drain events. After each cycle the engine needs the lanes whose
 * sleep eligibility may have changed: lanes that just ran out of
 * symbols, drained lanes that saw a push or a fault-census step. A
 * non-Empty push at t sets the lane's drain cycle to t + L + 1 (the
 * first arena time it holds nothing) and files the lane in that
 * cycle's bucket of a drain wheel; an Empty push into a drained lane
 * files it for t + 1. The engine's drain fold (collectDrained, right
 * after tick) reports the current bucket's entries that still stand
 * (a later push moves the drain cycle) and the live census lanes.
 * Each writer — the serial engine, each shard (detail::tlsLaneWriter)
 * — has its own wheel and drops its own stale entries first
 * (prefilter), so concurrent pushes share no vector.
 *
 * A paused lane belongs to a sleeping link and holds only Empty
 * symbols; a frozen lane belongs to a link unregistered from the
 * engine: it reads (and takes pushes) at the cycle it froze, and
 * unfreezing shifts its symbols forward by the time spent frozen.
 * The fold reports neither.
 */

#ifndef METRO_SIM_ARENA_HH
#define METRO_SIM_ARENA_HH

#include <algorithm>
#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "sim/symbol.hh"

namespace metro
{

/** Dense identifier of one lane inside a LaneArena. */
using LaneId = std::uint32_t;

namespace detail
{
/** Which drain wheel this thread's pushes file into: 0 for serial
 *  code, 1 + k while the sharded engine runs shard k here. */
inline thread_local unsigned tlsLaneWriter = 0;
} // namespace detail

/**
 * Per-lane fault-census state (see Link::setFault). A dead lane
 * destroys the Data words that fall off its exit unread; the drain
 * fold charges each one after the cycle it reached the exit in, so
 * the charge aligns with what readers observed.
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
 * Clock-indexed storage and per-lane control state for a set of
 * fixed-latency symbol lanes. Networks own one arena for all their
 * links (Network::arena()); standalone Pipes/Links own a private one.
 */
class LaneArena
{
  public:
    /** Where a lane's ring lives (fixed at allocation); the base's
     *  top bit mirrors the frozen flag. */
    struct Ring
    {
        std::uint32_t base;   ///< first slot | frozen bit
        std::uint16_t mask;   ///< ring size − 1
        std::uint16_t latency;
    };

    /** A lane as a Link holds it: its id and a copy of its Ring. The
     *  copy goes stale when the lane freezes or unfreezes; whoever
     *  changes that fetches a fresh one with ref(). */
    struct LaneRef
    {
        LaneId id;
        Ring ring;
    };

    LaneArena() { setWriters(1); }

    /** Create a lane of the given latency (≥ 1). @return its id. */
    LaneId
    allocate(unsigned latency)
    {
        METRO_ASSERT(latency >= 1 && latency < 0xffff,
                     "lane latency must be in [1, 65535)");
        const auto id = static_cast<LaneId>(rings_.size());
        const auto size = std::bit_ceil(latency + 1);
        METRO_ASSERT(slots_.size() + size < kRingFrozen, "lane arena full");
        rings_.push_back({static_cast<std::uint32_t>(slots_.size()),
                          static_cast<std::uint16_t>(size - 1),
                          static_cast<std::uint16_t>(latency)});
        slots_.resize(slots_.size() + size);
        drain_.push_back(0);
        frozenAt_.push_back(0);
        flags_.push_back(0);
        imageSlots_ += latency;
        if ((std::size_t{1} << wheelShift_) < std::size_t{latency} + 2) {
            // Entries are filed up to L + 1 cycles ahead while the
            // current bucket is pending: widen the wheel.
            wheelShift_ = static_cast<unsigned>(std::bit_width(latency + 1));
            setWriters(writers_);
        }
        return id;
    }

    std::size_t lanes() const { return rings_.size(); }

    unsigned latency(LaneId lane) const { return rings_[lane].latency; }

    LaneRef ref(LaneId lane) const { return {lane, rings_[lane]}; }

    /** The symbol pushed latency cycles ago (Empty if none). */
    Symbol
    head(LaneRef l) const
    {
        return symbolAt(l.ring, clock(l) - l.ring.latency);
    }

    /** Just the head's kind — readers poll their lanes every cycle
     *  and mostly see Empty; this skips materializing the symbol. */
    SymbolKind
    headKind(LaneRef l) const
    {
        return kindAt(l.ring, clock(l) - l.ring.latency);
    }

    /** This cycle's input (at most one per lane per cycle); files the
     *  lane's drain event. */
    void
    push(LaneRef l, const Symbol &s)
    {
        const Cycle t = clock(l);
        Slot &slot = slotAt(l.ring, t);
        if (written(slot, t)) [[unlikely]]
            METRO_PANIC("double push into lane in one cycle");
        store(slot, s, t);
        if (l.ring.base & kRingFrozen) [[unlikely]] {
            // Filed again when the lane unfreezes.
            if (s.kind != SymbolKind::Empty)
                drain_[l.id] = t + l.ring.latency + 1;
        } else if (s.kind != SymbolKind::Empty) {
            drain_[l.id] = t + l.ring.latency + 1;
            file(l.id, t + l.ring.latency + 1);
        } else if (drain_[l.id] <= t) {
            file(l.id | kEmptyPushEntry, t + 1);
        }
    }

    Symbol head(LaneId lane) const { return head(ref(lane)); }
    SymbolKind headKind(LaneId lane) const { return headKind(ref(lane)); }
    void push(LaneId lane, const Symbol &s) { push(ref(lane), s); }

    /** Move every symbol one register along; drop the expired (and
     *  already folded, if any) wheel buckets. */
    void
    tick()
    {
        for (std::size_t w = 0; w < writers_; ++w)
            bucket(w, now_).clear();
        ++now_;
    }

    /** Count the symbols in flight (this cycle's push included) whose
     *  kind satisfies `pred`; registers nobody wrote count as Empty.
     *  O(latency) passive introspection. */
    template <typename Pred>
    unsigned
    countIf(LaneId lane, Pred &&pred) const
    {
        const Ring r = rings_[lane];
        const Cycle clk = clock(ref(lane));
        unsigned n = 0;
        for (Cycle t = clk - r.latency; t != clk; ++t)
            n += pred(kindAt(r, t)) ? 1 : 0;
        if (written(slotAt(r, clk), clk))
            n += pred(kindAt(r, clk)) ? 1 : 0;
        return n;
    }

    unsigned
    occupied(LaneId lane) const
    {
        return countIf(lane, [](SymbolKind k) {
            return k != SymbolKind::Empty;
        });
    }

    unsigned
    countKind(LaneId lane, SymbolKind kind) const
    {
        return countIf(lane, [kind](SymbolKind k) { return k == kind; });
    }

    /** occupied() == 0, in O(1). */
    bool
    drained(LaneId lane) const
    {
        return drain_[lane] <= clock(ref(lane));
    }

    /** Clear one lane's in-flight symbols (fault injection). */
    void
    flush(LaneId lane)
    {
        const Ring r = rings_[lane];
        std::fill_n(slots_.begin() + (r.base & ~kRingFrozen), r.mask + 1,
                    Slot{});
        drain_[lane] = 0;
    }

    /**
     * The engine's drain fold, right after tick(): steps the census of
     * every live census lane, then appends to `*drained` (if non-null)
     * each live lane whose sleep eligibility may have changed in the
     * cycle that ended — each at most once, in no particular order.
     * A lane drained before and untouched since is not reported: its
     * link's verdict cannot have changed (the engine evaluates freshly
     * registered links itself).
     */
    void
    collectDrained(std::vector<LaneId> *drained)
    {
        const std::size_t first = drained ? drained->size() : 0;
        for (const LaneId lane : census_) {
            if (census(lane) == LaneCensus::None || !live(lane))
                continue;
            censusStep(lane);
            if (drained && this->drained(lane))
                report(lane, *drained);
        }
        std::erase_if(census_, [this](LaneId lane) {
            if (census(lane) != LaneCensus::None)
                return false;
            flags_[lane] &= ~kOnCensusList;
            return true;
        });
        if (drained == nullptr)
            return;
        const Cycle n = now_;
        for (std::size_t w = 0; w < writers_; ++w) {
            for (const LaneId entry : bucket(w, n)) {
                const LaneId lane = entry & ~kEmptyPushEntry;
                if (flags_[lane] & kNotReportable)
                    continue;
                // The lane ran out of symbols now, or the Empty push
                // into it still stands (no flush since).
                if (entry & kEmptyPushEntry
                        ? drain_[lane] < n &&
                              written(slotAt(rings_[lane], n - 1), n - 1)
                        : drain_[lane] == n)
                    report(lane, *drained);
            }
        }
        for (std::size_t i = first; i < drained->size(); ++i)
            flags_[(*drained)[i]] &= ~kReported;
    }

    /**
     * A shard's share of the fold, run by the shard at the end of its
     * phase-1 ticks: drop the entries of its own wheel due at the
     * coming fold that a later push of its own made stale. A lane is
     * pushed by one link end, and setWriters() moves every entry to
     * the serial wheel whenever the shard plan changes, so this reads
     * nothing another thread writes; the fold re-checks what is kept.
     */
    void
    prefilter(unsigned writer)
    {
        const Cycle n = now_ + 1;
        std::erase_if(bucket(writer, n), [this, n](LaneId entry) {
            return !(entry & kEmptyPushEntry) && drain_[entry] != n;
        });
    }

    /** Give the arena `n` drain wheels (engine, between cycles, when
     *  its shard plan changes) and re-file every standing event into
     *  the serial one. */
    void
    setWriters(unsigned n)
    {
        writers_ = std::max<std::size_t>(writers_, n);
        buckets_.assign(writers_ << wheelShift_, Bucket{});
        for (LaneId lane = 0; lane < rings_.size(); ++lane) {
            if (!frozen(lane))
                refile(lane);
        }
    }

    /**
     * Scheduling flags (engine/link only). Paused marks a sleeping
     * link's lane; frozen, a lane whose link was unregistered from
     * the engine (it does not count as fast-pathed). @{
     */
    void
    setPaused(LaneId lane, bool on)
    {
        if (paused(lane) == on)
            return;
        flags_[lane] ^= kLanePaused;
        if (!frozen(lane))
            on ? ++sleepingLanes_ : --sleepingLanes_;
    }

    void
    setFrozen(LaneId lane, bool on)
    {
        if (frozen(lane) == on)
            return;
        flags_[lane] ^= kLaneFrozen;
        rings_[lane].base ^= kRingFrozen;
        if (paused(lane))
            on ? --sleepingLanes_ : ++sleepingLanes_;
        if (on) {
            frozenAt_[lane] = now_;
            return;
        }
        // Resume where the lane stopped: its symbols move forward by
        // the time spent frozen, then its drain event is re-filed (a
        // duplicate of a standing entry is reported once).
        const Ring r = rings_[lane];
        const Cycle from = frozenAt_[lane], delta = now_ - from;
        std::vector<std::pair<Cycle, Symbol>> moved;
        for (Cycle t = from - r.latency; t != from + 1; ++t) {
            if (written(slotAt(r, t), t))
                moved.emplace_back(t + delta, symbolAt(r, t));
        }
        flush(lane);
        for (const auto &[t, sym] : moved)
            put(lane, t, sym);
        refile(lane);
    }

    bool paused(LaneId lane) const { return flags_[lane] & kLanePaused; }

    bool frozen(LaneId lane) const { return rings_[lane].base & kRingFrozen; }

    /** Neither paused nor frozen: the lanes the fold looks at. */
    bool live(LaneId lane) const { return !(flags_[lane] & kNotLive); }

    /** Lanes paused and not frozen: what the engine's links-fastpathed
     *  accounting charges each cycle (two lanes per link). */
    std::size_t sleepingLanes() const { return sleepingLanes_; }
    /** @} */

    /** Fault-census state machine (see LaneCensus; Link::setFault
     *  arms it, the fold steps it). @{ */
    void
    setCensus(LaneId lane, LaneCensus census)
    {
        std::uint8_t &f = flags_[lane];
        f = static_cast<std::uint8_t>(
            (f & ~kCensusMask) |
            (static_cast<std::uint8_t>(census) << kCensusShift));
        if (census != LaneCensus::None && !(f & kOnCensusList)) {
            f |= kOnCensusList;
            census_.push_back(lane);
        }
    }

    /** A one-cycle fault edge (fresh death or heal) is pending: the
     *  lane cannot sleep until the next fold resolves it. */
    bool
    censusEdgePending(LaneId lane) const
    {
        const LaneCensus c = census(lane);
        return c == LaneCensus::DeadPending || c == LaneCensus::HealCharge;
    }

    /** Step one lane's census after tick(): charge the Data word that
     *  just left the exit where due and resolve one-cycle edges (the
     *  fold, and Link::advance for hand-driven links). */
    void
    censusStep(LaneId lane)
    {
        const LaneCensus c = census(lane);
        if (c == LaneCensus::DeadPending) {
            // The head was read before the fault landed: no charge.
            setCensus(lane, LaneCensus::DeadCharge);
            return;
        }
        const Ring r = rings_[lane];
        if ((c == LaneCensus::DeadCharge || c == LaneCensus::HealCharge) &&
            wireDiscards_ != nullptr &&
            kindAt(r, clock(ref(lane)) - 1 - r.latency) == SymbolKind::Data)
            ++*wireDiscards_;
        // Heal cycle: the head still read Empty; charged once more.
        if (c == LaneCensus::HealCharge)
            setCensus(lane, LaneCensus::None);
    }

    /** Where to charge Data words destroyed by a link death
     *  ("words.discarded.wire"; wired by Network::finalize). */
    void setWireDiscardCounter(std::uint64_t *c) { wireDiscards_ = c; }
    /** @} */

  private:
    friend class CheckpointIO;

    /** Flag-byte layout: pause, freeze and the 2-bit census (what a
     *  checkpoint stores), then derived bits. @{ */
    static constexpr std::uint8_t kLanePaused = 1u << 0;
    static constexpr std::uint8_t kLaneFrozen = 1u << 1;
    static constexpr std::uint8_t kCensusShift = 2;
    static constexpr std::uint8_t kCensusMask = 3u << kCensusShift;
    static constexpr std::uint8_t kOnCensusList = 1u << 4;
    static constexpr std::uint8_t kReported = 1u << 5; ///< this fold
    static constexpr std::uint8_t kPersistedFlags =
        kLanePaused | kLaneFrozen | kCensusMask;
    static constexpr std::uint8_t kNotLive = kLanePaused | kLaneFrozen;
    static constexpr std::uint8_t kNotReportable = kNotLive | kReported;
    /** @} */

    static constexpr std::uint32_t kRingFrozen = 1u << 31;
    /** Wheel entry bit: an Empty push into a drained lane (entries
     *  without it stand for a non-Empty push). */
    static constexpr LaneId kEmptyPushEntry = 1u << 31;

    /** One register: a symbol and the cycle it was pushed in. */
    struct Slot
    {
        Symbol sym;
        Cycle stamp = kNever;
    };

    /** One writer's bucket of one cycle, on its own cache line. */
    struct alignas(64) Bucket
    {
        std::vector<LaneId> entries;
    };

    static bool written(const Slot &s, Cycle t) { return s.stamp == t; }

    static void
    store(Slot &s, const Symbol &sym, Cycle t)
    {
        s.sym = sym;
        s.stamp = t;
    }

    /** The lane's clock: the arena's, or the cycle it froze at. */
    Cycle
    clock(LaneRef l) const
    {
        return (l.ring.base & kRingFrozen) ? frozenAt_[l.id] : now_;
    }

    const Slot &
    slotAt(Ring r, Cycle t) const
    {
        return slots_[(r.base & ~kRingFrozen) + (t & r.mask)];
    }

    Slot &
    slotAt(Ring r, Cycle t)
    {
        return const_cast<Slot &>(std::as_const(*this).slotAt(r, t));
    }

    SymbolKind
    kindAt(Ring r, Cycle t) const
    {
        const Slot &s = slotAt(r, t);
        return static_cast<SymbolKind>(
            static_cast<std::uint8_t>(s.sym.kind) &
            -static_cast<unsigned>(written(s, t)));
    }

    /** The symbol pushed at cycle t (Empty if none). Branch-free:
     *  whether a lane holds a symbol is as good as random to a branch
     *  predictor. */
    Symbol
    symbolAt(Ring r, Cycle t) const
    {
        const Slot &s = slotAt(r, t);
        const std::uint64_t keep = -std::uint64_t{written(s, t)};
        Symbol sym = s.sym;
        sym.kind = static_cast<SymbolKind>(
            static_cast<std::uint8_t>(sym.kind) & keep);
        sym.value &= keep;
        sym.route &= keep;
        sym.routeLen = static_cast<std::uint16_t>(sym.routeLen & keep);
        sym.routePos = static_cast<std::uint16_t>(sym.routePos & keep);
        sym.msgId &= keep;
        return sym;
    }

    /** Write a symbol at cycle t off the push path (unfreeze,
     *  checkpoint restore), keeping the drain cycle. */
    void
    put(LaneId lane, Cycle t, const Symbol &s)
    {
        store(slotAt(rings_[lane], t), s, t);
        if (s.kind != SymbolKind::Empty)
            drain_[lane] = std::max(drain_[lane], t + latency(lane) + 1);
    }

    std::vector<LaneId> &
    bucket(std::size_t writer, Cycle at)
    {
        const Cycle mask = (Cycle{1} << wheelShift_) - 1;
        return buckets_[(writer << wheelShift_) | (at & mask)].entries;
    }

    void
    file(LaneId entry, Cycle at)
    {
        METRO_ASSERT(detail::tlsLaneWriter < writers_,
                     "push from a shard into an arena its engine never saw");
        bucket(detail::tlsLaneWriter, at).push_back(entry);
    }

    /** File a live lane's standing drain event from its contents. */
    void
    refile(LaneId lane)
    {
        if (!drained(lane))
            file(lane, drain_[lane]);
        else if (written(slotAt(rings_[lane], now_), now_))
            file(lane | kEmptyPushEntry, now_ + 1);
    }

    void
    report(LaneId lane, std::vector<LaneId> &drained)
    {
        flags_[lane] |= kReported;
        drained.push_back(lane);
    }

    LaneCensus
    census(LaneId lane) const
    {
        return static_cast<LaneCensus>(
            (flags_[lane] & kCensusMask) >> kCensusShift);
    }

    /** After a checkpoint restore wrote the flag bytes and the
     *  registers: rebuild the ring frozen bits, the sleeping-lane
     *  tally, the census list and the drain wheel. */
    void
    rederive()
    {
        sleepingLanes_ = 0;
        census_.clear();
        for (LaneId lane = 0; lane < rings_.size(); ++lane) {
            std::uint8_t &f = flags_[lane];
            f &= kPersistedFlags;
            rings_[lane].base = (rings_[lane].base & ~kRingFrozen) |
                                ((f & kLaneFrozen) ? kRingFrozen : 0);
            if ((f & kNotLive) == kLanePaused)
                ++sleepingLanes_;
            setCensus(lane, census(lane));
        }
        setWriters(static_cast<unsigned>(writers_));
    }

    /** Every lane's ring, back to back. */
    std::vector<Slot> slots_;

    /** Per-lane state, structure-of-arrays. @{ */
    std::vector<Ring> rings_;
    /** First arena cycle at which the lane holds no non-Empty symbol
     *  (0: none since a flush). */
    std::vector<Cycle> drain_;
    std::vector<Cycle> frozenAt_; ///< meaningful while frozen
    std::vector<std::uint8_t> flags_;
    /** @} */

    /** Lanes whose census is (or was, until the next fold) armed. */
    std::vector<LaneId> census_;
    /** Writer w's bucket for cycle c: buckets_[w << wheelShift_ |
     *  c mod 2^wheelShift_]. */
    std::vector<Bucket> buckets_;
    std::size_t writers_ = 1;
    unsigned wheelShift_ = 2;

    Cycle now_ = 0;
    std::size_t sleepingLanes_ = 0;
    /** Sum of lane latencies: the slot count of the checkpoint's
     *  rotating-ring image (see CheckpointIO::saveArena). */
    std::size_t imageSlots_ = 0;
    std::uint64_t *wireDiscards_ = nullptr;
};

} // namespace metro

#endif // METRO_SIM_ARENA_HH
