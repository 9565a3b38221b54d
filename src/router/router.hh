/**
 * @file
 * The METRO router model.
 *
 * A MetroRouter is a dilated crossbar routing component supporting
 * half-duplex bidirectional, pipelined, circuit-switched connections
 * (Section 3). It is self-routing — connections are established by
 * the routing header arriving on a forward port — and handles
 * dynamic message traffic with no internal message buffering.
 *
 * Cycle behaviour implemented here (Sections 4–5):
 *
 *  - Connection setup: a Header word arriving at an idle forward
 *    port requests a backward port in the header's logical
 *    direction; the crossbar allocator picks randomly among free
 *    equivalent ports (stochastic path selection). With hw > 0 the
 *    router consumes hw words from the stream head (pipelined
 *    connection setup); with hw = 0 and swallow enabled it strips
 *    the leading header word once its route bits are exhausted.
 *
 *  - Blocking: when no backward port is free in the requested
 *    direction the connection blocks. Per-forward-port
 *    configuration selects *fast path reclamation* (immediately
 *    propagate a backward-control-bit drop toward the source and
 *    release resources) or a *detailed reply* (hold the connection,
 *    discard data, and answer the eventual TURN with a blocked
 *    STATUS word and checksum).
 *
 *  - Connection reversal: a TURN word is forwarded downstream while
 *    the router injects a STATUS word (connection state + CRC of
 *    the data it forwarded) into the newly-reversed return stream;
 *    DATA-IDLE fills reversal-transient slots. Connections may turn
 *    any number of times; turns are symmetric.
 *
 *  - Teardown: a Drop word from the transmitting end releases the
 *    crosspoint as it passes through.
 *
 * Timing: the router's dp internal pipeline stages and the attached
 * wire's vtd registers are folded into the outgoing lane latency of
 * each Link (see sim/link.hh), so a symbol read in cycle t is
 * visible to the neighbour at t + dp + vtd.
 */

#ifndef METRO_ROUTER_ROUTER_HH
#define METRO_ROUTER_ROUTER_HH

#include <memory>
#include <vector>

#include "common/crc.hh"
#include "common/random.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "obs/observer.hh"
#include "obs/registry.hh"
#include "router/allocator.hh"
#include "router/config.hh"
#include "router/params.hh"
#include "sim/component.hh"
#include "sim/link.hh"

namespace metro
{

/** Forward-port connection state. */
enum class FwdPortState : std::uint8_t
{
    /** No connection; waiting for a routing header. */
    Idle,
    /** Connected, data flowing source → destination. */
    ConnectedFwd,
    /** Connected, data flowing destination → source. */
    ConnectedRev,
    /** Blocked in detailed mode: discarding, awaiting TURN. */
    BlockedWait,
    /** Blocked reply sent status; Drop goes out next cycle. */
    BlockedDrop,
    /** Fast-reclaimed: discarding the dead stream until Drop. */
    Draining,
};

/** Human-readable forward-port state name. */
const char *fwdPortStateName(FwdPortState state);

/**
 * One METRO routing component.
 */
class MetroRouter : public Component
{
  public:
    /**
     * @param id      network-unique router id
     * @param params  architectural parameters (validated)
     * @param config  runtime configuration (validated)
     * @param seed    seed for this router's own RandomSource
     */
    MetroRouter(RouterId id, const RouterParams &params,
                const RouterConfig &config, std::uint64_t seed);

    /** Attach the link feeding forward port p (router is B end). */
    void attachForward(PortIndex p, Link *link);

    /** Attach the link leaving backward port p (router is A end). */
    void attachBackward(PortIndex p, Link *link);

    /** Network stage this router sits in (for STATUS words). */
    void setStage(std::uint8_t stage) { stage_ = stage; }

    /** Stage recorded for STATUS words. */
    std::uint8_t stage() const { return stage_; }

    /**
     * Share a random-input stream across a cascade group
     * (Section 5.1, shared randomness). Replaces the router's own
     * source.
     */
    void
    setRandomSource(std::shared_ptr<RandomSource> source)
    {
        randomSource_ = std::move(source);
        // The stream is (potentially) shared now: members of a
        // cascade group must consume it in registration order, so
        // this router is pinned to the serial tick section.
        sharedRandom_ = true;
        notePlanChange();
    }

    /** The random-input stream in use. */
    const std::shared_ptr<RandomSource> &
    randomSource() const
    {
        return randomSource_;
    }

    /**
     * The random *output* bit stream this component generates
     * (Section 5.1: every METRO component produces one, so cascade
     * groups can be fed without extra parts). Deterministic per
     * (router seed, cycle); independent of the router's own
     * random-input consumption.
     */
    bool randomOutputBit(Cycle cycle) const;

    void tick(Cycle cycle) override;

    /** Architectural parameters. @{ */
    const RouterParams &params() const { return params_; }
    const RouterConfig &config() const { return config_; }
    RouterId id() const { return id_; }
    /** @} */

    /**
     * Scan-controlled reconfiguration (used by Tap). Disabling a
     * port with a live connection tears the connection down (Drop
     * in both directions) so the fault region is isolated cleanly.
     * @{
     */
    void setForwardEnabled(PortIndex p, bool enabled);
    void setBackwardEnabled(PortIndex p, bool enabled);
    void setFastReclaim(PortIndex p, bool fast);
    void setDilation(unsigned dilation);
    /** @} */

    /**
     * Fault hooks for the fault-tolerance experiments. A dead
     * router ignores all traffic. A misrouting router decodes
     * corrupted directions (random), modelling header-decode
     * faults; used by the cascade consistency tests. Both wake a
     * sleeping router *before* mutating, so the skipped-cycle
     * catch-up (syncSkipped) accounts with the state that actually
     * held during the sleep. @{
     */
    void
    setDead(bool dead)
    {
        wake();
        dead_ = dead;
    }
    bool dead() const { return dead_; }
    void
    setMisroute(bool misroute)
    {
        wake();
        misroute_ = misroute;
    }
    /** @} */

    /**
     * Register this router's shared word-accounting counters and
     * its per-router port-occupancy histogram with a central
     * registry (usually the owning Network's). Passing nullptr
     * detaches. The registry must outlive the router.
     */
    void setMetrics(MetricsRegistry *metrics);

    /** Install a connection-lifecycle observer (grant/block
     *  milestones); nullptr detaches. An observed router leaves the
     *  sharded engine's parallel section (the observer is shared
     *  mutable state), so the shard plan is invalidated. */
    void
    setObserver(ConnObserver *observer)
    {
        observer_ = observer;
        notePlanChange();
    }

    /**
     * Parallel-safety verdict (see Component): a router tick reads
     * its attached lane heads, pushes its attached lane tails and
     * mutates only per-router state — *unless* an observer is
     * watching (shared callback) or the random source is shared
     * across a cascade group (draw order must follow registration
     * order, which only the serial section preserves).
     */
    bool
    parallelTickSafe() const override
    {
        return observer_ == nullptr && !sharedRandom_;
    }

    /** Redirect the shared conservation counters (router/block
     *  discards) to per-router scratch for parallel phase-1 (see
     *  Component::setConcurrentMetrics). */
    void setConcurrentMetrics(bool on) override;

    /** Fold the scratch back into the shared registry slots. */
    void flushConcurrentMetrics() override;

    /** Introspection for tests and monitors. @{ */
    FwdPortState forwardState(PortIndex p) const;
    bool backwardBusy(PortIndex p) const;
    PortIndex connectedBackward(PortIndex fwd) const;
    const CounterSet &counters() const { return counters_; }
    CounterSet &counters() { return counters_; }
    /** True when no port holds any connection state. */
    bool
    quiescent() const
    {
        return (masks_.nonIdle | masks_.busy) == 0;
    }
    /** Last Test symbol observed on a disabled forward port. */
    Symbol lastTestSymbol(PortIndex p) const;
    /** Drive a Test symbol out a *disabled* backward port. */
    void driveTestSymbol(PortIndex p, const Symbol &s);

    /**
     * Port masks, bit p standing for port p (ports ≤ 64 per side,
     * RouterParams::validate). Derived state: activeFwd/activeBwd
     * mirror the attached links' activity flags (written by the
     * links themselves, see Link::setActivityBitA), nonIdle and
     * busy mirror fState_ and the backward-port ownership. A
     * checkpoint stores none of them; restore rebuilds them.
     */
    struct PortMasks
    {
        std::uint64_t activeFwd = 0; ///< forward port's link active
        std::uint64_t activeBwd = 0; ///< backward port's link active
        std::uint64_t nonIdle = 0;   ///< forward state is not Idle
        std::uint64_t busy = 0;      ///< backward port owned
    };
    const PortMasks &portMasks() const { return masks_; }

    /** Forward ports a tick visits, in ascending order. Every other
     *  port is Idle on a sleeping (or no) link, so it would read
     *  Empty and do nothing. */
    std::uint64_t
    visitedForwardPorts() const
    {
        return masks_.activeFwd | masks_.nonIdle;
    }
    /** @} */

    /**
     * Allocation observer for cascade consistency checking: after
     * each tick, the set of (forward, backward) pairs granted in
     * that tick. Cleared at the start of every tick.
     */
    const std::vector<AllocGrant> &lastGrants() const
    {
        return lastGrants_;
    }

    /** Force-release every connection (cascade containment). */
    void shutdownAllConnections();

    /** Force-release whatever connection owns backward port b
     *  (wired-AND consistency shutdown). No-op when free. */
    void releaseBackward(PortIndex b);

  private:
    friend class CheckpointIO;

    /** Pending allocation request gathered during the input scan. */
    struct PendingRequest
    {
        PortIndex fwd;
        unsigned direction;
        Symbol header;
    };

    /** Quiescence hooks (see sim/component.hh). @{ */
    bool canSleep() const override;
    void syncSkipped(Cycle from, Cycle upto) override;
    /** @} */

    /** Type-segregated dispatch (see Engine): routers registered
     *  consecutively tick through one devirtualized loop. */
    BatchTickFn
    batchTickFn() const override
    {
        return &Component::batchTickOf<MetroRouter>;
    }

    TickClass tickClass() const override { return TickClass::Router; }

    void processForwardPort(PortIndex p, Cycle cycle);
    void handleConnectedFwd(PortIndex p, const Symbol &sym,
                            Cycle cycle);
    void handleConnectedRev(PortIndex p, const Symbol &sym,
                            Cycle cycle);
    void runAllocation(Cycle cycle);
    void forwardHeader(PortIndex p, Symbol sym);
    void pushStatusUp(PortIndex p, bool blocked);
    void pushStatusDown(PortIndex p, bool blocked);
    Symbol makeStatus(PortIndex p, bool blocked) const;
    void unlinkBackward(PortIndex p);
    void freeConnection(PortIndex p);
    void teardownPort(PortIndex p);
    unsigned directionBits() const;
    unsigned extractDirection(const Symbol &header, Cycle cycle);
    void fillAvailability();
    void refreshOffPortDrive();

    RouterId id_;
    RouterParams params_;
    RouterConfig config_;
    std::uint8_t stage_ = 0;
    bool dead_ = false;
    bool misroute_ = false;
    std::shared_ptr<RandomSource> randomSource_;
    RandomSource randomOutput_;
    Xoshiro256 misrouteRng_;

    /**
     * Per-port connection state, structure-of-arrays: a tick visits
     * only the forward ports in visitedForwardPorts() and censuses
     * only active backward links (ctz loops over masks_), touching
     * each visited port's fields, so a router with one connection
     * pays for one port, not for its width. All forward arrays are
     * indexed by forward-port number, backward arrays by
     * backward-port number; sizes are fixed at construction.
     * One-bit-per-port facts live in masks_ and the masks below. @{
     */
    std::vector<Link *> fLink_;
    std::vector<FwdPortState> fState_;
    std::vector<PortIndex> fBwd_;
    /** hw words still to consume from the stream head. */
    std::vector<std::uint32_t> fConsumeLeft_;
    /** routePos to stamp on forwarded header words. */
    std::vector<std::uint16_t> fPosAfter_;
    /** swallow: strip the leading header word. */
    std::vector<std::uint8_t> fSwallowFirst_;
    /** true until the stream's first header was handled. */
    std::vector<std::uint8_t> fFirstHeaderDone_;
    /** CRC over Data words forwarded per connection. */
    std::vector<Crc16> fCrc_;
    /** requested logical direction (diagnostics). */
    std::vector<std::uint32_t> fDirection_;
    std::vector<Cycle> fLastActivity_;
    std::vector<std::uint64_t> fMsgId_;
    /** Last Test symbol observed while the port was disabled. */
    std::vector<Symbol> fLastTest_;

    std::vector<Link *> bLink_;
    std::vector<PortIndex> bOwner_;
    PortMasks masks_;
    /** Reverse lanes consumed by a connection handler this tick
     *  (unread active lanes are censused for word conservation). */
    std::uint64_t revRead_ = 0;
    /** @} */

    /** Per-tick scratch, allocated once (the former per-tick
     *  vector allocations were a measured hot spot). @{ */
    std::vector<bool> availScratch_;
    std::vector<PendingRequest> pendingScratch_;
    std::vector<AllocRequest> allocScratch_;
    /** @} */

    /** availScratch_ needs refilling: some availability input
     *  (masks_.busy, backwardEnabled, an attached link) changed since
     *  the last fill. Mutations mid-tick leave this cycle's
     *  snapshot stale on purpose — a port freed in cycle t accepts
     *  new connections from t+1. */
    bool availDirty_ = true;

    /** Disabled backward ports with off-port drive enabled: the
     *  free ones among them get DATA-IDLE every tick (recomputed on
     *  the rare enable/disable reconfigurations). */
    std::uint64_t offDrive_ = 0;

    std::vector<AllocGrant> lastGrants_;
    CounterSet counters_;

    /** Interned hot-path counter slots (CounterSet::slot): bare
     *  increments instead of per-event string + map lookup. @{ */
    std::uint64_t *cBcbForwarded_;
    std::uint64_t *cReverseDropFwd_;
    std::uint64_t *cStrayReverseSymbol_;
    std::uint64_t *cHeaderConsumed_;
    std::uint64_t *cHeaderSwallowed_;
    std::uint64_t *cWordsForwarded_;
    std::uint64_t *cTurns_;
    std::uint64_t *cDrops_;
    std::uint64_t *cStrayForwardSymbol_;
    std::uint64_t *cAbortDrops_;
    std::uint64_t *cIdleDiscard_;
    std::uint64_t *cIdleTimeouts_;
    std::uint64_t *cBlockedDiscard_;
    std::uint64_t *cBlockedReplies_;
    std::uint64_t *cDrainedWords_;
    std::uint64_t *cDisabledPortDiscard_;
    std::uint64_t *cRequests_;
    std::uint64_t *cGrants_;
    std::uint64_t *cBlocks_;
    std::uint64_t *cBcbSent_;
    /** @} */

    // Observability: cached registry slots (see setMetrics). When no
    // registry is attached the pointers target scratch_, keeping the
    // hot paths branch-free.
    MetricsRegistry *metrics_ = nullptr;
    ConnObserver *observer_ = nullptr;
    std::uint64_t scratch_ = 0;
    std::uint64_t *mDiscardRouter_ = &scratch_;
    std::uint64_t *mDiscardBlock_ = &scratch_;
    LogHistogram *occupancy_ = nullptr;

    /** Replaced random source may be cascade-shared (pins the
     *  router to the serial section; see setRandomSource). */
    bool sharedRandom_ = false;

    /**
     * Concurrent-metrics mode (see setConcurrentMetrics): the
     * registry targets of the two shared conservation counters,
     * and the per-router scratch the hot pointers are swapped to
     * while parallel phase-1 runs. @{
     */
    bool concMetrics_ = false;
    std::uint64_t *realDiscardRouter_ = &scratch_;
    std::uint64_t *realDiscardBlock_ = &scratch_;
    std::uint64_t concDiscardRouter_ = 0;
    std::uint64_t concDiscardBlock_ = 0;
    /** @} */
};

} // namespace metro

#endif // METRO_ROUTER_ROUTER_HH
