/**
 * @file
 * A fixed-latency symbol pipeline (a chain of registers).
 *
 * The simulator's timing contract: a symbol pushed during cycle t
 * into a Pipe of latency L becomes readable at head() during cycle
 * t + L. Latency 1 models a single register (a component's output
 * register); larger latencies model wire pipelining — the paper's
 * "variable turn delay" treats each inter-router wire as an integral
 * number of pipeline registers (Section 5.1).
 *
 * Storage lives in a LaneArena (see arena.hh), a clock-indexed
 * delay line. Pipe is the standalone single-lane convenience over a
 * private arena for unit tests and ad-hoc harnesses; the simulation
 * proper (Link, Network) allocates lanes straight out of the
 * network-wide arena, which the engine ticks once per cycle.
 */

#ifndef METRO_SIM_PIPE_HH
#define METRO_SIM_PIPE_HH

#include "sim/arena.hh"
#include "sim/symbol.hh"

namespace metro
{

/**
 * One symbol lane providing a push-at-tail / read-at-head interface
 * with a compile-time-unknown but fixed latency.
 *
 * Usage discipline per cycle: any number of head() reads, at most
 * one push(), then exactly one advance(). A push lands in a register
 * the same cycle's head() does not read, so components never observe
 * values pushed in the current cycle, which makes component tick
 * order irrelevant.
 */
class Pipe
{
  public:
    /** @param latency cycles from push to visibility; must be ≥ 1. */
    explicit Pipe(unsigned latency = 1)
        : lane_(arena_.allocate(latency))
    {}

    /** Latency in cycles. */
    unsigned latency() const { return arena_.latency(lane_); }

    /** The symbol pushed latency() cycles ago (Empty if none). */
    Symbol head() const { return arena_.head(lane_); }

    /**
     * Occupy this cycle's input register. At most one push per
     * cycle; pushing twice in one cycle is a simulator bug.
     * Same-cycle readers — regardless of component tick order —
     * never observe it.
     */
    void push(const Symbol &s) { arena_.push(lane_, s); }

    /** End the cycle: one clock tick. */
    void advance() { arena_.tick(); }

    /** Non-Empty symbols in flight, including this cycle's push.
     *  While this is 0 the lane reads Empty until the next push
     *  (see Link::canSleepNow). */
    unsigned occupied() const { return arena_.occupied(lane_); }

    /**
     * Count in-flight symbols of one kind, including this cycle's
     * push. Passive introspection for the observability layer
     * (in-flight censuses at drain time).
     */
    unsigned
    countKind(SymbolKind kind) const
    {
        return arena_.countKind(lane_, kind);
    }

    /** Clear all in-flight symbols (used by fault injection). */
    void flush() { arena_.flush(lane_); }

  private:
    LaneArena arena_;
    LaneId lane_;
};

} // namespace metro

#endif // METRO_SIM_PIPE_HH
