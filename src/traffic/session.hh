/**
 * @file
 * Open-loop session driver (mode=session).
 *
 * Models service traffic from a large user population: sessions
 * arrive at each endpoint by a per-cycle Bernoulli (discrete
 * Poisson) process whose rate is modulated by a deterministic
 * diurnal curve, and each live session issues a bounded stream of
 * requests separated by jittered gaps. Requests themselves go
 * through issueRequest(), so they compose with size distributions,
 * traffic classes, and RPC fan-out.
 *
 * Determinism: all draws come from the driver's own RNG in a fixed
 * order each tick (arrival coin first, then per-due-session
 * submission + gap jitter, in session-creation order), so the
 * byte-identity contract across engine-thread counts holds — the
 * driver runs in the engine's pinned serial section like the other
 * drivers.
 */

#ifndef METRO_TRAFFIC_SESSION_HH
#define METRO_TRAFFIC_SESSION_HH

#include <cstdint>
#include <vector>

#include "common/random.hh"
#include "common/types.hh"
#include "endpoint/interface.hh"
#include "sim/component.hh"
#include "traffic/drivers.hh"
#include "traffic/process.hh"

namespace metro
{

/**
 * Per-endpoint session-arrival driver.
 */
class SessionDriver : public Component
{
  public:
    SessionDriver(NetworkInterface *ni,
                  const DestinationGenerator *dests,
                  const DriverConfig &config,
                  const SessionModelConfig &session, std::uint64_t seed)
        : Component("sdriver" + std::to_string(ni->nodeId())),
          ni_(ni), dests_(dests), config_(config), scfg_(session),
          rng_(seed)
    {}

    void
    tick(Cycle cycle) override
    {
        if (cycle >= config_.stopAt)
            return;
        // Session arrival: one coin per cycle at the diurnally
        // modulated rate (drawn unconditionally so the RNG stream
        // does not depend on the live-session population).
        double p = scfg_.rate * diurnalFactor(cycle, scfg_);
        if (p > 1.0)
            p = 1.0;
        if (rng_.chance(p)) {
            if (sessions_.size() >= scfg_.maxActive) {
                // Overload guard: arrivals beyond the cap are shed
                // (counted, never queued).
                ++sessionsShed_;
            } else {
                sessions_.push_back(
                    Session{scfg_.requests, cycle});
                ++sessionsStarted_;
            }
        }
        // Advance live sessions in creation order (stable draw
        // order). Each due session issues one request and schedules
        // the next after a jittered gap.
        std::size_t live = 0;
        for (std::size_t k = 0; k < sessions_.size(); ++k) {
            Session s = sessions_[k];
            if (cycle >= s.nextAt && s.remaining > 0) {
                issueRequest(ni_, dests_, config_, rng_, ids_,
                             submitted_);
                --s.remaining;
                unsigned gap = scfg_.gap;
                if (gap >= 4) {
                    // +-25% jitter, same shape as the closed-loop
                    // think time, so request trains decorrelate.
                    const unsigned span = gap / 2;
                    gap = gap - span / 2 +
                          static_cast<unsigned>(rng_.below(span + 1));
                }
                s.nextAt = cycle + (gap > 0 ? gap : 1);
            }
            if (s.remaining > 0)
                sessions_[live++] = s;
        }
        sessions_.resize(live);
    }

    /** Messages submitted so far. */
    std::uint64_t submitted() const { return submitted_; }

    /** Tracker ids of all submissions. */
    const std::vector<std::uint64_t> &messageIds() const
    {
        return ids_;
    }

    /** Sessions started / shed at the maxActive cap / live now. @{ */
    std::uint64_t sessionsStarted() const { return sessionsStarted_; }
    std::uint64_t sessionsShed() const { return sessionsShed_; }
    std::size_t sessionsLive() const { return sessions_.size(); }
    /** @} */

  private:
    friend class CheckpointIO;

    /** One live session: requests left and the next issue cycle. */
    struct Session
    {
        unsigned remaining = 0;
        Cycle nextAt = 0;
    };

    /** Type-segregated dispatch (see Engine). */
    BatchTickFn
    batchTickFn() const override
    {
        return &Component::batchTickOf<SessionDriver>;
    }

    TickClass tickClass() const override { return TickClass::Driver; }

    NetworkInterface *ni_;
    const DestinationGenerator *dests_;
    DriverConfig config_;
    SessionModelConfig scfg_;
    Xoshiro256 rng_;
    std::vector<Session> sessions_;
    std::uint64_t submitted_ = 0;
    std::uint64_t sessionsStarted_ = 0;
    std::uint64_t sessionsShed_ = 0;
    std::vector<std::uint64_t> ids_;
};

} // namespace metro

#endif // METRO_TRAFFIC_SESSION_HH
