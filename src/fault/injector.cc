#include "fault/injector.hh"

#include <algorithm>

#include "network/analysis.hh"

namespace metro
{

void
FaultInjector::tick(Cycle cycle)
{
    for (auto &event : events_) {
        if (event.at == cycle) {
            apply(event);
            ++applied_;
        }
    }
}

void
FaultInjector::apply(const FaultEvent &event)
{
    // Every mutator below participates in the engine's wakeup
    // protocol: Link::setFault reactivates a fast-pathed link (so
    // the death census in the engine's drain fold runs and charges
    // draining words to words.discarded.wire) and wakes both end
    // components;
    // the router hooks wake a sleeping router *before* mutating it.
    // Faults therefore land identically whether or not the target
    // was quiescent when the event fired.
    switch (event.kind) {
      case FaultKind::LinkDead:
        net_->link(event.target).setFault(LinkFault::Dead);
        break;
      case FaultKind::LinkCorrupt:
        net_->link(event.target).setFault(LinkFault::Corrupt);
        break;
      case FaultKind::LinkHeal:
        net_->link(event.target).setFault(LinkFault::None);
        break;
      case FaultKind::RouterDead:
        net_->router(event.target).setDead(true);
        break;
      case FaultKind::RouterHeal:
        net_->router(event.target).setDead(false);
        break;
      case FaultKind::RouterMisroute:
        net_->router(event.target).setMisroute(true);
        break;
      case FaultKind::ForwardPortOff:
        net_->router(event.target)
            .setForwardEnabled(event.port, false);
        break;
      case FaultKind::BackwardPortOff:
        net_->router(event.target)
            .setBackwardEnabled(event.port, false);
        break;
    }
}

std::vector<FaultEvent>
sampleSurvivableFaults(Network &net, const MultibutterflySpec &spec,
                       unsigned router_faults, unsigned link_faults,
                       Cycle at, std::uint64_t seed,
                       unsigned max_tries)
{
    (void)spec; // the network's own path oracle is authoritative
    return sampleSurvivableFaults(net, router_faults, link_faults,
                                  at, seed, max_tries);
}

std::vector<FaultEvent>
sampleSurvivableFaults(Network &net, unsigned router_faults,
                       unsigned link_faults, Cycle at,
                       std::uint64_t seed, unsigned max_tries)
{
    METRO_ASSERT(net.hasPathOracle(),
                 "survivable fault sampling needs a topology with a "
                 "structural path oracle (multibutterfly or fat "
                 "tree); this network installed none");
    Xoshiro256 rng(seed);

    for (unsigned attempt = 0; attempt < max_tries; ++attempt) {
        // Draw a candidate set.
        std::vector<FaultEvent> events;
        std::vector<RouterId> routers(net.numRouters());
        for (RouterId r = 0; r < routers.size(); ++r)
            routers[r] = r;
        for (std::size_t k = routers.size(); k > 1; --k)
            std::swap(routers[k - 1], routers[rng.below(k)]);
        for (unsigned k = 0;
             k < router_faults && k < routers.size(); ++k)
            events.push_back({at, FaultKind::RouterDead, routers[k],
                              kInvalidPort});

        std::vector<LinkId> links(net.numLinks());
        for (LinkId l = 0; l < links.size(); ++l)
            links[l] = l;
        for (std::size_t k = links.size(); k > 1; --k)
            std::swap(links[k - 1], links[rng.below(k)]);
        for (unsigned k = 0; k < link_faults && k < links.size(); ++k)
            events.push_back({at, FaultKind::LinkDead, links[k],
                              kInvalidPort});

        // Trial-apply, check connectivity, revert.
        for (const auto &e : events) {
            if (e.kind == FaultKind::RouterDead)
                net.router(e.target).setDead(true);
            else
                net.link(e.target).setFault(LinkFault::Dead);
        }
        const bool ok = allPairsConnected(net);
        for (const auto &e : events) {
            if (e.kind == FaultKind::RouterDead)
                net.router(e.target).setDead(false);
            else
                net.link(e.target).setFault(LinkFault::None);
        }
        if (ok)
            return events;
    }
    METRO_FATAL("could not sample a survivable fault set "
                "(%u routers, %u links)", router_faults, link_faults);
}

} // namespace metro
