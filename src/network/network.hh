/**
 * @file
 * A complete METRO network: routers, endpoints, links, the
 * simulation engine, and the message ledger, under one owner.
 */

#ifndef METRO_NETWORK_NETWORK_HH
#define METRO_NETWORK_NETWORK_HH

#include <functional>
#include <memory>
#include <vector>

#include "common/types.hh"
#include "endpoint/interface.hh"
#include "endpoint/message.hh"
#include "obs/registry.hh"
#include "router/cascade.hh"
#include "router/router.hh"
#include "sim/engine.hh"
#include "sim/link.hh"

namespace metro
{

/**
 * Owns every simulation object of one network instance. Builders
 * (multibutterfly, fat-tree, ad-hoc test fixtures) populate it;
 * finalize() registers everything with the engine.
 */
class Network
{
  public:
    Network() = default;

    Network(const Network &) = delete;
    Network &operator=(const Network &) = delete;

    /** Construction API (builders). @{ */
    MetroRouter *
    addRouter(const RouterParams &params, const RouterConfig &config,
              std::uint64_t seed)
    {
        auto id = static_cast<RouterId>(routers_.size());
        routers_.push_back(
            std::make_unique<MetroRouter>(id, params, config, seed));
        routers_.back()->setMetrics(&metrics_);
        return routers_.back().get();
    }

    NetworkInterface *
    addEndpoint(const NiConfig &config, std::uint64_t seed)
    {
        auto id = static_cast<NodeId>(endpoints_.size());
        endpoints_.push_back(std::make_unique<NetworkInterface>(
            id, config, &tracker_, seed));
        endpoints_.back()->setMetrics(&metrics_);
        return endpoints_.back().get();
    }

    Link *
    addLink(unsigned down_latency, unsigned up_latency,
            std::uint64_t fault_seed)
    {
        auto id = static_cast<LinkId>(links_.size());
        // Lanes are allocated out of the network-wide arena in link
        // creation order: one flat slot array that the engine ticks
        // once per cycle (see sim/arena.hh).
        links_.push_back(std::make_unique<Link>(
            id, down_latency, up_latency, fault_seed, &arena_));
        return links_.back().get();
    }

    /** Register a width-cascade consistency monitor over a set of
     *  member routers (shares their randomness; ticks after them). */
    CascadeGroup *
    addCascadeGroup(std::vector<MetroRouter *> members,
                    std::uint64_t seed)
    {
        cascades_.push_back(std::make_unique<CascadeGroup>(
            std::move(members), seed));
        return cascades_.back().get();
    }

    /** Record which stage a router belongs to. */
    void
    setStages(std::vector<std::vector<RouterId>> stages)
    {
        stages_ = std::move(stages);
    }

    /**
     * The network-wide in-flight-attempts gate (injection admission
     * control; see retry/policy.hh). Created on first call with the
     * given limit; builders hand it to every endpoint whose retry
     * config sets inflightLimit > 0.
     */
    InflightGate *
    inflightGate(unsigned limit)
    {
        if (!inflightGate_)
            inflightGate_ = std::make_unique<InflightGate>(limit);
        return inflightGate_.get();
    }

    /** Register all objects with the engine. Call exactly once. */
    void
    finalize()
    {
        METRO_ASSERT(!finalized_, "network finalized twice");
        for (auto &r : routers_)
            engine_.addComponent(r.get());
        // Cascade monitors observe post-tick router state: they
        // must tick after every member.
        for (auto &c : cascades_)
            engine_.addComponent(c.get());
        for (auto &e : endpoints_)
            engine_.addComponent(e.get());
        for (auto &l : links_) {
            // Wire deaths destroy in-flight words; charge them to
            // a conservation bin (see the identity in docs).
            l->setWireDiscardCounter(
                &metrics_.counter("words.discarded.wire"));
            engine_.addLink(l.get());
        }
        // Stage-aligned shard hints: prefer shard cuts at topology
        // stage boundaries (and at the router/endpoint seam) so the
        // only lanes crossing shards are the stage-boundary links.
        std::vector<Component *> hints;
        for (const auto &stage : stages_) {
            if (!stage.empty())
                hints.push_back(routers_[stage.front()].get());
        }
        if (!endpoints_.empty())
            hints.push_back(endpoints_.front().get());
        engine_.setShardHints(std::move(hints));
        finalized_ = true;
    }
    /** @} */

    /** Accessors. @{ */
    Engine &engine() { return engine_; }
    MessageTracker &tracker() { return tracker_; }
    const MessageTracker &tracker() const { return tracker_; }

    std::size_t numRouters() const { return routers_.size(); }
    std::size_t numEndpoints() const { return endpoints_.size(); }
    std::size_t numLinks() const { return links_.size(); }

    MetroRouter &
    router(RouterId id)
    {
        METRO_ASSERT(id < routers_.size(), "router %u out of range",
                     id);
        return *routers_[id];
    }

    NetworkInterface &
    endpoint(NodeId id)
    {
        METRO_ASSERT(id < endpoints_.size(),
                     "endpoint %u out of range", id);
        return *endpoints_[id];
    }

    Link &
    link(LinkId id)
    {
        METRO_ASSERT(id < links_.size(), "link %u out of range", id);
        return *links_[id];
    }

    /** Cascade monitors in this network. */
    std::size_t numCascadeGroups() const { return cascades_.size(); }

    CascadeGroup &
    cascadeGroup(std::size_t k)
    {
        METRO_ASSERT(k < cascades_.size(), "cascade %zu out of range",
                     k);
        return *cascades_[k];
    }

    unsigned
    numStages() const
    {
        return static_cast<unsigned>(stages_.size());
    }

    const std::vector<RouterId> &
    routersInStage(unsigned s) const
    {
        METRO_ASSERT(s < stages_.size(), "stage %u out of range", s);
        return stages_[s];
    }
    /** @} */

    /** True when every router holds no connection state. */
    bool
    routersQuiescent() const
    {
        for (const auto &r : routers_) {
            if (!r->quiescent())
                return false;
        }
        return true;
    }

    /**
     * The central metrics registry every router and endpoint of
     * this network registers into (see obs/registry.hh). Live —
     * counters keep moving while the engine runs; experiments take
     * snapshots and diff them.
     */
    MetricsRegistry &metrics() { return metrics_; }
    const MetricsRegistry &metrics() const { return metrics_; }

    /**
     * A value snapshot of the registry with every per-entity
     * CounterSet folded in as "router.total.<name>" /
     * "ni.total.<name>" network-wide sums, plus the engine's
     * scheduler counters ("engine.ticks_skipped" /
     * "engine.links_fastpathed"), so one blob carries the complete
     * counter state. Non-const: sleeping components first catch up
     * their skipped-cycle metrics samples (Engine::syncStats) so
     * quiescence scheduling stays invisible to every consumer of
     * the snapshot.
     */
    MetricsRegistry
    metricsSnapshot()
    {
        engine_.syncStats();
        MetricsRegistry snap = metrics_;
        snap.counter("engine.ticks_skipped") = engine_.ticksSkipped();
        snap.counter("engine.links_fastpathed") =
            engine_.linksFastpathed();
        for (const auto &r : routers_) {
            for (const auto &[name, v] : r->counters().all())
                snap.counter("router.total." + name) += v;
        }
        for (const auto &e : endpoints_) {
            for (const auto &[name, v] : e->counters().all())
                snap.counter("ni.total." + name) += v;
        }
        return snap;
    }

    /**
     * Topology-specific usable-path counting (the structural oracle
     * behind survivable fault sampling and degradation analysis).
     * Builders install a function that counts the distinct src→dest
     * paths avoiding dead routers, dead links, and disabled ports;
     * generic code queries it without knowing the topology. @{
     */
    using PathOracle =
        std::function<std::uint64_t(NodeId src, NodeId dest)>;

    void setPathOracle(PathOracle oracle)
    {
        pathOracle_ = std::move(oracle);
    }

    bool hasPathOracle() const
    {
        return static_cast<bool>(pathOracle_);
    }

    /** Usable src→dest paths right now. Fatal when the topology
     *  installed no oracle — a silent 0 would make survivable
     *  sampling accept disconnecting fault sets. */
    std::uint64_t
    countUsablePaths(NodeId src, NodeId dest) const
    {
        METRO_ASSERT(hasPathOracle(),
                     "topology installed no path oracle: "
                     "usable-path counting (fault sampling, "
                     "degradation analysis) is not supported on "
                     "this network");
        return pathOracle_(src, dest);
    }
    /** @} */

    /** Data words currently in flight across all link lanes
     *  (passive; see Link::inFlight). */
    std::uint64_t
    inFlightDataWords() const
    {
        std::uint64_t n = 0;
        for (const auto &l : links_)
            n += l->inFlight(SymbolKind::Data);
        return n;
    }

    /** The flat lane arena every link's lanes live in. */
    LaneArena &arena() { return arena_; }
    const LaneArena &arena() const { return arena_; }

  private:
    friend class CheckpointIO;

    Engine engine_;
    MessageTracker tracker_;
    MetricsRegistry metrics_;
    /** Declared before links_: lanes must outlive the links that
     *  index into them. */
    LaneArena arena_;
    std::vector<std::unique_ptr<MetroRouter>> routers_;
    std::vector<std::unique_ptr<NetworkInterface>> endpoints_;
    std::vector<std::unique_ptr<Link>> links_;
    std::vector<std::unique_ptr<CascadeGroup>> cascades_;
    std::vector<std::vector<RouterId>> stages_;
    std::unique_ptr<InflightGate> inflightGate_;
    PathOracle pathOracle_;
    bool finalized_ = false;
};

} // namespace metro

#endif // METRO_NETWORK_NETWORK_HH
