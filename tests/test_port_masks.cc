/**
 * @file
 * Router port masks (MetroRouter::PortMasks) under random operations.
 *
 * A router tick visits only the forward ports in
 * visitedForwardPorts() and censuses only active backward links, so
 * the masks must match the links and the per-port state at every
 * point between cycles, whatever happened before: ports attached
 * late (onto sleeping links), traffic, links sleeping and waking,
 * link death and healing, port disables, forced shutdowns, and a
 * checkpoint restore into a fresh instance. After each operation the
 * tests rebuild every mask from the links' own activity flags and
 * the router's public port state, and compare — including the
 * visited set against a full scan of the ports.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/random.hh"
#include "network/multibutterfly.hh"
#include "network/presets.hh"
#include "router/router.hh"
#include "serve/checkpoint.hh"
#include "sim/engine.hh"

namespace metro
{
namespace
{

/** Rebuild a router's masks from scratch and compare. `fwd`/`bwd`
 *  hold the link attached to each port (nullptr: unattached). */
void
expectMasksMatch(const MetroRouter &r, const std::vector<Link *> &fwd,
                 const std::vector<Link *> &bwd)
{
    MetroRouter::PortMasks want;
    std::uint64_t visited = 0;
    for (PortIndex p = 0; p < fwd.size(); ++p) {
        const std::uint64_t bit = std::uint64_t{1} << p;
        const bool idle = r.forwardState(p) == FwdPortState::Idle;
        if (fwd[p] != nullptr && fwd[p]->active())
            want.activeFwd |= bit;
        if (!idle)
            want.nonIdle |= bit;
        // The full scan: every attached port that is not Idle on a
        // sleeping link.
        if (fwd[p] != nullptr && (!idle || fwd[p]->active()))
            visited |= bit;
        const PortIndex b = r.connectedBackward(p);
        if (b != kInvalidPort)
            want.busy |= std::uint64_t{1} << b;
    }
    for (PortIndex b = 0; b < bwd.size(); ++b) {
        if (bwd[b] != nullptr && bwd[b]->active())
            want.activeBwd |= std::uint64_t{1} << b;
    }
    const MetroRouter::PortMasks &got = r.portMasks();
    ASSERT_EQ(got.activeFwd, want.activeFwd) << r.name();
    ASSERT_EQ(got.activeBwd, want.activeBwd) << r.name();
    ASSERT_EQ(got.nonIdle, want.nonIdle) << r.name();
    ASSERT_EQ(got.busy, want.busy) << r.name();
    ASSERT_EQ(r.visitedForwardPorts(), visited) << r.name();
    ASSERT_EQ(r.quiescent(), (want.nonIdle | want.busy) == 0);
}

/** A standalone 8×8 router whose ports are attached in random order
 *  while it runs: every link is registered with the engine from the
 *  start, so a late-attached link has usually gone to sleep. */
class MaskRig
{
  public:
    explicit MaskRig(std::uint64_t seed) : rng_(seed)
    {
        params_.width = 8;
        params_.numForward = kPorts;
        params_.numBackward = kPorts;
        params_.maxDilation = 2;
        auto config = RouterConfig::defaults(params_);
        config.dilation = 2;
        config.idleTimeout = 48;
        for (PortIndex p = 0; p < kPorts; ++p) {
            config.fastReclaim[p] = p % 2 == 0;
            config.offPortDrive[p] = p % 3 == 0;
        }
        router_ = std::make_unique<MetroRouter>(0, params_, config,
                                                seed ^ 0x5eed);
        engine_.addComponent(router_.get());
        for (PortIndex p = 0; p < kPorts; ++p) {
            links_.push_back(std::make_unique<Link>(
                p, 1 + p % 2, 1, seed + p));
            links_.push_back(std::make_unique<Link>(
                kPorts + p, 1, 1 + p % 2, seed + kPorts + p));
        }
        for (auto &l : links_)
            engine_.addLink(l.get());
        fwd_.assign(kPorts, nullptr);
        bwd_.assign(kPorts, nullptr);
    }

    void check() const { expectMasksMatch(*router_, fwd_, bwd_); }

    /** One random operation. */
    void
    step()
    {
        switch (rng_.below(12)) {
          case 0:
          case 1:
            attachOne();
            break;
          case 2:
          case 3:
          case 4:
          case 5:
            traffic();
            break;
          case 6:
            engine_.run(1 + rng_.below(60)); // let links sleep
            break;
          case 7: {
            Link &l = *links_[rng_.below(links_.size())];
            const LinkFault faults[] = {LinkFault::None,
                                        LinkFault::Dead,
                                        LinkFault::Corrupt};
            l.setFault(faults[rng_.below(3)]);
            break;
          }
          case 8:
            router_->setForwardEnabled(rng_.below(kPorts),
                                       rng_.below(4) != 0);
            break;
          case 9:
            router_->setBackwardEnabled(rng_.below(kPorts),
                                        rng_.below(4) != 0);
            break;
          case 10:
            router_->shutdownAllConnections();
            break;
          default:
            router_->releaseBackward(rng_.below(kPorts));
            break;
        }
    }

    static constexpr PortIndex kPorts = 8;

    RouterParams params_;
    Engine engine_;
    Xoshiro256 rng_;
    std::unique_ptr<MetroRouter> router_;
    std::vector<std::unique_ptr<Link>> links_;
    std::vector<Link *> fwd_, bwd_;

  private:
    void
    attachOne()
    {
        const PortIndex p = rng_.below(kPorts);
        if (rng_.below(2) == 0) {
            if (fwd_[p] == nullptr) {
                fwd_[p] = links_[2 * p].get();
                router_->attachForward(p, fwd_[p]);
            }
        } else if (bwd_[p] == nullptr) {
            bwd_[p] = links_[2 * p + 1].get();
            router_->attachBackward(p, bwd_[p]);
        }
    }

    /** Random symbols on the attached ports' far ends, one cycle. */
    void
    traffic()
    {
        const unsigned bits = log2Ceil(router_->config().radix());
        for (PortIndex p = 0; p < kPorts; ++p) {
            const std::uint64_t msg = rng_.below(50) + 1;
            if (fwd_[p] != nullptr) {
                switch (rng_.below(8)) {
                  case 0:
                  case 1:
                    fwd_[p]->pushDown(Symbol::header(
                        rng_.below(4),
                        static_cast<std::uint16_t>(bits), msg));
                    break;
                  case 2:
                  case 3:
                    fwd_[p]->pushDown(
                        Symbol::data(rng_.next() & 0xff, msg));
                    break;
                  case 4:
                    fwd_[p]->pushDown(
                        Symbol::control(SymbolKind::Turn, msg));
                    break;
                  case 5:
                    fwd_[p]->pushDown(
                        Symbol::control(SymbolKind::Drop, msg));
                    break;
                  default:
                    break;
                }
            }
            if (bwd_[p] != nullptr) {
                switch (rng_.below(10)) {
                  case 0:
                    bwd_[p]->pushUp(
                        Symbol::data(rng_.next() & 0xff, msg));
                    break;
                  case 1:
                    bwd_[p]->pushUp(
                        Symbol::control(SymbolKind::BcbDrop, msg));
                    break;
                  case 2:
                    bwd_[p]->pushUp(
                        Symbol::control(SymbolKind::Drop, msg));
                    break;
                  case 3:
                    bwd_[p]->pushUp(
                        Symbol::control(SymbolKind::Turn, msg));
                    break;
                  default:
                    break;
                }
            }
        }
        engine_.run(1);
    }
};

TEST(PortMasks, MatchLinksAndPortStateUnderRandomOps)
{
    for (std::uint64_t seed : {1ULL, 2ULL, 3ULL, 4ULL}) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        MaskRig rig(seed);
        rig.check();
        unsigned sawSleeping = 0, sawBusy = 0;
        for (int op = 0; op < 3000; ++op) {
            rig.step();
            ASSERT_NO_FATAL_FAILURE(rig.check()) << "op " << op;
            const auto &m = rig.router_->portMasks();
            for (PortIndex p = 0; p < MaskRig::kPorts; ++p) {
                if (rig.fwd_[p] != nullptr &&
                    (m.activeFwd >> p & 1) == 0)
                    ++sawSleeping;
            }
            sawBusy += m.busy != 0;
        }
        // The walk must have reached the states the masks encode.
        EXPECT_GT(sawSleeping, 100u);
        EXPECT_GT(sawBusy, 100u);
        EXPECT_GT(rig.engine_.ticksSkipped(), 100u); // router slept
        EXPECT_GT(rig.router_->counters().get("grants"), 50u);
    }
}

/** A small multibutterfly with its engine, rebuilt identically for a
 *  checkpoint restore. */
struct MaskNet
{
    explicit MaskNet(std::uint64_t seed, unsigned threads)
        : net(buildMultibutterfly(fig1Spec(seed)))
    {
        net->engine().setThreads(threads);
    }

    /** Each router's attached links, by port. */
    void
    portLinks(RouterId id, std::vector<Link *> &fwd,
              std::vector<Link *> &bwd)
    {
        const RouterParams &p = net->router(id).params();
        fwd.assign(p.numForward, nullptr);
        bwd.assign(p.numBackward, nullptr);
        for (LinkId l = 0; l < net->numLinks(); ++l) {
            Link &link = net->link(l);
            if (link.endB().kind == AttachKind::RouterForward &&
                link.endB().id == id)
                fwd[link.endB().port] = &link;
            if (link.endA().kind == AttachKind::RouterBackward &&
                link.endA().id == id)
                bwd[link.endA().port] = &link;
        }
    }

    void
    check()
    {
        std::vector<Link *> fwd, bwd;
        for (RouterId r = 0; r < net->numRouters(); ++r) {
            portLinks(r, fwd, bwd);
            ASSERT_NO_FATAL_FAILURE(
                expectMasksMatch(net->router(r), fwd, bwd));
        }
    }

    std::unique_ptr<Network> net;
};

TEST(PortMasks, MatchAcrossFaultsShutdownsAndCheckpointRestore)
{
    constexpr std::uint64_t kSeed = 0x3A5C;
    constexpr std::uint64_t kDigest = 0x9A5C;
    Xoshiro256 rng(kSeed);
    auto inst = std::make_unique<MaskNet>(kSeed, 1);
    unsigned restores = 0, restoredBusy = 0;
    for (int op = 0; op < 400; ++op) {
        Network &net = *inst->net;
        const auto n = static_cast<NodeId>(net.numEndpoints());
        switch (rng.below(8)) {
          case 0:
          case 1: {
            const NodeId s = static_cast<NodeId>(rng.below(n));
            const NodeId d =
                static_cast<NodeId>((s + 1 + rng.below(n - 1)) % n);
            net.endpoint(s).send(d, {0x3, 0xA, 0x5, 0xC}, true);
            net.engine().run(1 + rng.below(8));
            break;
          }
          case 2:
            net.engine().run(1 + rng.below(200));
            break;
          case 3:
            net.link(static_cast<LinkId>(rng.below(net.numLinks())))
                .setFault(rng.below(2) == 0 ? LinkFault::Dead
                                            : LinkFault::None);
            break;
          case 4: {
            MetroRouter &r = net.router(
                static_cast<RouterId>(rng.below(net.numRouters())));
            if (rng.below(2) == 0)
                r.setForwardEnabled(rng.below(r.params().numForward),
                                    rng.below(3) != 0);
            else
                r.setBackwardEnabled(
                    rng.below(r.params().numBackward), rng.below(3) != 0);
            break;
          }
          case 5:
            net.router(static_cast<RouterId>(
                           rng.below(net.numRouters())))
                .shutdownAllConnections();
            break;
          default: {
            // Save, throw the instance away, restore into a fresh
            // one (alternating engine thread counts), and require
            // the restored masks to equal the saved ones.
            CheckpointParticipants parts;
            parts.net = &net;
            const auto bytes = saveCheckpointBytes(kDigest, parts);
            std::vector<MetroRouter::PortMasks> saved;
            for (RouterId r = 0; r < net.numRouters(); ++r)
                saved.push_back(net.router(r).portMasks());
            auto fresh = std::make_unique<MaskNet>(
                kSeed, restores % 2 == 0 ? 4 : 1);
            CheckpointParticipants into;
            into.net = fresh->net.get();
            ASSERT_EQ(restoreCheckpointBytes(bytes.data(), bytes.size(),
                                             kDigest, into),
                      "");
            for (RouterId r = 0; r < net.numRouters(); ++r) {
                const auto &m = fresh->net->router(r).portMasks();
                ASSERT_EQ(m.activeFwd, saved[r].activeFwd);
                ASSERT_EQ(m.activeBwd, saved[r].activeBwd);
                ASSERT_EQ(m.nonIdle, saved[r].nonIdle);
                ASSERT_EQ(m.busy, saved[r].busy);
                restoredBusy += m.busy != 0;
            }
            inst = std::move(fresh);
            ++restores;
            break;
          }
        }
        ASSERT_NO_FATAL_FAILURE(inst->check()) << "op " << op;
    }
    EXPECT_GT(restores, 20u);
    EXPECT_GT(restoredBusy, 0u);
}

} // namespace
} // namespace metro
