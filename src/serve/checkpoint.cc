#include "serve/checkpoint.hh"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <mutex>
#include <optional>
#include <vector>

#include <fcntl.h>
#include <unistd.h>

#include "diag/engine.hh"
#include "endpoint/interface.hh"
#include "endpoint/message.hh"
#include "fault/campaign.hh"
#include "fault/injector.hh"
#include "network/network.hh"
#include "obs/registry.hh"
#include "router/router.hh"
#include "serve/stateio.hh"
#include "sim/arena.hh"
#include "sim/engine.hh"
#include "sim/link.hh"
#include "traffic/drivers.hh"

namespace metro
{

namespace
{

constexpr std::uint32_t
fourcc(char a, char b, char c, char d)
{
    return static_cast<std::uint32_t>(static_cast<unsigned char>(a)) |
           (static_cast<std::uint32_t>(static_cast<unsigned char>(b))
            << 8) |
           (static_cast<std::uint32_t>(static_cast<unsigned char>(c))
            << 16) |
           (static_cast<std::uint32_t>(static_cast<unsigned char>(d))
            << 24);
}

constexpr std::uint32_t kTagEngine = fourcc('E', 'N', 'G', 'I');
constexpr std::uint32_t kTagSched = fourcc('S', 'C', 'H', 'D');
constexpr std::uint32_t kTagArena = fourcc('A', 'R', 'E', 'N');
constexpr std::uint32_t kTagLinks = fourcc('L', 'I', 'N', 'K');
constexpr std::uint32_t kTagCascades = fourcc('C', 'A', 'S', 'C');
constexpr std::uint32_t kTagRouters = fourcc('R', 'O', 'U', 'T');
constexpr std::uint32_t kTagTracker = fourcc('T', 'R', 'A', 'K');
constexpr std::uint32_t kTagEndpoints = fourcc('E', 'N', 'D', 'P');
constexpr std::uint32_t kTagGate = fourcc('G', 'A', 'T', 'E');
constexpr std::uint32_t kTagMetrics = fourcc('M', 'E', 'T', 'R');
constexpr std::uint32_t kTagClosed = fourcc('D', 'R', 'V', 'C');
constexpr std::uint32_t kTagOpen = fourcc('D', 'R', 'V', 'O');
constexpr std::uint32_t kTagInjector = fourcc('I', 'N', 'J', 'E');
constexpr std::uint32_t kTagCampaign = fourcc('C', 'A', 'M', 'P');
constexpr std::uint32_t kTagDiag = fourcc('D', 'I', 'A', 'G');
constexpr std::uint32_t kTagHarness = fourcc('H', 'A', 'R', 'N');
constexpr std::uint32_t kTagDone = fourcc('D', 'O', 'N', 'E');

void
expectTag(StateReader &r, std::uint32_t tag, const char *name)
{
    if (r.ok() && r.u32() != tag)
        r.fail(std::string("section tag mismatch: expected ") + name);
}

void
putRng(StateWriter &w, const Xoshiro256 &rng)
{
    std::uint64_t s[4];
    rng.stateWords(s);
    for (std::uint64_t v : s)
        w.u64(v);
}

void
getRng(StateReader &r, Xoshiro256 &rng)
{
    std::uint64_t s[4];
    for (auto &v : s)
        v = r.u64();
    if (r.ok())
        rng.setStateWords(s);
}

void
putSymbol(StateWriter &w, const Symbol &s)
{
    w.u8(static_cast<std::uint8_t>(s.kind));
    w.u64(s.value);
    w.u64(s.route);
    w.u16(s.routeLen);
    w.u16(s.routePos);
    w.u64(s.msgId);
}

void
getSymbol(StateReader &r, Symbol &s)
{
    const std::uint8_t kind = r.u8();
    s.value = r.u64();
    s.route = r.u64();
    s.routeLen = r.u16();
    s.routePos = r.u16();
    s.msgId = r.u64();
    if (!r.ok())
        return;
    if (kind > static_cast<std::uint8_t>(SymbolKind::Test)) {
        r.fail("invalid symbol kind");
        return;
    }
    // Route cursors feed shifts of a 64-bit word downstream.
    if (s.routeLen > 64 || s.routePos > 64) {
        r.fail("route cursor out of range");
        return;
    }
    s.kind = static_cast<SymbolKind>(kind);
}

void
putStatus(StateWriter &w, const StatusWord &s)
{
    w.u32(s.router);
    w.u8(s.stage);
    w.u8(s.blocked ? 1 : 0);
    w.u16(s.checksum);
    w.u32(s.port);
}

void
getStatus(StateReader &r, StatusWord &s)
{
    s.router = r.u32();
    s.stage = r.u8();
    s.blocked = r.u8() != 0;
    s.checksum = r.u16();
    s.port = r.u32();
}

void
putWords(StateWriter &w, const std::vector<Word> &v)
{
    w.u64(v.size());
    for (Word x : v)
        w.u64(x);
}

void
getWords(StateReader &r, std::vector<Word> &v)
{
    const std::uint64_t n = r.count(8);
    v.clear();
    if (!r.ok())
        return;
    v.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i)
        v.push_back(r.u64());
}

void
putBools(StateWriter &w, const std::vector<bool> &v)
{
    w.u64(v.size());
    for (bool b : v)
        w.u8(b ? 1 : 0);
}

/** Read a bool vector that must be exactly `expect` long (the
 *  fresh instance fixes the geometry). */
void
getBools(StateReader &r, std::vector<bool> &v, std::size_t expect)
{
    const std::uint64_t n = r.count(1);
    if (!r.ok())
        return;
    if (n != expect) {
        r.fail("flag vector size mismatch");
        return;
    }
    v.assign(n, false);
    for (std::uint64_t i = 0; i < n; ++i)
        v[i] = r.u8() != 0;
}

void
putCounterSet(StateWriter &w, const CounterSet &c)
{
    const auto entries = c.all();
    w.u64(entries.size());
    for (const auto &[name, value] : entries) {
        w.str(name);
        w.u64(value);
    }
}

void
getCounterSet(StateReader &r, CounterSet &c)
{
    const std::uint64_t n = r.count(16);
    if (!r.ok())
        return;
    c.reset();
    for (std::uint64_t i = 0; i < n; ++i) {
        const std::string name = r.str();
        const std::uint64_t value = r.u64();
        if (!r.ok())
            return;
        c.slot(name) = value;
    }
}

} // namespace

/**
 * The one class every stateful component befriends. All private
 * field access during save/restore funnels through here; the
 * public entry points below are thin wrappers.
 */
class CheckpointIO
{
  public:
    static void save(StateWriter &w, std::uint64_t digest,
                     const CheckpointParticipants &parts,
                     const std::vector<std::uint8_t> &harness);
    static std::string restore(StateReader &r, std::uint64_t digest,
                               const CheckpointParticipants &parts,
                               std::vector<std::uint8_t> *harness);

    static void saveArena(StateWriter &w, const LaneArena &a);
    static void restoreArena(StateReader &r, LaneArena &a);

  private:
    static void putHistogram(StateWriter &w, const LogHistogram &h);
    static void getHistogram(StateReader &r, LogHistogram &h);

    static void saveRouter(StateWriter &w, const MetroRouter &rt);
    static void restoreRouter(StateReader &r, MetroRouter &rt);

    static void saveEndpoint(StateWriter &w,
                             const NetworkInterface &ni);
    static void restoreEndpoint(StateReader &r, NetworkInterface &ni,
                                const MessageTracker &tracker);

    static void saveTracker(StateWriter &w, const MessageTracker &t);
    static void restoreTracker(StateReader &r, MessageTracker &t);

    static void saveRegistry(StateWriter &w,
                             const MetricsRegistry &m);
    static void restoreRegistry(StateReader &r, MetricsRegistry &m);

    static void saveDiag(StateWriter &w, const DiagnosisEngine &d);
    static void restoreDiag(StateReader &r, DiagnosisEngine &d);
};

void
CheckpointIO::putHistogram(StateWriter &w, const LogHistogram &h)
{
    for (unsigned k = 0; k < LogHistogram::kBuckets; ++k)
        w.u64(h.buckets_[k]);
    w.u64(h.count_);
    w.u64(h.sum_);
}

void
CheckpointIO::getHistogram(StateReader &r, LogHistogram &h)
{
    std::uint64_t buckets[LogHistogram::kBuckets];
    for (auto &b : buckets)
        b = r.u64();
    const std::uint64_t count = r.u64();
    const std::uint64_t sum = r.u64();
    if (!r.ok())
        return;
    for (unsigned k = 0; k < LogHistogram::kBuckets; ++k)
        h.buckets_[k] = buckets[k];
    h.count_ = count;
    h.sum_ = sum;
}

/*
 * The arena section keeps the format-v3 layout of the rotating-ring
 * arena the clock-indexed one replaced: per lane, L ring slots
 * (lanes back to back), a head cursor into them, an occupancy, a
 * staged push with its flag, and the flag byte. The clock ring maps
 * onto it with a canonical head — the first slot of each lane, which
 * holds the symbol read in the lane's current cycle T, the next slot
 * the one read at T + 1, and so on — and a staged push only where
 * the lane has one (a lane frozen mid-cycle). Occupancy is derived.
 */
void
CheckpointIO::saveArena(StateWriter &w, const LaneArena &a)
{
    const auto lanes = static_cast<LaneId>(a.lanes());
    const auto clock = [&a](LaneId lane) { return a.clock(a.ref(lane)); };
    const auto at = [&a](LaneId lane, Cycle t) {
        return a.symbolAt(a.rings_[lane], t);
    };
    w.u64(lanes);
    w.u64(a.imageSlots_);
    for (LaneId lane = 0; lane < lanes; ++lane) {
        const Cycle T = clock(lane);
        for (Cycle t = T - a.latency(lane); t != T; ++t)
            putSymbol(w, at(lane, t));
    }
    std::uint32_t base = 0;
    for (LaneId lane = 0; lane < lanes; ++lane) {
        w.u32(base);
        base += a.latency(lane);
    }
    for (LaneId lane = 0; lane < lanes; ++lane)
        w.u32(a.occupied(lane));
    for (LaneId lane = 0; lane < lanes; ++lane)
        putSymbol(w, at(lane, clock(lane)));
    for (LaneId lane = 0; lane < lanes; ++lane) {
        const Cycle T = clock(lane);
        w.u8(a.written(a.slotAt(a.rings_[lane], T), T) ? 1 : 0);
    }
    for (LaneId lane = 0; lane < lanes; ++lane)
        w.u8(a.flags_[lane] & LaneArena::kPersistedFlags);
}

void
CheckpointIO::restoreArena(StateReader &r, LaneArena &a)
{
    const std::uint64_t lanes = r.u64();
    const std::uint64_t slots = r.u64();
    if (!r.ok())
        return;
    if (lanes != a.lanes() || slots != a.imageSlots_) {
        r.fail("arena geometry mismatch");
        return;
    }
    // Read and check the whole image before touching the arena.
    std::vector<Symbol> ring(slots);
    for (Symbol &s : ring)
        getSymbol(r, s);
    std::vector<std::uint32_t> head(lanes), occupancy(lanes);
    std::vector<Symbol> pending(lanes);
    std::vector<std::uint8_t> pushed(lanes), flags(lanes);
    std::uint32_t base = 0;
    for (LaneId lane = 0; lane < lanes && r.ok(); ++lane) {
        head[lane] = r.u32();
        // The cursor indexes this lane's slots of the image.
        if (r.ok() && (head[lane] < base ||
                       head[lane] >= base + a.latency(lane)))
            r.fail("lane head cursor out of range");
        base += a.latency(lane);
    }
    for (std::uint32_t &o : occupancy)
        o = r.u32();
    for (Symbol &s : pending)
        getSymbol(r, s);
    for (std::uint8_t &p : pushed)
        p = r.u8();
    for (std::uint8_t &f : flags) {
        f = r.u8();
        if (r.ok() && (f & ~LaneArena::kPersistedFlags) != 0)
            r.fail("unknown lane flag bits");
    }
    if (!r.ok())
        return;
    base = 0;
    for (LaneId lane = 0; lane < lanes; ++lane) {
        const unsigned L = a.latency(lane);
        unsigned held = pushed[lane] != 0 &&
                                pending[lane].kind != SymbolKind::Empty
                            ? 1
                            : 0;
        for (unsigned k = 0; k < L; ++k)
            held += ring[base + k].kind != SymbolKind::Empty ? 1 : 0;
        if (held != occupancy[lane]) {
            r.fail("lane occupancy disagrees with its symbols");
            return;
        }
        // A sleeping link's lanes hold nothing (see Link::activate).
        if (held != 0 && (flags[lane] & (LaneArena::kLanePaused |
                                         LaneArena::kLaneFrozen)) ==
                             LaneArena::kLanePaused) {
            r.fail("paused lane holds symbols");
            return;
        }
        base += L;
    }

    // Map the image into the clock ring at the arena's current
    // cycle; frozen lanes freeze there.
    const Cycle now = a.now_;
    base = 0;
    for (LaneId lane = 0; lane < lanes; ++lane) {
        const unsigned L = a.latency(lane);
        a.flush(lane);
        a.flags_[lane] = flags[lane];
        a.frozenAt_[lane] = now;
        const std::uint32_t off = head[lane] - base;
        for (unsigned k = 0; k < L; ++k)
            a.put(lane, now - L + k, ring[base + (off + k) % L]);
        if (pushed[lane] != 0)
            a.put(lane, now, pending[lane]);
        base += L;
    }
    // Derived: the sleeping-lane tally the fastpath accounting reads,
    // the census list and every lane's pending drain report.
    a.rederive();
}

void
CheckpointIO::saveRouter(StateWriter &w, const MetroRouter &rt)
{
    // TAP-writable configuration (drain/maintenance and diagnosis
    // masks land here), then fault state, then the per-port SoA
    // connection state.
    w.u32(rt.config_.dilation);
    w.u32(rt.config_.backwardPortsUsed);
    putBools(w, rt.config_.forwardEnabled);
    putBools(w, rt.config_.backwardEnabled);
    putBools(w, rt.config_.offPortDrive);
    putBools(w, rt.config_.fastReclaim);
    putBools(w, rt.config_.swallow);
    w.u64(rt.config_.turnDelay.size());
    for (unsigned t : rt.config_.turnDelay)
        w.u32(t);
    w.u8(rt.config_.randomSelection ? 1 : 0);
    w.u32(rt.config_.idleTimeout);

    w.u8(rt.dead_ ? 1 : 0);
    w.u8(rt.misroute_ ? 1 : 0);
    putRng(w, rt.misrouteRng_);

    const std::size_t nF = rt.fState_.size();
    const std::size_t nB = rt.bLink_.size();
    w.u64(nF);
    w.u64(nB);
    for (std::size_t p = 0; p < nF; ++p) {
        w.u8(static_cast<std::uint8_t>(rt.fState_[p]));
        w.u32(rt.fBwd_[p]);
        w.u32(rt.fConsumeLeft_[p]);
        w.u16(rt.fPosAfter_[p]);
        w.u8(rt.fSwallowFirst_[p]);
        w.u8(rt.fFirstHeaderDone_[p]);
        w.u16(rt.fCrc_[p].value());
        w.u32(rt.fDirection_[p]);
        w.u64(rt.fLastActivity_[p]);
        w.u64(rt.fMsgId_[p]);
        putSymbol(w, rt.fLastTest_[p]);
    }
    for (std::size_t b = 0; b < nB; ++b) {
        w.u8((rt.masks_.busy >> b) & 1);
        w.u32(rt.bOwner_[b]);
        w.u8((rt.revRead_ >> b) & 1);
    }
    w.u8(rt.offDrive_ != 0 ? 1 : 0);
    putCounterSet(w, rt.counters_);
}

void
CheckpointIO::restoreRouter(StateReader &r, MetroRouter &rt)
{
    const std::size_t nFwd = rt.fState_.size();
    const std::size_t nBwd = rt.bLink_.size();

    RouterConfig cfg;
    cfg.dilation = r.u32();
    cfg.backwardPortsUsed = r.u32();
    getBools(r, cfg.forwardEnabled, nFwd);
    getBools(r, cfg.backwardEnabled, nBwd);
    getBools(r, cfg.offPortDrive, nBwd);
    getBools(r, cfg.fastReclaim, nFwd);
    getBools(r, cfg.swallow, nFwd);
    const std::uint64_t nTurn = r.count(4);
    if (r.ok() && nTurn != rt.config_.turnDelay.size())
        r.fail("turn-delay vector size mismatch");
    if (!r.ok())
        return;
    cfg.turnDelay.resize(nTurn);
    for (auto &t : cfg.turnDelay)
        t = r.u32();
    cfg.randomSelection = r.u8() != 0;
    cfg.idleTimeout = r.u32();
    if (!r.ok())
        return;
    if (cfg.dilation == 0 || cfg.dilation > nBwd ||
        cfg.backwardPortsUsed > nBwd) {
        r.fail("router config out of range");
        return;
    }
    rt.config_ = std::move(cfg);

    rt.dead_ = r.u8() != 0;
    rt.misroute_ = r.u8() != 0;
    getRng(r, rt.misrouteRng_);

    const std::uint64_t nF = r.u64();
    const std::uint64_t nB = r.u64();
    if (!r.ok())
        return;
    if (nF != nFwd || nB != nBwd) {
        r.fail("router port count mismatch");
        return;
    }
    for (std::size_t p = 0; p < nFwd && r.ok(); ++p) {
        const std::uint8_t state = r.u8();
        const PortIndex bwd = r.u32();
        const std::uint32_t consume = r.u32();
        const std::uint16_t posAfter = r.u16();
        const std::uint8_t swallowFirst = r.u8();
        const std::uint8_t firstHeader = r.u8();
        const std::uint16_t crc = r.u16();
        const std::uint32_t direction = r.u32();
        const Cycle lastActivity = r.u64();
        const std::uint64_t msgId = r.u64();
        Symbol lastTest;
        getSymbol(r, lastTest);
        if (!r.ok())
            break;
        if (state > static_cast<std::uint8_t>(FwdPortState::Draining)) {
            r.fail("invalid forward-port state");
            break;
        }
        if (bwd != kInvalidPort && bwd >= nBwd) {
            r.fail("forward port's backward index out of range");
            break;
        }
        if (posAfter > 64) {
            r.fail("forward port route cursor out of range");
            break;
        }
        rt.fState_[p] = static_cast<FwdPortState>(state);
        rt.fBwd_[p] = bwd;
        rt.fConsumeLeft_[p] = consume;
        rt.fPosAfter_[p] = posAfter;
        rt.fSwallowFirst_[p] = swallowFirst != 0 ? 1 : 0;
        rt.fFirstHeaderDone_[p] = firstHeader != 0 ? 1 : 0;
        rt.fCrc_[p].setValue(crc);
        rt.fDirection_[p] = direction;
        rt.fLastActivity_[p] = lastActivity;
        rt.fMsgId_[p] = msgId;
        rt.fLastTest_[p] = lastTest;
    }
    rt.masks_.busy = 0;
    rt.revRead_ = 0;
    for (std::size_t b = 0; b < nBwd && r.ok(); ++b) {
        const std::uint8_t busy = r.u8();
        const PortIndex owner = r.u32();
        const std::uint8_t revRead = r.u8();
        if (!r.ok())
            break;
        if (owner != kInvalidPort && owner >= nFwd) {
            r.fail("backward port's owner index out of range");
            break;
        }
        if (busy != 0)
            rt.masks_.busy |= std::uint64_t{1} << b;
        rt.bOwner_[b] = owner;
        if (revRead != 0)
            rt.revRead_ |= std::uint64_t{1} << b;
    }
    (void)r.u8(); // off-port drive armed: derived from the config
    getCounterSet(r, rt.counters_);
    if (!r.ok())
        return;
    // Derived state: the forward ports' non-Idle mask, the off-port
    // drive mask, the availability snapshot (refilled from the
    // restored config/busy flags), and no stale grant records from
    // the pre-restore instance. The link-activity masks are rebuilt
    // by the link restore (Link::syncActivityBits).
    rt.masks_.nonIdle = 0;
    for (std::size_t p = 0; p < nFwd; ++p) {
        if (rt.fState_[p] != FwdPortState::Idle)
            rt.masks_.nonIdle |= std::uint64_t{1} << p;
    }
    rt.refreshOffPortDrive();
    rt.availDirty_ = true;
    rt.lastGrants_.clear();
}

void
CheckpointIO::saveEndpoint(StateWriter &w, const NetworkInterface &ni)
{
    putRng(w, ni.rng_);
    w.u64(ni.policy_ != nullptr ? ni.policy_->checkpointState() : 0);
    w.f64(ni.budget_.tokens_);

    w.u64(ni.queue_.size());
    for (std::uint64_t id : ni.queue_)
        w.u64(id);
    w.u8(static_cast<std::uint8_t>(ni.sendState_));
    w.u64(ni.activeMsg_);
    w.u32(ni.outPort_);
    w.u64(ni.stream_.size());
    for (const Symbol &s : ni.stream_)
        putSymbol(w, s);
    w.u64(ni.cursor_);
    w.u64(ni.turnSent_);
    w.u64(ni.backoffUntil_);
    w.u64(ni.prevBackoff_);
    w.u64(ni.lastCycle_);
    w.u8(ni.gateHeld_ ? 1 : 0);
    w.u64(ni.statuses_.size());
    for (const StatusWord &s : ni.statuses_)
        putStatus(w, s);
    w.u8(ni.sawBlockedStatus_ ? 1 : 0);
    w.u8(static_cast<std::uint8_t>(ni.abortCause_));
    w.u64(ni.sentChecksum_);
    w.u8(ni.ackSeen_ ? 1 : 0);
    w.u64(ni.ack_.encode());
    putWords(w, ni.replyWords_);
    w.u64(ni.replySliceCrc_.size());
    for (const Crc16 &c : ni.replySliceCrc_)
        w.u16(c.value());
    w.u8(ni.replyChecksumSeen_ ? 1 : 0);
    w.u64(ni.replyChecksum_);
    w.u32(ni.nextSequence_);
    w.u32(ni.roundIndex_);
    w.u32(ni.roundsAckedOk_);
    w.u64(ni.sessionReplies_.size());
    for (const auto &round : ni.sessionReplies_)
        putWords(w, round);
    w.u64(ni.attemptStart_);
    w.u64(static_cast<std::uint64_t>(ni.protocolRead_));

    putBools(w, ni.outPortEnabled_);

    // unordered_map: emit sorted so the byte stream is stable.
    {
        std::vector<std::pair<NodeId, std::uint32_t>> seqs(
            ni.lastDeliveredSeq_.begin(), ni.lastDeliveredSeq_.end());
        std::sort(seqs.begin(), seqs.end());
        w.u64(seqs.size());
        for (const auto &[node, seq] : seqs) {
            w.u32(node);
            w.u32(seq);
        }
    }

    w.u64(ni.in_.size());
    for (const auto &port : ni.in_) {
        w.u8(static_cast<std::uint8_t>(port.state));
        w.u64(port.msgId);
        w.u64(port.sliceCrc.size());
        for (const Crc16 &c : port.sliceCrc)
            w.u16(c.value());
        putWords(w, port.words);
        w.u8(port.checksumSeen ? 1 : 0);
        w.u64(port.checksum);
        w.u64(port.replyQueue.size());
        for (const Symbol &s : port.replyQueue)
            putSymbol(w, s);
        w.u64(port.lastActivity);
        w.u32(port.round);
    }

    putCounterSet(w, ni.counters_);
}

void
CheckpointIO::restoreEndpoint(StateReader &r, NetworkInterface &ni,
                              const MessageTracker &tracker)
{
    getRng(r, ni.rng_);
    const std::uint64_t policyState = r.u64();
    if (r.ok() && ni.policy_ != nullptr)
        ni.policy_->restoreCheckpointState(policyState);
    ni.budget_.tokens_ = r.f64();

    const std::uint64_t nQueue = r.count(8);
    if (!r.ok())
        return;
    ni.queue_.clear();
    for (std::uint64_t i = 0; i < nQueue; ++i) {
        const std::uint64_t id = r.u64();
        if (!r.ok())
            return;
        if (!tracker.known(id)) {
            r.fail("queued message id unknown to the ledger");
            return;
        }
        ni.queue_.push_back(id);
    }
    const std::uint8_t sendState = r.u8();
    if (r.ok() &&
        sendState >
            static_cast<std::uint8_t>(
                NetworkInterface::SendState::Backoff)) {
        r.fail("invalid endpoint send state");
        return;
    }
    ni.sendState_ = static_cast<NetworkInterface::SendState>(sendState);
    const std::uint64_t activeMsg = r.u64();
    if (r.ok() && activeMsg != 0 && !tracker.known(activeMsg)) {
        r.fail("active message id unknown to the ledger");
        return;
    }
    ni.activeMsg_ = activeMsg;
    const std::uint32_t outPort = r.u32();
    if (r.ok() && !ni.out_.empty() && outPort >= ni.out_.size()) {
        r.fail("endpoint out-port index out of range");
        return;
    }
    ni.outPort_ = outPort;
    const std::uint64_t nStream = r.count(1);
    if (!r.ok())
        return;
    ni.stream_.assign(nStream, Symbol{});
    for (Symbol &s : ni.stream_)
        getSymbol(r, s);
    const std::uint64_t cursor = r.u64();
    if (r.ok() && cursor > ni.stream_.size()) {
        r.fail("stream cursor out of range");
        return;
    }
    ni.cursor_ = cursor;
    ni.turnSent_ = r.u64();
    ni.backoffUntil_ = r.u64();
    ni.prevBackoff_ = r.u64();
    ni.lastCycle_ = r.u64();
    ni.gateHeld_ = r.u8() != 0;
    const std::uint64_t nStatus = r.count(12);
    if (!r.ok())
        return;
    ni.statuses_.assign(nStatus, StatusWord{});
    for (StatusWord &s : ni.statuses_)
        getStatus(r, s);
    ni.sawBlockedStatus_ = r.u8() != 0;
    const std::uint8_t abortCause = r.u8();
    if (r.ok() &&
        abortCause >
            static_cast<std::uint8_t>(AttemptOutcome::RoundFail)) {
        r.fail("invalid attempt outcome");
        return;
    }
    ni.abortCause_ = static_cast<AttemptOutcome>(abortCause);
    ni.sentChecksum_ = r.u64();
    ni.ackSeen_ = r.u8() != 0;
    ni.ack_ = AckWord::decode(r.u64());
    getWords(r, ni.replyWords_);
    // Slice-CRC vectors are empty until a message is in flight,
    // then hold one entry per cascade slice: the count is state,
    // not structure, so resize to the saved value (bounded).
    const std::uint64_t nCrc = r.count(2);
    if (!r.ok())
        return;
    if (nCrc != 0 && nCrc != ni.cascade_) {
        r.fail("reply slice-CRC count mismatch");
        return;
    }
    ni.replySliceCrc_.assign(nCrc, Crc16{});
    for (Crc16 &c : ni.replySliceCrc_)
        c.setValue(r.u16());
    ni.replyChecksumSeen_ = r.u8() != 0;
    ni.replyChecksum_ = r.u64();
    ni.nextSequence_ = r.u32();
    ni.roundIndex_ = r.u32();
    ni.roundsAckedOk_ = r.u32();
    const std::uint64_t nRounds = r.count(8);
    if (!r.ok())
        return;
    ni.sessionReplies_.assign(nRounds, {});
    for (auto &round : ni.sessionReplies_)
        getWords(r, round);
    ni.attemptStart_ = r.u64();
    ni.protocolRead_ = static_cast<std::size_t>(r.u64());

    getBools(r, ni.outPortEnabled_, ni.outPortEnabled_.size());

    const std::uint64_t nSeqs = r.count(8);
    if (!r.ok())
        return;
    ni.lastDeliveredSeq_.clear();
    for (std::uint64_t i = 0; i < nSeqs; ++i) {
        const NodeId node = r.u32();
        const std::uint32_t seq = r.u32();
        if (!r.ok())
            return;
        ni.lastDeliveredSeq_[node] = seq;
    }

    const std::uint64_t nIn = r.count(1);
    if (!r.ok())
        return;
    if (nIn != ni.in_.size()) {
        r.fail("endpoint receive-port count mismatch");
        return;
    }
    for (auto &port : ni.in_) {
        const std::uint8_t state = r.u8();
        if (r.ok() &&
            state > static_cast<std::uint8_t>(
                        NetworkInterface::RecvState::Replying)) {
            r.fail("invalid endpoint receive state");
            return;
        }
        port.state = static_cast<NetworkInterface::RecvState>(state);
        port.msgId = r.u64();
        const std::uint64_t nSlice = r.count(2);
        if (!r.ok())
            return;
        if (nSlice != 0 && nSlice != ni.cascade_) {
            r.fail("receive slice-CRC count mismatch");
            return;
        }
        port.sliceCrc.assign(nSlice, Crc16{});
        for (Crc16 &c : port.sliceCrc)
            c.setValue(r.u16());
        getWords(r, port.words);
        port.checksumSeen = r.u8() != 0;
        port.checksum = r.u64();
        const std::uint64_t nReply = r.count(1);
        if (!r.ok())
            return;
        port.replyQueue.clear();
        for (std::uint64_t i = 0; i < nReply; ++i) {
            Symbol s;
            getSymbol(r, s);
            if (!r.ok())
                return;
            port.replyQueue.push_back(s);
        }
        port.lastActivity = r.u64();
        port.round = r.u32();
        if (!r.ok())
            return;
    }

    getCounterSet(r, ni.counters_);
}

void
CheckpointIO::saveTracker(StateWriter &w, const MessageTracker &t)
{
    w.u64(t.nextId_);
    // unordered_map: emit in id order for a stable byte stream.
    std::vector<const MessageRecord *> recs;
    recs.reserve(t.records_.size());
    for (const auto &[id, rec] : t.records_)
        recs.push_back(&rec);
    std::sort(recs.begin(), recs.end(),
              [](const MessageRecord *a, const MessageRecord *b) {
                  return a->id < b->id;
              });
    w.u64(recs.size());
    for (const MessageRecord *rec : recs) {
        w.u64(rec->id);
        w.u32(rec->src);
        w.u32(rec->dest);
        w.u32(rec->sequence);
        putWords(w, rec->payload);
        w.u8(rec->requestReply ? 1 : 0);
        w.u64(rec->submitCycle);
        w.u64(rec->injectCycle);
        w.u64(rec->deliverCycle);
        w.u64(rec->ackCycle);
        w.u64(rec->completeCycle);
        w.u32(rec->attempts);
        w.u32(rec->deliveredCount);
        w.u32(rec->arrivalCount);
        w.u8(rec->succeeded ? 1 : 0);
        w.u8(rec->gaveUp ? 1 : 0);
        w.u8(rec->starved ? 1 : 0);
        w.u8(rec->shedAdmission ? 1 : 0);
        w.u64(rec->statuses.size());
        for (const StatusWord &s : rec->statuses)
            putStatus(w, s);
        putWords(w, rec->reply);
        w.u8(rec->replyOk ? 1 : 0);
        w.u64(rec->sessionRounds.size());
        for (const auto &round : rec->sessionRounds)
            putWords(w, round);
        w.u64(rec->sessionReplies.size());
        for (const auto &round : rec->sessionReplies)
            putWords(w, round);
        w.u32(rec->roundsCompleted);
        w.u8(rec->trafficClass);
        w.u64(rec->rpcGroup);
        w.u32(rec->rpcFanout);
    }
}

void
CheckpointIO::restoreTracker(StateReader &r, MessageTracker &t)
{
    const std::uint64_t nextId = r.u64();
    const std::uint64_t nRecs = r.count(64);
    if (!r.ok())
        return;
    t.nextId_ = nextId;
    t.records_.clear();
    for (std::uint64_t i = 0; i < nRecs; ++i) {
        MessageRecord rec;
        rec.id = r.u64();
        rec.src = r.u32();
        rec.dest = r.u32();
        rec.sequence = r.u32();
        getWords(r, rec.payload);
        rec.requestReply = r.u8() != 0;
        rec.submitCycle = r.u64();
        rec.injectCycle = r.u64();
        rec.deliverCycle = r.u64();
        rec.ackCycle = r.u64();
        rec.completeCycle = r.u64();
        rec.attempts = r.u32();
        rec.deliveredCount = r.u32();
        rec.arrivalCount = r.u32();
        rec.succeeded = r.u8() != 0;
        rec.gaveUp = r.u8() != 0;
        rec.starved = r.u8() != 0;
        rec.shedAdmission = r.u8() != 0;
        const std::uint64_t nStatus = r.count(12);
        if (!r.ok())
            return;
        rec.statuses.assign(nStatus, StatusWord{});
        for (StatusWord &s : rec.statuses)
            getStatus(r, s);
        getWords(r, rec.reply);
        rec.replyOk = r.u8() != 0;
        const std::uint64_t nRounds = r.count(8);
        if (!r.ok())
            return;
        rec.sessionRounds.assign(nRounds, {});
        for (auto &round : rec.sessionRounds)
            getWords(r, round);
        const std::uint64_t nReplies = r.count(8);
        if (!r.ok())
            return;
        rec.sessionReplies.assign(nReplies, {});
        for (auto &round : rec.sessionReplies)
            getWords(r, round);
        rec.roundsCompleted = r.u32();
        rec.trafficClass = r.u8();
        rec.rpcGroup = r.u64();
        rec.rpcFanout = static_cast<std::uint16_t>(r.u32());
        if (!r.ok())
            return;
        const std::uint64_t id = rec.id;
        if (id == 0 || id >= nextId ||
            t.records_.count(id) != 0) {
            r.fail("ledger record id invalid or duplicated");
            return;
        }
        t.records_.emplace(id, std::move(rec));
    }
}

void
CheckpointIO::saveRegistry(StateWriter &w, const MetricsRegistry &m)
{
    w.u64(m.counters().size());
    for (const auto &[name, value] : m.counters()) {
        w.str(name);
        w.u64(value);
    }
    w.u64(m.histograms().size());
    for (const auto &[name, hist] : m.histograms()) {
        w.str(name);
        putHistogram(w, hist);
    }
}

void
CheckpointIO::restoreRegistry(StateReader &r, MetricsRegistry &m)
{
    // Overwrite every saved slot; zero live slots the checkpoint
    // does not name (the saver never shrinks its registry, so any
    // extra live slot is pre-restore noise). Never clear() — live
    // components hold interned pointers into these map nodes.
    const std::uint64_t nCounters = r.count(16);
    if (!r.ok())
        return;
    std::map<std::string, std::uint64_t> counters;
    for (std::uint64_t i = 0; i < nCounters; ++i) {
        const std::string name = r.str();
        const std::uint64_t value = r.u64();
        if (!r.ok())
            return;
        counters[name] = value;
    }
    const std::uint64_t nHists = r.count(16);
    if (!r.ok())
        return;
    std::map<std::string, LogHistogram> hists;
    for (std::uint64_t i = 0; i < nHists; ++i) {
        const std::string name = r.str();
        LogHistogram h;
        getHistogram(r, h);
        if (!r.ok())
            return;
        hists.emplace(name, h);
    }
    for (const auto &[name, value] : m.counters()) {
        if (counters.find(name) == counters.end())
            m.counter(name) = 0;
        (void)value;
    }
    for (const auto &[name, value] : counters)
        m.counter(name) = value;
    for (const auto &[name, hist] : m.histograms()) {
        if (hists.find(name) == hists.end())
            m.histogram(name).reset();
        (void)hist;
    }
    for (const auto &[name, hist] : hists)
        m.histogram(name) = hist;
}

void
CheckpointIO::saveDiag(StateWriter &w, const DiagnosisEngine &d)
{
    w.u64(d.scores_.size());
    for (const auto &[key, score] : d.scores_) {
        w.u64(key);
        w.u64(score.bad);
        w.u64(score.good);
        w.u64(score.firstBad);
    }
    w.u64(d.masked_.size());
    for (const auto &[key, mask] : d.masked_) {
        w.u64(key);
        w.u8(static_cast<std::uint8_t>(mask.kind));
        w.u32(mask.id);
        w.u32(mask.port);
        w.u64(mask.nextAction);
        w.u64(mask.pattern);
        w.u8(mask.verifying ? 1 : 0);
        w.u8(mask.awaitingProbe ? 1 : 0);
    }
    w.u64(d.probeNonce_);
    w.u64(d.diary_.attemptsSeen_);
    w.u64(d.diary_.pending_.size());
    for (const SuspectReport &rep : d.diary_.pending_) {
        w.u8(static_cast<std::uint8_t>(rep.kind));
        w.u32(rep.id);
        w.u32(rep.port);
        w.u8(rep.stage);
        w.u8(rep.exonerate ? 1 : 0);
        w.u8(rep.weight);
        w.u64(rep.cycle);
    }
}

void
CheckpointIO::restoreDiag(StateReader &r, DiagnosisEngine &d)
{
    const std::uint64_t nScores = r.count(32);
    if (!r.ok())
        return;
    d.scores_.clear();
    for (std::uint64_t i = 0; i < nScores; ++i) {
        const std::uint64_t key = r.u64();
        DiagnosisEngine::Score s;
        s.bad = r.u64();
        s.good = r.u64();
        s.firstBad = r.u64();
        if (!r.ok())
            return;
        d.scores_[key] = s;
    }
    const std::uint64_t nMasks = r.count(26);
    if (!r.ok())
        return;
    d.masked_.clear();
    for (std::uint64_t i = 0; i < nMasks; ++i) {
        const std::uint64_t key = r.u64();
        const std::uint8_t kind = r.u8();
        const std::uint32_t id = r.u32();
        const PortIndex port = r.u32();
        const Cycle nextAction = r.u64();
        const Word pattern = r.u64();
        const bool verifying = r.u8() != 0;
        const bool awaitingProbe = r.u8() != 0;
        if (!r.ok())
            return;
        if (kind >
            static_cast<std::uint8_t>(SuspectKind::RouterOutput)) {
            r.fail("invalid suspect kind");
            return;
        }
        // The wire resolution is structural: re-derive it from the
        // freshly built topology map instead of trusting the file.
        const auto wireIt = d.wires_.find(key);
        if (wireIt == d.wires_.end()) {
            r.fail("masked wire unknown to this topology");
            return;
        }
        DiagnosisEngine::Mask m;
        m.kind = static_cast<SuspectKind>(kind);
        m.id = id;
        m.port = port;
        m.wire = wireIt->second;
        m.nextAction = nextAction;
        m.pattern = pattern;
        m.verifying = verifying;
        m.awaitingProbe = awaitingProbe;
        d.masked_.emplace(key, m);
    }
    d.probeNonce_ = r.u64();
    d.diary_.attemptsSeen_ = r.u64();
    const std::uint64_t nPending = r.count(20);
    if (!r.ok())
        return;
    d.diary_.pending_.clear();
    for (std::uint64_t i = 0; i < nPending; ++i) {
        SuspectReport rep;
        const std::uint8_t kind = r.u8();
        rep.id = r.u32();
        rep.port = r.u32();
        rep.stage = r.u8();
        rep.exonerate = r.u8() != 0;
        rep.weight = r.u8();
        rep.cycle = r.u64();
        if (!r.ok())
            return;
        if (kind >
            static_cast<std::uint8_t>(SuspectKind::RouterOutput)) {
            r.fail("invalid pending suspect kind");
            return;
        }
        rep.kind = static_cast<SuspectKind>(kind);
        d.diary_.pending_.push_back(rep);
    }
}

void
CheckpointIO::save(StateWriter &w, std::uint64_t digest,
                   const CheckpointParticipants &parts,
                   const std::vector<std::uint8_t> &harness)
{
    Network &net = *parts.net;
    Engine &eng = net.engine_;
    // Flush concurrent metric scratch and catch up sleepers' metric
    // samples: after this, every counter and histogram holds the
    // same value the uninterrupted run's window snapshot sees, and
    // no per-tick scratch is live.
    eng.syncStats();

    w.u32(kCheckpointMagic);
    w.u32(kCheckpointVersion);
    w.u64(digest);
    w.u64(eng.now_);

    w.u32(kTagEngine);
    w.u64(eng.ticksSkipped_);
    w.u64(eng.linksFastpathed_);

    w.u32(kTagSched);
    w.u64(eng.components_.size());
    for (const Component *c : eng.components_) {
        w.u8(c->schedAsleep_ ? 1 : 0);
        w.u64(c->wakeAt_);
        w.u64(c->sleptFrom_);
    }

    w.u32(kTagArena);
    saveArena(w, net.arena_);

    w.u32(kTagLinks);
    w.u64(net.links_.size());
    for (const auto &l : net.links_) {
        w.u8(static_cast<std::uint8_t>(l->fault_));
        w.u8(l->active_ ? 1 : 0);
        putRng(w, l->faultRng_);
    }

    w.u32(kTagCascades);
    w.u64(net.cascades_.size());
    for (const auto &c : net.cascades_)
        w.u64(c->containments_);

    w.u32(kTagRouters);
    w.u64(net.routers_.size());
    for (const auto &rt : net.routers_)
        saveRouter(w, *rt);

    w.u32(kTagTracker);
    saveTracker(w, net.tracker_);

    w.u32(kTagEndpoints);
    w.u64(net.endpoints_.size());
    for (const auto &ni : net.endpoints_)
        saveEndpoint(w, *ni);

    w.u32(kTagGate);
    w.u8(net.inflightGate_ != nullptr ? 1 : 0);
    if (net.inflightGate_ != nullptr) {
        w.u32(net.inflightGate_->limit_);
        w.u32(net.inflightGate_->active_);
    }

    w.u32(kTagMetrics);
    saveRegistry(w, net.metrics_);

    w.u32(kTagClosed);
    w.u64(parts.closedDrivers.size());
    for (const ClosedLoopDriver *d : parts.closedDrivers) {
        putRng(w, d->rng_);
        w.u64(d->nextSubmit_);
        w.u8(d->waiting_ ? 1 : 0);
        w.u64(d->submitted_);
        w.u64(d->ids_.size());
        for (std::uint64_t id : d->ids_)
            w.u64(id);
    }

    w.u32(kTagOpen);
    w.u64(parts.openDrivers.size());
    for (const OpenLoopDriver *d : parts.openDrivers) {
        putRng(w, d->rng_);
        w.u8(d->process_.phaseOn() ? 1 : 0);
        w.u64(d->submitted_);
        w.u64(d->ids_.size());
        for (std::uint64_t id : d->ids_)
            w.u64(id);
    }

    w.u32(kTagInjector);
    w.u8(parts.injector != nullptr ? 1 : 0);
    if (parts.injector != nullptr)
        w.u64(parts.injector->applied_);

    w.u32(kTagCampaign);
    w.u8(parts.campaign != nullptr ? 1 : 0);
    if (parts.campaign != nullptr) {
        FaultCampaign &camp = *parts.campaign;
        putRng(w, camp.rng_);
        w.u64(camp.downLinks_.size());
        for (LinkId l : camp.downLinks_)
            w.u32(l);
        w.u64(camp.deadRouters_.size());
        for (RouterId rid : camp.deadRouters_)
            w.u32(rid);
        w.u64(camp.flaky_.size());
        for (const auto &f : camp.flaky_) {
            w.u32(f.link);
            w.u64(f.nextToggle);
            w.u8(f.down ? 1 : 0);
        }
    }

    w.u32(kTagDiag);
    w.u8(parts.diagnosis != nullptr ? 1 : 0);
    if (parts.diagnosis != nullptr)
        saveDiag(w, *parts.diagnosis);

    w.u32(kTagHarness);
    w.blob(harness);

    w.u32(kTagDone);
}

std::string
CheckpointIO::restore(StateReader &r, std::uint64_t digest,
                      const CheckpointParticipants &parts,
                      std::vector<std::uint8_t> *harness)
{
    Network &net = *parts.net;
    Engine &eng = net.engine_;
    // Flush any pre-restore concurrent scratch into the registry
    // (which the checkpoint then overwrites wholesale): restoring
    // into an engine that already ran some cycles must not leave
    // stale per-component scratch to be flushed later.
    eng.syncStats();

    if (r.u32() != kCheckpointMagic)
        r.fail("bad checkpoint magic");
    if (r.ok() && r.u32() != kCheckpointVersion)
        r.fail("unsupported checkpoint version");
    if (r.ok() && r.u64() != digest)
        r.fail("config digest mismatch: this checkpoint was taken "
               "from a different configuration");
    const Cycle cycle = r.u64();

    expectTag(r, kTagEngine, "ENGI");
    const std::uint64_t ticksSkipped = r.u64();
    const std::uint64_t linksFastpathed = r.u64();

    expectTag(r, kTagSched, "SCHD");
    const std::uint64_t nComp = r.count(17);
    if (r.ok() && nComp != eng.components_.size())
        r.fail("engine component count mismatch (was the instance "
               "built with the same options?)");
    if (!r.ok())
        return r.error();
    for (Component *c : eng.components_) {
        c->schedAsleep_ = r.u8() != 0;
        c->wakeAt_ = r.u64();
        c->sleptFrom_ = r.u64();
        if (!r.ok())
            return r.error();
    }

    expectTag(r, kTagArena, "AREN");
    restoreArena(r, net.arena_);
    if (!r.ok())
        return r.error();

    expectTag(r, kTagLinks, "LINK");
    const std::uint64_t nLinks = r.count(34);
    if (r.ok() && nLinks != net.links_.size())
        r.fail("link count mismatch");
    if (!r.ok())
        return r.error();
    for (auto &l : net.links_) {
        const std::uint8_t fault = r.u8();
        const bool active = r.u8() != 0;
        getRng(r, l->faultRng_);
        if (!r.ok())
            return r.error();
        if (fault > static_cast<std::uint8_t>(LinkFault::Corrupt))
            return "invalid link fault state";
        // Direct writes, not setFault(): the side effects (census
        // seeding, reactivation) already happened before the save;
        // the arena flags carry the resulting state. The end
        // components' port-activity bits are derived from the flag.
        l->fault_ = static_cast<LinkFault>(fault);
        l->active_ = active;
        l->syncActivityBits();
        l->down_ = net.arena_.ref(l->down_.id); // restored freeze bits
        l->up_ = net.arena_.ref(l->up_.id);
    }

    expectTag(r, kTagCascades, "CASC");
    const std::uint64_t nCasc = r.count(8);
    if (r.ok() && nCasc != net.cascades_.size())
        r.fail("cascade group count mismatch");
    if (!r.ok())
        return r.error();
    for (auto &c : net.cascades_)
        c->containments_ = r.u64();

    expectTag(r, kTagRouters, "ROUT");
    const std::uint64_t nRouters = r.count(32);
    if (r.ok() && nRouters != net.routers_.size())
        r.fail("router count mismatch");
    if (!r.ok())
        return r.error();
    for (auto &rt : net.routers_) {
        restoreRouter(r, *rt);
        if (!r.ok())
            return r.error();
    }

    expectTag(r, kTagTracker, "TRAK");
    restoreTracker(r, net.tracker_);
    if (!r.ok())
        return r.error();

    expectTag(r, kTagEndpoints, "ENDP");
    const std::uint64_t nEps = r.count(32);
    if (r.ok() && nEps != net.endpoints_.size())
        r.fail("endpoint count mismatch");
    if (!r.ok())
        return r.error();
    for (auto &ni : net.endpoints_) {
        restoreEndpoint(r, *ni, net.tracker_);
        if (!r.ok())
            return r.error();
    }

    expectTag(r, kTagGate, "GATE");
    const bool gatePresent = r.u8() != 0;
    if (r.ok() && gatePresent != (net.inflightGate_ != nullptr))
        r.fail("inflight-gate presence mismatch");
    if (!r.ok())
        return r.error();
    if (gatePresent) {
        const std::uint32_t limit = r.u32();
        const std::uint32_t active = r.u32();
        if (r.ok() && limit != net.inflightGate_->limit_)
            r.fail("inflight-gate limit mismatch");
        if (!r.ok())
            return r.error();
        net.inflightGate_->active_ = active;
    }

    expectTag(r, kTagMetrics, "METR");
    restoreRegistry(r, net.metrics_);
    if (!r.ok())
        return r.error();

    expectTag(r, kTagClosed, "DRVC");
    const std::uint64_t nClosed = r.count(45);
    if (r.ok() && nClosed != parts.closedDrivers.size())
        r.fail("closed-loop driver count mismatch");
    if (!r.ok())
        return r.error();
    for (ClosedLoopDriver *d : parts.closedDrivers) {
        getRng(r, d->rng_);
        d->nextSubmit_ = r.u64();
        d->waiting_ = r.u8() != 0;
        d->submitted_ = r.u64();
        const std::uint64_t nIds = r.count(8);
        if (!r.ok())
            return r.error();
        d->ids_.clear();
        for (std::uint64_t i = 0; i < nIds; ++i) {
            const std::uint64_t id = r.u64();
            if (!r.ok())
                return r.error();
            if (!net.tracker_.known(id))
                return "driver message id unknown to the ledger";
            d->ids_.push_back(id);
        }
    }

    expectTag(r, kTagOpen, "DRVO");
    const std::uint64_t nOpen = r.count(48);
    if (r.ok() && nOpen != parts.openDrivers.size())
        r.fail("open-loop driver count mismatch");
    if (!r.ok())
        return r.error();
    for (OpenLoopDriver *d : parts.openDrivers) {
        getRng(r, d->rng_);
        d->process_.setPhaseOn(r.u8() != 0);
        d->submitted_ = r.u64();
        const std::uint64_t nIds = r.count(8);
        if (!r.ok())
            return r.error();
        d->ids_.clear();
        for (std::uint64_t i = 0; i < nIds; ++i) {
            const std::uint64_t id = r.u64();
            if (!r.ok())
                return r.error();
            if (!net.tracker_.known(id))
                return "driver message id unknown to the ledger";
            d->ids_.push_back(id);
        }
    }

    expectTag(r, kTagInjector, "INJE");
    const bool injPresent = r.u8() != 0;
    if (r.ok() && injPresent != (parts.injector != nullptr))
        r.fail("fault-injector presence mismatch");
    if (!r.ok())
        return r.error();
    if (injPresent) {
        // Events are rebuilt structurally from the same fault list;
        // tick() fires on exact-cycle matches only, so restoring
        // the applied tally is all it takes for past events never
        // to re-fire.
        parts.injector->applied_ = r.u64();
    }

    expectTag(r, kTagCampaign, "CAMP");
    const bool campPresent = r.u8() != 0;
    if (r.ok() && campPresent != (parts.campaign != nullptr))
        r.fail("fault-campaign presence mismatch");
    if (!r.ok())
        return r.error();
    if (campPresent) {
        FaultCampaign &camp = *parts.campaign;
        getRng(r, camp.rng_);
        const std::uint64_t nDown = r.count(4);
        if (!r.ok())
            return r.error();
        camp.downLinks_.clear();
        for (std::uint64_t i = 0; i < nDown; ++i) {
            const LinkId l = r.u32();
            if (!r.ok())
                return r.error();
            if (l >= net.links_.size())
                return "campaign down-link id out of range";
            camp.downLinks_.push_back(l);
        }
        const std::uint64_t nDead = r.count(4);
        if (!r.ok())
            return r.error();
        camp.deadRouters_.clear();
        for (std::uint64_t i = 0; i < nDead; ++i) {
            const RouterId rid = r.u32();
            if (!r.ok())
                return r.error();
            if (rid >= net.routers_.size())
                return "campaign dead-router id out of range";
            camp.deadRouters_.push_back(rid);
        }
        const std::uint64_t nFlaky = r.count(13);
        if (r.ok() && nFlaky != camp.flaky_.size())
            r.fail("campaign flaky-link count mismatch");
        if (!r.ok())
            return r.error();
        for (auto &f : camp.flaky_) {
            const LinkId l = r.u32();
            f.nextToggle = r.u64();
            f.down = r.u8() != 0;
            if (!r.ok())
                return r.error();
            if (l >= net.links_.size())
                return "campaign flaky-link id out of range";
            f.link = l;
        }
    }

    expectTag(r, kTagDiag, "DIAG");
    const bool diagPresent = r.u8() != 0;
    if (r.ok() && diagPresent != (parts.diagnosis != nullptr))
        r.fail("diagnosis-engine presence mismatch");
    if (!r.ok())
        return r.error();
    if (diagPresent) {
        restoreDiag(r, *parts.diagnosis);
        if (!r.ok())
            return r.error();
    }

    expectTag(r, kTagHarness, "HARN");
    {
        std::vector<std::uint8_t> blob = r.blob();
        if (!r.ok())
            return r.error();
        if (harness != nullptr)
            *harness = std::move(blob);
    }

    expectTag(r, kTagDone, "DONE");
    if (!r.ok())
        return r.error();

    // --- Derived-state fix-ups (the order matters) ---

    // Link wake counts: the counted form of the link-activity sleep
    // veto. Zero everything, then count each restored-active link at
    // both ends.
    for (Component *c : eng.components_)
        c->schedActiveLinks_ = 0;
    for (Link *l : eng.links_) {
        if (!l->active_)
            continue;
        if (l->wakeA_ != nullptr)
            ++l->wakeA_->schedActiveLinks_;
        if (l->wakeB_ != nullptr)
            ++l->wakeB_->schedActiveLinks_;
    }

    // Engine clock and scheduler tallies.
    eng.now_ = cycle;
    eng.ticksSkipped_ = ticksSkipped;
    eng.linksFastpathed_ = linksFastpathed;
    eng.stepping_ = false;

    // A fresh instance's addLink calls queued every link for a
    // first-sleep evaluation; the restored run already made those
    // verdicts (they are baked into active_/flags_), and repeating
    // them here would deactivate links the uninterrupted run left
    // active — perturbing the skip counters that the byte-identity
    // contract covers.
    eng.pendingLinkEval_.clear();

    // The shard plan caches per-shard awake counts that the restore
    // just invalidated wholesale — same hazard removeComponents()
    // has. Rebuild lazily at the next cycle, at whatever thread
    // count THIS engine runs (a checkpoint carries no thread
    // count).
    eng.planDirty_ = true;

    return "";
}

std::uint64_t
checkpointDigest(const std::string &canonical)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (unsigned char c : canonical) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    return h;
}

std::uint64_t
checkpointChecksum(const std::uint8_t *data, std::size_t size)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (std::size_t k = 0; k < size; ++k) {
        h ^= data[k];
        h *= 0x100000001b3ULL;
    }
    return h;
}

void
appendCheckpointFooter(std::vector<std::uint8_t> &bytes)
{
    const std::uint64_t len = bytes.size();
    const std::uint64_t sum =
        checkpointChecksum(bytes.data(), bytes.size());
    StateWriter w;
    w.u64(len);
    w.u64(sum);
    w.u32(kCheckpointFooterMagic);
    const auto &footer = w.buffer();
    bytes.insert(bytes.end(), footer.begin(), footer.end());
}

std::string
verifyCheckpointFooter(const std::uint8_t *data, std::size_t size,
                       std::size_t *payload_size)
{
    if (size < kCheckpointFooterSize)
        return "checkpoint shorter than its integrity footer";
    const std::uint8_t *foot = data + size - kCheckpointFooterSize;
    StateReader r(foot, kCheckpointFooterSize);
    const std::uint64_t len = r.u64();
    const std::uint64_t sum = r.u64();
    const std::uint32_t magic = r.u32();
    if (magic != kCheckpointFooterMagic)
        return "checkpoint footer magic missing (truncated file, "
               "or a pre-footer v1 checkpoint)";
    if (len != size - kCheckpointFooterSize)
        return "checkpoint footer length mismatch: footer says " +
               std::to_string(len) + " payload bytes, file has " +
               std::to_string(size - kCheckpointFooterSize);
    if (sum != checkpointChecksum(data, len))
        return "checkpoint footer checksum mismatch (corrupted "
               "file)";
    if (payload_size != nullptr)
        *payload_size = len;
    return "";
}

std::vector<std::uint8_t>
saveCheckpointBytes(std::uint64_t config_digest,
                    const CheckpointParticipants &parts,
                    const std::vector<std::uint8_t> &harness_blob)
{
    StateWriter w;
    CheckpointIO::save(w, config_digest, parts, harness_blob);
    std::vector<std::uint8_t> bytes = w.take();
    appendCheckpointFooter(bytes);
    return bytes;
}

std::string
restoreCheckpointBytes(const std::uint8_t *data, std::size_t size,
                       std::uint64_t config_digest,
                       const CheckpointParticipants &parts,
                       std::vector<std::uint8_t> *harness_blob)
{
    // Whole-file integrity first: nothing below may run against a
    // truncated or bit-flipped file.
    std::size_t payload = 0;
    const std::string ferr =
        verifyCheckpointFooter(data, size, &payload);
    if (!ferr.empty())
        return ferr;
    StateReader r(data, payload);
    return CheckpointIO::restore(r, config_digest, parts,
                                 harness_blob);
}

std::vector<std::uint8_t>
saveLaneArenaBytes(const LaneArena &arena)
{
    StateWriter w;
    CheckpointIO::saveArena(w, arena);
    return w.take();
}

std::string
restoreLaneArenaBytes(const std::vector<std::uint8_t> &bytes,
                      LaneArena &arena)
{
    StateReader r(bytes.data(), bytes.size());
    CheckpointIO::restoreArena(r, arena);
    return r.ok() ? "" : r.error();
}

namespace
{

/** One armed write fault (see setCheckpointWriteFault). */
struct WriteFault
{
    unsigned long long bytes;
    bool aborts;
};

/**
 * One-shot write-fault injection state (see setCheckpointWriteFault
 * / METRO_CRASH_AT_WRITE_BYTE), packed into one word so arming and
 * the one-shot consume are single atomic operations: -1 is disarmed,
 * otherwise bytes << 1 | aborts. Writers on several threads (one
 * checkpointing service per thread) may race for it; exactly one
 * takes an armed fault.
 */
std::atomic<long long> g_writeFault{-1};
std::once_flag g_writeFaultEnvOnce;

void
armWriteFault(long long max_bytes, bool abort_process)
{
    g_writeFault.store(max_bytes < 0 ? -1
                                     : (max_bytes << 1) |
                                           (abort_process ? 1 : 0));
}

/** Arm the abort-mode fault from the environment, exactly once per
 *  process (and never after a programmatic setting). */
void
armWriteFaultFromEnv()
{
    std::call_once(g_writeFaultEnvOnce, [] {
        const char *env = std::getenv("METRO_CRASH_AT_WRITE_BYTE");
        if (env == nullptr || *env == '\0')
            return;
        char *end = nullptr;
        const long long v = std::strtoll(env, &end, 10);
        if (end != nullptr && *end == '\0' && v >= 0)
            armWriteFault(v, true);
    });
}

/** Consume the armed fault if it fires on a payload of `size`
 *  bytes: truncation below the payload size, or (abort mode) a
 *  crash before the rename. A fault that would not fire stays
 *  armed. */
std::optional<WriteFault>
takeWriteFault(std::size_t size)
{
    long long cur = g_writeFault.load();
    while (cur >= 0) {
        const WriteFault f{static_cast<unsigned long long>(cur) >> 1,
                           (cur & 1) != 0};
        if (f.bytes >= size && !f.aborts)
            return std::nullopt;
        if (g_writeFault.compare_exchange_weak(cur, -1))
            return f;
    }
    return std::nullopt;
}

} // namespace

void
setCheckpointWriteFault(long long max_bytes, bool abort_process)
{
    // A programmatic setting overrides (and suppresses) the env.
    std::call_once(g_writeFaultEnvOnce, [] {});
    armWriteFault(max_bytes, abort_process);
}

std::string
writeCheckpointFile(const std::string &path,
                    std::uint64_t config_digest,
                    const CheckpointParticipants &parts,
                    const std::vector<std::uint8_t> &harness_blob)
{
    const std::vector<std::uint8_t> bytes =
        saveCheckpointBytes(config_digest, parts, harness_blob);
    return writeCheckpointBytesDurably(path, bytes);
}

std::string
writeCheckpointBytesDurably(const std::string &path,
                            const std::vector<std::uint8_t> &bytes)
{
    armWriteFaultFromEnv();
    const std::string tmp = path + ".tmp";

    // Never expose a partial file at the final path: write the
    // whole payload to <path>.tmp, fsync it, and only then rename
    // over the target. rename(2) is atomic within a filesystem, so
    // a crash at ANY point here leaves either the old checkpoint or
    // the new one — plus at worst a stale .tmp the next write
    // overwrites.
    std::FILE *f = std::fopen(tmp.c_str(), "wb");
    if (f == nullptr)
        return "cannot open checkpoint temp file for writing: " +
               tmp;

    const std::optional<WriteFault> fault =
        takeWriteFault(bytes.size());
    const bool injectedFault =
        fault.has_value() && fault->bytes < bytes.size();
    const std::size_t toWrite =
        injectedFault ? static_cast<std::size_t>(fault->bytes)
                      : bytes.size();

    const std::size_t written =
        toWrite == 0 ? 0 : std::fwrite(bytes.data(), 1, toWrite, f);

    if (injectedFault) {
        if (fault->aborts) {
            // Crash injection: die mid-write, partial .tmp on disk,
            // final path untouched. fflush first so the truncation
            // is actually visible to the post-mortem.
            std::fflush(f);
            std::fprintf(stderr,
                         "metro_sim: injected crash after %zu "
                         "checkpoint bytes (%s)\n",
                         toWrite, tmp.c_str());
            std::fflush(stderr);
            std::abort();
        }
        std::fclose(f);
        std::remove(tmp.c_str());
        return "short write to checkpoint temp file: " + tmp;
    }

    const bool writeOk = written == bytes.size();
    const bool flushOk = std::fflush(f) == 0;
    const bool syncOk = writeOk && flushOk &&
                        ::fsync(::fileno(f)) == 0;
    const int rc = std::fclose(f);
    if (!writeOk || !flushOk || !syncOk || rc != 0) {
        // Unlink the partial temp file rather than leaving a
        // corrupt checkpoint behind (the final path was never
        // touched).
        std::remove(tmp.c_str());
        return "short write to checkpoint temp file: " + tmp;
    }

    if (fault.has_value()) {
        // K >= payload size (abort mode): the injected crash lands
        // after the payload is durable but BEFORE the rename — the
        // classic "checkpoint written but not installed" window.
        std::fprintf(stderr,
                     "metro_sim: injected crash before checkpoint "
                     "rename (%s)\n",
                     tmp.c_str());
        std::fflush(stderr);
        std::abort();
    }

    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        return "cannot rename checkpoint into place: " + path;
    }

    // Make the rename itself durable: fsync the directory entry.
    std::string dir = path;
    const auto slash = dir.find_last_of('/');
    dir = slash == std::string::npos ? "." : dir.substr(0, slash);
    const int dfd = ::open(dir.c_str(), O_RDONLY);
    if (dfd >= 0) {
        ::fsync(dfd);
        ::close(dfd);
    }
    return "";
}

std::string
readCheckpointFile(const std::string &path,
                   std::uint64_t config_digest,
                   const CheckpointParticipants &parts,
                   std::vector<std::uint8_t> *harness_blob)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (f == nullptr)
        return "cannot open checkpoint file: " + path;
    std::vector<std::uint8_t> bytes;
    std::uint8_t chunk[1 << 16];
    for (;;) {
        const std::size_t n =
            std::fread(chunk, 1, sizeof(chunk), f);
        bytes.insert(bytes.end(), chunk, chunk + n);
        if (n < sizeof(chunk))
            break;
    }
    const bool readError = std::ferror(f) != 0;
    std::fclose(f);
    if (readError)
        return "read error on checkpoint file: " + path;
    return restoreCheckpointBytes(bytes.data(), bytes.size(),
                                  config_digest, parts, harness_blob);
}

} // namespace metro
