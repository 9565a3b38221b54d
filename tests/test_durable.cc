/**
 * @file
 * Durability tests for the crash-safe checkpoint path (src/serve/):
 * the whole-file integrity footer, the tmp+fsync+rename atomic
 * write (including its failure path), and the keep-last-N retention
 * store with fallback past corrupted entries.
 *
 * The contract under test: a crash at ANY byte of a checkpoint
 * write must leave the service restorable. The footer check runs
 * before any section parsing, so a checkpoint truncated at any
 * byte — or bit-flipped anywhere — is rejected without touching
 * the target instance, and restoreFromStore then falls back to the
 * newest *valid* retained checkpoint.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "network/multibutterfly.hh"
#include "network/presets.hh"
#include "report/json.hh"
#include "serve/checkpoint.hh"
#include "serve/service.hh"
#include "serve/store.hh"
#include "traffic/drivers.hh"
#include "traffic/patterns.hh"

namespace metro
{
namespace
{

/** Minimal serve-shaped instance: fig1 + one closed-loop driver per
 *  endpoint, the same registration order runServe uses. */
struct Instance
{
    std::unique_ptr<Network> net;
    std::unique_ptr<DestinationGenerator> dests;
    std::vector<std::unique_ptr<ClosedLoopDriver>> drivers;
    CheckpointParticipants parts;

    Instance()
    {
        net = buildMultibutterfly(fig1Spec(1));
        const auto n = static_cast<unsigned>(net->numEndpoints());
        dests = std::make_unique<DestinationGenerator>(
            TrafficPattern::UniformRandom, n, 1 ^ 0x77, 0, 0.25);
        DriverConfig dcfg;
        dcfg.messageWords = 20;
        for (unsigned e = 0; e < n; ++e) {
            drivers.push_back(std::make_unique<ClosedLoopDriver>(
                &net->endpoint(e), dests.get(), dcfg, 200,
                1 ^ (0x5151ULL * (e + 1))));
            net->engine().addComponent(drivers.back().get());
        }
        parts.net = net.get();
        for (auto &d : drivers)
            parts.closedDrivers.push_back(d.get());
    }
};

constexpr std::uint64_t kDigest = 0x1234;

/** Canonical text form of the ground-truth message ledger. */
std::string
ledgerDump(const Network &net)
{
    std::ostringstream ledger;
    for (const auto &[id, rec] : net.tracker().all())
        ledger << id << ' ' << rec.src << ' ' << rec.dest << ' '
               << rec.submitCycle << ' ' << rec.deliverCycle << ' '
               << rec.completeCycle << ' ' << rec.attempts << ' '
               << rec.succeeded << ' ' << rec.gaveUp << '\n';
    return ledger.str();
}

std::vector<std::uint8_t>
checkpointAfter(Cycle cycles)
{
    Instance inst;
    inst.net->engine().run(cycles);
    return saveCheckpointBytes(kDigest, inst.parts);
}

std::string
restoreInto(const std::vector<std::uint8_t> &bytes)
{
    Instance inst;
    return restoreCheckpointBytes(bytes.data(), bytes.size(),
                                  kDigest, inst.parts);
}

/** A scratch directory wiped per test. */
class DurableTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        dir_ = std::filesystem::temp_directory_path() /
               ("metro_durable_" + std::string(
                    ::testing::UnitTest::GetInstance()
                        ->current_test_info()
                        ->name()));
        std::filesystem::remove_all(dir_);
        std::filesystem::create_directories(dir_);
    }

    void TearDown() override
    {
        setCheckpointWriteFault(-1, false);
        std::filesystem::remove_all(dir_);
    }

    std::string path(const std::string &name) const
    {
        return (dir_ / name).string();
    }

    std::filesystem::path dir_;
};

TEST_F(DurableTest, FooterRoundTrips)
{
    const auto bytes = checkpointAfter(512);
    ASSERT_GE(bytes.size(), kCheckpointFooterSize);
    std::size_t payload = 0;
    EXPECT_EQ(verifyCheckpointFooter(bytes.data(), bytes.size(),
                                     &payload),
              "");
    EXPECT_EQ(payload, bytes.size() - kCheckpointFooterSize);
    EXPECT_EQ(restoreInto(bytes), "");
}

TEST_F(DurableTest, FooterRejectsTruncationAtEveryProbedByte)
{
    // Truncation anywhere — mid-header, at every section boundary,
    // mid-section, inside the footer itself — must be rejected by
    // the footer check alone. Probe every section tag position
    // (found by scanning for the fourcc markers), a byte stride,
    // and the footer-edge cases.
    const auto bytes = checkpointAfter(512);
    static const char *tags[] = {"ENGI", "SCHD", "AREN", "LINK",
                                 "CASC", "ROUT", "TRAK", "ENDP",
                                 "GATE", "METR", "DRVC", "HARN",
                                 "DONE"};
    std::vector<std::size_t> cuts = {0, 1, 8, 16, 23};
    for (const char *tag : tags) {
        const std::uint8_t *p = bytes.data();
        for (std::size_t k = 0; k + 4 <= bytes.size(); ++k)
            if (std::memcmp(p + k, tag, 4) == 0) {
                cuts.push_back(k);     // before the section
                cuts.push_back(k + 4); // inside it
                break;
            }
    }
    for (std::size_t k = 37; k < bytes.size(); k += 997)
        cuts.push_back(k);
    cuts.push_back(bytes.size() - kCheckpointFooterSize);
    cuts.push_back(bytes.size() - kCheckpointFooterSize + 1);
    cuts.push_back(bytes.size() - 1);

    for (const std::size_t cut : cuts) {
        SCOPED_TRACE("cut=" + std::to_string(cut));
        ASSERT_LT(cut, bytes.size());
        std::size_t payload = 0;
        EXPECT_NE(verifyCheckpointFooter(bytes.data(), cut,
                                         &payload),
                  "");
        const std::vector<std::uint8_t> trunc(bytes.begin(),
                                              bytes.begin() + cut);
        EXPECT_NE(restoreInto(trunc), "");
    }
}

TEST_F(DurableTest, FooterRejectsFlippedChecksumAndPayloadBits)
{
    const auto bytes = checkpointAfter(512);
    // A flipped bit in the checksum field, the length field, the
    // footer magic, and the payload itself.
    const std::size_t footer = bytes.size() - kCheckpointFooterSize;
    for (const std::size_t pos :
         {footer + 8, footer, footer + 16, bytes.size() / 2}) {
        SCOPED_TRACE("pos=" + std::to_string(pos));
        auto bad = bytes;
        bad[pos] ^= 0x01;
        std::size_t payload = 0;
        EXPECT_NE(verifyCheckpointFooter(bad.data(), bad.size(),
                                         &payload),
                  "");
    }
}

TEST_F(DurableTest, WriteFaultUnlinksPartialAndLeavesNoFinalFile)
{
    Instance inst;
    inst.net->engine().run(256);
    const std::string out = path("ck.metro");
    setCheckpointWriteFault(100, false);
    const std::string err =
        writeCheckpointFile(out, kDigest, inst.parts);
    EXPECT_NE(err, "");
    // Neither a partial temp file nor anything at the final path.
    EXPECT_FALSE(std::filesystem::exists(out));
    EXPECT_FALSE(std::filesystem::exists(out + ".tmp"));
}

TEST_F(DurableTest, WriteFaultPreservesPreviousCheckpoint)
{
    // The atomic-rename contract: a failed rewrite must leave the
    // previous checkpoint untouched and fully valid.
    Instance inst;
    inst.net->engine().run(256);
    const std::string out = path("ck.metro");
    ASSERT_EQ(writeCheckpointFile(out, kDigest, inst.parts), "");

    inst.net->engine().run(256);
    setCheckpointWriteFault(100, false);
    EXPECT_NE(writeCheckpointFile(out, kDigest, inst.parts), "");

    Instance fresh;
    std::vector<std::uint8_t> blob;
    EXPECT_EQ(readCheckpointFile(out, kDigest, fresh.parts, &blob),
              "");
    EXPECT_EQ(fresh.net->engine().now(), 256u);
}

TEST_F(DurableTest, WriteFaultIsOneShot)
{
    Instance inst;
    inst.net->engine().run(256);
    const std::string out = path("ck.metro");
    setCheckpointWriteFault(100, false);
    EXPECT_NE(writeCheckpointFile(out, kDigest, inst.parts), "");
    // The hook cleared itself; the retry succeeds.
    EXPECT_EQ(writeCheckpointFile(out, kDigest, inst.parts), "");
    EXPECT_TRUE(std::filesystem::exists(out));
}

TEST_F(DurableTest, ConcurrentCheckpointWritersArmTheHookOnce)
{
    // Four services checkpointing at once (one per thread), with no
    // programmatic hook setting first: every writer reaches the lazy
    // METRO_CRASH_AT_WRITE_BYTE arming together. It must arm exactly
    // once, race-free (ci/tsan-engine.sh runs this under
    // ThreadSanitizer), and every write must land intact.
    const auto bytes = checkpointAfter(256);
    constexpr unsigned kWriters = 4;
    std::vector<std::string> errors(kWriters);
    std::vector<std::thread> writers;
    for (unsigned t = 0; t < kWriters; ++t) {
        writers.emplace_back([&, t] {
            const std::string out = path("ck" + std::to_string(t));
            for (unsigned k = 0; k < 4; ++k)
                errors[t] += writeCheckpointBytesDurably(out, bytes);
        });
    }
    for (auto &w : writers)
        w.join();
    for (unsigned t = 0; t < kWriters; ++t) {
        EXPECT_EQ(errors[t], "") << "writer " << t;
        Instance fresh;
        EXPECT_EQ(readCheckpointFile(path("ck" + std::to_string(t)),
                                     kDigest, fresh.parts, nullptr),
                  "")
            << "writer " << t;
        EXPECT_EQ(fresh.net->engine().now(), 256u);
    }
}

TEST_F(DurableTest, ConcurrentCheckpointWritersConsumeTheFaultOnce)
{
    // The one-shot consume is atomic: of four concurrent writers,
    // exactly one takes the armed fault.
    const auto bytes = checkpointAfter(256);
    constexpr unsigned kWriters = 4;
    setCheckpointWriteFault(100, false);
    std::vector<std::string> errors(kWriters);
    std::vector<std::thread> writers;
    for (unsigned t = 0; t < kWriters; ++t) {
        writers.emplace_back([&, t] {
            errors[t] = writeCheckpointBytesDurably(
                path("ck" + std::to_string(t)), bytes);
        });
    }
    for (auto &w : writers)
        w.join();
    unsigned failed = 0;
    for (const std::string &e : errors)
        failed += e.empty() ? 0 : 1;
    EXPECT_EQ(failed, 1u);
}

TEST_F(DurableTest, StoreRotatesBeyondRetentionDepth)
{
    const auto bytes = checkpointAfter(128);
    CheckpointStore store(path("ck.metro"), 3);
    ASSERT_EQ(store.load(), "");
    for (Cycle c = 1; c <= 5; ++c)
        ASSERT_EQ(store.write(c * 100, bytes), "");

    ASSERT_EQ(store.entries().size(), 3u);
    EXPECT_EQ(store.entries()[0].seq, 4u);
    EXPECT_EQ(store.entries()[0].cycle, 500u);
    EXPECT_EQ(store.entries()[2].seq, 2u);
    // Rotated-out files are removed from disk.
    EXPECT_FALSE(std::filesystem::exists(path("ck.metro.0")));
    EXPECT_FALSE(std::filesystem::exists(path("ck.metro.1")));
    EXPECT_TRUE(std::filesystem::exists(path("ck.metro.4")));
}

TEST_F(DurableTest, StoreSequenceSurvivesReload)
{
    const auto bytes = checkpointAfter(128);
    {
        CheckpointStore store(path("ck.metro"), 2);
        ASSERT_EQ(store.load(), "");
        ASSERT_EQ(store.write(100, bytes), "");
        ASSERT_EQ(store.write(200, bytes), "");
    }
    CheckpointStore store(path("ck.metro"), 2);
    ASSERT_EQ(store.load(), "");
    ASSERT_EQ(store.entries().size(), 2u);
    ASSERT_EQ(store.write(300, bytes), "");
    // Sequence numbers continue across process restarts; the old
    // newest is still retained behind the new one.
    EXPECT_EQ(store.entries()[0].seq, 2u);
    EXPECT_EQ(store.entries()[1].seq, 1u);
}

/** Serve runner wired for periodic store checkpoints. */
struct StoreRunner
{
    Instance inst;
    ServeConfig cfg;
    std::unique_ptr<ServiceRunner> runner;
    std::vector<std::string> lines;

    explicit StoreRunner(const std::string &base)
    {
        cfg.window = 256;
        cfg.runCycles = 2048;
        cfg.configDigest = kDigest;
        cfg.checkpointOut = base;
        cfg.checkpointEvery = 512;
        cfg.checkpointKeep = 3;
        runner = std::make_unique<ServiceRunner>(cfg, inst.parts);
        runner->setEmitter([this](const std::string &line) {
            lines.push_back(line);
        });
    }
};

TEST_F(DurableTest, RestoreFromStoreFallsBackPastCorruptNewest)
{
    const std::string base = path("ck.metro");
    {
        StoreRunner sr(base);
        ASSERT_EQ(sr.runner->run(), "");
        ASSERT_GE(sr.runner->store()->entries().size(), 3u);
    }

    // Truncate the newest checkpoint mid-file (as if the crash beat
    // the fsync) and flip a payload bit in the second-newest: the
    // restore must reject both on their footers and land on the
    // third.
    CheckpointStore peek(base, 3);
    ASSERT_EQ(peek.load(), "");
    const auto newest = peek.pathOf(peek.entries()[0]);
    const auto second = peek.pathOf(peek.entries()[1]);
    const Cycle thirdCycle = peek.entries()[2].cycle;
    std::filesystem::resize_file(
        newest, std::filesystem::file_size(newest) / 2);
    {
        std::fstream f(second, std::ios::in | std::ios::out |
                                   std::ios::binary);
        f.seekp(64);
        char b = 0;
        f.read(&b, 1);
        f.seekp(64);
        b = static_cast<char>(b ^ 0x10);
        f.write(&b, 1);
    }

    StoreRunner sr(base);
    bool restored = false;
    ASSERT_EQ(sr.runner->restoreFromStore(restored), "");
    EXPECT_TRUE(restored);
    EXPECT_EQ(sr.inst.net->engine().now(), thirdCycle);
}

TEST_F(DurableTest, RestoreFromEmptyStoreIsFreshStart)
{
    StoreRunner sr(path("ck.metro"));
    bool restored = true;
    EXPECT_EQ(sr.runner->restoreFromStore(restored), "");
    EXPECT_FALSE(restored);
    EXPECT_EQ(sr.inst.net->engine().now(), 0u);
}

TEST_F(DurableTest, RestoredRunContinuesStreamByteIdentically)
{
    // The end-to-end recovery property the torture harness sweeps:
    // crash after some checkpoint, restore from the store, and the
    // concatenated window stream (deduped by window index) matches
    // the uninterrupted run's bytes.
    std::vector<std::string> uninterrupted;
    std::string refMetrics;
    std::string refLedger;
    {
        StoreRunner sr(path("ref.metro"));
        sr.cfg.checkpointEvery = 0;
        sr.cfg.checkpointOut.clear();
        ServiceRunner runner(sr.cfg, sr.inst.parts);
        runner.setEmitter([&](const std::string &line) {
            uninterrupted.push_back(line);
        });
        ASSERT_EQ(runner.run(), "");
        refMetrics = metricsJson(sr.inst.net->metricsSnapshot());
        refLedger = ledgerDump(*sr.inst.net);
    }

    const std::string base = path("ck.metro");
    std::vector<std::string> first;
    {
        // "Crash" after 1024 cycles: stop the run mid-flight.
        StoreRunner sr(base);
        sr.runner->setEmitter([&](const std::string &line) {
            first.push_back(line);
        });
        Engine &eng = sr.inst.net->engine();
        ASSERT_EQ(sr.runner->run([&] {
            return eng.now() >= 1024;
        }),
                  "");
    }
    std::vector<std::string> resumed;
    {
        StoreRunner sr(base);
        sr.runner->setEmitter([&](const std::string &line) {
            resumed.push_back(line);
        });
        bool restored = false;
        ASSERT_EQ(sr.runner->restoreFromStore(restored), "");
        ASSERT_TRUE(restored);
        ASSERT_EQ(sr.runner->run(), "");
        // The recovered instance's final cumulative metrics and
        // ground-truth message ledger match the uninterrupted
        // run's exactly.
        EXPECT_EQ(metricsJson(sr.inst.net->metricsSnapshot()),
                  refMetrics);
        EXPECT_EQ(ledgerDump(*sr.inst.net), refLedger);
    }

    // Dedupe exactly as the supervisor does: forward a window only
    // if it is the next sequence number not yet seen.
    std::vector<std::string> merged = first;
    for (const auto &line : resumed) {
        bool dup = false;
        for (const auto &have : merged)
            if (have == line)
                dup = true;
        if (!dup)
            merged.push_back(line);
    }
    ASSERT_EQ(merged.size(), uninterrupted.size());
    for (std::size_t k = 0; k < merged.size(); ++k) {
        SCOPED_TRACE("window " + std::to_string(k));
        EXPECT_EQ(merged[k], uninterrupted[k]);
    }
}

} // namespace
} // namespace metro
