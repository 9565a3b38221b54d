/**
 * @file
 * Tests for the spec-file parser/serializer and the DOT exporter.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "app/specfile.hh"
#include "network/presets.hh"
#include "report/dot.hh"

#ifndef METRO_TEST_DATA_DIR
#define METRO_TEST_DATA_DIR "."
#endif

namespace metro
{
namespace
{

const char *kSample = R"(# a 16-endpoint two-stage network
endpoints = 16
endpointPorts = 2
seed = 42
fastReclaim = false
cascadeWidth = 2

[stage]
radix = 4
dilation = 2
width = 4
numForward = 8
numBackward = 8
maxDilation = 2
dp = 2
linkDelay = 1

[stage]
radix = 4
dilation = 2
width = 4
numForward = 8
numBackward = 8
maxDilation = 2
)";

TEST(SpecFile, ParsesAllFields)
{
    std::string error;
    const auto spec = parseSpecText(kSample, error);
    ASSERT_TRUE(spec.has_value()) << error;
    EXPECT_EQ(spec->numEndpoints, 16u);
    EXPECT_EQ(spec->endpointPorts, 2u);
    EXPECT_EQ(spec->seed, 42u);
    EXPECT_FALSE(spec->fastReclaim);
    EXPECT_EQ(spec->cascadeWidth, 2u);
    ASSERT_EQ(spec->stages.size(), 2u);
    EXPECT_EQ(spec->stages[0].radix, 4u);
    EXPECT_EQ(spec->stages[0].params.dataPipeStages, 2u);
    EXPECT_EQ(spec->stages[0].linkDelay, 1u);
    EXPECT_EQ(spec->stages[1].params.dataPipeStages, 1u); // default
}

TEST(SpecFile, ParsedSpecBuildsAndRuns)
{
    std::string error;
    const auto spec = parseSpecText(kSample, error);
    ASSERT_TRUE(spec.has_value()) << error;
    spec->validate();
    auto net = buildMultibutterfly(*spec);
    EXPECT_EQ(net->numEndpoints(), 16u);
    EXPECT_EQ(net->endpoint(0).cascade(), 2u);
    const auto id = net->endpoint(0).send(9, {0x12, 0x34});
    net->engine().runUntil(
        [&] { return net->tracker().record(id).succeeded; }, 2000);
    EXPECT_TRUE(net->tracker().record(id).succeeded);
}

TEST(SpecFile, RoundTripsThroughText)
{
    const auto original = fig3Spec(77);
    std::string error;
    const auto reparsed =
        parseSpecText(specToText(original), error);
    ASSERT_TRUE(reparsed.has_value()) << error;
    EXPECT_EQ(reparsed->numEndpoints, original.numEndpoints);
    EXPECT_EQ(reparsed->endpointPorts, original.endpointPorts);
    EXPECT_EQ(reparsed->seed, original.seed);
    ASSERT_EQ(reparsed->stages.size(), original.stages.size());
    for (std::size_t s = 0; s < original.stages.size(); ++s) {
        EXPECT_EQ(reparsed->stages[s].radix,
                  original.stages[s].radix);
        EXPECT_EQ(reparsed->stages[s].dilation,
                  original.stages[s].dilation);
        EXPECT_EQ(reparsed->stages[s].params.numForward,
                  original.stages[s].params.numForward);
    }
    // Identical wiring: both builds produce the same link graph.
    auto a = buildMultibutterfly(original);
    auto b = buildMultibutterfly(*reparsed);
    ASSERT_EQ(a->numLinks(), b->numLinks());
    for (LinkId l = 0; l < a->numLinks(); ++l) {
        EXPECT_EQ(a->link(l).endB().id, b->link(l).endB().id);
        EXPECT_EQ(a->link(l).endB().port, b->link(l).endB().port);
    }
}

TEST(SpecFile, RejectsMalformedInput)
{
    std::string error;
    EXPECT_FALSE(parseSpecText("endpoints 16\n[stage]\n", error)
                     .has_value());
    EXPECT_NE(error.find("line 1"), std::string::npos);

    EXPECT_FALSE(
        parseSpecText("bogus = 1\n[stage]\n", error).has_value());
    EXPECT_NE(error.find("unknown network key"), std::string::npos);

    EXPECT_FALSE(parseSpecText("[stage]\nradix = x\n", error)
                     .has_value());
    EXPECT_FALSE(parseSpecText("endpoints = 8\n", error)
                     .has_value()); // no stages

    EXPECT_FALSE(parseSpecText("[stage]\nwombat = 3\n", error)
                     .has_value());
    EXPECT_NE(error.find("unknown stage key"), std::string::npos);
}

// Regression: backoffMin > backoffMax used to slip through to the
// endpoint, where the unsigned window span wrapped to ~2^32 cycles
// (the classic `backoffMax - backoffMin` underflow). The parser now
// rejects it with a message naming both bounds.
TEST(SpecFile, RejectsInvertedBackoffWindow)
{
    std::string error;
    const auto spec = parseSpecText(
        "endpoints = 16\nbackoffMin = 9\nbackoffMax = 2\n"
        "[stage]\nradix = 4\ndilation = 2\nnumForward = 8\n"
        "numBackward = 8\nmaxDilation = 2\nwidth = 8\n",
        error);
    EXPECT_FALSE(spec.has_value());
    EXPECT_NE(error.find("backoffMin"), std::string::npos);
    EXPECT_NE(error.find("9"), std::string::npos);
    EXPECT_NE(error.find("2"), std::string::npos);
}

TEST(SpecFile, RetryKeysParseAndRoundTrip)
{
    auto original = fig1Spec(12);
    auto &retry = original.niConfig.retry;
    retry.kind = BackoffPolicyKind::Exponential;
    retry.backoffMin = 1;
    retry.backoffMax = 15;
    retry.backoffCap = 512;
    retry.decorrelatedJitter = true;
    retry.aimdDecrease = 3;
    retry.retryBudget = 1.5;
    retry.retryBudgetCap = 9.0;
    retry.sendQueueLimit = 24;
    retry.inflightLimit = 6;
    retry.ageClamp = 700;
    retry.ageStarve = 2100;

    std::string error;
    const auto reparsed =
        parseSpecText(specToText(original), error);
    ASSERT_TRUE(reparsed.has_value()) << error;
    const auto &r = reparsed->niConfig.retry;
    EXPECT_EQ(r.kind, BackoffPolicyKind::Exponential);
    EXPECT_EQ(r.backoffMin, 1u);
    EXPECT_EQ(r.backoffMax, 15u);
    EXPECT_EQ(r.backoffCap, 512u);
    EXPECT_TRUE(r.decorrelatedJitter);
    EXPECT_EQ(r.aimdDecrease, 3u);
    EXPECT_DOUBLE_EQ(r.retryBudget, 1.5);
    EXPECT_DOUBLE_EQ(r.retryBudgetCap, 9.0);
    EXPECT_EQ(r.sendQueueLimit, 24u);
    EXPECT_EQ(r.inflightLimit, 6u);
    EXPECT_EQ(r.ageClamp, 700u);
    EXPECT_EQ(r.ageStarve, 2100u);

    // Serializing the reparsed spec reproduces the text exactly.
    EXPECT_EQ(specToText(original), specToText(*reparsed));
}

TEST(SpecFile, Mb1024SpecFileMatchesPreset)
{
    // experiments/mb1024.spec is how the CLI reaches the 1024-endpoint
    // preset (--spec-file); it must not drift from mb1024Spec(1).
    const auto path = std::filesystem::path(METRO_TEST_DATA_DIR) /
                      ".." / "experiments" / "mb1024.spec";
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in) << "cannot open " << path;
    std::ostringstream text;
    text << in.rdbuf();
    EXPECT_EQ(text.str(), specToText(mb1024Spec(1)));
}

TEST(SpecFile, CommentsAndBlanksIgnored)
{
    std::string error;
    const auto spec = parseSpecText(
        "# comment\n\nendpoints = 4 # trailing\n\n[stage]\n"
        "radix = 4\ndilation = 1\nnumForward = 4\nnumBackward = 4\n"
        "maxDilation = 1\nwidth = 8\n",
        error);
    ASSERT_TRUE(spec.has_value()) << error;
    EXPECT_EQ(spec->numEndpoints, 4u);
}

TEST(Dot, ExportContainsStructure)
{
    auto net = buildMultibutterfly(fig1Spec(4));
    const auto dot = networkToDot(*net, "fig1");
    EXPECT_NE(dot.find("digraph metro"), std::string::npos);
    EXPECT_NE(dot.find("label=\"fig1\""), std::string::npos);
    EXPECT_NE(dot.find("ep0"), std::string::npos);
    EXPECT_NE(dot.find("ep15"), std::string::npos);
    EXPECT_NE(dot.find("r23"), std::string::npos); // last router
    EXPECT_NE(dot.find("->"), std::string::npos);
}

TEST(Dot, DeadElementsAreMarked)
{
    auto net = buildMultibutterfly(fig1Spec(4));
    net->router(5).setDead(true);
    net->link(3).setFault(LinkFault::Dead);
    const auto dot = networkToDot(*net);
    EXPECT_NE(dot.find("style=dashed, color=red"),
              std::string::npos);
}

} // namespace
} // namespace metro
