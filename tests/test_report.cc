/**
 * @file
 * Tests for the CSV report module and the metro_sim option parser
 * and runner.
 */

#include <gtest/gtest.h>

#include "app/options.hh"
#include "network/presets.hh"
#include "report/csv.hh"
#include "traffic/experiment.hh"

namespace metro
{
namespace
{

TEST(Csv, EscapingFollowsRfc4180)
{
    EXPECT_EQ(CsvWriter::escape("plain"), "plain");
    EXPECT_EQ(CsvWriter::escape("a,b"), "\"a,b\"");
    EXPECT_EQ(CsvWriter::escape("say \"hi\""),
              "\"say \"\"hi\"\"\"");
    EXPECT_EQ(CsvWriter::escape("line\nbreak"),
              "\"line\nbreak\"");
}

TEST(Csv, RowsAreCommaJoinedCrlf)
{
    CsvWriter csv;
    csv.row({"a", "b,c", "d"});
    csv.row({"1", "2", "3"});
    EXPECT_EQ(csv.str(), "a,\"b,c\",d\r\n1,2,3\r\n");
}

TEST(Csv, ExperimentRowMatchesHeaderWidth)
{
    auto net = buildMultibutterfly(fig1Spec(3));
    ExperimentConfig cfg;
    cfg.messageWords = 8;
    cfg.warmup = 100;
    cfg.measure = 800;
    cfg.thinkTime = 10;
    cfg.seed = 4;
    const auto result = runClosedLoop(*net, cfg);
    EXPECT_EQ(experimentCsvRow("x", result).size(),
              experimentCsvHeader().size());
}

TEST(Csv, HistogramRoundTrips)
{
    Histogram h;
    h.sample(5);
    h.sample(5);
    h.sample(9);
    const auto doc = histogramCsv(h);
    EXPECT_NE(doc.find("latency,count"), std::string::npos);
    EXPECT_NE(doc.find("5,2"), std::string::npos);
    EXPECT_NE(doc.find("9,1"), std::string::npos);
}

std::optional<Options>
parse(std::vector<const char *> args, std::string &error)
{
    args.insert(args.begin(), "metro_sim");
    return parseOptions(static_cast<int>(args.size()), args.data(),
                        error);
}

TEST(Options, Defaults)
{
    std::string error;
    const auto opts = parse({}, error);
    ASSERT_TRUE(opts.has_value()) << error;
    EXPECT_EQ(opts->topology, Topology::Fig3);
    EXPECT_EQ(opts->mode, LoadMode::Closed);
    EXPECT_EQ(opts->messageWords, 20u);
    EXPECT_FALSE(opts->csv);
}

TEST(Options, ParsesSweepsAndFlags)
{
    std::string error;
    const auto opts = parse({"--topology=fig1", "--mode=open",
                             "--inject=0.01,0.05",
                             "--think=5,10,15", "--csv",
                             "--pattern=hotspot", "--hot-node=7",
                             "--hot-fraction=0.5", "--seed=99",
                             "--router-faults=2",
                             "--fault-cycle=1000"},
                            error);
    ASSERT_TRUE(opts.has_value()) << error;
    EXPECT_EQ(opts->topology, Topology::Fig1);
    EXPECT_EQ(opts->mode, LoadMode::Open);
    EXPECT_EQ(opts->injectProbs,
              (std::vector<double>{0.01, 0.05}));
    EXPECT_EQ(opts->thinkTimes, (std::vector<unsigned>{5, 10, 15}));
    EXPECT_TRUE(opts->csv);
    EXPECT_EQ(opts->pattern, TrafficPattern::Hotspot);
    EXPECT_EQ(opts->hotNode, 7u);
    EXPECT_DOUBLE_EQ(opts->hotFraction, 0.5);
    EXPECT_EQ(opts->seed, 99u);
    EXPECT_EQ(opts->routerFaults, 2u);
    EXPECT_EQ(opts->faultCycle, 1000u);
}

TEST(Options, RejectsBadInput)
{
    std::string error;
    EXPECT_FALSE(parse({"--topology=torus"}, error).has_value());
    EXPECT_NE(error.find("torus"), std::string::npos);
    EXPECT_FALSE(parse({"--inject=1.5"}, error).has_value());
    EXPECT_FALSE(parse({"--think=abc"}, error).has_value());
    EXPECT_FALSE(parse({"--message-words=0"}, error).has_value());
    EXPECT_FALSE(parse({"--frobnicate"}, error).has_value());
}

TEST(Options, HelpShortCircuits)
{
    std::string error;
    const auto opts = parse({"--help"}, error);
    ASSERT_TRUE(opts.has_value());
    EXPECT_TRUE(opts->help);
    EXPECT_NE(usageText().find("--topology"), std::string::npos);
}

TEST(Runner, ClosedLoopTableOutput)
{
    Options opts;
    opts.topology = Topology::Fig1;
    opts.thinkTimes = {100};
    opts.warmup = 200;
    opts.measure = 1500;
    opts.messageWords = 8;
    const auto report = runFromOptions(opts);
    EXPECT_NE(report.find("closed-loop"), std::string::npos);
    EXPECT_NE(report.find("think=100"), std::string::npos);
}

TEST(Runner, CsvOutputParsesAsRows)
{
    Options opts;
    opts.topology = Topology::Fig1;
    opts.thinkTimes = {50, 5};
    opts.warmup = 200;
    opts.measure = 1500;
    opts.messageWords = 8;
    opts.csv = true;
    const auto report = runFromOptions(opts);
    // Header + 2 data rows.
    std::size_t lines = 0, pos = 0;
    while ((pos = report.find("\r\n", pos)) != std::string::npos) {
        ++lines;
        pos += 2;
    }
    EXPECT_EQ(lines, 3u);
    EXPECT_NE(report.find("think=50"), std::string::npos);
    EXPECT_NE(report.find("think=5"), std::string::npos);
}

TEST(Runner, FaultedRunStillCompletes)
{
    Options opts;
    opts.topology = Topology::Fig3;
    opts.thinkTimes = {20};
    opts.warmup = 200;
    opts.measure = 1500;
    opts.routerFaults = 2;
    opts.linkFaults = 4;
    const auto report = runFromOptions(opts);
    EXPECT_NE(report.find("think=20"), std::string::npos);
}

TEST(Runner, FatTreeTopology)
{
    Options opts;
    opts.topology = Topology::FatTree;
    opts.thinkTimes = {30};
    opts.warmup = 200;
    opts.measure = 1500;
    const auto report = runFromOptions(opts);
    EXPECT_NE(report.find("think=30"), std::string::npos);
}

TEST(Runner, ProfileStaysOutOfTheReport)
{
    // --profile is host timing on stderr only: the CSV must be byte
    // identical with it on.
    Options opts;
    opts.topology = Topology::Fig1;
    opts.thinkTimes = {100, 5};
    opts.warmup = 200;
    opts.measure = 1500;
    opts.messageWords = 8;
    opts.csv = true;
    const auto plain = runFromOptions(opts);
    opts.profile = true;
    EXPECT_EQ(runFromOptions(opts), plain);
}

} // namespace
} // namespace metro
