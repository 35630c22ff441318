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
    EXPECT_EQ(opts->config.network.kind, NetworkRecipe::Kind::Fig3);
    EXPECT_EQ(opts->config.mode, SweepMode::Closed);
    EXPECT_EQ(opts->config.experiment.messageWords, 20u);
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
    const SweepConfig &c = opts->config;
    EXPECT_EQ(c.network.kind, NetworkRecipe::Kind::Fig1);
    EXPECT_EQ(c.mode, SweepMode::Open);
    EXPECT_EQ(c.inject, (std::vector<double>{0.01, 0.05}));
    EXPECT_EQ(c.think, (std::vector<unsigned>{5, 10, 15}));
    EXPECT_TRUE(opts->csv);
    EXPECT_EQ(c.experiment.pattern, TrafficPattern::Hotspot);
    EXPECT_EQ(c.experiment.hotNode, 7u);
    EXPECT_DOUBLE_EQ(c.experiment.hotFraction, 0.5);
    EXPECT_EQ(c.network.seed, 99u);
    EXPECT_EQ(c.network.routerFaults, 2u);
    EXPECT_EQ(c.network.faultCycle, 1000u);
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
    opts.config.network.kind = NetworkRecipe::Kind::Fig1;
    opts.config.think = {100};
    opts.config.experiment.warmup = 200;
    opts.config.experiment.measure = 1500;
    opts.config.experiment.messageWords = 8;
    const auto report = runFromOptions(opts);
    EXPECT_NE(report.find("closed-loop"), std::string::npos);
    EXPECT_NE(report.find("think=100"), std::string::npos);
}

TEST(Runner, CsvOutputParsesAsRows)
{
    Options opts;
    opts.config.network.kind = NetworkRecipe::Kind::Fig1;
    opts.config.think = {50, 5};
    opts.config.experiment.warmup = 200;
    opts.config.experiment.measure = 1500;
    opts.config.experiment.messageWords = 8;
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
    opts.config.network.kind = NetworkRecipe::Kind::Fig3;
    opts.config.think = {20};
    opts.config.experiment.warmup = 200;
    opts.config.experiment.measure = 1500;
    opts.config.network.routerFaults = 2;
    opts.config.network.linkFaults = 4;
    const auto report = runFromOptions(opts);
    EXPECT_NE(report.find("think=20"), std::string::npos);
}

TEST(Runner, SessionStatsDescribeTheReportedPoint)
{
    // --stats reads its counters off a re-run of the last point; that
    // re-run must be the same session-mode point the table reports.
    std::string error;
    const auto opts = parse({"--topology=fig1", "--mode=session",
                             "--session-rate=0.01", "--warmup=200",
                             "--measure=2000", "--stats"},
                            error);
    ASSERT_TRUE(opts.has_value()) << error;
    const auto report = runFromOptions(*opts);
    EXPECT_NE(report.find("metro_sim: session-loop"), std::string::npos)
        << report;

    // The point, run directly: sweep point 0 of base seed 1.
    auto net = buildMultibutterfly(fig1Spec(1));
    ExperimentConfig cfg;
    cfg.warmup = 200;
    cfg.measure = 2000;
    cfg.session.rate = 0.01;
    cfg.seed = sweepDeriveSeed(1, 0, 0);
    runSessionLoop(*net, cfg);
    const std::string submitted =
        "messages: " + std::to_string(net->tracker().all().size()) +
        " submitted";
    EXPECT_NE(report.find(submitted), std::string::npos) << report;
}

TEST(Runner, FatTreeTopology)
{
    Options opts;
    opts.config.network.kind = NetworkRecipe::Kind::FatTree;
    opts.config.think = {30};
    opts.config.experiment.warmup = 200;
    opts.config.experiment.measure = 1500;
    const auto report = runFromOptions(opts);
    EXPECT_NE(report.find("think=30"), std::string::npos);
}

} // namespace
} // namespace metro
