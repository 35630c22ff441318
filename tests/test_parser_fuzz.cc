/**
 * @file
 * Parser robustness tests for the command line and the spec, sweep
 * and fault file formats.
 *
 * Replays the seed corpus under tests/corpus/ (the same inputs the
 * optional libFuzzer harnesses in fuzz/ start from) through
 * parseOptions()/parseSpecText()/parseSweepText()/parseFaultText()
 * as plain unit tests (an argv seed holds one argument per line):
 * every input must parse or be rejected with an error — never
 * crash, hang, or blow memory. Inputs named valid_* must parse.
 * Inline cases cover the classic parser footguns: truncated lines,
 * huge values, duplicate keys, garbage bytes.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <vector>

#include "app/faultfile.hh"
#include "app/options.hh"
#include "app/specfile.hh"
#include "app/sweepfile.hh"

namespace metro
{
namespace
{

#ifndef METRO_TEST_DATA_DIR
#define METRO_TEST_DATA_DIR "."
#endif

std::vector<std::filesystem::path>
corpusFiles(const std::string &subdir)
{
    std::vector<std::filesystem::path> files;
    const auto dir = std::filesystem::path(METRO_TEST_DATA_DIR) /
                     "corpus" / subdir;
    for (const auto &entry :
         std::filesystem::directory_iterator(dir))
        files.push_back(entry.path());
    std::sort(files.begin(), files.end());
    return files;
}

std::string
slurp(const std::filesystem::path &path)
{
    std::ifstream in(path, std::ios::binary);
    std::stringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

TEST(ParserCorpus, ArgvSeedsNeverCrash)
{
    const auto files = corpusFiles("argv");
    ASSERT_FALSE(files.empty());
    for (const auto &path : files) {
        std::vector<std::string> args = {"metro_sim"};
        std::istringstream in(slurp(path));
        for (std::string arg; std::getline(in, arg);)
            args.push_back(arg);
        std::vector<const char *> argv;
        for (const auto &a : args)
            argv.push_back(a.c_str());
        std::string error;
        const auto opts = parseOptions(static_cast<int>(argv.size()),
                                       argv.data(), error);
        if (path.filename().string().rfind("valid_", 0) == 0) {
            EXPECT_TRUE(opts.has_value())
                << path << ": " << error;
        } else if (!opts.has_value()) {
            EXPECT_FALSE(error.empty()) << path;
        }
    }
}

TEST(ParserCorpus, SpecfileSeedsNeverCrash)
{
    const auto files = corpusFiles("specfile");
    ASSERT_FALSE(files.empty());
    for (const auto &path : files) {
        std::string error;
        const auto spec = parseSpecText(slurp(path), error);
        if (path.filename().string().rfind("valid_", 0) == 0) {
            EXPECT_TRUE(spec.has_value())
                << path << ": " << error;
        } else if (!spec.has_value()) {
            // Rejection must come with a message.
            EXPECT_FALSE(error.empty()) << path;
        }
    }
}

TEST(ParserCorpus, SweepfileSeedsNeverCrash)
{
    const auto files = corpusFiles("sweepfile");
    ASSERT_FALSE(files.empty());
    for (const auto &path : files) {
        std::string error;
        const auto sweep = parseSweepText(slurp(path), error);
        if (path.filename().string().rfind("valid_", 0) == 0) {
            EXPECT_TRUE(sweep.has_value())
                << path << ": " << error;
        } else if (!sweep.has_value()) {
            EXPECT_FALSE(error.empty()) << path;
        }
    }
}

TEST(ParserCorpus, FaultfileSeedsNeverCrash)
{
    const auto files = corpusFiles("faultfile");
    ASSERT_FALSE(files.empty());
    for (const auto &path : files) {
        std::string error;
        const auto faults = parseFaultText(slurp(path), error);
        if (path.filename().string().rfind("valid_", 0) == 0) {
            EXPECT_TRUE(faults.has_value())
                << path << ": " << error;
        } else if (!faults.has_value()) {
            EXPECT_FALSE(error.empty()) << path;
        }
    }
}

TEST(ParserFuzz, FaultfileRejectsMalformedEvents)
{
    for (const char *text :
         {"fault", "fault =", "fault = 100", "fault = 100 linkDead",
          "fault = 100 linkDead 4 1", "fault = 100 forwardPortOff 4",
          "fault = x linkDead 4", "fault = 100 linkDead x",
          "linkFailRate = -0.1", "linkFailRate = 2",
          "flakyPeriod = 0", "burstSize = 0",
          "start = 100\nstop = 50\n"}) {
        std::string error;
        const auto faults = parseFaultText(text, error);
        EXPECT_FALSE(faults.has_value()) << text;
        EXPECT_FALSE(error.empty()) << text;
    }
}

TEST(ParserFuzz, FaultfileParsesScheduleAndCampaign)
{
    std::string error;
    const auto faults = parseFaultText(
        "fault = 5000 linkDead 12\n"
        "fault = 5000 forwardPortOff 7 1\n"
        "linkFailRate = 0.001\nlinkHealRate = 0.01\n"
        "flakyLinks = 2\nstart = 100\n",
        error);
    ASSERT_TRUE(faults.has_value()) << error;
    ASSERT_EQ(faults->events.size(), 2u);
    EXPECT_EQ(faults->events[0].kind, FaultKind::LinkDead);
    EXPECT_EQ(faults->events[0].at, 5000u);
    EXPECT_EQ(faults->events[0].target, 12u);
    EXPECT_EQ(faults->events[1].kind, FaultKind::ForwardPortOff);
    EXPECT_EQ(faults->events[1].port, 1u);
    EXPECT_TRUE(faults->hasCampaign());
    EXPECT_EQ(faults->campaign.flakyLinks, 2u);
    EXPECT_EQ(faults->campaign.start, 100u);
}

TEST(ParserFuzz, FaultfileEventCountIsBounded)
{
    // A generator gone haywire must fail fast, not OOM.
    std::string text;
    for (int k = 0; k < 100001; ++k)
        text += "fault = 1 linkDead 0\n";
    std::string error;
    EXPECT_FALSE(parseFaultText(text, error).has_value());
    EXPECT_NE(error.find("too many"), std::string::npos);
}

TEST(ParserFuzz, TruncatedLinesAreRejectedNotCrashed)
{
    for (const char *text :
         {"endpoints", "endpoints =", "= 4", "[", "[stage",
          "endpoints = 4\nradix"}) {
        std::string error;
        const auto spec = parseSpecText(text, error);
        if (!spec.has_value()) {
            EXPECT_FALSE(error.empty()) << text;
        }
    }
    for (const char *text :
         {"think", "think =", "= closed", "mode"}) {
        std::string error;
        const auto sweep = parseSweepText(text, error);
        if (!sweep.has_value()) {
            EXPECT_FALSE(error.empty()) << text;
        }
    }
}

TEST(ParserFuzz, HugeValuesDoNotOverflowOrExhaustMemory)
{
    // A sweep whose point count would be astronomical must fail
    // fast instead of materializing the point vector.
    std::string error;
    const auto sweep = parseSweepText(
        "think = 1,2,3,4,5,6,7,8,9,10\n"
        "replicates = 99999999\n",
        error);
    EXPECT_FALSE(sweep.has_value());
    EXPECT_NE(error.find("too large"), std::string::npos);

    // 2^64-ish literals parse (or are rejected) without UB.
    std::string huge = "endpoints = 18446744073709551615\n";
    parseSpecText(huge, error);
    parseSweepText("seed = 18446744073709551615\n", error);
}

TEST(ParserFuzz, DuplicateKeysLastOneWins)
{
    std::string error;
    const auto spec = parseSpecText(
        "endpoints = 4\nendpoints = 64\nendpointPorts = 2\n"
        "[stage]\nradix = 4\nradix = 2\n",
        error);
    ASSERT_TRUE(spec.has_value()) << error;
    EXPECT_EQ(spec->numEndpoints, 64u);

    const auto sweep = parseSweepText(
        "mode = closed\nmode = open\ninject = 0.05\n", error);
    ASSERT_TRUE(sweep.has_value()) << error;
    ASSERT_FALSE(sweep->points.empty());
}

TEST(ParserFuzz, GarbageBytesAreRejected)
{
    std::string garbage;
    for (int b = 1; b < 256; ++b)
        garbage += static_cast<char>(b);
    std::string error;
    EXPECT_FALSE(parseSpecText(garbage, error).has_value());
    EXPECT_FALSE(parseSweepText(garbage, error).has_value());
    EXPECT_FALSE(parseFaultText(garbage, error).has_value());
    EXPECT_FALSE(error.empty());
}

} // namespace
} // namespace metro
