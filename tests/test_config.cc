/**
 * @file
 * Tests for the knob tables (app/config.hh, app/options.hh): one
 * naming rule across surfaces, command line and sweep file running
 * the same points, and a checkpoint digest that covers every knob
 * that shapes a served simulation.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "app/options.hh"
#include "serve/checkpoint.hh"

namespace metro
{
namespace
{

#ifndef METRO_TEST_DATA_DIR
#define METRO_TEST_DATA_DIR "."
#endif

std::string
corpusPath(const std::string &rel)
{
    return (std::filesystem::path(METRO_TEST_DATA_DIR) / "corpus" / rel)
        .string();
}

std::optional<Options>
parseArgs(std::vector<std::string> args, std::string &error)
{
    args.insert(args.begin(), "metro_sim");
    std::vector<const char *> argv;
    for (const auto &a : args)
        argv.push_back(a.c_str());
    return parseOptions(static_cast<int>(argv.size()), argv.data(), error);
}

std::string
runArgs(const std::vector<std::string> &args)
{
    std::string error;
    const auto opts = parseArgs(args, error);
    EXPECT_TRUE(opts.has_value()) << error;
    return opts.has_value() ? runFromOptions(*opts) : "";
}

TEST(Config, FlagsAreTheKebabCaseOfRowNames)
{
    std::set<std::string> flags;
    for (const auto &k : pointKnobs()) {
        const std::string name = k.name;
        if (name == "spec")
            EXPECT_EQ(k.cliFlag(), "--spec-file");
        else if (name == "faults")
            EXPECT_EQ(k.cliFlag(), "--fault-file");
        else
            EXPECT_EQ(k.cliFlag(), "--" + kebabCase(name));
        EXPECT_TRUE(flags.insert(k.cliFlag()).second) << name;
    }
    for (const auto &k : runKnobs()) {
        EXPECT_EQ(k.cliFlag(), "--" + kebabCase(k.name));
        EXPECT_TRUE(flags.insert(k.cliFlag()).second) << k.name;
        EXPECT_EQ(findKnob(pointKnobs(), k.name), nullptr) << k.name;
    }
    EXPECT_EQ(kebabCase("retryBudgetCap"), "retry-budget-cap");
    // --help is generated from the same rows.
    const std::string usage = usageText();
    for (const auto &flag : flags)
        EXPECT_NE(usage.find("  " + flag), std::string::npos) << flag;
}

TEST(Config, SweepFileFirstThenTheCommandLine)
{
    const std::string file = corpusPath("sweepfile/valid_closed.sweep");
    std::string error;
    auto opts = parseArgs({"--threads=2", "--sweep-file=" + file,
                           "--measure=500", "--drain-max=7"},
                          error);
    ASSERT_TRUE(opts.has_value()) << error;
    const SweepConfig &c = opts->config;
    EXPECT_EQ(c.threads, 2u);                 // file says 8
    EXPECT_EQ(c.experiment.measure, 500u);    // file says 20000
    EXPECT_EQ(c.experiment.drainMax, 7u);     // once sweep-file only
    EXPECT_EQ(c.replicates, 2u);              // from the file
    EXPECT_EQ(c.network.seed, 777u);          // from the file

    // Fault knobs that were command-line only now work in files.
    SweepConfig fromFile;
    ASSERT_TRUE(applySweepText("topology = fig3\nrouterFaults = 2\n"
                               "linkFaults = 3\nfaultCycle = 100\n",
                               "", fromFile, error))
        << error;
    EXPECT_EQ(fromFile.network.routerFaults, 2u);
    EXPECT_EQ(fromFile.network.linkFaults, 3u);
    EXPECT_EQ(fromFile.network.faultCycle, 100u);

    // Command-line-only rows are not sweep-file keys.
    EXPECT_FALSE(applySweepText("csv = true\n", "", fromFile, error));
    EXPECT_NE(error.find("line 1"), std::string::npos);
}

/** A sweep file's lines as the equivalent command-line flags. */
std::vector<std::string>
sweepFileAsFlags(const std::string &path)
{
    std::string text, error;
    EXPECT_TRUE(readTextFile(path, text, error)) << error;
    std::vector<std::string> flags;
    EXPECT_TRUE(forEachTextLine(text, error, [&](const TextLine &line) {
        const Knob<SweepConfig> *k = findKnob(pointKnobs(), line.key);
        if (k == nullptr)
            return "not a point knob: " + line.key;
        flags.push_back(k->cliFlag() + "=" + line.value);
        return std::string();
    })) << error;
    return flags;
}

/** CSV without the sweep CSV's replicate and seed columns. */
std::string
dropReplicateAndSeed(const std::string &csv)
{
    std::istringstream in(csv);
    std::string line, out;
    while (std::getline(in, line)) {
        std::vector<std::string> cells;
        std::istringstream row(line);
        for (std::string cell; std::getline(row, cell, ',');)
            cells.push_back(cell);
        if (cells.size() > 3)
            cells.erase(cells.begin() + 1, cells.begin() + 3);
        for (std::size_t k = 0; k < cells.size(); ++k)
            out += (k ? "," : "") + cells[k];
        out += "\n";
    }
    return out;
}

TEST(Config, CommandLineMatchesEverySweepFile)
{
    const std::vector<std::string> tail = {"--warmup=200",
                                           "--measure=2000"};
    const auto dir = std::filesystem::path(corpusPath("sweepfile"));
    std::vector<std::filesystem::path> files;
    for (const auto &entry : std::filesystem::directory_iterator(dir))
        if (entry.path().filename().string().rfind("valid_", 0) == 0)
            files.push_back(entry.path());
    std::sort(files.begin(), files.end());
    ASSERT_FALSE(files.empty());
    for (const auto &path : files) {
        SCOPED_TRACE(path.string());
        std::vector<std::string> file_args = {"--sweep-file=" +
                                              path.string()};
        std::vector<std::string> cli_args = sweepFileAsFlags(path);
        file_args.insert(file_args.end(), tail.begin(), tail.end());
        cli_args.insert(cli_args.end(), tail.begin(), tail.end());

        auto with = [](std::vector<std::string> args,
                       std::vector<std::string> more) {
            args.insert(args.end(), more.begin(), more.end());
            return args;
        };
        const std::vector<std::string> json = {"--json",
                                               "--metrics-json"};
        EXPECT_EQ(runArgs(with(file_args, json)),
                  runArgs(with(cli_args, json)));
        // A sweep file reports the sweep CSV (with replicate and
        // seed columns); the command line's --csv one row per point.
        const std::string file_csv = runArgs(with(file_args, {"--csv"}));
        const std::string cli_csv = runArgs(with(cli_args, {"--csv"}));
        EXPECT_NE(file_csv.find("label,replicate,seed,"),
                  std::string::npos);
        EXPECT_EQ(dropReplicateAndSeed(file_csv), cli_csv);
    }
}

/**
 * Knobs outside the checkpoint digest: a checkpoint restores into a
 * run that differs only in these. Every other knob must change the
 * digest, so a knob added later without a digest line fails here.
 */
const std::set<std::string> kOutsideDigest = {
    // Thread counts: output is byte-identical at every value.
    "threads", "engineThreads",
    // Output format and file paths.
    "csv", "stats", "json", "timing", "metricsJson", "dot",
    "traceConnections", "sweepFile", "checkpointOut", "restore",
    // Serve run control, supervisor and torture knobs.
    "serve", "serveCycles", "checkpointAt", "checkpointEvery",
    "checkpointKeep", "restoreAuto", "supervise", "restartBudget",
    "stallTimeoutMs", "restartBackoffMs", "crashAtCycle",
    "stallAtCycle",
    // Knobs serve ignores: it has no experiment windows, drives every
    // endpoint without replies, and runs one instance.
    "warmup", "measure", "drainMax", "activeFraction",
    "availabilityWindow", "requestReply", "replicates",
};

/** Values for rows whose type alone does not give a valid one. */
std::string
sampleFor(const std::string &name)
{
    if (name == "spec")
        return corpusPath("specfile/valid_fig3.spec");
    if (name == "faults")
        return corpusPath("faultfile/valid_mixed.faults");
    if (name == "maintain")
        return "2@4096+4096";
    if (name == "classMix")
        return "0.5,0.5";
    return "";
}

/** Set row `k` of `target` to some valid value other than its
 *  current one; false when none of the candidates is. */
template <class T>
bool
setNonDefault(const Knob<T> &k, T &target)
{
    const std::string before = k.show(target);
    std::vector<std::string> candidates = {sampleFor(k.name), "true",
                                           "false", "x.path"};
    if (!k.arg.empty()) {
        std::string alts = k.arg;
        alts = alts.substr(0, alts.find('['));
        // Last first: the first spelling is usually the default.
        std::istringstream in(alts);
        std::vector<std::string> spelled;
        for (std::string alt; std::getline(in, alt, '|');)
            spelled.push_back(alt);
        candidates.insert(candidates.end(), spelled.rbegin(),
                          spelled.rend());
    }
    double current = 0.0;
    parseF64(before, current);
    for (double v : {current + 1, current / 2, 1.0, 0.5, 2.0})
        candidates.push_back(formatReal(v));
    for (const auto &value : candidates) {
        T trial = target;
        if (!value.empty() && k.set(trial, value).empty() &&
            k.show(trial) != before) {
            target = trial;
            return true;
        }
    }
    return false;
}

TEST(Config, DigestCoversEveryKnobThatShapesTheRun)
{
    const std::string default_digest = canonicalConfigString(Options{});
    auto check = [&](const std::string &name, bool changed) {
        if (kOutsideDigest.count(name))
            EXPECT_FALSE(changed) << name << " is listed as outside "
                                             "the digest but changes it";
        else
            EXPECT_TRUE(changed) << name << " escapes the checkpoint "
                                            "digest";
    };
    for (const auto &k : pointKnobs()) {
        // The load axes reach the digest only in their own mode.
        bool changed = false;
        for (SweepMode mode :
             {SweepMode::Closed, SweepMode::Open, SweepMode::Session}) {
            Options base;
            base.config.mode = mode;
            Options trial = base;
            ASSERT_TRUE(setNonDefault(k, trial.config)) << k.name;
            changed |= canonicalConfigString(trial) !=
                       canonicalConfigString(base);
        }
        check(k.name, changed);
    }
    for (const auto &k : runKnobs()) {
        Options trial;
        ASSERT_TRUE(setNonDefault(k, trial)) << k.name;
        check(k.name, canonicalConfigString(trial) != default_digest);
    }
}

TEST(Config, DigestBytesOfTheCorpusCheckpointConfig)
{
    // The flags tests/corpus/checkpoint/valid_fig1_serve.ckpt was
    // written with; stores written before the knob tables existed
    // must keep restoring.
    std::string error;
    const auto opts = parseArgs({"--topology=fig1", "--serve",
                                 "--window=1024", "--think=200"},
                                error);
    ASSERT_TRUE(opts.has_value()) << error;
    EXPECT_EQ(canonicalConfigString(*opts),
              "topology=1\nspec=\nmode=0\npattern=0\nmessageWords=20\n"
              "seed=1\nrouterFaults=0\nlinkFaults=0\nfaultCycle=0\n"
              "faultFile=\ndiagnosis=0\nhotNode=0\nhotFraction=0.25\n"
              "think=200\nprocess=0\nburstOn=64\nburstOff=192\n"
              "burstRatio=8\nsizeDist=0\nsizeMin=4\nsizeMax=64\n"
              "sizeAlpha=1.5\nfanout=1\nclassMix=\nsessionRequests=8\n"
              "sessionGap=32\nsessionMaxActive=4096\ndiurnalPeriod=0\n"
              "diurnalAmplitude=0.5\nretry.kind=~\n"
              "retry.backoffMin=~\nretry.backoffMax=~\n"
              "retry.backoffCap=~\nretry.decorrelatedJitter=~\n"
              "retry.aimdDecrease=~\nretry.retryBudget=~\n"
              "retry.retryBudgetCap=~\nretry.sendQueueLimit=~\n"
              "retry.inflightLimit=~\nretry.ageClamp=~\n"
              "retry.ageStarve=~\nwindow=1024\n");
}

} // namespace
} // namespace metro
