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
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "app/faultfile.hh"
#include "app/options.hh"
#include "app/specfile.hh"
#include "serve/checkpoint.hh"
#include "serve/service.hh"

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
    SweepSections sections;
    ASSERT_TRUE(applySweepText("topology = fig3\nrouterFaults = 2\n"
                               "linkFaults = 3\nfaultCycle = 100\n",
                               "", fromFile, sections, error))
        << error;
    EXPECT_EQ(fromFile.network.routerFaults, 2u);
    EXPECT_EQ(fromFile.network.linkFaults, 3u);
    EXPECT_EQ(fromFile.network.faultCycle, 100u);

    // Command-line-only rows are not sweep-file keys.
    EXPECT_FALSE(
        applySweepText("csv = true\n", "", fromFile, sections, error));
    EXPECT_NE(error.find("line 1"), std::string::npos);
}

TEST(Config, CommandLineOverridesEveryRun)
{
    std::string error;
    const auto opts = parseArgs(
        {"--sweep-file=" + corpusPath("sweepfile/valid_runs_claims.sweep"),
         "--measure=500", "--backoff-max=9"},
        error);
    ASSERT_TRUE(opts.has_value()) << error;
    const auto &runs = opts->sections.runs;
    ASSERT_EQ(runs.size(), 2u);
    for (const SweepRun &run : runs) {
        EXPECT_EQ(run.config.experiment.measure, 500u) << run.name;
        EXPECT_EQ(run.config.network.retry.backoffMax, 9u) << run.name;
    }
    // A run's own key holds where the command line is silent.
    EXPECT_EQ(runs[0].config.think, (std::vector<unsigned>{200, 0}));
    EXPECT_EQ(runs[1].config.think, (std::vector<unsigned>{400, 0}));
}

/**
 * A sweep file's lines as the equivalent command-line flags: the
 * shared keys first, then, for each `[run]`, the shared keys and the
 * run's. PATH values resolve against the file's directory, as the
 * file resolves them.
 */
std::vector<std::vector<std::string>>
sweepFileAsFlags(const std::filesystem::path &path)
{
    std::string text, error;
    EXPECT_TRUE(readTextFile(path.string(), text, error)) << error;
    std::vector<std::vector<std::string>> flags(1);
    bool claims = false;
    EXPECT_TRUE(forEachTextLine(text, error, [&](const TextLine &line) {
        if (line.section) {
            claims = line.key == "claims";
            if (!claims)
                flags.push_back(flags.front());
            return std::string();
        }
        if (claims)
            return std::string();
        const Knob<SweepConfig> *k = findKnob(pointKnobs(), line.key);
        if (k == nullptr)
            return "not a point knob: " + line.key;
        const std::string value =
            k->arg == "PATH" && line.value.front() != '/'
                ? (path.parent_path() / line.value).string()
                : line.value;
        flags.back().push_back(k->cliFlag() + "=" + value);
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

/** Each `[run]` of the sweep file at `path` parses to the config its
 *  flag translation parses to, and expands to the same points. */
void
expectRunsMatchTheirFlags(const std::filesystem::path &path,
                          const std::vector<std::vector<std::string>> &flags)
{
    std::string error;
    const auto file = parseArgs({"--sweep-file=" + path.string()}, error);
    ASSERT_TRUE(file.has_value()) << error;
    const auto &runs = file->sections.runs;
    ASSERT_EQ(runs.size() + 1, flags.size());
    const auto points = expandSweep(file->config, file->sections, error);
    ASSERT_TRUE(points.has_value()) << error;
    std::vector<std::string> file_labels, cli_labels;
    for (const auto &p : *points)
        file_labels.push_back(p.label);
    for (std::size_t k = 0; k < runs.size(); ++k) {
        SCOPED_TRACE(runs[k].name);
        const auto cli = parseArgs(flags[k + 1], error);
        ASSERT_TRUE(cli.has_value()) << error;
        EXPECT_EQ(knobsToText(pointKnobs(), runs[k].config),
                  knobsToText(pointKnobs(), cli->config));
        const auto cli_points = expandPoints(cli->config, error);
        ASSERT_TRUE(cli_points.has_value()) << error;
        for (const auto &p : *cli_points)
            cli_labels.push_back(runs[k].name + "/" + p.label);
    }
    EXPECT_EQ(file_labels, cli_labels);
}

TEST(Config, CommandLineMatchesEverySweepFile)
{
    const std::vector<std::string> tail = {"--warmup=200",
                                           "--measure=2000"};
    std::vector<std::filesystem::path> files;
    for (const auto &entry : std::filesystem::directory_iterator(
             std::filesystem::path(corpusPath("sweepfile"))))
        if (entry.path().filename().string().rfind("valid_", 0) == 0)
            files.push_back(entry.path());
    for (const auto &entry : std::filesystem::directory_iterator(
             std::filesystem::path(METRO_TEST_DATA_DIR).parent_path() /
             "experiments"))
        if (entry.path().extension() == ".ini")
            files.push_back(entry.path());
    std::sort(files.begin(), files.end());
    ASSERT_FALSE(files.empty());
    for (const auto &path : files) {
        SCOPED_TRACE(path.string());
        const auto flags = sweepFileAsFlags(path);
        // A file with runs: each run against its own translation.
        if (flags.size() > 1) {
            expectRunsMatchTheirFlags(path, flags);
            continue;
        }
        std::vector<std::string> file_args = {"--sweep-file=" +
                                              path.string()};
        std::vector<std::string> cli_args = flags.front();
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
 * digest. canonicalConfigString writes every knob-table row except
 * the ones it lists as outside, so a row added to either list alone
 * fails here.
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
    // written with. The string is generated from the knob tables, one
    // `name=value` row per knob that shapes a serve run; pinning it
    // catches a change that would orphan every checkpoint store on
    // disk, which needs a format-version bump and regenerated seeds.
    std::string error;
    const auto opts = parseArgs({"--topology=fig1", "--serve",
                                 "--window=1024", "--think=200"},
                                error);
    ASSERT_TRUE(opts.has_value()) << error;
    EXPECT_EQ(canonicalConfigString(*opts),
              "topology=fig1\nspec=\nseed=1\nmode=closed\n"
              "pattern=uniform\nthink=200\ninject=0.01\n"
              "sessionRate=0.002\nmessageWords=20\nhotNode=0\n"
              "hotFraction=0.25\nprocess=\nburstOn=64\nburstOff=192\n"
              "burstRatio=8\nsizeDist=fixed\nsizeMin=4\nsizeMax=64\n"
              "sizeAlpha=1.5\nfanout=1\nclassMix=\nsessionRequests=8\n"
              "sessionGap=32\nsessionMaxActive=4096\ndiurnalPeriod=0\n"
              "diurnalAmplitude=0.5\nrouterFaults=0\nlinkFaults=0\n"
              "faultCycle=0\nfaults=\ndiagnosis=false\nretryPolicy=\n"
              "backoffMin=\nbackoffMax=\nbackoffCap=\nretryJitter=\n"
              "aimdDecrease=\nretryBudget=\nretryBudgetCap=\n"
              "sendQueueLimit=\ninflightLimit=\nageClamp=\n"
              "ageStarve=\nwindow=1024\nmaintain=\n");
}

/**
 * A fault file's scheduled events must name links, routers and ports
 * the network has: one that does not is a config error (exit 2), not
 * a panic when the injector fires or — for an id wider than 32 bits —
 * a silent strike on a different link.
 */
TEST(Config, FaultTargetsAreCheckedAgainstTheNetwork)
{
    const auto path = std::filesystem::temp_directory_path() /
                      ("metro_fault_range_" +
                       std::to_string(::testing::UnitTest::GetInstance()
                                          ->random_seed()) +
                       ".fault");
    const auto parseWith = [&](const std::string &line,
                               std::string &error) {
        std::ofstream(path) << line << "\n";
        return parseArgs({"--topology=fig3", "--fault-file=" +
                                                 path.string()},
                         error);
    };
    std::string error;
    const auto valid = parseWith("fault = 10 linkDead 0", error);
    ASSERT_TRUE(valid.has_value()) << error;
    const auto net = valid->config.network.build();
    const auto links = std::to_string(net->numLinks());
    const auto routers = std::to_string(net->numRouters());
    const auto fwd = std::to_string(net->router(0).params().numForward);
    const auto bwd = std::to_string(net->router(0).params().numBackward);

    const std::string accepted[] = {
        "fault = 10 linkDead " + std::to_string(net->numLinks() - 1),
        "fault = 10 routerDead " + std::to_string(net->numRouters() - 1),
        "fault = 10 forwardPortOff 0 " +
            std::to_string(net->router(0).params().numForward - 1),
    };
    for (const auto &line : accepted) {
        SCOPED_TRACE(line);
        error.clear();
        EXPECT_TRUE(parseWith(line, error).has_value()) << error;
    }

    const std::pair<std::string, std::string> rejected[] = {
        {"fault = 10 linkDead 100000", "link 100000 out of range"},
        {"fault = 10 linkHeal " + links, "link " + links + " out of range"},
        {"fault = 10 routerDead 5000", "router 5000 out of range"},
        {"fault = 10 routerMisroute " + routers,
         "router " + routers + " out of range"},
        {"fault = 10 forwardPortOff 0 " + fwd,
         "forward port " + fwd + " out of range"},
        {"fault = 10 backwardPortOff 0 " + bwd,
         "backward port " + bwd + " out of range"},
        {"fault = 10 backwardPortOff 5000 0", "router 5000 out of range"},
        {"fault = 10 linkDead 4294967296", "fault target out of range"},
        {"fault = 10 forwardPortOff 0 4294967296",
         "fault target out of range"},
    };
    for (const auto &[line, reason] : rejected) {
        SCOPED_TRACE(line);
        error.clear();
        EXPECT_FALSE(parseWith(line, error).has_value());
        EXPECT_NE(error.find(reason), std::string::npos) << error;
    }
    std::filesystem::remove(path);
}

/**
 * Integer values are decimal digits within 64 bits, on the command
 * line and in sweep, spec and fault files alike: a sign must not
 * wrap a negative value to a huge one (`--warmup=-4294967296` ran
 * for about 2^64 cycles) and an overflowing value must not saturate.
 */
TEST(Config, IntegerValuesAreDecimalDigitsOnly)
{
    std::uint64_t v = 0;
    EXPECT_TRUE(parseU64("0", v));
    EXPECT_TRUE(parseU64("18446744073709551615", v));
    EXPECT_EQ(v, 18446744073709551615ULL);
    for (const char *bad : {"", "-5", "+5", " 5", "5 ", "0x10", "1e3",
                            "-4294967296", "18446744073709551616"}) {
        SCOPED_TRACE(bad);
        EXPECT_FALSE(parseU64(bad, v));
    }

    const std::vector<std::string> rejected[] = {
        {"--topology=fig3", "--warmup=-5", "--measure=200", "--csv"},
        {"--topology=fig3", "--warmup=-4294967296"},
        {"--topology=fig3", "--measure=18446744073709551616"},
        {"--topology=fig3", "--seed=-1"},
        {"--topology=fig3", "--think=10,-20"},
    };
    for (const auto &args : rejected) {
        SCOPED_TRACE(args[1]);
        std::string error;
        EXPECT_FALSE(parseArgs(args, error).has_value());
        EXPECT_NE(error.find("expected an integer"), std::string::npos)
            << error;
    }

    SweepConfig config;
    SweepSections sections;
    std::string error;
    EXPECT_FALSE(
        applySweepText("warmup = -5\n", ".", config, sections, error));
    EXPECT_FALSE(parseSpecText("seed = -1\n", error).has_value());
    EXPECT_FALSE(
        parseFaultText("fault = -10 linkDead 0\n", error).has_value());
}

/**
 * A `--maintain` router must exist in the built network: an id past
 * the last router is a config error (exit 2), not an assertion when
 * the drain starts, and a negative id does not wrap onto a real one.
 */
TEST(Config, MaintenanceRoutersAreCheckedAgainstTheNetwork)
{
    std::string error;
    const auto valid = parseArgs({"--topology=fig3"}, error);
    ASSERT_TRUE(valid.has_value()) << error;
    const auto routers = valid->config.network.build()->numRouters();
    const auto last = std::to_string(routers - 1);
    ASSERT_TRUE(parseArgs({"--topology=fig3", "--serve",
                           "--maintain=" + last + "@100+100"},
                          error)
                    .has_value())
        << error;

    const std::pair<std::string, std::string> rejected[] = {
        {"9999@100+100", "router 9999 out of range"},
        {std::to_string(routers) + "@100+100",
         "router " + std::to_string(routers) + " out of range"},
        {"-4294967295@100+100", "expected ROUTER@START+DURATION"},
        {"4294967297@100+100", "expected ROUTER@START+DURATION"},
        {"1@-100+100", "expected ROUTER@START+DURATION"},
    };
    for (const auto &[op, reason] : rejected) {
        SCOPED_TRACE(op);
        error.clear();
        EXPECT_FALSE(parseArgs({"--topology=fig3", "--serve",
                                "--maintain=" + op},
                               error)
                         .has_value());
        EXPECT_NE(error.find(reason), std::string::npos) << error;
    }
}

} // namespace
} // namespace metro
