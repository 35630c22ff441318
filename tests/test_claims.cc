/**
 * @file
 * Tests for sweep-file runs and claims (app/claim.hh), and for the
 * experiment files under experiments/: the claim grammar on a
 * hand-made sweep, the parser corpus's refusals, the spec and fault
 * files pinned to the networks and faults they stand for, and every
 * experiment's claims at reduced windows on five seeds.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "app/options.hh"
#include "app/specfile.hh"
#include "app/sweepfile.hh"
#include "network/analysis.hh"
#include "network/presets.hh"

namespace metro
{
namespace
{

#ifndef METRO_TEST_DATA_DIR
#define METRO_TEST_DATA_DIR "."
#endif

const std::filesystem::path kData = METRO_TEST_DATA_DIR;

std::string
experimentPath(const std::string &name)
{
    return (kData.parent_path() / "experiments" / name).string();
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

/** An experiment file's options, as `--sweep-file` alone parses it. */
Options
experimentOptions(const std::string &name)
{
    std::string error;
    auto opts = parseArgs({"--sweep-file=" + experimentPath(name)}, error);
    EXPECT_TRUE(opts.has_value()) << name << ": " << error;
    return opts.has_value() ? *opts : Options{};
}

const SweepRun &
runNamed(const Options &opts, const std::string &name)
{
    const auto &runs = opts.sections.runs;
    const auto it = std::find_if(runs.begin(), runs.end(),
                                 [&](const SweepRun &r) {
                                     return r.name == name;
                                 });
    EXPECT_NE(it, runs.end()) << name;
    return *it;
}

/** A sweep of hand-set results: (label, load, gaveUp) per point. */
SweepResult
handMadeSweep(
    const std::vector<std::tuple<std::string, double, std::uint64_t>> &rows)
{
    SweepResult sweep;
    for (const auto &[label, load, gave_up] : rows) {
        SweepPointResult p;
        p.label = label;
        p.result.achievedLoad = load;
        p.result.gaveUpMessages = gave_up;
        sweep.points.push_back(p);
    }
    return sweep;
}

/** The verdict on `expression`, which must parse and resolve. */
ClaimVerdict
verdict(const std::string &expression, const SweepResult &sweep)
{
    TextLine line;
    line.number = 1;
    line.key = "c";
    line.value = expression;
    Claim claim;
    EXPECT_EQ(parseClaim(line, claim), "") << expression;
    std::vector<std::string> labels;
    for (const auto &p : sweep.points)
        labels.push_back(p.label);
    EXPECT_EQ(resolveClaim(claim, labels), "") << expression;
    return checkClaims({claim}, sweep).front();
}

TEST(Claims, EachOperatorAndAggregate)
{
    const auto sweep = handMadeSweep({{"r/1", 0.1, 0},
                                      {"r/2", 0.5, 0},
                                      {"r/3", 0.4, 0},
                                      {"r/4", 0.45, 0},
                                      {"m/1", 0.1, 0},
                                      {"m/2", 0.2, 0},
                                      {"m/x/3", 0.2, 0},
                                      {"mx/1", 0.05, 7}});
    const auto held = [&](const std::string &e) {
        return verdict(e, sweep).held;
    };
    EXPECT_TRUE(held("r.load < 0.6"));
    EXPECT_FALSE(held("r.load < 0.5"));
    EXPECT_TRUE(held("r.load <= 0.5"));
    EXPECT_TRUE(held("r.load > 0.05"));
    EXPECT_TRUE(held("r.load >= 0.1"));
    EXPECT_TRUE(held("m.gaveUp == 0"));
    EXPECT_FALSE(held("mx.gaveUp == 0"));
    // Every pair of values must compare.
    EXPECT_FALSE(held("r.load > m.load"));
    EXPECT_TRUE(held("r.load >= 0.5 * m.load"));
    // A run reference reads RUN and RUN/..., not a run that merely
    // shares a prefix (mx).
    EXPECT_TRUE(held("m.load >= 0.1"));
    EXPECT_TRUE(held("m/x.load == 0.2"));
    EXPECT_TRUE(held("\"mx/1\".gaveUp == 7"));
    EXPECT_TRUE(held("0.9 * 0.2 <= \"m/2\".load"));
    EXPECT_TRUE(held("max(r.load) == 0.5"));
    EXPECT_TRUE(held("afterPeak(r.load) == 0.4"));
    EXPECT_TRUE(held("afterPeak(r.load) >= 0.8 * max(r.load)"));
    EXPECT_FALSE(held("afterPeak(r.load) > 0.8 * max(r.load)"));
    // A peak at the last point has nothing after it.
    EXPECT_TRUE(held("afterPeak(mx.load) > 100"));
    EXPECT_TRUE(held("monotone(m.load)"));
    EXPECT_FALSE(held("monotone(r.load)"));

    const ClaimVerdict miss = verdict("m.load > r.load", sweep);
    EXPECT_EQ(miss.text, "claim c MISSED: m.load > r.load (0.1 > 0.1 is "
                         "false)");
    EXPECT_EQ(verdict("monotone(r.load)", sweep).text,
              "claim c MISSED: monotone(r.load) (0.5 falls to 0.4)");
    EXPECT_EQ(verdict("r.load > 0", sweep).text,
              "claim c held: r.load > 0");
}

TEST(Claims, MalformedExpressionsAreRefused)
{
    for (const char *text :
         {"fast.load", "fast.load >", "fast > 1", "max(fast.load > 1",
          "\"x.load > 1", "fast.load > 1 junk", "1fast.load > 0",
          "fast.load >> 1", "fast.nosuch > 0", "fast.label > 0",
          "monotone(fast.load", "monotone(3)", ". > 1", "5 * . > 1",
          "\"\".load > 0", ""}) {
        TextLine line;
        line.number = 4;
        line.key = "bad";
        line.value = text;
        Claim claim;
        const std::string reason = parseClaim(line, claim);
        EXPECT_NE(reason.find("in claim bad"), std::string::npos)
            << text << " -> " << reason;
    }
}

TEST(Claims, InvalidCorpusSeedsAreRefusedAtTheirLine)
{
    const auto dir = kData / "corpus" / "sweepfile";
    unsigned seen = 0;
    for (const auto &entry : std::filesystem::directory_iterator(dir)) {
        const std::string name = entry.path().filename().string();
        if (name.rfind("invalid_", 0) != 0)
            continue;
        ++seen;
        std::string text, error;
        ASSERT_TRUE(readTextFile(entry.path().string(), text, error));
        // The first line says where the file must be refused.
        const std::string head = "# refused at line ";
        ASSERT_EQ(text.rfind(head, 0), 0u) << name;
        const std::string line =
            text.substr(head.size(), text.find(':') - head.size());
        EXPECT_FALSE(parseSweepText(text, error).has_value()) << name;
        EXPECT_EQ(error.rfind("line " + line + ": ", 0), 0u)
            << name << ": " << error;
    }
    EXPECT_GE(seen, 6u);
}

TEST(ExperimentFiles, SpecFilesAreThePresetsTheyReplace)
{
    const auto load = [](const std::string &name) {
        std::string error;
        auto spec = loadSpecFile(experimentPath(name), error);
        EXPECT_TRUE(spec.has_value()) << name << ": " << error;
        if (!spec.has_value())
            return MultibutterflySpec{};
        spec->seed = 1;
        return *spec;
    };
    auto fig3 = fig3Spec(1);
    fig3.fastReclaim = false;
    EXPECT_EQ(specToText(load("fig3_detailed_reclaim.spec")),
              specToText(fig3));
    fig3 = fig3Spec(1);
    fig3.niConfig.maxAttempts = 24;
    EXPECT_EQ(specToText(load("fig3_bounded.spec")), specToText(fig3));
    fig3.randomSelection = false;
    EXPECT_EQ(specToText(load("fig3_bounded_deterministic.spec")),
              specToText(fig3));

    // The butterfly has exactly one path per endpoint pair; the
    // Figure 3 multibutterfly it is measured against has eight.
    auto butterfly = load("butterfly.spec");
    auto net = buildMultibutterfly(butterfly);
    EXPECT_EQ(minPathsOverPairs(*net, butterfly), 1u);
    EXPECT_EQ(countPaths(*net, butterfly, 0, 63), 1u);
    auto multi = buildMultibutterfly(fig3Spec(1));
    EXPECT_EQ(minPathsOverPairs(*multi, fig3Spec(1)), 8u);
    butterfly.niConfig.maxAttempts = 24;
    EXPECT_EQ(specToText(load("butterfly_bounded.spec")),
              specToText(butterfly));
}

TEST(ExperimentFiles, CorruptWiresAreEveryStage0RoutersPort0)
{
    const Options opts = experimentOptions("ablation_random_selection.ini");
    ASSERT_EQ(opts.sections.runs.size(), 2u);
    for (const SweepRun &run : opts.sections.runs) {
        SCOPED_TRACE(run.name);
        const auto net = run.config.network.build();
        // The backward-port-0 wire of each stage-0 router: the port
        // deterministic selection tries first.
        std::set<std::uint32_t> preferred;
        for (RouterId r : net->routersInStage(0))
            for (LinkId l = 0; l < net->numLinks(); ++l) {
                const auto &end = net->link(l).endA();
                if (end.kind == AttachKind::RouterBackward &&
                    end.id == r && end.port == 0)
                    preferred.insert(l);
            }
        std::set<std::uint32_t> named;
        ASSERT_TRUE(run.config.network.faults.has_value());
        for (const FaultEvent &e : run.config.network.faults->events) {
            EXPECT_EQ(e.kind, FaultKind::LinkCorrupt);
            EXPECT_EQ(e.at, 0u);
            named.insert(e.target);
        }
        EXPECT_EQ(named.size(), 16u);
        EXPECT_EQ(named, preferred);
    }
}

TEST(ExperimentFiles, DynamicFaultsLeaveEveryPairConnected)
{
    const Options opts = experimentOptions("fault_degradation.ini");
    unsigned files = 0;
    for (const SweepRun &run : opts.sections.runs) {
        const NetworkRecipe &recipe = run.config.network;
        if (!recipe.faults.has_value())
            continue;
        SCOPED_TRACE(run.name);
        ++files;
        Cycle last = 0;
        for (const FaultEvent &e : recipe.faults->events)
            last = std::max(last, e.at);
        SweepInstance instance = buildInstance(recipe, 1);
        Network &net = *instance.network;
        ASSERT_TRUE(allPairsConnected(net));
        net.engine().run(last + 1);
        for (const FaultEvent &e : recipe.faults->events)
            EXPECT_TRUE(e.kind == FaultKind::RouterDead
                            ? net.router(e.target).dead()
                            : net.link(e.target).fault() == LinkFault::Dead);
        EXPECT_TRUE(allPairsConnected(net));
    }
    EXPECT_EQ(files, 3u);
}

TEST(ExperimentFiles, Stage1Router3PartitionsOnlyTheButterfly)
{
    const Options opts = experimentOptions("ablation_dilation.ini");
    for (const char *name : {"hurt/butterfly", "hurt/multibutterfly"}) {
        SCOPED_TRACE(name);
        const NetworkRecipe &recipe = runNamed(opts, name).config.network;
        ASSERT_TRUE(recipe.faults.has_value());
        ASSERT_EQ(recipe.faults->events.size(), 1u);
        const FaultEvent &kill = recipe.faults->events.front();
        SweepInstance instance = buildInstance(recipe, 1);
        Network &net = *instance.network;
        EXPECT_EQ(kill.kind, FaultKind::RouterDead);
        EXPECT_EQ(kill.target, net.routersInStage(1)[3]);
        net.engine().run(kill.at + 1);
        EXPECT_TRUE(net.router(kill.target).dead());
        EXPECT_EQ(allPairsConnected(net),
                  std::string(name) == "hurt/multibutterfly");
    }
}

/** The experiment files whose claims run in tier 1. */
const char *const kClaimFiles[] = {
    "ablation_dilation.ini",   "ablation_fast_reclaim.ini",
    "ablation_random_selection.ini", "congestion_collapse.ini",
    "fault_degradation.ini",   "fig3_load_latency.ini",
    "openloop_saturation.ini",
};

/**
 * Claims whose verdict does not hold on all five seeds at the
 * reduced windows below. The full-size run in ci/run-all.sh still
 * gates them.
 */
const std::set<std::string> kFullSizeOnly = {
    // 25 vs 5 x 6 abandoned messages on seed 1.
    "deterministicAbandonsFiveTimesMore",
    // The heaviest static fault set keeps 17-24% of the fault-free
    // load on seeds 1, 3, 4 and 5.
    "staticKeepsAQuarterOfTheLoad",
    // The mid-run fault files are survivable on the file's own
    // network (seed 404); on seeds 4 and 5 one message between a
    // pair they cut stays unresolved.
    "dynamicResolvesAll",
    // At think >= 500 (load below 0.04) the mean latencies differ
    // by less than the noise of a 5000-cycle window (seeds 1, 4, 5).
    "latencyRisesWithLoad",
};

TEST(ExperimentFiles, EveryClaimFileRunsInTier1)
{
    std::set<std::string> with_claims;
    for (const auto &entry : std::filesystem::directory_iterator(
             kData.parent_path() / "experiments")) {
        const std::string name = entry.path().filename().string();
        if (entry.path().extension() == ".ini" &&
            !experimentOptions(name).sections.claims.empty())
            with_claims.insert(name);
    }
    EXPECT_EQ(with_claims, std::set<std::string>(std::begin(kClaimFiles),
                                                 std::end(kClaimFiles)));
}

class ExperimentClaims
    : public ::testing::TestWithParam<std::tuple<const char *, unsigned>>
{};

/** Each file at half its warmup and a quarter of its measurement
 *  window, on seeds 1-5. */
TEST_P(ExperimentClaims, HoldAtReducedWindows)
{
    const auto [file, seed] = GetParam();
    const Options full = experimentOptions(file);
    const ExperimentConfig &window = full.config.experiment;
    std::string error;
    const auto opts = parseArgs(
        {"--sweep-file=" + experimentPath(file),
         "--warmup=" + std::to_string(window.warmup / 2),
         "--measure=" + std::to_string(window.measure / 4),
         "--seed=" + std::to_string(seed), "--threads=1"},
        error);
    ASSERT_TRUE(opts.has_value()) << error;
    std::vector<ClaimVerdict> verdicts;
    runFromOptions(*opts, &verdicts);
    ASSERT_EQ(verdicts.size(), opts->sections.claims.size());
    for (const ClaimVerdict &v : verdicts)
        EXPECT_TRUE(v.held || kFullSizeOnly.count(v.name) != 0) << v.text;
}

INSTANTIATE_TEST_SUITE_P(
    Experiments, ExperimentClaims,
    ::testing::Combine(::testing::ValuesIn(kClaimFiles),
                       ::testing::Range(1u, 6u)),
    [](const auto &info) {
        std::string name = std::get<0>(info.param);
        name = name.substr(0, name.find('.'));
        return name + "_seed" + std::to_string(std::get<1>(info.param));
    });

} // namespace
} // namespace metro
