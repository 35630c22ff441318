/**
 * @file
 * Checkpoint-deserializer robustness tests.
 *
 * Replays the seed corpus under tests/corpus/checkpoint/ (the same
 * inputs fuzz/fuzz_checkpoint.cc starts from) through
 * restoreCheckpointBytes against a live fig1 instance, as plain
 * unit tests: every input must either restore cleanly or be
 * rejected with an error — never crash, assert, or blow memory.
 * Inputs named valid_* were written by the CLI's serve mode with a
 * known flag set and must restore successfully against the
 * matching instance; everything else is corrupted and the restore
 * must survive it.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "app/options.hh"
#include "network/multibutterfly.hh"
#include "network/presets.hh"
#include "serve/checkpoint.hh"
#include "traffic/drivers.hh"
#include "traffic/patterns.hh"

namespace metro
{
namespace
{

#ifndef METRO_TEST_DATA_DIR
#define METRO_TEST_DATA_DIR "."
#endif

std::vector<std::filesystem::path>
corpusFiles()
{
    std::vector<std::filesystem::path> files;
    const auto dir = std::filesystem::path(METRO_TEST_DATA_DIR) /
                     "corpus" / "checkpoint";
    for (const auto &entry :
         std::filesystem::directory_iterator(dir))
        files.push_back(entry.path());
    std::sort(files.begin(), files.end());
    return files;
}

std::vector<std::uint8_t>
slurp(const std::filesystem::path &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::vector<std::uint8_t>(
        std::istreambuf_iterator<char>(in),
        std::istreambuf_iterator<char>());
}

/** The flag set valid_fig1_serve.ckpt was written with:
 *  --topology=fig1 --serve --window=1024 --think=200. */
Options
corpusOptions()
{
    Options opts;
    opts.config.network.kind = NetworkRecipe::Kind::Fig1;
    opts.config.think = {200};
    opts.serve = true;
    opts.window = 1024;
    return opts;
}

/** The same instance shape runServe builds for those flags. */
struct Target
{
    std::unique_ptr<Network> net;
    std::unique_ptr<DestinationGenerator> dests;
    std::vector<std::unique_ptr<ClosedLoopDriver>> drivers;
    CheckpointParticipants parts;

    explicit Target(const Options &opts)
    {
        const std::uint64_t seed = opts.config.network.seed;
        const ExperimentConfig &cfg = opts.config.experiment;
        auto spec = fig1Spec(seed);
        opts.config.network.retry.apply(spec.niConfig.retry);
        net = buildMultibutterfly(spec);
        const auto n =
            static_cast<unsigned>(net->numEndpoints());
        dests = std::make_unique<DestinationGenerator>(
            cfg.pattern, n, seed ^ 0x77, cfg.hotNode,
            cfg.hotFraction);
        DriverConfig dcfg;
        dcfg.messageWords = cfg.messageWords;
        for (unsigned e = 0; e < n; ++e) {
            drivers.push_back(
                std::make_unique<ClosedLoopDriver>(
                    &net->endpoint(e), dests.get(), dcfg,
                    opts.config.think[0],
                    seed ^ (0x5151ULL * (e + 1))));
            net->engine().addComponent(drivers.back().get());
        }
        parts.net = net.get();
        for (auto &d : drivers)
            parts.closedDrivers.push_back(d.get());
    }
};

/** The digest the input's own header claims (offset 8), so
 *  corrupted inputs exercise the section decoders and not just the
 *  compatibility gate — mirrors the libFuzzer harness. */
std::uint64_t
headerDigest(const std::vector<std::uint8_t> &bytes)
{
    if (bytes.size() < 16)
        return 0;
    std::uint64_t digest = 0;
    for (int b = 0; b < 8; ++b)
        digest |= static_cast<std::uint64_t>(bytes[8 + b])
                  << (8 * b);
    return digest;
}

TEST(CheckpointCorpus, SeedsNeverCrash)
{
    const Options opts = corpusOptions();
    const std::uint64_t digest =
        checkpointDigest(canonicalConfigString(opts));
    const auto files = corpusFiles();
    ASSERT_FALSE(files.empty());
    bool sawValid = false;
    for (const auto &path : files) {
        SCOPED_TRACE(path.string());
        const auto bytes = slurp(path);
        const bool valid =
            path.filename().string().rfind("valid_", 0) == 0;
        // Every replay gets a fresh instance: a rejected restore
        // may leave partial state behind (as in a real process),
        // and the *next* file's verdict must not depend on it.
        Target target(opts);
        std::vector<std::uint8_t> blob;
        const std::string err = restoreCheckpointBytes(
            bytes.data(), bytes.size(),
            valid ? digest : headerDigest(bytes), target.parts,
            &blob);
        if (valid) {
            EXPECT_EQ(err, "");
            sawValid = true;
        }
        // Corrupted inputs may or may not be caught (a flipped
        // counter value is indistinguishable from real state);
        // surviving the restore is the contract.
    }
    EXPECT_TRUE(sawValid);
}

TEST(CheckpointCorpus, ValidSeedRestoresAndRuns)
{
    // The restored instance must be *live*: running it further
    // must not trip any engine or conservation invariant.
    const Options opts = corpusOptions();
    const std::uint64_t digest =
        checkpointDigest(canonicalConfigString(opts));
    const auto dir = std::filesystem::path(METRO_TEST_DATA_DIR) /
                     "corpus" / "checkpoint";
    const auto bytes = slurp(dir / "valid_fig1_serve.ckpt");
    ASSERT_FALSE(bytes.empty());
    Target target(opts);
    std::vector<std::uint8_t> blob;
    ASSERT_EQ(restoreCheckpointBytes(bytes.data(), bytes.size(),
                                     digest, target.parts, &blob),
              "");
    const Cycle at = target.net->engine().now();
    EXPECT_GT(at, 0u);
    target.net->engine().run(2048);
    EXPECT_EQ(target.net->engine().now(), at + 2048);
    const auto snap = target.net->metricsSnapshot();
    EXPECT_GT(snap.get("words.delivered"), 0u);
}

/** Bit-flip sweep over the valid seed: a cheap deterministic
 *  mini-fuzz that runs on every toolchain. */
TEST(CheckpointCorpus, BitFlipsNeverCrash)
{
    const Options opts = corpusOptions();
    const auto dir = std::filesystem::path(METRO_TEST_DATA_DIR) /
                     "corpus" / "checkpoint";
    const auto valid = slurp(dir / "valid_fig1_serve.ckpt");
    ASSERT_FALSE(valid.empty());
    Target target(opts); // shared on purpose, like the fuzzer
    for (std::size_t k = 0; k < 300; ++k) {
        auto bytes = valid;
        const std::size_t pos =
            (k * 1315423911ULL) % bytes.size();
        bytes[pos] ^= static_cast<std::uint8_t>(1u << (k % 8));
        std::vector<std::uint8_t> blob;
        restoreCheckpointBytes(bytes.data(), bytes.size(),
                               headerDigest(bytes), target.parts,
                               &blob);
    }
}

} // namespace
} // namespace metro
