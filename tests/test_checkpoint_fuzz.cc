/**
 * @file
 * Checkpoint-deserializer robustness tests.
 *
 * Replays the seed corpus under tests/corpus/checkpoint/ (the same
 * inputs fuzz/fuzz_checkpoint.cc starts from) through the serve
 * runner's restore against a live fig1 instance, as plain unit
 * tests: every input must either restore cleanly or be rejected with
 * an error — never crash, assert, or blow memory. Inputs named
 * valid_* were written by the CLI's serve mode with a known flag set
 * and must restore successfully against the matching instance;
 * everything else is corrupted and the restore must survive it.
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
#include "diag/engine.hh"
#include "serve/checkpoint.hh"
#include "serve/service.hh"

namespace metro
{
namespace
{

#ifndef METRO_TEST_DATA_DIR
#define METRO_TEST_DATA_DIR "."
#endif

std::filesystem::path
corpusDir()
{
    return std::filesystem::path(METRO_TEST_DATA_DIR) / "corpus" /
           "checkpoint";
}

std::vector<std::filesystem::path>
corpusFiles()
{
    std::vector<std::filesystem::path> files;
    for (const auto &entry :
         std::filesystem::directory_iterator(corpusDir()))
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

/** The valid seeds, each written by metro_sim at the current format
 *  (tests/corpus/regen_checkpoint_seeds.sh). */
const char *const kValidSeeds[] = {
    "valid_fig1_serve.ckpt",
    "valid_fig1_diag_serve.ckpt",
};

/** The fault file valid_fig1_diag_serve.ckpt was written with, as
 *  `--fault-file=diag_campaign.fault`: the soak-smoke campaign plus
 *  one dead interstage wire the diagnosis engine masks. */
constexpr const char *kDiagFaults = "linkFailRate = 0.0008\n"
                                    "linkHealRate = 0.008\n"
                                    "corruptFraction = 0.25\n"
                                    "flakyLinks = 2\n"
                                    "flakyPeriod = 512\n"
                                    "start = 1000\n"
                                    "fault = 500 linkDead 40\n";

/**
 * The flag set a seed was written with. valid_fig1_serve.ckpt and
 * the corrupted seeds derived from it:
 *   --topology=fig1 --serve --window=1024 --think=200
 * valid_fig1_diag_serve.ckpt adds, cut at cycle 4096 (mid
 * maintenance, one wire masked):
 *   --diagnosis --fault-file=diag_campaign.fault --maintain=2@2048+4096
 */
Options
seedOptions(const std::string &name)
{
    Options opts;
    opts.config.network.kind = NetworkRecipe::Kind::Fig1;
    opts.config.think = {200};
    opts.serve = true;
    opts.window = 1024;
    if (name.find("diag") != std::string::npos) {
        std::string error;
        opts.config.network.diagnosis = true;
        opts.config.network.faultPath = "diag_campaign.fault";
        opts.config.network.faults = parseFaultText(kDiagFaults, error);
        EXPECT_EQ(error, "");
        opts.maintain = {"2@2048+4096"};
    }
    return opts;
}

std::uint64_t
digestOf(const Options &opts)
{
    return checkpointDigest(canonicalConfigString(opts));
}

/** A little-endian u64 of the input's header (zero past its end). */
std::uint64_t
headerU64(const std::vector<std::uint8_t> &bytes, std::size_t offset)
{
    if (bytes.size() < offset + 8)
        return 0;
    std::uint64_t v = 0;
    for (int b = 0; b < 8; ++b)
        v |= static_cast<std::uint64_t>(bytes[offset + b]) << (8 * b);
    return v;
}

/** The digest the input's own header claims (offset 8), so
 *  corrupted inputs exercise the section decoders and not just the
 *  compatibility gate — mirrors the libFuzzer harness. */
std::uint64_t
headerDigest(const std::vector<std::uint8_t> &bytes)
{
    return headerU64(bytes, 8);
}

/** The instance metro_sim --serve builds for a seed's flags. */
struct Target
{
    std::unique_ptr<ServeSetup> setup;

    explicit Target(const Options &opts) : setup(buildServeSetup(opts))
    {
    }

    /** Restore through the serve runner, so the harness section is
     *  decoded too. */
    std::string
    restore(const std::vector<std::uint8_t> &bytes,
            std::uint64_t digest)
    {
        ServeConfig cfg = setup->config;
        cfg.configDigest = digest;
        ServiceRunner runner(cfg, setup->parts);
        return runner.restoreFromBytes(bytes.data(), bytes.size());
    }
};

/** `bytes` with its footer replaced by a freshly computed valid
 *  one, so an edit reaches the section decoders. */
std::vector<std::uint8_t>
reblessed(std::vector<std::uint8_t> bytes)
{
    bytes.resize(bytes.size() - kCheckpointFooterSize);
    appendCheckpointFooter(bytes);
    return bytes;
}

TEST(CheckpointCorpus, SeedsNeverCrash)
{
    const auto files = corpusFiles();
    ASSERT_FALSE(files.empty());
    unsigned valid = 0;
    for (const auto &path : files) {
        SCOPED_TRACE(path.string());
        const std::string name = path.filename().string();
        const auto bytes = slurp(path);
        const Options opts = seedOptions(name);
        // Every replay gets a fresh instance: a rejected restore
        // may leave partial state behind (as in a real process),
        // and the *next* file's verdict must not depend on it.
        Target target(opts);
        const bool isValid = name.rfind("valid_", 0) == 0;
        const std::string err = target.restore(
            bytes, isValid ? digestOf(opts) : headerDigest(bytes));
        if (isValid) {
            EXPECT_EQ(err, "");
            ++valid;
        }
        // Corrupted inputs may or may not be caught (a flipped
        // counter value is indistinguishable from real state);
        // surviving the restore is the contract.
    }
    EXPECT_EQ(valid, std::size(kValidSeeds));
}

TEST(CheckpointCorpus, ValidSeedRestoresAndRuns)
{
    // The restored instance must be *live*: serving it further must
    // not trip any engine or conservation invariant.
    for (const char *name : kValidSeeds) {
        SCOPED_TRACE(name);
        const auto bytes = slurp(corpusDir() / name);
        ASSERT_FALSE(bytes.empty());
        const Options opts = seedOptions(name);
        Target target(opts);
        const Cycle at = headerU64(bytes, 16);
        EXPECT_GT(at, 0u);
        ServeConfig cfg = target.setup->config;
        cfg.runCycles = at + 2048;
        ServiceRunner runner(cfg, target.setup->parts);
        ASSERT_EQ(runner.restoreFromBytes(bytes.data(), bytes.size()),
                  "");
        Network &net = *target.setup->instance.network;
        EXPECT_EQ(net.engine().now(), at);
        if (DiagnosisEngine *diag = target.setup->parts.diagnosis) {
            EXPECT_GE(diag->maskedLinks(), 1u);
        }
        EXPECT_EQ(runner.run(), "");
        EXPECT_EQ(net.engine().now(), at + 2048);
        EXPECT_GT(net.metricsSnapshot().get("words.delivered"), 0u);
    }
}

/** Bit-flip sweep over the valid seeds: a cheap deterministic
 *  mini-fuzz that runs on every toolchain. Each flip is restored as
 *  is (the integrity footer must catch it) and re-blessed with a
 *  valid footer (the section decoders must survive it). */
TEST(CheckpointCorpus, BitFlipsNeverCrash)
{
    for (const char *name : kValidSeeds) {
        SCOPED_TRACE(name);
        const auto valid = slurp(corpusDir() / name);
        ASSERT_FALSE(valid.empty());
        Target target(seedOptions(name)); // shared, like the fuzzer
        for (std::size_t k = 0; k < 300; ++k) {
            auto bytes = valid;
            const std::size_t pos =
                (k * 1315423911ULL) % bytes.size();
            bytes[pos] ^= static_cast<std::uint8_t>(1u << (k % 8));
            EXPECT_NE(target.restore(bytes, headerDigest(bytes)), "");
            if (pos < bytes.size() - kCheckpointFooterSize)
                target.restore(reblessed(bytes), headerDigest(bytes));
        }
    }
}

/** Restoring a seed and saving at once reproduces it byte for byte:
 *  any asymmetry between the writer and the reader shows here. */
TEST(CheckpointCorpus, RestoreThenSaveReproducesTheSeed)
{
    for (const char *name : kValidSeeds) {
        SCOPED_TRACE(name);
        const auto bytes = slurp(corpusDir() / name);
        ASSERT_FALSE(bytes.empty());
        const Options opts = seedOptions(name);
        Target target(opts);
        std::vector<std::uint8_t> blob;
        ASSERT_EQ(restoreCheckpointBytes(bytes.data(), bytes.size(),
                                         digestOf(opts),
                                         target.setup->parts, &blob),
                  "");
        const auto saved =
            saveCheckpointBytes(digestOf(opts), target.setup->parts,
                                blob);
        ASSERT_EQ(saved.size(), bytes.size());
        const auto diff =
            std::mismatch(saved.begin(), saved.end(), bytes.begin());
        EXPECT_TRUE(diff.first == saved.end())
            << "first differing byte at offset "
            << (diff.first - saved.begin());
    }
}

/** A seed of the previous format (v3 kept every ledger record ever
 *  created and the drivers' id lists) is refused at the version
 *  check, before any section is read. */
TEST(CheckpointCorpus, RefusesTheV3Seed)
{
    const char *name = "v3_fig1_serve.ckpt";
    const auto bytes = slurp(corpusDir() / name);
    ASSERT_FALSE(bytes.empty());
    ASSERT_EQ(headerU64(bytes, 4) & 0xffffffffu, 3u);
    Target target(seedOptions(name));
    EXPECT_EQ(target.restore(bytes, headerDigest(bytes)),
              "unsupported checkpoint version");
    EXPECT_EQ(target.restore(bytes, digestOf(seedOptions(name))),
              "unsupported checkpoint version");
}

/**
 * A footer-valid file whose diagnosis mask names a wire-map key
 * but a different router id must be rejected: trusting the id would
 * index the per-router taps out of range at the mask's next action.
 * Same for an id re-keyed consistently but out of range.
 */
TEST(CheckpointCorpus, RejectsMaskWhoseKeyAndIdDisagree)
{
    const char *name = "valid_fig1_diag_serve.ckpt";
    const auto bytes = slurp(corpusDir() / name);
    ASSERT_FALSE(bytes.empty());
    const Options opts = seedOptions(name);

    // DIAG section: tag, presence byte, score count + 32-byte
    // scores, mask count, then the first mask's key (u64), kind
    // (u8), id (u32) and port (u32).
    const std::uint8_t tag[] = {'D', 'I', 'A', 'G'};
    const auto payloadEnd = bytes.end() - kCheckpointFooterSize;
    const auto at = std::find_end(bytes.begin(), payloadEnd,
                                  std::begin(tag), std::end(tag));
    ASSERT_NE(at, payloadEnd);
    std::size_t off = static_cast<std::size_t>(at - bytes.begin()) + 5;
    const std::uint64_t scores = headerU64(bytes, off);
    off += 8 + 32 * scores;
    ASSERT_GE(headerU64(bytes, off), 1u) << "the seed holds no live mask";
    const std::size_t mask = off + 8;
    ASSERT_EQ(bytes[mask + 8], 1u) << "first mask is a router output";
    const std::uint64_t key = headerU64(bytes, mask);

    const auto put = [](std::vector<std::uint8_t> &b, std::size_t o,
                        std::uint64_t v, int width) {
        for (int k = 0; k < width; ++k)
            b[o + k] = static_cast<std::uint8_t>(v >> (8 * k));
    };
    {
        SCOPED_TRACE("id disagrees with the key");
        auto hostile = bytes;
        put(hostile, mask + 9, 0xfffe, 4);
        Target target(opts);
        EXPECT_EQ(target.restore(reblessed(hostile), digestOf(opts)),
                  "masked wire unknown to this topology");
    }
    {
        SCOPED_TRACE("id re-keyed but out of range");
        auto hostile = bytes;
        const std::uint64_t id = 0xfffe;
        put(hostile, mask, (key & ~(0xffffffffULL << 16)) | (id << 16),
            8);
        put(hostile, mask + 9, id, 4);
        Target target(opts);
        EXPECT_EQ(target.restore(reblessed(hostile), digestOf(opts)),
                  "masked wire unknown to this topology");
    }
    Target target(opts);
    EXPECT_EQ(target.restore(bytes, digestOf(opts)), "");
}

/**
 * A footer-valid file that names a router or endpoint counter the
 * entity's counter table does not have must be rejected: restoring
 * it would invent a counter every later snapshot reports.
 */
TEST(CheckpointCorpus, RejectsUnknownCounterName)
{
    const char *name = "valid_fig1_serve.ckpt";
    const auto bytes = slurp(corpusDir() / name);
    ASSERT_FALSE(bytes.empty());
    const Options opts = seedOptions(name);
    // Counter entries are a u64 name length, the name, and a u64
    // value; rename the first router and the first endpoint entry
    // in place (same length, so every offset stays put).
    for (const std::string from : {"requests", "attempts"}) {
        SCOPED_TRACE(from);
        std::vector<std::uint8_t> entry(8, 0);
        entry[0] = static_cast<std::uint8_t>(from.size());
        entry.insert(entry.end(), from.begin(), from.end());
        auto hostile = bytes;
        const auto at = std::search(hostile.begin(), hostile.end(),
                                    entry.begin(), entry.end());
        ASSERT_NE(at, hostile.end()) << "the seed never counted it";
        *(at + static_cast<std::ptrdiff_t>(entry.size()) - 1) = 'z';
        Target target(opts);
        EXPECT_EQ(target.restore(reblessed(hostile), digestOf(opts)),
                  "unknown counter name");
    }
    Target target(opts);
    EXPECT_EQ(target.restore(bytes, digestOf(opts)), "");
}

} // namespace
} // namespace metro
