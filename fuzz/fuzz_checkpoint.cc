/**
 * @file
 * libFuzzer entry point for the checkpoint deserializer.
 *
 * A checkpoint restores into a *live* simulation instance, so a
 * hostile or corrupted file is the highest-risk input the serve
 * path takes: every count is attacker-controlled and most fields
 * index into engine structures. The restore must reject arbitrary
 * bytes with an error — never crash, assert, index out of range,
 * or allocate unbounded memory.
 *
 * Each input restores into two targets, the instances metro_sim
 * --serve builds for the two valid seeds' flag sets: plain fig1,
 * and fig1 with diagnosis, a fault schedule and campaign, and a
 * maintenance op, so the DIAG, CAMP, INJE and harness decoders are
 * reached too. Restores go through ServiceRunner, which decodes the
 * harness section after the simulation state.
 *
 * The targets are built once and reused: a failed restore may leave
 * one partially overwritten, which is exactly the state a real
 * process would be in, and later iterations must still be safe
 * against it. The digest is read back out of the input's own header
 * so fuzzing reaches past the header check into the tagged
 * sections.
 *
 * Each input restores twice per target: once verbatim (exercising
 * the integrity-footer gate, which rejects almost every mutation),
 * and once with a freshly computed valid footer appended (so
 * mutations keep reaching the header check and section decoders
 * behind the gate).
 *
 * Seed corpus: tests/corpus/checkpoint/ (replayed as plain ctest
 * cases by tests/test_checkpoint_fuzz.cc on non-clang toolchains).
 */

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "app/options.hh"
#include "serve/checkpoint.hh"
#include "serve/service.hh"

namespace
{

/** The seeds' flag sets (see tests/test_checkpoint_fuzz.cc):
 *  --topology=fig1 --serve --window=1024 --think=200, and the same
 *  plus --diagnosis --fault-file=diag_campaign.fault
 *  --maintain=2@2048+4096. */
metro::Options
seedOptions(bool diag)
{
    metro::Options opts;
    opts.config.network.kind = metro::NetworkRecipe::Kind::Fig1;
    opts.config.think = {200};
    opts.serve = true;
    opts.window = 1024;
    if (diag) {
        std::string error;
        opts.config.network.diagnosis = true;
        opts.config.network.faultPath = "diag_campaign.fault";
        opts.config.network.faults = metro::parseFaultText(
            "linkFailRate = 0.0008\nlinkHealRate = 0.008\n"
            "corruptFraction = 0.25\nflakyLinks = 2\n"
            "flakyPeriod = 512\nstart = 1000\n"
            "fault = 500 linkDead 40\n",
            error);
        opts.maintain = {"2@2048+4096"};
    }
    return opts;
}

void
restoreInto(metro::ServeSetup &target, const std::uint8_t *data,
            std::size_t size, std::uint64_t digest)
{
    metro::ServeConfig cfg = target.config;
    cfg.configDigest = digest;
    metro::ServiceRunner runner(cfg, target.parts);
    runner.restoreFromBytes(data, size);
}

} // namespace

extern "C" int
LLVMFuzzerTestOneInput(const std::uint8_t *data, std::size_t size)
{
    static const std::unique_ptr<metro::ServeSetup> targets[] = {
        metro::buildServeSetup(seedOptions(false)),
        metro::buildServeSetup(seedOptions(true)),
    };
    // Mirror the digest the input claims (header offset 8) so the
    // compatibility gate passes and the section decoders fuzz.
    std::uint64_t digest = 0;
    if (size >= 16)
        for (int b = 0; b < 8; ++b)
            digest |= static_cast<std::uint64_t>(data[8 + b])
                      << (8 * b);

    // Pass 2's input: the same bytes blessed with a valid footer,
    // so the mutation lands on the section decoders instead of
    // dying at the checksum.
    std::vector<std::uint8_t> blessed(data, data + size);
    metro::appendCheckpointFooter(blessed);

    for (const auto &target : targets) {
        restoreInto(*target, data, size, digest);
        restoreInto(*target, blessed.data(), blessed.size(), digest);
    }
    return 0;
}
