/**
 * @file
 * Service-mode tests: checkpoint/restore byte identity, planned
 * maintenance under an active fault campaign, and the windowed
 * metrics stream (src/serve/).
 *
 * The checkpoint contract mirrors the sharded engine's: *no
 * observable may depend on where the run was cut*. A run that is
 * checkpointed at a window boundary and resumed in a fresh process
 * image must continue the wire trace, the message ledger, the full
 * metrics snapshot, and the windowed JSONL stream byte-for-byte —
 * at every engine thread count, and across *different* thread
 * counts on the two sides (restore re-plans the shards; the PR-7
 * stale-plan hazard is pinned by RestoreAcrossEngineThreadCounts).
 *
 * The maintenance contract: drain-then-disable loses no words. The
 * drained router's counters freeze while it is disabled, both
 * conservation identities hold at every window boundary throughout
 * (ServiceRunner::run checks them and returns the violation), and
 * the op completes back to Done with the pre-drain enable states
 * restored — all while a stochastic fault campaign and the
 * diagnosis engine run concurrently.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "app/options.hh"
#include "diag/engine.hh"
#include "fault/campaign.hh"
#include "network/multibutterfly.hh"
#include "network/presets.hh"
#include "obs/registry.hh"
#include "serve/checkpoint.hh"
#include "serve/service.hh"
#include "trace/probe.hh"
#include "traffic/drivers.hh"
#include "traffic/patterns.hh"

namespace metro
{
namespace
{

/** A fully built serve-shaped instance (network + extras +
 *  per-endpoint drivers), with everything the checkpoint needs. */
struct ServeInstance
{
    std::unique_ptr<Network> net;
    std::unique_ptr<LinkProbe> probe;
    std::unique_ptr<FaultCampaign> campaign;
    std::unique_ptr<DiagnosisEngine> diag;
    std::unique_ptr<DestinationGenerator> dests;
    std::vector<std::unique_ptr<ClosedLoopDriver>> drivers;

    CheckpointParticipants
    participants()
    {
        CheckpointParticipants p;
        p.net = net.get();
        for (auto &d : drivers)
            p.closedDrivers.push_back(d.get());
        p.campaign = campaign.get();
        p.diagnosis = diag.get();
        return p;
    }
};

struct BuildOpts
{
    unsigned threads = 1;
    bool withCampaign = false;
    bool withDiag = false;
    bool withProbe = false;
};

/**
 * Identical component registration order on both sides of a
 * checkpoint (the restore validates the count): probe, campaign,
 * diagnosis, then one closed-loop driver per endpoint — the same
 * shape runServe builds.
 */
std::unique_ptr<ServeInstance>
buildServeInstance(std::uint64_t seed, const BuildOpts &b)
{
    auto si = std::make_unique<ServeInstance>();
    auto spec = fig1Spec(seed);
    spec.niConfig.maxAttempts = 60;
    si->net = buildMultibutterfly(spec);
    Engine &eng = si->net->engine();

    if (b.withProbe) {
        si->probe = std::make_unique<LinkProbe>(1u << 20);
        for (LinkId l = 0; l < si->net->numLinks(); ++l)
            si->probe->watch(&si->net->link(l));
        eng.addComponent(si->probe.get());
    }
    if (b.withCampaign) {
        CampaignConfig cc;
        cc.linkFailRate = 0.0008;
        cc.linkHealRate = 0.008;
        cc.corruptFraction = 0.25;
        cc.flakyLinks = 2;
        cc.flakyPeriod = 512;
        si->campaign = std::make_unique<FaultCampaign>(
            si->net.get(), cc, seed ^ 0xCA3);
        eng.addComponent(si->campaign.get());
    }
    if (b.withDiag) {
        si->diag =
            std::make_unique<DiagnosisEngine>(si->net.get());
        eng.addComponent(si->diag.get());
    }

    const auto n =
        static_cast<unsigned>(si->net->numEndpoints());
    si->dests = std::make_unique<DestinationGenerator>(
        TrafficPattern::UniformRandom, n, seed ^ 0x77, 0, 0.25);
    DriverConfig dcfg;
    dcfg.messageWords = 8;
    dcfg.requestReply = true;
    for (unsigned e = 0; e < n; ++e) {
        si->drivers.push_back(std::make_unique<ClosedLoopDriver>(
            &si->net->endpoint(e), si->dests.get(), dcfg, 150,
            seed ^ (0x5151ULL * (e + 1))));
        eng.addComponent(si->drivers.back().get());
    }
    if (b.threads != 1)
        eng.setThreads(b.threads);
    return si;
}

/** The live ledger in id order (retirement erases records, so the
 *  hash map's own order depends on the run's history). */
std::string
ledgerDump(const Network &net)
{
    std::map<std::uint64_t, const MessageRecord *> live;
    for (const auto &[id, rec] : net.tracker().all())
        live.emplace(id, &rec);
    std::ostringstream ledger;
    for (const auto &[id, r] : live) {
        const MessageRecord &rec = *r;
        ledger << id << " src" << rec.src << " dst" << rec.dest
               << " sub" << rec.submitCycle << " inj"
               << rec.injectCycle << " del" << rec.deliverCycle
               << " ack" << rec.ackCycle << " cmp"
               << rec.completeCycle << " att" << rec.attempts
               << " ok" << rec.succeeded << " gu" << rec.gaveUp
               << "\n";
    }
    const auto &retired = net.tracker().retired();
    ledger << "retired " << retired.records << " ok"
           << retired.succeeded << " gu" << retired.gaveUp << "\n";
    return ledger.str();
}

/** Formatted trace of events at or after `from` only (a restored
 *  process's probe starts empty, so only the tail is comparable). */
std::string
traceDumpFrom(const LinkProbe &probe, Network &net, Cycle from)
{
    EXPECT_EQ(probe.dropped(), 0u);
    std::ostringstream trace;
    for (const auto &e : probe.events())
        if (e.cycle >= from)
            trace << formatTraceEvent(e, &net.link(e.link)) << "\n";
    return trace.str();
}

/** Everything observable about one serve run. */
struct ServeOutcome
{
    std::vector<std::string> windows; ///< emitted JSONL lines
    std::string ledger;
    std::string metrics;   ///< full cumulative snapshot (JSON)
    std::string traceTail; ///< wire trace from the cut onward
};

constexpr Cycle kWindow = 512;
constexpr Cycle kTotal = 6144;
constexpr Cycle kCut = 3072;
constexpr std::uint64_t kDigest = 0xD16E57;

/** One uninterrupted reference run. */
ServeOutcome
runUninterrupted(std::uint64_t seed, const BuildOpts &b)
{
    auto si = buildServeInstance(seed, b);
    ServeConfig cfg;
    cfg.window = kWindow;
    cfg.runCycles = kTotal;
    cfg.configDigest = kDigest;
    ServiceRunner runner(cfg, si->participants());
    ServeOutcome out;
    runner.setEmitter([&](const std::string &line) {
        out.windows.push_back(line);
    });
    EXPECT_EQ(runner.run(), "");
    out.ledger = ledgerDump(*si->net);
    out.metrics = metricsJson(si->net->metricsSnapshot());
    if (si->probe)
        out.traceTail = traceDumpFrom(*si->probe, *si->net, kCut);
    return out;
}

/**
 * The same scenario cut at kCut: run to the checkpoint, throw the
 * whole process image away, rebuild from scratch, restore, and run
 * the remainder. Returns only what the *resumed* image observes.
 */
ServeOutcome
runWithRestart(std::uint64_t seed, const BuildOpts &save,
               const BuildOpts &restore, const std::string &path)
{
    {
        auto si = buildServeInstance(seed, save);
        ServeConfig cfg;
        cfg.window = kWindow;
        cfg.runCycles = kCut; // "crash" at the cut boundary
        cfg.configDigest = kDigest;
        cfg.checkpointOut = path;
        cfg.checkpointAt = kCut;
        ServiceRunner runner(cfg, si->participants());
        EXPECT_EQ(runner.run(), "");
    }
    auto si = buildServeInstance(seed, restore);
    ServeConfig cfg;
    cfg.window = kWindow;
    cfg.runCycles = kTotal;
    cfg.configDigest = kDigest;
    ServiceRunner runner(cfg, si->participants());
    EXPECT_EQ(runner.restoreFromFile(path), "");
    ServeOutcome out;
    runner.setEmitter([&](const std::string &line) {
        out.windows.push_back(line);
    });
    EXPECT_EQ(runner.run(), "");
    out.ledger = ledgerDump(*si->net);
    out.metrics = metricsJson(si->net->metricsSnapshot());
    if (si->probe)
        out.traceTail = traceDumpFrom(*si->probe, *si->net, kCut);
    return out;
}

void
expectResumeMatches(const ServeOutcome &full,
                    const ServeOutcome &resumed)
{
    // The resumed stream must be exactly the uninterrupted
    // stream's tail, starting at the cut window.
    const std::size_t skip = kCut / kWindow;
    ASSERT_EQ(full.windows.size(),
              resumed.windows.size() + skip);
    for (std::size_t i = 0; i < resumed.windows.size(); ++i)
        EXPECT_EQ(full.windows[skip + i], resumed.windows[i])
            << "window " << (skip + i);
    EXPECT_EQ(full.ledger, resumed.ledger);
    EXPECT_EQ(full.metrics, resumed.metrics);
    EXPECT_EQ(full.traceTail, resumed.traceTail);
}

std::string
tempCheckpointPath(const std::string &name)
{
    return (std::filesystem::temp_directory_path() / name)
        .string();
}

TEST(Serve, CheckpointRestoreByteIdenticalAtEveryThreadCount)
{
    // Campaign + diagnosis + probe: the full state surface.
    for (unsigned threads : {1u, 2u, 4u, 8u}) {
        SCOPED_TRACE("threads " + std::to_string(threads));
        BuildOpts b;
        b.threads = threads;
        b.withCampaign = true;
        b.withDiag = true;
        b.withProbe = true;
        const ServeOutcome full = runUninterrupted(0xBEEF, b);
        const ServeOutcome resumed = runWithRestart(
            0xBEEF, b, b,
            tempCheckpointPath("metro_serve_t" +
                               std::to_string(threads) +
                               ".ckpt"));
        expectResumeMatches(full, resumed);
    }
}

TEST(Serve, RestoreAcrossEngineThreadCounts)
{
    // Save under one engine-thread count, restore under another.
    // This is the PR-7 hazard surface: the restored state must
    // dirty the shard plan, or the new engine would step the lane
    // arena with the stale pre-restore partition.
    BuildOpts serial;
    serial.withCampaign = true;
    serial.withDiag = true;
    serial.withProbe = true;
    const ServeOutcome full = runUninterrupted(0xCAFE, serial);
    const std::pair<unsigned, unsigned> cuts[] = {
        {1, 4}, {4, 1}, {2, 8}, {8, 2}};
    for (const auto &[saveT, restoreT] : cuts) {
        SCOPED_TRACE("save " + std::to_string(saveT) +
                     " restore " + std::to_string(restoreT));
        BuildOpts save = serial, restore = serial;
        save.threads = saveT;
        restore.threads = restoreT;
        const ServeOutcome resumed = runWithRestart(
            0xCAFE, save, restore,
            tempCheckpointPath("metro_serve_x" +
                               std::to_string(saveT) + "_" +
                               std::to_string(restoreT) +
                               ".ckpt"));
        expectResumeMatches(full, resumed);
    }
}

/**
 * Without a diagnosis engine the endpoints stay parallel-safe, so at
 * two or more engine threads every driver ticks in its endpoint's
 * shard and its sends stage their ledger records until the phase
 * barrier (the campaign's corrupt spells send some drivers back to
 * the serial section while they last). The JSONL stream, the ledger
 * and the metrics match the one-thread run, also across a checkpoint
 * written at four threads and restored at one, and the reverse.
 */
TEST(Serve, StagedIdsByteIdenticalAcrossThreadCounts)
{
    BuildOpts serial;
    serial.withCampaign = true;
    serial.withProbe = true;
    const ServeOutcome reference = runUninterrupted(0x57A6, serial);
    for (unsigned threads : {2u, 3u, 4u, 8u}) {
        SCOPED_TRACE("threads " + std::to_string(threads));
        BuildOpts b = serial;
        b.threads = threads;
        const ServeOutcome full = runUninterrupted(0x57A6, b);
        EXPECT_EQ(reference.windows, full.windows);
        EXPECT_EQ(reference.ledger, full.ledger);
        EXPECT_EQ(reference.metrics, full.metrics);
        EXPECT_EQ(reference.traceTail, full.traceTail);
    }
    const std::pair<unsigned, unsigned> cuts[] = {{4, 1}, {1, 4}};
    for (const auto &[saveT, restoreT] : cuts) {
        SCOPED_TRACE("save " + std::to_string(saveT) + " restore " +
                     std::to_string(restoreT));
        BuildOpts save = serial, restore = serial;
        save.threads = saveT;
        restore.threads = restoreT;
        const ServeOutcome resumed = runWithRestart(
            0x57A6, save, restore,
            tempCheckpointPath("metro_serve_staged" +
                               std::to_string(saveT) + "_" +
                               std::to_string(restoreT) + ".ckpt"));
        expectResumeMatches(reference, resumed);
    }
}

TEST(Serve, RestoreRejectsDigestMismatch)
{
    const auto path =
        tempCheckpointPath("metro_serve_digest.ckpt");
    BuildOpts b;
    {
        auto si = buildServeInstance(0xD00D, b);
        ServeConfig cfg;
        cfg.window = kWindow;
        cfg.runCycles = kWindow;
        cfg.configDigest = kDigest;
        ServiceRunner runner(cfg, si->participants());
        ASSERT_EQ(runner.run(), "");
        ASSERT_EQ(runner.checkpointToFile(path), "");
    }
    auto si = buildServeInstance(0xD00D, b);
    ServeConfig cfg;
    cfg.window = kWindow;
    cfg.configDigest = kDigest + 1; // different config
    ServiceRunner runner(cfg, si->participants());
    const std::string err = runner.restoreFromFile(path);
    EXPECT_NE(err, "");
    EXPECT_NE(err.find("digest"), std::string::npos) << err;
}

/** Window lines parsed just enough for the maintenance checks. */
struct WindowRecord
{
    std::string phase; ///< first op's phase ("" when none)
    std::uint64_t routerWords = 0;
    std::uint64_t routerGrants = 0;
};

TEST(Serve, DrainThenDisableUnderFaultCampaignLosesNoWords)
{
    // A mid-stage router drains while a stochastic campaign and the
    // diagnosis engine run concurrently. ServiceRunner::run asserts
    // both conservation identities at every window boundary and
    // returns the violation text — so a clean "" return *is* the
    // conservation check.
    BuildOpts b;
    b.withCampaign = true;
    b.withDiag = true;
    auto si = buildServeInstance(0xFEED, b);
    Network &net = *si->net;
    ASSERT_GE(net.numStages(), 2u);
    const RouterId target = net.routersInStage(1).front();

    MaintenanceOp op;
    op.router = target;
    op.start = 1024;
    op.duration = 2048;

    ServeConfig cfg;
    cfg.window = kWindow;
    cfg.runCycles = 24576;
    cfg.configDigest = kDigest;
    cfg.maintenance = {op};

    ServiceRunner runner(cfg, si->participants());
    std::vector<WindowRecord> records;
    runner.setEmitter([&](const std::string &line) {
        WindowRecord rec;
        const auto key = line.find("\"phase\":\"");
        if (key != std::string::npos) {
            const auto begin = key + 9;
            rec.phase = line.substr(
                begin, line.find('"', begin) - begin);
        }
        rec.routerWords = net.router(target).counters().get(
            "wordsForwarded");
        rec.routerGrants =
            net.router(target).counters().get("grants");
        records.push_back(rec);
    });

    EXPECT_EQ(runner.run(), "") << "conservation violated";

    // The op must complete its whole lifecycle within the run.
    auto sawPhase = [&](const std::string &phase) {
        for (const auto &r : records)
            if (r.phase == phase)
                return true;
        return false;
    };
    EXPECT_TRUE(sawPhase("draining"));
    EXPECT_TRUE(sawPhase("disabled"));
    EXPECT_TRUE(sawPhase("reenabling"));
    EXPECT_TRUE(sawPhase("done"));

    // Zero words through the drained router: its word/grant
    // counters must freeze for the whole disabled span (drain
    // completed = nothing was inside; disabled = nothing enters).
    bool checked = false;
    for (std::size_t i = 1; i < records.size(); ++i) {
        if (records[i].phase != "disabled")
            continue;
        EXPECT_EQ(records[i].routerWords,
                  records[i - 1].routerWords)
            << "window " << i;
        EXPECT_EQ(records[i].routerGrants,
                  records[i - 1].routerGrants)
            << "window " << i;
        checked = true;
    }
    EXPECT_TRUE(checked);

    // After Done the router must be fully re-enabled (the campaign
    // may have separately downed other elements, but the op's own
    // saved state was all-enabled at drain time).
    const RouterConfig &rc = net.router(target).config();
    for (bool on : rc.forwardEnabled)
        EXPECT_TRUE(on);
    for (bool on : rc.backwardEnabled)
        EXPECT_TRUE(on);

    // Traffic kept flowing around the drained router.
    const auto snap = net.metricsSnapshot();
    EXPECT_GT(snap.get("words.delivered"), 0u);
}

TEST(Serve, CheckpointDuringMaintenanceResumesTheDrain)
{
    // Cut the run while the router is mid-maintenance: the harness
    // blob must carry the op phase and saved enable states so the
    // resumed process finishes the re-enable identically.
    const auto path =
        tempCheckpointPath("metro_serve_maint.ckpt");
    MaintenanceOp op;
    op.start = 1024;
    op.duration = 2048;

    auto runScenario = [&](bool restart) {
        std::vector<std::string> lines;
        BuildOpts b;
        b.withCampaign = true;
        auto si = buildServeInstance(0xABBA, b);
        op.router = si->net->routersInStage(1).front();
        ServeConfig cfg;
        cfg.window = kWindow;
        cfg.runCycles = restart ? kCut : kTotal * 2;
        cfg.configDigest = kDigest;
        cfg.maintenance = {op};
        if (restart) {
            cfg.checkpointOut = path;
            cfg.checkpointAt = kCut; // mid-reenable for this plan
        }
        ServiceRunner runner(cfg, si->participants());
        runner.setEmitter([&](const std::string &line) {
            lines.push_back(line);
        });
        EXPECT_EQ(runner.run(), "");
        if (!restart)
            return lines;
        auto si2 = buildServeInstance(0xABBA, b);
        ServeConfig cfg2 = cfg;
        cfg2.runCycles = kTotal * 2;
        cfg2.checkpointOut.clear();
        cfg2.checkpointAt = 0;
        ServiceRunner resumed(cfg2, si2->participants());
        EXPECT_EQ(resumed.restoreFromFile(path), "");
        resumed.setEmitter([&](const std::string &line) {
            lines.push_back(line);
        });
        EXPECT_EQ(resumed.run(), "");
        return lines;
    };

    const auto full = runScenario(false);
    const auto cut = runScenario(true);
    ASSERT_EQ(full.size(), cut.size());
    for (std::size_t i = 0; i < full.size(); ++i)
        EXPECT_EQ(full[i], cut[i]) << "window " << i;
}

/** Serve options for the CLI-shaped instance (buildServeSetup):
 *  fig1, 1024-cycle windows, the given fault-file text. */
Options
cliServeOptions(unsigned think, const std::string &faults)
{
    Options opts;
    opts.config.network.kind = NetworkRecipe::Kind::Fig1;
    opts.config.think = {think};
    opts.serve = true;
    opts.window = 1024;
    if (!faults.empty()) {
        std::string error;
        opts.config.network.faultPath = "serve_test.fault";
        opts.config.network.faults = parseFaultText(faults, error);
        EXPECT_EQ(error, "");
    }
    return opts;
}

/** Serve `setup` to `until`, after restoring `checkpoint` when one
 *  is given, collecting its window records. */
std::vector<std::string>
serveTo(ServeSetup &setup, Cycle until,
        const std::vector<std::uint8_t> &checkpoint = {})
{
    std::vector<std::string> lines;
    ServeConfig cfg = setup.config;
    cfg.runCycles = until;
    ServiceRunner runner(cfg, setup.parts);
    if (!checkpoint.empty()) {
        EXPECT_EQ(runner.restoreFromBytes(checkpoint.data(),
                                          checkpoint.size()),
                  "");
    }
    runner.setEmitter(
        [&](const std::string &line) { lines.push_back(line); });
    EXPECT_EQ(runner.run(), "");
    return lines;
}

/** The checkpoint a runner over `setup` writes after serving to
 *  `until`. */
std::vector<std::uint8_t>
checkpointAt(ServeSetup &setup, Cycle until)
{
    ServeConfig cfg = setup.config;
    cfg.runCycles = until;
    ServiceRunner runner(cfg, setup.parts);
    EXPECT_EQ(runner.run(), "");
    return runner.checkpointBytes();
}

TEST(Serve, InjectionLinkMaskSurvivesRestore)
{
    // Link 0 is endpoint 0's injection wire: diagnosis masks it at
    // the endpoint (there is no router upstream to probe from), so
    // the checkpoint carries an InjectionLink mask, which has no
    // wire-map entry.
    Options opts = cliServeOptions(20, "fault = 0 linkDead 0\n");
    opts.config.network.diagnosis = true;
    constexpr Cycle kAt = 2048;
    constexpr Cycle kEnd = 8192;

    auto saver = buildServeSetup(opts);
    const auto bytes = checkpointAt(*saver, kAt);
    ASSERT_NE(saver->parts.diagnosis, nullptr);
    ASSERT_GE(saver->parts.diagnosis->maskedLinks(), 1u);
    const NetworkInterface &ep = saver->instance.network->endpoint(0);
    bool masked = false;
    for (unsigned g = 0; g < ep.outGroups(); ++g)
        masked = masked || !ep.outPortEnabled(g);
    ASSERT_TRUE(masked) << "no injection-link mask at the cut";

    auto full = buildServeSetup(opts);
    const auto reference = serveTo(*full, kEnd);
    auto restored = buildServeSetup(opts);
    const auto resumed = serveTo(*restored, kEnd, bytes);
    ASSERT_EQ(resumed.size(), kEnd / 1024 - kAt / 1024);
    for (std::size_t i = 0; i < resumed.size(); ++i)
        EXPECT_EQ(resumed[i], reference[kAt / 1024 + i])
            << "window " << i;
}

/**
 * Save, restore into a fresh instance, save again: the two files
 * must be byte-identical. Any field the writer and the reader treat
 * differently shows here. One instance carries every optional
 * participant (closed-loop drivers, a fault schedule, a campaign,
 * diagnosis with a live mask, a maintenance drain cut mid-drain);
 * the other open-loop drivers behind an inflight gate.
 */
TEST(Serve, SaveRestoreSaveIsByteIdentical)
{
    Options closed = cliServeOptions(20, "linkFailRate = 0.0008\n"
                                         "linkHealRate = 0.008\n"
                                         "corruptFraction = 0.25\n"
                                         "flakyLinks = 2\n"
                                         "flakyPeriod = 512\n"
                                         "start = 1000\n"
                                         "fault = 500 linkDead 40\n");
    closed.config.network.diagnosis = true;
    closed.maintain = {"2@4096+4096"};

    Options open = cliServeOptions(0, "");
    open.config.mode = SweepMode::Open;
    open.config.inject = {0.05};
    open.config.network.retry.inflightLimit = 4;

    for (const Options *opts : {&closed, &open}) {
        const bool isClosed = opts == &closed;
        SCOPED_TRACE(isClosed ? "closed loop, every participant"
                              : "open loop, inflight gate");
        // The drain begins at the 4096 boundary, so a cut there
        // catches it mid-drain.
        constexpr Cycle kAt = 4096;
        auto saver = buildServeSetup(*opts);
        const auto first = checkpointAt(*saver, kAt);
        const CheckpointParticipants &parts = saver->parts;
        Network &net = *saver->instance.network;
        if (isClosed) {
            ASSERT_FALSE(parts.closedDrivers.empty());
            ASSERT_NE(parts.injector, nullptr);
            ASSERT_NE(parts.campaign, nullptr);
            ASSERT_NE(parts.diagnosis, nullptr);
            EXPECT_GE(parts.diagnosis->maskedLinks(), 1u);
            // Mid-drain: every feeder of router 2 is off while its
            // own ports are still on.
            for (bool on : net.router(2).config().forwardEnabled)
                EXPECT_TRUE(on);
            for (LinkId l = 0; l < net.numLinks(); ++l) {
                const LinkEnd &a = net.link(l).endA();
                const LinkEnd &b = net.link(l).endB();
                if (b.kind != AttachKind::RouterForward || b.id != 2)
                    continue;
                if (a.kind == AttachKind::RouterBackward)
                    EXPECT_FALSE(net.router(a.id)
                                     .config()
                                     .backwardEnabled[a.port]);
                else
                    EXPECT_FALSE(
                        net.endpoint(a.id).outPortEnabled(a.subPort));
            }
        } else {
            ASSERT_FALSE(parts.openDrivers.empty());
        }

        auto restorer = buildServeSetup(*opts);
        ServiceRunner runner(restorer->config, restorer->parts);
        ASSERT_EQ(runner.restoreFromBytes(first.data(), first.size()),
                  "");
        const auto second = runner.checkpointBytes();
        ASSERT_EQ(first.size(), second.size());
        const auto diff =
            std::mismatch(first.begin(), first.end(), second.begin());
        EXPECT_TRUE(diff.first == first.end())
            << "first differing byte at offset "
            << (diff.first - first.begin());
    }
}

TEST(Serve, ParseMaintenanceOp)
{
    MaintenanceOp op;
    EXPECT_TRUE(parseMaintenanceOp("5@2048+4096", op));
    EXPECT_EQ(op.router, 5u);
    EXPECT_EQ(op.start, 2048u);
    EXPECT_EQ(op.duration, 4096u);
    EXPECT_FALSE(parseMaintenanceOp("", op));
    EXPECT_FALSE(parseMaintenanceOp("5", op));
    EXPECT_FALSE(parseMaintenanceOp("5@2048", op));
    EXPECT_FALSE(parseMaintenanceOp("@2048+1", op));
    EXPECT_FALSE(parseMaintenanceOp("5@+1", op));
    EXPECT_FALSE(parseMaintenanceOp("5@2048+", op));
    EXPECT_FALSE(parseMaintenanceOp("x@y+z", op));
}

TEST(Serve, CanonicalConfigExcludesThreadCounts)
{
    Options a;
    a.config.network.kind = NetworkRecipe::Kind::Fig1;
    a.config.think = {200};
    Options b = a;
    b.config.threads = 8;
    b.config.engineThreads = 4;
    EXPECT_EQ(canonicalConfigString(a), canonicalConfigString(b));
    b.config.network.seed = 2;
    EXPECT_NE(canonicalConfigString(a), canonicalConfigString(b));
    EXPECT_NE(checkpointDigest(canonicalConfigString(a)),
              checkpointDigest(canonicalConfigString(b)));
}

} // namespace
} // namespace metro
