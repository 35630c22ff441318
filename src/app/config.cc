#include "app/config.hh"

#include <algorithm>
#include <cstdio>

#include "app/specfile.hh"
#include "diag/engine.hh"
#include "fault/campaign.hh"
#include "fault/injector.hh"
#include "network/presets.hh"

namespace metro
{

namespace
{

/** A sweep materializes every point up front; a bogus file (huge
 *  replicates, a mile-long think list) must fail instead of
 *  exhausting memory. */
constexpr std::size_t kMaxSweepPoints = 100000;

template <class E>
std::vector<std::string>
namesOf(const char *(*name)(E), unsigned count)
{
    std::vector<std::string> names;
    for (unsigned i = 0; i < count; ++i)
        names.push_back(name(static_cast<E>(i)));
    return names;
}

/** A PATH knob that loads the file as it is set. */
template <class Load, class Path, class Slot>
Knob<SweepConfig>
fileKnob(const char *name, const char *flag, const char *help,
         Load load, Path path, Slot slot)
{
    Knob<SweepConfig> k = textKnob<SweepConfig>(name, path, help);
    k.flag = flag;
    k.set = [load, path, slot](SweepConfig &c, const std::string &file) {
        std::string error;
        auto loaded = load(file, error);
        if (!loaded.has_value())
            return error;
        path(c) = file;
        slot(c) = std::move(loaded);
        return std::string();
    };
    return k;
}

std::vector<Knob<SweepConfig>>
makePointKnobs()
{
    using C = SweepConfig;
    std::vector<Knob<C>> t = {
        enumKnob<C>("topology", METRO_KNOB_FIELD(network.kind),
                    {"fig3", "fig1", "table32jr", "fattree"},
                    "prebuilt topology"),
        fileKnob("spec", "spec-file",
                 "multibutterfly spec file (replaces the topology)",
                 loadSpecFile, METRO_KNOB_FIELD(network.specPath),
                 METRO_KNOB_FIELD(network.spec)),
        numKnob<C>("seed", METRO_KNOB_FIELD(network.seed),
                   "simulation seed"),
        enumKnob<C>("mode", METRO_KNOB_FIELD(mode),
                    {"closed", "open", "session"}, "traffic loop"),
        enumKnob<C>("pattern", METRO_KNOB_FIELD(experiment.pattern),
                    namesOf(trafficPatternName, 5), "destination pattern"),
        numKnob<C>("think", METRO_KNOB_FIELD(think),
                   "closed mode: one point per think time"),
        numKnob<C>("inject", METRO_KNOB_FIELD(inject),
                   "open mode: one point per injection probability", 0, 1),
        numKnob<C>("sessionRate", METRO_KNOB_FIELD(sessionRate),
                   "session mode: one point per arrival rate", 0, 1),
        numKnob<C>("replicates", METRO_KNOB_FIELD(replicates),
                   "runs per point, each with its own derived seed", 1),
        numKnob<C>("messageWords", METRO_KNOB_FIELD(experiment.messageWords),
                   "words per message incl. checksum", 1),
        numKnob<C>("warmup", METRO_KNOB_FIELD(experiment.warmup),
                   "warmup cycles"),
        numKnob<C>("measure", METRO_KNOB_FIELD(experiment.measure),
                   "measurement cycles", 1),
        numKnob<C>("drainMax", METRO_KNOB_FIELD(experiment.drainMax),
                   "longest drain after the window, cycles"),
        numKnob<C>("activeFraction",
                   METRO_KNOB_FIELD(experiment.activeFraction),
                   "fraction of endpoints that drive traffic", 0, 1),
        numKnob<C>("availabilityWindow",
                   METRO_KNOB_FIELD(experiment.availabilityWindow),
                   "availability metric slice, cycles", 1),
        boolKnob<C>("requestReply",
                    METRO_KNOB_FIELD(experiment.requestReply),
                    "every message asks for a reply"),
        numKnob<C>("hotNode", METRO_KNOB_FIELD(experiment.hotNode),
                   "hotspot node"),
        numKnob<C>("hotFraction", METRO_KNOB_FIELD(experiment.hotFraction),
                   "hotspot probability", 0, 1),
        enumKnob<C>("process", METRO_KNOB_FIELD(process),
                    namesOf(injectionKindName, 3),
                    "open-loop injection process axis (default "
                    "bernoulli)"),
        numKnob<C>("burstOn", METRO_KNOB_FIELD(experiment.process.burstOn),
                   "mean ON/high-state dwell, cycles", 1),
        numKnob<C>("burstOff",
                   METRO_KNOB_FIELD(experiment.process.burstOff),
                   "mean OFF/low-state dwell, cycles", 1),
        numKnob<C>("burstRatio",
                   METRO_KNOB_FIELD(experiment.process.burstRatio),
                   "MMPP high:low rate ratio", 1),
        enumKnob<C>("sizeDist", METRO_KNOB_FIELD(experiment.size.dist),
                    namesOf(sizeDistName, 2), "message-size distribution"),
        numKnob<C>("sizeMin", METRO_KNOB_FIELD(experiment.size.minWords),
                   "bounded-Pareto min words", 1),
        numKnob<C>("sizeMax", METRO_KNOB_FIELD(experiment.size.maxWords),
                   "bounded-Pareto max words", 1),
        numKnob<C>("sizeAlpha", METRO_KNOB_FIELD(experiment.size.alpha),
                   "Pareto shape (> 0)",
                   std::numeric_limits<double>::denorm_min()),
        numKnob<C>("fanout", METRO_KNOB_FIELD(experiment.fanout),
                   "RPC fan-out: request-reply legs per request", 1),
        numKnob<C>("classMix", METRO_KNOB_FIELD(experiment.classMix),
                   "traffic-class fractions, sum 1 (max 4 classes)", 0, 1),
        numKnob<C>("sessionRequests",
                   METRO_KNOB_FIELD(experiment.session.requests),
                   "requests per session", 1),
        numKnob<C>("sessionGap", METRO_KNOB_FIELD(experiment.session.gap),
                   "mean intra-session gap, cycles"),
        numKnob<C>("sessionMaxActive",
                   METRO_KNOB_FIELD(experiment.session.maxActive),
                   "live-session cap per endpoint", 1),
        numKnob<C>("diurnalPeriod",
                   METRO_KNOB_FIELD(experiment.session.diurnalPeriod),
                   "diurnal load period, cycles (0 = flat)"),
        numKnob<C>("diurnalAmplitude",
                   METRO_KNOB_FIELD(experiment.session.diurnalAmplitude),
                   "diurnal modulation depth", 0, 1),
        numKnob<C>("routerFaults", METRO_KNOB_FIELD(network.routerFaults),
                   "dead routers (survivable sample)"),
        numKnob<C>("linkFaults", METRO_KNOB_FIELD(network.linkFaults),
                   "dead links (survivable sample)"),
        numKnob<C>("faultCycle", METRO_KNOB_FIELD(network.faultCycle),
                   "cycle the sampled faults strike"),
        fileKnob("faults", "fault-file",
                 "fault schedule and/or campaign (docs/faults.md)",
                 loadFaultFile, METRO_KNOB_FIELD(network.faultPath),
                 METRO_KNOB_FIELD(network.faults)),
        boolKnob<C>("diagnosis", METRO_KNOB_FIELD(network.diagnosis),
                    "attach the online diagnosis and self-healing "
                    "engine"),
        enumKnob<C>("retryPolicy", METRO_KNOB_FIELD(retryPolicy),
                    namesOf(backoffPolicyKindName, 3),
                    "endpoint backoff policy axis (default uniform)"),
    };
    for (auto &k : liftKnobs<C>(retryKnobs<RetryOverrides>(),
                                METRO_KNOB_FIELD(network.retry)))
        t.push_back(std::move(k));
    t.push_back(numKnob<C>("threads", METRO_KNOB_FIELD(threads),
                           "sweep worker threads (0 = one per core)"));
    t.push_back(numKnob<C>("engineThreads",
                           METRO_KNOB_FIELD(engineThreads),
                           "engine threads per point (0 = one per "
                           "core); output is identical at every N"));
    return t;
}

std::string
pointLabel(const SweepConfig &c, std::size_t v)
{
    char buf[48];
    switch (c.mode) {
      case SweepMode::Closed:
        return "think=" + std::to_string(c.think[v]);
      case SweepMode::Open:
        std::snprintf(buf, sizeof(buf), "inject=%g", c.inject[v]);
        return buf;
      case SweepMode::Session:
        std::snprintf(buf, sizeof(buf), "session=%g", c.sessionRate[v]);
        return buf;
    }
    return "";
}

} // namespace

std::optional<MultibutterflySpec>
NetworkRecipe::multibutterfly() const
{
    std::optional<MultibutterflySpec> s = spec;
    if (!s.has_value()) {
        switch (kind) {
          case Kind::Fig3: s = fig3Spec(seed); break;
          case Kind::Fig1: s = fig1Spec(seed); break;
          case Kind::Table32Jr:
            s = table32Spec(RouterParams::metroJr(), seed);
            break;
          case Kind::FatTree: return std::nullopt;
        }
    }
    s->seed = seed;
    retry.apply(s->niConfig.retry);
    return s;
}

FatTreeSpec
NetworkRecipe::fatTree() const
{
    FatTreeSpec ft;
    ft.levels = 4;
    ft.seed = seed;
    retry.apply(ft.niConfig.retry);
    return ft;
}

unsigned
NetworkRecipe::numEndpoints() const
{
    const auto mb = multibutterfly();
    return mb.has_value() ? mb->numEndpoints : 1u << fatTree().levels;
}

std::unique_ptr<Network>
NetworkRecipe::build() const
{
    if (const auto mb = multibutterfly())
        return buildMultibutterfly(*mb);
    return buildFatTree(fatTree());
}

const std::vector<Knob<SweepConfig>> &
pointKnobs()
{
    static const std::vector<Knob<SweepConfig>> table = makePointKnobs();
    return table;
}

bool
applySweepText(const std::string &text, const std::string &base_dir,
               SweepConfig &config, std::string &error)
{
    return forEachTextLine(text, error, [&](const TextLine &line) {
        if (line.section)
            return std::string("expected key = value");
        const Knob<SweepConfig> *k = findKnob(pointKnobs(), line.key);
        const bool relative = k != nullptr && k->arg == "PATH" &&
                              !base_dir.empty() &&
                              line.value.find('/') != 0;
        return applyKnobLine(pointKnobs(), config, line.key,
                             relative ? base_dir + "/" + line.value
                                      : line.value);
    });
}

SweepInstance
buildInstance(const NetworkRecipe &recipe, std::uint64_t derived_seed)
{
    SweepInstance instance;
    instance.network = recipe.build();
    Network &net = *instance.network;
    const auto &faults = recipe.faults;

    std::vector<FaultEvent> events;
    if (recipe.routerFaults + recipe.linkFaults > 0)
        events = sampleSurvivableFaults(net, recipe.routerFaults,
                                        recipe.linkFaults,
                                        recipe.faultCycle,
                                        derived_seed ^ 0xFA11);
    if (faults.has_value())
        events.insert(events.end(), faults->events.begin(),
                      faults->events.end());
    if (!events.empty()) {
        auto injector = std::make_unique<FaultInjector>(&net);
        injector->schedule(events);
        net.engine().addComponent(injector.get());
        instance.extras.push_back(std::move(injector));
    }
    if (faults.has_value() && faults->hasCampaign()) {
        auto campaign = std::make_unique<FaultCampaign>(
            &net, faults->campaign, derived_seed ^ 0xCA3);
        net.engine().addComponent(campaign.get());
        instance.extras.push_back(std::move(campaign));
    }
    // Added last: the engine must see every diary entry the
    // endpoints recorded this cycle.
    if (recipe.diagnosis) {
        auto diag = std::make_unique<DiagnosisEngine>(&net);
        net.engine().addComponent(diag.get());
        instance.extras.push_back(std::move(diag));
    }
    return instance;
}

std::optional<std::vector<SweepPoint>>
expandPoints(const SweepConfig &c, std::string &error)
{
    const std::size_t values = c.mode == SweepMode::Closed ? c.think.size()
                               : c.mode == SweepMode::Open
                                   ? c.inject.size()
                                   : c.sessionRate.size();
    const std::size_t policies =
        std::max<std::size_t>(1, c.retryPolicy.size());
    const std::size_t processes =
        std::max<std::size_t>(1, c.process.size());
    if (values > 0 &&
        c.replicates > kMaxSweepPoints / values / policies / processes) {
        error = "sweep too large: " + std::to_string(values) +
                " values x " + std::to_string(c.replicates) +
                " replicates x " + std::to_string(policies) +
                " policies x " + std::to_string(processes) +
                " processes exceeds " + std::to_string(kMaxSweepPoints) +
                " points";
        return std::nullopt;
    }

    const unsigned endpoints = c.network.numEndpoints();
    std::vector<SweepPoint> points;
    for (std::size_t pk = 0; pk < policies; ++pk) {
        // Every policy must merge into a usable retry config; reject
        // it here rather than asserting inside a worker mid-sweep.
        NetworkRecipe recipe = c.network;
        if (!c.retryPolicy.empty())
            recipe.retry.kind = c.retryPolicy[pk];
        const auto mb = recipe.multibutterfly();
        error = validateRetryPolicy(mb ? mb->niConfig.retry
                                       : recipe.fatTree().niConfig.retry);
        if (!error.empty())
            return std::nullopt;
        for (std::size_t px = 0; px < processes; ++px) {
            for (std::size_t v = 0; v < values; ++v) {
                SweepPoint point;
                point.mode = c.mode;
                point.config = c.experiment;
                point.config.seed = c.network.seed;
                if (!c.process.empty())
                    point.config.process.kind = c.process[px];
                if (c.mode == SweepMode::Closed)
                    point.config.thinkTime = c.think[v];
                else if (c.mode == SweepMode::Open)
                    point.config.injectProb = c.inject[v];
                else
                    point.config.session.rate = c.sessionRate[v];
                error = validateExperimentConfig(point.config, endpoints);
                if (!error.empty())
                    return std::nullopt;
                point.label = pointLabel(c, v);
                if (policies > 1)
                    point.label += std::string(" policy=") +
                                   backoffPolicyKindName(c.retryPolicy[pk]);
                if (processes > 1)
                    point.label += std::string(" process=") +
                                   injectionKindName(c.process[px]);
                point.build = [recipe](std::uint64_t derived_seed) {
                    return buildInstance(recipe, derived_seed);
                };
                for (unsigned rep = 0; rep < c.replicates; ++rep) {
                    point.replicate = rep;
                    points.push_back(point);
                }
            }
        }
    }
    return points;
}

} // namespace metro
