#include "app/specfile.hh"

#include "app/knob.hh"

namespace metro
{

namespace
{

/** The network section: spec fields plus the shared retry rows,
 *  bound into the endpoints' RetryPolicyConfig. */
const std::vector<Knob<MultibutterflySpec>> &
networkKnobs()
{
    using S = MultibutterflySpec;
    static const std::vector<Knob<S>> table = [] {
        std::vector<Knob<S>> t = {
            numKnob<S>("endpoints", METRO_KNOB_FIELD(numEndpoints)),
            numKnob<S>("endpointPorts", METRO_KNOB_FIELD(endpointPorts)),
            numKnob<S>("seed", METRO_KNOB_FIELD(seed)),
            boolKnob<S>("fastReclaim", METRO_KNOB_FIELD(fastReclaim)),
            boolKnob<S>("randomSelection",
                        METRO_KNOB_FIELD(randomSelection)),
            boolKnob<S>("randomWiring", METRO_KNOB_FIELD(randomWiring)),
            numKnob<S>("cascadeWidth", METRO_KNOB_FIELD(cascadeWidth)),
            numKnob<S>("endpointLinkDelay",
                       METRO_KNOB_FIELD(endpointLinkDelay)),
            numKnob<S>("routerIdleTimeout",
                       METRO_KNOB_FIELD(routerIdleTimeout)),
            numKnob<S>("replyTimeout",
                       METRO_KNOB_FIELD(niConfig.replyTimeout)),
            numKnob<S>("maxAttempts",
                       METRO_KNOB_FIELD(niConfig.maxAttempts)),
            enumKnob<S>("retryPolicy",
                        METRO_KNOB_FIELD(niConfig.retry.kind),
                        {"uniform", "exponential", "aimd"}, ""),
        };
        for (auto &k : liftKnobs<S>(retryKnobs<RetryPolicyConfig>(),
                                    METRO_KNOB_FIELD(niConfig.retry)))
            t.push_back(std::move(k));
        return t;
    }();
    return table;
}

/** The `[stage]` section. */
const std::vector<Knob<MbStageSpec>> &
stageKnobs()
{
    using S = MbStageSpec;
    static const std::vector<Knob<S>> table = {
        numKnob<S>("radix", METRO_KNOB_FIELD(radix)),
        numKnob<S>("dilation", METRO_KNOB_FIELD(dilation)),
        numKnob<S>("width", METRO_KNOB_FIELD(params.width)),
        numKnob<S>("numForward", METRO_KNOB_FIELD(params.numForward)),
        numKnob<S>("numBackward", METRO_KNOB_FIELD(params.numBackward)),
        numKnob<S>("maxDilation", METRO_KNOB_FIELD(params.maxDilation)),
        numKnob<S>("hw", METRO_KNOB_FIELD(params.headerWords)),
        numKnob<S>("dp", METRO_KNOB_FIELD(params.dataPipeStages)),
        numKnob<S>("maxVtd", METRO_KNOB_FIELD(params.maxVtd)),
        numKnob<S>("linkDelay", METRO_KNOB_FIELD(linkDelay)),
    };
    return table;
}

} // namespace

std::optional<MultibutterflySpec>
parseSpecText(const std::string &text, std::string &error)
{
    MultibutterflySpec spec;
    spec.stages.clear();
    const bool ok = forEachTextLine(text, error, [&](const TextLine &line) {
        if (line.section) {
            if (line.key != "stage")
                return "unknown section: [" + line.key + "]";
            spec.stages.emplace_back();
            return std::string();
        }
        if (spec.stages.empty())
            return applyKnobLine(networkKnobs(), spec, line.key,
                                 line.value, "unknown network key");
        return applyKnobLine(stageKnobs(), spec.stages.back(), line.key,
                             line.value, "unknown stage key");
    });
    if (!ok)
        return std::nullopt;
    if (spec.stages.empty()) {
        error = "spec has no [stage] sections";
        return std::nullopt;
    }
    error = validateRetryPolicy(spec.niConfig.retry);
    if (!error.empty())
        return std::nullopt;
    return spec;
}

std::optional<MultibutterflySpec>
loadSpecFile(const std::string &path, std::string &error)
{
    std::string text;
    if (!readTextFile(path, text, error))
        return std::nullopt;
    return parseSpecText(text, error);
}

std::string
specToText(const MultibutterflySpec &spec)
{
    std::string out = knobsToText(networkKnobs(), spec);
    for (const auto &stage : spec.stages)
        out += "\n[stage]\n" + knobsToText(stageKnobs(), stage);
    return out;
}

} // namespace metro
