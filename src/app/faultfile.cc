#include "app/faultfile.hh"

#include "app/knob.hh"

namespace metro
{

namespace
{

/** Event kinds as spelled in `fault =` lines, in FaultKind order. */
const std::vector<std::string> kKindNames = {
    "linkDead",   "linkCorrupt", "linkHeal",       "routerDead",
    "routerHeal", "routerMisroute", "forwardPortOff", "backwardPortOff",
};

/** The stochastic campaign's knobs. */
const std::vector<Knob<CampaignConfig>> &
campaignKnobs()
{
    using C = CampaignConfig;
    static const std::vector<Knob<C>> table = {
        numKnob<C>("linkFailRate", METRO_KNOB_FIELD(linkFailRate), "", 0, 1),
        numKnob<C>("linkHealRate", METRO_KNOB_FIELD(linkHealRate), "", 0, 1),
        numKnob<C>("routerFailRate", METRO_KNOB_FIELD(routerFailRate), "",
                   0, 1),
        numKnob<C>("routerHealRate", METRO_KNOB_FIELD(routerHealRate), "",
                   0, 1),
        numKnob<C>("corruptFraction", METRO_KNOB_FIELD(corruptFraction),
                   "", 0, 1),
        numKnob<C>("burstRate", METRO_KNOB_FIELD(burstRate), "", 0, 1),
        numKnob<C>("flakyLinks", METRO_KNOB_FIELD(flakyLinks), "", 0,
                   100000),
        numKnob<C>("flakyPeriod", METRO_KNOB_FIELD(flakyPeriod), "", 1),
        numKnob<C>("burstSize", METRO_KNOB_FIELD(burstSize), "", 1, 100000),
        numKnob<C>("start", METRO_KNOB_FIELD(start)),
        numKnob<C>("stop", METRO_KNOB_FIELD(stop)),
    };
    return table;
}

/** One `fault = <cycle> <kind> <target> [port]` value. */
std::string
parseEvent(const std::string &value, FaultEvent &event)
{
    const auto words = splitWords(value);
    std::uint64_t at = 0, target = 0, port = 0;
    if (words.size() < 3 || words.size() > 4 || !parseU64(words[0], at) ||
        !parseU64(words[2], target) ||
        (words.size() == 4 && !parseU64(words[3], port)))
        return "bad value for fault";
    std::size_t kind = 0;
    while (kind < kKindNames.size() && kKindNames[kind] != words[1])
        ++kind;
    if (kind == kKindNames.size())
        return "unknown fault kind: " + words[1];
    event.at = at;
    event.kind = static_cast<FaultKind>(kind);
    event.target = static_cast<std::uint32_t>(target);
    const bool wants_port = event.kind == FaultKind::ForwardPortOff ||
                            event.kind == FaultKind::BackwardPortOff;
    if (wants_port != (words.size() == 4))
        return words[1] + (wants_port ? " requires a port operand"
                                      : " takes no port operand");
    if (wants_port)
        event.port = static_cast<PortIndex>(port);
    return "";
}

} // namespace

std::optional<FaultFile>
parseFaultText(const std::string &text, std::string &error)
{
    FaultFile out;

    // A schedule is meant to be written by hand; a bogus generator
    // emitting millions of lines must fail, not exhaust memory.
    constexpr std::size_t kMaxEvents = 100000;

    const bool ok = forEachTextLine(text, error, [&](const TextLine &line) {
        if (line.section)
            return std::string("expected key = value");
        if (line.key != "fault")
            return applyKnobLine(campaignKnobs(), out.campaign, line.key,
                                 line.value);
        FaultEvent event;
        const std::string reason = parseEvent(line.value, event);
        if (!reason.empty())
            return reason;
        if (out.events.size() >= kMaxEvents)
            return "too many fault events (max " +
                   std::to_string(kMaxEvents) + ")";
        out.events.push_back(event);
        return std::string();
    });
    if (!ok)
        return std::nullopt;
    if (out.campaign.stop != 0 && out.campaign.stop <= out.campaign.start) {
        error = "campaign stop must exceed start (or be 0)";
        return std::nullopt;
    }
    return out;
}

std::optional<FaultFile>
loadFaultFile(const std::string &path, std::string &error)
{
    std::string text;
    if (!readTextFile(path, text, error))
        return std::nullopt;
    return parseFaultText(text, error);
}

} // namespace metro
