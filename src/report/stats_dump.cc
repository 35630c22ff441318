#include "report/stats_dump.hh"

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <string_view>
#include <vector>

namespace metro
{

std::string
stageStatsReport(Network &net)
{
    // Aggregate counters per stage.
    const unsigned stages = net.numStages();
    std::vector<RouterCounters> totals(std::max(1u, stages));
    for (RouterId r = 0; r < net.numRouters(); ++r) {
        const unsigned s = stages == 0 ? 0 : net.router(r).stage();
        totals[std::min<std::size_t>(s, totals.size() - 1)] +=
            net.router(r).counters();
    }
    RouterCounters all;
    for (const auto &stage : totals)
        all += stage;

    std::ostringstream out;
    out << "router events by stage\n";
    char line[256];
    std::snprintf(line, sizeof(line), "  %-22s", "counter");
    out << line;
    for (unsigned s = 0; s < totals.size(); ++s) {
        std::snprintf(line, sizeof(line), " %12s",
                      ("stage " + std::to_string(s)).c_str());
        out << line;
    }
    out << "\n";
    for (std::size_t i = 0; i < RouterCounters::kSize; ++i) {
        if (all.at(i) == 0)
            continue;
        const std::string name(RouterCounters::name(i));
        std::snprintf(line, sizeof(line), "  %-22s", name.c_str());
        out << line;
        for (const auto &stage : totals) {
            std::snprintf(line, sizeof(line), " %12llu",
                          static_cast<unsigned long long>(stage.at(i)));
            out << line;
        }
        out << "\n";
    }
    return out.str();
}

std::string
endpointStatsReport(Network &net)
{
    std::ostringstream out;
    out << "endpoint protocol events (all " << net.numEndpoints()
        << " endpoints)\n";
    char line[128];
    net.endpointCounters().forEachFired([&](std::string_view name,
                                            std::uint64_t value) {
        std::snprintf(line, sizeof(line), "  %-22s %12llu\n",
                      std::string(name).c_str(),
                      static_cast<unsigned long long>(value));
        out << line;
    });
    return out.str();
}

std::string
networkHealthSummary(Network &net)
{
    std::uint64_t submitted = 0, succeeded = 0, gave_up = 0,
                  in_flight = 0, duplicates = 0;
    for (const auto &[id, rec] : net.tracker().all()) {
        ++submitted;
        if (rec.succeeded)
            ++succeeded;
        else if (rec.gaveUp)
            ++gave_up;
        else
            ++in_flight;
        if (rec.deliveredCount > 1)
            ++duplicates;
    }
    std::ostringstream out;
    out << "messages: " << submitted << " submitted, " << succeeded
        << " succeeded, " << gave_up << " gave up, " << in_flight
        << " in flight\n";
    out << "delivery integrity: "
        << (duplicates == 0 ? "exactly-once holds"
                            : std::to_string(duplicates) +
                                  " DUPLICATED")
        << "\n";
    out << "routers quiescent: "
        << (net.routersQuiescent() ? "yes" : "no") << "\n";
    return out.str();
}

} // namespace metro
