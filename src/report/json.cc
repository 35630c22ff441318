#include "report/json.hh"

#include <cstdio>
#include <sstream>

#include "obs/registry.hh"

namespace metro
{

namespace
{

std::string
num(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
num(std::uint64_t v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%llu",
                  static_cast<unsigned long long>(v));
    return buf;
}

/** Seconds from nanoseconds. */
std::string
secs(std::uint64_t ns)
{
    return num(static_cast<double>(ns) * 1e-9);
}

/** The engine self-profile block of one point (see EngineProfile). */
void
emitEngineProfile(std::ostringstream &out, const EngineProfile &p)
{
    out << ",\n      \"engineProfile\": {\n"
        << "        \"cycles\": " << num(p.cycles) << ",\n"
        << "        \"wallSeconds\": " << secs(p.wallNs()) << ",\n"
        << "        \"planSeconds\": " << secs(p.planNs) << ",\n"
        << "        \"parallelSeconds\": " << secs(p.parallelNs)
        << ",\n"
        << "        \"shardSeconds\": [";
    for (std::size_t k = 0; k < p.shardNs.size(); ++k)
        out << (k == 0 ? "" : ", ") << secs(p.shardNs[k]);
    out << "],\n"
        << "        \"foldSeconds\": " << secs(p.foldNs) << ",\n"
        << "        \"serialSeconds\": {";
    for (std::size_t k = 0; k < p.serialNs.size(); ++k)
        out << (k == 0 ? "" : ", ") << jsonQuote(p.serialNs[k].name)
            << ": " << secs(p.serialNs[k].ns);
    out << "},\n"
        << "        \"advanceSeconds\": " << secs(p.advanceNs)
        << ",\n"
        << "        \"sleepPassSeconds\": " << secs(p.sleepPassNs)
        << "\n      }";
}

void
emitPoint(std::ostringstream &out, const SweepPointResult &p,
          bool include_timing, bool include_metrics)
{
    const ExperimentResult &r = p.result;
    out << "    {\n"
        << "      \"label\": " << jsonQuote(p.label) << ",\n"
        << "      \"replicate\": " << p.replicate << ",\n"
        << "      \"seed\": " << num(p.seed) << ",\n"
        << "      \"load\": " << num(r.achievedLoad) << ",\n"
        << "      \"networkLoad\": " << num(r.networkLoad) << ",\n"
        << "      \"activeEndpoints\": " << r.activeEndpoints
        << ",\n"
        << "      \"measuredWords\": " << num(r.measuredWords)
        << ",\n"
        << "      \"latencyMean\": " << num(r.latency.mean())
        << ",\n"
        << "      \"latencyMedian\": " << num(r.latency.median())
        << ",\n"
        << "      \"latencyP95\": " << num(r.latency.percentile(95))
        << ",\n"
        << "      \"latencyMax\": " << num(r.latency.max()) << ",\n"
        << "      \"attemptsMean\": " << num(r.attempts.mean())
        << ",\n"
        << "      \"blockRate\": " << num(r.blockRate()) << ",\n"
        << "      \"measured\": " << num(r.measuredMessages)
        << ",\n"
        << "      \"completed\": " << num(r.completedMessages)
        << ",\n"
        << "      \"gaveUp\": " << num(r.gaveUpMessages) << ",\n"
        << "      \"unresolved\": " << num(r.unresolvedMessages)
        << ",\n"
        << "      \"availability\": " << num(r.availability) << ",\n"
        << "      \"availabilityWindows\": "
        << num(r.availabilityWindows) << ",\n"
        << "      \"timeToMaskMean\": "
        << num([&r]() {
               const auto *h =
                   r.metrics.findHistogram("diag.time_to_mask");
               return h == nullptr ? 0.0 : h->mean();
           }())
        << ",\n"
        << "      \"diagMasks\": " << num(r.metrics.get("diag.masks"))
        << ",\n"
        << "      \"attemptsP99\": "
        << num(r.attemptsAll.percentile(99)) << ",\n"
        << "      \"maxMsgAge\": "
        << num(static_cast<std::uint64_t>(r.maxMessageAge)) << ",\n"
        << "      \"jainGoodput\": " << num(r.jainGoodput) << ",\n"
        << "      \"giveUpLatencyMean\": "
        << num([&r]() {
               const auto *h =
                   r.metrics.findHistogram("conn.giveup_latency");
               return h == nullptr ? 0.0 : h->mean();
           }())
        << ",\n"
        << "      \"shedWords\": "
        << num(r.metrics.get("words.shed.admission")) << ",\n"
        << "      \"starvations\": "
        << num(r.niTotals.get("starvations")) << ",\n"
        << "      \"budgetDenials\": "
        << num(r.niTotals.get("budgetDenials")) << ",\n"
        << "      \"classes\": [";
    for (unsigned c = 0; c < kTrafficClasses; ++c) {
        const ClassSlo &slo = r.classes[c];
        out << (c == 0 ? "\n" : ",\n")
            << "        {\"class\": " << c << ", \"p50\": "
            << num(slo.latency.percentile(50)) << ", \"p99\": "
            << num(slo.latency.percentile(99)) << ", \"p999\": "
            << num(slo.latency.percentile(99.9)) << ", \"goodput\": "
            << num(slo.goodput) << ", \"completed\": "
            << num(slo.completed) << ", \"gaveUp\": "
            << num(slo.gaveUp) << "}";
    }
    out << "\n      ],\n"
        << "      \"rpcGroups\": " << num(r.rpcGroups) << ",\n"
        << "      \"rpcGroupsCompleted\": "
        << num(r.rpcGroupsCompleted) << ",\n"
        << "      \"rpcLatencyP99\": "
        << num(r.rpcLatency.percentile(99));
    if (include_metrics)
        out << ",\n      \"metrics\": "
            << metricsJson(r.metrics, "      ");
    if (include_timing) {
        out << ",\n      \"wallSeconds\": " << num(p.wallSeconds);
        if (p.engineProfile.cycles > 0)
            emitEngineProfile(out, p.engineProfile);
    }
    out << "\n    }";
}

} // namespace

std::string
jsonQuote(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\r':
            out += "\\r";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    out += '"';
    return out;
}

std::string
sweepJson(const SweepResult &sweep, bool include_timing,
          bool include_metrics)
{
    std::ostringstream out;
    out << "{\n  \"schema\": \"metro-sweep-v1\",\n"
        << "  \"points\": [\n";
    // Points a stopped sweep never ran carry no data; leave them
    // out rather than emitting all-zero rows.
    bool first = true;
    for (const auto &point : sweep.points) {
        if (point.skipped)
            continue;
        if (!first)
            out << ",\n";
        first = false;
        emitPoint(out, point, include_timing, include_metrics);
    }
    out << (first ? "  ]" : "\n  ]");
    if (include_timing) {
        out << ",\n  \"threads\": " << sweep.threadsUsed
            << ",\n  \"wallSeconds\": " << num(sweep.wallSeconds);
    }
    out << "\n}\n";
    return out.str();
}

} // namespace metro
