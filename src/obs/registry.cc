#include "obs/registry.hh"

#include <cinttypes>
#include <cstdio>

namespace metro
{

MetricsRegistry
MetricsRegistry::deltaSince(const MetricsRegistry &baseline) const
{
    MetricsRegistry d;
    for (const auto &[name, value] : counters_) {
        auto it = baseline.counters_.find(name);
        std::uint64_t base =
            it == baseline.counters_.end() ? 0 : it->second;
        d.counters_[name] = value - base;
    }
    for (const auto &[name, hist] : histograms_) {
        auto it = baseline.histograms_.find(name);
        d.histograms_[name] = it == baseline.histograms_.end()
            ? hist
            : hist.delta(it->second);
    }
    return d;
}

namespace
{

void
appendU64(std::string &out, std::uint64_t v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
    out += buf;
}

void
appendDouble(std::string &out, double v)
{
    // Same rendering as report/json.cc: shortest round-trippable.
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    out += buf;
}

} // namespace

std::string
metricsJson(const MetricsRegistry &m, const std::string &indent)
{
    const std::string in1 = indent + "  ";
    const std::string in2 = indent + "    ";

    std::string out = "{\n";

    out += in1 + "\"counters\": {";
    bool first = true;
    for (const auto &[name, value] : m.counters()) {
        out += first ? "\n" : ",\n";
        first = false;
        out += in2 + "\"" + name + "\": ";
        appendU64(out, value);
    }
    out += first ? "},\n" : "\n" + in1 + "},\n";

    out += in1 + "\"histograms\": {";
    first = true;
    for (const auto &[name, hist] : m.histograms()) {
        out += first ? "\n" : ",\n";
        first = false;
        out += in2 + "\"" + name + "\": {\"count\": ";
        appendU64(out, hist.count());
        out += ", \"sum\": ";
        appendU64(out, hist.sum());
        out += ", \"mean\": ";
        appendDouble(out, hist.mean());
        out += ", \"min\": ";
        appendU64(out, hist.min());
        out += ", \"max\": ";
        appendU64(out, hist.max());
        out += ", \"buckets\": [";
        bool firstBucket = true;
        for (unsigned k = 0; k < LogHistogram::kBuckets; ++k) {
            if (hist.bucket(k) == 0)
                continue;
            if (!firstBucket)
                out += ", ";
            firstBucket = false;
            out += "[";
            appendU64(out, LogHistogram::bucketFloor(k));
            out += ", ";
            appendU64(out, hist.bucket(k));
            out += "]";
        }
        out += "]}";
    }
    out += first ? "}\n" : "\n" + in1 + "}\n";

    out += indent + "}";
    return out;
}

} // namespace metro
