#include "report.hh"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <thread>

namespace mb
{

void
Result::set(const std::string &name, double value,
            const std::string &unit)
{
    for (auto &m : metrics) {
        if (m.name == name) {
            m.value = value;
            m.unit = unit;
            return;
        }
    }
    metrics.push_back({name, value, unit});
}

void
Result::check(bool ok, const std::string &what)
{
    ++attempted;
    if (!ok) {
        ++failed;
        notes.push_back("FAIL: " + what);
    }
}

double
median(std::vector<double> v)
{
    return percentile(std::move(v), 50.0);
}

double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    // Linear interpolation between closest ranks.
    const double pos = p / 100.0 * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const auto hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

Tail
tail(const std::vector<double> &v)
{
    Tail t;
    t.samples = v.size();
    for (const double p : {99.9, 99.0, 90.0, 50.0}) {
        if (static_cast<double>(v.size()) * (1.0 - p / 100.0) >= 10.0) {
            t.percentile = p;
            t.value = percentile(v, p);
            return t;
        }
    }
    t.percentile = 100.0;
    t.value = v.empty() ? 0.0 : *std::max_element(v.begin(), v.end());
    return t;
}

std::string
describeTail(const char *what, const Tail &t, const char *unit)
{
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%s tail: p%g = %.4f %s over %zu "
                  "samples", what, t.percentile, t.value, unit,
                  t.samples);
    return buf;
}

std::uint64_t
fnv1a(const std::string &text, std::uint64_t h)
{
    for (const unsigned char c : text) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    return h;
}

std::string
hex64(std::uint64_t v)
{
    char buf[20];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

std::string
simulatedOnly(const std::string &text)
{
    std::string out;
    out.reserve(text.size());
    std::size_t i = 0;
    while (i < text.size()) {
        if (text.compare(i, 8, "\"engine.") == 0) {
            // "engine.name": 123  -> dropped (separators stay; the
            // result is only hashed or compared, never parsed).
            std::size_t j = text.find('"', i + 1);
            if (j == std::string::npos)
                break;
            j = text.find_first_not_of(": ", j + 1);
            while (j != std::string::npos && j < text.size() &&
                   text[j] >= '0' && text[j] <= '9')
                ++j;
            i = j == std::string::npos ? text.size() : j;
            continue;
        }
        if (text.compare(i, 7, "\"host\":") == 0) {
            std::size_t j = text.find('{', i);
            int depth = 0;
            for (; j != std::string::npos && j < text.size(); ++j) {
                if (text[j] == '{')
                    ++depth;
                else if (text[j] == '}' && --depth == 0)
                    break;
            }
            i = j == std::string::npos ? text.size() : j + 1;
            continue;
        }
        out += text[i++];
    }
    return out;
}

double
peakRssMb()
{
    struct rusage ru;
    if (getrusage(RUSAGE_SELF, &ru) != 0)
        return 0.0;
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

unsigned
hardwareThreads()
{
    const unsigned n = std::thread::hardware_concurrency();
    return n == 0 ? 1 : n;
}

} // namespace mb
