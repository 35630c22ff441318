#include "trace.hh"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <unordered_map>

namespace mb
{

namespace
{

/** Ids of the spans open on this thread, innermost last. */
thread_local std::vector<std::uint32_t> t_open;

unsigned
threadIndex()
{
    static std::atomic<unsigned> next{0};
    thread_local const unsigned index = next.fetch_add(1);
    return index;
}

/** Length of the union of [start, end) intervals, clipped to
 *  [lo, hi]. Sorts `iv` in place. */
double
unionLength(std::vector<std::pair<double, double>> &iv, double lo,
            double hi)
{
    std::sort(iv.begin(), iv.end());
    double covered = 0.0;
    double reach = lo;
    for (auto [s, e] : iv) {
        s = std::max(s, reach);
        e = std::min(e, hi);
        if (e > s) {
            covered += e - s;
            reach = e;
        }
    }
    return covered;
}

} // namespace

double
now()
{
    static const Clock::time_point origin = Clock::now();
    return std::chrono::duration<double>(Clock::now() - origin).count();
}

Tracer &
Tracer::get()
{
    static Tracer tracer;
    return tracer;
}

std::uint32_t
Tracer::newId()
{
    std::lock_guard<std::mutex> lock(mu_);
    return nextId_++;
}

void
Tracer::record(const SpanRecord &span)
{
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(span);
}

std::uint32_t
Tracer::recordSpan(const char *name, double start, double end,
                   std::uint32_t parent, std::uint32_t id)
{
    SpanRecord rec;
    rec.name = name;
    rec.start = start;
    rec.end = end;
    rec.parent = parent;
    rec.tid = threadIndex();
    std::lock_guard<std::mutex> lock(mu_);
    rec.id = id != 0 ? id : nextId_++;
    spans_.push_back(rec);
    return rec.id;
}

std::uint32_t
Tracer::current() const
{
    return t_open.empty() ? 0 : t_open.back();
}

std::size_t
Tracer::size() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return spans_.size();
}

std::vector<double>
Tracer::selfTimes() const
{
    std::unordered_map<std::uint32_t, std::size_t> index;
    for (std::size_t k = 0; k < spans_.size(); ++k)
        index[spans_[k].id] = k;
    std::vector<std::vector<std::pair<double, double>>> children(
        spans_.size());
    for (const auto &s : spans_) {
        auto it = index.find(s.parent);
        if (s.parent != 0 && it != index.end())
            children[it->second].emplace_back(s.start, s.end);
    }
    std::vector<double> self(spans_.size());
    for (std::size_t k = 0; k < spans_.size(); ++k) {
        const auto &s = spans_[k];
        self[k] = (s.end - s.start) -
                  unionLength(children[k], s.start, s.end);
    }
    return self;
}

std::map<std::string, SpanTotals>
Tracer::totals() const
{
    std::lock_guard<std::mutex> lock(mu_);
    const std::vector<double> self = selfTimes();
    std::map<std::string, SpanTotals> out;
    for (std::size_t k = 0; k < spans_.size(); ++k) {
        SpanTotals &t = out[spans_[k].name];
        ++t.count;
        t.total += spans_[k].end - spans_[k].start;
        t.self += self[k];
    }
    return out;
}

double
Tracer::coverage(double end) const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<std::pair<double, double>> top;
    for (const auto &s : spans_) {
        if (s.parent == 0)
            top.emplace_back(s.start, s.end);
    }
    return end > 0.0 ? unionLength(top, 0.0, end) / end : 0.0;
}

bool
Tracer::writeChromeTrace(const std::string &path) const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::ofstream out(path, std::ios::binary);
    if (!out)
        return false;
    const std::vector<double> self = selfTimes();
    out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
    char buf[512];
    for (std::size_t k = 0; k < spans_.size(); ++k) {
        const auto &s = spans_[k];
        std::snprintf(buf, sizeof(buf),
                      "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                      "\"tid\": %u, \"ts\": %.3f, \"dur\": %.3f, "
                      "\"args\": {\"id\": %u, \"parent\": %u, "
                      "\"self_us\": %.3f}}%s\n",
                      s.name, s.tid, s.start * 1e6,
                      (s.end - s.start) * 1e6, s.id, s.parent,
                      self[k] * 1e6,
                      k + 1 < spans_.size() ? "," : "");
        out << buf;
    }
    out << "]}\n";
    return static_cast<bool>(out);
}

Span::Span(const char *name, Level level, std::uint32_t parent)
{
    Tracer &t = Tracer::get();
    live_ = level == Top ? t.enabled() : t.detail();
    if (!live_)
        return;
    rec_.name = name;
    rec_.id = t.newId();
    rec_.parent = parent == kInherit ? t.current() : parent;
    rec_.tid = threadIndex();
    t_open.push_back(rec_.id);
    rec_.start = now();
}

Span::~Span()
{
    if (!live_)
        return;
    rec_.end = now();
    t_open.pop_back();
    Tracer::get().record(rec_);
}

} // namespace mb
