#include "trace.hh"

#include <algorithm>
#include <atomic>
#include <cstdio>

namespace perfbench
{

namespace
{

thread_local std::vector<int> tlsStack;

unsigned
threadIndex()
{
    static std::atomic<unsigned> next{0};
    thread_local const unsigned mine = next.fetch_add(1);
    return mine;
}

std::string
layerOf(const std::string &name)
{
    return name.substr(0, name.find('.'));
}

} // namespace

int
Tracer::current()
{
    return tlsStack.empty() ? -1 : tlsStack.back();
}

int
Tracer::begin(const std::string &name, int parent)
{
    if (!enabled_)
        return -1;
    Span s;
    s.name = name;
    s.parent = parent == -2 ? current() : parent;
    s.thread = threadIndex();
    s.start = Clock::now();
    s.end = s.start;
    int id;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        id = static_cast<int>(spans_.size());
        spans_.push_back(std::move(s));
    }
    tlsStack.push_back(id);
    return id;
}

void
Tracer::end(int id)
{
    if (id < 0)
        return;
    const auto now = Clock::now();
    {
        std::lock_guard<std::mutex> lock(mutex_);
        spans_[static_cast<std::size_t>(id)].end = now;
    }
    if (!tlsStack.empty() && tlsStack.back() == id)
        tlsStack.pop_back();
}

int
Tracer::add(const std::string &name, Clock::time_point start,
            Clock::time_point end, int parent)
{
    if (!enabled_)
        return -1;
    Span s{name, start, end, parent, threadIndex()};
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(std::move(s));
    return static_cast<int>(spans_.size() - 1);
}

std::size_t
Tracer::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_.size();
}

std::map<std::string, double>
Tracer::selfSeconds() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::vector<int>> children(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i)
        if (spans_[i].parent >= 0)
            children[static_cast<std::size_t>(spans_[i].parent)]
                .push_back(static_cast<int>(i));

    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &p = spans_[i];
        // Children on other threads may overlap one another, so
        // take the union of their intervals clipped to the parent.
        std::vector<std::pair<Clock::time_point, Clock::time_point>>
            iv;
        for (int c : children[i]) {
            const Span &s = spans_[static_cast<std::size_t>(c)];
            const auto a = std::max(s.start, p.start);
            const auto b = std::min(s.end, p.end);
            if (a < b)
                iv.emplace_back(a, b);
        }
        std::sort(iv.begin(), iv.end());
        double covered = 0.0;
        Clock::time_point reach = p.start;
        for (const auto &[a, b] : iv) {
            const auto from = std::max(a, reach);
            if (b > from) {
                covered += seconds(from, b);
                reach = b;
            }
        }
        out[layerOf(p.name)] += seconds(p.start, p.end) - covered;
    }
    return out;
}

std::string
Tracer::chromeJson() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::string out = "{\"traceEvents\": [\n";
    char buf[256];
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::snprintf(
            buf, sizeof(buf),
            "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
            "\"tid\": %u, \"ts\": %.3f, \"dur\": %.3f, "
            "\"args\": {\"id\": %zu, \"parent\": %d}}%s\n",
            s.name.c_str(), s.thread,
            seconds(origin_, s.start) * 1e6,
            seconds(s.start, s.end) * 1e6, i, s.parent,
            i + 1 < spans_.size() ? "," : "");
        out += buf;
    }
    out += "]}\n";
    return out;
}

} // namespace perfbench
