#include "obs/trace_writer.hpp"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "support/error.hpp"
#include "support/json.hpp"

namespace gmt
{

namespace
{

std::string
num(double v)
{
    if (!std::isfinite(v))
        return "0";
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.3f", v);
    return buf;
}

} // namespace

TraceCollector::TraceCollector()
    : t0_(std::chrono::steady_clock::now())
{
}

double
TraceCollector::nowUs() const
{
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - t0_)
        .count();
}

void
TraceCollector::addEvent(std::string rendered)
{
    std::lock_guard<std::mutex> lock(mu_);
    events_.push_back(std::move(rendered));
}

int64_t
TraceCollector::laneForThisThread()
{
    // One lane per OS thread per collector; thread_local would pin
    // the id across collectors, so key the cache on the collector.
    thread_local TraceCollector *cached_for = nullptr;
    thread_local int64_t cached_lane = 0;
    if (cached_for == this)
        return cached_lane;
    int64_t lane;
    {
        std::lock_guard<std::mutex> lock(mu_);
        lane = next_lane_++;
    }
    cached_for = this;
    cached_lane = lane;
    nameThread(kPipelinePid, lane,
               "worker-" + std::to_string(lane));
    return lane;
}

int
TraceCollector::registerProcess(const std::string &name)
{
    int pid;
    {
        std::lock_guard<std::mutex> lock(mu_);
        pid = next_pid_++;
    }
    addEvent("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" +
             std::to_string(pid) +
             ",\"tid\":0,\"args\":{\"name\":\"" + jsonEscape(name) +
             "\"}}");
    return pid;
}

void
TraceCollector::nameThread(int pid, int64_t tid,
                           const std::string &name)
{
    addEvent("{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":" +
             std::to_string(pid) + ",\"tid\":" + std::to_string(tid) +
             ",\"args\":{\"name\":\"" + jsonEscape(name) + "\"}}");
}

void
TraceCollector::completeEvent(
    const std::string &name, const std::string &cat, int pid,
    int64_t tid, double ts_us, double dur_us,
    const std::vector<std::pair<std::string, std::string>> &str_args,
    const std::vector<std::pair<std::string, int64_t>> &num_args)
{
    std::string e = "{\"name\":\"" + jsonEscape(name) +
                    "\",\"cat\":\"" + jsonEscape(cat) +
                    "\",\"ph\":\"X\",\"ts\":" + num(ts_us) +
                    ",\"dur\":" + num(dur_us) +
                    ",\"pid\":" + std::to_string(pid) +
                    ",\"tid\":" + std::to_string(tid);
    if (!str_args.empty() || !num_args.empty()) {
        e += ",\"args\":{";
        bool first = true;
        for (const auto &[k, v] : str_args) {
            if (!first)
                e += ',';
            first = false;
            e += '"' + jsonEscape(k) + "\":\"" + jsonEscape(v) + '"';
        }
        for (const auto &[k, v] : num_args) {
            if (!first)
                e += ',';
            first = false;
            e += '"' + jsonEscape(k) + "\":" + std::to_string(v);
        }
        e += '}';
    }
    e += '}';
    addEvent(std::move(e));
}

void
TraceCollector::counterEvent(const std::string &name, int pid,
                             double ts_us, const std::string &series,
                             int64_t value)
{
    addEvent("{\"name\":\"" + jsonEscape(name) +
             "\",\"ph\":\"C\",\"ts\":" + num(ts_us) +
             ",\"pid\":" + std::to_string(pid) +
             ",\"tid\":0,\"args\":{\"" + jsonEscape(series) +
             "\":" + std::to_string(value) + "}}");
}

size_t
TraceCollector::numEvents() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return events_.size();
}

void
TraceCollector::write(std::ostream &os) const
{
    std::lock_guard<std::mutex> lock(mu_);
    os << "{\"schema\":1,\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    for (size_t i = 0; i < events_.size(); ++i) {
        if (i)
            os << ",\n";
        else
            os << "\n";
        os << events_[i];
    }
    os << "\n]}\n";
}

void
TraceCollector::writeFile(const std::string &path) const
{
    std::ofstream out(path, std::ios::trunc);
    if (!out)
        fatal("cannot open trace file ", path);
    write(out);
}

std::string
TraceCollector::json() const
{
    std::ostringstream ss;
    write(ss);
    return ss.str();
}

} // namespace gmt
