#include "driver/stats.hpp"

#include <cmath>
#include <cstdio>

#include "obs/metrics.hpp"
#include "support/error.hpp"
#include "support/json.hpp"

namespace gmt
{

std::string
JsonObject::escape(const std::string &s)
{
    return jsonEscape(s);
}

void
JsonObject::key(const std::string &k)
{
    if (!body_.empty())
        body_ += ',';
    body_ += '"';
    body_ += escape(k);
    body_ += "\":";
}

JsonObject &
JsonObject::str(const std::string &k, const std::string &value)
{
    key(k);
    body_ += '"';
    body_ += escape(value);
    body_ += '"';
    return *this;
}

JsonObject &
JsonObject::num(const std::string &k, double value)
{
    key(k);
    if (!std::isfinite(value)) {
        body_ += "null";
        return *this;
    }
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.6g", value);
    body_ += buf;
    return *this;
}

JsonObject &
JsonObject::num(const std::string &k, int64_t value)
{
    key(k);
    body_ += std::to_string(value);
    return *this;
}

JsonObject &
JsonObject::num(const std::string &k, uint64_t value)
{
    key(k);
    body_ += std::to_string(value);
    return *this;
}

JsonObject &
JsonObject::boolean(const std::string &k, bool value)
{
    key(k);
    body_ += value ? "true" : "false";
    return *this;
}

std::string
JsonObject::render() const
{
    return "{" + body_ + "}";
}

StatsSink::StatsSink(const std::string &path)
    : owned_(path, std::ios::trunc), os_(&owned_)
{
    if (!owned_)
        fatal("cannot open stats file ", path);
}

StatsSink::StatsSink(std::ostream &os) : os_(&os) {}

void
StatsSink::write(const JsonObject &record)
{
    std::string line = record.render();
    line += '\n';
    std::lock_guard<std::mutex> lock(mu_);
    *os_ << line;
    os_->flush();
    ++records_;
}

uint64_t
StatsSink::recordsWritten() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return records_;
}

void
writeMetricsRecords(const MetricsRegistry &registry, StatsSink &sink)
{
    for (const MetricSample &s : registry.snapshot()) {
        JsonObject rec;
        rec.num("schema", int64_t{1})
            .str("type", "metrics")
            .str("name", s.name)
            .str("kind", metricKindName(s.kind));
        if (s.kind == MetricSample::Kind::Histogram) {
            const Histogram::Snapshot &h = s.hist;
            // Guard the derived moments: an empty histogram has no
            // mean and a single sample has no spread — both must
            // render as 0 (0/0 and sqrt of a negative rounding
            // residue would otherwise leak NaN into the JSONL).
            double n = static_cast<double>(h.count);
            double mean = h.count ? h.sum / n : 0.0;
            double var =
                h.count >= 2 ? (h.sum_sq / n) - mean * mean : 0.0;
            double sd = var > 0.0 ? std::sqrt(var) : 0.0;
            rec.num("count", h.count)
                .num("sum", h.sum)
                .num("mean", mean)
                .num("stddev", sd)
                .num("min", h.count ? h.min : 0.0)
                .num("max", h.count ? h.max : 0.0);
            std::string buckets;
            for (int b = 0; b < Histogram::kBuckets; ++b) {
                if (!h.buckets[b])
                    continue;
                if (!buckets.empty())
                    buckets += ',';
                buckets += std::to_string(b) + ':' +
                           std::to_string(h.buckets[b]);
            }
            rec.str("buckets", buckets);
        } else {
            rec.num("value", s.value);
        }
        sink.write(rec);
    }
}

} // namespace gmt
