#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <ostream>

#include "util/check.hpp"

namespace psc {

void Gauge::set(double v) {
  last_ = v;
  if (n_ == 0) {
    min_ = max_ = v;
  } else {
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
  }
  sum_ += v;
  ++n_;
}

double Histogram::percentile(double p) const {
  // NaN on empty data, matching Samples::percentile: a zero-sample series
  // still renders (write_jsonl maps non-finite values to 0).
  if (n_ == 0) return std::numeric_limits<double>::quiet_NaN();
  const double target =
      std::clamp(p, 0.0, 100.0) / 100.0 * static_cast<double>(n_);
  // Only [index(min), index(max)] can be occupied. Every edge in it is
  // >= min, so clamping to max keeps the estimate inside [min, max].
  const std::size_t last = index(max_);
  std::uint64_t seen = 0;
  for (std::size_t i = index(min_); i <= last; ++i) {
    if (buckets_[i] == 0) continue;
    seen += buckets_[i];
    if (static_cast<double>(seen) >= target) {
      return static_cast<double>(std::min(bucket_max(i), max_));
    }
  }
  return static_cast<double>(max_);  // p rounded past the last sample
}

MetricId MetricsRegistry::intern(std::string_view name) {
  const auto it = index_.find(std::string(name));
  if (it != index_.end()) return it->second;
  const MetricId id = static_cast<MetricId>(slots_.size());
  auto slot = std::make_unique<Slot>();
  slot->name = std::string(name);
  slot->kind = Kind::kCounter;  // provisional; fixed by the typed getter
  index_.emplace(slot->name, id);
  slots_.push_back(std::move(slot));
  return id;
}

const std::string& MetricsRegistry::name(MetricId id) const {
  PSC_CHECK(id < slots_.size(), "unknown metric id " << id);
  return slots_[id]->name;
}

Counter& MetricsRegistry::counter(std::string_view name) {
  const MetricId id = intern(name);
  Slot& s = *slots_[id];
  if (!s.c && !s.g && !s.h) {
    s.kind = Kind::kCounter;
    s.c = std::make_unique<Counter>();
  }
  PSC_CHECK(s.kind == Kind::kCounter && s.c,
            "metric '" << s.name << "' already registered with another kind");
  return *s.c;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  const MetricId id = intern(name);
  Slot& s = *slots_[id];
  if (!s.c && !s.g && !s.h) {
    s.kind = Kind::kGauge;
    s.g = std::make_unique<Gauge>();
  }
  PSC_CHECK(s.kind == Kind::kGauge && s.g,
            "metric '" << s.name << "' already registered with another kind");
  return *s.g;
}

Histogram& MetricsRegistry::histogram(std::string_view name) {
  const MetricId id = intern(name);
  Slot& s = *slots_[id];
  if (!s.c && !s.g && !s.h) {
    s.kind = Kind::kHistogram;
    s.h = std::make_unique<Histogram>();
  }
  PSC_CHECK(s.kind == Kind::kHistogram && s.h,
            "metric '" << s.name << "' already registered with another kind");
  return *s.h;
}

const MetricsRegistry::Slot* MetricsRegistry::find(std::string_view name,
                                                   Kind kind) const {
  const auto it = index_.find(std::string(name));
  if (it == index_.end()) return nullptr;
  const Slot& s = *slots_[it->second];
  return s.kind == kind ? &s : nullptr;
}

const Counter* MetricsRegistry::find_counter(std::string_view name) const {
  const Slot* s = find(name, Kind::kCounter);
  return s ? s->c.get() : nullptr;
}

const Gauge* MetricsRegistry::find_gauge(std::string_view name) const {
  const Slot* s = find(name, Kind::kGauge);
  return s ? s->g.get() : nullptr;
}

const Histogram* MetricsRegistry::find_histogram(
    std::string_view name) const {
  const Slot* s = find(name, Kind::kHistogram);
  return s ? s->h.get() : nullptr;
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char ch : s) {
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", ch);
          out += buf;
        } else {
          out += ch;
        }
    }
  }
  return out;
}

namespace {

// JSON has no inf/nan; empty metrics report 0.
void put_number(std::ostream& os, double v) {
  if (!std::isfinite(v)) {
    os << 0;
    return;
  }
  os << v;
}

}  // namespace

void MetricsRegistry::write_jsonl(std::ostream& os) const {
  for (const auto& slot : slots_) {
    const Slot& s = *slot;
    os << "{\"name\":\"" << json_escape(s.name) << "\"";
    switch (s.kind) {
      case Kind::kCounter:
        os << ",\"type\":\"counter\",\"value\":" << (s.c ? s.c->value() : 0);
        break;
      case Kind::kGauge: {
        os << ",\"type\":\"gauge\",\"samples\":" << s.g->samples()
           << ",\"last\":";
        put_number(os, s.g->last());
        os << ",\"min\":";
        put_number(os, s.g->min());
        os << ",\"max\":";
        put_number(os, s.g->max());
        os << ",\"mean\":";
        put_number(os, s.g->mean());
        break;
      }
      case Kind::kHistogram: {
        const Histogram& h = *s.h;
        os << ",\"type\":\"histogram\",\"count\":" << h.count() << ",\"sum\":";
        put_number(os, h.sum());
        os << ",\"min\":";
        put_number(os, h.min());
        os << ",\"max\":";
        put_number(os, h.max());
        os << ",\"p50\":";
        put_number(os, h.p50());
        os << ",\"p99\":";
        put_number(os, h.p99());
        // Nonempty buckets only, as (inclusive upper edge, count) pairs.
        std::string bounds, counts;
        const std::size_t last = Histogram::index(h.max());
        for (std::size_t i = Histogram::index(h.min()); i <= last; ++i) {
          const std::uint64_t c = h.buckets()[i];
          if (c == 0) continue;
          if (!counts.empty()) {
            bounds += ',';
            counts += ',';
          }
          bounds += std::to_string(Histogram::bucket_max(i));
          counts += std::to_string(c);
        }
        os << ",\"bounds\":[" << bounds << "],\"buckets\":[" << counts
           << "]";
        break;
      }
    }
    os << "}\n";
  }
}

}  // namespace psc
