#include "obs/observatory.hpp"

#include <algorithm>
#include <cmath>
#include <ostream>

#include "core/machine.hpp"
#include "util/check.hpp"

namespace psc {

// --- TimeSeries -------------------------------------------------------------

TimeSeries::TimeSeries(const MetricsRegistry& reg, TimeSeriesOptions opts)
    : reg_(reg), opts_(opts) {
  PSC_CHECK(opts_.cadence > 0, "time-series cadence must be positive");
  PSC_CHECK(opts_.window > 0, "time-series window must be positive");
}

void TimeSeries::record(const std::string& name, Time t, double v) {
  auto [it, fresh] = series_.try_emplace(name);
  if (fresh) order_.push_back(name);
  Ring& r = it->second;
  if (r.buf.size() < opts_.window) {
    r.buf.push_back({t, v});
    return;
  }
  r.buf[r.next] = {t, v};
  r.next = (r.next + 1) % r.buf.size();
  ++r.dropped;
}

void TimeSeries::sample(Time now) {
  ++samples_;
  for (MetricId id = 0; id < reg_.size(); ++id) {
    const std::string& name = reg_.name(id);
    if (const Counter* c = reg_.find_counter(name)) {
      record(name, now, static_cast<double>(c->value()));
    } else if (const Gauge* g = reg_.find_gauge(name)) {
      record(name, now, g->last());
    } else if (const Histogram* h = reg_.find_histogram(name)) {
      record(name + ".count", now, static_cast<double>(h->count()));
      record(name + ".p50", now, h->p50());
      record(name + ".p99", now, h->p99());
    }
  }
}

std::vector<TimeSeries::Point> TimeSeries::points(
    std::string_view series) const {
  const auto it = series_.find(std::string(series));
  if (it == series_.end()) return {};
  const Ring& r = it->second;
  std::vector<Point> out;
  out.reserve(r.buf.size());
  // Oldest first: once the ring is full, `next` is the oldest slot.
  for (std::size_t k = 0; k < r.buf.size(); ++k) {
    out.push_back(r.buf[(r.next + k) % r.buf.size()]);
  }
  return out;
}

std::uint64_t TimeSeries::dropped(std::string_view series) const {
  const auto it = series_.find(std::string(series));
  return it == series_.end() ? 0 : it->second.dropped;
}

void TimeSeries::write_jsonl(std::ostream& os) const {
  for (const std::string& name : order_) {
    const auto it = series_.find(name);
    const Ring& r = it->second;
    os << "{\"type\":\"timeseries\",\"name\":\"" << json_escape(name)
       << "\",\"cadence_ns\":" << opts_.cadence
       << ",\"dropped\":" << r.dropped << ",\"points\":[";
    bool first = true;
    for (const Point& p : points(name)) {
      if (!first) os << ",";
      first = false;
      os << "[" << p.t << ",";
      if (std::isfinite(p.v)) {
        os << p.v;
      } else {
        os << "null";
      }
      os << "]";
    }
    os << "]}\n";
  }
}

void TimeSeriesProbe::on_run_begin(Time now) {
  ts_.sample(now);
  next_ = now + ts_.options().cadence;
}

void TimeSeriesProbe::on_time_advance(Time /*from*/, Time to) {
  // State only changes at events, so a sample stamped at the period
  // boundary is exact even though it is taken after the jump past it.
  while (next_ <= to) {
    ts_.sample(next_);
    next_ += ts_.options().cadence;
  }
}

void TimeSeriesProbe::on_run_end(Time now) { ts_.sample(now); }

// --- BoundSlackProbe --------------------------------------------------------

BoundSlackProbe::BoundSlackProbe(MetricsRegistry& reg, SlackOptions opts)
    : reg_(reg), opts_(opts) {
  if (opts_.eps >= 0) {
    ceps_ = ceps_window(opts_.eps, opts_.ell);
    ceps_hist_ = &reg_.histogram("slack.ceps_ns");
  }
  if (opts_.d2 >= 0) {
    delivery_ = delivery_window(opts_.d1, opts_.d2);
    delivery_hist_ = &reg_.histogram("slack.delivery_ns");
    if (opts_.eps >= 0) {
      thm47_ = thm47_window(opts_.d1, opts_.d2, opts_.eps);
      thm47_hist_ = &reg_.histogram("slack.thm47_ns");
    }
  }
  if (opts_.ell >= 0) {
    mmt_ = mmt_window(opts_.ell);
    mmt_hist_ = &reg_.histogram("slack.mmt_ns");
  }
  violations_ = &reg_.counter("slack.violations");
}

Duration BoundSlackProbe::min_slack() const {
  return std::min(std::min(min_ceps_, min_delivery_),
                  std::min(min_thm47_, min_mmt_));
}

void BoundSlackProbe::feed(Histogram* hist, Duration* min_seen,
                           Duration slack) {
  hist->add(slack);
  if (slack < *min_seen) *min_seen = slack;
  if (slack < 0) violations_->add();
}

Gauge* BoundSlackProbe::node_gauge(std::unordered_map<int, Gauge*>& cache,
                                   const char* prefix, int node) {
  auto [it, fresh] = cache.try_emplace(node, nullptr);
  if (fresh) {
    it->second =
        &reg_.gauge(std::string(prefix) + ".node" + std::to_string(node));
  }
  return it->second;
}

Gauge* BoundSlackProbe::channel_gauge(const Machine& owner) {
  auto [it, fresh] = channel_gauges_.try_emplace(&owner, nullptr);
  if (fresh) {
    it->second = &reg_.gauge("slack.delivery_ns." + owner.name());
  }
  return it->second;
}

void BoundSlackProbe::on_event(const TimedEvent& e, const Machine& owner) {
  const EventClass cls = ledger_.classify(e);
  if (ceps_hist_) feed_ceps(e);
  if (delivery_hist_) feed_channel(e, cls, owner);
  if (mmt_hist_) feed_mmt(e, cls);
}

void BoundSlackProbe::feed_ceps(const TimedEvent& e) {
  // PSC101's quantity: the signed skew c(t) - t must sit in the C_eps band
  // (widened by ell under MMT, where the visible clock is the last tick).
  if (e.clock == kNoClockTag) return;
  const Duration slack = ceps_.slack(e.clock - e.time);
  feed(ceps_hist_, &min_ceps_, slack);
  if (opts_.per_node && e.action.node != kNoNode) {
    node_gauge(ceps_gauges_, "slack.ceps_ns", e.action.node)
        ->set(static_cast<double>(slack));
  }
}

void BoundSlackProbe::feed_channel(const TimedEvent& e, EventClass cls,
                                   const Machine& owner) {
  const EventLedger::Record& r = ledger_.match(e, cls);
  if (cls != EventClass::kERecv && cls != EventClass::kRecv) return;
  if (cls == EventClass::kERecv || r.esend_time < 0) {
    // The physical delivery — ERECVMSG under Simulation 1, RECVMSG in the
    // timed model: latency slack against [d1, d2].
    const Time sent = cls == EventClass::kERecv ? r.esend_time : r.send_time;
    if (sent < 0) return;
    const Duration slack = delivery_.slack(e.time - sent);
    feed(delivery_hist_, &min_delivery_, slack);
    if (opts_.per_channel) {
      channel_gauge(owner)->set(static_cast<double>(slack));
    }
    return;
  }
  // Simulation 1 buffer release: Theorem 4.7's clock-time latency window.
  if (thm47_hist_ && r.tag != kNoClockTag && e.clock != kNoClockTag) {
    const Duration slack = thm47_.slack(e.clock - r.tag);
    feed(thm47_hist_, &min_thm47_, slack);
    if (opts_.per_node && e.action.node != kNoNode) {
      node_gauge(thm47_gauges_, "slack.thm47_ns", e.action.node)
          ->set(static_cast<double>(slack));
    }
  }
}

void BoundSlackProbe::feed_mmt(const TimedEvent& e, EventClass cls) {
  // Boundmap slack is one-sided: [0, ell]'s lower edge is trivially
  // satisfied by any gap (a *small* gap is eagerness, not tightness), so
  // only the distance to the deadline ell counts.
  if (const auto gap = ledger_.tick_gap(e, cls)) {
    const Duration slack = mmt_.hi - *gap;
    feed(mmt_hist_, &min_mmt_, slack);
    if (opts_.per_node) {
      node_gauge(mmt_gauges_, "slack.mmt_ns", e.action.node)
          ->set(static_cast<double>(slack));
    }
  }
  if (const auto gap = ledger_.step_gap(e, cls)) {
    feed(mmt_hist_, &min_mmt_, mmt_.hi - *gap);
  }
}

}  // namespace psc
