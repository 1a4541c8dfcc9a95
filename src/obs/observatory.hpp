// The bound-slack observatory: measure *how close* a run comes to the
// paper's quantitative bounds, not just whether it stayed inside them.
//
// Two pieces, both executor Probes writing into a MetricsRegistry:
//
//   TimeSeries / TimeSeriesProbe
//     Samples every registered counter/gauge/histogram on a simulated-time
//     cadence into per-series ring-buffered windows (the last `window`
//     samples are kept), exported as JSONL for plotting. The registry stays
//     the aggregate story; the time series is its evolution.
//
//   BoundSlackProbe
//     For every clock reading, delivery, Simulation-1 release, and MMT
//     tick/step it computes the *signed distance to the governing
//     theoretical bound* (analysis/windows.hpp): the C_eps drift envelope,
//     the [d1, d2] delivery band, the Theorem 4.7 clock-time window, and
//     the MMT [0, ell] boundmap. Positive slack is adversarial room left
//     unused, zero is a tight schedule, negative is a bound violation (the
//     same condition PSC101/102/104/105 report). Slack distributions land
//     in per-kind histograms plus per-node / per-channel min-tracking
//     gauges, so "minimize slack" is a first-class search signal for
//     adversarial schedule hunting (ROADMAP item 4) and "min slack >= 0"
//     is a sweep-cell gate for report generation (tools/psc-report).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "analysis/ledger.hpp"
#include "analysis/windows.hpp"
#include "obs/metrics.hpp"
#include "obs/probe.hpp"

namespace psc {

struct TimeSeriesOptions {
  // Simulated-time sampling period.
  Duration cadence = milliseconds(1);
  // Ring capacity per series: the last `window` samples are kept, older
  // points are overwritten (counted in `dropped`).
  std::size_t window = 4096;
};

// Windowed sink over a MetricsRegistry. sample(now) snapshots every
// registered metric: a counter contributes its value under its own name, a
// gauge its last set value, a histogram its `.count`, `.p50` and `.p99`
// sub-series. Metrics registered mid-run join at the next sample.
class TimeSeries {
 public:
  explicit TimeSeries(const MetricsRegistry& reg, TimeSeriesOptions opts = {});

  TimeSeries(const TimeSeries&) = delete;
  TimeSeries& operator=(const TimeSeries&) = delete;

  void sample(Time now);

  struct Point {
    Time t = 0;
    double v = 0;
  };

  const TimeSeriesOptions& options() const { return opts_; }
  std::size_t samples_taken() const { return samples_; }
  std::size_t series_count() const { return order_.size(); }
  // Retained points of one series, oldest first (empty when unknown).
  std::vector<Point> points(std::string_view series) const;
  // Points dropped from one series' ring (0 when unknown or never full).
  std::uint64_t dropped(std::string_view series) const;

  // One JSON object per line per series:
  //   {"type":"timeseries","name":"channel.delivered","cadence_ns":...,
  //    "dropped":0,"points":[[t_ns,value],...]}
  // Non-finite values (empty-histogram percentiles) render as null.
  void write_jsonl(std::ostream& os) const;

 private:
  struct Ring {
    std::vector<Point> buf;    // capacity options().window
    std::size_t next = 0;      // write cursor once full
    std::uint64_t dropped = 0;
  };

  void record(const std::string& name, Time t, double v);

  const MetricsRegistry& reg_;
  TimeSeriesOptions opts_;
  std::size_t samples_ = 0;
  std::vector<std::string> order_;  // first-seen order, for stable export
  std::unordered_map<std::string, Ring> series_;
};

// Drives a TimeSeries on the simulated clock: one sample per elapsed
// cadence period (taken at the period boundary — state is constant inside a
// time-passage step, so the boundary snapshot is exact), plus a final
// sample at run end.
class TimeSeriesProbe final : public Probe {
 public:
  explicit TimeSeriesProbe(TimeSeries& ts) : ts_(ts) {}

  // Samples on time passage only — opt out of the per-event dispatch.
  bool observes_events() const override { return false; }
  // Only the advance that crosses the next sample boundary matters; let
  // the executor skip the dispatch for every advance before it.
  Time next_time_interest() const override { return next_; }

  void on_run_begin(Time now) override;
  void on_time_advance(Time from, Time to) override;
  void on_run_end(Time now) override;

 private:
  TimeSeries& ts_;
  Time next_ = 0;
};

struct SlackOptions {
  // C_eps accuracy; negative disables skew slack.
  Duration eps = -1;
  // Physical channel bounds; d2 < 0 disables delivery and Theorem 4.7
  // slack.
  Duration d1 = -1;
  Duration d2 = -1;
  // MMT boundmap upper bound; negative disables tick/step slack.
  Duration ell = -1;
  // Per-node (skew, tick/step) and per-channel (delivery) min-tracking
  // gauges beside the aggregate histograms. Off for huge assemblies where
  // per-entity series would dominate the registry.
  bool per_node = true;
  bool per_channel = true;
};

class BoundSlackProbe final : public Probe {
 public:
  BoundSlackProbe(MetricsRegistry& reg, SlackOptions opts);

  // Slack is measured per event — opt out of the per-advance dispatch.
  bool observes_time() const override { return false; }

  void on_event(const TimedEvent& e, const Machine& owner) override;

  // Minimum observed slack per bound kind; kTimeMax when that bound was
  // never measured (disabled, or no matching events).
  Duration min_ceps() const { return min_ceps_; }
  Duration min_delivery() const { return min_delivery_; }
  Duration min_thm47() const { return min_thm47_; }
  Duration min_mmt() const { return min_mmt_; }
  // Minimum across all measured kinds; kTimeMax when nothing was measured.
  Duration min_slack() const;
  // Samples with negative slack — the violation count PSC1xx would report.
  std::uint64_t violations() const { return violations_->value(); }

 private:
  void feed_ceps(const TimedEvent& e);
  // Delivery-band slack for the physical delivery, Theorem 4.7 window
  // slack for a Simulation 1 buffer release. Matching goes through the
  // probe's own EventLedger, as for the invariant checker; the window math
  // is shared (analysis/windows.hpp).
  void feed_channel(const TimedEvent& e, EventClass cls,
                    const Machine& owner);
  void feed_mmt(const TimedEvent& e, EventClass cls);
  void feed(Histogram* hist, Duration* min_seen, Duration slack);
  // Per-entity gauges are cached by node id / machine identity so the hot
  // path never builds a name string; the registry name is built once on
  // first sight ("<prefix>.node<i>", "<prefix>.<channel name>").
  Gauge* node_gauge(std::unordered_map<int, Gauge*>& cache,
                    const char* prefix, int node);
  Gauge* channel_gauge(const Machine& owner);

  MetricsRegistry& reg_;
  SlackOptions opts_;
  BoundWindow ceps_, delivery_, thm47_, mmt_;

  Histogram* ceps_hist_ = nullptr;
  Histogram* delivery_hist_ = nullptr;
  Histogram* thm47_hist_ = nullptr;
  Histogram* mmt_hist_ = nullptr;
  Counter* violations_ = nullptr;
  Duration min_ceps_ = kTimeMax;
  Duration min_delivery_ = kTimeMax;
  Duration min_thm47_ = kTimeMax;
  Duration min_mmt_ = kTimeMax;

  EventLedger ledger_;
  std::unordered_map<int, Gauge*> ceps_gauges_, thm47_gauges_, mmt_gauges_;
  std::unordered_map<const Machine*, Gauge*> channel_gauges_;
};

}  // namespace psc
