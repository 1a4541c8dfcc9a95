// MetricsRegistry: counters, gauges, and log-linear histograms keyed by
// interned names.
//
// The registry is the sink the built-in probes (probes.hpp) write into and
// the JSONL exporter reads out of. Design constraints, in order:
//   * hot-path writes are field updates on a handle obtained once at setup
//     (no name lookup per sample);
//   * handles are stable — registering more metrics never invalidates an
//     existing Counter/Gauge/Histogram reference;
//   * a name maps to exactly one metric of one kind (re-requesting returns
//     the same object, so several runs can aggregate into one registry;
//     requesting an existing name as a different kind is a CheckError).
//
// Histograms need no bucket bounds: one log-linear layout covers every
// int64 nanosecond quantity in the tree (delivery windows, the C_eps
// envelope, Theorem 4.7's widened window, signed bound slack) at a bounded
// relative error, with an O(1) shift-and-count per sample.
#pragma once

#include <bit>
#include <cstdint>
#include <iosfwd>
#include <limits>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace psc {

using MetricId = std::uint32_t;

class Counter {
 public:
  void add(std::uint64_t n = 1) { v_ += n; }
  std::uint64_t value() const { return v_; }

 private:
  std::uint64_t v_ = 0;
};

// Last/min/max/mean over set() calls — a sampled instantaneous quantity.
class Gauge {
 public:
  void set(double v);
  std::size_t samples() const { return n_; }
  double last() const { return last_; }
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }
  double mean() const { return n_ ? sum_ / static_cast<double>(n_) : 0.0; }

 private:
  std::size_t n_ = 0;
  double last_ = 0, min_ = 0, max_ = 0, sum_ = 0;
};

// HDR-style histogram over signed int64 samples (nanoseconds here).
// Magnitudes below 2^kSubBits are exact; above that each power-of-two
// octave is split into 2^kSubBits sub-buckets, so a bucket is never wider
// than 2^-kSubBits (~3%) of the values in it, at every magnitude up to
// INT64_MAX. Negative samples (bound-slack violations) land in a mirrored
// bank. Indexing is a bit_width plus a shift — no search — and memory is a
// fixed ~30 KB regardless of sample count.
class Histogram {
 public:
  static constexpr int kSubBits = 5;
  static constexpr std::uint64_t kSub = std::uint64_t{1} << kSubBits;  // 32
  // Buckets per sign: kSub exact values [0, 32), then one octave of kSub
  // for each msb position kSubBits..62.
  static constexpr std::size_t kBank = (64 - kSubBits) * kSub;
  static constexpr std::size_t kBuckets = 2 * kBank;

  Histogram() : buckets_(kBuckets, 0) {}

  // Bucket of v; nondecreasing in v. The positive bank is [kBank,
  // kBuckets); the negative bank [0, kBank) mirrors it through ~v = -v - 1,
  // which maps INT64_MIN to INT64_MAX without a negation that overflows.
  static std::size_t index(std::int64_t v) {
    const auto x = static_cast<std::uint64_t>(v);
    return v >= 0 ? kBank + bank_index(x) : kBank - 1 - bank_index(~x);
  }
  // Largest value landing in bucket i (its inclusive upper edge).
  static std::int64_t bucket_max(std::size_t i) {
    if (i >= kBank) {
      return static_cast<std::int64_t>(bank_min(i - kBank + 1) - 1);
    }
    return ~static_cast<std::int64_t>(bank_min(kBank - 1 - i));
  }

  // Inline: runs once per observed sample on the probe and flight-recorder
  // hot paths.
  void add(std::int64_t v) {
    ++buckets_[index(v)];
    ++n_;
    sum_ += static_cast<double>(v);
    if (v < min_) min_ = v;
    if (v > max_) max_ = v;
  }

  std::uint64_t count() const { return n_; }
  double sum() const { return sum_; }
  double mean() const { return n_ ? sum_ / static_cast<double>(n_) : 0.0; }
  std::int64_t min() const { return n_ ? min_ : 0; }
  std::int64_t max() const { return n_ ? max_ : 0; }
  const std::vector<std::uint64_t>& buckets() const { return buckets_; }

  // p in [0, 100]: the upper edge of the bucket holding the p-th percentile
  // sample, clamped to the observed max — exact to one sub-bucket and never
  // outside [min, max]. NaN when the histogram holds no samples.
  double percentile(double p) const;
  // The quantiles consumers read (psc-report, observatory, the JSONL
  // exporter, the flight gauges).
  double p50() const { return percentile(50); }
  double p99() const { return percentile(99); }
  double p999() const { return percentile(99.9); }

 private:
  // Index of magnitude x within one bank.
  static std::size_t bank_index(std::uint64_t x) {
    if (x < kSub) return static_cast<std::size_t>(x);
    const int e = std::bit_width(x) - 1;  // bit position of the msb
    return static_cast<std::size_t>(e - kSubBits) * kSub +
           static_cast<std::size_t>(x >> (e - kSubBits));
  }
  // Smallest magnitude landing in bank bucket m (m == kBank gives 2^63,
  // one past the last bucket).
  static std::uint64_t bank_min(std::size_t m) {
    if (m < kSub) return m;
    return (kSub + m % kSub) << (m / kSub - 1);
  }

  std::vector<std::uint64_t> buckets_;
  std::uint64_t n_ = 0;
  double sum_ = 0;
  std::int64_t min_ = std::numeric_limits<std::int64_t>::max();
  std::int64_t max_ = std::numeric_limits<std::int64_t>::min();
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Get-or-create. References stay valid for the registry's lifetime.
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);

  // Interning: every registered name has a dense id (registration order).
  MetricId intern(std::string_view name);
  const std::string& name(MetricId id) const;
  std::size_t size() const { return slots_.size(); }

  // Read-only lookups (nullptr when absent or of another kind).
  const Counter* find_counter(std::string_view name) const;
  const Gauge* find_gauge(std::string_view name) const;
  const Histogram* find_histogram(std::string_view name) const;

  // One self-contained JSON object per line, e.g.
  //   {"type":"counter","name":"channel.sent","value":42}
  // Histograms carry summary stats plus their nonempty buckets: `bounds`
  // holds each one's inclusive upper edge and `buckets` its count, so a
  // dump is enough to rebuild the distribution.
  void write_jsonl(std::ostream& os) const;

 private:
  enum class Kind { kCounter, kGauge, kHistogram };
  struct Slot {
    std::string name;
    Kind kind;
    std::unique_ptr<Counter> c;
    std::unique_ptr<Gauge> g;
    std::unique_ptr<Histogram> h;
  };

  const Slot* find(std::string_view name, Kind kind) const;

  std::vector<std::unique_ptr<Slot>> slots_;  // index = MetricId
  std::unordered_map<std::string, MetricId> index_;
};

// JSON string escaping shared by the exporters.
std::string json_escape(std::string_view s);

}  // namespace psc
