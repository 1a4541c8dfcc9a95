// Observability layer: MetricsRegistry semantics, executor probe hooks,
// the built-in probes' claims on real runs (skew <= eps, channel latency in
// [d1, d2], Simulation-1 buffering), and exporter well-formedness (every
// JSONL line and the whole Chrome trace must parse as JSON).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "obs/causal.hpp"
#include "obs/instrument.hpp"
#include "obs/metrics.hpp"
#include "obs/probes.hpp"
#include "obs/prof.hpp"
#include "obs/trace_export.hpp"
#include "runtime/executor.hpp"
#include "runtime/script.hpp"
#include "rw/harness.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace psc {
namespace {

// --- a minimal JSON acceptor ----------------------------------------------
// Validates syntax only (the exporters promise *parseable* output); throws
// std::runtime_error on malformed input.

class JsonAcceptor {
 public:
  explicit JsonAcceptor(const std::string& text) : s_(text) {}

  void validate() {
    skip_ws();
    value();
    skip_ws();
    if (pos_ != s_.size()) fail("trailing characters");
  }

 private:
  [[noreturn]] void fail(const char* why) {
    throw std::runtime_error(std::string("JSON error at offset ") +
                             std::to_string(pos_) + ": " + why);
  }
  char peek() {
    if (pos_ >= s_.size()) fail("unexpected end");
    return s_[pos_];
  }
  void skip_ws() {
    while (pos_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[pos_]))) ++pos_;
  }
  void expect(char c) {
    if (peek() != c) fail("unexpected character");
    ++pos_;
  }
  void literal(const char* lit) {
    for (const char* p = lit; *p; ++p) expect(*p);
  }
  void string() {
    expect('"');
    while (true) {
      const char c = peek();
      ++pos_;
      if (c == '"') return;
      if (c == '\\') {
        const char e = peek();
        ++pos_;
        if (e == 'u') {
          for (int k = 0; k < 4; ++k) {
            if (!std::isxdigit(static_cast<unsigned char>(peek()))) {
              fail("bad \\u escape");
            }
            ++pos_;
          }
        } else if (std::string("\"\\/bfnrt").find(e) == std::string::npos) {
          fail("bad escape");
        }
      }
    }
  }
  void number() {
    if (peek() == '-') ++pos_;
    if (!std::isdigit(static_cast<unsigned char>(peek()))) fail("bad number");
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            std::string(".eE+-").find(s_[pos_]) != std::string::npos)) {
      ++pos_;
    }
  }
  void value() {
    skip_ws();
    switch (peek()) {
      case '{': {
        ++pos_;
        skip_ws();
        if (peek() == '}') { ++pos_; return; }
        while (true) {
          skip_ws();
          string();
          skip_ws();
          expect(':');
          value();
          skip_ws();
          if (peek() == ',') { ++pos_; continue; }
          expect('}');
          return;
        }
      }
      case '[': {
        ++pos_;
        skip_ws();
        if (peek() == ']') { ++pos_; return; }
        while (true) {
          value();
          skip_ws();
          if (peek() == ',') { ++pos_; continue; }
          expect(']');
          return;
        }
      }
      case '"': string(); return;
      case 't': literal("true"); return;
      case 'f': literal("false"); return;
      case 'n': literal("null"); return;
      default: number(); return;
    }
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

void expect_valid_json(const std::string& text) {
  ASSERT_NO_THROW(JsonAcceptor(text).validate()) << text.substr(0, 200);
}

// --- MetricsRegistry -------------------------------------------------------

TEST(Metrics, CounterGaugeBasics) {
  MetricsRegistry reg;
  Counter& c = reg.counter("ops");
  c.add();
  c.add(4);
  EXPECT_EQ(c.value(), 5u);
  EXPECT_EQ(&reg.counter("ops"), &c);  // get-or-create returns same handle

  Gauge& g = reg.gauge("depth");
  g.set(3.0);
  g.set(-1.0);
  g.set(2.0);
  EXPECT_EQ(g.samples(), 3u);
  EXPECT_DOUBLE_EQ(g.last(), 2.0);
  EXPECT_DOUBLE_EQ(g.min(), -1.0);
  EXPECT_DOUBLE_EQ(g.max(), 3.0);
  EXPECT_NEAR(g.mean(), 4.0 / 3.0, 1e-12);
}

TEST(Metrics, KindMismatchIsAnError) {
  MetricsRegistry reg;
  reg.counter("x");
  EXPECT_THROW(reg.gauge("x"), CheckError);
  EXPECT_THROW(reg.histogram("x"), CheckError);
  EXPECT_EQ(reg.find_gauge("x"), nullptr);
  EXPECT_NE(reg.find_counter("x"), nullptr);
}

TEST(Metrics, InterningIsStableAndDense) {
  MetricsRegistry reg;
  const MetricId a = reg.intern("a");
  const MetricId b = reg.intern("b");
  EXPECT_NE(a, b);
  EXPECT_EQ(reg.intern("a"), a);
  EXPECT_EQ(reg.name(a), "a");
  EXPECT_EQ(reg.size(), 2u);
}

// --- Histogram -------------------------------------------------------------

TEST(HistogramTest, PercentilesWithinOneSubBucketOfExactSamples) {
  // 10,001 samples: p * (n - 1) / 100 is a whole rank for every p below, so
  // the exact percentile is itself a sample, and the histogram's walk lands
  // on that same sample's bucket.
  constexpr int kN = 10'001;
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    Rng rng(seed);
    Histogram h;
    Samples exact;
    for (int k = 0; k < kN; ++k) {
      // Log-uniform magnitude below 2^63, either sign.
      const int bits = static_cast<int>(rng.index(64));
      const auto mag =
          static_cast<std::int64_t>((rng.next() >> 1) >> (63 - bits));
      const std::int64_t v = rng.flip(0.5) ? -mag : mag;
      h.add(v);
      exact.add(static_cast<double>(v));
    }
    ASSERT_EQ(h.count(), static_cast<std::uint64_t>(kN));
    const auto lo = static_cast<double>(h.min());
    const auto hi = static_cast<double>(h.max());
    for (const double p : {0.0, 1.0, 50.0, 90.0, 99.0, 99.9, 100.0}) {
      const double e = h.percentile(p);
      const double x = exact.percentile(p);
      // The estimate is its bucket's upper edge: at or above the sample,
      // by less than one sub-bucket (2^-5 of |x|). 1e-9 absorbs the
      // int64 -> double rounding of values near 2^63.
      const double tol = 1e-9 * std::abs(x);
      EXPECT_GE(e, x - tol) << "seed " << seed << " p" << p;
      EXPECT_LE(e - x, std::abs(x) / 32 + tol)
          << "seed " << seed << " p" << p;
      EXPECT_GE(e, lo) << "seed " << seed << " p" << p;
      EXPECT_LE(e, hi) << "seed " << seed << " p" << p;
    }
  }
}

TEST(HistogramTest, IndexIsMonotoneAcrossTheSignedRange) {
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  constexpr std::size_t kBank = Histogram::kBank;
  // Exact region: |v| below 64 has a bucket of its own.
  for (std::int64_t v = -64; v < 64; ++v) {
    EXPECT_EQ(Histogram::bucket_max(Histogram::index(v)), v) << v;
  }
  EXPECT_EQ(Histogram::index(0), kBank);
  EXPECT_EQ(Histogram::index(1), kBank + 1);
  EXPECT_EQ(Histogram::index(-1), kBank - 1);
  EXPECT_EQ(Histogram::index(31), kBank + 31);
  EXPECT_EQ(Histogram::index(32), kBank + 32);
  EXPECT_EQ(Histogram::index(-31), kBank - 31);
  EXPECT_EQ(Histogram::index(-32), kBank - 32);
  EXPECT_EQ(Histogram::index(kMax), Histogram::kBuckets - 1);
  EXPECT_EQ(Histogram::bucket_max(Histogram::kBuckets - 1), kMax);
  EXPECT_EQ(Histogram::index(kMin), 0u);

  // Walk the whole range in ~3% steps on both sides of zero: the index
  // never decreases, and each value sits in (previous edge, its edge].
  std::vector<std::int64_t> values = {kMin, kMax};
  for (std::int64_t m = 1; m < kMax / 2; m += m / 32 + 1) {
    values.push_back(m);
    values.push_back(-m);
  }
  std::sort(values.begin(), values.end());
  std::size_t prev = 0;
  for (const std::int64_t v : values) {
    const std::size_t i = Histogram::index(v);
    ASSERT_LT(i, Histogram::kBuckets) << v;
    EXPECT_GE(i, prev) << "index not monotone at " << v;
    EXPECT_GE(Histogram::bucket_max(i), v) << v;
    if (i > 0) {
      EXPECT_LT(Histogram::bucket_max(i - 1), v) << v;
    }
    prev = i;
  }

  Histogram h;
  h.add(kMin);
  h.add(kMax);
  EXPECT_EQ(h.min(), kMin);
  EXPECT_EQ(h.max(), kMax);
  // p0 is the lowest occupied bucket's edge; p100 clamps to the max.
  EXPECT_EQ(h.percentile(0), static_cast<double>(Histogram::bucket_max(0)));
  EXPECT_EQ(h.percentile(100), static_cast<double>(kMax));
}

TEST(HistogramTest, EmptyPercentilesAreNaN) {
  const Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_TRUE(std::isnan(h.p50()));
  EXPECT_TRUE(std::isnan(h.percentile(0)));
  EXPECT_TRUE(std::isnan(h.p999()));
}

// The number list of `"key":[...]` in a JSONL line.
std::vector<std::int64_t> json_int_array(const std::string& line,
                                         const std::string& key) {
  const std::size_t at = line.find("\"" + key + "\":[");
  EXPECT_NE(at, std::string::npos) << key;
  if (at == std::string::npos) return {};
  std::istringstream is(line.substr(at + key.size() + 4));
  std::vector<std::int64_t> out;
  std::int64_t v;
  while (is.peek() != ']' && is >> v) {
    out.push_back(v);
    if (is.peek() == ',') is.get();
  }
  return out;
}

TEST(HistogramTest, JsonlListsNonemptyBucketsWithTheirEdges) {
  MetricsRegistry reg;
  Histogram& h = reg.histogram("slack");
  for (const std::int64_t v :
       {-5'000'000, -40, -40, 0, 7, 7, 7, 1000, 123'456'789}) {
    h.add(v);
  }
  std::ostringstream os;
  reg.write_jsonl(os);
  const std::string line = os.str();
  expect_valid_json(line.substr(0, line.size() - 1));
  const auto bounds = json_int_array(line, "bounds");
  const auto buckets = json_int_array(line, "buckets");
  ASSERT_EQ(bounds.size(), buckets.size());
  EXPECT_EQ(bounds.size(), 6u);
  std::int64_t total = 0;
  for (std::size_t k = 0; k < bounds.size(); ++k) {
    total += buckets[k];
    EXPECT_GT(buckets[k], 0);
    EXPECT_EQ(bounds[k], Histogram::bucket_max(Histogram::index(bounds[k])));
    if (k > 0) {
      EXPECT_LT(bounds[k - 1], bounds[k]);
    }
  }
  EXPECT_EQ(total, static_cast<std::int64_t>(h.count()));
  EXPECT_EQ(bounds.front(),
            Histogram::bucket_max(Histogram::index(-5'000'000)));
  EXPECT_EQ(bounds.back(),
            Histogram::bucket_max(Histogram::index(123'456'789)));
}

TEST(Metrics, JsonlLinesAreValidJson) {
  MetricsRegistry reg;
  reg.counter("a.count").add(7);
  reg.gauge("b.gauge \"quoted\"").set(1.5);
  reg.histogram("c.hist").add(3);
  std::ostringstream os;
  reg.write_jsonl(os);
  const std::string text = os.str();
  std::istringstream lines(text);
  std::string line;
  std::size_t n = 0;
  while (std::getline(lines, line)) {
    expect_valid_json(line);
    ++n;
  }
  EXPECT_EQ(n, 3u);
  EXPECT_NE(text.find("\"a.count\""), std::string::npos);
  EXPECT_NE(text.find("\\\"quoted\\\""), std::string::npos);
}

// --- executor probe hooks --------------------------------------------------

class CountingProbe final : public Probe {
 public:
  int begins = 0, ends = 0;
  std::size_t events = 0, advances = 0;
  Time last = -1;
  bool monotone = true;

  void on_run_begin(Time) override { ++begins; }
  void on_run_end(Time) override { ++ends; }
  void on_event(const TimedEvent& e, const Machine&) override {
    ++events;
    if (e.time < last) monotone = false;
    last = e.time;
  }
  void on_time_advance(Time from, Time to) override {
    ++advances;
    if (to <= from) monotone = false;
  }
};

TEST(ExecutorProbes, HooksFireAndEventsMatchSteps) {
  CountingProbe probe;
  Executor exec({.horizon = milliseconds(10), .probes = {&probe}});
  exec.add_owned(std::make_unique<ScriptMachine>(
      "scripted",
      std::vector<ScriptMachine::Step>{{microseconds(10), make_action("A", 0)},
                                       {microseconds(20), make_action("B", 0)},
                                       {microseconds(30), make_action("C", 0)}}));
  const auto report = exec.run();
  EXPECT_EQ(probe.begins, 1);
  EXPECT_EQ(probe.ends, 1);
  EXPECT_EQ(probe.events, report.steps);
  EXPECT_EQ(probe.events, 3u);
  EXPECT_GE(probe.advances, 3u);
  EXPECT_TRUE(probe.monotone);
}

TEST(ExecutorProbes, ProbesSeeEventsEvenWithoutRecording) {
  CountingProbe probe;
  Executor exec({.horizon = milliseconds(1), .record_events = false});
  exec.attach_probe(&probe);
  exec.add_owned(std::make_unique<ScriptMachine>(
      "scripted", std::vector<ScriptMachine::Step>{
                      {microseconds(5), make_action("A", 0)}}));
  exec.run();
  EXPECT_EQ(probe.events, 1u);
  EXPECT_TRUE(exec.events().empty());
}

// --- built-in probes on a real clocked system ------------------------------

RwRunConfig small_config() {
  RwRunConfig cfg;
  cfg.num_nodes = 3;
  cfg.ops_per_node = 8;
  cfg.d1 = microseconds(20);
  cfg.d2 = microseconds(300);
  cfg.eps = microseconds(50);
  cfg.c = microseconds(40);
  cfg.think_max = microseconds(200);
  cfg.horizon = seconds(30);
  cfg.seed = 7;
  return cfg;
}

TEST(BuiltInProbes, SkewStaysInsideEpsAndChannelInsideBounds) {
  MetricsRegistry reg;
  ObsOptions obs;
  obs.registry = &reg;
  RwRunConfig cfg = small_config();
  cfg.obs = &obs;
  ZigzagDrift drift(0.3);
  const auto run = run_rw_clock(cfg, drift);
  ASSERT_FALSE(run.ops.empty());

  const Histogram* skew = reg.find_histogram("clock.skew_ns");
  ASSERT_NE(skew, nullptr);
  EXPECT_GT(skew->count(), 0u);
  EXPECT_LE(skew->max(), static_cast<double>(cfg.eps));
  const Counter* violations = reg.find_counter("clock.skew_violations");
  ASSERT_NE(violations, nullptr);
  EXPECT_EQ(violations->value(), 0u);

  const Histogram* lat = reg.find_histogram("channel.latency_ns");
  ASSERT_NE(lat, nullptr);
  EXPECT_GT(lat->count(), 0u);
  EXPECT_GE(lat->min(), static_cast<double>(cfg.d1));
  EXPECT_LE(lat->max(), static_cast<double>(cfg.d2));
  EXPECT_EQ(reg.find_counter("channel.latency_violations")->value(), 0u);
  EXPECT_EQ(reg.find_counter("channel.delivered")->value(), lat->count());

  // Per-node skew gauges exist and sit inside the signed band.
  for (int i = 0; i < cfg.num_nodes; ++i) {
    const Gauge* g =
        reg.find_gauge("clock.skew_ns.node" + std::to_string(i));
    ASSERT_NE(g, nullptr);
    EXPECT_GE(g->min(), -static_cast<double>(cfg.eps));
    EXPECT_LE(g->max(), static_cast<double>(cfg.eps));
  }
}

TEST(BuiltInProbes, Sim1BufferingIsObservedWhenForced) {
  // Opposing constant offsets with d1 = 0 force Lamport-condition holds
  // (Section 7.2: buffering can only be avoided when d1 >= 2 eps).
  MetricsRegistry reg;
  ObsOptions obs;
  obs.registry = &reg;
  RwRunConfig cfg = small_config();
  cfg.d1 = 0;
  cfg.eps = microseconds(150);
  cfg.obs = &obs;
  OpposingOffsetDrift drift;
  std::uint64_t received = 0, buffered = 0;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    cfg.seed = seed;
    (void)run_rw_clock(cfg, drift);
  }
  received = reg.find_counter("sim1.recv.received")->value();
  buffered = reg.find_counter("sim1.recv.buffered")->value();
  EXPECT_GT(received, 0u);
  EXPECT_GT(buffered, 0u);
  // Held messages show up in the real-time hold histogram too.
  const Histogram* hold = reg.find_histogram("sim1.recv.hold_ns");
  ASSERT_NE(hold, nullptr);
  EXPECT_EQ(hold->count(), received);
  EXPECT_GT(hold->max(), 0.0);
  // Holds are bounded by ~2eps of clock disagreement plus scheduling slack.
  EXPECT_LE(hold->max(), static_cast<double>(4 * cfg.eps));
}

TEST(BuiltInProbes, MmtTickToActionBoundedByEll) {
  MetricsRegistry reg;
  ObsOptions obs;
  obs.registry = &reg;
  RwRunConfig cfg = small_config();
  cfg.ops_per_node = 4;
  cfg.obs = &obs;
  ZigzagDrift drift(0.3);
  const Duration ell = microseconds(10);
  const auto run = run_rw_mmt(cfg, drift, ell, cfg.num_nodes + 2);
  ASSERT_FALSE(run.ops.empty());
  EXPECT_GT(reg.find_counter("mmt.ticks")->value(), 0u);
  const Histogram* tta = reg.find_histogram("mmt.tick_to_action_ns");
  ASSERT_NE(tta, nullptr);
  EXPECT_GT(tta->count(), 0u);
  // Ticks are at most ell apart, so no action is more than ell past the
  // last tick of its node.
  EXPECT_LE(tta->max(), static_cast<double>(ell));
  EXPECT_GT(reg.find_counter("mmt.steps")->value(), 0u);
}

// --- Chrome trace exporter -------------------------------------------------

TEST(ChromeTrace, RunExportParsesAndCarriesTracks) {
  std::ostringstream chrome;
  MetricsRegistry reg;
  ObsOptions obs;
  obs.registry = &reg;
  obs.chrome_out = &chrome;
  RwRunConfig cfg = small_config();
  cfg.obs = &obs;
  ZigzagDrift drift(0.3);
  (void)run_rw_clock(cfg, drift);

  const std::string doc = chrome.str();
  expect_valid_json(doc);
  EXPECT_NE(doc.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(doc.find("\"ph\":\"M\""), std::string::npos);  // track names
  EXPECT_NE(doc.find("\"ph\":\"i\""), std::string::npos);  // instants
  EXPECT_NE(doc.find("\"ph\":\"C\""), std::string::npos);  // counters
  EXPECT_NE(doc.find("clock skew (ns)"), std::string::npos);
}

TEST(ChromeTrace, PostHocExportParses) {
  RwRunConfig cfg = small_config();
  const auto run = run_rw_timed(cfg);
  std::ostringstream os;
  write_chrome_trace(os, run.events, {"m0", "m1"});
  expect_valid_json(os.str());
}

TEST(ChromeTrace, EmptyDocumentIsValid) {
  std::ostringstream os;
  { ChromeTraceWriter w(os); }
  expect_valid_json(os.str());
}

// Every flow record in a document, in emission order: phase ('s' start at
// the send, 't' step at the delivery, 'f' end at the receive) and the
// message uid it binds to.
std::vector<std::pair<char, std::uint64_t>> flow_records(
    const std::string& doc) {
  std::vector<std::pair<char, std::uint64_t>> out;
  for (const char ph : {'s', 't', 'f'}) {
    const std::string needle =
        std::string("\"ph\":\"") + ph + "\",\"cat\":\"msg\",\"id\":";
    for (auto pos = doc.find(needle); pos != std::string::npos;
         pos = doc.find(needle, pos + 1)) {
      out.emplace_back(ph, std::stoull(doc.substr(pos + needle.size())));
    }
  }
  return out;
}

TEST(ChromeTrace, FlowEventsBalancePerUid) {
  std::ostringstream chrome;
  CausalTraceProbe causal;
  ObsOptions obs;
  obs.chrome_out = &chrome;
  obs.causal = &causal;
  RwRunConfig cfg = small_config();
  cfg.obs = &obs;
  ZigzagDrift drift(0.3);
  (void)run_rw_clock(cfg, drift);
  const std::string doc = chrome.str();
  expect_valid_json(doc);

  std::map<std::uint64_t, std::array<int, 3>> per_uid;  // s/t/f counts
  for (const auto& [ph, uid] : flow_records(doc)) {
    ++per_uid[uid][ph == 's' ? 0 : ph == 't' ? 1 : 2];
  }
  ASSERT_FALSE(per_uid.empty());
  bool saw_complete_chain = false;
  for (const auto& [uid, counts] : per_uid) {
    // Exactly one start per flow, at most one end (RECVMSG terminates the
    // chain); intermediate hops (SENDMSG/DELIVER/ERECVMSG in the clock
    // model) are steps and may repeat, but never float without a start.
    EXPECT_EQ(counts[0], 1) << "uid " << uid << ": flow starts";
    EXPECT_LE(counts[2], 1) << "uid " << uid << ": flow ends";
    if (counts[1] > 0 || counts[2] > 0) {
      EXPECT_EQ(counts[0], 1) << "uid " << uid << ": step/end without start";
    }
    if (counts[0] == 1 && counts[1] >= 1 && counts[2] == 1) {
      saw_complete_chain = true;
    }
  }
  EXPECT_TRUE(saw_complete_chain);  // at least one full send->...->recv
}

TEST(ChromeTrace, ProfilerCounterTracksAppearExactlyWhenProfiling) {
  const auto doc_with = [](Profiler* prof) {
    std::ostringstream chrome;
    ObsOptions obs;
    obs.chrome_out = &chrome;
    obs.profile = prof;
    RwRunConfig cfg = small_config();
    cfg.obs = &obs;
    ZigzagDrift drift(0.3);
    (void)run_rw_clock(cfg, drift);
    return chrome.str();
  };
  const std::string bare = doc_with(nullptr);
  expect_valid_json(bare);
  EXPECT_EQ(bare.find("exec.prof ticks"), std::string::npos);

  Profiler prof(ProfOptions{.sample_every = 1});
  const std::string profiled = doc_with(&prof);
  expect_valid_json(profiled);
  EXPECT_NE(profiled.find("\"name\":\"exec.prof ticks\""), std::string::npos);
  EXPECT_GT(prof.events(), 0u);
}

}  // namespace
}  // namespace psc
