// Round-trip tests for the trace serialization, including on real system
// traces with messages, clocks, and hidden events.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "core/trace_io.hpp"
#include "util/check.hpp"
#include "rw/harness.hpp"

namespace psc {
namespace {

void expect_traces_equal(const TimedTrace& a, const TimedTrace& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t k = 0; k < a.size(); ++k) {
    EXPECT_EQ(a[k].time, b[k].time) << k;
    EXPECT_EQ(a[k].clock, b[k].clock) << k;
    EXPECT_EQ(a[k].owner, b[k].owner) << k;
    EXPECT_EQ(a[k].visible, b[k].visible) << k;
    EXPECT_TRUE(a[k].action == b[k].action)
        << k << ": " << to_string(a[k].action) << " vs "
        << to_string(b[k].action);
  }
}

TEST(TraceIoTest, EmptyTrace) {
  EXPECT_TRUE(trace_from_text(trace_to_text({})).empty());
  EXPECT_TRUE(trace_from_text("").empty());
}

TEST(TraceIoTest, PlainActionsRoundTrip) {
  TimedTrace tr;
  TimedEvent e;
  e.action = make_action("READ", 3);
  e.time = 1234;
  tr.push_back(e);
  e.action = make_action("WRITE", 0, {Value{std::int64_t{-7}}});
  e.time = 5678;
  e.clock = 5555;
  e.owner = 2;
  e.visible = false;
  tr.push_back(e);
  expect_traces_equal(tr, trace_from_text(trace_to_text(tr)));
}

TEST(TraceIoTest, AllValueTypesRoundTrip) {
  TimedTrace tr;
  TimedEvent e;
  e.action = make_action(
      "MIX", 1,
      {Value{}, Value{std::int64_t{42}}, Value{2.5},
       Value{std::string("hello world: with\\special\nchars")}});
  e.time = 9;
  tr.push_back(e);
  expect_traces_equal(tr, trace_from_text(trace_to_text(tr)));
}

TEST(TraceIoTest, MessagesRoundTrip) {
  TimedTrace tr;
  Message m = make_message("UPDATE", {Value{std::int64_t{5}},
                                      Value{std::string("a b:c")}});
  m.clock_tag = 777;
  TimedEvent e;
  e.action = make_send(0, 2, std::move(m));
  e.time = 100;
  tr.push_back(e);
  const auto back = trace_from_text(trace_to_text(tr));
  expect_traces_equal(tr, back);
  ASSERT_TRUE(back[0].action.msg.has_value());
  EXPECT_EQ(back[0].action.msg->clock_tag, 777);
  EXPECT_EQ(as_string(back[0].action.msg->fields[1]), "a b:c");
}

TEST(TraceIoTest, RealSystemTraceRoundTrips) {
  RwRunConfig cfg;
  cfg.num_nodes = 3;
  cfg.d1 = microseconds(20);
  cfg.d2 = microseconds(200);
  cfg.eps = microseconds(40);
  cfg.c = microseconds(20);
  cfg.ops_per_node = 8;
  cfg.think_max = microseconds(100);
  cfg.horizon = seconds(5);
  ZigzagDrift drift(0.3);
  const auto run = run_rw_clock(cfg, drift);
  ASSERT_GT(run.events.size(), 100u);
  expect_traces_equal(run.events, trace_from_text(trace_to_text(run.events)));
}

TEST(TraceIoTest, MalformedInputRejected) {
  EXPECT_THROW(trace_from_text("12 - - X BADVIS 0 -"), CheckError);
  EXPECT_THROW(trace_from_text("1 - - V NAME 0 - q:12"), CheckError);
}

// Expects `read` to throw CheckError whose message names `line`.
template <class F>
void expect_rejected_at_line(F read, int line) {
  try {
    read();
    ADD_FAILURE() << "malformed trace accepted";
  } catch (const CheckError& e) {
    const std::string what = e.what();
    EXPECT_EQ(what.rfind("line " + std::to_string(line) + ": ", 0), 0u)
        << what;
  }
}

// Bad numbers and truncated lines must surface as CheckError (which
// psc-lint reports with exit 2), never as an uncaught std::invalid_argument.
TEST(TraceIoTest, MalformedNumbersAndTruncatedLinesNameTheLine) {
  const std::string good = "5 - 0 V X 0 -\n";
  for (const std::string bad :
       {"garbage", "5", "5 x 0 V X 0 -", "5 - 0 V X zero -",
        "5 - 0 V X 0 - a:1.5", "5 - 0 V X 0 - f:nope",
        "5 - 0 V X 0 - m:k:uid:-", "5 - 0 V X 0 - m:k:1:tag",
        "99999999999999999999 - 0 V X 0 -"}) {
    expect_rejected_at_line([&] { trace_from_text(good + bad); }, 2);
  }
  // read_trace_any skips leading blank lines while sniffing the format;
  // the reported line still counts them.
  std::istringstream text("\n\n" + good + "garbage\n");
  expect_rejected_at_line([&] { read_trace_any(text); }, 4);
  std::istringstream jsonl(
      "\n{\"time\":1,\"visible\":true,\"name\":\"X\"}\n"
      "{\"time\":-,\"visible\":true,\"name\":\"X\"}\n");
  expect_rejected_at_line([&] { read_trace_any(jsonl); }, 3);
  std::istringstream jsonl_float("{\"time\":1,\"args\":[{\"f\":1e}]}\n");
  expect_rejected_at_line([&] { read_trace_jsonl(jsonl_float); }, 1);
}

}  // namespace
}  // namespace psc
