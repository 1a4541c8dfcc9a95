// Plain-text serialization for timed traces.
//
// One event per line:
//   <time_ns> <clock_ns|-> <owner|-> <V|H> <name> <node|-> <peer|->
//       [a:<int>|f:<float>|s:<string>]* [m:<kind>:<uid>:<tag|->[:fields...]]
// (the value/message tokens continue the same line)
//
// Round-trips everything the analyses need (times, clocks, visibility,
// action identity and payloads, message identity). Used to persist bench
// traces for offline inspection and in golden tests.
#pragma once

#include <iosfwd>
#include <string>

#include "core/trace.hpp"

namespace psc {

void write_trace(std::ostream& os, const TimedTrace& trace);
std::string trace_to_text(const TimedTrace& trace);

// Parses what write_trace produced; throws CheckError on malformed input
// (the message starts "line N: ", N counting from 1). Blank lines are
// skipped.
TimedTrace read_trace(std::istream& is);
TimedTrace trace_from_text(const std::string& text);

// JSON Lines form of the same data, for interchange with external tooling
// (and the psc-lint CLI). One object per line:
//   {"time":<ns>,"clock":<ns>,"owner":<idx>,"visible":<bool>,
//    "name":"...","node":<idx>,"peer":<idx>,
//    "args":[{"i":<int>}|{"f":<float>}|{"s":"..."}|{"u":null}, ...],
//    "msg":{"kind":"...","uid":<n>,"tag":<ns>,"fields":[...]}}
// Absent clock/owner/node/peer/tag are omitted; empty args/msg are omitted.
void write_trace_jsonl(std::ostream& os, const TimedTrace& trace);

// Parses what write_trace_jsonl produced (a restricted JSON subset; throws
// CheckError naming the line on malformed input, as read_trace does).
TimedTrace read_trace_jsonl(std::istream& is);

// Reads either format, sniffing by the first non-whitespace byte ('{' means
// JSONL).
TimedTrace read_trace_any(std::istream& is);

}  // namespace psc
