#include "analysis/trace_check.hpp"

#include <sstream>
#include <utility>

#include "analysis/windows.hpp"
#include "core/relations.hpp"

namespace psc {

TraceChecker::TraceChecker(TraceCheckOptions opts) : opts_(std::move(opts)) {}

void TraceChecker::emit(DiagCode code, std::string message,
                        std::string machine, Time time) {
  if (opts_.on_violation && default_severity(code) == Severity::kError) {
    opts_.on_violation(
        Diagnostic{code, Severity::kError, message, machine, time});
  }
  report_.add(code, std::move(message), std::move(machine), time);
}

void TraceChecker::observe(const TimedEvent& e) {
  // PSC101: recorded clock readings stay within the C_eps band (plus ell
  // under MMT, where the node's clock is the last *ticked* value and may
  // lag by one tick interval on top of the drift).
  if (opts_.eps >= 0 && e.clock != kNoClockTag) {
    const BoundWindow w = ceps_window(opts_.eps, opts_.ell);
    if (!w.contains(e.clock - e.time, opts_.slack)) {
      const Duration skew =
          e.clock > e.time ? e.clock - e.time : e.time - e.clock;
      std::ostringstream msg;
      msg << "clock reads " << format_time(e.clock) << " at real time "
          << format_time(e.time) << " (skew " << format_time(skew)
          << " > band " << format_time(w.hi + opts_.slack) << ")";
      emit(DiagCode::kClockDrift, msg.str(), e.action.name, e.time);
    }
  }

  const EventClass cls = ledger_.classify(e);
  check_channel(e, cls);
  if (opts_.ell >= 0) check_mmt(e, cls);

  if (opts_.check_order && opts_.num_nodes > 0 && opts_.eps >= 0 &&
      e.clock != kNoClockTag) {
    clocked_.push_back(e);
  }
}

void TraceChecker::check_channel(const TimedEvent& e, EventClass cls) {
  const auto& a = e.action;
  if (!a.msg.has_value()) return;
  const EventLedger::Record& r = ledger_.match(e, cls);
  if (cls != EventClass::kERecv && cls != EventClass::kRecv) return;
  const std::uint64_t uid = a.msg->uid;
  if (cls == EventClass::kERecv ? r.esend_time < 0 : !r.sent()) {
    emit(DiagCode::kUnknownDelivery,
         a.name + " of uid " + std::to_string(uid) + " with no matching " +
             (cls == EventClass::kERecv ? "ESENDMSG" : "send"),
         a.name, e.time);
    return;
  }
  if (cls == EventClass::kERecv || r.esend_time < 0) {
    // PSC102: the physical delivery — ERECVMSG under Simulation 1, RECVMSG
    // in the timed model — lands within [d1, d2] of real time.
    if (opts_.d2 < 0) return;
    const BoundWindow w = delivery_window(opts_.d1, opts_.d2);
    const Duration lat =
        e.time - (cls == EventClass::kERecv ? r.esend_time : r.send_time);
    if (!w.contains(lat)) {
      std::ostringstream msg;
      msg << "uid " << uid << " delivered after " << format_time(lat)
          << ", outside [" << format_time(w.lo) << ", " << format_time(w.hi)
          << "]";
      emit(DiagCode::kDeliveryWindow, msg.str(), a.name, e.time);
    }
    return;
  }
  // Simulation 1: RECVMSG is the buffer release. The receiver's clock at
  // release is the event's clock reading; the sender's clock is the tag.
  if (r.tag == kNoClockTag || e.clock == kNoClockTag) return;
  // PSC103: Lamport's condition — never deliver before the local clock
  // reaches the clock value at which the message was sent.
  if (e.clock + opts_.slack < r.tag) {
    std::ostringstream msg;
    msg << "uid " << uid << " released at receiver clock "
        << format_time(e.clock) << " before its send tag "
        << format_time(r.tag);
    emit(DiagCode::kEarlyRelease, msg.str(), a.name, e.time);
  }
  // PSC104: Theorem 4.7 — in the simulated timed execution, clock-time
  // delivery latency lies in [max(d1 - 2eps, 0), d2 + 2eps].
  if (opts_.d2 >= 0 && opts_.eps >= 0) {
    const BoundWindow w = thm47_window(opts_.d1, opts_.d2, opts_.eps);
    const Duration lat = e.clock - r.tag;
    if (!w.contains(lat, opts_.slack)) {
      std::ostringstream msg;
      msg << "uid " << uid << " clock-time latency " << format_time(lat)
          << " outside [" << format_time(w.lo) << ", " << format_time(w.hi)
          << "]";
      emit(DiagCode::kWidenedWindow, msg.str(), a.name, e.time);
    }
  }
}

void TraceChecker::check_mmt(const TimedEvent& e, EventClass cls) {
  const BoundWindow w = mmt_window(opts_.ell);
  // PSC105 half 1: the clock subsystem C^m fires a TICK at least every ell
  // (its single task class has boundmap [0, ell], enabled from time 0).
  if (const auto gap = ledger_.tick_gap(e, cls)) {
    if (!w.contains(*gap, opts_.slack)) {
      std::ostringstream msg;
      msg << "node " << e.action.node << " tick gap " << format_time(*gap)
          << " > ell " << format_time(opts_.ell);
      emit(DiagCode::kBoundmapOverrun, msg.str(), e.action.name, e.time);
    }
  }
  // PSC105 half 2: an MMT node (recognized by its MMTSTEP taus) performs a
  // step — output or tau — at least every ell. Gaps are measured between
  // consecutive locally controlled events of the same owner; the trailing
  // gap to the run's end is exempt (the run may stop mid-budget).
  if (const auto gap = ledger_.step_gap(e, cls)) {
    if (!w.contains(*gap, opts_.slack)) {
      std::ostringstream msg;
      msg << "MMT node (owner " << e.owner << ") step gap "
          << format_time(*gap) << " > ell " << format_time(opts_.ell);
      emit(DiagCode::kBoundmapOverrun, msg.str(), e.action.name, e.time);
    }
  }
}

void TraceChecker::finalize() {
  if (finalized_) return;
  finalized_ = true;
  if (!opts_.check_order || opts_.num_nodes <= 0 || opts_.eps < 0 ||
      clocked_.empty()) {
    return;
  }
  // PSC106: the clock retiming gamma'_alpha (Def 4.2) — replace each
  // clocked event's time by its clock reading and re-sort — must be
  // =band,kappa-related to the original for kappa = one class per node:
  // every event moves by at most the drift band and per-node order is
  // preserved (P_eps, Section 4.3).
  const Duration band =
      opts_.eps + (opts_.ell > 0 ? opts_.ell : 0) + opts_.slack;
  const TimedTrace retimed = stable_sort_by_time(retime_by_clock(clocked_));
  const RelationResult rel =
      eq_within(clocked_, retimed, band, per_node_classes(opts_.num_nodes));
  if (!rel.related) {
    emit(DiagCode::kOrderViolation,
                "trace is not =eps,kappa-related to its clock retiming: " +
                    rel.why);
  }
}

DiagnosticReport check_trace(const TimedTrace& trace,
                             const TraceCheckOptions& opts) {
  TraceChecker checker(opts);
  for (const TimedEvent& e : trace) checker.observe(e);
  checker.finalize();
  return checker.report();
}

}  // namespace psc
