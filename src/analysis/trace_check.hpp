// Layer 2 of the model-conformance analyzer: the trace invariant checker.
//
// Replays an execution's TimedEvent stream — live, as an executor Probe, or
// offline from a trace file — against the paper's quantitative predicates:
//
//   PSC101  C_eps (Def 2.5): every recorded clock reading stays within
//           eps of real time (widened by ell in the MMT model, where
//           MmtNode reports the last *ticked* clock value);
//   PSC102  the physical channel contract (Figure 1): each message is
//           delivered within [d1, d2] of real time after its send
//           (SENDMSG->RECVMSG in the timed model, ESENDMSG->ERECVMSG under
//           Simulation 1 — detected per message uid);
//   PSC103  Simulation 1's buffer-release rule (Figure 2): no RECVMSG at a
//           receiver clock earlier than the sender's clock tag;
//   PSC104  Theorem 4.7's translated window: clock-time delivery latency
//           (receiver clock at RECVMSG minus the sender's tag) within
//           [max(d1-2eps,0), d2+2eps];
//   PSC105  the MMT boundmap [0, ell] (Def 5.1 / Section 5.2): consecutive
//           TICKs per node, and consecutive locally controlled events of a
//           recognized MMT node, at most ell apart;
//   PSC106  per-node order preservation: the trace and its clock-retimed
//           reordering (gamma'_alpha, Def 4.2) are =band,kappa-related for
//           kappa = one class per node (Def 2.8, src/core/relations);
//   PSC107  a delivery event whose message uid was never seen sent (warn —
//           usually a truncated trace).
//
// Checks whose parameters are unset (negative) are skipped, so the checker
// runs meaningfully on any model: a timed-model trace gets PSC102 only, a
// clock-model trace adds PSC101/103/104/106, an MMT trace adds PSC105.
// Events are matched and classified by an EventLedger
// (analysis/ledger.hpp), so action names follow the library's conventions
// (SENDMSG/RECVMSG, ESENDMSG/ERECVMSG, TICK, MMTSTEP); renamed systems need
// their traces translated back before checking.
#pragma once

#include <cstdint>
#include <functional>

#include "analysis/diagnostics.hpp"
#include "analysis/ledger.hpp"
#include "core/trace.hpp"
#include "obs/probe.hpp"

namespace psc {

struct TraceCheckOptions {
  // C_eps accuracy; negative disables the clock checks (PSC101/104/106).
  Duration eps = -1;
  // Physical channel bounds; d2 < 0 disables the window checks (PSC102/104).
  Duration d1 = -1;
  Duration d2 = -1;
  // MMT boundmap upper bound; negative disables PSC105 and narrows the
  // PSC101/106 band to eps (no missed-clock staleness).
  Duration ell = -1;
  // Node count, needed for the per-node classes of PSC106; 0 disables it.
  int num_nodes = 0;
  // Run the O(n log n) end-of-trace order check (PSC106). It buffers every
  // clocked event, so long-running online probes may want it off.
  bool check_order = true;
  // Grid tolerance: clock trajectories are integer-nanosecond piecewise
  // lines, so clock_at()/time_first_at() round by up to a few ns.
  Duration slack = 4;
  // Fired synchronously for every *error*-severity diagnostic as it is
  // raised (warns and notes do not fire), before the diagnostic lands in
  // the report. This is the dump-on-violation trigger: psc-sim and the
  // tests hook the flight recorder here so the ring still holds the
  // offending event when the snapshot is taken. Keep the callback cheap
  // and reentrancy-free — it runs on the executor's record path when the
  // checker is attached as an InvariantProbe.
  std::function<void(const Diagnostic&)> on_violation;
};

// Streaming checker: feed events in execution order, then finalize().
class TraceChecker {
 public:
  explicit TraceChecker(TraceCheckOptions opts = {});

  void observe(const TimedEvent& e);
  // End-of-trace checks (PSC106). Idempotent.
  void finalize();

  const DiagnosticReport& report() const { return report_; }

 private:
  // report_.add plus the TraceCheckOptions::on_violation hook for
  // error-severity codes.
  void emit(DiagCode code, std::string message, std::string machine = "",
            Time time = -1);

  // Deliveries: the physical leg against [d1, d2] (PSC102), a Simulation 1
  // buffer release against its tag (PSC103) and Theorem 4.7 (PSC104).
  void check_channel(const TimedEvent& e, EventClass cls);
  void check_mmt(const TimedEvent& e, EventClass cls);

  TraceCheckOptions opts_;
  DiagnosticReport report_;
  EventLedger ledger_;
  TimedTrace clocked_;  // retained for PSC106 when enabled
  bool finalized_ = false;
};

// Offline convenience: checks a recorded trace (e.g. read back from a
// psc-sim --trace dump) in one call.
DiagnosticReport check_trace(const TimedTrace& trace,
                             const TraceCheckOptions& opts = {});

// Online form: attach to an Executor (directly or via ObsOptions::lint) and
// read the report after the run. finalize() fires at on_run_end.
class InvariantProbe final : public Probe {
 public:
  explicit InvariantProbe(TraceCheckOptions opts = {}) : checker_(opts) {}

  // Invariants are checked per event — opt out of the per-advance dispatch.
  bool observes_time() const override { return false; }

  // The microprofiler books this probe's on_event time to its dedicated
  // lint phase, so "what does online checking cost" is directly measured
  // instead of inferred from the PSC_LINT A/B bench arm.
  std::string_view profile_name() const override { return "lint"; }

  void on_event(const TimedEvent& e, const Machine& /*owner*/) override {
    checker_.observe(e);
  }
  void on_run_end(Time /*now*/) override { checker_.finalize(); }

  const DiagnosticReport& report() const { return checker_.report(); }

 private:
  TraceChecker checker_;
};

}  // namespace psc
